"""Cross-layer observability: one typed event stream for the whole stack.

Every layer of the reproduction — the simulation kernel, TCP, MPTCP
subflows, the MP-DASH control plane, HTTP, the DASH player, and the
energy model — publishes typed events onto a single
:class:`~repro.obs.bus.EventBus` owned by the
:class:`~repro.net.simulator.Simulator`.  The legacy per-layer records
(:class:`~repro.mptcp.activity.ActivityLog`,
:class:`~repro.dash.events.PlayerEventLog`) are subscribers of that bus,
and :mod:`repro.obs.trace_export` turns the stream into a JSONL trace that
can be dumped, reloaded, and replayed into the analysis tool offline.

On top of the stream sit four derived views, all bus subscribers or pure
functions of a trace, all reconstructible offline:

* :mod:`repro.obs.metrics` — counters, gauges, mergeable histograms, and
  timeseries (the standard session registry, Prometheus/JSON exposition);
* :mod:`repro.obs.spans` — the causal span tree of every chunk, exportable
  as Chrome trace-event JSON for Perfetto;
* :mod:`repro.obs.check` — declarative invariant monitoring: stock
  checkers judge the stream against the paper's semantic contracts and
  emit structured violations;
* :mod:`repro.obs.why` — causal root-cause attribution: every deadline
  miss, stall, and ERROR violation explained through a declarative rule
  set, two traces diffed chunk-by-chunk, and blame histograms folded
  into the fleet registry.

:mod:`repro.obs.ledger` and :mod:`repro.obs.drift` extend observability
*across* runs: an append-only, content-addressed JSONL run ledger every
entry point can opt into, and a drift sentinel (EWMA control bands +
CUSUM change points) that turns the ledger population into a regression
gate (``repro history``).  Session, sweep and fleet entries carry
wall clock, sim-seconds per wall second and peak RSS, so the ledger is
also where performance trends across runs; ``perfbench/run.py`` is the
performance harness.

The presentation layer sits on top of the derived views:
:mod:`repro.obs.svg` is a dependency-free SVG chart renderer,
:mod:`repro.obs.report` turns traces, fleet results, anomaly captures and
the ledger into self-contained single-file HTML documents (pure functions of
their inputs — live and offline rendering are byte-identical).
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "bus": "EventBus",
    "check": "ERROR INFO WARNING check_trace stock_checkers",
    "drift": "detect_drift drift_table gate_ok trend_document",
    "events": "RADIO_ACTIVE RADIO_IDLE RADIO_TAIL",
    "metrics": ("MetricsRegistry SessionMetricsCollector "
                "collector_from_trace registry_from_trace"),
    "recorder": ("RecorderConfig ShardRecorder find_manifests load_manifest "
                 "rank_anomalies save_manifest triage_captures triage_table"),
    "report": ("fleet_report_html history_report_html session_report_html "
               "triage_report_html write_report"),
    "spans": "dump_chrome_trace render_span_tree spans_from_trace",
    "trace_export": ("Trace TraceMeta TraceRecorder analyzer_from_trace "
                     "dump_jsonl dumps_jsonl gzip_bytes load_jsonl "
                     "loads_jsonl metrics_from_trace replay"),
    "why": ("attributions_from_trace diff_traces render_attributions "
            "summarize_attributions"),
})
