"""Plain-text table formatting for the benchmark harness.

Every bench prints the same rows/series the paper's table or figure
reports; these helpers keep the output aligned and the units explicit.
:func:`sweep_table` renders a whole sweep — successes, cache hits, and
failures — as one such table.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width table with right-aligned numeric columns."""
    if not headers:
        raise ValueError("a table needs headers")
    text_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}")
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _violation_cell(violations) -> str:
    """Render per-run invariant verdicts: "-" unchecked, "0" clean, else
    counts like "2E+1W" (errors, warnings, info)."""
    if violations is None:
        return "-"
    parts = [f"{violations[sev]}{sev[0].upper()}"
             for sev in ("error", "warning", "info")
             if violations.get(sev)]
    return "+".join(parts) if parts else "0"


def pct(fraction: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{fraction * 100:.{digits}f}%"


def mb(num_bytes: float, digits: int = 2) -> str:
    """Format bytes as megabytes."""
    return f"{num_bytes / 1e6:.{digits}f}MB"


def joules(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}J"


def mbps_str(bytes_per_second: float, digits: int = 2) -> str:
    return f"{bytes_per_second * 8 / 1e6:.{digits}f}Mbps"


def sweep_table(result) -> str:
    """One row per run of a :class:`~repro.experiments.sweep.SweepResult`.

    Session rows report the evaluation metrics; failed rows carry the
    failure kind and message instead.
    """
    from .sweep import SessionSummary  # avoid cycle

    rows = []
    for run in result.runs:
        status = ("cached" if run.cached
                  else "ok" if run.ok
                  else f"failed:{run.failure.kind}")
        cell_mb = energy = bitrate = stalls = viol = "-"
        summary = run.summary
        if isinstance(summary, SessionSummary):
            metrics = summary.metrics
            cell_mb = f"{metrics.cellular_bytes / 1e6:.2f}"
            energy = f"{metrics.radio_energy:.1f}"
            bitrate = f"{metrics.mean_bitrate_mbps:.2f}"
            stalls = str(metrics.stall_count)
            viol = _violation_cell(summary.violations)
        detail = run.failure.error if run.failure is not None else ""
        rows.append([run.index, run.config_key[:12], status,
                     f"{run.elapsed:.2f}", cell_mb, energy, bitrate, stalls,
                     viol, detail])
    title = (f"sweep: {len(result.runs)} runs, "
             f"{len(result.failures)} failed, "
             f"{result.cache_hits} cached, "
             f"wall {result.wall_clock:.2f}s on {result.jobs} job(s)")
    return format_table(
        ["run", "key", "status", "time s", "cell MB", "energy J",
         "bitrate", "stalls", "viol", "detail"], rows, title=title)


def fleet_table(result) -> str:
    """Headline population statistics of a fleet campaign.

    One labelled row per statistic from
    :meth:`~repro.experiments.fleet.FleetResult.population`, with "-"
    where no data was folded (e.g. a baseline-scheme fleet has no
    deadline observations).
    """
    pop = result.population()

    def num(value, fmt="{:.2f}"):
        return "-" if value is None else fmt.format(value)

    shards = f"{pop['shards_done']}/{pop['total_shards']}"
    if result.resumed_shards:
        shards += f" ({result.resumed_shards} resumed)"
    rows = [
        ["sessions simulated", str(pop["sessions"])],
        ["session failures", str(pop["failures"])],
        ["shards", shards],
        ["simulated time", f"{pop['sim_seconds']:.0f}s"],
        ["mean bitrate p50", num(pop["bitrate_p50_mbps"]) + " Mbit/s"],
        ["mean bitrate p95", num(pop["bitrate_p95_mbps"]) + " Mbit/s"],
        ["stalled sessions", num(pop["stalled_session_fraction"],
                                 "{:.1%}")],
        ["stall time p95", num(pop["stall_seconds_p95"]) + "s"],
        ["startup delay p50", num(pop["startup_p50_seconds"]) + "s"],
        ["cellular share p50", num(pop["cellular_fraction_p50"],
                                   "{:.1%}")],
        ["cellular data p50", num(pop["cellular_mbytes_p50"]) + " MB"],
        ["radio energy p50", num(pop["radio_energy_p50_joules"]) + " J"],
        ["deadline misses", str(pop["deadline_misses_total"])],
        ["unfinished sessions", str(pop["unfinished_sessions"])],
        ["wifi-only sessions", str(pop["wifi_only_sessions"])],
    ]
    dropped = int(getattr(result, "errors_dropped", 0))
    if dropped:
        rows.append(["error samples",
                     f"{len(result.errors)} shown (+{dropped} more)"])
    recorder = getattr(result, "recorder", None)
    if recorder is not None:
        rows.append(["recorder captures",
                     f"{recorder.get('captured', 0)} of "
                     f"{recorder.get('sessions', 0)} judged"])
    state = "complete" if pop["completed"] else "partial"
    title = (f"fleet: {state}, wall {result.wall_clock:.2f}s on "
             f"{result.jobs} job(s)")
    return format_table(["statistic", "value"], rows, title=title)
