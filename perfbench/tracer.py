"""Per-layer tracing for the benchmark: wrap public callables, record spans.

:data:`LAYERS` lists every wrapped callable as ``(label, module,
qualname, workloads)``.  ``label`` is the layer name used in metric
names (``<label>.<qualname>.self_s`` / ``.calls``), ``module`` is where
the callable is defined, and ``workloads`` names the benchmark
workloads on which it is expected to run.

A :class:`Tracer` replaces each callable by a wrapper that records one
span per call.  Spans are aggregated in memory by call path — the chain
of wrapped callables from the outermost span down — so the record stays
small however many calls a run makes, while self time stays exact: a
span's self time is its duration minus the durations of its direct
children, and the direct children of one span never overlap.  Recursive
and re-entrant calls are simply deeper paths.  Nothing is written while
the tracer is installed; :meth:`Tracer.folded` renders the aggregated
spans in the collapsed-stack format flame-graph tools read.

Module-level functions are patched in every loaded ``repro`` module that
holds them, not only where they are defined, because ``from x import f``
binds ``f`` into the importing module.  :meth:`Tracer.uninstall` puts
every original back and :func:`leftovers` proves that it did.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Tuple

FLEET_SHAPED = ("fleet", "fleet_rec")
VIEWS = ("trace_views", "fleet_rec")

#: (metric label, defining module, qualified name, workloads it runs on).
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("workloads.arrivals", "repro.workloads.arrivals",
     "SessionArrivals.draw", FLEET_SHAPED),
    ("experiments.fleet", "repro.experiments.fleet", "session_config",
     FLEET_SHAPED),
    ("experiments.fleet", "repro.experiments.fleet", "fold_session",
     FLEET_SHAPED),
    ("experiments.fleet", "repro.experiments.fleet", "save_checkpoint",
     FLEET_SHAPED),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.to_dict",
     FLEET_SHAPED),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.from_dict",
     FLEET_SHAPED),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry.merge",
     FLEET_SHAPED),
    ("experiments.runner", "repro.experiments.runner", "run_session",
     FLEET_SHAPED),
    ("workloads.videos", "repro.workloads.videos", "video_asset",
     FLEET_SHAPED),
    ("net.simulator", "repro.net.simulator", "Simulator.run", FLEET_SHAPED),
    ("mptcp", "repro.mptcp.connection", "MptcpConnection.start_transfer",
     FLEET_SHAPED),
    ("mptcp", "repro.mptcp.subflow", "Subflow.deliver_analytic",
     FLEET_SHAPED),
    ("net.tcp", "repro.net.tcp", "integrate_window", FLEET_SHAPED),
    ("net.tcp", "repro.net.tcp", "TcpState.time_to_deliver", FLEET_SHAPED),
    ("net.trace", "repro.net.trace", "BandwidthTrace.bandwidth_at",
     FLEET_SHAPED),
    ("net.trace", "repro.net.trace", "BandwidthTrace.next_change",
     FLEET_SHAPED),
    ("core", "repro.core.scheduler", "DeadlineAwareScheduler.next_decision",
     FLEET_SHAPED),
    ("core", "repro.core.scheduler",
     "DeadlineAwareScheduler.on_transfer_start", FLEET_SHAPED),
    ("core", "repro.core.scheduler",
     "DeadlineAwareScheduler.on_transfer_complete", FLEET_SHAPED),
    ("core", "repro.core.adapter", "MpDashAdapter.on_chunk_request",
     FLEET_SHAPED),
    ("core", "repro.core.adapter", "MpDashAdapter.on_chunk_downloaded",
     FLEET_SHAPED),
    ("abr", "repro.abr.festive", "Festive.choose_level", FLEET_SHAPED),
    ("dash.http", "repro.dash.http", "HttpClient.get", FLEET_SHAPED),
    ("obs.bus", "repro.obs.bus", "EventBus.publish",
     FLEET_SHAPED + ("trace_views",)),
    ("energy.model", "repro.energy.model", "session_energy", FLEET_SHAPED),
    ("analysis.analyzer", "repro.analysis.analyzer",
     "MultipathVideoAnalyzer.metrics", FLEET_SHAPED),
    ("obs.trace_export", "repro.obs.trace_export", "load_jsonl",
     ("trace_views",)),
    ("obs.check", "repro.obs.check", "check_trace", VIEWS),
    ("obs.spans", "repro.obs.spans", "spans_from_trace", VIEWS),
    ("obs.why", "repro.obs.why", "attributions_from_trace", VIEWS),
    ("obs.metrics", "repro.obs.metrics", "registry_from_trace", VIEWS),
    ("obs.report", "repro.obs.report", "session_report_html", VIEWS),
    ("obs.report", "repro.obs.report", "fleet_report_html", ("fleet_rec",)),
    ("obs.recorder", "repro.obs.recorder", "ShardRecorder.observe",
     ("fleet_rec",)),
    ("obs.recorder", "repro.obs.recorder", "ShardRecorder.flush",
     ("fleet_rec",)),
    ("obs.trace_export", "repro.obs.trace_export", "dumps_jsonl",
     ("fleet_rec",)),
    ("obs.trace_export", "repro.obs.trace_export", "gzip_bytes",
     ("fleet_rec",)),
)

#: Ratio metric -> (numerator layer name, denominator layer name).
RATIOS: Dict[str, Tuple[str, str]] = {
    "net.tcp.integrate_window.per_transfer": (
        "net.tcp.integrate_window", "mptcp.MptcpConnection.start_transfer"),
    "core.next_decision.per_transfer": (
        "core.DeadlineAwareScheduler.next_decision",
        "mptcp.MptcpConnection.start_transfer"),
    "obs.bus.publish.per_session": (
        "obs.bus.EventBus.publish", "experiments.runner.run_session"),
}


def layer_name(label: str, qualname: str) -> str:
    return f"{label}.{qualname}"


LAYER_NAMES: Tuple[str, ...] = tuple(
    layer_name(label, qualname) for label, _, qualname, _ in LAYERS)


class Tracer:
    """Span recorder plus the patch set that wraps every :data:`LAYERS`
    callable.  ``clock`` is replaceable so tests can drive span
    arithmetic with exact times."""

    def __init__(self, clock=time.perf_counter):
        self.names = list(LAYER_NAMES)
        self.clock = clock
        # Path 0 is the root sentinel; path i > 0 is (parent path, callable).
        self._path_ids: Dict[Tuple[int, int], int] = {}
        self._path_parent: List[int] = [-1]
        self._path_leaf: List[int] = [-1]
        self.path_self: List[float] = [0.0]
        self.path_calls: List[int] = [0]
        # Open spans: their path ids and the time their children covered.
        # The sentinel entry at the bottom collects top-level spans.
        self._open: List[int] = [0]
        self._covered: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, the object it replaced).
        self._originals: Dict[int, Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _path(self, parent: int, index: int) -> int:
        key = (parent, index)
        path = self._path_ids.get(key)
        if path is None:
            path = len(self._path_parent)
            self._path_ids[key] = path
            self._path_parent.append(parent)
            self._path_leaf.append(index)
            self.path_self.append(0.0)
            self.path_calls.append(0)
        return path

    def wrap(self, fn, index: int):
        """A wrapper around ``fn`` recording spans for callable ``index``."""
        opened = self._open
        covered = self._covered
        path_self = self.path_self
        path_calls = self.path_calls
        path_ids = self._path_ids
        new_path = self._path
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = opened[-1]
            path = path_ids.get((parent, index))
            if path is None:
                path = new_path(parent, index)
            opened.append(path)
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                opened.pop()
                path_self[path] += duration - covered.pop()
                path_calls[path] += 1
                covered[-1] += duration

        traced.__wrapped_by_perfbench__ = True
        return traced

    @property
    def covered(self) -> float:
        """Total duration of top-level spans (equals the sum of self times)."""
        return self._covered[0]

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Drop every span recorded inside the block.

        The benchmark computes output digests between measured items;
        calls it makes into wrapped library code there are bookkeeping,
        not the workload, and must not show up as layer time.
        """
        if len(self._open) != 1:
            raise RuntimeError("excluded() inside an open span")
        saved_self = list(self.path_self)
        saved_calls = list(self.path_calls)
        saved_covered = self._covered[0]
        try:
            yield
        finally:
            for path in range(len(self.path_self)):
                known = path < len(saved_self)
                self.path_self[path] = saved_self[path] if known else 0.0
                self.path_calls[path] = saved_calls[path] if known else 0
            self._covered[0] = saved_covered

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_s": .., "calls": ..}}`` for every callable."""
        out = {name: {"self_s": 0.0, "calls": 0} for name in self.names}
        for path in range(1, len(self._path_leaf)):
            entry = out[self.names[self._path_leaf[path]]]
            entry["self_s"] += self.path_self[path]
            entry["calls"] += self.path_calls[path]
        return out

    def _stack(self, path: int) -> List[str]:
        frames = []
        while path > 0:
            frames.append(self.names[self._path_leaf[path]])
            path = self._path_parent[path]
        return frames[::-1]

    def folded(self) -> str:
        """Collapsed stacks: ``a;b;c <self microseconds> <calls>`` lines."""
        lines = []
        for path in range(1, len(self._path_leaf)):
            if self.path_calls[path]:
                lines.append(f"{';'.join(self._stack(path))} "
                             f"{self.path_self[path] * 1e6:.0f} "
                             f"{self.path_calls[path]}")
        return "\n".join(sorted(lines)) + "\n"

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target wherever it can be looked up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for index, (_, module_name, qualname, _) in enumerate(LAYERS):
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(self.wrap(raw.__func__, index))
                else:
                    wrapper = self.wrap(raw, index)
                self._set(cls, attr, raw, wrapper)
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(original, index)
            for holder in _repro_modules():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, attr, original, wrapper)

    def _set(self, owner: Any, attr: str, original: Any,
             wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        self._originals[id(wrapper)] = (wrapper, original)
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original, including references to a wrapper
        that modules imported after :meth:`install` copied."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for holder in _repro_modules():
            for attr, value in list(vars(holder).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(holder, attr, entry[1])
        self._patches = []
        self._originals = {}


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _is_wrapper(value: Any) -> bool:
    inner = getattr(value, "__func__", value)
    return bool(getattr(inner, "__wrapped_by_perfbench__", False))


def leftovers() -> List[str]:
    """Every loaded ``repro`` module or class attribute still holding a
    benchmark wrapper (empty after a clean :meth:`Tracer.uninstall`)."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == \
                    module.__name__:
                for name, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        found.append(f"{module.__name__}."
                                     f"{value.__qualname__}.{name}")
    return sorted(found)


def layer_metrics(totals: Mapping[str, Mapping[str, float]]
                  ) -> Dict[str, float]:
    """Flatten tracer totals into ``<name>.self_s`` / ``<name>.calls``
    plus the :data:`RATIOS` (0 where the denominator never ran)."""
    metrics: Dict[str, float] = {}
    for name in LAYER_NAMES:
        entry = totals.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_s"] = float(entry["self_s"])
        metrics[f"{name}.calls"] = int(entry["calls"])
    for ratio, (top, bottom) in RATIOS.items():
        below = metrics[f"{bottom}.calls"]
        metrics[ratio] = metrics[f"{top}.calls"] / below if below else 0.0
    return metrics


def expected_but_idle(workload: str, calls: Mapping[str, int]) -> List[str]:
    """Callables :data:`LAYERS` expects on ``workload`` that never ran."""
    return [layer_name(label, qualname)
            for label, _, qualname, workloads in LAYERS
            if workload in workloads
            and not calls.get(layer_name(label, qualname), 0)]
