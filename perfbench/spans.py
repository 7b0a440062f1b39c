"""In-memory span recorder and the layer wrappers of the traced pass.

Every layer is timed from outside: :class:`LayerProbes` swaps the
public entry point of each layer for a wrapper that opens a span, calls
the original and closes the span.  Spans nest through a context
variable (per thread and per asyncio task); the two hops the service
makes across threads — HTTP client to ``submit`` on the event loop,
``submit`` to the worker thread — are linked explicitly by tenant and
request key.  A span's *self time* is its duration minus the part of
that interval its children cover.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence)

#: The layers, named after the repo's modules; a span's layer is the
#: first dotted part of its name.
LAYERS = ("workloads", "sim", "tracestore", "decode", "timing", "cache",
          "engine", "experiments", "serve")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int] = None
    request: Optional[str] = None
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, **self.attrs}


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = \
            contextvars.ContextVar("perfbench_span", default=None)

    def current(self) -> Optional[Span]:
        return self._current.get()

    def open(self, name: str, parent: Optional[Span] = None,
             request: Optional[str] = None) -> Span:
        parent = parent if parent is not None else self._current.get()
        with self._lock:
            span = Span(id=next(self._ids), name=name,
                        start=time.perf_counter(),
                        parent=parent.id if parent is not None else None,
                        request=request if request is not None else
                        (parent.request if parent is not None else None))
            self.spans.append(span)
        span.attrs["_token"] = self._current.set(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        token = span.attrs.pop("_token", None)
        if token is not None:
            try:
                self._current.reset(token)
            except ValueError:
                # Closed from another context (never happens for the
                # wrappers below); just leave that context's value.
                pass

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")


# ----------------------------------------------------------------------
# Self-time arithmetic.


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part of its interval that its
    children's intervals cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.id: span.duration - covered(
            [(c.start, c.end) for c in children.get(span.id, ())],
            span.start, span.end)
        for span in spans
    }


def roots(spans: Iterable[Span]) -> List[Span]:
    spans = list(spans)
    ids = {span.id for span in spans}
    return [span for span in spans
            if span.parent is None or span.parent not in ids]


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


# ----------------------------------------------------------------------
# Wrappers around each layer's public entry point.


def _timed(tracer: Tracer, name: str, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``after(span, args, kwargs, result)`` may
    add counts once the call returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


class LayerProbes:
    """Installs (and on exit removes) the wrappers of every layer.

    ``recorded`` keeps, for each recorded window, what a step-only
    re-execution needs (see :meth:`calibrate_steps`).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []
        self.recorded: List[Dict[str, Any]] = []
        #: Service tenant -> the client span waiting on it.
        self.client_spans: Dict[str, Span] = {}
        #: Serve request key -> the ``serve.submit`` span that runs it.
        self._submit_spans: Dict[str, Span] = {}

    # -- patch bookkeeping -------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        old = getattr(owner, name)
        self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def _set_item(self, mapping: Dict, key: Any, value: Any) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def _swap_closure(self, fn: Callable, old: Any, new: Any) -> None:
        for cell in fn.__closure__ or ():
            if cell.cell_contents is old:
                self._set(cell, "cell_contents", new)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def __enter__(self) -> "LayerProbes":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the layers --------------------------------------------------

    def install(self) -> None:
        from repro import api
        from repro.engine import cache as cache_mod
        from repro.engine import core as engine_core
        from repro.engine import tracestore as tracestore_mod
        from repro.engine import windows
        from repro.sim import trace_io
        from repro.timing import fastpath_vec, runner

        tracer = self.tracer

        # workloads: program build + assembly of each window kind.  The
        # batched group runners captured the builders in closures.
        for kind, original in list(windows.MATERIALS.items()):
            wrapped = _timed(tracer, "workloads.build", original)
            self._set(windows, original.__name__, wrapped)
            self._set_item(windows.MATERIALS, kind, wrapped)
            group = windows.GROUP_REGISTRY.get(kind)
            if group is not None:
                self._swap_closure(group, original, wrapped)

        # sim: functional record of a window into a BRTR trace.
        original_record = runner.record_window

        @functools.wraps(original_record)
        def record_window(*args, **kwargs):
            # The step-only calibration re-executes the window later; the
            # brr unit is stateful, so keep a pristine copy of it.
            pristine = dict(kwargs,
                            brr_unit=copy.deepcopy(kwargs.get("brr_unit")))
            span = tracer.open("sim.record")
            try:
                trace = original_record(*args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs.update(records=len(trace), bytes=trace.nbytes)
            self.recorded.append({"span": span, "args": args,
                                  "kwargs": pristine})
            return trace

        self._set(runner, "record_window", record_window)

        # tracestore: load / record (record's child is sim.record).
        def after_load(span, args, kwargs, trace):
            span.attrs["hit"] = trace is not None

        self._set(tracestore_mod.TraceStore, "load",
                  _timed(tracer, "tracestore.load",
                         tracestore_mod.TraceStore.load, after_load))
        self._set(tracestore_mod.TraceStore, "record",
                  _timed(tracer, "tracestore.record",
                         tracestore_mod.TraceStore.record))

        # decode: only calls that really decode (columns are memoised).
        original_columns = trace_io.RecordedTrace.columns

        @functools.wraps(original_columns)
        def columns(trace_self, *args, **kwargs):
            if getattr(trace_self, "_columns", None) is not None:
                return original_columns(trace_self, *args, **kwargs)
            span = tracer.open("decode")
            try:
                return original_columns(trace_self, *args, **kwargs)
            finally:
                tracer.close(span)
                span.attrs["records"] = trace_self.n_records

        self._set(trace_io.RecordedTrace, "columns", columns)

        # timing: per-window and batched replay.  The replay telemetry
        # is peeked at, never consumed: the engine still reads it.
        def after_replay(span, args, kwargs, result):
            info = runner._last_replay_info or {}
            span.attrs["records"] = int(info.get("replay_records") or 0)
            span.attrs["windows"] = (len(result)
                                     if isinstance(result, list) else 1)

        self._set(runner, "replay_window",
                  _timed(tracer, "timing.replay", runner.replay_window,
                         after_replay))
        self._set(runner, "replay_window_batch",
                  _timed(tracer, "timing.replay_batch",
                         runner.replay_window_batch, after_replay))

        # Which kernel finished each fast-path attempt (an attempt that
        # raises never reaches its ``after`` and stays unfinished).
        def after_vector(span, args, kwargs, result):
            span.attrs["finished"] = fastpath_vec.last_kernel == "vector"

        def after_loop(span, args, kwargs, result):
            span.attrs["finished"] = True

        self._set(fastpath_vec, "run_fastpath_vec",
                  _timed(tracer, "timing.kernel.vector",
                         fastpath_vec.run_fastpath_vec, after_vector))
        self._set(runner, "run_fastpath",
                  _timed(tracer, "timing.kernel.loop", runner.run_fastpath,
                         after_loop))

        # cache: result-cache reads and writes.
        def after_get(span, args, kwargs, payload):
            span.attrs["hit"] = payload is not None

        self._set(cache_mod.ResultCache, "get",
                  _timed(tracer, "cache.get", cache_mod.ResultCache.get,
                         after_get))
        self._set(cache_mod.ResultCache, "put",
                  _timed(tracer, "cache.put", cache_mod.ResultCache.put))

        # engine: window scheduling.
        def after_run(span, args, kwargs, result):
            span.attrs["windows"] = len(result)

        self._set(engine_core.ExperimentEngine, "run",
                  _timed(tracer, "engine.run",
                         engine_core.ExperimentEngine.run, after_run))
        self._set(engine_core.ExperimentEngine, "run_plan",
                  _timed(tracer, "engine.run_plan",
                         engine_core.ExperimentEngine.run_plan))

        # experiments: the public api façade (reduce = its self time).
        for name in dir(api):
            if name.startswith("run_") and name not in ("run_windows",
                                                        "run_doctor"):
                self._set(api, name, _timed(tracer, f"experiments.{name}",
                                            getattr(api, name)))
        self._set(api, "run_windows",
                  _timed(tracer, "experiments.run_windows",
                         api.run_windows))

        self._install_serve()

    def _install_serve(self) -> None:
        from repro.serve import service as service_mod

        tracer = self.tracer
        cls = service_mod.SimulationService
        original_submit = cls.submit
        original_execute = cls._execute
        original_run_sync = cls._run_sync

        @functools.wraps(original_submit)
        async def submit(service_self, command, params=None, timeout=None,
                         tenant=None):
            parent = self.client_spans.get(tenant or "")
            span = tracer.open("serve.submit", parent=parent)
            try:
                return await original_submit(service_self, command, params,
                                             timeout=timeout, tenant=tenant)
            finally:
                tracer.close(span)

        @functools.wraps(original_execute)
        async def execute(service_self, key, command, params):
            self._submit_spans[key] = tracer.current()
            try:
                return await original_execute(service_self, key, command,
                                              params)
            finally:
                self._submit_spans.pop(key, None)

        @functools.wraps(original_run_sync)
        def run_sync(service_self, command, params):
            key = service_mod.request_key(command, params)
            parent = self._submit_spans.get(key)
            span = tracer.open("serve.run", parent=parent)
            try:
                return original_run_sync(service_self, command, params)
            finally:
                tracer.close(span)

        self._set(cls, "submit", submit)
        self._set(cls, "_execute", execute)
        self._set(cls, "_run_sync", run_sync)

    def client_request(self, tenant: str) -> Optional[Callable[[], None]]:
        """Open the client span of one served request (``serve.http``)
        while the probes are installed; returns the callable that
        closes it, or ``None``."""
        if not self.installed:
            return None
        span = self.tracer.open("serve.http", request=tenant)
        self.client_spans[tenant] = span

        def close() -> None:
            self.client_spans.pop(tenant, None)
            self.tracer.close(span)
        return close

    # -- step-only calibration ---------------------------------------

    def calibrate_steps(self, limit: Optional[int] = None) -> Dict[str, float]:
        """Re-execute recorded windows functionally, without recording,
        through ``Machine.run_until_marker``; returns the step-only time
        and the recording time of the same windows."""
        from repro.sim.machine import Machine

        step_s = record_s = 0.0
        windows = self.recorded if limit is None else self.recorded[:limit]
        for item in windows:
            args, kwargs = item["args"], item["kwargs"]
            program, end = args[0], args[1]
            machine = Machine(program,
                              memory_size=kwargs.get("memory_size", 1 << 20),
                              brr_unit=kwargs.get("brr_unit"))
            if kwargs.get("setup") is not None:
                kwargs["setup"](machine)
            started = time.perf_counter()
            steps = machine.run_until_marker(end[0], end[1],
                                             max_steps=50_000_000)
            step_s += time.perf_counter() - started
            records = item["span"].attrs["records"]
            if steps != records:
                raise RuntimeError(
                    f"step-only calibration ran {steps} steps; the "
                    f"recording held {records} records")
            record_s += item["span"].duration
        return {"step_only_s": step_s, "record_s": record_s}


# ----------------------------------------------------------------------
# Interval arithmetic for self time and unattributed time.


def covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


# ----------------------------------------------------------------------
# Per-layer metrics of a traced pass.


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def unattributed_s(spans: List[Span], windows: List[tuple]) -> float:
    """Time inside the ``(start, end)`` windows that no root span
    covers."""
    intervals = [(r.start, r.end) for r in roots(spans)]
    return sum((end - start) - covered(intervals, start, end)
               for start, end in windows)


def attribution_gap(spans: List[Span], windows: List[tuple]) -> float:
    """Traced wall time minus (layer self times + unattributed time);
    zero when the span tree nests cleanly on one timeline."""
    timeline = sum(end - start for start, end in windows)
    return (timeline - sum(layer_self_times(spans).values())
            - unattributed_s(spans, windows))


def serve_wait_s(spans: Iterable[Span]) -> float:
    """Summed time from each ``serve.submit`` start to the start of the
    ``api.run_*`` call its ``serve.run`` makes.  The service takes the
    engine lock before that call, so this covers the worker-slot wait,
    the executor hop and the engine-lock wait.  Coalesced submits run
    nothing of their own and add nothing."""
    spans = list(spans)
    submits = {span.id: span for span in spans if span.name == "serve.submit"}
    runs = {span.id: span for span in spans
            if span.name == "serve.run" and span.parent in submits}
    return sum(span.start - submits[runs[span.parent].parent].start
               for span in spans
               if span.layer == "experiments" and span.parent in runs)


def layer_metrics(spans: List[Span], windows: List[tuple],
                  untraced_wall_s: float, traced_wall_s: float,
                  stores: Dict[str, int], serve: Dict[str, int],
                  calibration: Dict[str, float],
                  concurrent: Sequence[Span] = ()) -> Dict[str, tuple]:
    """``{metric: (value, unit)}`` for every per-layer metric.

    ``spans`` come from the serial traced repetitions, whose
    ``(start, end)`` intervals are ``windows``.  ``untraced_wall_s`` /
    ``traced_wall_s`` are the medians of ``wall_s`` without and with
    the wrappers installed.  ``concurrent`` are the spans and
    ``serve`` the service counter deltas of the two-client
    ``serve-mixed`` repetition: ``serve.wait_s`` and
    ``serve.coalesced_ratio`` come from it, because one client never
    queues behind another.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names: str) -> List[Span]:
        return [span for name in names for span in by_name.get(name, ())]

    def busy(*names: str) -> float:
        return sum(span.duration for span in named(*names))

    def own_s(*names: str) -> float:
        return sum(own[span.id] for span in named(*names))

    def attr(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in named(name))

    loads = named("tracestore.load")
    gets = named("cache.get")
    replays = named("timing.replay", "timing.replay_batch")
    replay_self = sum(own[span.id] for span in spans
                      if span.layer == "timing")
    attempts = named("timing.kernel.vector", "timing.kernel.loop")
    timeline = sum(end - start for start, end in windows)
    metrics: Dict[str, tuple] = {
        "workloads.build.calls": (len(named("workloads.build")), "count"),
        "workloads.build.busy_s": (busy("workloads.build"), "s"),
        "sim.record.calls": (len(named("sim.record")), "count"),
        "sim.record.busy_s": (busy("sim.record"), "s"),
        "sim.record.records": (attr("sim.record", "records"), "count"),
        "sim.record.bytes": (attr("sim.record", "bytes"), "B"),
        "sim.step_only_s": (calibration.get("step_only_s", 0.0), "s"),
        "sim.record_over_step": (_ratio(calibration.get("record_s", 0.0),
                                        calibration.get("step_only_s", 0.0)),
                                 "ratio"),
        "tracestore.load.calls": (len(loads), "count"),
        "tracestore.load.self_s": (own_s("tracestore.load"), "s"),
        "tracestore.hit_ratio": (_ratio(sum(1 for s in loads
                                            if s.attrs.get("hit")),
                                        len(loads)), "ratio"),
        "tracestore.record.self_s": (own_s("tracestore.record"), "s"),
        "decode.calls": (len(named("decode")), "count"),
        "decode.busy_s": (busy("decode"), "s"),
        "decode.records": (attr("decode", "records"), "count"),
        "timing.replay.calls": (sum(s.attrs.get("windows", 0)
                                    for s in replays), "count"),
        "timing.replay.batch_calls": (len(named("timing.replay_batch")),
                                      "count"),
        "timing.replay.self_s": (replay_self, "s"),
        "timing.replay.records": (sum(s.attrs.get("records", 0)
                                      for s in replays), "count"),
        "timing.replay.records_per_s": (
            _ratio(sum(s.attrs.get("records", 0) for s in replays),
                   sum(s.duration for s in replays)), "1/s"),
        "timing.fast_useful_ratio": (
            _ratio(sum(1 for s in attempts if s.attrs.get("finished")),
                   len(attempts)) if attempts else 1.0, "ratio"),
        "cache.get.calls": (len(gets), "count"),
        "cache.get.busy_s": (busy("cache.get"), "s"),
        "cache.hit_ratio": (_ratio(sum(1 for s in gets if s.attrs.get("hit")),
                                   len(gets)), "ratio"),
        "cache.put.busy_s": (busy("cache.put"), "s"),
        "store.mem_hit_ratio": (_ratio(stores.get("mem_hits", 0),
                                       stores.get("mem_hits", 0)
                                       + stores.get("mem_misses", 0)),
                                "ratio"),
        "store.disk_hit_ratio": (_ratio(stores.get("disk_hits", 0),
                                        stores.get("disk_hits", 0)
                                        + stores.get("disk_misses", 0)),
                                 "ratio"),
        "engine.run.self_s": (own_s("engine.run", "engine.run_plan"), "s"),
        "engine.windows": (attr("engine.run", "windows"), "count"),
        "experiments.reduce.self_s": (sum(own[s.id] for s in spans
                                          if s.layer == "experiments"), "s"),
        "serve.http_s": (own_s("serve.http"), "s"),
        "serve.wait_s": (serve_wait_s(concurrent), "s"),
        "serve.submit.self_s": (own_s("serve.submit"), "s"),
        "serve.self_s": (layer_self_times(spans)["serve"], "s"),
        "serve.coalesced_ratio": (_ratio(serve.get("coalesced", 0),
                                         serve.get("requests", 0)), "ratio"),
    }
    metrics["trace.wall_s"] = (timeline, "s")
    metrics["trace.unattributed_s"] = (unattributed_s(spans, windows), "s")
    metrics["trace.overhead_ratio"] = (_ratio(traced_wall_s,
                                              untraced_wall_s), "ratio")
    return metrics
