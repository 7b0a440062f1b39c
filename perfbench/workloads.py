"""The four benchmark workloads.

Each workload has a *set-up* (repeated, timed as ``setup_s``) and a
*repetition* of its fixed input (timed as ``wall_s``).  A repetition
issues requests: one *miss* request that computes the fixed input and,
for the batch workloads, result-warm repeats of it (*hits*: the same
public call against a filled result cache, as a second ``repro``
command would make).  ``serve-mixed`` sends a seeded mix of both kinds
over HTTP.  Every request's simulated output is hashed and
checked against the pinned digest of its input.
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import random
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import digest as digests

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Inputs are pinned for this many input seeds; ``--seed n`` selects
#: input seed ``n % PIN_SEEDS``.
PIN_SEEDS = 8

#: Figure 13 microbenchmark characters per window (``fig13-cold``).
FIG13_CHARS = 200
#: ``fig13-cold`` always uses Figure 13's default text seed: at this
#: scale the cold cost varies by up to 40% between texts, which
#: would swamp the run-to-run spread.
FIG13_TEXT_SEED = 1
#: Figure 12 outer-loop multiplier.  0.25 is the smallest distinct
#: scale: every benchmark's loop count is clamped to its minimum there.
FIG12_SCALE = 0.25
#: Result-warm repeats after each cold call of a batch workload.
HIT_REPEATS = 10
#: Every timed phase runs at least this many repetitions.
MIN_REPS = 3

#: serve-mixed request sizes and per-repetition mix.
SERVE_FIG13_SCALE = 50
SERVE_ENTROPY_SCALE = 32
SERVE_MISSES = (("figure13", 2), ("entropy", 1))
SERVE_HITS = (("figure13", 20), ("entropy", 10))
#: Seeds of the distinct (miss) requests: a shared pool, permuted per
#: input seed.  The hit set of input seed ``s`` uses seed ``10 + s``.
SERVE_MISS_POOL = tuple(range(100, 124))
#: Repetitions of a serve-mixed run.  Their misses are the first
#: ``count * SERVE_REPS`` pool seeds of each command, in a seeded
#: order, so every run times the same distinct requests; a longer run
#: goes on into the rest of the pool.
SERVE_REPS = 7
SERVE_CLIENTS = 2
SERVE_WORKERS = 2

#: Environment knobs the benchmark passes through to the program; every
#: other ``REPRO_*`` variable is removed so runs start from defaults.
PASSTHROUGH_ENV = ("REPRO_FAST", "REPRO_TRACE_PAGES", "REPRO_TRACE_HANDLES")


def sanitize_env() -> None:
    for name in list(os.environ):
        if name.startswith("REPRO_") and name not in PASSTHROUGH_ENV:
            del os.environ[name]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def make_engine(root: pathlib.Path, jobs: int = 1,
                results: str = "results", traces: str = "traces"):
    """An engine over explicit store directories, no shared backend."""
    from repro.api import EngineConfig, ExperimentEngine, ResultCache
    from repro.engine import TraceStore

    config = EngineConfig.from_env(jobs=jobs, store_backend=None)
    cache = ResultCache(root / results, policy=config.integrity,
                        backend=None)
    trace_store = TraceStore(root / traces, policy=config.integrity,
                             handles=config.trace_handles, backend=None)
    return ExperimentEngine(cache=cache, trace_store=trace_store,
                            config=config)


def miss_instructions(engine) -> int:
    """Simulated window instructions of the windows this engine ran."""
    return sum(record.instructions or 0 for record in engine.recorder.records
               if record.cache == "miss")


@dataclass
class Request:
    kind: str           # "hit" | "miss"
    latency_s: float
    ok: bool
    instructions: int = 0
    #: Host-speed checkpoints passed before the request was sent.
    phase: int = 0
    #: Reference-chunk CPU seconds measured right around this request
    #: (0: scale it by its phase instead).
    speed_s: float = 0.0


@dataclass
class Rep:
    """One repetition of a workload's fixed input."""

    wall_s: float
    requests: List[Request]
    digest: str
    #: Time the requests kept the program busy (``req_per_s``).
    busy_s: float
    #: Store-tier counters of the fresh engines the repetition built
    #: (traced pass); the engines themselves are not kept alive.
    stores: Dict[str, int] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.requests if r.kind == "miss")


def tier_totals(engines) -> Dict[str, int]:
    """Memory/disk hit and miss counts summed over both stores."""
    totals = {"mem_hits": 0, "mem_misses": 0,
              "disk_hits": 0, "disk_misses": 0}
    for engine in engines:
        for store in (engine.cache, engine.trace_store):
            counters = store.tier_counters()
            totals["mem_hits"] += counters["memory"]["hits"]
            totals["mem_misses"] += counters["memory"]["misses"]
            totals["disk_hits"] += counters["disk"]["hits"]
            totals["disk_misses"] += counters["disk"]["misses"]
    return totals


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


# ----------------------------------------------------------------------
# Batch workloads: one cold public call, then result-warm repeats.


class BatchWorkload:
    name = ""
    #: Whether the input depends on the seed.
    seeded = True
    jobs = 1
    min_reps = MIN_REPS
    hit_repeats = HIT_REPEATS
    #: Set-ups run in child interpreters between the first repetitions
    #: (see ``run.py``).
    interleave_setup = True

    def __init__(self, seed: int, work: pathlib.Path,
                 serial: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.serial = serial
        self.gate = digests.DigestGate()
        self.pins = digests.load_pins().get(self.name, {})
        self._reps = 0
        #: Called between the cold call and its repeats (host-speed
        #: phase boundary of the untraced pass).
        self.checkpoint: Optional[Callable[[], None]] = None
        #: Times a reference chunk around every hit (untraced pass).
        self.hit_speed: Optional[Callable[[], float]] = None

    @property
    def pin_key(self) -> str:
        return str(self.seed) if self.seeded else "*"

    def run_jobs(self) -> int:
        return 1 if self.serial else self.jobs

    # -- set-up ------------------------------------------------------

    def setup_once(self, final: bool) -> float:
        """One set-up repetition in a fresh interpreter: imports,
        engine construction and any store filling."""
        command = [sys.executable, str(REPO / "perfbench" / "run.py"),
                   "--workload", self.name, "--setup-probe",
                   str(self.work / "setup")]
        started = time.perf_counter()
        process = subprocess.Popen(command, env=child_env(), cwd=str(REPO),
                                   stdout=subprocess.DEVNULL)
        # A wait with a timeout polls at up to 50 ms steps, which would
        # round the figure; a blocking wait returns when the child ends.
        killer = threading.Timer(170, process.kill)
        killer.start()
        try:
            code = process.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - started
        if code:
            raise subprocess.CalledProcessError(code, command)
        return elapsed

    # -- one repetition ----------------------------------------------

    def call(self, engine) -> Any:
        raise NotImplementedError

    def document(self, result: Any) -> Any:
        return {"data": result.data, "text": result.text}

    def fresh_root(self) -> pathlib.Path:
        self._reps += 1
        root = self.work / f"rep{self._reps}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        return root

    def rep_engine(self, root: pathlib.Path):
        return make_engine(root, jobs=self.run_jobs())

    def _request(self, kind: str, root: pathlib.Path, engines: List[Any],
                 requests: List[Request], phase: int = 0) -> Optional[str]:
        """One public call on a fresh engine over ``root``; returns the
        output digest (``None`` when the call raised)."""
        engine = self.rep_engine(root)
        engines.append(engine)
        try:
            result, elapsed = timed(lambda: self.call(engine))
        except Exception as exc:  # a failed request is counted
            print(f"perfbench: {self.name} request failed: {exc!r}",
                  file=sys.stderr)
            requests.append(Request(kind, 0.0, False, phase=phase))
            return None
        produced = digests.digest(self.document(result))
        ok = self.gate.check(f"{self.name}/seed{self.pin_key}", produced,
                             self.pins.get(self.pin_key))
        requests.append(Request(kind, elapsed, ok,
                                miss_instructions(engine), phase))
        return produced

    def rep(self) -> Rep:
        """The cold call on empty stores, then ``hit_repeats``
        result-warm repeats on its cache."""
        requests: List[Request] = []
        engines: List[Any] = []
        root = self.fresh_root()
        produced = self._request("miss", root, engines, requests)
        miss = requests[-1]
        if self.checkpoint is not None:
            self.checkpoint()
        # A hit takes about 10 ms and the host's speed changes within a
        # second: the speed is read right around each one.
        before = self.hit_speed() if self.hit_speed else 0.0
        for _ in range(self.hit_repeats):
            self._request("hit", root, engines, requests, phase=1)
            if self.hit_speed:
                after = self.hit_speed()
                requests[-1].speed_s = (before + after) / 2
                before = after
        return Rep(wall_s=miss.latency_s, requests=requests,
                   digest=produced or "",
                   busy_s=sum(r.latency_s for r in requests),
                   stores=tier_totals(engines))

    def close(self) -> None:
        pass


class Fig13Cold(BatchWorkload):
    name = "fig13-cold"
    seeded = False

    def call(self, engine):
        from repro import api

        return api.run_figure13(scale=FIG13_CHARS, seed=FIG13_TEXT_SEED,
                                engine=engine)


class Fig12Cold(BatchWorkload):
    name = "fig12-cold"
    seeded = False
    jobs = 2

    def call(self, engine):
        from repro import api

        return api.run_figure12(scale=FIG12_SCALE, engine=engine)


def sweep_specs():
    """The 15 Figure-12 windows x the six timing ablations."""
    from repro.experiments.fig12 import VARIANTS, jvm_window_spec
    from repro.experiments.sensitivity import paper_timing_ablations
    from repro.jvm.benchmarks import FIGURE12_BENCHMARKS

    return [jvm_window_spec(name, variant, FIG12_SCALE, config=config)
            for name in FIGURE12_BENCHMARKS for variant in VARIANTS
            for config in paper_timing_ablations().values()]


def fill_sweep_traces(engine) -> None:
    """Record the 15 functional traces the sweep replays (a cold
    Figure-12 run at the workload's scale)."""
    from repro import api
    from repro.experiments.fig12 import VARIANTS, jvm_window_spec
    from repro.jvm.benchmarks import FIGURE12_BENCHMARKS

    api.run_windows([jvm_window_spec(name, variant, FIG12_SCALE)
                     for name in FIGURE12_BENCHMARKS
                     for variant in VARIANTS], engine=engine)


class ConfigSweepWarm(BatchWorkload):
    name = "config-sweep-warm"
    seeded = False
    #: The set-up fill is a cold Figure-12 run at REPRO_JOBS=2.
    fill_jobs = 2

    def setup_once(self, final: bool) -> float:
        shutil.rmtree(self.work / "setup", ignore_errors=True)
        return super().setup_once(final)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._specs = sweep_specs()

    def rep_engine(self, root: pathlib.Path):
        # Results are fresh per repetition; traces are the set-up's.
        return make_engine(self.work / "setup", jobs=self.run_jobs(),
                           results=f"{root.name}-results")

    def call(self, engine):
        from repro import api

        return api.run_windows(self._specs, engine=engine)

    def document(self, result):
        return result


# ----------------------------------------------------------------------
# serve-mixed: a closed loop of HTTP clients against `repro serve`.


def serve_request_key(command: str, seed: int) -> str:
    scale = SERVE_FIG13_SCALE if command == "figure13" \
        else SERVE_ENTROPY_SCALE
    return f"{command}?scale={scale}&seed={seed}"


def serve_hit_set(input_seed: int) -> List[str]:
    return [serve_request_key(command, 10 + input_seed)
            for command, _ in SERVE_HITS]


def serve_sequence(input_seed: int, rep_index: int) -> List[Tuple[str, str]]:
    """The ``(kind, request)`` list of one repetition — a pure function
    of the input seed and the repetition index.  Raises
    :class:`IndexError` once the miss pool is used up."""
    rng = random.Random(f"serve-mixed:{input_seed}")
    pools = {}
    for command, count in SERVE_MISSES:
        # The text, and with it the cost, of a request varies with its
        # seed; a fixed first block keeps that out of the run spread.
        first = list(SERVE_MISS_POOL[:count * SERVE_REPS])
        rest = list(SERVE_MISS_POOL[count * SERVE_REPS:])
        rng.shuffle(first)
        rng.shuffle(rest)
        pools[command] = first + rest
    items: List[Tuple[str, str]] = []
    for command, count in SERVE_MISSES:
        start = rep_index * count
        if start + count > len(pools[command]):
            raise IndexError("serve-mixed miss pool exhausted")
        items.extend(("miss", serve_request_key(command, seed))
                     for seed in pools[command][start:start + count])
    hit_keys = dict(zip((c for c, _ in SERVE_HITS),
                        serve_hit_set(input_seed)))
    for command, count in SERVE_HITS:
        items.extend(("hit", hit_keys[command]) for _ in range(count))
    random.Random(f"serve-mixed:{input_seed}:{rep_index}").shuffle(items)
    return items


def serve_document(request: str, engine) -> Dict[str, Any]:
    """The response document ``repro serve`` answers ``request`` with,
    computed in-process on ``engine`` (the pinning path)."""
    from repro import api
    from repro.serve.service import ServeResult, validate_request

    command, query = request.split("?", 1)
    raw = dict(part.split("=", 1) for part in query.split("&"))
    params = validate_request(command, raw)
    result = getattr(api, f"run_{command}")(engine=engine, **params)
    return ServeResult(command=command, params=params, data=result.data,
                       text=result.text).document()


class ServeMixed:
    name = "serve-mixed"
    seeded = True
    #: About 3 hits per repetition queue behind a distinct request for
    #: the engine lock.  The hit tail is the 11th-slowest hit, so a run
    #: needs well over 11 queued hits for the tail to land among them
    #: every time: 7 repetitions give about 21.
    min_reps = SERVE_REPS
    #: The last set-up leaves the server the repetitions talk to.
    interleave_setup = False

    def __init__(self, seed: int, work: pathlib.Path,
                 serial: bool = False) -> None:
        self.seed = seed
        self.work = work
        #: Traced pass: the service runs in-process (ServerThread) and
        #: one client thread sends, so every span lands on one timeline.
        self.serial = serial
        self.clients = 1 if serial else SERVE_CLIENTS
        self.gate = digests.DigestGate()
        self.pins = digests.load_pins().get(self.name, {})
        self._reps = 0
        self._setups = 0
        self.process: Optional[subprocess.Popen] = None
        self.thread = None   # ServerThread in the traced pass
        self.port = 0
        self._stderr: List[str] = []
        #: Traced pass: ``request_span(tenant)`` opens the client span of
        #: one request and returns the callable that closes it.
        self.request_span: Optional[Callable] = None

    # -- server lifetime ---------------------------------------------

    def _start_process(self, cache_dir: pathlib.Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(SERVE_WORKERS),
             "--cache-dir", str(cache_dir)],
            env=child_env(), cwd=str(REPO), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        started = time.monotonic()
        for line in self.process.stderr:
            self._stderr.append(line)
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
                break
            if time.monotonic() - started > 120:
                break
        if not self.port:
            raise RuntimeError("repro serve did not start: "
                               + "".join(self._stderr[-5:]))
        threading.Thread(target=self._drain_stderr, daemon=True).start()

    def _drain_stderr(self) -> None:
        process = self.process
        if process is None or process.stderr is None:
            return
        for line in process.stderr:
            self._stderr.append(line)

    def _start_thread(self, cache_dir: pathlib.Path) -> None:
        from repro.serve import ServerThread, SimulationService

        engine = make_engine(cache_dir)
        service = SimulationService(engine=engine, workers=SERVE_WORKERS)
        self.thread = ServerThread(service).start()
        self.port = self.thread.port

    def _stop(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None
        if self.process is not None:
            process, self.process = self.process, None
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
            if process.stderr is not None:
                process.stderr.close()
        self.port = 0

    def close(self) -> None:
        self._stop()

    # -- requests ----------------------------------------------------

    def get(self, request: str, tenant: str) -> Tuple[int, bytes]:
        url = f"http://127.0.0.1:{self.port}/v1/figure/{request}"
        req = urllib.request.Request(url, headers={"X-Repro-Tenant": tenant})
        try:
            with urllib.request.urlopen(req, timeout=150) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def setup_once(self, final: bool) -> float:
        """Start a server over an empty cache and compute the hit set."""
        self._setups += 1
        cache_dir = self.work / f"serve-cache{self._setups}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        started = time.perf_counter()
        if self.serial:
            self._start_thread(cache_dir)
        else:
            self._start_process(cache_dir)
        for request in serve_hit_set(self.seed):
            status, _ = self.get(request, "setup")
            if status != 200:
                raise RuntimeError(f"set-up request {request} -> {status}")
        elapsed = time.perf_counter() - started
        if not final:
            self._stop()
        return elapsed

    def rep(self) -> Rep:
        items = serve_sequence(self.seed, self._reps)
        self._reps += 1
        work: "queue.Queue[Tuple[int, str, str]]" = queue.Queue()
        for index, (kind, request) in enumerate(items):
            work.put((index, kind, request))
        results: List[Optional[Tuple[Request, str]]] = [None] * len(items)

        def client(tenant: str) -> None:
            while True:
                try:
                    index, kind, request = work.get_nowait()
                except queue.Empty:
                    return
                pin = self.pins.get(request) or {}
                span = (self.request_span(tenant)
                        if self.request_span is not None else None)
                started = time.perf_counter()
                try:
                    status, body = self.get(request, tenant)
                finally:
                    latency = time.perf_counter() - started
                    if span is not None:
                        span()
                produced = (digests.digest(json.loads(body))
                            if status == 200 else f"http-{status}")
                results[index] = (Request(kind, latency, status == 200,
                                          int(pin.get("instructions", 0))
                                          if kind == "miss" else 0),
                                  produced)

        threads = [threading.Thread(target=client, args=(f"client-{i}",))
                   for i in range(self.clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        wall = time.perf_counter() - started
        requests: List[Request] = []
        produced_all = []
        for (kind, request), result in zip(items, results):
            if result is None:
                requests.append(Request(kind, 0.0, False))
                produced_all.append("missing")
                continue
            req, produced = result
            pin = self.pins.get(request) or {}
            req.ok = self.gate.check(request, produced,
                                     pin.get("digest")) and req.ok
            requests.append(req)
            produced_all.append(f"{request}={produced}")
        return Rep(wall_s=wall, requests=requests,
                   digest=digests.digest(produced_all), busy_s=wall)


WORKLOADS = {
    cls.name: cls
    for cls in (Fig13Cold, Fig12Cold, ConfigSweepWarm, ServeMixed)
}


def setup_probe(name: str, directory: str) -> None:
    """The body of one batch set-up repetition (``run.py
    --setup-probe``): build an engine over ``directory`` and, for
    ``config-sweep-warm``, record the traces the sweep replays."""
    root = pathlib.Path(directory)
    # The untraced pass pins itself to one CPU for its speed probe; the
    # set-up's REPRO_JOBS=2 pool gets every CPU back, as a user's would.
    cpus = os.environ.get("PERFBENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
    if name == ConfigSweepWarm.name:
        fill_sweep_traces(make_engine(root, jobs=ConfigSweepWarm.fill_jobs))
    else:
        make_engine(root, jobs=WORKLOADS[name].jobs)
