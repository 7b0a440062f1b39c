"""End-to-end and per-layer host-time benchmark of ``repro``.

Untraced pass (end-to-end metrics)::

    python3 perfbench/run.py --workload fig13-cold --seed 0 --trace 0

Traced pass (per-layer metrics; spans written to
``.perfbench/spans/<workload>-seed<seed>.jsonl``)::

    python3 perfbench/run.py --workload fig13-cold --seed 0 --trace 1

One-shot kernel / mechanism A/B table (not part of the metrics)::

    python3 perfbench/run.py --ab --seed 0

Re-pin the output digests with the golden timing model::

    python3 perfbench/run.py --pin

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when an output does not match its pinned digest.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

#: Set-up is repeated this many times; ``setup_s`` is the median.
SETUP_REPS = 3
#: The traced pass interleaves this many untraced/traced pairs at least.
MIN_TRACED_REPS = 2
#: Allowed |traced wall - (self times + unattributed)|.
ATTRIBUTION_TOLERANCE_S = 0.005


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple], names: List[str]) -> str:
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names},
    })


def work_dir() -> pathlib.Path:
    path = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Untraced pass: end-to-end metrics.


def run_untraced(name: str, seed: int, seconds: float,
                 work: pathlib.Path) -> int:
    from perfbench import measure, workloads

    cpu = measure.pin_to_one_cpu()
    probe = measure.SpeedProbe(str(ROOT / "perfbench" / "run.py"),
                               work / "speed-probe.bin")
    workload = workloads.WORKLOADS[name](seed % workloads.PIN_SEEDS, work)
    #: ``(raw seconds, start, end)`` of every set-up.
    setup_spans: List[tuple] = []
    #: ``(repetition, phase boundaries)``: a phase's host times are
    #: scaled by the host's speed between its boundaries.
    rep_marks: List[tuple] = []

    def set_up() -> None:
        started = time.perf_counter()
        raw = workload.setup_once(final=len(setup_spans) == SETUP_REPS - 1)
        setup_spans.append((raw, started, time.perf_counter()))

    def rep() -> tuple:
        marks = [time.perf_counter()]
        workload.checkpoint = lambda: marks.append(time.perf_counter())
        workload.hit_speed = measure.warm_reference_chunk
        done = workload.rep()
        marks.append(time.perf_counter())
        return done, marks

    try:
        if not workload.interleave_setup:
            while len(setup_spans) < SETUP_REPS:
                set_up()
        rss = measure.PeakRss(exclude=[probe.pid]).start()
        # A batch workload's set-ups run between its first repetitions,
        # so the repetitions spread over the whole run instead of its
        # end.
        measured = 0.0
        while (len(rep_marks) < workload.min_reps
               or measured < seconds):
            if len(setup_spans) < SETUP_REPS:
                with rss.paused():
                    set_up()
            try:
                rep_marks.append(rep())
            except IndexError:
                break  # serve-mixed used up its pinned miss pool
            measured += rep_marks[-1][0].busy_s
        peak_mib = rss.stop()
    finally:
        probe.stop()
        workload.close()

    setups = [raw * probe.scale(start, end)
              for raw, start, end in setup_spans]
    reps = [(done, [probe.scale(a, b) for a, b in zip(marks, marks[1:])])
            for done, marks in rep_marks]

    def scaled(request, scales) -> float:
        if request.speed_s:
            return (request.latency_s * measure.SpeedProbe.NOMINAL_S
                    / request.speed_s)
        return request.latency_s * scales[request.phase]

    requests = [(r, scales) for done, scales in reps for r in done.requests]
    # Latencies of every request that completed, digest match or not.
    hits = [scaled(r, sc) for r, sc in requests
            if r.kind == "hit" and r.latency_s > 0] or [0.0]
    misses = [scaled(r, sc) for r, sc in requests
              if r.kind == "miss" and r.latency_s > 0] or [0.0]
    failed = sum(1 for r, _ in requests if not r.ok)
    tail_s, tail_pct, hit_samples = measure.tail(hits)
    walls = [done.wall_s * scales[0] for done, scales in reps]

    def scaled_busy(done, scales) -> float:
        # Weight each phase's factor by the request time spent in it.
        total = sum(r.latency_s for r in done.requests)
        if not total:
            return done.busy_s * scales[0]
        return done.busy_s * sum(scaled(r, scales)
                                 for r in done.requests) / total

    busy = sum(scaled_busy(done, scales) for done, scales in reps)
    metrics = {
        "wall_s": (measure.median(walls), "s"),
        "setup_s": (measure.median(setups), "s"),
        "sim_insts_per_s": (measure.median(
            [done.instructions / wall if wall else 0.0
             for (done, _), wall in zip(reps, walls)]), "inst/s"),
        "peak_rss_mb": (peak_mib, "MiB"),
        "req_hit_p50_s": (measure.median(hits), "s"),
        "req_hit_tail_s": (tail_s, "s"),
        "req_miss_p50_s": (measure.median(misses), "s"),
        "req_per_s": (len(requests) / busy if busy else 0.0, "req/s"),
    }
    print(json.dumps({"details": {
        "workload": name, "seed": seed, "input_seed": workload.seed,
        "seeded_input": workload.seeded, "reps": len(reps), "cpu": cpu,
        "setup_s_samples": setups,
        "raw_setup_s_samples": [raw for raw, _, _ in setup_spans],
        "wall_s_samples": walls,
        "raw_wall_s_samples": [done.wall_s for done, _ in reps],
        "probe_chunks": len(probe.records()),
        "probe_chunk_s_median": measure.median(
            [seconds for _, seconds in probe.records()]),
        "hit_samples": hit_samples, "hit_tail_percentile": tail_pct,
        "miss_samples": len(misses),
        "failed_ratio": failed / max(1, len(requests)),
        "digest_mismatches": workload.gate.mismatches,
    }}))
    names = [m["name"] for m in benchmark_spec()["end_to_end"]]
    correct = failed == 0 and not workload.gate.mismatches
    print(result_line(correct, len(requests), failed, metrics, names))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Traced pass: per-layer metrics.


def _diff(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _accumulate(total: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def run_traced(name: str, seed: int, seconds: float,
               work: pathlib.Path) -> int:
    from perfbench import measure, spans, workloads

    measure.pin_to_one_cpu()
    # One timeline: the pool and the server run in this process, and
    # serve-mixed drives it from one client thread.
    workload = workloads.WORKLOADS[name](seed % workloads.PIN_SEEDS, work,
                                         serial=True)
    tracer = spans.Tracer()
    probes = spans.LayerProbes(tracer)

    untraced, traced, windows, concurrent_reps = [], [], [], []
    stores: Dict[str, int] = {}
    serve_counts: Dict[str, int] = {}
    concurrent = spans.Tracer()
    recorded_first = None
    try:
        workload.setup_once(final=True)
        service = (workload.thread.service
                   if getattr(workload, "thread", None) else None)
        if service:
            # One client never queues behind another, so serve.wait_s
            # and serve.coalesced_ratio come from a traced repetition
            # with the untraced pass's two clients.  Its spans overlap
            # and are kept apart from the one-timeline attribution.
            concurrent_probes = spans.LayerProbes(concurrent)
            workload.clients = workloads.SERVE_CLIENTS
            workload.request_span = concurrent_probes.client_request
            before_serve = service.counters.as_dict()
            with concurrent_probes:
                concurrent_reps.append(workload.rep())
            serve_counts = _diff(service.counters.as_dict(), before_serve)
            workload.clients = 1
        workload.request_span = probes.client_request
        # The service's engine lives across repetitions: count deltas.
        shared = [service.engine] if service else []
        started = time.perf_counter()
        while (len(traced) < MIN_TRACED_REPS
               or time.perf_counter() - started < seconds):
            try:
                untraced.append(workload.rep())
                before_stores = workloads.tier_totals(shared)
                with probes:
                    begin = time.perf_counter()
                    rep = workload.rep()
                    end = time.perf_counter()
            except IndexError:
                break  # serve-mixed used up its pinned miss pool
            traced.append(rep)
            windows.append((begin, end))
            if recorded_first is None:
                recorded_first = len(probes.recorded)
            if service:
                _accumulate(stores, _diff(workloads.tier_totals(shared),
                                          before_stores))
            else:
                _accumulate(stores, rep.stores)
        calibration = probes.calibrate_steps(limit=recorded_first)
    finally:
        workload.close()

    metrics = spans.layer_metrics(
        tracer.spans, windows,
        untraced_wall_s=measure.median([rep.wall_s for rep in untraced]),
        traced_wall_s=measure.median([rep.wall_s for rep in traced]),
        stores=stores, serve=serve_counts, calibration=calibration,
        concurrent=concurrent.spans)
    gap = spans.attribution_gap(tracer.spans, windows)
    span_dir = ROOT / ".perfbench" / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    span_log = span_dir / f"{name}-seed{seed}.jsonl"
    tracer.write_jsonl(span_log)
    if concurrent.spans:
        concurrent.write_jsonl(span_dir / f"{name}-seed{seed}-clients"
                                          f"{workloads.SERVE_CLIENTS}.jsonl")

    requests = [r for rep in untraced + traced + concurrent_reps
                for r in rep.requests]
    failed = sum(1 for r in requests if not r.ok)
    layer_self = spans.layer_self_times(tracer.spans)
    print(json.dumps({"details": {
        "workload": name, "seed": seed, "input_seed": workload.seed,
        "traced_reps": len(traced), "untraced_reps": len(untraced),
        "one_process": True,
        "jobs": 1 if name != "serve-mixed" else None,
        "serve_clients": 1 if name == "serve-mixed" else None,
        "concurrent_reps": len(concurrent_reps),
        "layer_self_s": layer_self,
        "top_self_layer": max(layer_self, key=layer_self.get),
        "attribution_gap_s": gap,
        "spans": len(tracer.spans), "span_log": str(span_log),
        "digest_mismatches": workload.gate.mismatches,
    }}))
    names = [m["name"] for m in benchmark_spec()["per_layer"]]
    correct = (failed == 0 and not workload.gate.mismatches
               and abs(gap) <= ATTRIBUTION_TOLERANCE_S)
    print(result_line(correct, len(requests), failed, metrics, names))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# One-shot A/B diagnostic.


def run_once(name: str, seed: int, work: pathlib.Path,
             jobs: int = 0) -> int:
    """Set up once, run one repetition without result-warm repeats,
    print ``{"wall_s", "digest", "ok"}``."""
    from perfbench import workloads

    workload = workloads.WORKLOADS[name](seed % workloads.PIN_SEEDS, work)
    if jobs:
        workload.jobs = jobs
    workload.hit_repeats = 0
    try:
        workload.setup_once(final=True)
        rep = workload.rep()
    finally:
        workload.close()
    ok = all(r.ok for r in rep.requests)
    print(json.dumps({"wall_s": rep.wall_s, "digest": rep.digest, "ok": ok}))
    return 0 if ok else 1


def ab_rows() -> List[tuple]:
    """``(workload, env, jobs)`` rows of the A/B table."""
    from perfbench import workloads

    rows = [(name, {"REPRO_FAST": fast}, 0)
            for name in workloads.WORKLOADS
            for fast in ("vector", "loop", "off")]
    rows += [("config-sweep-warm", dict(pages, **handles), 2)
             for pages in ({"REPRO_TRACE_PAGES": "0"},
                           {"REPRO_TRACE_PAGES": "1"})
             for handles in ({}, {"REPRO_TRACE_HANDLES": "1"})]
    return rows


def run_ab(seed: int) -> int:
    from perfbench import workloads

    digests: Dict[str, set] = {}
    bad = False
    print(f"{'workload':<18} {'jobs':>4}  {'knobs':<44} {'wall_s':>8}  "
          f"digest")
    for name, knobs, jobs in ab_rows():
        env = workloads.child_env()
        for knob in workloads.PASSTHROUGH_ENV:
            env.pop(knob, None)
        env.update(knobs)
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--once", "--workload", name, "--seed", str(seed)]
        if jobs:
            command += ["--jobs", str(jobs)]
        done = subprocess.run(command, env=env, cwd=str(ROOT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=900)
        try:
            row = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            row = {"wall_s": float("nan"), "digest": "no-result",
                   "ok": False}
        bad |= done.returncode != 0 or not row["ok"]
        digests.setdefault(name, set()).add(row["digest"])
        knob_text = " ".join(f"{k}={v}" for k, v in knobs.items())
        print(f"{name:<18} {jobs or '-':>4}  {knob_text:<44} "
              f"{row['wall_s']:8.3f}  {row['digest'][:12]}"
              f"{'' if row['ok'] else '  MISMATCH'}", flush=True)
    for name, seen in digests.items():
        if len(seen) != 1:
            print(f"perfbench: {name} digests differ across rows",
                  file=sys.stderr)
            bad = True
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Pinning.


def run_pin(work: pathlib.Path) -> int:
    """Recompute every pinned digest with the golden timing model."""
    from perfbench import digest, workloads

    os.environ["REPRO_FAST"] = "off"
    pins: Dict[str, Dict[str, Any]] = {}

    def cold(cls, seed: int):
        workload = cls(seed, work / f"pin-{cls.name}-{seed}")
        root = workload.fresh_root()
        if cls is workloads.ConfigSweepWarm:
            workloads.fill_sweep_traces(
                workloads.make_engine(workload.work / "setup"))
        engine = workload.rep_engine(root)
        return digest.digest(workload.document(workload.call(engine)))

    pins["fig13-cold"] = {"*": cold(workloads.Fig13Cold, 0)}
    pins["fig12-cold"] = {"*": cold(workloads.Fig12Cold, 0)}
    pins["config-sweep-warm"] = {"*": cold(workloads.ConfigSweepWarm, 0)}
    requests = sorted(
        {request for seed in range(workloads.PIN_SEEDS)
         for request in workloads.serve_hit_set(seed)}
        | {workloads.serve_request_key(command, seed)
           for command, _ in workloads.SERVE_MISSES
           for seed in workloads.SERVE_MISS_POOL})
    serve = {}
    for index, request in enumerate(requests):
        engine = workloads.make_engine(work / f"pin-serve-{index}")
        document = workloads.serve_document(request, engine)
        serve[request] = {"digest": digest.digest(document),
                          "instructions":
                          workloads.miss_instructions(engine)}
    pins["serve-mixed"] = serve
    with open(digest.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(len(v) for v in pins.values())} digests "
          f"to {digest.PINS_PATH}")
    return 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ab", action="store_true",
                        help="one-shot A/B table over kernels and "
                             "trace mechanisms")
    parser.add_argument("--once", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--speed-probe", metavar="FILE",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-parent", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin output digests (golden model)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    if args.speed_probe:
        from perfbench import measure

        measure.run_speed_probe(args.speed_probe, args.probe_parent)
        return 0
    from perfbench import workloads

    workloads.sanitize_env()
    if args.setup_probe:
        # One batch set-up repetition; the parent times this process.
        workloads.setup_probe(args.workload, args.setup_probe)
        return 0
    if args.ab:
        return run_ab(args.seed)
    if not args.pin and args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of "
                     f"{sorted(workloads.WORKLOADS)}")
    work = work_dir()
    try:
        if args.pin:
            return run_pin(work)
        if args.once:
            return run_once(args.workload, args.seed, work, args.jobs)
        if args.trace:
            return run_traced(args.workload, args.seed, args.seconds, work)
        return run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
