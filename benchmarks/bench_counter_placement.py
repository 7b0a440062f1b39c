"""Ablation (ours): the two counter placements vs. branch-on-random.

Section 2's overhead source 4 gives counter-based sampling a choice:
keep the counter in memory (loads + stores per check) or pin it in a
register (no memory traffic, but an architectural register is lost to
the program).  This bench measures both against brr on the
microbenchmark: the register placement roughly halves cbs's framework
cost, and brr still beats it without reserving *any* register or
memory — which is the whole argument of Figure 4.
"""

from _shared import MICRO_CHARS, run_once, report

from repro.core.brr import BranchOnRandomUnit
from repro.timing.runner import overhead_percent, time_window
from repro.workloads import get_workload
from repro.workloads.microbench import END_MARKER, WARM_MARKER

CONFIGS = (
    ("cbs, counter in memory", dict(kind="cbs", counter_in_register=False)),
    ("cbs, counter in register", dict(kind="cbs", counter_in_register=True)),
    ("branch-on-random", dict(kind="brr")),
)


def run_placement(duplication, interval=1024):
    n_chars = min(MICRO_CHARS, 4000)
    base = get_workload("microbench", n_chars=n_chars, variant="none",
                        seed=3).raw
    base_t = time_window(base.program, begin=(WARM_MARKER, 1),
                         end=(END_MARKER, 1), setup=base.load_text)
    rows = []
    for label, kwargs in CONFIGS:
        bench = get_workload("microbench", n_chars=n_chars,
                             variant=duplication, interval=interval,
                             include_payload=False, seed=3, **kwargs).raw
        unit = BranchOnRandomUnit() if kwargs["kind"] == "brr" else None
        timed = time_window(bench.program, begin=(WARM_MARKER, 1),
                            end=(END_MARKER, 1), setup=bench.load_text,
                            brr_unit=unit)
        rows.append((label, overhead_percent(base_t.cycles, timed.cycles)))
    return rows


def test_counter_placement(benchmark):
    results = run_once(
        benchmark,
        lambda: {dup: run_placement(dup) for dup in ("no-dup", "full-dup")},
    )

    for duplication, rows in results.items():
        report(f"\nCounter placement at interval 1024 ({duplication}):")
        for label, overhead in rows:
            report(f"  {label:<26} {overhead:6.2f}% overhead")

    for rows in results.values():
        overheads = dict(rows)
        memory = overheads["cbs, counter in memory"]
        register = overheads["cbs, counter in register"]
        brr = overheads["branch-on-random"]
        # Register placement removes the memory traffic...
        assert register < memory
        # ...but brr still wins, with no reserved state at all.
        assert brr < register
