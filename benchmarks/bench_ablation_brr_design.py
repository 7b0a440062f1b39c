"""Ablation: how much does each Section 3.3 design rule buy?

The paper's brr microarchitecture has three load-bearing rules:
resolve at decode (front-end flush only), always-predict-not-taken
without touching the predictors, and commit not-taken brr at decode
(no ROB entry).  This bench re-times the microbenchmark with the rules
disabled, turning brr back into an ordinary conditional branch, and
shows the overhead climbing toward counter-based territory.
"""


from _shared import MICRO_CHARS, run_once, report

from repro.core.brr import BranchOnRandomUnit
from repro.timing.config import PAPER_CONFIG
from repro.timing.runner import overhead_percent, time_window
from repro.workloads import get_workload
from repro.workloads.microbench import END_MARKER, WARM_MARKER

ABLATIONS = (
    ("paper design", {}),
    ("resolve in back end", {"brr_resolve_at_decode": False}),
    ("occupies ROB", {"brr_commits_at_decode": False}),
    ("pollutes predictors", {"brr_uses_predictor": True}),
    ("all three (ordinary branch)", {
        "brr_resolve_at_decode": False,
        "brr_commits_at_decode": False,
        "brr_uses_predictor": True,
    }),
)


def run_ablation(interval):
    n_chars = min(MICRO_CHARS, 4000)
    base_bench = get_workload("microbench", n_chars=n_chars,
                              variant="none", seed=1).raw
    base = time_window(base_bench.program, begin=(WARM_MARKER, 1),
                       end=(END_MARKER, 1), setup=base_bench.load_text)
    rows = []
    for label, overrides in ABLATIONS:
        bench = get_workload("microbench", n_chars=n_chars,
                             variant="no-dup", kind="brr", interval=interval,
                             include_payload=False, seed=1).raw
        result = time_window(
            bench.program, begin=(WARM_MARKER, 1), end=(END_MARKER, 1),
            setup=bench.load_text, brr_unit=BranchOnRandomUnit(),
            config=PAPER_CONFIG.with_overrides(**overrides),
        )
        rows.append((label, overhead_percent(base.cycles, result.cycles)))
    return rows


def test_brr_design_rules(benchmark):
    results = run_once(
        benchmark, lambda: {iv: run_ablation(iv) for iv in (8, 256)})

    for interval, rows in results.items():
        report(f"\nAblation of the Section 3.3 brr design rules "
              f"(no-dup, interval {interval}):")
        for label, overhead in rows:
            report(f"  {label:<30} {overhead:6.2f}% overhead")

    high_rate = dict(results[8])
    low_rate = dict(results[256])
    # Back-end resolution is the most expensive regression at a high
    # sampling rate (a full pipeline squash per taken brr).
    assert high_rate["resolve in back end"] > high_rate["paper design"] + 5
    # In brr's target regime (low rates) the paper design is at worst
    # within noise of every ablation and strictly beats back-end
    # resolution.  (At high rates, letting the 100%-taken brra into the
    # BTB can win — footnote 4 reserves brra for *infrequent* jumps,
    # and interval 8 makes it frequent; the ablation exposes that.)
    assert low_rate["paper design"] <= min(
        v for k, v in low_rate.items() if k != "paper design") + 1.0
    assert low_rate["resolve in back end"] >= low_rate["paper design"]
