"""Methodological check: per-site costs are stable across our scaling.

EXPERIMENTS.md claims the Figure 14 per-site metrics are insensitive
to the microbenchmark size beyond ~2000 characters (we run 4000 where
the paper ran 500000).  This bench measures one representative point
(Full-Duplication, interval 256) at three sizes and requires the
cycles-per-site values to agree, which is what justifies comparing our
scaled-down numbers against the paper's shapes at all.
"""

from _shared import run_once, report

from repro.core.brr import BranchOnRandomUnit
from repro.core.lfsr import Lfsr
from repro.timing.runner import cycles_per_site, time_window
from repro.workloads import get_workload
from repro.workloads.microbench import END_MARKER, WARM_MARKER

SIZES = (1500, 3000, 6000)
INTERVAL = 256


def measure(n_chars):
    base = get_workload("microbench", n_chars=n_chars, variant="none",
                        seed=11).raw
    base_t = time_window(base.program, begin=(WARM_MARKER, 1),
                         end=(END_MARKER, 1), setup=base.load_text)
    out = {}
    for kind in ("cbs", "brr"):
        bench = get_workload("microbench", n_chars=n_chars,
                             variant="full-dup", kind=kind,
                             interval=INTERVAL, include_payload=False,
                             seed=11).raw
        unit = (BranchOnRandomUnit(Lfsr(20, seed=0x321))
                if kind == "brr" else None)
        timed = time_window(bench.program, begin=(WARM_MARKER, 1),
                            end=(END_MARKER, 1), setup=bench.load_text,
                            brr_unit=unit)
        out[kind] = cycles_per_site(base_t.cycles, timed.cycles,
                                    bench.measured_sites)
    return out


def test_per_site_costs_scale_invariant(benchmark):
    results = run_once(benchmark, lambda: {n: measure(n) for n in SIZES})

    report(f"\nScaling stability (full-dup, interval {INTERVAL}, "
           "cycles/site):")
    report(f"  {'chars':>7} {'cbs':>8} {'brr':>8} {'ratio':>7}")
    for n, values in results.items():
        ratio = values["cbs"] / max(1e-9, values["brr"])
        report(f"  {n:>7} {values['cbs']:>8.3f} {values['brr']:>8.3f} "
               f"{ratio:>7.1f}")

    cbs_values = [v["cbs"] for v in results.values()]
    brr_values = [v["brr"] for v in results.values()]
    # Within a modest band across a 4x size range.
    assert max(cbs_values) <= min(cbs_values) * 1.5
    assert max(brr_values) <= min(brr_values) * 2.2
    # The gap survives at every size.
    for values in results.values():
        assert values["cbs"] > 4 * values["brr"]
