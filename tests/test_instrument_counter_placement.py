"""Tests for the two cbs counter placements (Section 2, source 4).

"The sampling counter needs to either be stored in memory (requiring
additional loads and stores) or in a register (preventing the use of
that register anywhere in the instrumented code)."
"""

import pytest

from repro.instrument.arnold_ryder import (
    SamplingSpec,
    full_duplication,
    no_duplication,
)
from repro.timing.runner import time_window
from repro.workloads import get_workload
from repro.workloads.microbench import END_MARKER, WARM_MARKER


def _bench(n_chars, **knobs):
    return get_workload("microbench", n_chars=n_chars, **knobs).raw


class TestSpec:
    def test_register_counter_is_cbs_only(self):
        with pytest.raises(ValueError):
            SamplingSpec("brr", counter_in_register=True)

    def test_register_counter_init_has_no_memory(self):
        spec = SamplingSpec("cbs", interval=64, counter_in_register=True)
        lines = spec.init_lines()
        assert lines == ["li r12, 63"]

    def test_memory_counter_init_stores(self):
        lines = SamplingSpec("cbs", interval=64).init_lines()
        assert any(line.startswith("sw") for line in lines)


class TestCodegen:
    def site_cfg(self):
        from tests.test_instrument_arnold_ryder import counting_loop

        return counting_loop()

    def test_no_dup_register_variant_has_no_counter_memory_ops(self):
        spec = SamplingSpec("cbs", interval=8, counter_in_register=True)
        out = no_duplication(self.site_cfg(), spec, include_payload=False)
        lines = "\n".join(out.lower())
        assert "lw r12" not in lines
        assert "sw r12" not in lines
        assert "addi r12, r12, -1" in lines

    def test_full_dup_register_variant_has_no_counter_memory_ops(self):
        spec = SamplingSpec("cbs", interval=8, counter_in_register=True)
        out = full_duplication(self.site_cfg(), spec, include_payload=False)
        lines = "\n".join(out.lower())
        assert "lw r12" not in lines
        assert "sw r12" not in lines

    @pytest.mark.parametrize("duplication", ["no-dup", "full-dup"])
    def test_functional_equivalence(self, duplication):
        bench = _bench(800, variant=duplication, kind="cbs",
                       interval=16, counter_in_register=True,
                       seed=6)
        machine = bench.make_machine()
        machine.run(max_steps=2_000_000)
        checksum, counts = bench.read_results(machine)
        assert checksum == bench.expected_checksum
        assert sum(counts) > 0

    def test_register_counter_samples_at_interval(self):
        bench = _bench(900, variant="no-dup", kind="cbs",
                       interval=8, counter_in_register=True,
                       seed=6)
        machine = bench.make_machine()
        machine.run(max_steps=2_000_000)
        __, counts = bench.read_results(machine)
        # ~sites/8 samples; sites ~= 1.34 per char.
        assert abs(sum(counts) - bench.measured_sites // 8) < \
            bench.measured_sites // 8


class TestTiming:
    def test_register_counter_cheaper_than_memory_counter(self):
        """No loads/stores per check: the register placement must beat
        the memory placement (its cost is the stolen register, which
        this microbenchmark does not need)."""
        n = 2500
        base = _bench(n, variant="none", seed=3)
        base_t = time_window(base.program, begin=(WARM_MARKER, 1),
                             end=(END_MARKER, 1), setup=base.load_text)
        results = {}
        for reg in (False, True):
            bench = _bench(n, variant="no-dup", kind="cbs",
                           interval=1024, include_payload=False,
                           counter_in_register=reg, seed=3)
            timed = time_window(bench.program, begin=(WARM_MARKER, 1),
                                end=(END_MARKER, 1), setup=bench.load_text)
            results[reg] = timed.cycles
        assert results[True] < results[False]
