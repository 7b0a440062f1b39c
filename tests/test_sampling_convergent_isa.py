"""Tests for ISA-level convergent profiling (brr field patching)."""

import pytest

from repro.core.brr import BranchOnRandomUnit
from repro.core.lfsr import Lfsr
from repro.sampling import ConvergentController, SiteBinding
from repro.workloads import get_workload
from repro.workloads.microbench import PROFILE_BASE


def _bench(n_chars, **knobs):
    return get_workload("microbench", n_chars=n_chars, **knobs).raw


def make_setup(n_chars=6000, seed=3, interval=4):
    bench = _bench(n_chars, variant="no-dup", kind="brr",
                   interval=interval, seed=seed)
    machine = bench.make_machine(
        brr_unit=BranchOnRandomUnit(Lfsr(20, seed=0x1111)))
    return bench, machine


class TestBindings:
    def test_bindings_point_at_brr_instructions(self):
        from repro.isa.instructions import Op

        bench, machine = make_setup()
        bindings = bench.brr_site_bindings()
        assert set(bindings) == {0, 1, 2, 3}
        for binding in bindings.values():
            instr = bench.program.decode_at(binding.brr_addr)
            assert instr.op is Op.BRR
            assert PROFILE_BASE <= binding.counter_addr < PROFILE_BASE + 16

    def test_bindings_require_brr_nodup(self):
        bench = _bench(500, variant="full")
        with pytest.raises(ValueError):
            bench.brr_site_bindings()
        bench = _bench(500, variant="full-dup", kind="brr")
        with pytest.raises(ValueError):
            bench.brr_site_bindings()


class TestController:
    def test_initial_field_patched_in(self):
        bench, machine = make_setup(interval=1024)  # compiled at 1/1024
        controller = ConvergentController(
            machine, bench.brr_site_bindings(), initial_field=1)
        # The controller re-encoded every site at 1/4.
        for key in controller.sites:
            assert controller.current_interval(key) == 4

    def test_rates_back_off_as_shares_stabilise(self):
        bench, machine = make_setup(n_chars=20_000)
        controller = ConvergentController(
            machine, bench.brr_site_bindings(),
            initial_field=1, max_field=6,
            stable_polls_to_backoff=2, share_tolerance=0.05,
        )
        controller.run(steps_per_poll=8000, polls=30)
        intervals = [controller.current_interval(k) for k in controller.sites]
        # The character-class mix is stationary: every site backs off.
        assert all(interval > 4 for interval in intervals)
        summary = controller.summary()
        assert sum(s["samples"] for s in summary.values()) > 0

    def test_shares_track_true_distribution(self):
        from repro.workloads.text import class_counts

        bench, machine = make_setup(n_chars=20_000)
        controller = ConvergentController(
            machine, bench.brr_site_bindings(),
            initial_field=1, max_field=5,
            stable_polls_to_backoff=2, share_tolerance=0.05,
        )
        controller.run(steps_per_poll=8000, polls=40)
        lower, upper, other = class_counts(bench.text)
        total = lower + 2 * (upper + other)
        true_lower_share = lower / total
        measured = controller.sites[1].share  # site 1 = lower edge
        assert measured == pytest.approx(true_lower_share, abs=0.08)

    def test_converged_flag_reached_at_max_field(self):
        bench, machine = make_setup(n_chars=30_000)
        controller = ConvergentController(
            machine, bench.brr_site_bindings(),
            initial_field=1, max_field=3,
            stable_polls_to_backoff=1, share_tolerance=0.2,
        )
        controller.run(steps_per_poll=6000, polls=40)
        assert any(c.converged for c in controller.sites.values())

    def test_rate_changes_recorded(self):
        bench, machine = make_setup(n_chars=20_000)
        controller = ConvergentController(
            machine, bench.brr_site_bindings(),
            initial_field=1, max_field=5,
            stable_polls_to_backoff=1, share_tolerance=0.2,
        )
        controller.run(steps_per_poll=8000, polls=25)
        assert any(c.rate_changes for c in controller.sites.values())

    def test_validation(self):
        bench, machine = make_setup()
        with pytest.raises(ValueError):
            ConvergentController(machine, {})
        with pytest.raises(ValueError):
            ConvergentController(machine, bench.brr_site_bindings(),
                                 initial_field=5, max_field=2)

    def test_poll_before_any_samples_is_safe(self):
        bench, machine = make_setup()
        controller = ConvergentController(machine,
                                          bench.brr_site_bindings())
        controller.poll()  # nothing sampled yet
        assert controller.polls == 1

    def test_run_stops_at_halt(self):
        bench, machine = make_setup(n_chars=800)
        controller = ConvergentController(machine,
                                          bench.brr_site_bindings())
        steps = controller.run(steps_per_poll=100_000, polls=10)
        assert machine.halted
        assert steps < 100_000 * 10
