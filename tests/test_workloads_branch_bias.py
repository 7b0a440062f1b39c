"""Tests for branch-bias reconstruction from the edge profile."""

import pytest

from repro.core.brr import BranchOnRandomUnit
from repro.core.lfsr import Lfsr
from repro.workloads import get_workload
from repro.workloads.microbench import Microbench
from repro.workloads.text import class_counts


def _bench(n_chars, **knobs):
    return get_workload("microbench", n_chars=n_chars, **knobs).raw


class TestBranchBiases:
    def test_from_full_profile_exact(self):
        bench = _bench(1500, variant="full", seed=8)
        machine = bench.make_machine()
        machine.run(max_steps=2_000_000)
        __, counts = bench.read_results(machine)
        biases = Microbench.branch_biases(counts)
        lower, upper, other = class_counts(bench.text)
        assert biases["head_taken_lower"] == pytest.approx(
            lower / (lower + upper + other))
        assert biases["mid_taken_upper"] == pytest.approx(
            upper / (upper + other))

    def test_sampled_biases_track_full(self):
        """The point of sampling: a 1/8 brr edge profile reconstructs
        the same biases within sampling noise."""
        n = 6000
        full_bench = _bench(n, variant="full", seed=8)
        machine = full_bench.make_machine()
        machine.run(max_steps=4_000_000)
        __, full_counts = full_bench.read_results(machine)
        full_biases = Microbench.branch_biases(full_counts)

        sampled_bench = _bench(n, variant="no-dup", kind="brr",
                               interval=8, seed=8)
        machine = sampled_bench.make_machine(
            brr_unit=BranchOnRandomUnit(Lfsr(20, seed=0x777)))
        machine.run(max_steps=4_000_000)
        __, sampled_counts = sampled_bench.read_results(machine)
        sampled_biases = Microbench.branch_biases(sampled_counts)

        for key in full_biases:
            assert sampled_biases[key] == pytest.approx(
                full_biases[key], abs=0.06), key

    def test_sparse_profile_rejected(self):
        with pytest.raises(ValueError):
            Microbench.branch_biases([0, 0, 0, 0])
        with pytest.raises(ValueError):
            Microbench.branch_biases([1, 1, 0, 0])
