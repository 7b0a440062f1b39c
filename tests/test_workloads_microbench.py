"""Tests for the Section 5.3 microbenchmark generator."""

import pytest

from repro.core.brr import BranchOnRandomUnit, HardwareCounterUnit
from repro.workloads import get_workload
from repro.workloads.microbench import (
    END_MARKER,
    SITES,
    WARM_MARKER,
    Microbench,
)
from repro.workloads.text import (
    class_counts,
    classify,
    reference_checksum,
    site_encounters,
)


def _text(n_chars, **knobs):
    return get_workload("text", n_chars=n_chars, **knobs).raw


def _bench(n_chars, **knobs):
    return get_workload("microbench", n_chars=n_chars, **knobs).raw


class TestTextGenerator:
    def test_exact_length(self):
        assert len(_text(1234, seed=1)) == 1234

    def test_deterministic(self):
        assert _text(500, seed=7) == _text(500, seed=7)

    def test_seeds_differ(self):
        assert _text(500, seed=1) != _text(500, seed=2)

    def test_zero_length(self):
        assert _text(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _text(-1)

    def test_words_single_case(self):
        """Every word is entirely upper- or entirely lower-case, like
        the paper's Shakespearian input."""
        text = _text(2000, seed=3)
        for word in text.split():
            letters = [c for c in word if 65 <= c <= 90 or 97 <= c <= 122]
            if letters:
                assert all(c >= 97 for c in letters) or \
                    all(c <= 90 for c in letters)

    def test_class_mix(self):
        lower, upper, other = class_counts(_text(10_000, seed=0))
        total = lower + upper + other
        assert lower / total > 0.5       # mostly lower-case prose
        assert upper / total > 0.05      # some all-caps words
        assert other / total > 0.1       # separators

    def test_classify(self):
        assert classify(ord("q")) == "lower"
        assert classify(ord("Q")) == "upper"
        assert classify(ord(" ")) == "other"
        assert classify(ord("{")) == "lower"  # >= 'a' boundary semantics

    def test_site_encounters(self):
        text = b"aA "  # 1 lower (1 site) + upper (2) + other (2)
        assert site_encounters(text) == 5

    def test_reference_checksum(self):
        assert reference_checksum(b"a") == 97
        assert reference_checksum(b"A") == 130  # doubled
        assert reference_checksum(b" ") == 32
        assert reference_checksum(b"aA ") == (97 + 130) ^ 32


def run_bench(bench: Microbench, unit=None):
    machine = bench.make_machine(brr_unit=unit)
    machine.run(max_steps=2_000_000)
    return machine


class TestMicrobenchVariants:
    N = 600

    def reference(self):
        bench = _bench(self.N, variant="none", seed=5)
        return bench, reference_checksum(bench.text)

    def test_baseline_checksum(self):
        bench, expected = self.reference()
        machine = run_bench(bench)
        checksum, counts = bench.read_results(machine)
        assert checksum == expected
        assert counts == [0, 0, 0, 0]

    def test_markers_fire(self):
        bench, __ = self.reference()
        machine = run_bench(bench)
        assert machine.marker_counts[WARM_MARKER] == 1
        assert machine.marker_counts[END_MARKER] == 1

    def test_full_instrumentation_counts_edges(self):
        bench = _bench(self.N, variant="full", seed=5)
        machine = run_bench(bench)
        checksum, counts = bench.read_results(machine)
        assert checksum == bench.expected_checksum
        lower, upper, other = class_counts(bench.text)
        assert counts[1] == lower
        assert counts[0] == upper + other  # not-lower edge
        assert counts[2] == upper
        assert counts[3] == other

    @pytest.mark.parametrize("kind", ["cbs", "brr"])
    @pytest.mark.parametrize("variant", ["no-dup", "full-dup"])
    def test_sampled_variants_preserve_checksum(self, kind, variant):
        bench = _bench(self.N, variant=variant, kind=kind,
                       interval=16, seed=5)
        unit = HardwareCounterUnit() if kind == "brr" else None
        machine = run_bench(bench, unit=unit)
        checksum, __ = bench.read_results(machine)
        assert checksum == bench.expected_checksum

    def test_sampled_profile_proportions(self):
        """brr sampling at 1/8 with the LFSR collects a profile whose
        proportions track the full profile."""
        bench = _bench(4000, variant="no-dup", kind="brr",
                       interval=8, seed=5)
        machine = run_bench(bench, unit=BranchOnRandomUnit())
        __, counts = bench.read_results(machine)
        lower, upper, other = class_counts(bench.text)
        assert sum(counts) > 100
        # Lower-edge share of (lower vs not-lower) samples ~ true share.
        sampled_share = counts[1] / (counts[1] + counts[0])
        true_share = lower / (lower + upper + other)
        assert abs(sampled_share - true_share) < 0.1

    def test_framework_only_has_no_counts(self):
        bench = _bench(self.N, variant="no-dup", kind="cbs",
                       interval=16, include_payload=False, seed=5)
        machine = run_bench(bench)
        checksum, counts = bench.read_results(machine)
        assert checksum == bench.expected_checksum
        assert counts == [0, 0, 0, 0]

    def test_variant_labels(self):
        assert _bench(100, variant="none").variant == "none"
        bench = _bench(100, variant="no-dup", kind="brr")
        assert bench.variant == "brr+no-dup"
        assert bench.interval == 1024

    def test_measured_sites(self):
        bench = _bench(self.N, variant="none", seed=5)
        assert bench.measured_sites == site_encounters(
            bench.text[bench.warm_chars:])

    def test_explicit_text(self):
        text = _text(200, seed=9)
        bench = _bench(200, variant="none", text=text)
        assert bench.text == text
        with pytest.raises(ValueError):
            _bench(100, variant="none", text=text)

    def test_sampled_needs_kind(self):
        with pytest.raises(ValueError):
            _bench(100, variant="no-dup")

    def test_code_size_ordering(self):
        """cbs adds more static code than brr (Figure 4's point)."""
        none = _bench(self.N, variant="none", seed=5)
        brr = _bench(self.N, variant="no-dup", kind="brr", seed=5)
        cbs = _bench(self.N, variant="no-dup", kind="cbs", seed=5)
        assert len(none.program) < len(brr.program) < len(cbs.program)
