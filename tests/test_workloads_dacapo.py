"""Tests for the synthetic DaCapo invocation streams."""

import numpy as np
import pytest

from repro.workloads import get_workload
from repro.workloads.dacapo import (
    DACAPO_BENCHMARKS,
    DacapoSpec,
    event_chunks,
    method_weights,
)


def _spec(name):
    return get_workload(name).spec


def _custom_events(spec, **knobs):
    """The whole stream of an unregistered spec."""
    return np.concatenate(list(event_chunks(spec, **knobs)))


class TestSpecs:
    def test_paper_ordering(self):
        names = [s.name for s in DACAPO_BENCHMARKS]
        assert names == ["fop", "antlr", "bloat", "lusearch", "xalan",
                         "jython", "pmd", "luindex"]
        counts = [s.invocations_millions for s in DACAPO_BENCHMARKS]
        assert counts == sorted(counts)
        assert counts == [7, 17, 93, 108, 109, 170, 195, 212]

    def test_lookup_by_name(self):
        assert _spec("jython").pattern_fraction > 0
        with pytest.raises(KeyError):
            get_workload("chart")  # paper: would not run on Jikes

    def test_resonant_benchmarks(self):
        assert _spec("jython").pattern_period == 2
        assert _spec("pmd").pattern_period == 2048
        assert _spec("luindex").pattern_fraction == 0.0


class TestWeights:
    def test_normalised(self):
        weights = method_weights(_spec("bloat"))
        assert weights.sum() == pytest.approx(1.0)
        assert len(weights) == _spec("bloat").methods

    def test_hot_first(self):
        weights = method_weights(_spec("xalan"))
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_skewed(self):
        weights = method_weights(_spec("luindex"))
        assert weights[:20].sum() > 0.4  # hot subset dominates

    def test_benchmarks_differ(self):
        wa = method_weights(_spec("bloat"))
        wb = method_weights(_spec("pmd"))
        assert wa.shape != wb.shape or not np.allclose(wa, wb)


class TestStreams:
    def test_scaled_length(self):
        events = get_workload("fop", scale=0.001).events()
        assert len(events) == int(7e6 * 0.001)

    def test_chunks_concatenate_to_whole(self):
        whole = get_workload("fop", scale=0.003, seed=5).events()
        chunks = list(event_chunks(_spec("fop"), scale=0.003, seed=5,
                                   chunk_size=10_000))
        assert sum(c.size for c in chunks) == whole.size
        assert np.array_equal(np.concatenate(chunks), whole)
        assert all(c.size == 10_000 for c in chunks[:-1])

    def test_deterministic_per_seed(self):
        a = get_workload("bloat", scale=0.0005, seed=1).events()
        b = get_workload("bloat", scale=0.0005, seed=1).events()
        c = get_workload("bloat", scale=0.0005, seed=2).events()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_method_ids_in_range(self):
        workload = get_workload("pmd", scale=0.001)
        events = workload.events()
        assert events.min() >= 0
        assert events.max() < workload.spec.methods

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            get_workload("fop", scale=0).events()

    def test_jython_contains_alternating_pattern(self):
        events = get_workload("jython", scale=0.005, seed=0).events()
        # Find a run where methods 0/1 strictly alternate for a long
        # stretch (the patterned region).
        pattern = np.tile(np.array([0, 1], dtype=np.int32), 512)
        windows = np.lib.stride_tricks.sliding_window_view(events, 1024)
        hits = np.all(windows[:: 1024] == pattern, axis=1)
        assert hits.any()

    def test_pattern_fraction_roughly_respected(self):
        workload = get_workload("jython", scale=0.01, seed=0)
        spec, events = workload.spec, workload.events()
        # Methods 0 and 1 together should carry at least the patterned
        # fraction of all events.
        share = np.isin(events, (0, 1)).mean()
        assert share > spec.pattern_fraction * 0.9

    def test_unpatterned_benchmark_not_alternating(self):
        events = get_workload("luindex", scale=0.001).events()
        pairwise_alternating = np.mean(events[:-1] != events[1:])
        assert pairwise_alternating < 1.0  # some repeats exist


class TestCustomSpec:
    def test_zero_pattern_fraction(self):
        spec = DacapoSpec("custom", 1, methods=10, pattern_fraction=0.0)
        events = _custom_events(spec, scale=0.01)
        assert len(events) == 10_000

    def test_pattern_runs_split_period(self):
        spec = DacapoSpec("custom", 1, methods=10, pattern_fraction=0.5,
                          pattern_period=8, pattern_runs=2,
                          pattern_block=1 << 14)
        events = _custom_events(spec, scale=0.02, seed=0)
        # Patterned regions contain runs of 4 identical ids.
        assert events.size == 20_000
