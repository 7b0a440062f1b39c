"""Self-tests of the benchmark: statistics, span arithmetic, the output
gate, request-sequence determinism, and the cold/warm premises of the
batch workloads.

    python3 -m pytest perfbench/tests
"""

import pytest

from perfbench import digest, measure, spans, workloads


# -- the percentile rule ------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    value, percentile, samples = measure.tail(values)
    assert samples == 30
    assert value == 20.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_with_too_few_samples_is_unresolved():
    value, percentile, samples = measure.tail([3.0, 1.0, 2.0])
    assert (value, percentile, samples) == (1.0, 0.0, 3)


def test_tail_is_order_independent():
    values = [0.5 * ((7 * i) % 41) for i in range(41)]
    assert measure.tail(values) == measure.tail(sorted(values))


# -- self-time arithmetic -----------------------------------------------

def _span(span_id, name, start, end, parent=None):
    return spans.Span(id=span_id, name=name, start=start, end=end,
                      parent=parent)


def test_self_time_subtracts_children():
    tree = [
        _span(1, "experiments.run_figure13", 0.0, 10.0),
        _span(2, "engine.run", 1.0, 9.0, parent=1),
        _span(3, "timing.replay", 2.0, 5.0, parent=2),
        _span(4, "decode", 2.5, 3.5, parent=3),
        _span(5, "cache.put", 6.0, 7.0, parent=2),
    ]
    own = spans.self_times(tree)
    assert own == {1: 2.0, 2: 4.0, 3: 2.0, 4: 1.0, 5: 1.0}
    layers = spans.layer_self_times(tree)
    assert layers["experiments"] == 2.0
    assert layers["timing"] == 2.0
    assert sum(layers.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    tree = [
        _span(1, "serve.http", 0.0, 10.0),
        _span(2, "serve.submit", 1.0, 6.0, parent=1),
        _span(3, "serve.submit", 4.0, 8.0, parent=1),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(3.0)


def test_self_times_plus_unattributed_equal_wall():
    tree = [
        _span(1, "experiments.run_windows", 1.0, 4.0),
        _span(2, "engine.run", 1.5, 3.5, parent=1),
        _span(3, "experiments.run_windows", 5.0, 9.0),
        _span(4, "cache.get", 5.5, 6.0, parent=3),
    ]
    metrics = spans.layer_metrics(
        tree, [(0.0, 10.0)], untraced_wall_s=1.0, traced_wall_s=1.1,
        stores={}, serve={}, calibration={})
    assert metrics["trace.wall_s"][0] == 10.0
    assert metrics["trace.unattributed_s"][0] == pytest.approx(3.0)
    assert spans.attribution_gap(tree, [(0.0, 10.0)]) == pytest.approx(0.0)
    assert metrics["trace.overhead_ratio"][0] == pytest.approx(1.1)


def test_attribution_gap_exposes_a_child_outside_its_parent():
    tree = [
        _span(1, "experiments.run_windows", 0.0, 4.0),
        _span(2, "engine.run", 3.0, 6.0, parent=1),
    ]
    assert spans.attribution_gap(tree, [(0.0, 6.0)]) != pytest.approx(0.0)


def test_serve_wait_ends_when_the_api_call_starts():
    # Two clients: the second submit's run queues 2 s for the engine
    # lock inside serve.run; the third submit is coalesced.
    tree = [
        _span(1, "serve.submit", 0.0, 3.0),
        _span(2, "serve.run", 0.1, 3.0, parent=1),
        _span(3, "experiments.run_figure13", 0.2, 3.0, parent=2),
        _span(4, "serve.submit", 1.0, 5.0),
        _span(5, "serve.run", 1.1, 5.0, parent=4),
        _span(6, "experiments.run_entropy", 3.0, 5.0, parent=5),
        _span(7, "serve.submit", 1.5, 3.0),
    ]
    assert spans.serve_wait_s(tree) == pytest.approx(0.2 + 2.0)


# -- the output gate ----------------------------------------------------

def test_digest_ignores_host_time_only():
    document = {"data": {"points": [{"cycles": 120, "overhead": 1.5}]},
                "elapsed_s": 1.0, "engine": {"window_wall_s": 2.0}}
    base = digest.digest(document)
    timed = dict(document, elapsed_s=9.0,
                 engine={"window_wall_s": 7.0})
    assert digest.digest(timed) == base
    perturbed = {"data": {"points": [{"cycles": 121, "overhead": 1.5}]},
                 "elapsed_s": 1.0, "engine": {"window_wall_s": 2.0}}
    assert digest.digest(perturbed) != base


def test_gate_rejects_a_perturbed_document():
    document = {"command": "figure13", "data": {"cycles": [1, 2, 3]}}
    pinned = digest.digest(document)
    gate = digest.DigestGate()
    assert gate.check("ok", digest.digest(document), pinned)
    perturbed = {"command": "figure13", "data": {"cycles": [1, 2, 4]}}
    assert not gate.check("bad", digest.digest(perturbed), pinned)
    assert not gate.check("unpinned", digest.digest(document), None)
    assert [m["label"] for m in gate.mismatches] == ["bad", "unpinned"]


def test_every_pinned_input_is_present():
    pins = digest.load_pins()
    assert set(pins["fig13-cold"]) == {"*"}
    assert set(pins["fig12-cold"]) == {"*"}
    assert set(pins["config-sweep-warm"]) == {"*"}
    for seed in range(workloads.PIN_SEEDS):
        for rep in range(4):
            for _, request in workloads.serve_sequence(seed, rep):
                assert request in pins["serve-mixed"]


# -- the serve request sequence -----------------------------------------

def test_serve_sequence_is_a_function_of_the_seed():
    assert workloads.serve_sequence(3, 0) == workloads.serve_sequence(3, 0)
    assert workloads.serve_sequence(3, 1) == workloads.serve_sequence(3, 1)
    assert workloads.serve_sequence(3, 0) != workloads.serve_sequence(4, 0)


def test_serve_sequence_mix_and_distinct_misses():
    seen = set()
    rep = 0
    while True:
        try:
            items = workloads.serve_sequence(5, rep)
        except IndexError:
            break
        kinds = [kind for kind, _ in items]
        assert kinds.count("miss") == sum(n for _, n in
                                          workloads.SERVE_MISSES)
        assert kinds.count("hit") == sum(n for _, n in workloads.SERVE_HITS)
        hits = {request for kind, request in items if kind == "hit"}
        assert hits == set(workloads.serve_hit_set(5))
        misses = [request for kind, request in items if kind == "miss"]
        assert not seen & set(misses)
        assert not hits & set(misses)
        seen.update(misses)
        rep += 1
    assert rep == len(workloads.SERVE_MISS_POOL) // 2


def test_every_run_times_the_same_distinct_requests():
    def first_run_misses(seed):
        return sorted(request
                      for rep in range(workloads.SERVE_REPS)
                      for kind, request in workloads.serve_sequence(seed, rep)
                      if kind == "miss")

    assert first_run_misses(0) == first_run_misses(5)
    assert ([r for _, r in workloads.serve_sequence(0, 0)]
            != [r for _, r in workloads.serve_sequence(5, 0)])


# -- cold and warm premises ---------------------------------------------

def _traced_cold_call(workload):
    """Run one cold call (no result-warm repeats) under the probes."""
    tracer = spans.Tracer()
    workload.hit_repeats = 0
    with spans.LayerProbes(tracer):
        rep = workload.rep()
    metrics = spans.layer_metrics(
        tracer.spans, [], untraced_wall_s=1.0, traced_wall_s=1.0,
        stores={}, serve={}, calibration={})
    return rep, {name: value for name, (value, _) in metrics.items()}


@pytest.mark.parametrize("cls, windows", [
    (workloads.Fig13Cold, 82),
    (workloads.Fig12Cold, 15),
])
def test_cold_workloads_start_empty(tmp_path, monkeypatch, cls, windows):
    # Fewer characters keep the test short; emptiness does not depend
    # on the input size.
    monkeypatch.setattr(workloads, "FIG13_CHARS", 20)
    rep, metrics = _traced_cold_call(cls(0, tmp_path, serial=True))
    assert metrics["engine.windows"] == windows
    assert metrics["tracestore.load.calls"] == windows
    assert metrics["tracestore.hit_ratio"] == 0
    assert metrics["cache.hit_ratio"] == 0
    # One functional trace per window, each recorded exactly once.
    assert metrics["sim.record.calls"] == windows


def test_config_sweep_is_warm(tmp_path):
    workload = workloads.ConfigSweepWarm(0, tmp_path, serial=True)
    workloads.fill_sweep_traces(workloads.make_engine(tmp_path / "setup"))
    rep, metrics = _traced_cold_call(workload)
    assert rep.requests[0].ok
    assert metrics["engine.windows"] == 90
    assert metrics["sim.record.calls"] == 0
    assert metrics["tracestore.hit_ratio"] == 1
    assert metrics["cache.hit_ratio"] == 0


# -- host-speed scaling --------------------------------------------------

def test_phase_scale_is_the_nominal_over_the_median_chunk():
    records = [(t / 10, 0.010) for t in range(100)]
    records[20] = (2.0, 0.500)  # one preempted chunk: the median drops it
    assert measure.phase_scale(records, 1.0, 5.0, nominal=0.010) == 1.0
    # A host at half speed doubles a time: it is scaled back by half.
    slow = [(at, 2 * seconds) for at, seconds in records]
    assert measure.phase_scale(slow, 1.0, 5.0, nominal=0.010) == 0.5


def test_phase_scale_uses_only_the_chunks_inside_the_phase():
    records = ([(t / 10, 0.010) for t in range(50)]
               + [(5 + t / 10, 0.040) for t in range(50)])
    assert measure.phase_scale(records, 0.0, 4.9, nominal=0.010) == 1.0
    assert measure.phase_scale(records, 5.0, 9.9, nominal=0.010) == 0.25


def test_a_short_phase_takes_the_chunks_around_its_middle():
    records = ([(t / 10, 0.010) for t in range(50)]
               + [(5 + t / 10, 0.040) for t in range(50)])
    # No chunk starts inside [7.01, 7.02]; the five nearest are all slow.
    assert measure.phase_scale(records, 7.01, 7.02, nominal=0.010) == 0.25


def test_reference_chunk_is_timed():
    assert measure.reference_chunk() > 0
