"""The unified workload registry.

Every family round-trips through ``get_workload`` producing results
byte-identical to its family's own builder.
"""

import warnings

import numpy as np
import pytest

from repro.workloads import dacapo, microbench, text
from repro.workloads.registry import (
    FAMILIES,
    get_workload,
    list_workloads,
)


class TestRegistrySurface:
    def test_all_families_registered(self):
        assert set(FAMILIES) == {"dacapo", "microbench", "text",
                                 "adversarial"}
        names = list_workloads()
        assert set(FAMILIES) <= set(names)
        assert "jython" in names  # the dacapo shortcuts ride along

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_workload("not-a-workload")

    def test_functional_keys_carry_family_and_knobs(self):
        workload = get_workload("text", n_chars=100, seed=3)
        key = workload.functional_key()
        assert key["family"] == "text"
        assert key["knobs"]["n_chars"] == 100

    def test_functional_keys_distinguish_knobs(self):
        one = get_workload("adversarial", scheme="cbs", density=0.25)
        other = get_workload("adversarial", scheme="cbs", density=0.5)
        assert one.functional_key() != other.functional_key()


class TestRoundTrips:
    def test_text_matches_legacy(self):
        workload = get_workload("text", n_chars=500, seed=2)
        legacy = text._generate_text(n_chars=500, seed=2)
        assert workload.raw == legacy
        assert workload.events().tolist() == list(legacy)

    def test_microbench_matches_legacy(self):
        workload = get_workload("microbench", n_chars=400, variant="no-dup",
                                kind="cbs", interval=64, seed=1)
        legacy = microbench._build_microbench(
            n_chars=400, variant="no-dup", kind="cbs", interval=64, seed=1)
        assert list(workload.program().words) == list(legacy.program.words)

    def test_dacapo_matches_legacy(self):
        workload = get_workload("jython", scale=0.01, seed=0)
        spec = dacapo._spec_by_name("jython")
        assert workload.raw == spec
        legacy_events = np.concatenate(
            list(dacapo.event_chunks(spec, scale=0.01, seed=0)))
        assert np.array_equal(workload.events(), legacy_events)

    def test_dacapo_qualified_name(self):
        assert (get_workload("dacapo:jython", scale=0.01).raw
                == get_workload("jython", scale=0.01).raw)

    def test_adversarial_matches_builder(self):
        from repro.workloads.adversarial import build_adversarial

        workload = get_workload("adversarial", scheme="mixed", seed=4,
                                blocks=8)
        direct = build_adversarial(scheme="mixed", seed=4, blocks=8)
        assert list(workload.program().words) == list(direct.program().words)


class TestShimsWarnOnce:
    """The 1.0 shims are gone (``docs/api.md``); the streaming entry
    point they wrapped stays public and warns nothing."""

    def test_event_chunks_stays_quiet(self):
        spec = get_workload("jython").spec
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            next(iter(dacapo.event_chunks(spec, scale=0.005)))
