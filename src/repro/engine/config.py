"""Engine configuration: one dataclass, one place to read the environment.

:class:`EngineConfig` consolidates every scalar knob of the
:class:`~repro.engine.core.ExperimentEngine` — worker count, replay
fast-path, per-window timeout, retry budget and backoff, failure
policy, fault-injection rate, and the resume source.  It is frozen,
JSON round-trippable (``to_dict``/``from_dict``), and every
``REPRO_*`` environment variable the engine honours is resolved in
exactly one function, :meth:`EngineConfig.from_env`:

==========================  ===========================================
``REPRO_JOBS``              worker processes per window batch
``REPRO_FAST``              replay kernel: ``vector`` | ``loop`` | ``off``
``REPRO_TIMEOUT``           per-window timeout in seconds (pool only)
``REPRO_RETRIES``           retry budget per window (default 3)
``REPRO_BACKOFF``           base backoff seconds (default 0.05)
``REPRO_FAILURE_POLICY``    ``raise`` | ``retry`` | ``skip``
``REPRO_FAULT_RATE``        deterministic fault-injection probability
``REPRO_INTEGRITY``         store policy: ``verify`` | ``repair`` | ``trust``
``REPRO_VALIDATE``          golden cross-check every n-th fast replay
``REPRO_VALIDATE_POLICY``   divergence: ``warn`` | ``fallback`` | ``raise``
``REPRO_STORE_BACKEND``     shared store tier (``fs://<dir>``; empty = off)
``REPRO_BREAKER``           circuit breaker around the shared backend
                            (default on; ``REPRO_BREAKER_*`` tune it —
                            see ``docs/serve.md``)
``REPRO_TRACE_HANDLES``     open trace-handle LRU bound (default 4)
``REPRO_SEED``              uniform experiment seed (workloads + sampling)
==========================  ===========================================

Live collaborators (the result cache, trace store and run recorder)
stay constructor injection on the engine itself — they are objects,
not configuration.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from ..store.backend import backend_spec_from_env
from ..store.integrity import INTEGRITY_POLICIES, integrity_policy_from_env
from ..timing.fastpath import normalize_fast_mode
from .integrity import (
    VALIDATE_POLICIES,
    validate_every_from_env,
    validate_policy_from_env,
)

#: Allowed values of :attr:`EngineConfig.failure_policy`.
FAILURE_POLICIES = ("raise", "retry", "skip")


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


@dataclass(frozen=True)
class EngineConfig:
    """Every scalar knob of the experiment engine, in one place."""

    #: Worker processes per window batch; ``None`` means the library
    #: default (1 = the deterministic serial backend).
    jobs: Optional[int] = None
    #: Replay kernel selection: ``"vector"`` (fixpoint span kernel),
    #: ``"loop"`` (per-record columnar kernel), ``"off"`` (golden
    #: model), or the historical booleans (``True`` = ``"vector"``).
    #: ``None`` resolves ``REPRO_FAST`` at engine construction.
    fast: Union[None, bool, str] = None
    #: Per-window wall-clock timeout in seconds for pool execution
    #: (``None`` = no timeout).  A window that exceeds it is treated as
    #: a transient failure: the worker is abandoned, the pool rebuilt,
    #: and the window retried/skipped per :attr:`failure_policy`.
    timeout: Optional[float] = None
    #: Transient-failure retry budget per window (crash, timeout,
    #: pickling error, injected fault).
    retries: int = 3
    #: Base backoff in seconds; attempt *n* waits ``backoff * 2**n``.
    backoff: float = 0.05
    #: What to do when a window keeps failing: ``raise`` (fail fast, no
    #: retries), ``retry`` (retry then raise), ``skip`` (retry then
    #: return a typed :class:`~repro.engine.core.WindowFailure`).
    failure_policy: str = "retry"
    #: Deterministic fault-injection probability in [0, 1) — see
    #: :mod:`repro.engine.faults`.  0 disables injection.
    fault_rate: float = 0.0
    #: Path to a prior run's JSONL log; completed windows recorded
    #: there are expected to be served from the durable result cache.
    resume_from: Optional[str] = None
    #: Store integrity policy (``verify`` | ``repair`` | ``trust``) —
    #: what a corrupt trace or cache entry becomes; see
    #: :mod:`repro.store.integrity`.
    integrity: str = "repair"
    #: Cross-check every n-th fast-path replay against the golden
    #: lock-step model (``None``/0 disables the watchdog).
    validate_every: Optional[int] = None
    #: What a watchdog divergence becomes: ``warn`` (keep fast stats,
    #: log), ``fallback`` (return golden stats), ``raise`` (abort).
    validate_policy: str = "fallback"
    #: Shared store-backend spec (``fs://<dir>`` or a bare directory);
    #: ``None`` disables the shared tier — see :mod:`repro.store.backend`.
    store_backend: Optional[str] = None
    #: Wrap the shared backend in a
    #: :class:`~repro.store.backend.CircuitBreakerBackend` so a flaky
    #: or hung backend degrades the stores to local-tiers-only instead
    #: of stalling every request.  ``None`` resolves ``REPRO_BREAKER``
    #: (default on); the breaker's thresholds come from
    #: ``REPRO_BREAKER_*`` (see ``docs/serve.md``).
    breaker: Optional[bool] = None
    #: Bound of the trace store's open-handle LRU; ``None`` means the
    #: library default (:data:`repro.engine.tracestore.DEFAULT_TRACE_HANDLES`).
    trace_handles: Optional[int] = None
    #: Uniform experiment seed (``--seed`` / ``REPRO_SEED``): the
    #: default workload seed for seeded figures *and* the default
    #: :class:`~repro.stats.plan.SamplingPlan` selection seed.  ``None``
    #: keeps each experiment's historical per-figure default.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        normalize_fast_mode(self.fast)  # raises on a bad mode name
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}")
        if self.integrity not in INTEGRITY_POLICIES:
            raise ValueError(
                f"integrity must be one of {INTEGRITY_POLICIES}, "
                f"got {self.integrity!r}")
        if self.validate_every is not None and self.validate_every < 0:
            raise ValueError(
                f"validate_every must be >= 0, got {self.validate_every}")
        if self.validate_policy not in VALIDATE_POLICIES:
            raise ValueError(
                f"validate_policy must be one of {VALIDATE_POLICIES}, "
                f"got {self.validate_policy!r}")
        if self.trace_handles is not None and self.trace_handles < 1:
            raise ValueError(
                f"trace_handles must be >= 1, got {self.trace_handles}")

    # ------------------------------------------------------------------

    @classmethod
    def from_env(cls, **overrides: Any) -> "EngineConfig":
        """Resolve every ``REPRO_*`` engine knob; ``overrides`` win."""
        values: Dict[str, Any] = {}
        jobs = _env_int("REPRO_JOBS")
        if jobs is not None:
            values["jobs"] = max(1, jobs)
        fast = os.environ.get("REPRO_FAST")
        if fast is not None:
            try:
                values["fast"] = normalize_fast_mode(fast)
            except ValueError:
                pass  # unknown mode strings keep the library default
        timeout = _env_float("REPRO_TIMEOUT")
        if timeout is not None and timeout > 0:
            values["timeout"] = timeout
        retries = _env_int("REPRO_RETRIES")
        if retries is not None:
            values["retries"] = max(0, retries)
        backoff = _env_float("REPRO_BACKOFF")
        if backoff is not None:
            values["backoff"] = max(0.0, backoff)
        policy = os.environ.get("REPRO_FAILURE_POLICY")
        if policy in FAILURE_POLICIES:
            values["failure_policy"] = policy
        rate = _env_float("REPRO_FAULT_RATE")
        if rate is not None:
            values["fault_rate"] = min(max(rate, 0.0), 0.999999)
        values["integrity"] = integrity_policy_from_env()
        validate = validate_every_from_env()
        if validate is not None:
            values["validate_every"] = validate
        values["validate_policy"] = validate_policy_from_env()
        values["store_backend"] = backend_spec_from_env()
        breaker = os.environ.get("REPRO_BREAKER")
        if breaker is not None:
            values["breaker"] = breaker.strip().lower() \
                not in ("0", "false", "no", "off")
        handles = _env_int("REPRO_TRACE_HANDLES")
        if handles is not None:
            values["trace_handles"] = max(1, handles)
        seed = _env_int("REPRO_SEED")
        if seed is not None:
            values["seed"] = seed
        values.update(overrides)
        return cls(**values)

    def with_overrides(self, **overrides: Any) -> "EngineConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown EngineConfig fields: {sorted(unknown)}")
        return cls(**dict(data))
