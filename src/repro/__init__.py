"""repro — a full reproduction of *Branch-on-Random* (Lee & Zilles, CGO 2008).

The package implements the proposed branch-on-random instruction and
every substrate the paper's evaluation depends on:

- :mod:`repro.core` — the instruction's hardware model (LFSR, condition
  unit, superscalar decode integration, cost model);
- :mod:`repro.isa` — a small RISC-style instruction set with the
  architected ``brr`` opcode, assembler and disassembler;
- :mod:`repro.sim` — a functional simulator including the SIGILL-style
  trap-emulation path used by the paper for its accuracy experiments;
- :mod:`repro.timing` — a cycle-level out-of-order timing simulator
  configured per Section 5.1 (4-wide, 80-entry ROB, tournament
  predictor, two-level caches);
- :mod:`repro.sampling` — event-level sampling frameworks (software
  counter, hardware counter, branch-on-random, convergent);
- :mod:`repro.instrument` — CFG IR and the Arnold-Ryder
  No-Duplication / Full-Duplication transformations;
- :mod:`repro.jvm` — a mini JVM substrate with a baseline compiler;
- :mod:`repro.workloads` — DaCapo-like synthetic workloads and the
  Section 5.3 checksum microbenchmark;
- :mod:`repro.profiles` — profiles and the overlap-accuracy metric;
- :mod:`repro.experiments` — one runner per paper table/figure;
- :mod:`repro.analysis` — statistics and overhead decomposition;
- :mod:`repro.api` — the **stable public façade**: keyword-only
  ``run_<figure>()`` functions plus the engine types
  (:class:`~repro.api.ExperimentEngine`,
  :class:`~repro.api.EngineConfig`, :class:`~repro.api.WindowSpec`),
  re-exported here.  Script against ``repro.api`` (or these
  re-exports); everything else may change without notice — see
  ``docs/api.md``.
"""

__version__ = "1.1.0"

from . import (
    analysis,
    api,
    core,
    experiments,
    instrument,
    isa,
    jvm,
    profiles,
    sampling,
    sim,
    timing,
    workloads,
)
from .api import (
    EngineConfig,
    ExperimentEngine,
    FigureResult,
    WindowFailure,
    WindowSpec,
    is_failure,
    run_cost,
    run_figure2,
    run_figure9,
    run_figure10,
    run_figure12,
    run_figure13,
    run_figure14,
    run_scorecard,
    run_sensitivity,
    run_windows,
)

__all__ = [
    "analysis",
    "api",
    "core",
    "experiments",
    "instrument",
    "isa",
    "jvm",
    "profiles",
    "sampling",
    "sim",
    "timing",
    "workloads",
    "__version__",
    "EngineConfig",
    "ExperimentEngine",
    "FigureResult",
    "WindowFailure",
    "WindowSpec",
    "is_failure",
    "run_cost",
    "run_figure2",
    "run_figure9",
    "run_figure10",
    "run_figure12",
    "run_figure13",
    "run_figure14",
    "run_scorecard",
    "run_sensitivity",
    "run_windows",
]
