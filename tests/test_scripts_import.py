"""Every example and benchmark script still imports.

Nothing else in the tier-1 suite runs ``examples/*.py`` or
``benchmarks/bench_*.py``, so a renamed or removed library name would
otherwise leave a stale caller behind unnoticed.  Importing is cheap:
the examples guard their work behind ``__main__`` and the benchmark
modules only define pytest-benchmark functions.
"""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("examples/*.py")) \
    + sorted(ROOT.glob("benchmarks/bench_*.py"))


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_script_imports(path, monkeypatch):
    # Benchmarks import their sibling ``_shared`` helper as a top-level
    # module, as ``benchmarks/conftest.py`` arranges under pytest.
    monkeypatch.syspath_prepend(str(path.parent))
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)

