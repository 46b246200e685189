"""The benchmark's tracer patches dirmat by module attribute name; a rename
in the program must fail here, not silently drop a layer from a trace."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for modname, fname in _tracing().FUNCTIONS:
        module = importlib.import_module(f"dirmat.{modname}")
        assert inspect.isfunction(getattr(module, fname, None)), (modname, fname)
    dirichlet = importlib.import_module("dirmat.dirichlet")
    assert inspect.isclass(dirichlet.Matroid)
    assert inspect.isfunction(dirichlet.Matroid.circuits)
