"""The benchmark's trace mode (perfbench/run.py --trace 1) wraps package
functions by name; a traced name that no longer exists would break it."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACED = load_tracer().TRACED


@pytest.mark.parametrize(
    ("module", "function"),
    [(module, function) for module, function, _ in TRACED],
    ids=[f"{module}.{function}" for module, function, _ in TRACED],
)
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"doublespend.{module}"), function, None))
