"""The package's export list, and the names the bench tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import higherlocal


def test_every_exported_name_resolves():
    missing = [name for name in higherlocal.__all__ if not hasattr(higherlocal, name)]
    assert missing == []
    assert len(set(higherlocal.__all__)) == len(higherlocal.__all__)


# bench/tracing.py uses only the stdlib, so it loads without the bench's harness
_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for _, module, attr, *_ in tracing.LAYERS] + [("dmodule", "_candidate_vectors")],
)
def test_every_traced_layer_resolves(module, attr):
    # a renamed or deleted function would leave the tracer nothing to wrap
    importlib.import_module(f"{tracing.PACKAGE}.{module}")
    assert callable(tracing.resolve(module, attr))
