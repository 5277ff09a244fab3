"""The package's export list and records, its import, the names the bench
tracer wraps, and where the working precision is held and written."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import higherlocal
from higherlocal import (
    CohomologyReport,
    EpsilonReport,
    FlatnessReport,
    IndexReport,
    KummerCover,
    MultiComplexReport,
    NewtonPolygon,
    ScalarOperator,
    SignConvention,
    TowerField,
)
from higherlocal.dmodule import PARTIAL, THETA


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


@pytest.mark.parametrize(
    "name, home", [("ContextVar", "series.py"), ("set_working_precision", "cli.py")]
)
def test_precision_is_held_and_written_in_one_module(name, home):
    # the working precision is the default cli.run decides at the boundary:
    # its one context variable is built in series and written only by cli;
    # below that, rungs, kept passes and frames carry their own precision
    src = Path(higherlocal.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                    found.add(path.name)
    assert found == {home}


def test_import_leaves_out_dataclasses_and_inspect():
    # importing either costs milliseconds of every process's start; -S keeps
    # the imports of site .pth files out of the count
    code = (
        "import sys, higherlocal; a = {'dataclasses', 'inspect'} & set(sys.modules); "
        "import higherlocal.cli; b = {'dataclasses', 'inspect'} & set(sys.modules); "
        "print(sorted(a), sorted(b))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[] []"


F1 = TowerField(1)
REPORT = IndexReport(1, 1, 0, 8, ((8, 1, 1),))
# (record, field names, one value per field), the fields in constructor order
RECORDS = [
    (FlatnessReport, ("flat", "witness"), (False, (1, 2, 0, 0))),
    (KummerCover, ("e",), (3,)),
    (
        CohomologyReport,
        ("level", "dims", "euler", "stabilized", "e2", "index_report", "window_dims",
         "window_agrees"),
        (1, (1, 1), 0, True, None, REPORT, (1, 1), True),
    ),
    (
        MultiComplexReport,
        ("squares_ok", "square_failures", "directions", "outer"),
        (True, [], [], None),
    ),
    (
        NewtonPolygon,
        ("points", "vertices", "slopes", "irregularity"),
        (((0, -1), (1, 0)), ((0, -1), (1, 0)), ((Fraction(1), 1),), 1),
    ),
    (ScalarOperator, ("form", "coeffs"), (PARTIAL, (F1.gen(1) ** -1, F1.one()))),
    (
        EpsilonReport,
        ("degree", "window_reports", "window_degree", "routes_agree", "level_degrees"),
        (-1, (REPORT,), -1, True, (0, -1)),
    ),
    (SignConvention, ("sign",), (-1,)),
]
FROZEN = (FlatnessReport, KummerCover, NewtonPolygon, ScalarOperator, SignConvention)


@pytest.mark.parametrize("record, names, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_exported_record_builds_and_compares_by_value(record, names, values):
    positional, keyword = record(*values), record(**dict(zip(names, values)))
    assert [getattr(keyword, name) for name in names] == list(values)
    assert positional == keyword and not positional != keyword
    if record in FROZEN:
        assert hash(positional) == hash(keyword)
        with pytest.raises(AttributeError):
            setattr(positional, names[0], values[0])


def test_exported_records_keep_their_defaults_and_checks():
    assert SignConvention() == SignConvention(1) != SignConvention(-1)
    assert KummerCover(2) != KummerCover(3)
    assert CohomologyReport(2, (0, 0, 0), 0, True).e2 is None
    assert EpsilonReport(0, (), None, None).level_degrees == ()
    assert MultiComplexReport(True, [], []).outer is None
    one, t = F1.one(), F1.gen(1)
    for build in (
        lambda: SignConvention(0),
        lambda: SignConvention(2),
        lambda: KummerCover(0),
        lambda: ScalarOperator("d", (t, one)),
        lambda: ScalarOperator(PARTIAL, (one,)),
        lambda: ScalarOperator(THETA, (t, one + one)),
    ):
        with pytest.raises(ValueError):
            build()
