"""Input file parsing, golden reports, rejection diagnostics, round-trips."""

import io
import json
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from higherlocal import cli, derham, dmodule, epsilon, linalg, tate
from higherlocal.connection import Connection
from higherlocal.errors import (
    DimensionMismatch,
    SpecSyntaxError,
    UnknownKey,
)
from higherlocal.exprparse import MAX_LITERAL_DIGITS, ExpressionParser, tokenize
from higherlocal.series import TowerElement, TowerField, working_precision
from higherlocal.specfile import SpecFile, parse_specfile
from helpers import record_precision_writes
from test_derham import oracle_apply

GOLDEN = Path(__file__).parent / "golden"


def run_cli(path, *extra):
    return subprocess.run(
        [sys.executable, "-m", "higherlocal.cli", str(path), *extra],
        capture_output=True,
        text=True,
    )


class TestExpressionParser:
    def setup_method(self):
        self.p1 = ExpressionParser(TowerField(1, ("t",)), 8)
        self.p2 = ExpressionParser(TowerField(2), 8)

    def test_arithmetic(self):
        from fractions import Fraction

        t = TowerField(1, ("t",)).gen(1)
        assert self.p1.parse("1 + 2*t - t^2") == 1 + 2 * t - t ** 2
        assert self.p1.parse("(1+t)*(1-t)") == 1 - t ** 2
        assert self.p1.parse("-3/4") == TowerField(1, ("t",)).rational(Fraction(-3, 4))

    def test_negative_powers(self):
        t = TowerField(1, ("t",)).gen(1)
        assert self.p1.parse("t^-2") == t ** -2
        assert self.p1.parse("1/t^2") == t ** -2

    def test_two_variables(self):
        F2 = TowerField(2)
        t1, t2 = F2.gen(1), F2.gen(2)
        assert self.p2.parse("t1*t2^-1 + 2") == t1 * t2 ** -1 + 2

    def test_series_division(self):
        got = self.p1.parse("1/(1-t)")
        for e in range(8):
            assert got.coefficient(e) == 1

    def test_error_positions(self):
        with pytest.raises(SpecSyntaxError) as ei:
            self.p1.parse("1/(")
        assert ei.value.line == 1
        assert ei.value.column == 4
        with pytest.raises(SpecSyntaxError) as ei:
            self.p1.parse("2 +\n* 3")
        assert ei.value.line == 2
        assert ei.value.column == 1

    @pytest.mark.parametrize(
        "text, found, column",
        [("(1 + t", "end of input", 7), ("(1 + t t", "t", 8)],
        ids=["end", "token"],
    )
    def test_unclosed_parenthesis(self, text, found, column):
        with pytest.raises(SpecSyntaxError) as ei:
            self.p1.parse(text)
        assert str(ei.value) == f"expected ')', found {found!r} at line 1, column {column}"
        assert (ei.value.line, ei.value.column) == (1, column)

    def test_unknown_variable(self):
        with pytest.raises(SpecSyntaxError):
            self.p1.parse("x + 1")

    def test_only_library_errors_are_division_failures(self, monkeypatch):
        def exhausted(x, *args):
            raise MemoryError

        with pytest.raises(SpecSyntaxError) as ei:
            self.p1.parse("2 +\n 1/0")
        assert str(ei.value) == "division failed: inverse of exact zero at line 2, column 3"
        monkeypatch.setattr(TowerElement, "invert", exhausted)
        with pytest.raises(MemoryError):
            self.p1.parse("1/(1 - t)")

    def test_negative_power_of_a_non_unit_points_at_the_caret(self, monkeypatch):
        def exhausted(x, *args):
            raise MemoryError

        with pytest.raises(SpecSyntaxError) as ei:
            self.p1.parse("2 +\n (t - t)^-2")
        assert str(ei.value) == "negative power failed: inverse of exact zero at line 2, column 9"
        monkeypatch.setattr(TowerElement, "invert", exhausted)
        with pytest.raises(MemoryError):
            self.p1.parse("(1 - t)^-1")


class SeriesEvaluator:
    """The expression grammar evaluated token by token in series arithmetic.

    Every literal and variable is a field element and every operation is
    one :class:`TowerElement` operation: each ``+``/``-`` is a binary sum,
    each power is a power of the element.  The reference for the parser's
    grammar and for its fused sums.
    """

    def __init__(self, field, prec):
        self.field = field
        self.prec = prec
        self.vars = {name: field.gen(i + 1) for i, name in enumerate(field.names)}

    def parse(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        value = self.expr()
        assert self.tokens[self.pos].kind == "end"
        return value

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def peek(self):
        return self.tokens[self.pos].kind

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            if op.kind == "*":
                value = value * rhs
            else:
                try:
                    value = value * rhs.invert(self.prec)
                except Exception as exc:
                    raise SpecSyntaxError(f"division failed: {exc}", op.line, op.column)
        return value

    def unary(self):
        if self.peek() == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        caret = self.next()
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        exponent = sign * int(self.next().text)
        if exponent < 0:
            try:
                base = base.invert(self.prec)
            except Exception as exc:
                raise SpecSyntaxError(f"negative power failed: {exc}", caret.line, caret.column)
            return base ** (-exponent)
        return base ** exponent

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return self.field.rational(Fraction(int(tok.text)))
        if tok.kind == "name":
            return self.vars[tok.text]
        value = self.expr()
        assert self.next().kind == ")"
        return value


def evaluated(parser, text):
    """``(value, hi, exact, hash)`` of ``text``, or the error it raised."""
    try:
        x = parser.parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return x, x.hi, x.exact, hash(x)


@st.composite
def laurent_expressions(draw, names):
    """Expression text over ``names``: sums, products, powers, monomial
    division, parentheses and unary minus, now and then with a series
    divisor."""
    monomial = st.builds(
        lambda c, e: "*".join([str(c)] + [f"{v}^{k}" for v, k in zip(names, e)]),
        st.integers(1, 6),
        st.tuples(*[st.integers(-3, 3)] * len(names)),
    )
    polynomial = st.lists(monomial, min_size=2, max_size=4).map(lambda ms: " + ".join(ms))
    atoms = (
        st.integers(0, 9).map(str)
        | st.sampled_from(names)
        | monomial.map(lambda m: f"({m})")
        | polynomial.map(lambda p: f"({p})")
        | st.tuples(polynomial, polynomial).map(lambda x: f"({x[0]})*({x[1]})")
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda x: f"{x[0]} {x[1]} {x[2]}"
            ),
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda x: f"({x[0]}) {x[1]} ({x[2]})"
            ),
            inner.map(lambda x: f"({x})"),
            inner.map(lambda x: f"-{x}"),
            st.tuples(inner, st.integers(0, 3)).map(lambda x: f"({x[0]})^{x[1]}"),
            st.tuples(inner, monomial).map(lambda x: f"({x[0]})/({x[1]})"),
            st.tuples(monomial, st.integers(-3, 3)).map(lambda x: f"({x[0]})^{x[1]}"),
            st.tuples(inner, st.sampled_from(names)).map(lambda x: f"{x[0]}/(1 - {x[1]})"),
        )

    return draw(st.recursive(atoms, extend, max_leaves=8))


FIELDS = (TowerField(1, ("t",)), TowerField(2), TowerField(3))


class TestLaurentParsing:
    """The parser against term-by-term series arithmetic: the grammar, and
    ``+``/``-`` chains summed at once."""

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(FIELDS).flatmap(
        lambda F: st.tuples(st.just(F), laurent_expressions(F.names))
    ))
    def test_matches_series_arithmetic(self, case):
        F, text = case
        assert evaluated(ExpressionParser(F, 8), text) == evaluated(SeriesEvaluator(F, 8), text)

    @pytest.mark.parametrize(
        "text",
        [
            "1/(1 - t)",
            "(1 + t)^-2",
            "t^2 + 3/(2 - t^-1)",
            "(1 + t)^0",
            "0^0",
            "0^3",
            "2^-3*t^-1",
            "1/0",
            "0^-1",
            "t/(t - t)",
        ],
    )
    def test_fallbacks_match(self, text):
        F = FIELDS[0]
        assert evaluated(ExpressionParser(F, 8), text) == evaluated(SeriesEvaluator(F, 8), text)

    def test_two_variable_fallback(self):
        F = FIELDS[1]
        for text in ("1/(t1 + t1^2*t2)", "(t1 + 1)^-1*t2", "t2/(3*t1^-2)"):
            assert evaluated(ExpressionParser(F, 8), text) == evaluated(
                SeriesEvaluator(F, 8), text
            )

    @pytest.mark.parametrize(
        "F, text",
        [
            (FIELDS[0], "(1 + t)^5 - (1 - t)*(2 + t^-1)^3"),
            (FIELDS[1], "(t1 + t2 - 1)^4*(t1^-1 - t2)"),
            (FIELDS[1], "(1 + t1*t2)^3 - (t2 + 2*t1^-1)^2/(3*t1*t2^2)"),
            # dense products
            (FIELDS[0], "(1 + 2*t - t^-1)^12*(3 - t^2)"),
            (FIELDS[1], "(1 + t1 + t2)^10*(t1^-1 - 2*t2 + t1*t2^-1)"),
            (FIELDS[2], "(1 + t1 + t2 - t3)^6*(t1*t3^-1 + 2*t2^2 - 1)"),
            (FIELDS[2], "(t1^-1 + t2 + t3)^4 - (t1 - t3^-1)^3/(2*t2)"),
        ],
    )
    def test_products_gather_equal_exponents(self, F, text):
        assert evaluated(ExpressionParser(F, 8), text) == evaluated(SeriesEvaluator(F, 8), text)

    def test_literal_digit_limit(self):
        F = FIELDS[0]
        parser = ExpressionParser(F, 8)
        assert parser.parse("9" * MAX_LITERAL_DIGITS) == F.rational(10 ** MAX_LITERAL_DIGITS - 1)
        for text in ("9" * (MAX_LITERAL_DIGITS + 1), "t^1" + "0" * MAX_LITERAL_DIGITS):
            with pytest.raises(SpecSyntaxError) as ei:
                parser.parse("2 + " + text)
            assert (ei.value.line, ei.value.column) == (1, 5 if text[0] == "9" else 7)


class TestSpecFile:
    def test_parse_minimal(self):
        text = GOLDEN.joinpath("eps_trivial.hl").read_text()
        spec = parse_specfile(text)
        assert spec.level == 1
        assert spec.rank == 1
        assert spec.command == "epsilon"
        assert spec.connection.rank == 1

    def test_expressions_parsed_once(self, monkeypatch):
        calls = []
        parse = ExpressionParser.parse

        def counted(self, text, *args, **kwargs):
            calls.append(text)
            return parse(self, text, *args, **kwargs)

        monkeypatch.setattr(ExpressionParser, "parse", counted)
        spec = parse_specfile(GOLDEN.joinpath("eps_n2_dlog.hl").read_text())
        expressions = [s for rows in spec.raw_matrices for row in rows for s in row]
        expressions += [s for comps in spec.raw_forms for s in comps]
        assert calls == expressions

    @pytest.mark.parametrize(
        "flag", [("--precision", "8"), ("--seed", "3")], ids=["precision", "seed"]
    )
    def test_overrides_parse_each_expression_once(self, monkeypatch, capsys, flag):
        path = GOLDEN / "cyclic_rank2.hl"
        spec = parse_specfile(path.read_text())
        expressions = [s for rows in spec.raw_matrices for row in rows for s in row]
        calls = []
        parse = ExpressionParser.parse

        def counted(self, text, *args, **kwargs):
            calls.append((text, self.prec))
            return parse(self, text, *args, **kwargs)

        monkeypatch.setattr(ExpressionParser, "parse", counted)
        assert cli.main([str(path), *flag]) == 0
        capsys.readouterr()
        precision = 8 if flag[0] == "--precision" else spec.precision
        assert calls == [(s, precision) for s in expressions]

    def test_overrides_replace_the_file_values(self):
        text = rank1_spec("1/(1 - t)", "cyclic", precision=3000000).replace(
            "command = cyclic", "command = cyclic\nseed = 5"
        )
        spec = parse_specfile(text, precision=8, seed=3)
        assert (spec.precision, spec.seed) == (8, 3)
        assert spec.connection.matrices[0][0, 0].known_hi() == 8
        assert parse_specfile(text.replace("3000000", "8")).seed == 5
        # the file's own values are still checked, at their positions
        for good, bad, line, column in (
            ("precision = 3000000", "precision = 0", 4, 13),
            ("seed = 5", "seed = x", 12, 8),
        ):
            with pytest.raises(SpecSyntaxError) as ei:
                parse_specfile(text.replace(good, bad), precision=8, seed=3)
            assert (ei.value.line, ei.value.column) == (line, column)
        with pytest.raises(ValueError, match="precision must be >= 1, got 0"):
            parse_specfile(text, precision=0)

    def test_replace_reparses_with_positions(self):
        # the divisor is t^3 + ... at precision 8 but O(t^3) at precision 3,
        # so only a re-parse at the new precision raises
        text = """[field]
n = 1
vars = t
precision = 8

[connection]
rank = 1
A1 = [["1/(1/(1-t) - 1 - t - t^2)"]]

[task]
command = epsilon
"""
        spec = parse_specfile(text)
        with pytest.raises(SpecSyntaxError) as direct:
            parse_specfile(text.replace("precision = 8", "precision = 3"))
        with pytest.raises(SpecSyntaxError) as replaced:
            SpecFile(
                spec.level, spec.names, 3, spec.rank, spec.raw_matrices, spec.raw_forms,
                spec.command, spec.seed, spec.sigma, spec.positions,
            )
        assert direct.value.line == 8
        assert (replaced.value.line, replaced.value.column) == (
            direct.value.line,
            direct.value.column,
        )

    def test_rank_dimension_mismatch(self):
        text = """[field]
n = 1

[connection]
rank = 2
A1 = [["0"]]

[task]
command = epsilon
"""
        with pytest.raises(DimensionMismatch):
            parse_specfile(text)

    def test_unknown_key(self):
        text = """[field]
n = 1
flavor = strange

[connection]
rank = 1
A1 = [["0"]]

[task]
command = epsilon
"""
        with pytest.raises(UnknownKey):
            parse_specfile(text)

    def test_syntax_error_position_in_entry(self):
        text = """[field]
n = 1

[connection]
rank = 1
A1 = [["1/("]]

[task]
command = epsilon
"""
        with pytest.raises(SpecSyntaxError) as ei:
            parse_specfile(text)
        assert ei.value.line == 6
        # the open parenthesis sits at column 11 of the A1 line
        assert ei.value.column == 12

    def test_unknown_command(self):
        text = """[field]
n = 1

[connection]
rank = 1
A1 = [["0"]]

[task]
command = dance
"""
        with pytest.raises(UnknownKey):
            parse_specfile(text)


def rank1_spec(entry, command, precision=32):
    return (
        f"[field]\nn = 1\nvars = t\nprecision = {precision}\n\n[connection]\nrank = 1\n"
        f'A1 = [["{entry}"]]\n\n[task]\ncommand = {command}\n'
    )


class TestGolden:
    @pytest.mark.parametrize(
        "name",
        [
            "eps_trivial",
            "eps_exponential",
            "irr_exponential",
            "irr_rank2_halfslope",
            "cyclic_rank2",
            "coh_trivial_n1",
            "coh_alpha_half",
            "coh_trivial_n2",
            "verify_n2_trivial",
            "eps_n2_dlog",
        ],
    )
    def test_byte_exact_reports(self, name):
        proc = run_cli(GOLDEN / f"{name}.hl")
        assert proc.returncode == 0, proc.stderr
        expected = (GOLDEN / f"{name}.out").read_text()
        assert proc.stdout == expected

    def test_coefficients_past_the_str_limit_print_exactly(self, tmp_path):
        # 1/(10^50 - t) has the coefficient 1/10^(50 (k + 1)) at t^k, 5,001
        # digits at k = 99, past Python's 4,300-digit int-to-str limit
        path = tmp_path / "long.hl"
        path.write_text(rank1_spec("1/(10^50 - t)", "irregularity", precision=100))
        proc = run_cli(path)
        assert proc.returncode == 0, proc.stderr
        report = dict(line.split(" = ", 1) for line in proc.stdout.splitlines())
        powers = ["", "*t"] + [f"*t^{k}" for k in range(2, 100)]
        terms = [f"1/1{'0' * 50 * (k + 1)}{p}" for k, p in enumerate(powers)]
        assert report["operator"] == "D + (" + " + ".join(terms) + " + O(t^100))"
        assert report["irregularity"] == "0"

    def test_cohomology_irregularity_computed_once(self, monkeypatch, capsys):
        # the golden is of rank 1, whose irregularity is read off its entry
        # with no cyclic-vector search, so the certified reading is counted
        # where cohomology_dims calls it
        calls = []
        reading = derham.connection_irregularity

        def counted(*args, **kwargs):
            calls.append(1)
            return reading(*args, **kwargs)

        monkeypatch.setattr(derham, "connection_irregularity", counted)
        assert cli.main([str(GOLDEN / "coh_trivial_n1.hl")]) == 0
        assert capsys.readouterr().out == (GOLDEN / "coh_trivial_n1.out").read_text()
        assert len(calls) == 1

    def test_run_uses_the_spec_precision(self, tmp_path, capsys):
        # the library entry prints what the CLI prints, at the file's
        # precision and not at the ambient one, which it leaves as it was
        path = tmp_path / "prec6.hl"
        path.write_text(
            "[field]\nn = 1\nvars = t\nprecision = 6\n\n[connection]\nrank = 2\n"
            'A1 = [["1+t", "1"], ["t", "t^-2 + t"]]\n\n[task]\ncommand = irregularity\n'
        )
        assert cli.main([str(path)]) == 0
        printed = capsys.readouterr().out
        assert "O(t^4)" in printed
        spec = parse_specfile(path.read_text())
        ambient = working_precision()
        assert cli.format_report(cli.run(spec.command, spec), "kv") == printed
        assert working_precision() == ambient

    def test_run_sets_and_restores_the_precision_once(self, monkeypatch):
        # cli.run is the boundary that decides the precision: on each golden
        # it makes one set and one restore, and nothing below it writes one
        ambient = working_precision()
        writes = record_precision_writes(monkeypatch)
        for path in sorted(GOLDEN.glob("*.hl")):
            spec = parse_specfile(path.read_text())
            writes.clear()
            report = cli.format_report(cli.run(spec.command, spec), "kv")
            assert report == path.with_suffix(".out").read_text(), path.name
            assert writes == [spec.precision, ambient], path.name

    def test_verify_does_its_outer_work_once(self, monkeypatch, capsys):
        # before verify handed its results along, eps_n2_dlog took 6 outer
        # reductions, 2 flatness checks and 8 edge applications per test
        # section.  The squares are operator identities, so no edge is applied
        # to a section, and the duality check reads certified degrees, so each
        # golden probes its inner direction only (verify_n2_trivial made 5
        # operator_index calls while duality ran the windowed route)
        calls = {}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        reduce = tate.reduce_outer_window
        inside = []

        def reducing(*args):
            calls["reduce"] += 1
            inside.append(1)
            try:
                return reduce(*args)
            finally:
                inside.pop()

        determinant = linalg._determinant

        def building(*args):
            calls["determinants in reduce"] += bool(inside)
            return determinant(*args)

        monkeypatch.setattr(tate, "reduce_outer_window", reducing)
        monkeypatch.setattr(linalg, "_determinant", building)
        monkeypatch.setattr(
            Connection, "check_flatness", counted("flatness", Connection.check_flatness)
        )
        monkeypatch.setattr(
            derham.EdgeOperator, "apply", counted("edges", oracle_apply), raising=False
        )
        index = tate.operator_index
        for module in (tate, derham, epsilon):
            if getattr(module, "operator_index", None) is index:
                monkeypatch.setattr(module, "operator_index", counted("operator_index", index))
        want = {
            "reduce": 4, "flatness": 1, "edges": 0, "determinants in reduce": 0,
            "operator_index": 1,
        }
        for name in ("eps_n2_dlog", "verify_n2_trivial"):
            calls.update(dict.fromkeys(want, 0))
            assert cli.main([str(GOLDEN / f"{name}.hl")]) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
            assert calls == want, name

    def test_goldens_build_only_what_they_print(self, monkeypatch, capsys):
        # epsilon and cohomology read the frame alone, so no frame is
        # inverted; irregularity discards the certificate's determinant, and
        # cyclic, which prints it, builds one
        inverses, determinants = [], []
        invert, determinant = derham.inverse, linalg._determinant
        monkeypatch.setattr(derham, "inverse", lambda *a: inverses.append(1) or invert(*a))
        monkeypatch.setattr(
            linalg, "_determinant", lambda fac: determinants.append(1) or determinant(fac)
        )
        want = dict.fromkeys(
            ("eps_trivial", "eps_exponential", "coh_alpha_half", "coh_trivial_n1"), (0, 0)
        )
        want.update(coh_trivial_n2=(0, 0), irr_exponential=(0, 0), irr_rank2_halfslope=(0, 0))
        want.update(cyclic_rank2=(0, 1), verify_n2_trivial=(1, 0))
        for name, counts in want.items():
            inverses.clear()
            determinants.clear()
            assert cli.main([str(GOLDEN / f"{name}.hl")]) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
            assert (len(inverses), len(determinants)) == counts, name

    def test_n2_goldens_read_the_induced_action_without_elimination(self, monkeypatch, capsys):
        # their outer operators are free of t1: the induced inner actions are
        # read off the windows' integer eliminations, and no forward pass
        # over the inner field runs inside induced_inner_connections
        actions, forwards = [], []
        forward, induced = linalg._forward, derham.induced_inner_connections

        def counted_forward(*args):
            if actions and actions[-1] is None:
                forwards.append(1)
            return forward(*args)

        def counted_induced(*args, **kwargs):
            actions.append(None)
            try:
                return induced(*args, **kwargs)
            finally:
                actions[-1] = 1

        monkeypatch.setattr(linalg, "_forward", counted_forward)
        for module in (derham, epsilon):
            monkeypatch.setattr(module, "induced_inner_connections", counted_induced)
        for name in ("verify_n2_trivial", "eps_n2_dlog", "coh_trivial_n2"):
            actions.clear()
            forwards.clear()
            assert cli.main([str(GOLDEN / f"{name}.hl")]) == 0
            assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
            assert actions and not forwards, name

    def test_determinism(self):
        a = run_cli(GOLDEN / "cyclic_rank2.hl")
        b = run_cli(GOLDEN / "cyclic_rank2.hl")
        assert a.stdout == b.stdout

    def test_json_like_format(self):
        proc = run_cli(GOLDEN / "eps_trivial.hl", "--format", "json-like")
        assert proc.returncode == 0
        assert proc.stdout.startswith("{\n")
        assert '"degree": "0"' in proc.stdout

    @pytest.mark.parametrize("name", ['t"x', "t\\x"])
    def test_json_like_escapes_names(self, tmp_path, name):
        spec = tmp_path / "cyclic.hl"
        spec.write_text(
            (GOLDEN / "cyclic_rank2.hl").read_text().replace("vars = t", f"vars = {name}")
        )
        kv = run_cli(spec)
        proc = run_cli(spec, "--format", "json-like")
        assert kv.returncode == 0 and proc.returncode == 0
        expected = dict(line.split(" = ", 1) for line in kv.stdout.splitlines())
        assert expected["vector"] == f"(1, {name})"
        assert json.loads(proc.stdout) == expected

    def test_json_like_keeps_unicode(self):
        out = cli.format_report([("vector", "(1, τ)")], "json-like")
        assert out == '{\n  "vector": "(1, τ)"\n}\n'


class TestVerifyStatus:
    def test_unsupported_direction_is_not_a_failure(self, tmp_path, capsys):
        # d + d(t1/(1 - t2)): the t1 direction has no supported check, since
        # its data involve t2 and the fiberwise check needs outer-free data
        spec = tmp_path / "unsupported.hl"
        spec.write_text(
            """[field]
n = 2

[connection]
rank = 1
A1 = [["1/(1 - t2)"]]
A2 = [["t1/(1 - t2)^2"]]

[task]
command = verify
"""
        )
        assert cli.main([str(spec)]) == 0
        lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["check_squares"] == "pass"
        assert lines["check_acyclicity"] == "unsupported"
        assert lines["check_duality"] == "pass"
        assert lines["result"] == "unsupported"

    def test_undetermined_pivot_leaves_the_report_unsupported(self, tmp_path, capsys):
        # the regular singular [[0, 0], [1/t2, 1/t2]] gauged by [[1, t1], [0, 1]]:
        # a column of its outer windows over the inner field reduces to
        # O(t1^h), which no precision certifies, so the outer direction and
        # the degree are unsupported; cohomology and epsilon still exit 1
        spec = tmp_path / "gauged.hl"
        text = """[field]
n = 2

[connection]
rank = 2
A1 = [["0", "1"], ["0", "0"]]
A2 = [["-t1/t2", "-(t1^2 + t1)/t2"], ["1/t2", "(t1 + 1)/t2"]]

[task]
command = {}
"""
        spec.write_text(text.format("verify"))
        assert cli.main([str(spec)]) == 0
        assert capsys.readouterr().out == (
            "command = verify\nn = 2\nrank = 2\ncheck_flatness = pass\ncheck_forms = pass\n"
            "check_squares = pass\ncheck_acyclicity = unsupported\n"
            "check_duality = unsupported\nsigma = 1\ndegree = unsupported\n"
            "result = unsupported\n"
        )
        for command in ("cohomology", "epsilon"):
            spec.write_text(text.format(command))
            assert cli.main([str(spec)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: UndeterminedPivot: no certified pivot in column 11\n"


# verify on a trivial connection whose duality check cannot run: the
# acyclicity check cannot either (n = 3, or a frame field mixing directions)
UNSUPPORTED_DUALITY_REPORT = """command = verify
n = {n}
rank = 1
check_flatness = pass
check_forms = pass
check_squares = pass
check_acyclicity = unsupported
check_duality = unsupported
sigma = 1
degree = unsupported
result = unsupported
"""


class TestTwoAndThreeVariables:
    def test_cohomology_induced_levels_honour_max_window(self, tmp_path, capsys):
        # the induced inner connection on H^0 and H^1 is d - 20 dt1/t1, whose
        # solution t1^20 lies past the probes of --max-window 12; the outer
        # windows are fixed
        spec = tmp_path / "deep_inner.hl"
        spec.write_text(
            """[field]
n = 2

[connection]
rank = 1
A1 = [["-20/t1"]]
A2 = [["0"]]

[task]
command = cohomology
"""
        )
        assert cli.main([str(spec), "--max-window", "12"]) == 2
        capped = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert capped["stabilized"] == "no"
        assert cli.main([str(spec)]) == 0
        full = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert (full["h0"], full["h1"], full["h2"]) == ("1", "2", "1")
        assert full["stabilized"] == "yes"

    @pytest.mark.parametrize("n, rest", [(1, ""), (2, 'A2 = [["0"]]\n')], ids=["n1", "n2"])
    def test_verify_honours_max_window(self, tmp_path, capsys, n, rest):
        # d - 20 dt1/t1, alone or as the inner direction: its solution t1^20
        # lies past the probes of --max-window 12, so that direction fails;
        # verify exits 0 whatever its result
        spec = tmp_path / "deep_verify.hl"
        spec.write_text(
            f"""[field]
n = {n}

[connection]
rank = 1
A1 = [["-20/t1"]]
{rest}
[task]
command = verify
"""
        )
        assert cli.main([str(spec), "--max-window", "12"]) == 0
        capped = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert (capped["check_acyclicity"], capped["result"]) == ("fail", "fail")
        assert cli.main([str(spec)]) == 0
        full = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert (full["check_acyclicity"], full["result"]) == ("pass", "pass")

    def test_verify_three_variables_is_unsupported(self, tmp_path, capsys):
        spec = tmp_path / "trivial_n3.hl"
        spec.write_text(
            """[field]
n = 3

[connection]
rank = 1
A1 = [["0"]]
A2 = [["0"]]
A3 = [["0"]]

[task]
command = verify
"""
        )
        # degrees are implemented for n <= 2, so the duality check is
        # unsupported; the rest of the report still prints, and verify exits 0
        assert cli.main([str(spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == UNSUPPORTED_DUALITY_REPORT.format(n=3)

    def test_verify_non_diagonal_frame_reports_unsupported_duality(self, tmp_path, capsys):
        # two-variable degrees need a diagonal frame tuple; nu1 = dt1 + dt2
        # is closed and independent of nu2 = dt2 but not diagonal
        spec = tmp_path / "non_diagonal.hl"
        spec.write_text(
            """[field]
n = 2

[connection]
rank = 1
A1 = [["0"]]
A2 = [["0"]]

[forms]
nu1 = ["1", "1"]
nu2 = ["0", "1"]

[task]
command = verify
"""
        )
        assert cli.main([str(spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == UNSUPPORTED_DUALITY_REPORT.format(n=2)

    @pytest.mark.parametrize(
        "entry",
        ["1/(1 - t2) - " + " - ".join(["1", "t2"] + [f"t2^{k}" for k in range(2, 32)]), "t2^40"],
        ids=["undetermined", "nonzero"],
    )
    def test_epsilon_frame_not_known_diagonal_is_unsupported(self, tmp_path, capsys, entry):
        # the first entry is t2^32/(1 - t2), known only as O(t2^32) at
        # precision 32: not certainly nonzero, but not zero either
        spec = tmp_path / "frame.hl"
        spec.write_text(
            f"""[field]
n = 2

[connection]
rank = 1
A1 = [["1/(2*t1)"]]
A2 = [["0"]]

[forms]
nu1 = ["1", "{entry}"]
nu2 = ["0", "1"]

[task]
command = epsilon
"""
        )
        assert cli.main([str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: UnsupportedFrame: two-variable degrees need a diagonal frame tuple\n"
        )


def log_twist_spec(k):
    """d + (k/t) dt over one variable, under cohomology."""
    return (
        f'[field]\nn = 1\n[connection]\nrank = 1\nA1 = [["{k}/t1"]]\n'
        "[task]\ncommand = cohomology\n"
    )


class TestCertifiedH0:
    def test_rank_one_h0_beside_the_windows(self, tmp_path, capsys):
        # d - 30 dt/t has the section t^30, past the windows, which settle
        # on (0, 0): h0 is read off the entry and the windows disagree
        spec = tmp_path / "twist.hl"
        spec.write_text(log_twist_spec(-30))
        assert cli.main([str(spec)]) == 0
        lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        got = {k: lines[k] for k in ("h0", "h1", "window_h0", "window_h1", "window_agrees")}
        assert got == {
            "h0": "1", "h1": "1", "window_h0": "0", "window_h1": "0", "window_agrees": "no",
        }
        assert lines["stabilized"] == "yes"
        # windows that do not settle still exit 2
        spec.write_text(log_twist_spec(-24))
        assert cli.main([str(spec)]) == 2
        lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert (lines["h0"], lines["h1"], lines["stabilized"]) == ("1", "1", "no")


# ROADMAP item 13: a rank-3 gauged sum of rank-1 and Kummer pieces, drawn by
# tests/test_dmodule.py::gauged_sums, with irregularity 2 by construction.
# Its certificate determinant has valuation -21, so at the default 32 terms
# the theta-form's constant coefficient has no certified term, and 64 terms
# certify it
GAUGED_SUM_SPEC = """[field]
n = 1
vars = t

[connection]
rank = 3
A1 = [["t^-16 + 9/2*t^-11 - t^-7 + t^-6", "t^-21 + 9/2*t^-16 - t^-12 + 2*t^-11 - 11/2*t^-6 + t^-1", "0"], ["-t^-11 - 9/2*t^-6 + t^-2", "-t^-16 - 9/2*t^-11 + t^-7 - t^-6 + 1/2*t^-1", "0"], ["0", "0", "2*t^-2"]]

[task]
command = cohomology
"""


# a rank-3 gauged sum drawn by test_dmodule's gauged_sums strategy, with
# constructed irregularity 1: the second exact input of ROADMAP item 13
SECOND_DRAW_SPEC = """[field]
n = 1

[connection]
rank = 3
A1 = [["-2/3*t1^-8", "2/3*t1^-19 + 17/3*t1^-13 + 2/3*t1^-1", "-2/3*t1^-14 + 2/3*t1^-13 - 20/3*t1^-7"], ["0", "2/3*t1^-7 + 1/3*t1^-1", "2/3*t1^-1"], ["2/3*t1^-2", "-2/3*t1^-13 - 17/3*t1^-7", "2/3*t1^-8 - 2/3*t1^-7 + 2/3*t1^-1"]]

[task]
command = cohomology
"""


# a rank-3 gauged sum drawn by the same strategy, with constructed
# irregularity 4: the third exact input of ROADMAP item 13
THIRD_DRAW_SPEC = """[field]
n = 1

[connection]
rank = 3
A1 = [["-4*t1^-12 + 2*t1^-11 + 3*t1^-10 + 2*t1^-2", "-4*t1^-18 + 2*t1^-17 + 3*t1^-16 - 4*t1^-9 + 2*t1^-8 - 6*t1^-7", "0"], ["4*t1^-6 - 2*t1^-5 - 3*t1^-4", "4*t1^-12 - 2*t1^-11 - 3*t1^-10 + 4*t1^-3", "0"], ["0", "0", "2*t1^-2"]]

[task]
command = cohomology
"""


# a rank-5 gauged sum drawn by the same strategy, with constructed
# irregularity 4: the fourth exact input of ROADMAP item 13
FOURTH_DRAW_SPEC = """[field]
n = 1

[connection]
rank = 5
A1 = [["-4*t1^-10 + 2*t1^-9 + t1^-8 + 2*t1^-2", "-4*t1^-16 + 2*t1^-15 + t1^-14 - 4*t1^-9 + 2*t1^-8 - 6*t1^-7", "0", "0", "0"], ["4*t1^-4 - 2*t1^-3 - t1^-2", "4*t1^-10 - 2*t1^-9 - t1^-8 + 4*t1^-3", "0", "0", "0"], ["0", "0", "0", "2/3*t1^-1", "0"], ["0", "0", "0", "1/3*t1^-1", "2/3*t1^-1"], ["0", "0", "2/3*t1^-2", "0", "2/3*t1^-1"]]

[task]
command = cohomology
"""


def main_report(tmp_path, capsys, text, *flags):
    """``cli.main`` on the spec ``text``: the exit code, stderr and the report's lines."""
    spec = tmp_path / "spec.hl"
    spec.write_text(text)
    code = cli.main([str(spec), *flags])
    captured = capsys.readouterr()
    return code, captured.err, dict(line.split(" = ", 1) for line in captured.out.splitlines())


class TestExactInputsNeedTerms:
    @staticmethod
    def cohomology(tmp_path, capsys, *flags, text=GAUGED_SUM_SPEC, h1="2"):
        code, err, lines = main_report(tmp_path, capsys, text, *flags)
        assert (code, err) == (0, "")
        assert (lines["h0"], lines["h1"], lines["window_agrees"]) == ("0", h1, "yes")

    def test_gauged_sum_at_64_terms(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, "--precision", "64")

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exits 1 with UndeterminedLeadingTerm at 32 terms, ROADMAP item 13",
    )
    def test_gauged_sum_at_the_default_flags(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys)

    def test_second_draw_at_64_terms(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, "--precision", "64", text=SECOND_DRAW_SPEC, h1="1")

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exits 1 with UndeterminedLeadingTerm at 32 terms, ROADMAP item 13",
    )
    def test_second_draw_at_the_default_flags(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, text=SECOND_DRAW_SPEC, h1="1")

    def test_third_draw_at_64_terms(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, "--precision", "64", text=THIRD_DRAW_SPEC, h1="4")

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exits 1 with UndeterminedLeadingTerm at 32 terms, ROADMAP item 13",
    )
    def test_third_draw_at_the_default_flags(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, text=THIRD_DRAW_SPEC, h1="4")

    def test_fourth_draw_at_64_terms(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, "--precision", "64", text=FOURTH_DRAW_SPEC, h1="4")

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exits 1 with UndeterminedLeadingTerm at 32 terms, ROADMAP item 13",
    )
    def test_fourth_draw_at_the_default_flags(self, tmp_path, capsys):
        self.cohomology(tmp_path, capsys, text=FOURTH_DRAW_SPEC, h1="4")


# d + diag(-1/(1 - t1), 0) dt1, whose sections are 1/(1 - t1) and 1: h0 = 2
# and h1 = 2.  The cyclic vector (1, t1) has nabla^2 v = 0 exactly, so both
# lower coefficients of the scalar operator are zero but inexact, and the
# Newton polygon cannot read their valuation at any precision
INEXACT_ZERO_SPEC = """[field]
n = 1

[connection]
rank = 2
A1 = [["-1/(1-t1)", "0"], ["0", "0"]]

[task]
command = cohomology
"""

# the same cause at n = 2, through the dual's certified degree
INEXACT_ZERO_N2_SPEC = """[field]
n = 2

[connection]
rank = 2
A1 = [["1/(1-t1)", "0"], ["0", "0"]]
A2 = [["1/t2", "0"], ["0", "2/t2"]]

[task]
command = verify
"""

ZERO_BUT_INEXACT = "exits 1 with UndeterminedLeadingTerm: operator coefficients are inexact zeros"


class TestInexactZeroCoefficients:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ZERO_BUT_INEXACT)
    @pytest.mark.parametrize("precision", ["16", "32", "64", "128"])
    def test_cohomology_at_any_precision(self, tmp_path, capsys, precision):
        code, err, lines = main_report(
            tmp_path, capsys, INEXACT_ZERO_SPEC, "--precision", precision
        )
        assert (code, err) == (0, "")
        assert (lines["h0"], lines["h1"]) == ("2", "2")

    def test_sign_flip_is_read(self, tmp_path, capsys):
        # diag(1/(1 - t1), 0) has the sections 1 - t1 and 1
        text = INEXACT_ZERO_SPEC.replace("-1/(1-t1)", "1/(1-t1)")
        code, err, lines = main_report(tmp_path, capsys, text)
        assert (code, err) == (0, "")
        assert (lines["h0"], lines["h1"]) == ("2", "2")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ZERO_BUT_INEXACT)
    def test_verify_at_n2(self, tmp_path, capsys):
        code, err, lines = main_report(tmp_path, capsys, INEXACT_ZERO_N2_SPEC)
        assert (code, err) == (0, "")
        assert (lines["check_duality"], lines["degree"]) == ("pass", "0")

    def test_cohomology_and_epsilon_at_n2(self, tmp_path, capsys):
        # only verify's certified degree of the dual fails
        for command, keys, want in (
            ("cohomology", ("h0", "h1", "h2"), ["2", "4", "2"]),
            ("epsilon", ("degree",), ["0"]),
        ):
            text = INEXACT_ZERO_N2_SPEC.replace("verify", command)
            code, err, lines = main_report(tmp_path, capsys, text)
            assert (code, err, [lines[k] for k in keys]) == (0, "", want)


# ROADMAP item 1: at rank 2 h0 is the windowed kernel, which settles before
# the windows reach a section, and h1 = h0 + irregularity
WINDOWED_H0 = "prints the settled window kernel as h0, ROADMAP item 1"


class TestCertifiedH0AtRankTwo:
    """Diagonal rank-2 log twists over one variable, each with h0 = h1 = 2."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=WINDOWED_H0)
    @pytest.mark.parametrize("diagonal", [
        # prints (1, 1) with window_agrees = no: the summand d - 12 dt/t
        # hides the negative-count rule of the other one
        pytest.param(("0", "-12/t1"), id="0_-12"),
        pytest.param(("0", "-30/t1"), id="0_-30"),  # prints (1, 1)
        pytest.param(("60/t1", "-60/t1"), id="60_-60"),  # prints (0, 0)
    ])
    def test_cohomology(self, tmp_path, capsys, diagonal):
        a, b = diagonal
        text = (
            f'[field]\nn = 1\n[connection]\nrank = 2\nA1 = [["{a}", "0"], ["0", "{b}"]]\n'
            "[task]\ncommand = cohomology\n"
        )
        code, err, lines = main_report(tmp_path, capsys, text)
        assert (code, err) == (0, "")
        assert (lines["h0"], lines["h1"]) == ("2", "2")


def run_cli_capped(path):
    """``run_cli`` with the child's address space capped at 1 GiB, so a window
    built past the limit fails in the child and not on the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    return subprocess.run(
        [sys.executable, "-m", "higherlocal.cli", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=cap,
    )


POLES = pytest.mark.parametrize(
    "n, matrices",
    [(1, 'A1 = [["t1^-99999999"]]'), (2, 'A1 = [["0"]]\nA2 = [["t2^-99999999"]]')],
    ids=["n1", "n2_outer"],
)


def run_pole(tmp_path, n, matrices, command):
    """``cli.main`` under a memory cap on a pole of order 10^8, which spans
    about 10^8 window labels; it must end within a second."""
    spec = tmp_path / "pole.hl"
    spec.write_text(
        f"[field]\nn = {n}\n[connection]\nrank = 1\n{matrices}\n[task]\ncommand = {command}\n"
    )
    start = time.perf_counter()
    proc = run_cli_capped(spec)
    assert time.perf_counter() - start < 1.0
    return proc


class TestWindowLimit:
    @pytest.mark.parametrize("command", ["cohomology", "epsilon"])
    @POLES
    def test_oversized_window_is_refused_before_it_is_built(self, tmp_path, command, n, matrices):
        proc = run_pole(tmp_path, n, matrices, command)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: WindowTooLarge: a window of ")
        limit = tate.MAX_WINDOW_LABELS
        assert proc.stderr.endswith(f"labels is past the limit of {limit} per side\n")

    @POLES
    def test_verify_reports_the_oversized_window_as_unsupported(self, tmp_path, n, matrices):
        # flatness, forms and squares are checked before any window; the
        # direction past the limit is unsupported, and the one-variable
        # degree is read off the entry, with no window
        proc = run_pole(tmp_path, n, matrices, "verify")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = dict(line.split(" = ", 1) for line in proc.stdout.splitlines())
        checks = ("check_flatness", "check_forms", "check_squares", "check_acyclicity")
        assert [report[k] for k in checks] == ["pass", "pass", "pass", "unsupported"]
        expected = ("pass", "-99999998") if n == 1 else ("unsupported", "unsupported")
        assert (report["check_duality"], report["degree"]) == expected
        assert report["result"] == "unsupported"


class TestRejections:
    @pytest.mark.parametrize(
        "old, new, error",
        [
            ('A1 = [["0"]]', 'A1 = [["0"]]\nA0 = [["this is not parsed"]]', "UnknownKey"),
            ('A1 = [["0"]]', 'A1 = [["0"]]\nA01 = [["nor this"]]', "UnknownKey"),
            ('nu1 = ["1"]', 'nu1 = ["1"]\nnu0 = ["x"]', "UnknownKey"),
            ('nu1 = ["1"]', 'nu1 = ["1"]\nnu2 = ["garbage"]', "DimensionMismatch"),
            ('nu1 = ["1"]', 'nu1 = ["1"]\nnu01 = ["1"]', "UnknownKey"),
        ],
        ids=["A0", "A01", "nu0", "nu2", "nu01"],
    )
    def test_key_outside_one_to_n_exit_code(self, tmp_path, old, new, error):
        # only A1 ... An and nu1 ... nun are read; any other index is an error
        text = '[field]\nn = 1\n[connection]\nrank = 1\nA1 = [["0"]]\n[forms]\nnu1 = ["1"]\n'
        bad = tmp_path / "bad.hl"
        bad.write_text(text.replace(old, new) + "[task]\ncommand = epsilon\n")
        proc = run_cli(bad)
        assert proc.returncode == 3, proc.stderr
        assert error in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "text, lineno, opener, message",
        [
            (rank1_spec("(" * 400 + "t" + ")" * 400, "irregularity"), 8, "(",
             "expression nested too deeply"),
            (rank1_spec("-" * 2000 + "t", "irregularity"), 8, "-", "expression nested too deeply"),
            ("[field]\nn = 1\n[connection]\nrank = 1\nA1 = " + "[" * 3000 + '"0"' + "]" * 3000
             + "\n[task]\ncommand = epsilon\n", 5, "[", "brackets nested too deeply"),
            ('[field]\nn = 1\n[connection]\nrank = 1\nA1 = [["0"]]\n[forms]\nnu1 = '
             + "[" * 3000 + '"1"' + "]" * 3000 + "\n[task]\ncommand = epsilon\n", 7, "[",
             "brackets nested too deeply"),
        ],
        ids=["parentheses", "unary-minus", "A1-brackets", "nu1-brackets"],
    )
    def test_deep_nesting_exit_code(self, tmp_path, text, lineno, opener, message):
        # the parsers recurse once per level: past Python's recursion limit
        # the diagnostic points at the opener where the nesting gave out
        bad = tmp_path / "bad.hl"
        bad.write_text(text)
        proc = run_cli(bad)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        found = re.search(rf"SpecSyntaxError: {message} at line {lineno}, column (\d+)", proc.stderr)
        assert found, proc.stderr
        assert text.splitlines()[lineno - 1][int(found.group(1)) - 1] == opener
        assert proc.stdout == ""

    def test_nesting_250_deep_parses(self, tmp_path):
        good = tmp_path / "good.hl"
        good.write_text(rank1_spec("(" * 250 + "-t" + ")" * 250, "irregularity"))
        proc = run_cli(good)
        assert proc.returncode == 0, proc.stderr
        assert "irregularity = 0" in proc.stdout

    def test_huge_n_is_bounded_by_the_keys(self, tmp_path):
        # neither the default variable names nor the key check are built
        # n long: the missing A2 ends the parse at once
        bad = tmp_path / "huge_n.hl"
        bad.write_text(
            '[field]\nn = 1000000000000\n[connection]\nrank = 1\nA1 = [["0"]]\n'
            "[task]\ncommand = verify\n"
        )
        start = time.perf_counter()
        proc = run_cli(bad)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: UnknownKey: missing matrix A2 in [connection]\n"

    def test_index_past_the_int_digit_limit_is_a_dimension_mismatch(self, tmp_path):
        key = "A" + "7" * 5000
        bad = tmp_path / "long_key.hl"
        bad.write_text(
            f'[field]\nn = 2\n[connection]\nrank = 1\nA1 = [["0"]]\n{key} = [["0"]]\n'
            "[task]\ncommand = verify\n"
        )
        proc = run_cli(bad)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: DimensionMismatch: matrix {key} exceeds n = 2\n"

    @pytest.mark.parametrize(
        "entry, column, reason",
        [
            ("0^-1", 10, "inverse of exact zero"),
            ("(t - t)^-2", 16, "inverse of exact zero"),
            ("(1/(1+t) - 1/(1+t))^-1", 28, "cannot certify a nonzero leading term for inversion"),
        ],
        ids=["zero", "cancelled", "undetermined"],
    )
    def test_negative_power_of_a_non_unit_exit_code(self, tmp_path, entry, column, reason):
        # as a division by zero does, the failed inverse exits 3 at its
        # operator, the ^
        bad = tmp_path / "bad.hl"
        bad.write_text(rank1_spec(entry, "epsilon"))
        proc = run_cli(bad)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error: SpecSyntaxError: negative power failed: {reason} at line 8, column {column}\n"
        )
        assert proc.stdout == ""

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hl"
        bad.write_text(
            """[field]
n = 1

[connection]
rank = 1
A1 = [["1/("]]

[task]
command = epsilon
"""
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "SpecSyntaxError" in proc.stderr
        assert "line 6" in proc.stderr

    def test_dimension_mismatch_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hl"
        bad.write_text(
            """[field]
n = 1

[connection]
rank = 2
A1 = [["0"]]

[task]
command = epsilon
"""
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "DimensionMismatch" in proc.stderr

    def test_non_closed_forms_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hl"
        bad.write_text(
            """[field]
n = 2

[connection]
rank = 1
A1 = [["0"]]
A2 = [["0"]]

[forms]
nu1 = ["t2", "0"]
nu2 = ["0", "1"]

[task]
command = verify
"""
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "NotClosed" in proc.stderr

    def test_not_flat_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hl"
        bad.write_text(
            """[field]
n = 2

[connection]
rank = 1
A1 = [["t2"]]
A2 = [["0"]]

[task]
command = cohomology
"""
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "NotFlat" in proc.stderr

    @pytest.mark.parametrize(
        "old, new",
        [('nu1 = ["1"]', 'nu1 = ["²1"]'), ("[connection]", '[connection]\nA² = [["1"]]')],
    )
    def test_non_ascii_digits_exit_code(self, tmp_path, old, new):
        # str.isdigit accepts "²", which int() rejects
        text = (GOLDEN / "eps_exponential.hl").read_text()
        assert old in text
        bad = tmp_path / "bad.hl"
        bad.write_text(text.replace(old, new), encoding="utf-8")
        proc = run_cli(bad)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr

    INTEGER_KEYS = """[field]
n = {n}
vars = t
precision = {precision}

[connection]
rank = {rank}
A1 = [["-1/t^2"]]

[forms]
nu1 = ["1"]

[task]
command = epsilon
seed = {seed}
sigma = {sigma}
"""
    INTEGER_DEFAULTS = {"n": "1", "precision": "16", "rank": "1", "seed": "+3", "sigma": "-1"}

    def test_signed_ascii_integer_values(self):
        spec = parse_specfile(self.INTEGER_KEYS.format(**self.INTEGER_DEFAULTS))
        assert (spec.level, spec.precision, spec.rank, spec.seed, spec.sigma) == (1, 16, 1, 3, -1)

    @pytest.mark.parametrize(
        "key, value, line, column",
        [
            ("n", "\u0661", 2, 5),  # ARABIC-INDIC DIGIT ONE
            ("precision", "1_6", 4, 13),
            ("rank", "\uff11", 7, 8),  # FULLWIDTH DIGIT ONE
            ("seed", "+\u0663", 15, 8),
            ("sigma", "-\uff11", 16, 9),
        ],
    )
    def test_non_ascii_integer_value_exit_code(self, tmp_path, key, value, line, column):
        # int() accepts each of these values
        bad = tmp_path / "bad.hl"
        fields = dict(self.INTEGER_DEFAULTS, **{key: value})
        bad.write_text(self.INTEGER_KEYS.format(**fields), encoding="utf-8")
        proc = run_cli(bad)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{key} must be an integer" in proc.stderr
        assert f"line {line}, column {column}" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("/nonexistent/path.hl")
        assert proc.returncode == 3

    def test_non_integer_field_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hl"
        bad.write_text(
            """[field]
n = abc

[connection]
rank = 1
A1 = [["0"]]

[task]
command = epsilon
"""
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "SpecSyntaxError" in proc.stderr
        assert "line 2, column 5" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_duplicate_variable_names_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hl"
        bad.write_text(
            """[field]
n = 2
vars = t1 t1

[connection]
rank = 1
A1 = [["0"]]
A2 = [["0"]]

[task]
command = cohomology
"""
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "SpecSyntaxError" in proc.stderr
        assert "pairwise distinct" in proc.stderr
        assert "line 3, column 8" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, where",
        [
            ('[field]\nn = 1\n\n[connection]\nrank = 1\nA1 = [["1/t"]]\nA1 = [["0"]]\n'
             "\n[task]\ncommand = epsilon\n", "repeated key 'A1' in [connection] at line 7, column 6"),
            ('[field]\nn = 1\n[connection]\nrank = 1\nA1 = [["0"]]\n[task]\ncommand = epsilon\n'
             "[task]\ncommand   =  cohomology\n", "repeated key 'command' in [task] at line 9, column 14"),
        ],
        ids=["same-header", "second-header"],
    )
    def test_repeated_key_exit_code(self, tmp_path, text, where):
        bad = tmp_path / "bad.hl"
        bad.write_text(text)
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "SpecSyntaxError" in proc.stderr
        assert where in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "entry, column",
        [("9" * 5000, 9), ("t^" + "9" * 5000, 11), ("1 + 10^" + "9" * 4301, 16)],
        ids=["literal", "exponent", "power"],
    )
    def test_literal_past_the_digit_limit_exit_code(self, tmp_path, entry, column):
        # Python converts at most 4,300 digits from str to int by default
        bad = tmp_path / "bad.hl"
        bad.write_text(rank1_spec(entry, "irregularity"))
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "SpecSyntaxError" in proc.stderr
        assert f"line 8, column {column}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_precision_flag_below_one_exit_code(self):
        proc = run_cli(GOLDEN / "eps_trivial.hl", "--precision", "0")
        assert proc.returncode == 3
        assert "--precision" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_max_window_flag_below_one_exit_code(self):
        # a report settles at two equal probes, and the schedule's second
        # probe is at 12: below that no run could settle
        for value in ("0", "-3", "8", "11"):
            proc = run_cli(GOLDEN / "coh_trivial_n1.hl", "--max-window", value)
            assert proc.returncode == 3
            assert "--max-window must be >= 12" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""
        proc = run_cli(GOLDEN / "coh_trivial_n1.hl", "--max-window", "12")
        assert proc.returncode == 0
        assert "stabilized = yes" in proc.stdout

    def test_run_rejects_max_window_below_the_second_probe(self):
        # the library entry holds the rule that cli.main enforces: at 5 the
        # capped schedule was empty, at 8 and 11 the probes could not settle
        spec = parse_specfile((GOLDEN / "coh_trivial_n1.hl").read_text())
        for value in (5, 8, 11):
            with pytest.raises(ValueError, match="--max-window must be >= 12"):
                cli.run(spec.command, spec, max_window=value)
        for kwargs in ({"max_window": 12}, {}):
            assert ("h0", "1") in cli.run(spec.command, spec, **kwargs)

    def test_malformed_flags_exit_code(self):
        for extra in (("--precision", "abc"), ("--max-window", "x"), ("--no-such-flag",)):
            proc = run_cli(GOLDEN / "eps_trivial.hl", *extra)
            assert proc.returncode == 3
            assert proc.stderr.startswith("usage: higherlocal")
            assert "error:" in proc.stderr
            assert proc.stdout == ""
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: higherlocal")


GOLDEN_TEXTS = [path.read_text() for path in sorted(GOLDEN.glob("*.hl"))]
# the characters of the goldens, plus a few that the grammar gives meaning to
MUTATION_CHARS = st.sampled_from(
    sorted(set("".join(GOLDEN_TEXTS)) | set("[]=\"^*/-+.,#\n"))
) | st.characters(blacklist_categories=("Cs",))


@st.composite
def mutated_goldens(draw):
    """A golden input with one to four characters inserted or deleted."""
    text = draw(st.sampled_from(GOLDEN_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(text)))
        if k < len(text) and draw(st.booleans()):
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + draw(MUTATION_CHARS) + text[k:]
    return text


class TestMutatedGoldens:
    """Mutated inputs end in a documented exit code, never in a traceback."""

    @settings(
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_goldens())
    # inputs that once ended in a traceback: a digit that int() rejects, and
    # a repeated variable name
    @example((GOLDEN / "eps_exponential.hl").read_text().replace('nu1 = ["1"]', 'nu1 = ["²1"]'))
    @example((GOLDEN / "coh_trivial_n2.hl").read_text().replace("2\n", "2\nvars = t1 t1\n", 1))
    def test_exit_code_is_documented(self, tmp_path, text):
        path = tmp_path / "mutated.hl"
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main([str(path), "--max-window", "12"])
        assert code in (0, 1, 2, 3)
