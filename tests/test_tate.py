"""Windowed operator indices, lattice probes, outer windows and directional profiles."""

import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from higherlocal import cli, derham, linalg, series, tate
from higherlocal.connection import Connection, rank1_from_form
from higherlocal.derham import EdgeOperator
from higherlocal.dmodule import connection_irregularity
from higherlocal.errors import InsufficientPrecision, UnsupportedFrame, WindowTooLarge
from higherlocal.linalg import SeriesMatrix, rank_kernel_det, sparse_echelon
from higherlocal.series import OneForm, TowerElement, TowerField
from higherlocal.specfile import parse_specfile
from higherlocal.tate import (
    DEFAULT_SCHEDULE,
    OUTER_SCHEDULE,
    IndexReport,
    LatticeProbes,
    MatrixDiffOp,
    operator_index,
    reduce_outer_window,
    stabilize_outer_windows,
    WindowRealization,
    realize_window,
    window_bounds,
    window_columns,
)
from helpers import (
    apply_op, labelled_entries, probe_entries, reduction_fields, rref_q, sparse_rows,
)

F1 = TowerField(1)
F2 = TowerField(2)


def exp_connection(m):
    t = F1.gen(1)
    return rank1_from_form(OneForm(((t ** -m).derive(1),)))


def reg_connection(alpha):
    t = F1.gen(1)
    return rank1_from_form(OneForm((Fraction(alpha) * t ** -1,)))


class TestOperatorIndex:
    def test_plain_derivative(self):
        op = MatrixDiffOp.from_connection(Connection.trivial(F1, 1))
        rep = operator_index(op)
        assert (rep.ker_dim, rep.coker_dim) == (1, 1)
        assert rep.index == 0
        assert rep.stabilized

    def test_euler_shifted_non_integer(self):
        t = F1.gen(1)
        C = reg_connection(Fraction(1, 2))
        op = MatrixDiffOp.from_connection(C, normalizer=t ** -1)
        rep = operator_index(op)
        assert (rep.ker_dim, rep.coker_dim) == (0, 0)
        assert rep.index == 0

    def test_euler_shifted_integer(self):
        t = F1.gen(1)
        C = reg_connection(1)
        op = MatrixDiffOp.from_connection(C, normalizer=t ** -1)
        rep = operator_index(op)
        assert (rep.ker_dim, rep.coker_dim) == (1, 1)

    def test_exponential_index_minus_one(self):
        op = MatrixDiffOp.from_connection(exp_connection(1))
        rep = operator_index(op)
        assert (rep.ker_dim, rep.coker_dim) == (0, 1)
        assert rep.index == -1

    def test_exponential_family_matches_irregularity(self):
        for m in (1, 2, 3):
            C = exp_connection(m)
            op = MatrixDiffOp.from_connection(C)
            rep = operator_index(op)
            assert rep.stabilized
            assert rep.index == -m
            assert rep.index == -connection_irregularity(C)

    def test_regular_singular_index_zero(self):
        for alpha in (Fraction(1, 2), 1, 2, Fraction(-3, 4)):
            C = reg_connection(alpha)
            op = MatrixDiffOp.from_connection(C)
            rep = operator_index(op)
            assert rep.stabilized
            assert rep.index == 0

    def test_block_extension_additivity(self):
        t = F1.gen(1)
        a = exp_connection(2).matrices[0][0, 0]
        b = reg_connection(Fraction(1, 2)).matrices[0][0, 0]
        A = SeriesMatrix([[a, F1.one()], [F1.zero(), b]])
        C = Connection(F1, [A])
        op = MatrixDiffOp.from_connection(C)
        rep = operator_index(op)
        assert rep.stabilized
        assert rep.index == -2

    def test_index_additive_under_direct_sum(self):
        C1, C2 = exp_connection(1), reg_connection(2)
        r1 = operator_index(MatrixDiffOp.from_connection(C1)).index
        r2 = operator_index(MatrixDiffOp.from_connection(C2)).index
        r12 = operator_index(
            MatrixDiffOp.from_connection(C1.direct_sum(C2))
        ).index
        assert r12 == r1 + r2

    def test_positive_degree_entries_still_index_zero(self):
        # d + t dt is formally trivialized by an integral gauge
        t = F1.gen(1)
        C = rank1_from_form(OneForm((t,)))
        rep = operator_index(MatrixDiffOp.from_connection(C))
        assert rep.stabilized
        assert (rep.ker_dim, rep.coker_dim) == (1, 1)
        assert rep.index == 0

    def test_stability_robust_under_extra_windows(self):
        op = MatrixDiffOp.from_connection(exp_connection(1))
        rep1 = operator_index(op, schedule=(8, 12, 16))
        rep2 = operator_index(op, schedule=(16, 24, 32))
        assert (rep1.ker_dim, rep1.coker_dim) == (rep2.ker_dim, rep2.coker_dim)


def cut_rows(win, bounds):
    """The same columns cut to target exponents ``bounds[i]`` per component.

    The kept labels must all be target labels of ``win``, as the bottom
    window's are of the top window's.
    """
    tgt_labels = tuple((c, e) for c, b in enumerate(bounds) for e in range(*b))
    pos = {lab: k for k, lab in enumerate(tgt_labels)}
    new_row = {k: pos[lab] for k, lab in enumerate(win.tgt_labels) if lab in pos}
    columns = [{new_row[k]: q for k, q in col.items() if k in new_row} for col in win.columns]
    return WindowRealization(win.src_labels, tgt_labels, columns)


def random_exact_connection(rng, rank):
    """Laurent-polynomial entries t^-3 .. t^1, density 1/2, coefficients +-1, +-2."""
    t = F1.gen(1)
    rows = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            x = F1.zero()
            for k in range(-3, 2):
                if rng.random() < 0.5:
                    x = x + rng.choice((-2, -1, 1, 2)) * t ** k
            row.append(x)
        rows.append(row)
    return Connection(F1, [SeriesMatrix(rows)])


def _dense(vec, n):
    return [Fraction(vec.get(k, 0)) for k in range(n)]


def _span_rank(vecs):
    return rref_q(vecs)[0]


class TestWindowCrossCheck:
    """Level-1 lattice probes against the operator applied to each monomial."""

    def test_columns_match_operator_images(self):
        rng = random.Random(7)
        t = F1.gen(1)
        for rank, normalizer in ((2, None), (3, t ** -1)):
            op = MatrixDiffOp.from_connection(
                random_exact_connection(rng, rank), normalizer=normalizer
            )
            delta = LatticeProbes(op).delta
            for w, W in ((8, 16), (8, 11)):
                expected = {}
                for c in range(rank):
                    for e in range(-w, W - delta):
                        vec = [
                            TowerElement.monomial(1, [e]) if i == c else F1.zero()
                            for i in range(rank)
                        ]
                        for i, el in enumerate(apply_op(op, vec)):
                            for ee, q in el.coeffs.items():
                                assert ee >= delta - w
                                if ee < W:
                                    expected[(i, ee), (c, e)] = q
                assert probe_entries(op, w, W) == expected


def random_element(rng, level, exact):
    """An element of ``level`` with outer exponents -2 .. 1, exact or known
    below 0 .. 2 (an inexact zero now and then), its inner coefficients
    likewise."""
    coeffs = {}
    for k in range(-2, 2):
        if rng.random() < 0.5:
            if level == 1:
                coeffs[k] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3)))
            else:
                coeffs[k] = random_element(rng, 1, exact or rng.random() < 0.5)
    if exact:
        return TowerElement(level, coeffs, None, True)
    return TowerElement(level, coeffs, rng.randint(0, 2), False)


class TestUnitFreeOperators:
    """``c d/dt + P`` holds ``diag(c)``, and the unit normalizer scales nothing."""

    @pytest.mark.parametrize("level", [1, 2])
    def test_unit_normalizer_multiplies_nothing(self, level, monkeypatch):
        rng = random.Random(level)
        F = TowerField(level)
        one = F.one()
        mul, calls = TowerElement.__mul__, []

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        for exact in (True, False):
            for rank in (1, 2, 3):
                A = SeriesMatrix(
                    [[random_element(rng, level, exact) for _ in range(rank)] for _ in range(rank)]
                )
                C = Connection(F, [A] * level)
                monkeypatch.setattr(TowerElement, "__mul__", counted)
                monkeypatch.setattr(TowerElement, "__rmul__", counted)
                ops = [
                    MatrixDiffOp.from_connection(C),
                    MatrixDiffOp.from_connection(C, normalizer=TowerElement.constant(level, 1)),
                ]
                monkeypatch.undo()
                assert calls == []
                identity = SeriesMatrix.identity(F, rank)
                for op in ops:
                    assert op.coeffs == {1: identity.scale(one), 0: A.scale(one)}
                # diag(c) is identity.scale(c) in value, window and exactness
                c = random_element(rng, level, exact)
                assert MatrixDiffOp.first_order(c, A).coeffs[1] == identity.scale(c)
                # a normalizer other than the unit still scales
                h = F.gen(level) ** -1
                hinv = h.invert()
                op = MatrixDiffOp.from_connection(C, normalizer=h)
                assert op.coeffs == {1: identity.scale(hinv), 0: A.scale(hinv)}


def random_outer_operator(rng, rank, normalized):
    """c d/dt2 + P with exact entries: outer exponents -2 .. 1, inner t1^-1 .. t1."""
    rows = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            coeffs = {}
            for k in range(-2, 2):
                if rng.random() < 0.5:
                    inner = {j: Fraction(rng.choice((-2, -1, 1, 2))) for j in range(-1, 2)}
                    coeffs[k] = TowerElement(1, inner, None, True)
            row.append(TowerElement(2, coeffs, None, True))
        rows.append(row)
    c = F2.gen(2) if normalized else F2.one()
    return MatrixDiffOp.first_order(c, SeriesMatrix(rows))


OuterWindow = namedtuple("OuterWindow", "src_labels tgt_labels matrix")


def bottom_bounds(op, w):
    """The bottom cut of the outer window [-w, w): ``[lo, lo + 2w)`` per
    component, ``lo`` the bottom of its top cut (:func:`window_bounds`)."""
    return [(lo, lo + 2 * w) for lo, _ in window_bounds(op, w)]


def outer_window(op, w, mode):
    """The outer window [-w, w) at its ``"top"`` or ``"bottom"`` cut, as a
    dense matrix over the inner field."""
    bounds = window_bounds(op, w) if mode == "top" else bottom_bounds(op, w)
    win = window_columns(op, (-w, w), bounds)
    rows = [[col.get(k, F1.zero()) for col in win.columns] for k in range(len(win.tgt_labels))]
    return OuterWindow(win.src_labels, win.tgt_labels, SeriesMatrix(rows))


class TestOuterWindowCrossCheck:
    """Outer windows against the operator applied to each monomial."""

    def test_columns_match_operator_images(self):
        rng = random.Random(1807)
        checked = 0
        for rank in (1, 2):
            for normalized in (False, True):
                op = random_outer_operator(rng, rank, normalized)
                for mode in ("bottom", "top"):
                    win = outer_window(op, 4, mode)
                    index = {lab: k for k, lab in enumerate(win.tgt_labels)}
                    lowest = {}
                    for c, e in win.tgt_labels:
                        lowest.setdefault(c, e)
                    for j, (c, e) in enumerate(win.src_labels):
                        vec = [
                            TowerElement.monomial(2, [0, e]) if i == c else F2.zero()
                            for i in range(rank)
                        ]
                        expected = {}
                        for i, el in enumerate(apply_op(op, vec)):
                            for ee, inner in el.coeffs.items():
                                assert ee >= lowest[i]
                                if (i, ee) in index:
                                    expected[index[(i, ee)]] = inner
                        for k, x in enumerate(win.matrix.column(j)):
                            assert x == expected.get(k, F1.zero())
                        checked += 1
        assert checked > 0

    def test_level2_bottom_is_the_top_window_cut(self):
        rng = random.Random(1807)
        for rank in (1, 2):
            for normalized in (False, True):
                op = random_outer_operator(rng, rank, normalized)
                for w in (2, 4, 6):
                    top = window_columns(op, (-w, w), window_bounds(op, w))
                    cut = cut_rows(top, bottom_bounds(op, w))
                    bottom = outer_window(op, w, "bottom")
                    assert cut.src_labels == bottom.src_labels
                    assert cut.tgt_labels == bottom.tgt_labels
                    for j, col in enumerate(cut.columns):
                        assert tuple(
                            col.get(k, F1.zero()) for k in range(len(cut.tgt_labels))
                        ) == bottom.matrix.column(j)

    def test_reduction_matches_two_realizations(self):
        rng = random.Random(2718)
        for rank in (1, 2):
            for normalized in (False, True):
                op = random_outer_operator(rng, rank, normalized)
                for w in (2, 4):
                    red = reduce_outer_window(op, w)
                    bottom = outer_window(op, w, "bottom")
                    top = outer_window(op, w, "top")
                    res_b = rank_kernel_det(bottom.matrix)
                    res_t = rank_kernel_det(top.matrix.transpose())
                    covered = {c for _, c in res_t.pivots}
                    assert red.kernel == res_b.kernel
                    assert red.coker_slots == tuple(
                        lab for k, lab in enumerate(top.tgt_labels) if k not in covered
                    )
                    assert (red.src_labels, red.tgt_labels) == (top.src_labels, top.tgt_labels)

    def test_stabilization_builds_one_kernel_basis(self, monkeypatch):
        # the windows the settle rule discards build no kernel basis and no
        # relations, and the settling one builds each when first read, on
        # either route: the trivial operator is free of t1, so its windows
        # are integer rows back-substituted by echelon_kernel, and its
        # relations are read off the label-order pass with no elimination;
        # the random ones are series windows, whose relations are one more
        # back-substitution, of the transposed top pass
        calls, eliminations, reduced = [], [], []
        back_substitute = linalg.Factorization.back_substitute
        monkeypatch.setattr(
            linalg.Factorization,
            "back_substitute",
            lambda fac, tail: calls.append(1) or back_substitute(fac, tail),
        )
        echelon_kernel = tate.echelon_kernel
        monkeypatch.setattr(
            tate, "echelon_kernel", lambda *a: calls.append(1) or echelon_kernel(*a)
        )
        for name in ("echelon_relations", "sparse_echelon", "rank_kernel_det"):
            monkeypatch.setattr(
                tate, name,
                lambda *a, run=getattr(tate, name): eliminations.append(1) or run(*a),
            )
        monkeypatch.setattr(
            tate, "reduce_outer_window",
            lambda *a: reduced.append(reduce_outer_window(*a)) or reduced[-1],
        )
        rng = random.Random(1807)
        ops = [MatrixDiffOp.from_connection(Connection.trivial(F2, 2))]
        ops += [random_outer_operator(rng, rank, n) for rank in (1, 2) for n in (False, True)]
        settled = 0
        for op in ops:
            calls.clear()
            reduced.clear()
            outer = stabilize_outer_windows(op)
            red = outer.reduction
            assert len(outer.trace) >= 2 and not calls
            assert len(reduced) == len(outer.trace) and reduced[-1] is red
            # neither was built on any window, discarded or settling
            assert not any({"kernel", "relations"} & set(vars(r)) for r in reduced)
            assert (red.ker_dim, red.coker_dim) == outer.trace[-1][1:]
            kernel = red.kernel
            assert len(kernel) == red.ker_dim and len(calls) == 1
            assert red.kernel is kernel and len(calls) == 1
            series_route = tate._outer_probes(op) is None
            eliminations.clear()
            relations = red.relations
            assert len(relations) == red.coker_dim and not eliminations
            assert len(calls) == 1 + series_route
            assert red.relations is relations and len(calls) == 1 + series_route
            w = outer.trace[-1][0]
            assert outer.stabilized_at in (None, w)
            settled += outer.stabilized_at is not None
            fresh = reduce_outer_window(op, w)
            assert reduction_fields(red) == reduction_fields(fresh)
            assert (red.ker_dim, red.coker_dim) == (fresh.ker_dim, fresh.coker_dim)
        assert settled >= 2

    def test_kernel_read_after_a_precision_change(self):
        # a kernel read after a precision change is the one of its own
        # pass: at 16 terms this window's kernel is another basis
        op = random_outer_operator(random.Random(0), 1, False)
        old = series.set_working_precision(8)
        try:
            eager = reduce_outer_window(op, 4)
            eager.kernel  # built at 8 terms
            lazy = reduce_outer_window(op, 4)
            series.set_working_precision(16)
            assert lazy.kernel == eager.kernel
            assert reduction_fields(lazy) == reduction_fields(eager)
            assert reduce_outer_window(op, 4).kernel != eager.kernel
        finally:
            series.set_working_precision(old)

    def test_short_coefficients_raise_as_the_bottom_window(self):
        rng = random.Random(31)
        op = random_outer_operator(rng, 2, False)
        short = MatrixDiffOp(
            2, {d: M.map(lambda x: x.truncate(1)) for d, M in op.coeffs.items()}
        )
        with pytest.raises(InsufficientPrecision) as bottom:
            outer_window(short, 4, "bottom")
        with pytest.raises(InsufficientPrecision) as reduced:
            reduce_outer_window(short, 4)
        assert str(reduced.value) == str(bottom.value)


@st.composite
def t1_free_outer_operators(draw):
    """Exact outer operators ``c d/dt2 + P`` free of t1: rank 1-3, ``c`` in
    {1, t2, t2^-1}, and entries of ``P`` that are Laurent polynomials in t2
    with rational constant coefficients, often exactly zero."""
    r = draw(st.integers(1, 3))
    rationals = st.fractions(-3, 3, max_denominator=3)

    def entry():
        coeffs = draw(st.dictionaries(st.integers(-3, 2), rationals, max_size=3))
        inner = {m: TowerElement.constant(1, q) for m, q in coeffs.items()}
        return TowerElement(2, inner, None, True)

    c = TowerElement.monomial(2, [0, draw(st.sampled_from((0, 1, -1)))])
    return MatrixDiffOp.first_order(c, SeriesMatrix([[entry() for _ in range(r)] for _ in range(r)]))


class TestOuterRoutes:
    """The integer route of ``reduce_outer_window`` against the series route."""

    @staticmethod
    def counting_realizations(calls):
        return mock.patch.object(
            tate, "realize_window", lambda *a: calls.append(1) or realize_window(*a)
        )

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(t1_free_outer_operators())
    def test_integer_route_equals_the_series_route(self, op):
        calls = []
        with self.counting_realizations(calls):
            for w in OUTER_SCHEDULE:
                fast = reduce_outer_window(op, w)
                assert not calls  # no series window was built
                slow = tate._reduce_outer_series(op, w)
                calls.clear()
                assert reduction_fields(fast) == reduction_fields(slow)
                assert (fast.ker_dim, fast.coker_dim) == (slow.ker_dim, slow.coker_dim)
        # a pole past the label limit raises the same message on both routes
        pole = TowerElement.monomial(2, [0, -tate.MAX_WINDOW_LABELS])
        P = op.coeffs[0] + SeriesMatrix.identity(F2, op.rank).scale(pole)
        far = MatrixDiffOp(op.rank, {**op.coeffs, 0: P})
        with pytest.raises(WindowTooLarge) as fast:
            reduce_outer_window(far, OUTER_SCHEDULE[0])
        with pytest.raises(WindowTooLarge) as slow:
            tate._reduce_outer_series(far, OUTER_SCHEDULE[0])
        assert str(fast.value) == str(slow.value)

    @pytest.mark.parametrize("a, bottom_passes", [
        pytest.param(F2.zero(), 0, id="d/dt2"),
        pytest.param(Fraction(1, 3) * F2.gen(2) ** -1, 0, id="d/dt2 + 1/(3 t2)"),
        pytest.param(F2.gen(2) ** -3, 1, id="d/dt2 + t2^-3"),
    ])
    def test_one_label_order_pass_per_window(self, monkeypatch, a, bottom_passes):
        # the label-order pass gives the slots with their relations and, when
        # the two cuts coincide, the kernel; a higher top cut (t2^-3, below
        # the derivative term's t2^-1) adds one pass over the bottom rows.
        # The induced action reads both and eliminates nothing
        calls = []
        for name in ("echelon_relations", "sparse_echelon"):
            fn = getattr(tate, name)
            monkeypatch.setattr(
                tate, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
            )
        C = Connection(F2, [SeriesMatrix([[F2.zero()]]), SeriesMatrix([[a]])])
        outer = stabilize_outer_windows(MatrixDiffOp.from_connection(C))
        windows = len(outer.trace)
        assert calls.count("echelon_relations") == windows
        assert calls.count("sparse_echelon") == bottom_passes * windows
        calls.clear()
        derham.induced_inner_connections(C, outer=outer)
        assert calls == []

    def test_label_limit_is_the_windows_own(self):
        # the probe M(-4, 3) behind this window has 5 * 14,007 = 70,035
        # labels a side, past the limit; the window itself has 40 source and
        # 14,039 target labels, and reduces on the integer route
        pole = F2.gen(2) ** -14000
        P = SeriesMatrix([[pole if i == j == 0 else F2.zero() for j in range(5)] for i in range(5)])
        calls = []
        with self.counting_realizations(calls):
            red = reduce_outer_window(MatrixDiffOp.first_order(F2.one(), P), 4)
        assert not calls
        assert (red.ker_dim, red.coker_dim) == (4, 14003)

    def test_broken_hull_is_caught(self, monkeypatch):
        # with component 0's bottom raised by one, t2^-3 sends t2^-4 below
        # the window on both routes
        t2, zero = F2.gen(2), F2.zero()
        op = MatrixDiffOp.first_order(F2.one(), SeriesMatrix([[t2 ** -3, zero], [F2.one(), zero]]))
        bounds = tate.window_bounds

        def raised(op, w):
            (lo, hi), *rest = bounds(op, w)
            return [(lo + 1, hi), *rest]

        monkeypatch.setattr(tate, "window_bounds", raised)
        for route in (reduce_outer_window, tate._reduce_outer_series):
            with pytest.raises(AssertionError, match="image fell below the certified hull"):
                route(op, 4)

    def test_t1_dependent_operators_take_the_series_route(self):
        rng = random.Random(1807)
        for rank in (1, 2):
            for normalized in (False, True):
                op = random_outer_operator(rng, rank, normalized)
                calls = []
                with self.counting_realizations(calls):
                    stabilize_outer_windows(op)
                assert calls and len(calls) == len(stabilize_outer_windows(op).trace)


def ref_window_columns(op, src, bounds):
    """The level-1 column loop over Q: one Fraction product per term."""
    src_labels = [(c, e) for c in range(op.rank) for e in range(*src)]
    tgt_labels = [(c, e) for c in range(op.rank) for e in range(*bounds[c])]
    offset = []
    start = 0
    for lo, hi in bounds:
        offset.append(start - lo)
        start += hi - lo
    columns = []
    for comp, e in src_labels:
        col = {}
        for d, M in op.coeffs.items():
            f = Fraction(1)
            for k in range(d):
                f *= e - k
            if f == 0:
                continue
            shift = e - d
            for i in range(op.rank):
                entry = M[i, comp]
                if entry.is_exactly_zero():
                    continue
                lo_i, hi_i = bounds[i]
                if not entry.exact and entry.hi + shift < hi_i:
                    raise InsufficientPrecision("too short")
                for m, q in entry.coeffs.items():
                    ee = m + shift
                    if ee >= hi_i:
                        continue
                    assert ee >= lo_i
                    row = offset[i] + ee
                    col[row] = col.get(row, 0) + f * q
        columns.append({row: q for row, q in col.items() if q})
    return WindowRealization(tuple(src_labels), tuple(tgt_labels), columns)


def realized(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InsufficientPrecision:
        return "too short"


@st.composite
def level1_operators(draw):
    """sum_d C_d (d/dt)^d, d <= 2, rank 1-3: exact or inexact entries whose
    denominators differ between rows, so each row has its own lcm.

    ``C_0`` may have deeper poles than the derivative terms, so the top
    window often reaches higher than the bottom one.
    """
    rank = draw(st.integers(1, 3))
    values = st.builds(
        Fraction,
        st.integers(-40, 40).filter(bool) | st.integers(-2**64, 2**64).filter(bool),
        st.sampled_from((1, 2, 3, 5, 12, 35, 2**61 - 1)),
    )
    orders = draw(st.sets(st.integers(0, 2), min_size=1))
    coeffs = {}
    for d in sorted(orders):
        rows = []
        for _ in range(rank):
            row = []
            for _ in range(rank):
                low = -3 if d == 0 else d - 1
                terms = draw(st.dictionaries(st.integers(low, low + 4), values, max_size=4))
                if draw(st.booleans()):
                    row.append(TowerElement(1, terms, None, True))
                else:
                    top = max(terms, default=0) + 1
                    row.append(TowerElement(1, terms, top + draw(st.integers(-1, 16)), False))
            rows.append(row)
        coeffs[d] = SeriesMatrix(rows)
    return MatrixDiffOp(rank, coeffs)


# (w, W) with 1 <= w <= 6 and w < W <= 2w + 4
PROBE_CUTS = st.integers(1, 6).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(w + 1, 2 * w + 4))
)


class TestIntegerWindowColumns:
    """Level-1 probe rows summed over the integers against the loop over Q."""

    @settings(deadline=None, max_examples=100)
    @given(level1_operators(), PROBE_CUTS)
    def test_columns_match_rational_loop(self, op, cut):
        w, W = cut
        delta = LatticeProbes(op).delta
        bounds = [(-w + delta, W)] * op.rank
        reference = realized(ref_window_columns, op, (-w, W - delta), bounds)
        if reference != "too short":
            reference = labelled_entries(reference)
        assert realized(probe_entries, op, w, W) == reference

    @settings(deadline=None, max_examples=100)
    @given(level1_operators(), PROBE_CUTS, PROBE_CUTS)
    def test_first_probe_is_a_cut_of_the_second(self, op, first, second):
        # the rows of M(-w1, W1) with target exponent in [-w0 + delta, W0)
        # have no entry from a source at or above W0 - delta, and their
        # entries from sources at or above -w0 are those of M(-w0, W0): the
        # first schedule entry's ranks are read off them
        (w0, W0), (w1, W1) = sorted((first, second))
        if W0 > W1:
            return
        outer = realized(probe_entries, op, w1, W1)
        if outer == "too short":
            return
        delta = LatticeProbes(op).delta
        cut = {
            (tgt, src): q
            for (tgt, src), q in outer.items()
            if -w0 + delta <= tgt[1] < W0 and src[1] >= -w0
        }
        assert all(src[1] < W0 - delta for (tgt, src) in cut)
        assert cut == probe_entries(op, w0, W0)


@st.composite
def exact_first_order_operators(draw):
    """h^-1 (d/dt + A) for exact A of rank 1-4, entries t^-4 .. t^1 with
    coefficients +-1, +-2; a trivial summand now and then gives a nonzero
    kernel."""
    rank = draw(st.integers(1, 4))
    pole = draw(st.integers(1, 4))
    t = F1.gen(1)
    coefficient = st.sampled_from((0, 0, -2, -1, 1, 2))
    rows = [
        [
            sum((draw(coefficient) * t ** k for k in range(-pole, 2)), F1.zero())
            for _ in range(rank)
        ]
        for _ in range(rank)
    ]
    C = Connection(F1, [SeriesMatrix(rows)])
    if draw(st.booleans()):
        C = C.direct_sum(Connection.trivial(F1, 1))
    normalizer = draw(st.sampled_from((None, t ** -1, 2 * t ** -2)))
    return MatrixDiffOp.from_connection(C, normalizer=normalizer)


class TestDescendingOrder:
    """The probe order: rows ascending, columns in descending exponent order."""

    def test_descending_order_cancels_less(self, monkeypatch):
        # the highest source column of a probe row is its lattice-sharp
        # term, almost always still free, so few rows meet an earlier
        # pivot; the ascending order pivots on the deepest term
        op = MatrixDiffOp.from_connection(random_exact_connection(random.Random(5), 5))
        probes = LatticeProbes(op)
        rows = probes.rows(16, 32)
        # the same rows with the columns in ascending exponent-major order:
        # the columns are r per exponent, so this reverses them
        n = op.rank * (32 - probes.delta + 16)
        ascending = [{n - 1 - k: q for k, q in row.items()} for row in rows]
        calls = []
        cancel = linalg._cancel

        def counted(r, p, c):
            calls.append(c)
            return cancel(r, p, c)

        monkeypatch.setattr(linalg, "_cancel", counted)
        n_descending = len(sparse_echelon(rows))
        descending_calls = len(calls)
        calls.clear()
        assert n_descending == len(sparse_echelon(ascending))
        assert descending_calls < len(calls) / 2


# a rank-4 presentation whose bottom windows all have a nonzero kernel
# (window_index's r4-epsilon-1#0 in the benchmark)
RANK4_SPEC = """\
[field]
n = 1
vars = t

[connection]
rank = 4
A1 = [["0", "-1*t^-3 - 1*t^-1 - 1", "0", "0"], \
["0", "2*t^-3 - 2*t^-2 - 2*t", "0", "1*t^-3 + 2*t"], \
["0", "-2*t^-3 + 1 + 1*t", "0", "-2*t^-2 + 1*t^-1 - 1*t"], \
["1*t^-3 + 2*t^-1", "-2*t^-1 + 2 + 1*t", "-1*t^-3 + 1*t^-2 - 1*t^-1", "0"]]

[forms]
nu1 = ["1"]

[task]
command = epsilon
"""


def ref_probe_report(op, schedule):
    """:func:`operator_index` from dense ranks over Q.

    ``M(x, W)`` is built for ``x = -w`` and ``x = w`` separately by the
    loop over Q and ranked by dense elimination.  The cut ``W`` is the
    largest one up to ``2w`` that the loop can fill at ``x = -w``; the
    schedule stops where that is no more than ``w``.
    """
    r = op.rank
    delta = min(op.delta_bottom(i) for i in range(r))
    offset = -sum(op.delta_top(i) for i in range(r))

    def D(x, W):
        win = ref_window_columns(op, (x, W - delta), [(x + delta, W)] * r)
        rows = [_dense(row, len(win.src_labels)) for row in sparse_rows(win)]
        return r * (W - x) - _span_rank(rows)

    def fits(w, W):
        bounds = [(-w + delta, W)] * r
        return realized(ref_window_columns, op, (-w, W - delta), bounds) != "too short"

    trace = []
    for w in schedule:
        W = 2 * w
        while W > w and not fits(w, W):
            W -= 1
        if W <= w:
            break
        d_high = D(w, W)
        index = offset + d_high
        ker = D(-w, W) - d_high
        trace.append((w, ker, ker - index))
        if len(trace) >= 2 and trace[-1][1:] == trace[-2][1:] and min(trace[-1][1:]) >= 0:
            return IndexReport(ker, ker - index, index, w, tuple(trace))
    if not trace:
        raise InsufficientPrecision("too short")
    _, ker, coker = trace[-1]
    return IndexReport(ker, coker, ker - coker, None, tuple(trace))


def own_probe_index(op, schedule):
    """:func:`operator_index` with every probe eliminated on its own.

    Each schedule entry ``w`` builds ``M(-w, W)`` and ranks it and its
    leading block ``M(w, W)`` from one :func:`sparse_echelon`.
    """
    r = op.rank
    delta = min(op.delta_bottom(i) for i in range(r))
    offset = -sum(op.delta_top(i) for i in range(r))
    known = min(
        (x.hi - d for i in range(r) for d, _, x in op._row_entries(i) if not x.exact),
        default=None,
    )
    trace = []
    for w in schedule:
        W = 2 * w if known is None else min(2 * w, known - w)
        if W <= w:
            break
        pivots = sparse_echelon(LatticeProbes(op).rows(w, W))
        high = r * (W - delta - w)
        d_low = r * (W + w) - len(pivots)
        d_high = r * (W - w) - sum(1 for c in pivots if c < high)
        ker = d_low - d_high
        index = offset + d_high
        trace.append((w, ker, ker - index))
        if len(trace) >= 2 and trace[-1][1:] == trace[-2][1:] and min(trace[-1][1:]) >= 0:
            return IndexReport(ker, ker - index, index, w, tuple(trace))
    if not trace:
        raise InsufficientPrecision("too short")
    _, ker, coker = trace[-1]
    return IndexReport(ker, coker, ker - coker, None, tuple(trace))


def known_below(hi):
    """d/dt + (t^-2 + 1 + O(t^hi)): the probe at w cuts at min(2w, hi - w)."""
    a = TowerElement(1, {-2: 1, 0: 1}, hi, False)
    return MatrixDiffOp(1, {1: SeriesMatrix([[F1.one()]]), 0: SeriesMatrix([[a]])})


def banded_rows(rows):
    """Rows as hashable tuples, for comparing collections of rows."""
    return sorted(tuple(sorted(row.items())) for row in rows)


class TestLatticeProbes:
    """The index from one echelon per probe against dense ranks over Q."""

    SCHEDULE = (3, 4, 6, 8)  # short probes keep the dense ranks fast

    @settings(deadline=None, max_examples=40)
    @given(exact_first_order_operators())
    def test_report_matches_dense_ranks(self, op):
        assert operator_index(op, self.SCHEDULE) == ref_probe_report(
            op, self.SCHEDULE
        )

    @settings(deadline=None, max_examples=30)
    @given(level1_operators())
    def test_inexact_and_higher_order_operators(self, op):
        # probes may be cut short, or never fit at all
        assert realized(operator_index, op, (2, 3, 4)) == realized(
            ref_probe_report, op, (2, 3, 4)
        )

    def test_kernel_basis_leaves_out_ker_M_w(self):
        # the solution t^6 of d - 6 dt/t lies in L_6, so at the settled
        # probe w = 6 it spans ker M(6, 12) and is not counted; the kernel
        # is the constant of the trivial summand alone
        C = Connection.trivial(F1, 1).direct_sum(reg_connection(-6))
        rep = operator_index(MatrixDiffOp.from_connection(C), (4, 6))
        assert rep.stabilized_at == 6 and rep.ker_dim == 1

    def test_one_echelon_per_probe(self, monkeypatch):
        calls = []
        echelon = tate.sparse_echelon

        def counted(rows, *continued):
            calls.append(len(rows))
            return echelon(rows, *continued)

        monkeypatch.setattr(tate, "sparse_echelon", counted)
        rep = operator_index(MatrixDiffOp.from_connection(exp_connection(2)))
        assert len(calls) == len(rep.trace) == 2

    def test_first_probe_is_read_off_the_second(self, monkeypatch):
        # the trace (8, ...), (12, ...) builds M(-12, 24) alone, and its
        # rows are eliminated once, split over the two calls
        op = MatrixDiffOp.from_connection(exp_connection(2))
        built, handed = [], []
        probe, echelon = LatticeProbes.rows, tate.sparse_echelon

        def counted_probe(probes, w, W):
            built.append((w, W))
            return probe(probes, w, W)

        def recorded(rows, *continued):
            handed.extend(rows)
            return echelon(rows, *continued)

        monkeypatch.setattr(LatticeProbes, "rows", counted_probe)
        monkeypatch.setattr(tate, "sparse_echelon", recorded)
        rep = operator_index(op)
        monkeypatch.undo()
        assert [w for w, _, _ in rep.trace] == [8, 12] and rep.stabilized_at == 12
        assert built == [(12, 24)]
        rows = LatticeProbes(op).rows(12, 24)
        assert banded_rows(handed) == banded_rows(rows)
        assert rep == own_probe_index(op, DEFAULT_SCHEDULE)

    def test_unnested_first_probe_keeps_its_own(self, monkeypatch):
        # W0 = min(16, 26 - 8) = 16 and W1 = min(24, 26 - 12) = 14
        op = known_below(26)
        built = []
        probe = LatticeProbes.rows

        def counted_probe(probes, w, W):
            built.append((w, W))
            return probe(probes, w, W)

        monkeypatch.setattr(LatticeProbes, "rows", counted_probe)
        rep = operator_index(op)
        assert built == [(8, 16), (12, 14)]
        assert rep == own_probe_index(op, DEFAULT_SCHEDULE)

    @settings(deadline=None, max_examples=60)
    @given(
        exact_first_order_operators() | level1_operators(),
        st.lists(st.integers(1, 10), min_size=1, max_size=4),
    )
    # the second cut falls below the first, so the first entry keeps its
    # own probe
    @example(known_below(26), list(DEFAULT_SCHEDULE))
    # W0 = W1 = 8, but the first probe reaches down to t^-6, below the second
    @example(known_below(14), [6, 4])
    def test_index_matches_one_echelon_per_probe(self, op, schedule):
        assert realized(operator_index, op, schedule) == realized(own_probe_index, op, schedule)


def run_spec(text, tmp_path, capsys):
    """The report of ``cli.main`` on ``text``, as a dict."""
    path = tmp_path / "task.hl"
    path.write_text(text)
    code = cli.main([str(path)])
    out = capsys.readouterr().out
    assert code == 0, out
    return dict(line.split(" = ", 1) for line in out.splitlines())


def one_variable_spec(rank, A1, command, nu1="1"):
    return (
        f"[field]\nn = 1\nvars = t\n\n[connection]\nrank = {rank}\nA1 = {A1}\n\n"
        f'[forms]\nnu1 = ["{nu1}"]\n\n[task]\ncommand = {command}\n'
    )


class TestProbeRegressions:
    """Inputs on which the persistence route printed a wrong integer."""

    @pytest.mark.parametrize(
        "A1",
        [
            # as given, then under the gauges diag(t, 1) and diag(1/t, 1):
            # the persistence route printed -1, 0 and -2
            '[["-2/t - 1", "2/t^2 - 2/t + t"], ["t", "0"]]',
            '[["-3/t - 1", "2/t - 2 + t^2"], ["1", "0"]]',
            '[["-1/t - 1", "2/t^3 - 2/t^2 + 1"], ["t^2", "0"]]',
        ],
    )
    def test_readme_case_under_gauges(self, A1, tmp_path, capsys):
        report = run_spec(one_variable_spec(2, A1, "epsilon"), tmp_path, capsys)
        assert (report["degree"], report["window_degree"]) == ("0", "0")
        assert report["routes_agree"] == "yes"

    def test_rank4_epsilon(self, tmp_path, capsys):
        # window_index's r4-epsilon-1#0: the persistence route printed -7
        report = run_spec(RANK4_SPEC, tmp_path, capsys)
        assert (report["degree"], report["window_degree"]) == ("-6", "-6")

    @pytest.mark.parametrize(
        "A1",
        [
            # the diag(t^-2, t^2) gauge of the second; the persistence route
            # printed h0 = 2, h1 = 3 for it
            '[["2*t^-1 + t", "-t^-6 + 3*t^-4"], ["-2*t^3", "-2*t^-2 - 2*t^-1"]]',
            '[["t", "-t^-2 + 3"], ["-2*t^-1", "-2*t^-2"]]',
        ],
    )
    def test_gauge_pair_cohomology(self, A1, tmp_path, capsys):
        report = run_spec(one_variable_spec(2, A1, "cohomology"), tmp_path, capsys)
        assert (report["h0"], report["h1"]) == ("1", "2")
        assert (report["window_h0"], report["window_h1"]) == ("1", "2")

    def test_negative_counts_do_not_settle(self, tmp_path, capsys):
        # d - 20 dt/t, solution t^20: the probes at 12 and 16 agree on a
        # negative cokernel, which is not a settled pair; the persistence
        # route printed h0 = h1 = 0
        A1 = '[["-20/t"]]'
        report = run_spec(one_variable_spec(1, A1, "cohomology"), tmp_path, capsys)
        assert (report["h0"], report["h1"], report["window_agrees"]) == ("1", "1", "yes")
        C = parse_specfile(one_variable_spec(1, A1, "cohomology")).connection
        rep = operator_index(MatrixDiffOp.from_connection(C))
        assert rep.trace == ((8, 0, 0), (12, 0, -1), (16, 0, -1), (24, 1, 1), (32, 1, 1))
        assert rep.stabilized_at == 32


class TestIntegerWindowRoute:
    """Realization and elimination stay on integers."""

    def test_index_builds_no_fraction(self, monkeypatch):
        op = MatrixDiffOp.from_connection(parse_specfile(RANK4_SPEC).connection)
        probes = LatticeProbes(op)
        for w in DEFAULT_SCHEDULE:
            rows = probes.rows(w, 2 * w)
            assert all(type(q) is int for row in rows for q in row.values())
            assert len(sparse_echelon(rows)) < op.rank * (3 * w - probes.delta)
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        if hasattr(Fraction, "_from_coprime_ints"):
            # from Python 3.12 on, arithmetic results skip __new__
            coprime = Fraction._from_coprime_ints

            def counted_coprime(cls, *args):
                built.append(args)
                return coprime(*args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
        rep = operator_index(op)
        monkeypatch.undo()
        assert rep.stabilized
        assert built == []


    def test_fresh_rows_are_not_divided_by_their_content(self, monkeypatch):
        # only a row reduced at a pivot is made primitive; the probe rows go
        # into the eliminator as built, and their pivot columns are those of
        # the same rows divided by their content first.  Both rows of the
        # second-order operator pivot on a t^-3 term of component 0, so its
        # probes cancel too
        t, zero = F1.gen(1), F1.zero()
        second_order = MatrixDiffOp(2, {
            2: SeriesMatrix([[2 * F1.one(), zero], [zero, 2 * F1.one()]]),
            0: SeriesMatrix([[2 * t ** -3, 2 * t ** -1], [2 * t ** -3, 4 * t ** -2]]),
        })
        rank4 = MatrixDiffOp.from_connection(parse_specfile(RANK4_SPEC).connection)
        for op in (rank4, second_order):
            probes = LatticeProbes(op)
            for w in DEFAULT_SCHEDULE:
                rows = probes.rows(w, probes.cut(w))
                primitive = [
                    {c: v // math.gcd(*row.values()) for c, v in row.items()} for row in rows
                ]
                assert primitive != rows
                assert sorted(sparse_echelon(rows)) == sorted(sparse_echelon(primitive))
            primitive_of, callers = linalg._primitive, []

            def recorded(row):
                callers.append(sys._getframe(1).f_code.co_name)
                return primitive_of(row)

            monkeypatch.setattr(linalg, "_primitive", recorded)
            operator_index(op)
            monkeypatch.undo()
            assert callers and set(callers) == {"_cancel"}


class TestWindowPrecision:
    """An inexact coefficient must be known up to the top edge of the target."""

    def op_with_known_terms(self, hi, level=1):
        # A = (t^-2 + 1 + O(t^hi)): delta_bottom = -2 from A, delta_top = -1
        # from the derivative, so the top window reaches one exponent higher;
        # at level 2, t is the outer variable and the coefficients are inner
        one = Fraction(1) if level == 1 else F1.one()
        a = TowerElement(level, {-2: one, 0: one}, hi, False)
        return MatrixDiffOp(
            1, {1: SeriesMatrix([[TowerField(level).one()]]), 0: SeriesMatrix([[a]])}
        )

    SHORT = "^operator coefficients are too short for this window$"

    def test_top_window_needs_one_more_term(self):
        # w = 8: the image of t^-8 is known below hi - 8, so the probe cut
        # at 8 - 2 is built and the one at 8 - 1 needs one more term
        probes = LatticeProbes(self.op_with_known_terms(14))
        probes.rows(8, 6)
        with pytest.raises(InsufficientPrecision, match=self.SHORT):
            probes.rows(8, 7)

    def test_bottom_window_too_short(self):
        probes = LatticeProbes(self.op_with_known_terms(13))
        for W in (6, 7):
            with pytest.raises(InsufficientPrecision, match=self.SHORT):
                probes.rows(8, W)

    @pytest.mark.parametrize(
        "hi, trace, stabilized_at",
        [
            # the probe at w cuts at W = min(2w, hi - w), the highest exponent
            # at which the image of t^-w is known; at w = 6 that is 6 <= w,
            # so the schedule stops after w = 4, unsettled
            (12, ((4, 0, 1),), None),
            # one more term and W = 7 at w = 6, so w = 6 settles
            (13, ((4, 0, 1), (6, 0, 1)), 6),
        ],
    )
    def test_probes_stop_where_the_coefficients_end(self, hi, trace, stabilized_at):
        rep = operator_index(self.op_with_known_terms(hi), (4, 6, 8, 12))
        assert rep.trace == trace
        assert rep.stabilized_at == stabilized_at

    def test_no_probe_fits(self):
        # at w = 4 the image of t^-4 is known only below t^4
        with pytest.raises(InsufficientPrecision):
            operator_index(self.op_with_known_terms(8), (4, 6, 8, 12))

    def test_outer_top_window_needs_one_more_term(self):
        op = self.op_with_known_terms(14, level=2)
        outer_window(op, 8, "bottom")
        with pytest.raises(InsufficientPrecision):
            outer_window(op, 8, "top")
        op = self.op_with_known_terms(13, level=2)
        for mode in ("bottom", "top"):
            with pytest.raises(InsufficientPrecision):
                outer_window(op, 8, mode)


class TestCalkinIso:
    def test_multiplication_by_unit(self):
        op = MatrixDiffOp(1, {0: SeriesMatrix.identity(F1, 1)})
        rep = operator_index(op)
        assert rep.stabilized
        assert (rep.ker_dim, rep.coker_dim) == (0, 0)

    def test_connection_derivative(self):
        op = MatrixDiffOp.from_connection(Connection.trivial(F1, 1))
        rep = operator_index(op)
        assert rep.stabilized
        assert (rep.ker_dim, rep.coker_dim) == (1, 1)

    def test_zero_operator_grows(self):
        op = MatrixDiffOp(1, {0: SeriesMatrix.zeros(F1, 1, 1)})
        rep = operator_index(op)
        assert not rep.stabilized
        dims = [k for _, k, _ in rep.trace]
        assert dims == sorted(dims) and dims[0] < dims[-1]


class TestOperatorLevel:
    """One operator class for both levels: the level is that of the coefficients."""

    def test_level_reads_the_coefficients(self):
        for F in (F1, F2):
            op = MatrixDiffOp.from_connection(Connection.trivial(F, 1))
            assert op.level == F.level

    def test_operator_needs_a_coefficient(self):
        # the level is read off the coefficients, so there must be one
        with pytest.raises(ValueError, match="at least one coefficient"):
            MatrixDiffOp(1, {})

    @pytest.mark.parametrize("level", [1, 2])
    def test_displacements_of_each_row(self, level):
        # row 0 is d/dt + t^-2, row 1 is t^3 with no d >= 1 entry, row 2 is zero
        F = TowerField(level)
        t, one, zero = F.gen(level), F.one(), F.zero()
        op = MatrixDiffOp(
            3,
            {
                1: SeriesMatrix([[one, zero, zero], [zero] * 3, [zero] * 3]),
                0: SeriesMatrix([[t ** -2, zero, zero], [zero, t ** 3, zero], [zero] * 3]),
            },
        )
        got = [(op.delta_bottom(i), op.delta_top(i)) for i in range(3)]
        assert got == [(-2, -1), (3, 3), (0, 0)]

    def test_operator_index_rejects_two_variables(self):
        op = MatrixDiffOp.from_connection(Connection.trivial(F2, 1))
        with pytest.raises(UnsupportedFrame, match="implemented for one variable"):
            operator_index(op)

    def test_outer_window_rejects_one_variable(self):
        op = MatrixDiffOp.from_connection(Connection.trivial(F1, 1))
        for reduce in (
            lambda: reduce_outer_window(op, 4),
            lambda: realize_window(op, 4),
            lambda: window_columns(op, (-4, 4), [(-5, 4)]),
        ):
            with pytest.raises(UnsupportedFrame) as ei:
                reduce()
            assert str(ei.value) == "outer windows are implemented for two variables"

    @pytest.mark.parametrize("level", [1, 2])
    def test_window_past_the_label_limit_is_not_built(self, level):
        # either side past the limit raises before a label is built; a side
        # at the limit is built
        op = MatrixDiffOp.from_connection(Connection.trivial(TowerField(level), 2))
        n = tate.MAX_WINDOW_LABELS
        if level == 1:
            # a probe of d/dt (delta = -1) has 2 (W + w + 1) labels per side;
            # one of 10^12 would not fit in memory
            probes = LatticeProbes(op)
            with pytest.raises(WindowTooLarge, match=f"{n + 2} source and {n + 2} target labels"):
                probes.rows(1, n // 2 - 1)
            with pytest.raises(WindowTooLarge):
                probes.rows(1, 10 ** 12)
            assert len(probes.rows(1, n // 2 - 2)) == n
            return
        with pytest.raises(WindowTooLarge, match=f"{n + 2} source and 2 target labels"):
            window_columns(op, (0, n // 2 + 1), [(0, 1)] * 2)
        with pytest.raises(WindowTooLarge, match=f"2 source and {n + 1} target labels"):
            window_columns(op, (0, 1), [(-n, 1), (0, 0)])
        assert len(window_columns(op, (0, 1), [(-n + 1, 1), (0, 0)]).tgt_labels) == n

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("mode", ["bottom", "top"])
    def test_zero_row_keeps_the_source_window(self, level, mode):
        # row 0 is d/dt + t^-2 (delta_bottom = -2, delta_top = -1); row 1 is zero
        F = TowerField(level)
        t, one, zero = F.gen(level), F.one(), F.zero()
        op = MatrixDiffOp(
            2,
            {
                1: SeriesMatrix([[one, zero], [zero, zero]]),
                0: SeriesMatrix([[t ** -2, zero], [zero, zero]]),
            },
        )
        w = 8
        top = -1 if mode == "top" else -2
        bounds = window_bounds(op, w) if mode == "top" else bottom_bounds(op, w)
        assert bounds == [(-w - 2, w + top), (-w, w)]


def directional_profile(i, C, V):
    """Covariant edge ``i`` along ``V`` read by the multicomplex check:
    (result, settled (ker, coker), outer stabilization)."""
    res, outer = derham._direction_acyclicity(i, EdgeOperator(V, C.along(V)), DEFAULT_SCHEDULE)
    return res, res.trace[-1][1:] if res.trace else None, outer


class TestDirectionalProfile:
    def test_trivial_d2(self):
        C = Connection.trivial(F2, 1)
        V = (F2.zero(), F2.one())
        res, dims, outer = directional_profile(2, C, V)
        assert res.direction == 2
        assert res.ok and res.status == "pass"
        assert dims == (1, 1)
        assert (outer.reduction.ker_dim, outer.reduction.coker_dim) == dims

    def test_trivial_theta2(self):
        C = Connection.trivial(F2, 1)
        V = (F2.zero(), F2.gen(2))
        res, dims, _ = directional_profile(2, C, V)
        assert res.ok
        assert dims[0] == 1

    def test_exponential_in_t2(self):
        t2 = F2.gen(2)
        C = rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2))))
        V = (F2.zero(), F2.one())
        res, dims, _ = directional_profile(2, C, V)
        assert res.ok
        assert dims == (0, 1)

    def test_direction1_profile(self):
        t1 = F2.gen(1)
        C = rank1_from_form(OneForm((t1 ** -1, F2.zero())))
        V = (F2.one(), F2.zero())
        res, _, outer = directional_profile(1, C, V)
        assert res.direction == 1
        assert res.ok
        assert outer is None

    def test_direction1_needs_known_outer_constant(self):
        # 1/(2 t1) + O(t2): the t2^1 coefficient is unknown, so the vector
        # field is not known to be free of the outer variable
        inner = TowerElement(1, {-1: Fraction(1, 2)}, None, True)
        a = TowerElement(2, {0: inner}, 1, False)
        C = Connection.trivial(F2, 1)
        V = (a, F2.zero())
        res, _, _ = directional_profile(1, C, V)
        assert res.status == "unsupported"
        assert res.detail == "coefficients must not involve the outer variable"

    def test_mixed_field_rejected(self):
        C = Connection.trivial(F2, 1)
        V = (F2.one(), F2.one())
        res, _, _ = directional_profile(1, C, V)
        assert res.status == "unsupported"
        assert res.detail == "the vector field does not point along a single coordinate direction"
