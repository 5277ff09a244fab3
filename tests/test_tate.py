"""Windowed operator indices, Calkin isomorphism checks, directional profiles."""

import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from higherlocal import cli, linalg, tate
from higherlocal.connection import Connection, rank1_from_form
from higherlocal.dmodule import connection_irregularity
from higherlocal.errors import InsufficientPrecision, UnsupportedFrame
from higherlocal.linalg import SeriesMatrix, rank_kernel_det, rref_q, sparse_echelon
from higherlocal.series import OneForm, TowerElement, TowerField
from higherlocal.specfile import parse_specfile
from higherlocal.tate import (
    DEFAULT_SCHEDULE,
    IndexReport,
    MatrixDiffOp,
    OuterMatrixDiffOp,
    edge_profile,
    operator_index,
    reduce_outer_window,
    WindowRealization,
    realize_window,
    window_bounds,
    window_columns,
)
from helpers import apply_op, sparse_rows

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
    return WindowRealization(win.src_labels, tgt_labels, columns, win.dens)


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
    """Level-1 windows against the operator applied to each monomial."""

    def test_columns_match_operator_images(self):
        rng = random.Random(7)
        t = F1.gen(1)
        for rank, normalizer in ((2, None), (3, t ** -1)):
            op = MatrixDiffOp.from_connection(
                random_exact_connection(rng, rank), normalizer=normalizer
            )
            for mode in ("bottom", "top"):
                win = rational_columns(realize_window(op, 8, mode))
                index = {lab: k for k, lab in enumerate(win.tgt_labels)}
                lowest = {}
                for c, e in win.tgt_labels:
                    lowest.setdefault(c, e)
                for (c, e), col in zip(win.src_labels, win.columns):
                    vec = [
                        TowerElement.monomial(1, [e]) if i == c else F1.zero()
                        for i in range(rank)
                    ]
                    expected = {}
                    for i, el in enumerate(apply_op(op, vec)):
                        for ee, q in el.coeffs.items():
                            assert ee >= lowest[i]
                            if (i, ee) in index:
                                expected[index[(i, ee)]] = q
                    assert col == expected


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
    return OuterMatrixDiffOp.first_order(c, SeriesMatrix(rows))


OuterWindow = namedtuple("OuterWindow", "src_labels tgt_labels matrix")


def outer_window(op, w, mode):
    """The outer window [-w, w) cut by ``window_bounds``, as a dense matrix
    over the inner field."""
    win = window_columns(op, (-w, w), window_bounds(op, w, mode))
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
                    top = window_columns(op, (-w, w), window_bounds(op, w, "top"))
                    cut = cut_rows(top, window_bounds(op, w, "bottom"))
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
                    res_t = rank_kernel_det(top.matrix.transpose(), want_kernel=False)
                    covered = {c for _, c in res_t.pivots}
                    assert red.kernel == res_b.kernel
                    assert red.coker_slots == tuple(
                        lab for k, lab in enumerate(top.tgt_labels) if k not in covered
                    )
                    assert red.matrix == top.matrix
                    assert (red.src_labels, red.tgt_labels) == (top.src_labels, top.tgt_labels)

    def test_short_coefficients_raise_as_the_bottom_window(self):
        rng = random.Random(31)
        op = random_outer_operator(rng, 2, False)
        short = OuterMatrixDiffOp(
            2, {d: M.map(lambda x: x.truncate(1)) for d, M in op.coeffs.items()}
        )
        with pytest.raises(InsufficientPrecision) as bottom:
            outer_window(short, 4, "bottom")
        with pytest.raises(InsufficientPrecision) as reduced:
            reduce_outer_window(short, 4)
        assert str(reduced.value) == str(bottom.value)


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


def rational_columns(win):
    """A level-1 realization with each integer entry read as its value ``n / D_c``."""
    assert all(type(n) is int and n for col in win.columns for n in col.values())
    dens = [win.dens[c] for c, _ in win.tgt_labels]
    columns = [{k: Fraction(n, dens[k]) for k, n in col.items()} for col in win.columns]
    return WindowRealization(win.src_labels, win.tgt_labels, columns)


def rational_window_columns(*args, **kwargs):
    return rational_columns(window_columns(*args, **kwargs))


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


class TestIntegerWindowColumns:
    """Level-1 columns summed over the integers against the loop over Q."""

    @settings(deadline=None, max_examples=100)
    @given(level1_operators(), st.integers(1, 6))
    def test_columns_match_rational_loop(self, op, w):
        for mode in ("bottom", "top"):
            bounds = window_bounds(op, w, mode)
            assert realized(rational_window_columns, op, (-w, w), bounds) == realized(
                ref_window_columns, op, (-w, w), bounds
            )

    @settings(deadline=None, max_examples=100)
    @given(level1_operators(), st.integers(1, 6))
    def test_bottom_is_the_top_window_cut(self, op, w):
        top = realized(realize_window, op, w, "top")
        if top == "too short":
            return
        bottom = cut_rows(top, window_bounds(op, w, "bottom"))
        assert bottom == realize_window(op, w, "bottom")


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
    """The banded order: rows ascending, columns in descending exponent order."""

    def test_descending_order_cancels_less(self, monkeypatch):
        # the highest source column of a bottom-window row is its
        # lattice-sharp term, almost always still free, so few rows meet
        # an earlier pivot; the ascending order pivots on the deepest term
        op = MatrixDiffOp.from_connection(random_exact_connection(random.Random(5), 5))
        bottom = realize_window(op, 16, "bottom")
        # the same rows with the columns in ascending exponent-major order
        src_order = sorted(range(len(bottom.src_labels)), key=lambda k: bottom.src_labels[k][::-1])
        tgt_order = sorted(range(len(bottom.tgt_labels)), key=lambda k: bottom.tgt_labels[k][::-1])
        col = {j: k for k, j in enumerate(src_order)}
        rows = sparse_rows(bottom)
        ascending = [{col[j]: q for j, q in rows[i].items()} for i in tgt_order]
        calls = []
        cancel = linalg._cancel

        def counted(r, p, c):
            calls.append(c)
            return cancel(r, p, c)

        monkeypatch.setattr(linalg, "_cancel", counted)
        n_descending = len(sparse_echelon(bottom.banded()))
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
        (x.hi - d for i in range(r) for d, x in op._row_entries(i) if not x.exact),
        default=None,
    )
    trace = []
    for w in schedule:
        W = 2 * w if known is None else min(2 * w, known - w)
        if W <= w:
            break
        pivots = sparse_echelon(tate.probe_window(op, w, W, delta).banded())
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
        delta = min(op.delta_bottom(i) for i in range(op.rank))
        built, handed = [], []
        probe, echelon = tate.probe_window, tate.sparse_echelon

        def counted_probe(*args):
            built.append(args[1:3])
            return probe(*args)

        def recorded(rows, *continued):
            handed.extend(rows)
            return echelon(rows, *continued)

        monkeypatch.setattr(tate, "probe_window", counted_probe)
        monkeypatch.setattr(tate, "sparse_echelon", recorded)
        rep = operator_index(op)
        monkeypatch.undo()
        assert [w for w, _, _ in rep.trace] == [8, 12] and rep.stabilized_at == 12
        assert built == [(12, 24)]
        rows = probe(op, 12, 24, delta).banded()
        assert banded_rows(handed) == banded_rows(rows)
        assert rep == own_probe_index(op, DEFAULT_SCHEDULE)

    def test_unnested_first_probe_keeps_its_own(self, monkeypatch):
        # W0 = min(16, 26 - 8) = 16 and W1 = min(24, 26 - 12) = 14
        op = known_below(26)
        built = []
        probe = tate.probe_window

        def counted_probe(*args):
            built.append(args[1:3])
            return probe(*args)

        monkeypatch.setattr(tate, "probe_window", counted_probe)
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
        for w in DEFAULT_SCHEDULE:
            win = realize_window(op, w, "bottom")
            assert len(sparse_echelon(win.banded())) < len(win.src_labels)
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


class TestWindowPrecision:
    """An inexact coefficient must be known up to the top edge of the target."""

    def op_with_known_terms(self, hi, level=1):
        # A = (t^-2 + 1 + O(t^hi)): delta_bottom = -2 from A, delta_top = -1
        # from the derivative, so the top window reaches one exponent higher;
        # at level 2, t is the outer variable and the coefficients are inner
        one = Fraction(1) if level == 1 else F1.one()
        a = TowerElement(level, {-2: one, 0: one}, hi, False)
        cls = MatrixDiffOp if level == 1 else OuterMatrixDiffOp
        return cls(
            1, {1: SeriesMatrix([[TowerField(level).one()]]), 0: SeriesMatrix([[a]])}
        )

    def test_top_window_needs_one_more_term(self):
        # w = 8: the image of t^-8 is known below hi - 8; the bottom target
        # ends at 8 - 2 and the top target at 8 - 1
        op = self.op_with_known_terms(14)
        realize_window(op, 8, "bottom")
        with pytest.raises(InsufficientPrecision):
            realize_window(op, 8, "top")

    def test_bottom_window_too_short(self):
        op = self.op_with_known_terms(13)
        for mode in ("bottom", "top"):
            with pytest.raises(InsufficientPrecision):
                realize_window(op, 8, mode)

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


class TestDirectionalProfile:
    def test_trivial_d2(self):
        C = Connection.trivial(F2, 1)
        V = (F2.zero(), F2.one())
        prof = edge_profile(V, C.along(V))
        assert prof.direction == 2
        assert prof.stabilized
        assert prof.ker_dim == 1
        assert prof.coker_dim == 1

    def test_trivial_theta2(self):
        C = Connection.trivial(F2, 1)
        V = (F2.zero(), F2.gen(2))
        prof = edge_profile(V, C.along(V))
        assert prof.stabilized
        assert prof.ker_dim == 1

    def test_exponential_in_t2(self):
        t2 = F2.gen(2)
        C = rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2))))
        V = (F2.zero(), F2.one())
        prof = edge_profile(V, C.along(V))
        assert prof.stabilized
        assert prof.ker_dim == 0
        assert prof.coker_dim == 1

    def test_direction1_profile(self):
        t1 = F2.gen(1)
        C = rank1_from_form(OneForm((t1 ** -1, F2.zero())))
        V = (F2.one(), F2.zero())
        prof = edge_profile(V, C.along(V))
        assert prof.direction == 1
        assert prof.stabilized

    def test_direction1_needs_known_outer_constant(self):
        # 1/(2 t1) + O(t2): the t2^1 coefficient is unknown, so the vector
        # field is not known to be free of the outer variable
        inner = TowerElement(1, {-1: Fraction(1, 2)}, None, True)
        a = TowerElement(2, {0: inner}, 1, False)
        C = Connection.trivial(F2, 1)
        V = (a, F2.zero())
        with pytest.raises(UnsupportedFrame):
            edge_profile(V, C.along(V))

    def test_mixed_field_rejected(self):
        C = Connection.trivial(F2, 1)
        V = (F2.one(), F2.one())
        with pytest.raises(UnsupportedFrame):
            edge_profile(V, C.along(V))
