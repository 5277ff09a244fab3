"""Wronskians, cyclic vectors, scalar operators and Newton polygons."""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higherlocal import dmodule, linalg
from higherlocal.connection import Connection, KummerCover, induct, rank1_from_form
from higherlocal.dmodule import (
    NewtonPolygon,
    PARTIAL,
    THETA,
    ScalarOperator,
    connection_irregularity,
    find_cyclic_vector,
    newton_polygon,
    to_scalar_operator,
    wronskian,
)
from higherlocal.errors import HigherLocalError, UndeterminedLeadingTerm
from higherlocal.linalg import SeriesMatrix, rank_kernel_det
from higherlocal.series import (
    OneForm,
    TowerElement,
    TowerField,
    set_working_precision,
    working_precision,
)
from higherlocal.specfile import parse_specfile
from helpers import rref_q

F1 = TowerField(1)


def m1(entries):
    return SeriesMatrix(
        [[x if isinstance(x, TowerElement) else F1.rational(x) for x in r] for r in entries]
    )


def laurent(rng, lo=-4, hi=7, density=0.5):
    coeffs = {
        e: Fraction(rng.randint(-5, 5))
        for e in range(lo, hi)
        if rng.random() < density
    }
    return TowerElement(1, coeffs, None, True)


def independent_over_q(ys, lo=-8, hi=12):
    """Exact-elimination oracle for k-linear independence of Laurent polynomials."""
    rows = []
    for y in ys:
        rows.append([Fraction(y.coeffs.get(e, 0)) for e in range(lo, hi)])
    return rref_q(rows)[0] == len(ys)


class TestWronskian:
    def test_basis_pair(self):
        t = F1.gen(1)
        assert wronskian([F1.one(), t]) == F1.one()

    def test_proportional_vanishes(self):
        t = F1.gen(1)
        y = 1 + 2 * t - t ** 3
        assert wronskian([y, 3 * y]).is_exactly_zero()

    def test_three_powers(self):
        t = F1.gen(1)
        assert wronskian([F1.one(), t, t * t]) == F1.rational(2)

    def test_oracle_agreement(self):
        rng = random.Random(99)
        for _ in range(200):
            m = rng.randint(1, 4)
            ys = [laurent(rng) for _ in range(m)]
            if any(y.is_exactly_zero() for y in ys):
                continue
            w = wronskian(ys)
            assert w.is_certainly_nonzero() == independent_over_q(ys)


class TestScalarOperator:
    def test_apply_partial(self):
        t = F1.gen(1)
        L = ScalarOperator(PARTIAL, (t ** -1, F1.one()))  # d + 1/t
        f = t ** 2
        assert L.apply(f) == 2 * t + t

    def test_theta_conversion_euler(self):
        # t*(d + alpha/t) = theta + alpha
        alpha = Fraction(1, 2)
        L = ScalarOperator(PARTIAL, (alpha * F1.gen(1) ** -1, F1.one()))
        T = L.to_theta()
        assert T.form == THETA
        assert T.coeffs[1] == F1.one()
        assert T.coeffs[0] == F1.rational(alpha)

    def test_theta_second_order(self):
        # t^2 D^2 = theta^2 - theta
        L = ScalarOperator(PARTIAL, (F1.zero(), F1.zero(), F1.one()))
        T = L.to_theta()
        assert T.coeffs[2] == F1.one()
        assert T.coeffs[1] == F1.rational(-1)
        assert T.coeffs[0].is_exactly_zero()

    def test_apply_matches_across_forms(self):
        rng = random.Random(5)
        t = F1.gen(1)
        L = ScalarOperator(PARTIAL, (2 * t ** -1, F1.one() + t, F1.one()))
        T = L.to_theta()
        tm = t ** 2  # theta form applies t^m * L
        for _ in range(10):
            f = laurent(rng, -2, 4)
            assert T.apply(f).agrees_with(tm * L.apply(f))


class TestCyclicVector:
    def test_rank1_first_candidate(self):
        t = F1.gen(1)
        C = rank1_from_form(OneForm((t ** -1,)))
        s, cert, certified = find_cyclic_vector(C)
        assert s == (F1.one(),)
        assert certified.determinant.is_certainly_nonzero()

    def test_search_builds_no_determinant(self, monkeypatch):
        # the search hands back the certificate's forward pass, whose
        # determinant is built when first read
        calls = []
        build = linalg._determinant
        monkeypatch.setattr(linalg, "_determinant", lambda fac: calls.append(1) or build(fac))
        s, cert, certified = find_cyclic_vector(Connection.trivial(F1, 2))
        assert not calls
        assert certified is rank_kernel_det(cert) and certified.rank == 2
        det = certified.determinant
        assert len(calls) == 1 and certified.determinant is det and det.agrees_with(1)

    def test_trivial_rank2_certificate(self):
        C = Connection.trivial(F1, 2)
        s, cert, certified = find_cyclic_vector(C)
        t = F1.gen(1)
        assert s == (F1.one(), t)
        # certificate [[1, 0], [t, 1]] has determinant 1
        assert certified.determinant.agrees_with(1)

    def test_e1_not_cyclic_for_trivial(self):
        C = Connection.trivial(F1, 2)
        s = (F1.one(), F1.zero())
        M = SeriesMatrix([[s[0], F1.zero()], [s[1], F1.zero()]])
        from higherlocal.linalg import rank_kernel_det

        assert rank_kernel_det(M).rank < 2

    def test_scalar_operator_trivial_rank1(self):
        C = Connection.trivial(F1, 1)
        s, cert, _ = find_cyclic_vector(C)
        L = to_scalar_operator(C, s, cert)
        assert L.order == 1
        assert L.coeffs[0].is_exactly_zero()  # L = d/dt

    def test_scalar_operator_regular_singular(self):
        t = F1.gen(1)
        alpha = Fraction(1, 2)
        C = rank1_from_form(OneForm((alpha * t ** -1,)))
        L = to_scalar_operator(C, (F1.one(),))
        # flat sections solve f' + (alpha/t) f = 0
        assert L.coeffs[0].agrees_with(alpha * t ** -1)

    def test_scalar_operator_trivial_rank2(self):
        C = Connection.trivial(F1, 2)
        s, cert, _ = find_cyclic_vector(C)
        L = to_scalar_operator(C, s, cert)
        assert L.order == 2
        assert L.coeffs[0].is_exactly_zero()
        assert L.coeffs[1].is_exactly_zero()

    def test_annihilates_flat_coordinates(self):
        # for d + A with A = [[0,1],[0,0]], flat sections are (c1 - c2 t, c2)...
        # check instead that L kills the top coordinate of actual flat sections
        t = F1.gen(1)
        C = Connection(F1, [m1([[0, 1], [0, 0]])])
        # flat: f' + A f = 0 -> f2' = 0, f1' + f2 = 0 -> f = (c1 - c2 t, c2)
        s, cert, _ = find_cyclic_vector(C)
        L = to_scalar_operator(C, s, cert)
        # the flat-section coordinate g = f_{r-1} in the nabla-frame of s;
        # sanity: L has order 2 and kills constants' coordinate expression
        assert L.order == 2


class TestNewtonPolygon:
    def test_euler_plus_constant(self):
        L = ScalarOperator(THETA, (F1.rational(Fraction(-1, 2)), F1.one()))
        np_ = newton_polygon(L)
        assert np_.irregularity == 0
        assert [s for s, _ in np_.slopes] == [Fraction(0)]

    def test_slope_one(self):
        t = F1.gen(1)
        L = ScalarOperator(THETA, (-(t ** -1), F1.one()))
        np_ = newton_polygon(L)
        assert np_.points == ((0, -1), (1, 0))
        assert np_.irregularity == 1
        assert np_.slopes == ((Fraction(1), 1),)

    def test_mixed_slopes(self):
        t = F1.gen(1)
        L = ScalarOperator(THETA, (t ** -1, t ** -1, F1.one()))
        np_ = newton_polygon(L)
        assert np_.points == ((0, -1), (1, -1), (2, 0))
        assert sorted(s for s, _ in np_.slopes) == [Fraction(0), Fraction(1)]
        assert np_.irregularity == 1

    def test_exponential_model(self):
        # d + d(t^-m) has irregularity m
        t = F1.gen(1)
        for m in (1, 2, 3):
            omega = OneForm(((t ** (-m)).derive(1),))
            C = rank1_from_form(omega)
            assert connection_irregularity(C) == m

    def test_regular_singular_zero(self):
        t = F1.gen(1)
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-3, 4)):
            C = rank1_from_form(OneForm((alpha * t ** -1,)))
            assert connection_irregularity(C) == 0

    def test_fractional_slope_total_integral(self):
        # D^2 + t^-3 has a single edge of slope 1/2 over length 2: irr = 1
        t = F1.gen(1)
        L = ScalarOperator(PARTIAL, (t ** -3, F1.zero(), F1.one()))
        np_ = newton_polygon(L)
        assert np_.irregularity == 1
        assert np_.slopes[-1][0] == Fraction(1, 2)

    def test_scaling_invariance(self):
        # irregularity is invariant under t -> c t
        t = F1.gen(1)
        for c in (2, 3):
            # operator d + d(t^-2): coefficient -2 t^-3 -> scaled -2 c^-2 (ct)^-3...
            # build directly by substituting in the connection matrix
            A = (t ** -2).derive(1)
            A_scaled = TowerElement(
                1,
                {e: coef * Fraction(c) ** e for e, coef in A.coeffs.items()},
                None,
                True,
            ) * Fraction(c)
            # d/d(ct) = (1/c) d/dt accounts for the extra factor c
            C = rank1_from_form(OneForm((A_scaled,)))
            assert connection_irregularity(C) == 2


class TestSolutionBound:
    def test_random_connections_cyclic(self):
        rng = random.Random(2024)
        for _ in range(25):
            r = rng.randint(1, 3)
            rows = []
            for _ in range(r):
                rows.append([laurent(rng, -2, 2, density=0.5) for _ in range(r)])
            C = Connection(F1, [SeriesMatrix(rows)])
            s, cert, certified = find_cyclic_vector(C, seed=7)
            assert certified.determinant.is_certainly_nonzero()
            L = to_scalar_operator(C, s, cert)
            assert L.order == r


# -- the precision ladder of connection_irregularity -----------------------------


@contextmanager
def precision(n):
    old = set_working_precision(n)
    try:
        yield
    finally:
        set_working_precision(old)


@contextmanager
def recorded_rungs():
    """Record [precision, accepted vector or None] for each cyclic-vector search."""
    rungs = []
    find = dmodule.find_cyclic_vector

    def recorded(*args, **kwargs):
        rung = [working_precision(), None]
        rungs.append(rung)
        found = find(*args, **kwargs)
        rung[1] = found[0]
        return found

    dmodule.find_cyclic_vector = recorded
    try:
        yield rungs
    finally:
        dmodule.find_cyclic_vector = find


@contextmanager
def counted_candidates():
    counts = []
    candidates = dmodule._candidate_vectors

    def counted(*args, **kwargs):
        for cand in candidates(*args, **kwargs):
            counts.append(1)
            yield cand

    dmodule._candidate_vectors = counted
    try:
        yield counts
    finally:
        dmodule._candidate_vectors = candidates


def full_route(C, prec):
    """("ok", irregularity, vector) of the route at ``prec`` terms, or the error."""
    with precision(prec):
        try:
            s, cert, _ = find_cyclic_vector(C)
            return ("ok", newton_polygon(to_scalar_operator(C, s, cert)).irregularity, s)
        except HigherLocalError as exc:
            return ("error", type(exc).__name__, str(exc))


def ladder_route(C, prec):
    """The same triple through connection_irregularity, with its rungs.

    A rank-1 connection over one variable is read off its entry: no rung
    runs, and the vector is None."""
    with precision(prec), recorded_rungs() as rungs:
        try:
            got = ("ok", connection_irregularity(C), None)
        except HigherLocalError as exc:
            got = ("error", type(exc).__name__, str(exc))
        assert working_precision() == prec
    if got[0] == "ok" and rungs:
        got = got[:2] + (rungs[-1][1],)
    return got, rungs


def assert_ladder_matches_full_route(C, prec):
    """The ladder's triple is the full route's; at rank 1 no rung runs and
    the integer or the error is compared.  Returns the ladder's triple."""
    got, rungs = ladder_route(C, prec)
    want = full_route(C, prec)
    if C.rank == 1:
        assert rungs == []
        if want[0] == "ok":
            want = want[:2] + (None,)
    assert got == want
    return got


def spec_connection(rows):
    """The connection of a one-variable epsilon spec with matrix ``rows``."""
    matrix = ", ".join("[" + ", ".join(f'"{x}"' for x in row) + "]" for row in rows)
    text = (
        "[field]\nn = 1\n\n[connection]\n"
        f"rank = {len(rows)}\nA1 = [{matrix}]\n\n[task]\ncommand = epsilon\n"
    )
    return parse_specfile(text).connection


# d + d(t^-1) (+) d - d(t^-2) moved by the gauges [[1, t^-4], [0, 1]] and then
# [[1, 0], [t^-3, 1]]: irregularity 3; 8 terms do not certify the polygon
NEEDS_RUNG_16 = [
    ["-2*t1^-10 - t1^-9 - 4*t1^-8 - t1^-2", "2*t1^-7 + t1^-6 + 4*t1^-5"],
    [
        "-2*t1^-13 - t1^-12 - 4*t1^-11 - 2*t1^-6 - t1^-5 + 3*t1^-4",
        "2*t1^-10 + t1^-9 + 4*t1^-8 + 2*t1^-3",
    ],
]

# the same sum under [[1, t^-8], [0, 1]] and then [[1, 0], [t^-8, 1]]:
# 16 terms do not certify the polygon, 20 do
NEEDS_MORE_THAN_16 = [
    ["-2*t1^-19 - t1^-18 - 8*t1^-17 - t1^-2", "2*t1^-11 + t1^-10 + 8*t1^-9"],
    [
        "-2*t1^-27 - t1^-26 - 8*t1^-25 - 2*t1^-11 - t1^-10 + 8*t1^-9",
        "2*t1^-19 + t1^-18 + 8*t1^-17 + 2*t1^-3",
    ],
]

# a gauged rank-3 sum of irregularity 2 whose first candidate (1, t, t^2)
# has an undetermined certificate pivot at 8 and 16 terms; the search that
# skips it at 8 terms accepts (2 - t^2, -1, -2 - t^2) instead
FIRST_CANDIDATE_NEEDS_RUNG_32 = [
    ["t1^-2 - 2/3*t1^-1", "0", "0"],
    [
        "-t1^-1 - t1^5 + 23/3*t1^6",
        "t1^-20 + 13/2*t1^-13 - t1^-8 - t1^-7",
        "t1^-14 + 13/2*t1^-7 - t1^-1",
    ],
    [
        "t1^-7 + t1^-1 - 23/3 - t1^5",
        "-t1^-26 - 13/2*t1^-19 + 2*t1^-14 + t1^-13 - 11/2*t1^-7 - t1^-2",
        "-t1^-20 - 13/2*t1^-13 + t1^-8 + t1^-7 + 1/2*t1^-1",
    ],
]


def undetermined_candidates_connection():
    """[[t^-2 + O(t^2), 0], [O(t^-1), -1/t + t]]: the certificates of the
    first candidates stay undetermined at every precision, and the search
    at the working precision skips them to accept (t, 1)."""
    t = F1.gen(1)
    A = [
        [TowerElement(1, {-2: Fraction(1)}, 2, False), F1.zero()],
        [TowerElement.inexact_zero(1, -1), -(t ** -1) + t],
    ]
    return Connection(F1, [SeriesMatrix(A)])


def elementary_gauge(rank, factors):
    """The product g of the factors I + c t^k E_pq, and g^-1, exactly."""
    t = F1.gen(1)
    ident = [[F1.one() if i == j else F1.zero() for j in range(rank)] for i in range(rank)]
    g = g_inv = SeriesMatrix(ident)
    for p, q, k, c in factors:
        E = [row[:] for row in ident]
        E_inv = [row[:] for row in ident]
        E[p][q] = t ** k * c
        E_inv[p][q] = t ** k * (-c)
        g = g @ SeriesMatrix(E)
        g_inv = SeriesMatrix(E_inv) @ g_inv
    return g, g_inv


@st.composite
def exact_connections(draw):
    rank = draw(st.integers(1, 4))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    entry = st.dictionaries(st.integers(-4, 2), coeff, max_size=4)
    rows = [
        [
            TowerElement(1, {e: Fraction(c) for e, c in draw(entry).items()}, None, True)
            for _ in range(rank)
        ]
        for _ in range(rank)
    ]
    return Connection(F1, [SeriesMatrix(rows)])


@st.composite
def gauged_sums(draw):
    """Gauged sums of d + d(a t^-m) + alpha dt/t and their Kummer inductions
    (e = 2, 3, m prime to e), of rank at most 5, with their irregularity."""
    t = F1.gen(1)
    C, irr = None, 0
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.sampled_from((1, 1, 2, 3)))
        m = draw(st.sampled_from([m for m in (1, 2, 3) if e == 1 or m % e]))
        a = draw(st.sampled_from((-2, -1, 1, 2)))
        alpha = draw(st.sampled_from((0, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3))))
        piece = rank1_from_form(OneForm(((t ** -m * a).derive(1) + t ** -1 * alpha,)))
        if e > 1:
            piece = induct(piece, KummerCover(e))
        if C is not None and C.rank + piece.rank > 5:
            break
        C = piece if C is None else C.direct_sum(piece)
        irr += m
    if C.rank > 1:
        factor = st.tuples(
            st.integers(0, C.rank - 1),
            st.integers(0, C.rank - 1),
            st.integers(-6, 6),
            st.sampled_from((-1, 1)),
        ).filter(lambda f: f[0] != f[1])
        C = C.gauge(*elementary_gauge(C.rank, draw(st.lists(factor, max_size=4))))
    return C, irr


class TestPrecisionLadder:
    """connection_irregularity on 8, 16, 32, ... terms against the full route."""

    @settings(deadline=None, max_examples=40)
    @given(exact_connections(), st.sampled_from((32, 64)))
    def test_exact_connections_match_full_route(self, C, prec):
        assert_ladder_matches_full_route(C, prec)

    @settings(deadline=None, max_examples=25)
    @given(gauged_sums(), st.sampled_from((32, 64)))
    def test_gauged_sums_match_full_route(self, case, prec):
        C, irr = case
        got = assert_ladder_matches_full_route(C, prec)
        assert got[1] == irr

    def test_pinned_spec_needs_rung_16(self):
        C = spec_connection(NEEDS_RUNG_16)
        t = F1.gen(1)
        got, rungs = ladder_route(C, 32)
        assert got == ("ok", 3, (F1.one(), t)) == full_route(C, 32)
        # rung 8 accepts the same vector, then cannot certify the polygon
        assert rungs == [[8, (F1.one(), t)], [16, (F1.one(), t)]]

    def test_last_rung_is_the_working_precision(self):
        C = spec_connection(NEEDS_MORE_THAN_16)
        got, rungs = ladder_route(C, 20)
        assert got == full_route(C, 20)
        assert got[1] == 3
        assert [p for p, _ in rungs] == [8, 16, 20]
        got, rungs = ladder_route(C, 32)
        assert [p for p, _ in rungs] == [8, 16, 32]
        got, rungs = ladder_route(C, 6)
        assert got == full_route(C, 6)
        assert [p for p, _ in rungs] == [6]

    def test_undetermined_pivot_ends_a_rung(self):
        C = spec_connection(FIRST_CANDIDATE_NEEDS_RUNG_32)
        t = F1.gen(1)
        with counted_candidates() as counts:
            got, rungs = ladder_route(C, 32)
        assert got == ("ok", 2, (F1.one(), t, t ** 2)) == full_route(C, 32)
        assert rungs == [[8, None], [16, None], [32, (F1.one(), t, t ** 2)]]
        # each rung drew only the first candidate
        assert len(counts) == 3

    def test_last_rung_skips_undetermined_candidates(self):
        C = undetermined_candidates_connection()
        got, rungs = ladder_route(C, 32)
        assert got == ("ok", 1, (F1.gen(1), F1.one())) == full_route(C, 32)
        assert [p for p, _ in rungs] == [8, 16, 32]

    def test_precision_restored_after_success_and_raise(self):
        C = spec_connection(NEEDS_RUNG_16)
        with precision(32):
            assert connection_irregularity(C) == 3
            assert working_precision() == 32
        # an unknown leading term at every rung: the working precision's error
        undetermined = Connection(F1, [SeriesMatrix([[TowerElement.inexact_zero(1, -1)]])])
        with precision(32):
            with pytest.raises(UndeterminedLeadingTerm) as raised:
                connection_irregularity(undetermined)
            assert working_precision() == 32
        assert ("error", "UndeterminedLeadingTerm", str(raised.value)) == full_route(
            undetermined, 32
        )
        # and a later search at the working precision skips undetermined pivots
        with precision(32):
            s, _, _ = find_cyclic_vector(undetermined_candidates_connection())
        assert s == (F1.gen(1), F1.one())


@st.composite
def rank_one_entries(draw):
    """Exact Laurent polynomials, truncated series, exact and inexact zeros,
    with poles down to t^-40."""
    kind = draw(st.sampled_from(("exact", "truncated", "exact zero", "inexact zero")))
    if kind == "exact zero":
        return F1.zero()
    if kind == "inexact zero":
        return TowerElement.inexact_zero(1, draw(st.integers(-40, 8)))
    coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    coeffs = draw(st.dictionaries(st.integers(-40, 8), coeff, min_size=1, max_size=6))
    if kind == "exact":
        return TowerElement(1, coeffs, None, True)
    return TowerElement(1, coeffs, draw(st.integers(-40, 10)), False)


class TestRankOneReading:
    """d + a dt over one variable: the irregularity read off a."""

    @settings(deadline=None, max_examples=150)
    @given(rank_one_entries(), st.sampled_from((8, 32, 64)))
    def test_matches_full_route(self, a, prec):
        C = Connection(F1, [SeriesMatrix([[a]])])
        got = assert_ladder_matches_full_route(C, prec)
        # no cyclic vector is searched for
        with counted_candidates() as counts:
            ladder_route(C, prec)
        assert not counts
        if got[0] == "error":
            why = "window too small to certify the leading term"
            assert got[1:] == ("UndeterminedLeadingTerm", why)
        elif not a.is_exactly_zero():
            assert got[1] == max(0, -a.valuation() - 1)

    def test_pinned_readings(self):
        t = F1.gen(1)
        for a, irr in ((F1.zero(), 0), (t ** -1 * 5, 0), (t ** -40 + t, 39), (t ** 3, 0)):
            assert connection_irregularity(Connection(F1, [SeriesMatrix([[a]])])) == irr

    def test_two_variables_keep_the_search_error(self):
        C = Connection.trivial(TowerField(2), 1)
        with precision(32):
            with pytest.raises(ValueError, match="runs over the one-variable field"):
                connection_irregularity(C)
            assert working_precision() == 32
