"""Connections: flatness, duals, sums, tensors, gauges, Kummer induction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higherlocal.connection import (
    Connection,
    EdgeOperator,
    KummerCover,
    induct,
    kummer_pullback,
    rank1_from_form,
    regular_representation,
)
from higherlocal.errors import InsufficientPrecision, NotFlat
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import OneForm, TowerElement, TowerField

F1 = TowerField(1)
F2 = TowerField(2)


def m1(entries):
    return SeriesMatrix([[x if isinstance(x, TowerElement) else F1.rational(x) for x in r] for r in entries])


def m2(entries):
    return SeriesMatrix([[x if isinstance(x, TowerElement) else F2.rational(x) for x in r] for r in entries])


def random_sections(rng, field, rank, count, span=(-2, 3)):
    out = []
    for _ in range(count):
        vec = []
        for _ in range(rank):
            coeffs = {
                e: Fraction(rng.randint(-3, 3))
                for e in range(*span)
                if rng.random() < 0.7
            }
            if field.level == 2:
                coeffs = {
                    e: TowerElement(1, {j: Fraction(rng.randint(-2, 2)) for j in range(-1, 2)}, None, True)
                    for e in range(*span)
                    if rng.random() < 0.7
                }
            vec.append(TowerElement(field.level, coeffs, None, True))
        out.append(tuple(vec))
    return out


class TestFlatness:
    def test_level1_always_flat(self):
        t = F1.gen(1)
        C = Connection(F1, [m1([[t ** -2, 1], [0, t ** -1]])])
        assert C.check_flatness().flat

    def test_flat_two_variable_example(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        A1 = m2([[0, t2], [0, 0]])
        A2 = m2([[0, t1], [0, 0]])
        C = Connection(F2, [A1, A2])
        assert C.check_flatness().flat

    def test_curved_witness(self):
        t2 = F2.gen(2)
        A1 = m2([[0, t2], [0, 0]])
        A2 = m2([[0, 0], [0, 0]])
        C = Connection(F2, [A1, A2])
        rep = C.check_flatness()
        assert not rep.flat
        assert rep.witness[:2] == (1, 2)

    def test_rank1_from_form_rejects_non_closed(self):
        t2 = F2.gen(2)
        with pytest.raises(NotFlat):
            rank1_from_form(OneForm((t2, F2.zero())))

    def test_rank1_regular_singular(self):
        t = F1.gen(1)
        C = rank1_from_form(OneForm((t ** -1,)))
        assert C.rank == 1
        assert C.matrices[0][0, 0] == t ** -1


@st.composite
def level2_entries(draw, exact):
    """A Laurent polynomial in t1, t2 with exponents in -2..2, often exactly
    zero; with ``exact`` False, its t2 window and its coefficients' t1
    windows are cut at drawn bounds."""
    inner = st.dictionaries(
        st.integers(-2, 2), st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, 3))), max_size=2
    )
    coeffs = {}
    for e, c in draw(st.dictionaries(st.integers(-2, 2), inner, max_size=3)).items():
        cut = exact or draw(st.booleans())
        coeffs[e] = TowerElement(1, c, None if cut else draw(st.integers(-1, 3)), cut)
    if exact:
        return TowerElement(2, coeffs, None, True)
    return TowerElement(2, coeffs, draw(st.integers(-1, 3)), False)


@st.composite
def level2_connections(draw):
    """Exact or truncated rank 1-3 connections over two variables: gauges of
    the trivial one by unipotent matrices, which are flat, and drawn ones."""
    exact, r = draw(st.booleans()), draw(st.integers(1, 3))
    entry = level2_entries(exact)
    if draw(st.booleans()):
        g = [[F2.one() if a == b else draw(entry) if a < b else F2.zero() for b in range(r)]
             for a in range(r)]
        return Connection.trivial(F2, r).gauge(SeriesMatrix(g))
    return Connection(F2, [SeriesMatrix([[draw(entry) for _ in range(r)] for _ in range(r)])
                           for _ in range(2)])


def chained_flatness(C):
    """The flatness gate on ``d_i A_j - d_j A_i + A_i A_j - A_j A_i``, each
    term a matrix operation, as it was checked before the commutator."""
    n = C.field.level
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            Ai, Aj = C.matrices[i - 1], C.matrices[j - 1]
            K = Aj.derive(i) - Ai.derive(j) + Ai @ Aj - Aj @ Ai
            for r, row in enumerate(K.entries):
                for c, x in enumerate(row):
                    if x.is_certainly_nonzero():
                        return False, (i, j, r, c)
                    if not x.is_exactly_zero() and x.hi <= x.lo and x.hi <= 0:
                        raise InsufficientPrecision(
                            "no window left to certify curvature vanishing"
                        )
    return True, None


def outcome(f):
    try:
        return f()
    except InsufficientPrecision as exc:
        return type(exc), str(exc)


class TestCommutator:
    """``[F, G]`` in closed form against composing the two operators."""

    def test_field_of_a_commutator(self):
        # [d_1, t1 d_2] = d_2, and [t1 d_1, t2 d_2] = 0
        one, zero, t1, t2 = F2.one(), F2.zero(), F2.gen(1), F2.gen(2)
        Z = m2([[0]])
        K = EdgeOperator((one, zero), Z).commutator(EdgeOperator((zero, t1), Z))
        assert K.cvec == (zero, one) and K.pmat == Z
        K = EdgeOperator((t1, zero), Z).commutator(EdgeOperator((zero, t2), Z))
        assert K.cvec == (zero, zero) and K.pmat == Z

    def test_matches_the_composite_on_sections(self):
        # F(G v) - G(F v) for exact rank-2 edges with non-commuting fields
        # and matrices, on random sections
        t1, t2 = F2.gen(1), F2.gen(2)
        F = EdgeOperator((t1 * t2, t2 ** -1), m2([[t1, 1], [t2 ** 2, 0]]))
        G = EdgeOperator((1 + t2, t1 ** 2), m2([[0, t1 * t2], [3, t2 ** -1]]))

        def apply(E, v):
            Pv = E.pmat.apply(v)
            return tuple(
                p + sum((c * x.derive(k) for k, c in enumerate(E.cvec, start=1)), F2.zero())
                for p, x in zip(Pv, v)
            )

        K = F.commutator(G)
        for v in random_sections(random.Random(5), F2, 2, 4):
            want = tuple(a - b for a, b in zip(apply(F, apply(G, v)), apply(G, apply(F, v))))
            assert apply(K, v) == want

    @settings(deadline=None, max_examples=150)
    @given(level2_connections())
    def test_flatness_reads_the_chained_curvature(self, C):
        # the commutator of the coordinate edges is the curvature entry by
        # entry, in value, window and exactness, and the gate's verdict,
        # witness or error is the chained formula's
        one, zero = F2.one(), F2.zero()
        A1, A2 = C.matrices
        K = EdgeOperator((one, zero), A1).commutator(EdgeOperator((zero, one), A2))
        chained = A2.derive(1) - A1.derive(2) + A1 @ A2 - A2 @ A1
        for got, want in zip(K.pmat.entries, chained.entries):
            assert [(x, x.hi, x.exact, hash(x)) for x in got] == [
                (x, x.hi, x.exact, hash(x)) for x in want
            ]
        assert all(c.is_exactly_zero() for c in K.cvec)

        def gate():
            rep = C.check_flatness()
            return rep.flat, rep.witness

        assert outcome(gate) == outcome(lambda: chained_flatness(C))


class TestFunctoriality:
    def test_dual_involutive(self):
        t = F1.gen(1)
        C = Connection(F1, [m1([[t ** -1, 1], [0, 2]])])
        D = C.dual().dual()
        assert all(a == b for a, b in zip(D.matrices, C.matrices))

    def test_dual_rank1_sign(self):
        t = F1.gen(1)
        alpha = Fraction(3, 2)
        C = rank1_from_form(OneForm((alpha * t ** -1,)))
        assert C.dual().matrices[0][0, 0] == -alpha * t ** -1

    def test_sum_and_tensor_ranks(self):
        t = F1.gen(1)
        C1 = rank1_from_form(OneForm((t ** -1,)))
        C2 = Connection.trivial(F1, 2)
        assert C1.direct_sum(C2).rank == 3
        assert C1.tensor(C2).rank == 2

    def test_rank1_tensor_adds_forms(self):
        t = F1.gen(1)
        a, b = Fraction(1, 2), Fraction(1, 3)
        C1 = rank1_from_form(OneForm((a * t ** -1,)))
        C2 = rank1_from_form(OneForm((b * t ** -1,)))
        T = C1.tensor(C2)
        assert T.rank == 1
        assert T.matrices[0][0, 0] == (a + b) * t ** -1

    def test_flatness_preserved_by_operations(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        A1 = m2([[0, t2], [0, 0]])
        A2 = m2([[0, t1], [0, 0]])
        C = Connection(F2, [A1, A2])
        D = rank1_from_form(OneForm((t1 ** -1, F2.zero())))
        for X in (C.dual(), C.direct_sum(D.direct_sum(D)), C.tensor(D)):
            assert X.check_flatness().flat

    def test_gauge_preserves_flatness(self):
        t = F1.gen(1)
        C = Connection(F1, [m1([[t ** -2, 1], [0, t ** -1]])])
        g = m1([[1, t], [0, 1]])
        assert C.gauge(g).check_flatness().flat

    def test_gauge_of_trivial_has_derivative_term(self):
        t = F1.gen(1)
        C = Connection.trivial(F1, 1)
        g = m1([[1 + t]])
        Cg = C.gauge(g)
        # A' = -(dg) g^{-1} = -1/(1+t)
        expected = -(F1.one() + t).invert(prec=8)
        assert Cg.matrices[0][0, 0].agrees_with(expected)


class TestPairing:
    def test_adjunction_identity_random(self):
        rng = random.Random(41)
        t = F1.gen(1)
        C = Connection(F1, [m1([[t ** -1, 1], [t, 0]])])
        for s in random_sections(rng, F1, 2, 10):
            for u in random_sections(rng, F1, 2, 2):
                defect = C.adjunction_defect(1, s, u)
                assert not defect.is_certainly_nonzero()

    def test_adjunction_level2(self):
        rng = random.Random(43)
        t1 = F2.gen(1)
        C = rank1_from_form(OneForm((t1 ** -1, F2.zero())))
        for s in random_sections(rng, F2, 1, 4):
            for u in random_sections(rng, F2, 1, 2):
                for i in (1, 2):
                    assert not C.adjunction_defect(i, s, u).is_certainly_nonzero()


class TestKummer:
    def test_regular_representation_of_s(self):
        s = F1.gen(1)
        blocks = regular_representation(s, 2)
        t = F1.gen(1)
        # multiplication by s on (1, s): 1 -> s, s -> s^2 = t
        assert blocks[0][0].is_exactly_zero()
        assert blocks[1][0] == F1.one()
        assert blocks[0][1] == t
        assert blocks[1][1].is_exactly_zero()

    def test_identity_cover(self):
        C = Connection.trivial(F1, 1)
        assert induct(C, KummerCover(1)) is C

    def test_trivial_rank1_e2(self):
        C = Connection.trivial(F1, 1)
        D = induct(C, KummerCover(2))
        assert D.rank == 2
        t = F1.gen(1)
        A = D.matrices[0]
        assert A[0, 0].is_exactly_zero()
        assert A[1, 1] == Fraction(1, 2) * t ** -1
        assert A[0, 1].is_exactly_zero()
        assert A[1, 0].is_exactly_zero()

    def test_rank_multiplies(self):
        t = F1.gen(1)
        C = Connection(F1, [m1([[t ** -1, 1], [0, 0]])])
        assert induct(C, KummerCover(2)).rank == 4
        assert induct(C, KummerCover(3)).rank == 6

    def test_induct_flat_level2(self):
        t1 = F2.gen(1)
        C = rank1_from_form(OneForm((t1 ** -1, F2.zero())))
        D = induct(C, KummerCover(2))
        assert D.rank == 2
        assert D.check_flatness().flat

    def test_pullback(self):
        t = F1.gen(1)
        f = 1 + t + t ** 3
        g = kummer_pullback(f, 2)
        assert g == 1 + t ** 2 + t ** 6

    def test_induct_commutes_with_direct_sum_invariants(self):
        t = F1.gen(1)
        C1 = rank1_from_form(OneForm((Fraction(1, 2) * t ** -1,)))
        C2 = Connection.trivial(F1, 1)
        K = KummerCover(2)
        left = induct(C1.direct_sum(C2), K)
        right = induct(C1, K).direct_sum(induct(C2, K))
        assert left.rank == right.rank
        assert left.check_flatness().flat and right.check_flatness().flat
