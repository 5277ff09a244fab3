"""Connections: flatness, duals, sums, tensors, gauges, Kummer induction."""

import random
from fractions import Fraction

import pytest

from higherlocal.connection import (
    Connection,
    KummerCover,
    induct,
    kummer_pullback,
    rank1_from_form,
    regular_representation,
)
from higherlocal.errors import NotFlat
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
