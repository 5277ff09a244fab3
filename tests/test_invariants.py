"""Cross-module property suites tied to the documented invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higherlocal.connection import (
    Connection,
    KummerCover,
    induct,
    rank1_from_form,
)
from higherlocal.derham import cohomology_dims
from higherlocal.dmodule import connection_irregularity
from higherlocal.epsilon import epsilon_degree
from higherlocal.derham import standard_forms
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import OneForm, TowerElement, TowerField
from higherlocal.tate import MatrixDiffOp, operator_index
from helpers import from_scalar, probe_entries

F1 = TowerField(1)


def reg(alpha):
    t = F1.gen(1)
    return rank1_from_form(OneForm((Fraction(alpha) * t ** -1,)))


def expm(m):
    t = F1.gen(1)
    return rank1_from_form(OneForm(((t ** -m).derive(1),)))


def extension(top, bottom):
    a = top.matrices[0][0, 0]
    b = bottom.matrices[0][0, 0]
    return Connection(F1, [SeriesMatrix([[a, F1.one()], [F1.zero(), b]])])


def rank2_catalog():
    triv = Connection.trivial(F1, 1)
    return [
        triv.direct_sum(triv),
        reg(Fraction(1, 2)).direct_sum(expm(1)),
        extension(triv, expm(2)),
        extension(reg(1), reg(Fraction(-3, 4))),
        expm(1).direct_sum(expm(1)),
    ]


class TestDualInvariants:
    def test_dual_preserves_irregularity(self):
        subjects = [
            Connection.trivial(F1, 1),
            reg(Fraction(1, 2)),
            reg(2),
            expm(1),
            expm(3),
        ] + rank2_catalog()
        for C in subjects:
            assert connection_irregularity(C.dual()) == connection_irregularity(C)

    def test_dual_pairing_dims_regular_part(self):
        # dim H^0(C) = dim H^1(dual C) on the regular-singular subcatalog,
        # where the windowed dimensions coincide with the formal ones
        subjects = [
            Connection.trivial(F1, 1),
            reg(Fraction(1, 2)),
            reg(1),
            reg(2),
            reg(Fraction(-3, 4)),
            Connection.trivial(F1, 1).direct_sum(reg(1)),
        ]
        for C in subjects:
            h0 = cohomology_dims(C).dims[0]
            h1_dual = cohomology_dims(C.dual()).dims[1]
            assert h0 == h1_dual


class TestInductionInvariants:
    def test_induct_commutes_with_direct_sum(self):
        nu = standard_forms(F1)
        pairs = [
            (Connection.trivial(F1, 1), reg(Fraction(1, 2))),
            (expm(1), Connection.trivial(F1, 1)),
            (reg(2), expm(1)),
        ]
        for e in (2, 3):
            K = KummerCover(e)
            for a, b in pairs:
                left = induct(a.direct_sum(b), K)
                right = induct(a, K).direct_sum(induct(b, K))
                assert left.rank == right.rank
                assert connection_irregularity(left) == connection_irregularity(right)
                assert cohomology_dims(left).dims == cohomology_dims(right).dims
                assert (
                    epsilon_degree(left, nu).degree
                    == epsilon_degree(right, nu).degree
                )


class TestGaugeInvariants:
    def test_cohomology_dims_gauge_invariant(self):
        rng = random.Random(99)
        t = F1.gen(1)
        subjects = rank2_catalog()
        for C in subjects:
            base = cohomology_dims(C).dims
            for _ in range(4):
                kind = rng.random()
                if kind < 0.5:
                    # constant invertible mixing
                    while True:
                        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
                        if a * d - b * c != 0:
                            break
                    g = SeriesMatrix(
                        [
                            [F1.rational(a), F1.rational(b)],
                            [F1.rational(c), F1.rational(d)],
                        ]
                    )
                else:
                    # unipotent with polynomial entries (exact inverse)
                    p = TowerElement(
                        1,
                        {
                            e: Fraction(rng.randint(-2, 2))
                            for e in range(0, 3)
                        },
                        None,
                        True,
                    )
                    g = SeriesMatrix([[F1.one(), p], [F1.zero(), F1.one()]])
                got = cohomology_dims(C.gauge(g)).dims
                assert got == base, (base, got)


def diagonal(entries):
    r = len(entries)
    return SeriesMatrix([[entries[i] if i == j else F1.zero() for j in range(r)] for i in range(r)])


def elementary(r, i, j, c):
    """The identity plus ``c`` at (i, j), i != j."""
    rows = [[F1.one() if a == b else F1.zero() for b in range(r)] for a in range(r)]
    rows[i][j] = F1.rational(c)
    return SeriesMatrix(rows)


@st.composite
def gauged_presentations(draw):
    """An exact presentation, a normalizer and a gauge with its inverse.

    Rank 1-3, entries t^-3 .. t^1 with coefficients +-1 .. +-3 at density
    1/2, the 1-form dt or dt/t; the gauge is a shear diag(t^a) with a in
    {-2..2}^r, or a product of two constant elementary matrices.
    """
    r = draw(st.integers(1, 3))
    t = F1.gen(1)
    coefficient = st.sampled_from((0,) * 6 + (-3, -2, -1, 1, 2, 3))
    A = SeriesMatrix(
        [
            [sum((draw(coefficient) * t ** k for k in range(-3, 2)), F1.zero()) for _ in range(r)]
            for _ in range(r)
        ]
    )
    h = draw(st.sampled_from((F1.one(), t ** -1)))
    if r == 1 or draw(st.booleans()):
        a = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        g = diagonal([t ** k for k in a])
        g_inv = diagonal([t ** -k for k in a])
    else:
        pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
        (i, j), (k, l) = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2))
        c, d = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=2, max_size=2))
        g = elementary(r, i, j, c) @ elementary(r, k, l, d)
        g_inv = elementary(r, k, l, -d) @ elementary(r, i, j, -c)
    return Connection(F1, [A]), h, g, g_inv


class TestWindowedGaugeInvariance:
    """The windowed degree and h0 are invariants of the connection: a gauge
    change moves neither.  Only the window route is read."""

    @settings(deadline=None, max_examples=40)
    @given(gauged_presentations())
    def test_degree_and_h0_do_not_move(self, case):
        C, h, g, g_inv = case
        before = operator_index(MatrixDiffOp.from_connection(C, normalizer=h))
        after = operator_index(MatrixDiffOp.from_connection(C.gauge(g, g_inv), normalizer=h))
        assert before.stabilized and after.stabilized
        # h0 is the kernel of d/dt + A, whatever the normalizer
        assert (after.index, after.ker_dim) == (before.index, before.ker_dim)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "a draw the property once hit: the windows settle at w = 12 with (ker, coker) = "
            "(0, 1) before the shear and at w = 16 with (1, 3) after it, though the certified "
            "irregularity is 2 on both, so a settle stops short (ROADMAP items 1 and 14)"
        ),
    )
    def test_saved_draw_does_not_move(self):
        t, one, zero = F1.gen(1), F1.one(), F1.zero()
        A = SeriesMatrix([[-t ** -3, t ** -3 + 3 * t ** -2], [-3 * t ** -2, 3 * t ** -2 - 3 * t ** -1]])
        C = Connection(F1, [A])
        g, g_inv = diagonal([one, t ** -1]), diagonal([one, t])
        before = operator_index(MatrixDiffOp.from_connection(C, normalizer=one))
        after = operator_index(MatrixDiffOp.from_connection(C.gauge(g, g_inv), normalizer=one))
        assert before.stabilized and after.stabilized
        assert (after.index, after.ker_dim) == (before.index, before.ker_dim)


class TestWindowComposition:
    def test_window_matrix_of_composition(self):
        # multiplication by t followed by d/dt, on compatible probes: t
        # maps [-3, 3) into [-2, 4), the sources of the d/dt probe, whose
        # targets [-3, 3) are those of t d/dt + 1 on [-3, 3)
        t = F1.gen(1)
        mul_t = MatrixDiffOp(1, {0: SeriesMatrix([[t]])})
        ddt = from_scalar([F1.zero(), F1.one()])
        composed = MatrixDiffOp.first_order(t, SeriesMatrix([[F1.one()]]))  # t d/dt + 1

        b = probe_entries(mul_t, 3, 4)  # delta = 1: [-3, 3) to [-2, 4)
        a = probe_entries(ddt, 2, 3)  # delta = -1: [-2, 4) to [-3, 3)
        W = probe_entries(composed, 3, 3)  # delta = 0: [-3, 3) to [-3, 3)
        prod = {}
        for (k, j), y in b.items():
            for (i, k2), x in a.items():
                if k2 == k:
                    prod[i, j] = prod.get((i, j), 0) + x * y
        assert W == {key: q for key, q in prod.items() if q}
