"""Epsilon degrees: values, additivity, gauge invariance, induction, duality."""

import random
from fractions import Fraction

import pytest

from higherlocal import epsilon
from higherlocal.connection import (
    Connection,
    KummerCover,
    induct,
    rank1_from_form,
)
from higherlocal.derham import FormTuple, standard_forms
from higherlocal.epsilon import (
    SignConvention,
    consistent_signs,
    epsilon_degree,
    pullback_form_tuple,
    verify_duality,
    verify_induction,
)
from higherlocal.errors import UnsupportedFrame
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import OneForm, TowerElement, TowerField
from test_acceptance import f1_catalog, f2_catalog, f2_form_tuples

F1 = TowerField(1)
F2 = TowerField(2)


def exp1(m=1):
    t = F1.gen(1)
    return rank1_from_form(OneForm(((t ** -m).derive(1),)))


def reg1(alpha):
    t = F1.gen(1)
    return rank1_from_form(OneForm((Fraction(alpha) * t ** -1,)))


def dt_form():
    return standard_forms(F1)


def dlog_form():
    t = F1.gen(1)
    return FormTuple((OneForm((t ** -1,)),))


def random_integral_gauge(rng, rank):
    t = F1.gen(1)
    rows = []
    for i in range(rank):
        row = []
        for j in range(rank):
            if i == j:
                entry = F1.one() + t * Fraction(rng.randint(-2, 2))
            else:
                coeffs = {
                    e: Fraction(rng.randint(-2, 2)) for e in range(0, 3)
                }
                entry = TowerElement(1, coeffs, None, True)
                if i < j and rng.random() < 0.5:
                    entry = F1.zero()
            row.append(entry)
        rows.append(row)
    g = SeriesMatrix(rows)
    # force unit determinant structure: make it triangular when degenerate
    from higherlocal.linalg import rank_kernel_det
    from higherlocal.errors import UndeterminedPivot

    try:
        res = rank_kernel_det(g)
        det = res.determinant
        if det.is_certainly_nonzero() and det.valuation() == 0:
            return g
    except UndeterminedPivot:
        pass
    rows = [
        [F1.one() if i == j else (t if i > j else F1.zero()) for j in range(rank)]
        for i in range(rank)
    ]
    return SeriesMatrix(rows)


class TestDegreeValues:
    def test_trivial_dt(self):
        rep = epsilon_degree(Connection.trivial(F1, 1), dt_form())
        assert rep.degree == 0
        assert rep.window_degree == 0
        assert rep.routes_agree

    def test_exponential_dt(self):
        rep = epsilon_degree(exp1(1), dt_form())
        assert rep.degree == -1
        assert rep.window_degree == -1
        assert rep.routes_agree

    def test_regular_dlog(self):
        rep = epsilon_degree(reg1(Fraction(1, 2)), dlog_form())
        assert rep.degree == 0
        assert rep.window_degree == 0
        assert rep.routes_agree

    def test_higher_irregularity(self):
        for m in (2, 3):
            assert epsilon_degree(exp1(m), dt_form()).degree == -m

    def test_trivial_level2(self):
        rep = epsilon_degree(Connection.trivial(F2, 1), standard_forms(F2))
        assert rep.degree == 0

    def test_inner_frame_component_must_be_outer_free(self):
        # 1/(2 t1) + O(t2): the t2^1 coefficient of nu1 is unknown
        inner = TowerElement(1, {-1: Fraction(1, 2)}, None, True)
        nu1 = OneForm((TowerElement(2, {0: inner}, 1, False), F2.zero()))
        nu = FormTuple((nu1, OneForm((F2.zero(), F2.one()))))
        with pytest.raises(UnsupportedFrame):
            epsilon_degree(Connection.trivial(F2, 1), nu)

    def test_exp_in_t1_level2(self):
        t1 = F2.gen(1)
        C = rank1_from_form(OneForm(((t1 ** -1).derive(1), F2.zero())))
        rep = epsilon_degree(C, standard_forms(F2))
        # both outer levels carry the same irregular inner connection
        assert rep.level_degrees == (-1, -1)
        assert rep.degree == 0

    def test_level2_rank2_direct_sum_additive(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        a = rank1_from_form(OneForm((Fraction(1, 2) * t1 ** -1, F2.zero())))
        b = rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2))))
        nu = standard_forms(F2)
        da = epsilon_degree(a, nu).degree
        db = epsilon_degree(b, nu).degree
        dsum = epsilon_degree(a.direct_sum(b), nu).degree
        assert dsum == da + db

    def test_level2_exp_in_t1_rank2(self):
        # rank-2 sum whose outer levels carry mixed inner connections
        t1 = F2.gen(1)
        exp_t1 = rank1_from_form(OneForm(((t1 ** -1).derive(1), F2.zero())))
        C = exp_t1.direct_sum(Connection.trivial(F2, 1))
        rep = epsilon_degree(C, standard_forms(F2))
        assert rep.level_degrees == (-1, -1)
        assert rep.degree == 0


class TestAdditivity:
    def test_direct_sums(self):
        rng = random.Random(31)
        pieces = [
            Connection.trivial(F1, 1),
            reg1(Fraction(1, 2)),
            reg1(1),
            reg1(2),
            reg1(Fraction(-3, 4)),
            exp1(1),
            exp1(2),
            exp1(3),
        ]
        nu = dt_form()
        for _ in range(30):
            a, b = rng.choice(pieces), rng.choice(pieces)
            da = epsilon_degree(a, nu).degree
            db = epsilon_degree(b, nu).degree
            dsum = epsilon_degree(a.direct_sum(b), nu).degree
            assert dsum == da + db

    def test_block_extensions(self):
        nu = dt_form()
        combos = [
            (Connection.trivial(F1, 1), exp1(1)),
            (exp1(2), reg1(Fraction(1, 2))),
            (reg1(1), exp1(1)),
        ]
        for top, bottom in combos:
            a = top.matrices[0][0, 0]
            b = bottom.matrices[0][0, 0]
            ext = Connection(
                F1,
                [SeriesMatrix([[a, F1.one()], [F1.zero(), b]])],
            )
            d_ext = epsilon_degree(ext, nu).degree
            d_sum = (
                epsilon_degree(top, nu).degree + epsilon_degree(bottom, nu).degree
            )
            assert d_ext == d_sum

    def test_gauge_invariance(self):
        rng = random.Random(77)
        nu = dt_form()
        catalog = [
            Connection.trivial(F1, 2),
            exp1(1).direct_sum(Connection.trivial(F1, 1)),
            exp1(2).direct_sum(reg1(Fraction(1, 2))),
        ]
        for C in catalog:
            base = epsilon_degree(C, nu).degree
            for _ in range(7):
                g = random_integral_gauge(rng, C.rank)
                assert epsilon_degree(C.gauge(g), nu).degree == base


class TestInduction:
    def test_identity_cover(self):
        ok, up, down = verify_induction(
            Connection.trivial(F1, 1), KummerCover(1), dt_form()
        )
        assert ok and up == down == 0

    def test_trivial_e2(self):
        ok, up, down = verify_induction(
            Connection.trivial(F1, 1), KummerCover(2), dt_form()
        )
        assert ok
        assert up == 0 and down == 0

    def test_exponential_upstairs(self):
        # d + d(1/s) over the cover, e = 2: both sides must agree
        ok, up, down = verify_induction(exp1(1), KummerCover(2), dt_form())
        assert ok
        assert up == down == -1

    def test_builds_no_lattice_probe(self, monkeypatch):
        # both sides are certified degrees: the windowed route, whose
        # reports the comparison would discard, is not run
        calls = []
        probe = epsilon.operator_index

        def counted(*args, **kwargs):
            calls.append(1)
            return probe(*args, **kwargs)

        monkeypatch.setattr(epsilon, "operator_index", counted)
        assert verify_induction(exp1(1), KummerCover(2), dt_form()) == (True, -1, -1)
        assert calls == []

    def test_full_grid(self):
        nu = dt_form()
        upstairs = [Connection.trivial(F1, 1), reg1(Fraction(1, 2)), exp1(1)]
        for e in (1, 2, 3):
            for C in upstairs:
                ok, up, down = verify_induction(C, KummerCover(e), nu)
                assert ok, (e, up, down)


class TestDuality:
    def test_single_sign_fits_catalog(self):
        nu = dt_form()
        nlog = dlog_form()
        instances = [
            (Connection.trivial(F1, 1), nu),
            (reg1(Fraction(1, 2)), nlog),
            (reg1(2), nu),
            (exp1(1), nu),
            (exp1(2), nu),
            (exp1(1).direct_sum(reg1(1)), nu),
        ]
        signs = consistent_signs(instances)
        assert signs == (1,)

    def test_duality_level2(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        nu2 = standard_forms(F2)
        instances = [
            Connection.trivial(F2, 1),
            rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2)))),
            rank1_from_form(
                OneForm((Fraction(1, 2) * t1 ** -1, Fraction(1, 3) * t2 ** -1))
            ),
        ]
        sigma = SignConvention(1)
        for C in instances:
            ok, lhs, rhs = verify_duality(C, nu2, sigma)
            assert ok

    def test_compares_the_certified_degrees(self):
        # the duality check skips the windowed route, and its two sides are
        # the degrees epsilon_degree certifies for the dual and for C
        pieces, extensions = f1_catalog()
        cases = [(C, nu) for C in pieces + extensions for nu in (dt_form(), dlog_form())]
        cases += [(C, nu) for C in f2_catalog() for nu in f2_form_tuples()]
        for C, nu in cases:
            dual = epsilon_degree(C.dual(), -nu).degree
            degree = epsilon_degree(C, nu).degree
            for sign in (1, -1):
                assert verify_duality(C, nu, SignConvention(sign)) == (
                    dual == sign * degree, dual, sign * degree,
                )

    def test_pullback_scaling(self):
        nu = dt_form()
        up = pullback_form_tuple(nu, KummerCover(3))
        # dt pulls back to 3 s^2 ds
        comp = up.forms[0].components[0]
        assert comp == 3 * F1.gen(1) ** 2
