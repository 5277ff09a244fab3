"""Tower series arithmetic: windows, inversion, derivations, residues."""

import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from higherlocal import series
from higherlocal.errors import (
    InsufficientPrecision,
    LevelMismatch,
    UndeterminedLeadingTerm,
    ZeroDivisionSeries,
)
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import (
    OneForm,
    TowerElement,
    TowerField,
    exterior_derivative,
    residue,
)

F1 = TowerField(1)
F2 = TowerField(2)


def random_element(rng, field, lo=-3, hi=4, density=0.7, exact=True, inner_span=None):
    """A random Laurent polynomial (exact) over the field."""
    level = field.level
    if inner_span is None:
        inner_span = (lo, hi)

    def build(lvl):
        coeffs = {}
        span = (lo, hi) if lvl == level else inner_span
        for e in range(span[0], span[1]):
            if rng.random() > density:
                continue
            if lvl == 1:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            else:
                c = build(lvl - 1)
            coeffs[e] = c
        return TowerElement(lvl, coeffs, None, True)

    el = build(level)
    if not exact:
        el = el.truncate(hi - 1)
    return el


class TestBasicArithmetic:
    def test_polynomial_identity(self):
        t = F1.gen(1)
        assert (1 + t) * (1 - t) == 1 - t * t + F1.zero()
        prod = (F1.one() + t) * (F1.one() - t)
        assert prod.exact
        assert prod.coeffs == {0: Fraction(1), 2: Fraction(-1)}

    def test_monomial_cancellation(self):
        t = F1.gen(1)
        assert (t ** -1 * t) == F1.one()

    def test_truncated_product_window(self):
        t = F1.gen(1)
        a = F1.one().truncate(3)  # 1 + O(t^3)
        p = a * t
        assert not p.exact
        assert p.hi == 4
        assert p.coeffs == {1: Fraction(1)}

    def test_addition_window_intersection(self):
        t = F1.gen(1)
        a = (1 + t).truncate(5)
        b = (t ** -2).truncate(2)
        s = a + b
        assert s.hi == 2
        assert s.coeffs == {-2: Fraction(1), 0: Fraction(1), 1: Fraction(1)}

    def test_level_mismatch_raises(self):
        with pytest.raises(LevelMismatch):
            F1.gen(1) * F2.gen(2)

    def test_scalar_mixing(self):
        t = F1.gen(1)
        assert (Fraction(1, 2) * t + t / 2) == t
        assert (3 - t) + t == F1.rational(3)


class TestInversion:
    def test_geometric_series(self):
        t = F1.gen(1)
        inv = (F1.one() - t).invert(prec=6)
        for e in range(6):
            assert inv.coefficient(e) == 1
        assert inv.hi == 6 and not inv.exact

    def test_valuation_negated(self):
        t = F1.gen(1)
        a = t ** 2 * (1 + t)
        assert a.invert().valuation() == -2

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionSeries):
            F1.zero().invert()

    def test_undetermined_leading_term(self):
        fuzzy = TowerElement.inexact_zero(1, 2)  # O(t^2)
        with pytest.raises(UndeterminedLeadingTerm):
            fuzzy.invert()

    def test_monomial_inverse_exact(self):
        t = F1.gen(1)
        inv = (2 * t ** 3).invert()
        assert inv.exact
        assert inv.coeffs == {-3: Fraction(1, 2)}

    def test_two_sided_inverse_random(self):
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            a = random_element(rng, F1)
            if not a.is_certainly_nonzero():
                continue
            inv = a.invert(prec=12)
            assert (a * inv).agrees_with(1)
            assert (inv * a).agrees_with(1)
            checked += 1

    def test_level2_inverse(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        a = t1 + t2  # unit with leading coefficient t1 at t2^0
        inv = a.invert(prec=8)
        assert (a * inv).agrees_with(1)


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_element(rng, F1)
            b = random_element(rng, F1)
            c = random_element(rng, F1)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_level2_ring_axioms_windowed(self):
        rng = random.Random(13)
        for _ in range(25):
            a = random_element(rng, F2, lo=-2, hi=3, inner_span=(-1, 2))
            b = random_element(rng, F2, lo=-2, hi=3, inner_span=(-1, 2))
            c = random_element(rng, F2, lo=-2, hi=3, inner_span=(-1, 2))
            assert ((a * b) * c).agrees_with(a * (b * c))
            assert (a * (b + c)).agrees_with(a * b + a * c)


class TestDerivation:
    def test_power_rule(self):
        t = F1.gen(1)
        assert (t ** 5).derive(1) == 5 * t ** 4
        assert (t ** -2).derive(1) == -2 * t ** -3

    def test_constant_derivative_zero(self):
        assert F2.rational(7).derive(1).is_exactly_zero()
        assert F2.rational(7).derive(2).is_exactly_zero()

    def test_inner_derivative_acts_coefficientwise(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        f = t1 * t2 + t1 ** 2
        assert f.derive(1) == t2 + 2 * t1

    def test_index_out_of_range(self):
        with pytest.raises(LevelMismatch):
            F1.gen(1).derive(2)

    def test_leibniz_random(self):
        rng = random.Random(3)
        for _ in range(60):
            a = random_element(rng, F1)
            b = random_element(rng, F1)
            assert (a * b).derive(1) == a.derive(1) * b + a * b.derive(1)

    def test_schwarz_symmetry(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_element(rng, F2, lo=-2, hi=3, inner_span=(-2, 3))
            assert a.derive(1).derive(2) == a.derive(2).derive(1)

    def test_derivative_window_shifts(self):
        a = TowerElement(1, {0: Fraction(1), 2: Fraction(3)}, 5, False)
        d = a.derive(1)
        assert d.hi == 4
        assert d.coeffs == {1: Fraction(6)}


class TestResidue:
    def test_simple_pole(self):
        t = F1.gen(1)
        assert residue(t ** -1) == 1

    def test_other_powers_vanish(self):
        t = F1.gen(1)
        for k in (-3, -2, 0, 1, 4):
            assert residue(t ** k) == 0

    def test_two_variable_residue(self):
        f = F2.monomial([-1, -1])
        assert residue(f) == 1
        assert residue(F2.monomial([0, -1])) == 0
        assert residue(F2.monomial([-1, 0])) == 0

    def test_insufficient_precision(self):
        fuzzy = TowerElement.inexact_zero(1, -1)  # O(t^-1): -1 unknown
        with pytest.raises(InsufficientPrecision):
            residue(fuzzy)

    def test_residue_of_derivative_vanishes(self):
        rng = random.Random(17)
        for _ in range(80):
            f = random_element(rng, F1)
            assert residue(f.derive(1)) == 0
        for _ in range(30):
            f = random_element(rng, F2, lo=-2, hi=3, inner_span=(-2, 3))
            assert residue(f.derive(2)) == 0
            # residue in the inner variable of an inner derivative also dies
            assert residue(f.derive(1)) == 0


class TestOneForms:
    def test_exterior_derivative_closed(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        # d of a function is always closed
        f = t1 ** -1 * t2 + t1 * t2 ** 2
        assert exterior_derivative(f).closedness_witness() is None

    def test_non_closed_witness(self):
        t2 = F2.gen(2)
        zero = F2.zero()
        nu = OneForm((t2, zero))  # t2 dt1
        w = nu.closedness_witness()
        assert w is not None
        assert w[0] == (1, 2)

    def test_dlog_forms_closed(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        nu = OneForm((t1 ** -1, F2.zero()))
        assert nu.closedness_witness() is None
        nu2 = OneForm((F2.zero(), t2 ** -1))
        assert nu2.closedness_witness() is None


class TestRendering:
    def test_level1(self):
        t = F1.gen(1)
        assert F1.render(1 - t ** 2 + F1.zero()) == "1 - t1^2"
        assert F1.render(F1.zero()) == "0"
        assert F1.render((F1.one()).truncate(3)) == "1 + O(t1^3)"

    def test_level2(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        s = F2.render(t1 * t2 ** -1 + 2 * t2)
        assert s == "t1*t2^-1 + 2*t2"

    def test_negative_rational(self):
        t = F1.gen(1)
        assert F1.render(-Fraction(3, 4) * t) == "-3/4*t1"


# ---------------------------------------------------------------------------
# The level-1 kernel against the Fraction loops it replaced
# ---------------------------------------------------------------------------

def oracle_mul(a, b):
    """Level-1 product by the Fraction double loop, with __mul__'s window."""
    if a.is_exactly_zero() or b.is_exactly_zero():
        return TowerElement.zero(1)
    h = series._min_bound(
        series._add_bound(a.valuation_lower_bound(), b.known_hi()),
        series._add_bound(a.known_hi(), b.valuation_lower_bound()),
    )
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if h is not None and e >= h:
                continue
            p = ca * cb
            out[e] = out[e] + p if e in out else p
    return TowerElement(1, out, h, h is None)


def oracle_invert(a, prec=None):
    """Level-1 inverse by the term-by-term recurrence."""
    v = a.valuation()
    lead = a.coeffs[v]
    if a.exact and len(a.coeffs) == 1:
        return TowerElement(1, {-v: 1 / lead}, None, True)
    g = a.shift_outer(-v)
    width = g.known_hi()
    if width is None:
        width = prec if prec is not None else series.working_precision()
    elif prec is not None:
        width = min(width, prec)
    c0inv = 1 / lead
    inv = {0: c0inv}
    for e in range(1, width):
        s = None
        for j, gj in g.coeffs.items():
            if 1 <= j <= e and (e - j) in inv:
                term = gj * inv[e - j]
                s = term if s is None else s + term
        if s is not None and s != 0:
            inv[e] = -(c0inv * s)
    return TowerElement(1, inv, width, False).shift_outer(-v)


def same_element(x, y):
    return (x.coeffs, x.hi, x.exact, x.lo) == (y.coeffs, y.hi, y.exact, y.lo)


# small and wide exponents, so products see both dense runs and large gaps
exponents = st.integers(-40, 40) | st.integers(-10**6, 10**6)
rationals = st.builds(
    Fraction,
    st.integers(-2**40, 2**40).filter(bool),
    st.integers(1, 199),
)


@st.composite
def level1_elements(draw, max_terms=40):
    """Exact or inexact level-1 elements, inexact zeros included."""
    coeffs = draw(st.dictionaries(exponents, rationals, max_size=max_terms))
    if draw(st.booleans()):
        return TowerElement(1, coeffs, None, True)
    top = max(coeffs) + 1 if coeffs else 0
    # the window may cut off some of the drawn terms, or all of them
    return TowerElement(1, coeffs, top + draw(st.integers(-5, 5)), False)


@st.composite
def units(draw, max_width=70):
    """(element, prec, width): a level-1 element of shifted valuation to invert."""
    width = draw(st.integers(1, max_width))
    v = draw(st.integers(-8, 8))
    small = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    tail = draw(st.dictionaries(st.integers(1, width + 5), small, max_size=12))
    coeffs = {v + e: c for e, c in tail.items()}
    coeffs[v] = draw(small)
    modes = ("exact, prec", "exact, working", "inexact", "inexact, prec")
    mode = draw(st.sampled_from(modes))
    if mode.startswith("exact"):
        a = TowerElement(1, coeffs, None, True)
    else:
        extra = 3 if mode == "inexact, prec" else 0
        a = TowerElement(1, coeffs, v + width + extra, False)
    prec = width if mode in ("exact, prec", "inexact, prec") else None
    return a, prec, width


class TestLevel1Kernel:
    @settings(deadline=None, max_examples=150)
    @given(level1_elements(), level1_elements())
    def test_mul_matches_fraction_loop(self, a, b):
        assert same_element(a * b, oracle_mul(a, b))
        assert same_element(b * a, oracle_mul(b, a))

    @settings(deadline=None, max_examples=60)
    @given(level1_elements(max_terms=1), level1_elements())
    def test_single_term_factor(self, a, b):
        assert same_element(a * b, oracle_mul(a, b))

    def test_product_cut_by_window(self):
        t = F1.gen(1)
        # 1 + t + ... + t^9 + O(t^10)
        a = sum((t ** e for e in range(10)), F1.zero()).truncate(10)
        b = (t ** -3 + t ** 4).truncate(-2)  # t^-3 + O(t^-2)
        p = a * b
        assert p.coeffs == {-3: Fraction(1)} and p.hi == -2 and not p.exact
        assert same_element(p, oracle_mul(a, b))

    def test_inexact_zero_factor(self):
        # every pair is cut: an empty inexact factor leaves nothing
        z = TowerElement.inexact_zero(1, 4)
        a = F1.gen(1) ** -2 + 3
        for x, y in ((z, a), (a, z), (z, z)):
            p = x * y
            assert p.coeffs == {} and not p.exact
            assert same_element(p, oracle_mul(x, y))

    @settings(deadline=None, max_examples=80)
    @given(units())
    def test_invert_matches_recurrence(self, case):
        a, prec, width = case
        old = series.set_working_precision(width)
        try:
            inv = a.invert(prec)
            assert same_element(inv, oracle_invert(a, prec))
        finally:
            series.set_working_precision(old)
        if not inv.exact:
            assert inv.hi == width - a.valuation()
        prod = a * inv
        assert prod.knows(0) and prod.agrees_with(1)

    def test_invert_every_width(self):
        rng = random.Random(5)
        t = F1.gen(1)
        exact = F1.rational(Fraction(-2, 3))
        for e in range(1, 12):
            exact += Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * t ** e
        exact = t ** -3 * exact
        for width in range(1, 71):
            # the window, or prec, leaves `width` terms of the unit part
            cases = (
                (exact, width),
                (exact.truncate(width - 3), None),
                (exact.truncate(width), width),
            )
            for a, prec in cases:
                inv = a.invert(prec)
                assert same_element(inv, oracle_invert(a, prec))
                assert inv.hi == width + 3


@st.composite
def update_operands(draw):
    """Level-1 elements for ``a - f*b``, over a short exponent range so that
    terms collide and the cuts fall inside the supports.

    Each is exact, inexact with a window that may cut its own terms, an exact
    zero or an inexact zero; ``f`` is single-term with a fair chance.
    """
    small = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))

    def operand(max_terms):
        kind = draw(st.sampled_from(("exact", "inexact", "exact zero", "inexact zero")))
        if kind == "exact zero":
            return TowerElement.zero(1)
        if kind == "inexact zero":
            return TowerElement.inexact_zero(1, draw(st.integers(-8, 8)))
        coeffs = draw(st.dictionaries(st.integers(-8, 8), small, min_size=1, max_size=max_terms))
        if kind == "exact":
            return TowerElement(1, coeffs, None, True)
        return TowerElement(1, coeffs, max(coeffs) + draw(st.integers(-3, 3)), False)

    a = operand(12)
    f = operand(draw(st.sampled_from((1, 12))))
    b = operand(12)
    return a, f, b


class TestFusedUpdate:
    """``series.sub_mul`` is the row update of elimination: ``a - f*b``."""

    @settings(deadline=None, max_examples=400)
    @given(update_operands())
    def test_matches_expression(self, operands):
        a, f, b = operands
        assert same_element(series.sub_mul(a, f, b), a - f * b)

    @settings(deadline=None, max_examples=100)
    @given(level1_elements(), level1_elements(max_terms=12), level1_elements(max_terms=12))
    def test_matches_expression_wide(self, a, f, b):
        # large gaps and large numerators
        assert same_element(series.sub_mul(a, f, b), a - f * b)

    def test_cut_by_the_minuend(self):
        t = F1.gen(1)
        f = (1 + t + t ** 2).truncate(6)  # product known below t^6
        b = 1 - t ** 3
        for hi in range(-1, 8):
            # a known below t^hi: the result stops there even where the
            # product is known
            a = (t ** -1 + 2 * t + 3 * t ** 4).truncate(hi)
            fused = series.sub_mul(a, f, b)
            assert same_element(fused, a - f * b)
            assert fused.hi == min(hi, 6) and not fused.exact

    def test_zero_factors(self):
        t = F1.gen(1)
        a = (t ** -2 + Fraction(1, 3)).truncate(4)
        for zero in (F1.zero(), TowerElement.inexact_zero(1, 1), TowerElement.inexact_zero(1, -5)):
            for f, b in ((zero, 1 + t), (1 + t, zero), (zero, zero)):
                assert same_element(series.sub_mul(a, f, b), a - f * b)
        exact = t ** -2 + t
        assert same_element(series.sub_mul(exact, F1.zero(), t), exact - F1.zero() * t)

    def test_cancellation_to_zero(self):
        t = F1.gen(1)
        f, b = Fraction(1, 2) - t, 2 + t ** -1
        assert series.sub_mul(f * b, f, b).is_exactly_zero()

    def test_level2_evaluates_expression(self):
        rng = random.Random(29)
        for _ in range(10):
            a, f, b = (random_element(rng, F2, lo=-2, hi=2, inner_span=(-1, 2)) for _ in range(3))
            assert series.sub_mul(a, f, b) == a - f * b
        with pytest.raises(LevelMismatch):
            series.sub_mul(F1.gen(1), F2.gen(2), F2.gen(1))


class TestPrecisionContext:
    def test_each_thread_keeps_its_own_precision(self):
        widths = (5, 7, 9, 11)  # more threads than cores
        barrier = threading.Barrier(len(widths), timeout=30)
        inverses = {}
        errors = []

        def invert_at(width):
            try:
                series.set_working_precision(width)
                barrier.wait()  # every thread has set its width
                inverses[width] = (F1.one() - F1.gen(1)).invert()
                barrier.wait()  # no thread resets before the others invert
                inverses[width, "after"] = series.working_precision()
            except Exception as exc:  # reported below; a thread cannot raise into pytest
                errors.append(exc)

        before = series.working_precision()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=invert_at, args=(w,)) for w in widths]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        for w in widths:
            inv = inverses[w]
            assert inv.hi == w and not inv.exact
            assert inv.coeffs == {e: Fraction(1) for e in range(w)}
            assert inverses[w, "after"] == w
        assert series.working_precision() == before


# ---------------------------------------------------------------------------
# Level-1 representation: integer numerators over one canonical denominator
# ---------------------------------------------------------------------------

def assert_canonical(x):
    den, items = x.numerators()
    nums = dict(items)
    assert den > 0
    assert 0 not in nums.values()
    assert gcd(den, *nums.values()) == 1


def assert_built(x, y):
    """``x`` from arithmetic is canonical and is the public constructor's ``y``."""
    assert_canonical(x)
    assert same_element(x, y)
    assert x == y and hash(x) == hash(y)


def rationals_of(x):
    return dict(x.coeffs.items()), x.known_hi()


def built(coeffs, h):
    return TowerElement(1, coeffs, h, h is None)


def oracle_sum(a, b, sign):
    """``a + sign*b`` on {exponent: Fraction} maps."""
    (ca, ha), (cb, hb) = rationals_of(a), rationals_of(b)
    h = series._min_bound(ha, hb)
    out = {e: c for e, c in ca.items() if h is None or e < h}
    for e, c in cb.items():
        if h is None or e < h:
            out[e] = out.get(e, 0) + sign * c
    return built(out, h)


def oracle_sub_mul(a, f, b):
    return oracle_sum(a, oracle_mul(f, b), -1)


# shared small denominators make sums cancel and cuts lower the content;
# the wide ones carry numerators past 2^64
canonical_rationals = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 12))
) | st.builds(Fraction, st.integers(-2**70, 2**70).filter(bool), st.integers(1, 2**64))


@st.composite
def canonical_operands(draw):
    """Exact, inexact, exact-zero or inexact-zero level-1 elements over a short range."""
    kind = draw(st.sampled_from(("exact", "inexact", "exact zero", "inexact zero")))
    if kind == "exact zero":
        return TowerElement.zero(1)
    if kind == "inexact zero":
        return TowerElement.inexact_zero(1, draw(st.integers(-6, 6)))
    coeffs = draw(
        st.dictionaries(st.integers(-6, 6), canonical_rationals, min_size=1, max_size=8)
    )
    if kind == "exact":
        return TowerElement(1, coeffs, None, True)
    return TowerElement(1, coeffs, max(coeffs) + draw(st.integers(-3, 3)), False)


class TestCanonicalNumerators:
    """Every level-1 result is canonical and equals the Fraction-map oracle's."""

    @settings(deadline=None, max_examples=200)
    @given(canonical_operands(), canonical_operands())
    def test_sum_difference_product(self, a, b):
        assert_built(a + b, oracle_sum(a, b, 1))
        assert_built(a - b, oracle_sum(a, b, -1))
        assert_built(-a, oracle_sum(TowerElement.zero(1), a, -1))
        assert_built(a * b, oracle_mul(a, b))

    @settings(deadline=None, max_examples=200)
    @given(canonical_operands(), canonical_operands(), canonical_operands())
    def test_sub_mul(self, a, f, b):
        assert_built(series.sub_mul(a, f, b), oracle_sub_mul(a, f, b))

    @settings(deadline=None, max_examples=100)
    @given(canonical_operands(), canonical_rationals | st.integers(-3, 3))
    def test_scalar_product(self, a, q):
        coeffs, h = rationals_of(a)
        if q == 0:
            expected = TowerElement.zero(1)
        else:
            expected = built({e: c * q for e, c in coeffs.items()}, h)
        assert_built(a * q, expected)
        assert_built(q * a, expected)

    @settings(deadline=None, max_examples=150)
    @given(canonical_operands(), st.integers(-8, 8), st.integers(-8, 8))
    def test_derive_shift_truncate(self, a, k, cut):
        coeffs, h = rationals_of(a)
        derived = {e - 1: c * e for e, c in coeffs.items() if e}
        assert_built(a.derive(1), built(derived, None if h is None else h - 1))
        shifted = {e + k: c for e, c in coeffs.items()}
        assert_built(a.shift_outer(k), built(shifted, None if h is None else h + k))
        assert_built(a.truncate(cut), built({e: c for e, c in coeffs.items() if e < cut}, cut))

    @settings(deadline=None, max_examples=100)
    @given(canonical_operands(), st.integers(1, 12))
    def test_invert(self, a, prec):
        if not a.is_certainly_nonzero():
            return
        assert_built(a.invert(prec), oracle_invert(a, prec))

    def test_truncation_lowers_the_content(self):
        # 1/2 + 1/3 t^5 is (3 + 2 t^5)/6; without t^5 it is 1/2, not 3/6
        a = TowerElement(1, {0: Fraction(1, 2), 5: Fraction(1, 3)}, None, True)
        assert a.numerators()[0] == 6
        cut = a.truncate(5)
        assert cut.numerators()[0] == 2 and dict(cut.numerators()[1]) == {0: 1}
        assert_built(cut, TowerElement(1, {0: Fraction(1, 2)}, 5, False))

    def test_negative_leading_terms_invert_to_a_positive_denominator(self):
        t = F1.gen(1)
        for a in (Fraction(-2, 3) * t ** 2, Fraction(-2, 3) + Fraction(5, 7) * t):
            inv = a.invert(6)
            assert_built(inv, oracle_invert(a, 6))

    def test_cancellation_to_exact_zero(self):
        t = F1.gen(1)
        a = Fraction(1, 3) * t ** -1 + Fraction(-7, 2)
        for x in (a - a, a + (-a), series.sub_mul(a, a, F1.one()), a * Fraction(1, 2) - a / 2):
            assert x.is_exactly_zero()
            assert_built(x, TowerElement.zero(1))

    def test_hash_sees_the_denominator(self):
        # elements that differ only in the denominator hash apart
        elements = [
            TowerElement(1, {0: Fraction(1, m), 3: Fraction(1, m)}, None, True)
            for m in range(1, 40)
        ]
        assert len({hash(x) for x in elements}) == len(elements)

    def test_coefficient_view(self):
        a = TowerElement(1, {-2: Fraction(3, 4), 5: Fraction(-1, 6)}, 9, False)
        view = a.coeffs
        assert view[-2] == Fraction(3, 4) and view == {-2: Fraction(3, 4), 5: Fraction(-1, 6)}
        with pytest.raises(TypeError):
            view[0] = Fraction(1)

        assert len(a.coeffs) == 2 and 5 in a.coeffs and 0 not in a.coeffs
        assert sorted(a.coeffs) == [-2, 5]

    def test_numerators_only_at_level_one(self):
        with pytest.raises(LevelMismatch):
            F2.gen(1).numerators()


# ---------------------------------------------------------------------------
# Equality of exact elements, and read-only coefficients above level 1
# ---------------------------------------------------------------------------

@st.composite
def comparable_elements(draw):
    """Level-1 or level-2 elements over a tiny range, so that equal pairs are
    common; an exact one may be given a ``hi`` above its support."""
    level = draw(st.integers(1, 2))
    small = st.sampled_from((Fraction(1), Fraction(-1, 2), Fraction(2)))
    if level == 2:
        small = st.builds(
            lambda c, e: TowerElement(1, {e: c}, None, True), small, st.integers(-1, 1)
        )
    coeffs = draw(st.dictionaries(st.integers(-1, 1), small, max_size=2))
    if draw(st.booleans()):
        return TowerElement(level, coeffs, draw(st.none() | st.integers(-1, 4)), True)
    return TowerElement(level, coeffs, draw(st.integers(-1, 4)), False)


class TestExactEquality:
    def test_hi_of_an_exact_element_is_its_support(self):
        a = TowerElement(1, {0: Fraction(1)}, 5, True)
        b = TowerElement(1, {0: Fraction(1)}, None, True)
        assert (a - b).is_exactly_zero()
        assert a == b and hash(a) == hash(b)
        assert a.hi == b.hi == 1
        assert TowerElement(2, {0: F1.one()}, 7, True) == F2.one()
        assert TowerElement(1, {}, 3, True) == F1.zero()

    @settings(deadline=None, max_examples=300)
    @given(comparable_elements(), comparable_elements())
    def test_equal_elements_hash_equal(self, x, y):
        if x.level == y.level and x.exact and y.exact and (x - y).is_exactly_zero():
            assert x == y
        if x == y:
            assert hash(x) == hash(y)


class TestSharedConstants:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_units_are_shared_equal_and_hash_equal(self, level):
        F = TowerField(level)
        for value in (1, -1):
            x = TowerElement.constant(level, value)
            assert x is TowerElement.constant(level, Fraction(value))
            fresh = TowerElement(1, {0: Fraction(value)}, None, True).lift(level)
            assert x == fresh and hash(x) == hash(fresh)
        assert F.one() is TowerElement.constant(level, 1) is F.rational(1)
        assert TowerElement.constant(level, 0) is F.zero()
        assert TowerElement.constant(level, 2) == 2 * F.one()

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_monomials_match_the_public_constructor(self, level):
        for exps, q in (([0] * level, Fraction(-3, 4)), ([2, -1, 5][:level], Fraction(7))):
            fresh = q
            for lvl in range(1, level + 1):
                fresh = TowerElement(lvl, {exps[lvl - 1]: fresh}, None, True)
            assert_same_element(TowerElement.monomial(level, exps, q), fresh)
            if not any(exps):
                assert_same_element(TowerElement.constant(level, q), fresh)

    def test_shared_units_stay_immutable(self):
        one, minus_one = F2.one(), TowerElement.constant(2, -1)
        before = [(repr(x), x.hi, x.exact, hash(x)) for x in (one, minus_one)]
        with pytest.raises(AttributeError):
            one.hi = 5
        with pytest.raises(TypeError):
            one.coeffs[1] = F1.one()
        t = F2.gen(2)
        for x in (one + t, one * t, one - 1, minus_one * minus_one, one ** 3, -one):
            assert x.level == 2
        assert minus_one * minus_one == one and -one == minus_one
        assert [(repr(x), x.hi, x.exact, hash(x)) for x in (one, minus_one)] == before

    def test_powers_start_from_the_base(self, monkeypatch):
        t = F1.gen(1)
        x = (1 + t).truncate(3)  # 1 + t + O(t^3)
        calls = []
        mul = TowerElement.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(TowerElement, "__mul__", counted)
        powers = [x ** n for n in range(5)]
        n_calls = len(calls)
        monkeypatch.undo()
        assert powers[0] is F1.one() and powers[1] is x
        expected = F1.one()
        for n, p in enumerate(powers):
            assert p == expected and (p.hi, p.exact) == (expected.hi, expected.exact)
            expected = expected * x
        # x^2: one squaring; x^3: a squaring and a product; x^4: two squarings
        assert n_calls == 0 + 0 + 1 + 2 + 2


class TestReadOnlyCoefficients:
    def test_level2_coefficients_cannot_be_written(self):
        x = F2.gen(1) + F2.gen(2)
        before = (repr(x), x.hi, hash(x))
        with pytest.raises(TypeError):
            x.coeffs[7] = F2.gen(1).coefficient(0)
        with pytest.raises(TypeError):
            del x.coeffs[0]
        assert (repr(x), x.hi, hash(x)) == before
        assert dict(x.coeffs) == {0: F1.gen(1), 1: F1.one()}


# ---------------------------------------------------------------------------
# Fused sums of products against the chained products and sums
# ---------------------------------------------------------------------------

def oracle_mul2(a, b):
    """Level-2 product by the term loop the fused kernel replaced: one
    level-1 product per term pair, summed into the coefficient one by one."""
    if a.is_exactly_zero() or b.is_exactly_zero():
        return TowerElement(2, {}, None, True)
    h = series._product_bound(a, b)
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if h is not None and e >= h:
                continue
            p = oracle_mul(ca, cb)
            out[e] = out[e] + p if e in out else p
    return TowerElement(2, out, h, h is None)


def oracle_add(a, b):
    """``a + b`` through the public constructor, at either level."""
    h = series._min_bound(a.known_hi(), b.known_hi())
    out = {e: c for e, c in a.coeffs.items() if h is None or e < h}
    for e, c in b.coeffs.items():
        if h is None or e < h:
            out[e] = out[e] + c if e in out else c
    return TowerElement(a.level, out, h, h is None)


def oracle_scale(c, x):
    return TowerElement(x.level, {e: q * c for e, q in x.coeffs.items()}, x.known_hi(), x.exact)


def chained(level, terms, product):
    """The chain ``p_1 + p_2 + ...`` of the products of the terms that are
    not skipped (an exact-zero factor or a zero weight)."""
    acc = None
    for a, b in terms:
        skip = a.is_exactly_zero() if isinstance(a, TowerElement) else a == 0
        if skip or b.is_exactly_zero():
            continue
        p = product(a, b)
        acc = p if acc is None else oracle_add(acc, p)
    return TowerElement(level, {}, None, True) if acc is None else acc


def element_product(level):
    return oracle_mul if level == 1 else oracle_mul2


def assert_same_element(x, y):
    """Equal in value, window, exactness and hash, with no stored exact zero."""
    assert (x.level, x.lo, x.hi, x.exact) == (y.level, y.lo, y.hi, y.exact)
    assert x == y and hash(x) == hash(y)
    if x.level == 1:
        assert_canonical(x)
    else:
        assert not any(c.is_exactly_zero() for c in x.coeffs.values())


fused_rationals = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 3, 4, 6))
)


@st.composite
def fused_elements(draw, level):
    """Exact, inexact, exact-zero or inexact-zero elements over a short range;
    at level 2 the coefficients are exact, inexact or inexact zeros."""
    kind = draw(st.sampled_from(("exact", "inexact", "exact zero", "inexact zero")))
    if kind == "exact zero":
        return TowerElement.zero(level)
    if kind == "inexact zero":
        return TowerElement.inexact_zero(level, draw(st.integers(-4, 4)))
    inner = fused_rationals if level == 1 else fused_elements(1)
    coeffs = draw(st.dictionaries(st.integers(-3, 3), inner, min_size=1, max_size=5))
    if kind == "exact":
        return TowerElement(level, coeffs, None, True)
    return TowerElement(level, coeffs, max(coeffs) + draw(st.integers(-2, 2)), False)


weights = st.sampled_from((0, 1, -1, 2, -3, Fraction(0))) | fused_rationals


@st.composite
def fused_terms(draw, weighted):
    """(level, terms): element pairs, or (rational weight, element) pairs; a
    negated copy of one term may follow, so that its contribution cancels."""
    level = draw(st.integers(1, 2))
    first = weights if weighted else fused_elements(level)
    terms = draw(st.lists(st.tuples(first, fused_elements(level)), max_size=4))
    if terms and draw(st.booleans()):
        a, b = terms[draw(st.integers(0, len(terms) - 1))]
        terms.append((-a, b))
    return level, terms


def constant_weights(level, terms):
    """``(weight, element)`` pairs as ``sum_of_products`` pairs: each weight an
    exact constant of ``level``."""
    return [(TowerElement.constant(level, c), x) for c, x in terms]


@st.composite
def int_weighted_terms(draw):
    """(level, pairs): each first factor an int weight, zero among them, or
    an element; a negated copy of one pair may follow."""
    level = draw(st.integers(1, 2))
    ints = st.sampled_from((0, 1, -1, 2, -3)) | st.integers(-(10 ** 20), 10 ** 20)
    first = ints | fused_elements(level)
    pairs = draw(st.lists(st.tuples(first, fused_elements(level)), max_size=4))
    if pairs and draw(st.booleans()):
        a, b = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.append((-a, b))
    return level, pairs


class TestFusedSums:
    """``sum_of_products`` is the chained ``*`` and ``+``, also with constant weights."""

    @settings(deadline=None, max_examples=200)
    @given(fused_elements(2), fused_elements(2))
    def test_level2_sum_and_difference_match_the_oracle(self, a, b):
        # + and - are two-term sums of products with int weights; level 1 is
        # TestCanonicalNumerators.test_sum_difference_product
        assert_same_element(a + b, oracle_add(a, b))
        assert_same_element(a - b, oracle_add(a, -b))

    @settings(deadline=None, max_examples=400)
    @given(fused_terms(weighted=False))
    def test_sum_of_products_matches_chain(self, case):
        level, pairs = case
        got = series.sum_of_products(level, pairs)
        assert_same_element(got, chained(level, pairs, element_product(level)))

    @settings(deadline=None, max_examples=400)
    @given(fused_terms(weighted=True))
    def test_constant_weights_match_chain(self, case):
        level, terms = case
        got = series.sum_of_products(level, constant_weights(level, terms))
        assert_same_element(got, chained(level, terms, oracle_scale))

    @settings(deadline=None, max_examples=300)
    @given(int_weighted_terms())
    def test_int_weights_match_constant_weights(self, case):
        level, pairs = case
        got = series.sum_of_products(level, pairs)
        constants = [
            (TowerElement.constant(level, a) if isinstance(a, int) else a, b) for a, b in pairs
        ]
        assert_same_element(got, series.sum_of_products(level, constants))

    @settings(deadline=None, max_examples=300)
    @given(fused_elements(2), fused_elements(2))
    def test_level2_product_matches_term_loop(self, a, b):
        assert_same_element(a * b, oracle_mul2(a, b))
        assert_same_element(b * a, oracle_mul2(b, a))

    def test_cancellation_to_exact_zero(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        a = (t1 + 1) * t2 ** -1 + Fraction(1, 2) * t2
        b = t1 ** -1 - t2
        for level, x, y in ((2, a, b), (1, a.coefficient(-1), b.coefficient(0))):
            got = series.sum_of_products(level, [(x, y), (-x, y)])
            assert got is TowerElement.zero(level)
            weighted = constant_weights(level, [(3, x), (Fraction(-3), x)])
            assert series.sum_of_products(level, weighted) is got
            assert series.sum_of_products(level, [(3, x), (-3, x)]) is got

    def test_inexact_zero_survives_cancellation(self):
        # the exact parts cancel, the inexact zero keeps its window
        x = F1.gen(1) + 2
        z = TowerElement.inexact_zero(1, 3)
        got = series.sum_of_products(1, [(x, x), (-x, x), (z, x)])
        assert got.is_exactly_zero() is False and not got.coeffs and got.hi == 3
        assert_same_element(got, chained(1, [(x, x), (-x, x), (z, x)], oracle_mul))

    def test_no_terms_and_level_checks(self):
        assert series.sum_of_products(2, []) is TowerElement.zero(2)
        weighted = constant_weights(1, [(0, F1.gen(1)), (2, F1.zero())])
        assert series.sum_of_products(1, weighted) is F1.zero()
        assert series.sum_of_products(1, [(0, F1.gen(1)), (2, F1.zero())]) is F1.zero()
        with pytest.raises(LevelMismatch):
            series.sum_of_products(2, [(1, F1.gen(1))])
        with pytest.raises(LevelMismatch):
            series.sum_of_products(2, [(F2.gen(1), F1.gen(1))])
        with pytest.raises(LevelMismatch):
            series.sum_of_products(2, constant_weights(2, [(1, F1.gen(1))]))
        with pytest.raises(TypeError):
            series.sum_of_products(1, constant_weights(1, [(0.5, F1.gen(1))]))


def oracle_apply(M, vec):
    """``SeriesMatrix.apply`` by the chained loop the fused kernel replaced."""
    out = []
    for i in range(M.rows):
        acc = None
        for k in range(M.cols):
            a = M.entries[i][k]
            if a.is_exactly_zero() or vec[k].is_exactly_zero():
                continue
            term = element_product(M.level)(a, vec[k])
            acc = term if acc is None else oracle_add(acc, term)
        out.append(acc if acc is not None else TowerElement(M.level, {}, None, True))
    return tuple(out)


@st.composite
def matrix_and_vectors(draw):
    """A level-1 or level-2 matrix of up to 3 x 3 fused elements, a vector
    for it and a second matrix to multiply it by."""
    level = draw(st.integers(1, 2))
    rows, cols, other = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def entries(n, m):
        return [[draw(fused_elements(level)) for _ in range(m)] for _ in range(n)]

    M, N = SeriesMatrix(entries(rows, cols)), SeriesMatrix(entries(cols, other))
    return M, entries(1, cols)[0], N


class TestFusedMatrixProducts:
    @settings(deadline=None, max_examples=150)
    @given(matrix_and_vectors())
    def test_apply_and_matmul_match_chain(self, case):
        M, vec, N = case
        for got, want in zip(M.apply(vec), oracle_apply(M, vec)):
            assert_same_element(got, want)
        product = M @ N
        for j in range(N.cols):
            for got, want in zip(product.column(j), oracle_apply(M, N.column(j))):
                assert_same_element(got, want)
