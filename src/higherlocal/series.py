"""Exact truncated arithmetic for iterated Laurent series towers.

The tower of fields is built from exact rationals by repeatedly adjoining a
Laurent series variable: level 1 is k((t1)), level 2 is k((t1))((t2)) with t2
outermost, and so on.  An element is stored sparsely as a map

    outer exponent  ->  coefficient

where coefficients at level n are elements of level n-1.  Level-1
coefficients are rationals, stored as integer numerators over one positive
denominator in canonical form: ``gcd(den, *numerators) == 1`` and no
numerator is zero, so equal values have equal parts.  Level-1 arithmetic
works on the integers and canonicalizes each result with one gcd pass; a
``fractions.Fraction`` is built only when a caller reads a coefficient
(``coeffs``, ``coefficient``).

Every element carries a knowledge window: coefficients of the outer variable
are guaranteed for exponents in ``[lo, hi)``; exponents below ``lo`` are
exactly zero, exponents at or above ``hi`` are unknown unless the ``exact``
flag is set, in which case the element is a Laurent polynomial in the outer
variable known everywhere.  All operations compute the largest window they
can guarantee, so "equal up to precision" is a first-class judgment.

Zero detection is three-valued: an element can be certified nonzero,
certified (exactly) zero, or undetermined; predicates that need true
nonzeroness raise :class:`UndeterminedLeadingTerm` rather than guess.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Optional, Union

from .errors import (
    InsufficientPrecision,
    LevelMismatch,
    UndeterminedLeadingTerm,
    ZeroDivisionSeries,
)

Coeff = Union["TowerElement", Fraction]

# per context, so threads and asyncio tasks each keep their own width
_PRECISION: ContextVar[int] = ContextVar("working_precision", default=32)


def working_precision() -> int:
    return _PRECISION.get()


def set_working_precision(n: int) -> int:
    """Set the default number of terms kept per level; returns the old value.

    The setting belongs to the current context: a thread starts at the
    default and sees only its own changes.
    """
    if n < 1:
        raise ValueError("working precision must be >= 1")
    old = _PRECISION.get()
    _PRECISION.set(int(n))
    return old


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _min_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    # None stands for +infinity (exact knowledge)
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _product_bound(a: "TowerElement", b: "TowerElement") -> Optional[int]:
    """The knowledge bound of ``a*b`` for ``a``, ``b`` not exactly zero."""
    return _min_bound(
        _add_bound(a.valuation_lower_bound(), b.known_hi()),
        _add_bound(a.known_hi(), b.valuation_lower_bound()),
    )


# ---------------------------------------------------------------------------
# Level-1 kernel: {exponent: int} numerator maps over one denominator.
# ---------------------------------------------------------------------------

def _reduced(terms: dict, den: int):
    """``(terms, den)`` in canonical form: zero numerators dropped, content divided out."""
    terms = {e: n for e, n in terms.items() if n}
    g = gcd(den, *terms.values())
    if g != 1:
        den //= g
        terms = {e: n // g for e, n in terms.items()}
    return terms, den


def _convolve(a: dict, b: dict, h: Optional[int]) -> dict:
    """The product of two numerator maps, pairs at exponent ``>= h`` skipped.

    ``h`` is None for no cut.  A single-term factor scales the other;
    otherwise the integers are convolved in exponent order.  Sums that
    cancel are kept as 0.
    """
    if not a or not b:
        return {}
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ea, x),) = a.items()
        return {ea + eb: x * y for eb, y in b.items() if h is None or ea + eb < h}
    acc: dict = {}
    _add_convolution(acc, sorted(a.items()), sorted(b.items()), h)
    return acc


def _add_convolution(acc: dict, xs: list, ys: list, h: Optional[int]) -> None:
    """Add the product of two nonempty ``(exponent, numerator)`` lists in
    exponent order into ``acc``, pairs at exponent ``>= h`` skipped."""
    if h is None:
        h = xs[-1][0] + ys[-1][0] + 1
    get = acc.get
    for ea, x in xs:
        lim = h - ea
        for eb, y in ys:
            if eb >= lim:
                break
            e = ea + eb
            acc[e] = get(e, 0) + x * y


def _inverse_numerators(g: dict, dg: int, width: int):
    """``(terms, den)`` of the inverse of ``g/dg`` mod t^width, for ``g`` of valuation 0.

    Newton iteration f <- f + f*(1 - g*f) mod t^k, doubling k up to
    ``width``.  If f inverts g mod t^j, then 1 - g*f vanishes below t^j, so
    the correction has valuation >= j and only adds terms to f.  With
    ``f = F/df``, ``g*f`` is ``G*F`` over ``s = dg*df`` and the new f is
    ``F*s + F*R`` over ``df*s``, R being minus the terms of ``G*F`` at j..k-1.
    """
    g0 = g[0]
    f, df = _reduced({0: dg if g0 > 0 else -dg}, abs(g0))
    k = 1
    while k < width:
        j, k = k, min(2 * k, width)
        r = {e: -n for e, n in _convolve(g, f, k).items() if e >= j and n}
        s = dg * df
        out = {e: n * s for e, n in f.items()}
        out.update(_convolve(f, r, k))
        f, df = _reduced(out, df * s)
    return f, df


class TowerElement:
    """An element of the level-n tower field, truncated in the outer variable.

    ``_terms`` maps outer exponents to nonzero coefficients: integer
    numerators over ``_den`` at level 1, inner elements (``_den == 1``)
    above.
    """

    __slots__ = ("level", "lo", "hi", "exact", "_terms", "_den")

    def __init__(self, level: int, coeffs: dict, hi: Optional[int], exact: bool):
        if level < 1:
            raise ValueError("TowerElement level must be >= 1; level 0 is Fraction")
        kept = {}
        for e, c in coeffs.items():
            zero = c.is_exactly_zero() if isinstance(c, TowerElement) else c == 0
            if zero:
                continue
            if level == 1:
                c = _as_fraction(c)
            elif not isinstance(c, TowerElement) or c.level != level - 1:
                raise LevelMismatch(
                    f"coefficient at exponent {e} has wrong level for tower level {level}"
                )
            kept[int(e)] = c
        if exact:
            # known everywhere: ``hi`` is one past the support whatever was
            # passed, so equal exact values have equal parts
            hi_val = max(kept) + 1 if kept else 0
        else:
            if hi is None:
                raise ValueError("inexact element needs a finite knowledge bound")
            hi_val = int(hi)
            kept = {e: c for e, c in kept.items() if e < hi_val}
        den = 1
        if level == 1:
            den = lcm(*(q.denominator for q in kept.values()))
            kept = {e: q.numerator * (den // q.denominator) for e, q in kept.items()}
        _fill(self, level, kept, den, hi_val, bool(exact))

    def __setattr__(self, *a):
        raise AttributeError("TowerElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "TowerElement":
        return _zero(level)

    @classmethod
    def inexact_zero(cls, level: int, hi: int) -> "TowerElement":
        return cls(level, {}, hi, False)

    @classmethod
    def constant(cls, level: int, value) -> "TowerElement":
        """The rational ``value`` embedded at the given tower level.

        0, 1 and -1 are the level's shared instances.
        """
        q = _as_fraction(value)
        if q == 0:
            return cls.zero(level)
        if q == 1 or q == -1:
            return _unit(level, q.numerator)
        return cls.monomial(level, [0] * level, q)

    @classmethod
    def monomial(cls, level: int, exponents, coefficient=1) -> "TowerElement":
        """c * t1^{e1} ... tn^{en} with ``exponents`` listed innermost first."""
        exps = tuple(int(e) for e in exponents)
        if len(exps) != level:
            raise LevelMismatch("need one exponent per level")
        q = _as_fraction(coefficient)
        if q == 0:
            return cls.zero(level)
        c = _element(1, {exps[0]: q.numerator}, q.denominator, None)
        for lvl in range(2, level + 1):
            c = _element(lvl, {exps[lvl - 1]: c}, 1, None)
        return c

    # -- knowledge bookkeeping ----------------------------------------------

    def known_hi(self) -> Optional[int]:
        """Knowledge bound in the outer variable; None means exact."""
        return None if self.exact else self.hi

    def valuation_lower_bound(self) -> Optional[int]:
        """A certified lower bound for the outer valuation; None for exact zero."""
        if self._terms:
            return self.lo
        return None if self.exact else self.hi

    def is_exactly_zero(self) -> bool:
        return self.exact and not self._terms

    def is_certainly_nonzero(self) -> bool:
        if self.level == 1:
            return bool(self._terms)
        return any(c.is_certainly_nonzero() for c in self._terms.values())

    def is_fully_exact(self) -> bool:
        if self.level == 1:
            return self.exact
        return self.exact and all(c.is_fully_exact() for c in self._terms.values())

    def classify_leading(self):
        """Return ("zero", None), ("nonzero", valuation) or ("undetermined", None).

        The valuation is certified: every stored coefficient below it is
        exactly zero and the coefficient at it is certainly nonzero.
        """
        if self._terms:
            if self.level == 1 or self._terms[self.lo].is_certainly_nonzero():
                return ("nonzero", self.lo)
            return ("undetermined", None)
        if self.exact:
            return ("zero", None)
        return ("undetermined", None)

    def valuation(self) -> int:
        cls, v = self.classify_leading()
        if cls == "nonzero":
            return v
        if cls == "zero":
            raise ZeroDivisionSeries("valuation of exact zero")
        raise UndeterminedLeadingTerm(
            "window too small to certify the leading term"
        )

    # -- coefficient access ---------------------------------------------------

    @property
    def coeffs(self) -> Mapping:
        """Outer exponent -> nonzero coefficient, read-only.

        At level 1 the Fractions are built on each read; above, a view of
        the inner elements.
        """
        if self.level == 1:
            return MappingProxyType({e: Fraction(n, self._den) for e, n in self._terms.items()})
        return MappingProxyType(self._terms)

    def numerators(self):
        """``(den, items)`` of a level-1 element, read-only.

        Coefficient ``e`` is ``n/den`` for each ``(e, n)`` of ``items``; the
        form is canonical: ``den > 0``, ``gcd(den, *n) == 1``, no ``n`` zero.
        """
        if self.level != 1:
            raise LevelMismatch("integer numerators exist at level 1 only")
        return self._den, self._terms.items()

    def coefficient(self, e: int) -> Coeff:
        """Coefficient of the outer variable at exponent ``e`` (must be known)."""
        c = self._terms.get(e)
        if c is not None:
            return Fraction(c, self._den) if self.level == 1 else c
        if self.exact or e < self.hi:
            return Fraction(0) if self.level == 1 else TowerElement.zero(self.level - 1)
        raise InsufficientPrecision(
            f"coefficient at exponent {e} lies outside the window [{self.lo},{self.hi})"
        )

    def knows(self, e: int) -> bool:
        return self.exact or e < self.hi

    # -- arithmetic -----------------------------------------------------------

    def _check_level(self, other: "TowerElement"):
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level} differ")

    def _combine(self, other: "TowerElement", sign: int) -> "TowerElement":
        """``self + sign*other`` for ``sign`` = +-1, known below both bounds."""
        self._check_level(other)
        return sum_of_products(self.level, ((1, self), (sign, other)))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TowerElement.constant(self.level, other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(
            self.level, {e: -c for e, c in self._terms.items()}, self._den, self.known_hi()
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TowerElement.constant(self.level, other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return TowerElement.zero(self.level)
            if self.level == 1:
                p = q.numerator
                terms = {e: n * p for e, n in self._terms.items()}
                return _element(1, *_reduced(terms, self._den * q.denominator), self.known_hi())
            terms = {e: c * q for e, c in self._terms.items()}
            return _element(self.level, terms, 1, self.known_hi())
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check_level(other)
        if self.level != 1:
            return sum_of_products(self.level, ((self, other),))
        if self.is_exactly_zero() or other.is_exactly_zero():
            return _zero(1)
        h = _product_bound(self, other)
        prod = _convolve(self._terms, other._terms, h)
        return _element(1, *_reduced(prod, self._den * other._den), h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionSeries("division by zero rational")
            return self * (Fraction(1) / q)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return TowerElement.constant(self.level, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def invert(self, prec: Optional[int] = None, terms: Optional[int] = None) -> "TowerElement":
        """Multiplicative inverse, guaranteed on the provable window.

        For an exact input the expansion is cut at ``prec`` terms, else at
        ``terms``, else at the working precision; for an inexact input the
        full guaranteed window is produced, capped by ``prec`` when given.
        ``terms`` sets the width of exact expansions only, at every level,
        and caps nothing.
        """
        cls, v = self.classify_leading()
        if cls == "zero":
            raise ZeroDivisionSeries("inverse of exact zero")
        if cls == "undetermined":
            raise UndeterminedLeadingTerm(
                "cannot certify a nonzero leading term for inversion"
            )
        lead = self._terms[v]
        if self.exact and len(self._terms) == 1:
            if self.level == 1:
                # lead/den is in lowest terms, so den/lead is too
                return _element(1, {-v: self._den if lead > 0 else -self._den}, abs(lead), None)
            return TowerElement(self.level, {-v: lead.invert(prec, terms)}, None, True)
        # shift so the unit part starts at exponent 0
        g = self.shift_outer(-v)
        width = g.known_hi()  # None if exact
        if width is None:
            width = prec if prec is not None else terms or working_precision()
        elif prec is not None:
            width = min(width, prec)
        if width < 1:
            raise InsufficientPrecision("no terms survive inversion at this window")
        if self.level == 1:
            nums, den = _inverse_numerators(g._terms, g._den, width)
            return _element(1, nums, den, width).shift_outer(-v)
        c0inv = lead.invert(prec, terms)
        inv: dict = {0: c0inv}
        for e in range(1, width):
            pairs = [
                (gj, inv[e - j]) for j, gj in g._terms.items() if 1 <= j <= e and (e - j) in inv
            ]
            if pairs:
                coef = -(c0inv * sum_of_products(self.level - 1, pairs))
                if not coef.is_exactly_zero():
                    inv[e] = coef
        return TowerElement(self.level, inv, width, False).shift_outer(-v)

    def shift_outer(self, k: int) -> "TowerElement":
        """Multiply by (outer variable)^k."""
        if k == 0:
            return self
        return _element(
            self.level,
            {e + k: c for e, c in self._terms.items()},
            self._den,
            None if self.exact else self.hi + k,
        )

    def truncate(self, hi: int) -> "TowerElement":
        """Forget all outer coefficients at exponent >= hi (always inexact)."""
        terms = {e: c for e, c in self._terms.items() if e < hi}
        if self.level == 1:
            # the cut terms may have carried the only factor coprime to den
            return _element(1, *_reduced(terms, self._den), hi)
        return _element(self.level, terms, 1, hi)

    def lift(self, level: int) -> "TowerElement":
        """Embed into a taller tower as a constant in the new outer variables."""
        if level < self.level:
            raise LevelMismatch("cannot lift downwards")
        out: Coeff = self
        for lvl in range(self.level + 1, level + 1):
            out = TowerElement(lvl, {0: out}, None, True)
        return out  # type: ignore[return-value]

    def map_coefficients(self, fn) -> "TowerElement":
        return TowerElement(
            self.level,
            {e: fn(c) for e, c in self.coeffs.items()},
            self.known_hi(),
            self.exact,
        )

    # -- calculus -------------------------------------------------------------

    def derive(self, i: int) -> "TowerElement":
        """Partial derivative with respect to variable ``i`` (1 = innermost)."""
        if not 1 <= i <= self.level:
            raise LevelMismatch(f"variable index {i} out of range for level {self.level}")
        if i == self.level:
            h = None if self.exact else self.hi - 1
            if self.level == 1:
                terms = {e - 1: n * e for e, n in self._terms.items() if e}
                return _element(1, *_reduced(terms, self._den), h)
            out = {e - 1: c * Fraction(e) for e, c in self._terms.items() if e}
            return TowerElement(self.level, out, h, self.exact)
        if self.level == 1:
            raise LevelMismatch("level-1 elements only admit variable 1")
        return self.map_coefficients(lambda c: c.derive(i))

    # -- comparison -----------------------------------------------------------

    def agrees_with(self, other) -> bool:
        """True when the difference carries no certified-nonzero coefficient."""
        if isinstance(other, (int, Fraction)):
            other = TowerElement.constant(self.level, other)
        return not (self - other).is_certainly_nonzero()

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return (
            self.level == other.level
            and self.exact == other.exact
            and self.hi == other.hi
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        items = tuple(sorted(self._terms.items()))
        return hash((self.level, self.exact, self.hi, self._den, items))

    # -- rendering --------------------------------------------------------------

    def render(self, names) -> str:
        """Deterministic human-readable form using the given variable names."""
        name = names[self.level - 1]
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if self.level == 1:
                g = gcd(c, self._den)
                cs = _decimal(c // g)
                if self._den != g:
                    cs += "/" + _decimal(self._den // g)
                atomic = True
            else:
                cs = c.render(names)
                atomic = len(c._terms) <= 1 and not cs.startswith("-")
            if e == 0:
                term = cs
            else:
                power = name if e == 1 else f"{name}^{_decimal(e)}"
                if cs == "1":
                    term = power
                elif cs == "-1":
                    term = f"-{power}"
                else:
                    term = f"{cs}*{power}" if atomic else f"({cs})*{power}"
            parts.append(term)
        if not self.exact:
            parts.append(f"O({name}^{_decimal(self.hi)})")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        names = tuple(f"t{i+1}" for i in range(self.level))
        return f"<{self.render(names)}>"


# the slot setters, which the immutable class's __setattr__ does not reach
_set_level = TowerElement.level.__set__
_set_lo = TowerElement.lo.__set__
_set_hi = TowerElement.hi.__set__
_set_exact = TowerElement.exact.__set__
_set_terms = TowerElement._terms.__set__
_set_den = TowerElement._den.__set__


def _fill(x: TowerElement, level: int, terms: dict, den: int, hi: int, exact: bool) -> TowerElement:
    _set_level(x, level)
    _set_terms(x, terms)
    _set_den(x, den)
    _set_hi(x, hi)
    _set_exact(x, exact)
    _set_lo(x, min(terms) if terms else hi)
    return x


def _element(level: int, terms: dict, den: int, hi: Optional[int]) -> TowerElement:
    """The element with ``terms`` over ``den``, known below ``hi`` (None: exact).

    The parts must already be canonical, with no term at or above a finite
    ``hi``; the per-coefficient checks of the public constructor are skipped.
    An exact zero is the level's shared one.
    """
    if hi is None:
        if not terms:
            return _zero(level)
        return _fill(object.__new__(TowerElement), level, terms, den, max(terms) + 1, True)
    return _fill(object.__new__(TowerElement), level, terms, den, hi, False)


_ZEROS: dict = {}
_UNITS: dict = {}


def _zero(level: int) -> TowerElement:
    """The exact zero of ``level``, one shared instance per level."""
    z = _ZEROS.get(level)
    if z is None:
        z = _ZEROS[level] = TowerElement(level, {}, None, True)
    return z


def _unit(level: int, sign: int) -> TowerElement:
    """The exact constant ``sign`` (1 or -1) of ``level``, one shared instance each."""
    u = _UNITS.get((level, sign))
    if u is None:
        u = _UNITS[level, sign] = TowerElement.monomial(level, [0] * level, sign)
    return u


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size.

    Python limits int-to-str conversion to a number of digits (4,300 by
    default, 640 at the least), process-wide; a longer int is split at a
    power of ten, recursively, into halves of fewer digits.
    """
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


# ---------------------------------------------------------------------------
# Fused sums of products
# ---------------------------------------------------------------------------

def _products_q(pairs, h: Optional[int]):
    """``(terms, den)`` of the level-1 sum of ``a*b`` over ``pairs``, cut at ``h``.

    Each product is convolved in integers (:func:`_convolve`) and brought to
    the lcm ``D`` of the denominators ``da*db``, so every sum is an integer
    over ``D``.  An int ``a`` is the constant ``a/1``: it scales the
    numerators of ``b`` below ``h`` with no convolution.
    """
    dens = [b._den if type(a) is int else a._den * b._den for a, b in pairs]
    D = lcm(*dens)
    acc: dict = {}
    get = acc.get
    for (a, b), d in zip(pairs, dens):
        s = D // d
        if type(a) is int:
            s *= a
            terms = b._terms if h is None else {e: n for e, n in b._terms.items() if e < h}
        else:
            terms = _convolve(a._terms, b._terms, h)
        for e, n in terms.items():
            acc[e] = get(e, 0) + n * s
    return _reduced(acc, D)


def _fused(level: int, live: list, h: Optional[int]) -> TowerElement:
    """The sum of the products of the ``live`` pairs, no factor zero, known below ``h``.

    Above level 1 the inner pairs are gathered per outer exponent below
    ``h`` and each coefficient is fused one level down, once; an int first
    factor goes down as it is, the constant at outer exponent 0.
    """
    if level == 1:
        return _element(1, *_products_q(live, h), h)
    buckets: dict = {}
    for a, b in live:
        ys = b._terms.items()
        for ea, x in ((0, a),) if type(a) is int else a._terms.items():
            for eb, y in ys:
                e = ea + eb
                if h is None or e < h:
                    buckets.setdefault(e, []).append((x, y))
    out = {}
    for e, pairs in buckets.items():
        c = sum_of_products(level - 1, pairs)
        if not c.is_exactly_zero():
            out[e] = c
    return _element(level, out, 1, h)


def sum_of_products(level: int, pairs) -> TowerElement:
    """``sum_k a_k*b_k`` over ``pairs`` ``(a_k, b_k)`` of elements of ``level``.

    Equal in value, window and exactness to the chained ``a_1*b_1 +
    a_2*b_2 + ...``, but each output coefficient is built once: a pair with
    an exact-zero factor is skipped, the sum is known below the least
    product bound of the others (exact when all are exact), and level-1
    coefficients are summed in integers over one common denominator.  No
    pair left gives the exact zero.  A first factor may be an int, the
    exact constant of ``level``: its pair is skipped when it is 0 and is
    otherwise known below ``b.known_hi()``, and no constant is built.
    """
    live = []
    h: Optional[int] = None
    for a, b in pairs:
        if type(a) is int:
            if not a or b.is_exactly_zero():
                continue
            if b.level != level:
                raise LevelMismatch(f"level {b.level} in a level-{level} sum")
            live.append((a, b))
            h = _min_bound(h, b.known_hi())
            continue
        if a.is_exactly_zero() or b.is_exactly_zero():
            continue
        if a.level != level or b.level != level:
            raise LevelMismatch(f"levels {a.level} and {b.level} in a level-{level} sum")
        live.append((a, b))
        h = _min_bound(h, _product_bound(a, b))
    if not live:
        return _zero(level)
    return _fused(level, live, h)


def sub_mul(a: TowerElement, f: TowerElement, b: TowerElement) -> TowerElement:
    """``a - f*b``, with the coefficients, window and exactness of that expression.

    Level 1, the row update of every elimination, runs through one integer
    kernel: the product is cut at the composite's bound ``min(a.known_hi(),
    h)``, ``h`` being the product's own bound, and no intermediate product or
    negation is built.  Higher levels evaluate ``a - f*b``.
    """
    if a.level != 1:
        return a - f * b
    if f.level != 1 or b.level != 1:
        raise LevelMismatch("sub_mul needs operands of one level")
    if f.is_exactly_zero() or b.is_exactly_zero():
        h = a.known_hi()
    else:
        h = _min_bound(a.known_hi(), _product_bound(f, b))
    da, dp = a._den, f._den * b._den
    g = gcd(da, dp)
    sa, sp = dp // g, da // g
    out = {e: n * sa for e, n in a._terms.items() if h is None or e < h}
    get = out.get
    for e, n in _convolve(f._terms, b._terms, h).items():
        out[e] = get(e, 0) - n * sp
    return _element(1, *_reduced(out, da // g * dp), h)


class TowerField:
    """The tower field k((t1))...((tn)) together with its variable names."""

    __slots__ = ("level", "names")

    def __init__(self, level: int, names: Optional[Iterable[str]] = None):
        if level < 0:
            raise ValueError("level must be >= 0")
        if names is None:
            names = tuple(f"t{i+1}" for i in range(level))
        else:
            names = tuple(names)
        if len(names) != level:
            raise ValueError("need one variable name per level")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        self.level = level
        self.names = names

    def __eq__(self, other):
        return (
            isinstance(other, TowerField)
            and self.level == other.level
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.level, self.names))

    def __repr__(self):
        inner = "Q"
        for nm in self.names:
            inner = f"{inner}(({nm}))"
        return f"TowerField({inner})"

    def zero(self) -> TowerElement:
        return TowerElement.zero(self.level)

    def one(self) -> TowerElement:
        return TowerElement.constant(self.level, 1)

    def rational(self, value) -> TowerElement:
        return TowerElement.constant(self.level, value)

    def gen(self, i: int) -> TowerElement:
        """The variable t_i as an element, i counted from 1 innermost."""
        if not 1 <= i <= self.level:
            raise LevelMismatch(f"no variable with index {i}")
        exps = [0] * self.level
        exps[i - 1] = 1
        return TowerElement.monomial(self.level, exps)

    def monomial(self, exponents, coefficient=1) -> TowerElement:
        return TowerElement.monomial(self.level, exponents, coefficient)

    def render(self, element: TowerElement) -> str:
        if element.level != self.level:
            raise LevelMismatch("element does not belong to this field")
        return element.render(self.names)


# ---------------------------------------------------------------------------
# Differential forms of degree one and the top residue
# ---------------------------------------------------------------------------

class OneForm:
    """A 1-form sum(f_i dt_i) with all components at a common level."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a 1-form needs at least one component")
        lvl = comps[0].level
        for c in comps:
            if not isinstance(c, TowerElement) or c.level != lvl:
                raise LevelMismatch("all components must share one level")
        if len(comps) != lvl:
            raise LevelMismatch("need one component per variable")
        self.components = comps

    @property
    def level(self) -> int:
        return self.components[0].level

    def __neg__(self):
        return OneForm(tuple(-c for c in self.components))

    def __add__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return OneForm(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, f: TowerElement) -> "OneForm":
        return OneForm(tuple(f * c for c in self.components))

    def exterior_coefficients(self) -> dict:
        """Coefficients of d(form) on dt_i ^ dt_j for i < j."""
        n = self.level
        out = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                # d(f_j dt_j) contributes  (d_i f_j) dt_i ^ dt_j
                out[(i, j)] = self.components[j - 1].derive(i) - self.components[
                    i - 1
                ].derive(j)
        return out

    def closedness_witness(self):
        """None when closed up to precision, else ((i, j), coefficient)."""
        for key, c in sorted(self.exterior_coefficients().items()):
            if c.is_certainly_nonzero():
                return (key, c)
        return None

    def __eq__(self, other):
        return isinstance(other, OneForm) and self.components == other.components

    def __repr__(self):
        return f"OneForm{self.components!r}"


def exterior_derivative(f: TowerElement) -> OneForm:
    """df as a 1-form."""
    return OneForm(tuple(f.derive(i) for i in range(1, f.level + 1)))


def residue(f: TowerElement) -> Fraction:
    """Iterated residue of the top-degree coefficient ``f``.

    Extracts the coefficient of the outermost variable at exponent -1 first,
    then recurses inwards, matching the orientation dt_1 ^ ... ^ dt_n with
    indices ascending.
    """
    c = f.coefficient(-1)
    return c if isinstance(c, Fraction) else residue(c)
