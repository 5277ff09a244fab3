"""Exact truncated arithmetic for iterated Laurent series towers.

The tower of fields is built from exact rationals by repeatedly adjoining a
Laurent series variable: level 1 is k((t1)), level 2 is k((t1))((t2)) with t2
outermost, and so on.  An element is stored sparsely as a map

    outer exponent  ->  coefficient

where coefficients at level n are elements of level n-1 and level-1
coefficients are plain ``fractions.Fraction`` values (the level-0 payload).

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

from contextvars import ContextVar
from fractions import Fraction
from math import lcm
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


# ---------------------------------------------------------------------------
# Coefficient helpers: a coefficient is a Fraction (level 0) or TowerElement.
# ---------------------------------------------------------------------------

def _c_zero(level: int) -> Coeff:
    if level == 0:
        return Fraction(0)
    return TowerElement.zero(level)


def _c_is_exact_zero(c: Coeff) -> bool:
    if isinstance(c, Fraction):
        return c == 0
    return c.is_exactly_zero()


def _c_is_certainly_nonzero(c: Coeff) -> bool:
    if isinstance(c, Fraction):
        return c != 0
    return c.is_certainly_nonzero()


def _c_is_fully_exact(c: Coeff) -> bool:
    if isinstance(c, Fraction):
        return True
    return c.is_fully_exact()


def _c_invert(c: Coeff, prec: Optional[int]) -> Coeff:
    if isinstance(c, Fraction):
        if c == 0:
            raise ZeroDivisionSeries("division by exact zero coefficient")
        return Fraction(1) / c
    return c.invert(prec)


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
# Level-1 kernel: products and inverses of {exponent: Fraction} maps.
# ---------------------------------------------------------------------------

def _integer_numerators(a: dict):
    """(d, [(e, n), ...]): the lcm d of the denominators, a[e] = n/d, sorted by e."""
    d = lcm(*[c.denominator for c in a.values()])
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in sorted(a.items())]


def _convolve(a: dict, b: dict, h: Optional[int]):
    """(d, {e: n}): the product of two nonempty level-1 maps is {e: n/d}.

    Each factor is scaled to integer numerators over the lcm of its
    denominators and the integers are convolved with no gcd per pair; ``d``
    is the product of the two lcms.  Pairs at exponent ``>= h`` are skipped
    (None: no cut).  Sums that cancel are kept as 0.
    """
    da, xs = _integer_numerators(a)
    db, ys = _integer_numerators(b)
    if h is None:
        h = xs[-1][0] + ys[-1][0] + 1
    acc: dict = {}
    get = acc.get
    for ea, x in xs:
        lim = h - ea
        for eb, y in ys:
            if eb >= lim:
                break
            e = ea + eb
            acc[e] = get(e, 0) + x * y
    return da * db, acc


def _mul_q(a: dict, b: dict, h: Optional[int]) -> dict:
    """The product of two level-1 coefficient maps, cut at exponent ``h``.

    ``a`` and ``b`` map exponents to nonzero Fractions; ``h`` is None for no
    cut, else pairs at exponent ``>= h`` are skipped.  A single-term factor
    scales the other coefficientwise.  Otherwise the factors go through
    :func:`_convolve` and each output coefficient is one Fraction.  Fraction
    is canonical, so the result equals the Fraction double loop's.
    """
    if not a or not b:
        return {}
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ea, ca),) = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items() if h is None or ea + eb < h}
    d, acc = _convolve(a, b, h)
    return {e: Fraction(n, d) for e, n in acc.items() if n}


def _sub_mul_q(a: dict, f: dict, b: dict, h: Optional[int]) -> dict:
    """``a - f*b`` for level-1 coefficient maps, every term cut at exponent ``h``.

    The product goes through :func:`_convolve`; each output coefficient that
    it touches is one Fraction, ``(p*d - n*q) / (q*d)`` for ``a[e] = p/q``.
    """
    out = {e: c for e, c in a.items() if h is None or e < h}
    if not f or not b:
        return out
    d, acc = _convolve(f, b, h)
    for e, n in acc.items():
        c = out.get(e)
        if c is None:
            out[e] = Fraction(-n, d)
        else:
            q = c.denominator
            out[e] = Fraction(c.numerator * d - n * q, q * d)
    return out


def _inverse_q(g: dict, c0inv: Fraction, width: int) -> dict:
    """The inverse of ``g`` mod t^width, for ``g`` of valuation 0 with g[0] = 1/c0inv.

    Newton iteration f <- f + f*(1 - g*f) mod t^k, doubling k up to
    ``width``.  If f inverts g mod t^j, then 1 - g*f vanishes below t^j, so
    the correction has valuation >= j and only adds terms to f.
    """
    f = {0: c0inv}
    k = 1
    while k < width:
        j, k = k, min(2 * k, width)
        gf = _mul_q({e: c for e, c in g.items() if e < k}, f, k)
        # gf = 1 + (terms at exponents j..k-1)
        r = {e: -c for e, c in gf.items() if e >= j}
        f.update(_mul_q(f, r, k))
    return f


class TowerElement:
    """An element of the level-n tower field, truncated in the outer variable."""

    __slots__ = ("level", "lo", "hi", "exact", "coeffs")

    def __init__(self, level: int, coeffs: dict, hi: Optional[int], exact: bool):
        if level < 1:
            raise ValueError("TowerElement level must be >= 1; level 0 is Fraction")
        kept = {}
        for e, c in coeffs.items():
            if _c_is_exact_zero(c):
                continue
            if level == 1:
                c = _as_fraction(c)
            elif not isinstance(c, TowerElement) or c.level != level - 1:
                raise LevelMismatch(
                    f"coefficient at exponent {e} has wrong level for tower level {level}"
                )
            kept[int(e)] = c
        if exact:
            hi_val = max(kept) + 1 if kept else 0
            if hi is not None and hi > hi_val:
                hi_val = hi
        else:
            if hi is None:
                raise ValueError("inexact element needs a finite knowledge bound")
            hi_val = int(hi)
            kept = {e: c for e, c in kept.items() if e < hi_val}
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", kept)
        object.__setattr__(self, "hi", hi_val)
        object.__setattr__(self, "exact", bool(exact))
        object.__setattr__(self, "lo", min(kept) if kept else hi_val)

    def __setattr__(self, *a):
        raise AttributeError("TowerElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "TowerElement":
        return cls(level, {}, None, True)

    @classmethod
    def inexact_zero(cls, level: int, hi: int) -> "TowerElement":
        return cls(level, {}, hi, False)

    @classmethod
    def constant(cls, level: int, value) -> "TowerElement":
        """The rational ``value`` embedded at the given tower level."""
        q = _as_fraction(value)
        if q == 0:
            return cls.zero(level)
        c: Coeff = q
        for lvl in range(1, level + 1):
            if lvl == 1:
                c = cls(1, {0: q}, None, True)
            else:
                c = cls(lvl, {0: c}, None, True)
        return c  # type: ignore[return-value]

    @classmethod
    def monomial(cls, level: int, exponents, coefficient=1) -> "TowerElement":
        """c * t1^{e1} ... tn^{en} with ``exponents`` listed innermost first."""
        exps = tuple(int(e) for e in exponents)
        if len(exps) != level:
            raise LevelMismatch("need one exponent per level")
        q = _as_fraction(coefficient)
        if q == 0:
            return cls.zero(level)
        c: Coeff = q
        for lvl in range(1, level + 1):
            inner = c if lvl > 1 else q
            c = cls(lvl, {exps[lvl - 1]: inner}, None, True)
        return c  # type: ignore[return-value]

    # -- knowledge bookkeeping ----------------------------------------------

    def known_hi(self) -> Optional[int]:
        """Knowledge bound in the outer variable; None means exact."""
        return None if self.exact else self.hi

    def valuation_lower_bound(self) -> Optional[int]:
        """A certified lower bound for the outer valuation; None for exact zero."""
        if self.coeffs:
            return self.lo
        return None if self.exact else self.hi

    def is_exactly_zero(self) -> bool:
        return self.exact and not self.coeffs

    def is_certainly_nonzero(self) -> bool:
        return any(_c_is_certainly_nonzero(c) for c in self.coeffs.values())

    def is_fully_exact(self) -> bool:
        return self.exact and all(_c_is_fully_exact(c) for c in self.coeffs.values())

    def classify_leading(self):
        """Return ("zero", None), ("nonzero", valuation) or ("undetermined", None).

        The valuation is certified: every stored coefficient below it is
        exactly zero and the coefficient at it is certainly nonzero.
        """
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if _c_is_certainly_nonzero(c):
                return ("nonzero", e)
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

    def leading_coefficient(self) -> Coeff:
        return self.coeffs[self.valuation()]

    # -- coefficient access ---------------------------------------------------

    def coefficient(self, e: int) -> Coeff:
        """Coefficient of the outer variable at exponent ``e`` (must be known)."""
        if e in self.coeffs:
            return self.coeffs[e]
        if self.exact or e < self.hi:
            return _c_zero(self.level - 1)
        raise InsufficientPrecision(
            f"coefficient at exponent {e} lies outside the window [{self.lo},{self.hi})"
        )

    def knows(self, e: int) -> bool:
        return self.exact or e < self.hi

    # -- arithmetic -----------------------------------------------------------

    def _check_level(self, other: "TowerElement"):
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level} differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TowerElement.constant(self.level, other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check_level(other)
        h = _min_bound(self.known_hi(), other.known_hi())
        out: dict = {}
        for e, c in self.coeffs.items():
            if h is None or e < h:
                out[e] = c
        for e, c in other.coeffs.items():
            if h is None or e < h:
                out[e] = out[e] + c if e in out else c
        return TowerElement(self.level, out, h, h is None)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(
            self.level,
            {e: -c for e, c in self.coeffs.items()},
            self.known_hi(),
            self.exact,
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TowerElement.constant(self.level, other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return TowerElement.zero(self.level)
            return TowerElement(
                self.level,
                {e: c * q for e, c in self.coeffs.items()},
                self.known_hi(),
                self.exact,
            )
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check_level(other)
        if self.is_exactly_zero() or other.is_exactly_zero():
            return TowerElement.zero(self.level)
        h = _product_bound(self, other)
        if self.level == 1:
            return TowerElement(1, _mul_q(self.coeffs, other.coeffs, h), h, h is None)
        out: dict = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if h is not None and e >= h:
                    continue
                p = ca * cb
                out[e] = out[e] + p if e in out else p
        return TowerElement(self.level, out, h, h is None)

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
        result = TowerElement.constant(self.level, 1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def invert(self, prec: Optional[int] = None) -> "TowerElement":
        """Multiplicative inverse, guaranteed on the provable window.

        For an exact input the expansion is cut at ``prec`` terms (the working
        precision by default); for an inexact input the full guaranteed window
        is produced, capped by ``prec`` when given.
        """
        cls, v = self.classify_leading()
        if cls == "zero":
            raise ZeroDivisionSeries("inverse of exact zero")
        if cls == "undetermined":
            raise UndeterminedLeadingTerm(
                "cannot certify a nonzero leading term for inversion"
            )
        lead = self.coeffs[v]
        if self.exact and len(self.coeffs) == 1:
            return TowerElement(
                self.level, {-v: _c_invert(lead, prec)}, None, True
            )
        # shift so the unit part starts at exponent 0
        g = self.shift_outer(-v)
        width = g.known_hi()  # None if exact
        if width is None:
            width = prec if prec is not None else working_precision()
        elif prec is not None:
            width = min(width, prec)
        if width < 1:
            raise InsufficientPrecision("no terms survive inversion at this window")
        c0inv = _c_invert(lead, prec)
        if self.level == 1:
            inv = _inverse_q(g.coeffs, c0inv, width)
            return TowerElement(1, inv, width, False).shift_outer(-v)
        inv: dict = {0: c0inv}
        for e in range(1, width):
            s = None
            for j, gj in g.coeffs.items():
                if 1 <= j <= e and (e - j) in inv:
                    term = gj * inv[e - j]
                    s = term if s is None else s + term
            if s is not None:
                coef = -(c0inv * s)
                if not _c_is_exact_zero(coef):
                    inv[e] = coef
        return TowerElement(self.level, inv, width, False).shift_outer(-v)

    def shift_outer(self, k: int) -> "TowerElement":
        """Multiply by (outer variable)^k."""
        if k == 0:
            return self
        return TowerElement(
            self.level,
            {e + k: c for e, c in self.coeffs.items()},
            None if self.exact else self.hi + k,
            self.exact,
        )

    def truncate(self, hi: int) -> "TowerElement":
        """Forget all outer coefficients at exponent >= hi (always inexact)."""
        return TowerElement(
            self.level, {e: c for e, c in self.coeffs.items() if e < hi}, hi, False
        )

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
            out = {}
            for e, c in self.coeffs.items():
                if e == 0:
                    continue
                out[e - 1] = c * Fraction(e)
            return TowerElement(self.level, out, h, self.exact)
        if self.level == 1:
            raise LevelMismatch("level-1 elements only admit variable 1")
        return self.map_coefficients(
            lambda c: c.derive(i) if isinstance(c, TowerElement) else Fraction(0)
        )

    def residue_full(self) -> Fraction:
        """Iterated residue: the coefficient of (t1 ... tn)^(-1), outermost first."""
        c = self.coefficient(-1)
        if isinstance(c, Fraction):
            return c
        return c.residue_full()

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
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        items = tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))
        return hash((self.level, self.exact, self.hi, items))

    # -- rendering --------------------------------------------------------------

    def render(self, names) -> str:
        """Deterministic human-readable form using the given variable names."""
        name = names[self.level - 1]
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if isinstance(c, Fraction):
                cs = str(c)
                atomic = True
            else:
                cs = c.render(names)
                atomic = len(c.coeffs) <= 1 and not cs.startswith("-")
            if e == 0:
                term = cs
            else:
                power = name if e == 1 else f"{name}^{e}"
                if cs == "1":
                    term = power
                elif cs == "-1":
                    term = f"-{power}"
                else:
                    term = f"{cs}*{power}" if atomic else f"({cs})*{power}"
            parts.append(term)
        if not self.exact:
            parts.append(f"O({name}^{self.hi})")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        names = tuple(f"t{i+1}" for i in range(self.level))
        return f"<{self.render(names)}>"


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
    return TowerElement(1, _sub_mul_q(a.coeffs, f.coeffs, b.coeffs, h), h, h is None)


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

    def is_closed(self) -> bool:
        return all(
            not c.is_certainly_nonzero() for c in self.exterior_coefficients().values()
        )

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
    return f.residue_full()
