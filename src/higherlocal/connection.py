"""Flat connections on tower fields.

A connection of rank r is the data of r x r matrices A_1 .. A_n over the
level-n tower field, acting on column vectors: the covariant derivative
along the i-th variable is  v -> d_i(v) + A_i v.  Flatness is the vanishing
of every curvature component, the commutator of two covariant derivatives
(:meth:`EdgeOperator.commutator`),

    d_i A_j - d_j A_i + A_i A_j - A_j A_i        (i < j)

up to the guaranteed precision.  Kummer covers extract an e-th root of the
outermost variable only; induction along a cover rewrites the covering
module over the base via the regular representation of the extension.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import FieldMismatch, InsufficientPrecision, LevelMismatch, NotFlat
from .linalg import SeriesMatrix, inverse
from .series import (
    OneForm,
    TowerElement,
    TowerField,
    _add_bound,
    _add_convolution,
    _element,
    _min_bound,
    _reduced,
    sum_of_products,
)


class FlatnessReport(NamedTuple):
    flat: bool
    witness: Optional[Tuple[int, int, int, int]]  # (i, j, row, col), 1-based vars


class EdgeOperator(NamedTuple):
    """The first-order operator ``sum_k c_k d/dt_k + P`` on column vectors."""

    cvec: Tuple[TowerElement, ...]  # the field: coefficients c_k of d/dt_k
    pmat: SeriesMatrix  # P

    def commutator(self, other: "EdgeOperator") -> "EdgeOperator":
        """``[F, G] = FG - GF`` for ``F = self`` and ``G = other = sum_k d_k d/dt_k + Q``.

        The second-order and cross terms cancel identically, so the field is
        ``F(d_k) - G(c_k)`` and the matrix ``F(Q) - G(P) + PQ - QP``, where
        ``F(x) = sum_k c_k d_k(x)``.  Each entry is one
        :func:`~higherlocal.series.sum_of_products`, and exact zeros, field
        coefficients or entries, take no derivative.
        """
        level, P, Q = self.pmat.level, self.pmat.entries, other.pmat.entries
        # the fields of F and -G as (k, coefficient of d_k)
        F = [(k, c) for k, c in enumerate(self.cvec, start=1) if not c.is_exactly_zero()]
        G = [(k, -d) for k, d in enumerate(other.cvec, start=1) if not d.is_exactly_zero()]

        def entry(x, y, *products):
            # F(y) - G(x), plus the sums of the pairs in ``products``
            fields = [(c, y.derive(k)) for k, c in F if not y.is_exactly_zero()]
            fields += [(d, x.derive(k)) for k, d in G if not x.is_exactly_zero()]
            return sum_of_products(level, chain(fields, *products))

        Pt, Qt = tuple(zip(*P)), tuple(zip(*Q))
        negQ, r = [[-x for x in row] for row in Q], range(len(P))
        pmat = [
            [entry(P[a][b], Q[a][b], zip(P[a], Qt[b]), zip(negQ[a], Pt[b])) for b in r] for a in r
        ]
        cvec = tuple(entry(c, d) for c, d in zip(self.cvec, other.cvec))
        return EdgeOperator(cvec, SeriesMatrix._of_rows(pmat, level))


class Connection:
    """A connection d + sum(A_i dt_i) on the trivial rank-r module."""

    # _reading: the level-1 matrix as integer rows, built by ``nabla`` on
    # first use (the matrices never change after construction)
    __slots__ = ("field", "rank", "matrices", "_reading")

    def __init__(self, field: TowerField, matrices: Sequence[SeriesMatrix]):
        mats = tuple(matrices)
        if len(mats) != field.level:
            raise LevelMismatch("need one matrix per variable")
        if not mats:
            raise LevelMismatch("connections need level >= 1")
        r = mats[0].rows
        for M in mats:
            if M.rows != M.cols or M.rows != r:
                raise LevelMismatch("connection matrices must be square of equal size")
            if M.level != field.level:
                raise LevelMismatch("matrix level does not match the field")
        self.field = field
        self.rank = r
        self.matrices = mats
        self._reading = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, field: TowerField, rank: int = 1) -> "Connection":
        Z = SeriesMatrix.zeros(field, rank, rank)
        return cls(field, [Z] * field.level)

    # -- covariant derivatives --------------------------------------------------

    def nabla(self, i: int, vec: Sequence[TowerElement]) -> Tuple[TowerElement, ...]:
        """Covariant derivative along variable i of a column vector.

        Entry ``a`` is ``v_a.derive(i) + sum_b A[a][b] v_b``.  Above level 1
        it is one :func:`~higherlocal.series.sum_of_products`, the derivative
        its pair with the int weight 1.  At level 1 the whole vector is one
        integer pass over the reading of ``A`` kept on the connection
        (:meth:`_read`): each entry is summed in integers over one common
        denominator, cut at the bound that expression has (``v_a'`` is known
        below ``hi - 1``, a pair with an exact-zero factor is skipped, each
        other pair is known below its product bound), and built once.  Value,
        window and exactness are those of the expression.
        """
        if len(vec) != self.rank:
            raise ValueError("vector length mismatch")
        level = self.field.level
        if not 1 <= i <= level:
            raise LevelMismatch(f"variable index {i} out of range for level {level}")
        if level != 1:
            A = self.matrices[i - 1].entries
            return tuple(
                sum_of_products(level, chain(((1, v.derive(i)),), zip(row, vec)))
                for v, row in zip(vec, A)
            )
        D, rows = self._read()
        dv = lcm(*(v.numerators()[0] for v in vec))
        # lo is the valuation lower bound of an element not exactly zero
        parts = [(_scaled(v, dv), v.lo, v.known_hi()) for v in vec]
        out = []
        for (terms, _, vhi), row in zip(parts, rows):
            h = None if vhi is None else vhi - 1
            pairs = []
            for b, a, alo, ahi in row:
                ys, blo, bhi = parts[b]
                if not ys and bhi is None:
                    continue  # an exact zero
                h = _min_bound(h, _min_bound(_add_bound(alo, bhi), _add_bound(ahi, blo)))
                if a and ys:
                    pairs.append((a, ys))
            # v_a' and the products, over D * dv
            acc = {e - 1: n * e * D for e, n in terms if e and (h is None or e <= h)}
            for a, ys in pairs:
                _add_convolution(acc, a, ys, h)
            out.append(_element(1, *_reduced(acc, D * dv), h))
        return tuple(out)

    def _read(self):
        """``(D, rows)``, the level-1 matrix over the lcm ``D`` of its denominators.

        Row ``a`` lists ``(b, numerators, lo, known_hi)`` for each entry
        ``A[a][b]`` not exactly zero.  Built on first use and kept.
        """
        if self._reading is None:
            A = self.matrices[0].entries
            D = lcm(*(x.numerators()[0] for row in A for x in row))
            self._reading = D, tuple(
                tuple(
                    (b, _scaled(x, D), x.lo, x.known_hi())
                    for b, x in enumerate(row)
                    if not x.is_exactly_zero()
                )
                for row in A
            )
        return self._reading

    def along(self, cvec: Sequence[TowerElement]) -> SeriesMatrix:
        """``sum_k c_k A_k``, the matrix part of nabla along ``sum_k c_k d/dt_k``.

        Each entry is one :func:`~higherlocal.series.sum_of_products` of the
        pairs ``(c_k, A_k[a][b])``.
        """
        level, r = self.field.level, range(self.rank)
        mats = [(c, M.entries) for c, M in zip(cvec, self.matrices)]
        rows = [[sum_of_products(level, ((c, A[a][b]) for c, A in mats)) for b in r] for a in r]
        return SeriesMatrix._of_rows(rows, level)

    # -- checks -----------------------------------------------------------------

    def check_flatness(self) -> FlatnessReport:
        n = self.field.level
        # the coordinate edges d/dt_i + A_i; one variable has no pair to read
        unit = SeriesMatrix.identity(self.field, n).entries if n > 1 else ()
        edges = [EdgeOperator(e, A) for e, A in zip(unit, self.matrices)]
        for i, j in combinations(range(n), 2):
            K = edges[i].commutator(edges[j]).pmat
            for r, row in enumerate(K.entries):
                for c, x in enumerate(row):
                    if x.is_certainly_nonzero():
                        return FlatnessReport(False, (i + 1, j + 1, r, c))
                    if not x.is_exactly_zero() and x.hi <= x.lo and x.hi <= 0:
                        raise InsufficientPrecision("no window left to certify curvature vanishing")
        return FlatnessReport(True, None)

    # -- functorial operations ----------------------------------------------------

    def dual(self) -> "Connection":
        return Connection(
            self.field, [(-A.transpose()) for A in self.matrices]
        )

    def direct_sum(self, other: "Connection") -> "Connection":
        if self.field != other.field:
            raise FieldMismatch("direct sum needs a common field")
        return Connection(
            self.field,
            [A.block_diag(B) for A, B in zip(self.matrices, other.matrices)],
        )

    def tensor(self, other: "Connection") -> "Connection":
        if self.field != other.field:
            raise FieldMismatch("tensor needs a common field")
        I_self = SeriesMatrix.identity(self.field, self.rank)
        I_other = SeriesMatrix.identity(self.field, other.rank)
        mats = []
        for A, B in zip(self.matrices, other.matrices):
            mats.append(A.kron(I_other) + I_self.kron(B))
        return Connection(self.field, mats)

    def gauge(self, g: SeriesMatrix, g_inv: Optional[SeriesMatrix] = None) -> "Connection":
        """Transport along the bundle automorphism v -> g v."""
        if g_inv is None:
            g_inv = inverse(g)
        mats = []
        for i, A in enumerate(self.matrices, start=1):
            mats.append(g @ A @ g_inv - g.derive(i) @ g_inv)
        return Connection(self.field, mats)

    # -- pairings ------------------------------------------------------------------

    def pair(self, s: Sequence[TowerElement], t: Sequence[TowerElement]) -> TowerElement:
        """``sum_a s_a t_a``, one :func:`~higherlocal.series.sum_of_products`."""
        return sum_of_products(self.field.level, zip(s, t))

    def adjunction_defect(self, i: int, s, t) -> TowerElement:
        """<nabla_i s, t> + <s, nabla^v_i t> - d_i<s, t>; zero when duality holds."""
        lhs = self.pair(self.nabla(i, s), t) + self.pair(s, self.dual().nabla(i, t))
        return lhs - self.pair(s, t).derive(i)


def _scaled(x: TowerElement, D: int) -> list:
    """The ``(exponent, numerator)`` pairs of level-1 ``x`` over ``D``, in exponent order."""
    den, items = x.numerators()
    s = D // den
    return sorted((e, n * s) for e, n in items)


def rank1_from_form(omega: OneForm) -> Connection:
    """The rank-1 connection d + omega; for n >= 2 the form must be closed."""
    level = omega.level
    field = TowerField(level)
    if level >= 2:
        w = omega.closedness_witness()
        if w is not None:
            (i, j), entry = w
            raise NotFlat(
                f"d(omega) has a certified nonzero dt{i}^dt{j} component"
            )
    mats = [SeriesMatrix([[c]]) for c in omega.components]
    return Connection(field, mats)


# ---------------------------------------------------------------------------
# Kummer covers and induction
# ---------------------------------------------------------------------------

class KummerCover(NamedTuple("KummerCover", [("e", int)])):
    """The cover obtained by extracting an e-th root of the outermost variable."""

    __slots__ = ()

    def __new__(cls, e: int):
        if e < 1:
            raise ValueError("ramification index must be >= 1")
        return super().__new__(cls, e)

    _make = classmethod(lambda cls, fields: cls(*fields))


def regular_representation(f: TowerElement, e: int) -> list:
    """Multiplication by f on the cover, as an e x e matrix over the base.

    The cover variable s satisfies s^e = t.  On the basis 1, s, ..., s^(e-1)
    with coefficients in the base field, multiplication by a Laurent series
    f(s) becomes an e x e matrix of t-series: the monomial s^m sends basis
    slot a to slot (m + a) mod e with a factor t^((m + a - slot)/e).
    """
    level = f.level
    rows = [[dict() for _ in range(e)] for _ in range(e)]
    for m, c in f.coeffs.items():
        for a in range(e):
            a2 = (m + a) % e
            q = (m + a - a2) // e
            cell = rows[a2][a]
            cell[q] = cell[q] + c if q in cell else c
    out = []
    for a2 in range(e):
        row = []
        for a in range(e):
            if f.exact:
                hi = None
            else:
                # entry (a2, a) holds t^q for s-exponents m = q*e + (a2 - a);
                # coefficients with m >= f.hi are unknown
                hi = (f.hi - (a2 - a) - 1) // e + 1
            row.append(TowerElement(level, rows[a2][a], hi, f.exact))
        out.append(row)
    return out


def kummer_pullback(f: TowerElement, e: int) -> TowerElement:
    """Substitute t = s^e in the outermost variable."""
    return TowerElement(
        f.level,
        {e * k: c for k, c in f.coeffs.items()},
        None if f.exact else e * f.hi,
        f.exact,
    )


def induct(C: Connection, cover: KummerCover) -> Connection:
    """Push a connection on the cover down along s^e = t.

    The result has rank e*r on the basis (1, s, ..., s^(e-1)) tensor the
    covering basis, with the derivative rewritten through
    d/dt = s^(1-e)/e * d/ds.  Only the outermost variable is touched, so the
    underlying k-linear operator is unchanged.
    """
    e = cover.e
    if e == 1:
        return C
    field = C.field
    n = field.level
    r = C.rank

    def expand(A: SeriesMatrix, scale: Optional[TowerElement] = None) -> list:
        # entry (c, b) of A, times scale, as its e x e block on slots a2 * r + c, a * r + b
        big = [[field.zero()] * (e * r) for _ in range(e * r)]
        for c in range(r):
            for b in range(r):
                entry = A[c, b]
                if entry.is_exactly_zero():
                    continue
                blocks = regular_representation(entry if scale is None else scale * entry, e)
                for a2 in range(e):
                    for a in range(e):
                        big[a2 * r + c][a * r + b] = blocks[a2][a]
        return big

    mats = [SeriesMatrix(expand(A)) for A in C.matrices[:-1]]
    # the outermost variable: d/dt = s^(1-e)/e d/ds, and d/dt acting on s^a
    # contributes (a/e) t^(-1) on slot a
    big = expand(C.matrices[-1], TowerElement.monomial(n, [0] * (n - 1) + [1 - e], Fraction(1, e)))
    tinv = TowerElement.monomial(n, [0] * (n - 1) + [-1])
    for a in range(1, e):
        for b in range(r):
            big[a * r + b][a * r + b] = big[a * r + b][a * r + b] + tinv * Fraction(a, e)
    mats.append(SeriesMatrix(big))
    return Connection(field, mats)
