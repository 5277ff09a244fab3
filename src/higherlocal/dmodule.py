"""Scalar differential operators over k((t)) and their invariants.

Connections over the one-variable field are converted to monic scalar
operators through a certified cyclic vector; Newton polygons of the theta
form (theta = t d/dt) then give slopes and irregularity.  The conversion is
exact: the two operator forms are related by Stirling-number identities, and
the cyclic-vector certificate is an explicit matrix with a certified unit
determinant.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .connection import Connection
from .errors import (
    InsufficientPrecision,
    SearchExhausted,
    UndeterminedLeadingTerm,
    UndeterminedPivot,
)
from .linalg import Factorization, SeriesMatrix, rank_kernel_det, solve
from .series import (
    TowerElement,
    TowerField,
    sum_of_products,
    working_precision,
)


# ---------------------------------------------------------------------------
# Wronskians
# ---------------------------------------------------------------------------

def wronskian(ys: Sequence[TowerElement]) -> TowerElement:
    """Determinant of the iterated-derivative matrix (y_i^(j-1))."""
    m = len(ys)
    if m == 0:
        raise ValueError("wronskian of an empty tuple")
    rows = []
    current = list(ys)
    for _ in range(m):
        rows.append(tuple(current))
        current = [y.derive(1) for y in current]
    M = SeriesMatrix(rows).transpose()  # row i = derivatives of y_i
    return _det_exact(M)


def _det_exact(M: SeriesMatrix) -> TowerElement:
    """Cofactor determinant; fine for the small sizes used here.

    The expansion along the first row is one
    :func:`~higherlocal.series.sum_of_products` of the signed entries and
    their minors' determinants; an exact-zero entry's minor is not expanded.
    """
    n = M.rows
    if n == 1:
        return M[0, 0]
    rest = M.entries[1:]
    cofactors = (
        (-x if j % 2 else x, _det_exact(SeriesMatrix([row[:j] + row[j + 1:] for row in rest])))
        for j, x in enumerate(M.entries[0])
        if not x.is_exactly_zero()
    )
    return sum_of_products(M.level, cofactors)


# ---------------------------------------------------------------------------
# Scalar operators in d- and theta-form
# ---------------------------------------------------------------------------

def _stirling_first(n: int) -> List[List[int]]:
    """Signed Stirling numbers s(i, j): t^i d^i = sum_j s(i,j) theta^j."""
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for j in range(0, i + 1):
            s[i][j] = (s[i - 1][j - 1] if j > 0 else 0) - (i - 1) * s[i - 1][j]
    return s


PARTIAL = "partial"
THETA = "theta"


class ScalarOperator(
    NamedTuple("ScalarOperator", [("form", str), ("coeffs", Tuple[TowerElement, ...])])
):
    """A monic scalar operator sum(a_i X^i) with X = d/dt or X = t d/dt.

    ``coeffs`` are a_0 .. a_m, with a_m == 1.
    """

    __slots__ = ()

    def __new__(cls, form: str, coeffs: Tuple[TowerElement, ...]):
        if form not in (PARTIAL, THETA):
            raise ValueError("form must be 'partial' or 'theta'")
        if len(coeffs) < 2:
            raise ValueError("order must be >= 1")
        if (coeffs[-1] - 1).is_certainly_nonzero():
            raise ValueError("operator must be monic")
        return super().__new__(cls, form, coeffs)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, f: TowerElement) -> TowerElement:
        """``sum_i a_i X^i f``, one :func:`~higherlocal.series.sum_of_products`."""
        t = TowerElement.monomial(1, [1])
        powers = [f]
        for _ in self.coeffs[1:]:
            d = powers[-1].derive(1)
            powers.append(d if self.form == PARTIAL else t * d)
        return sum_of_products(1, zip(self.coeffs, powers))

    def to_theta(self) -> "ScalarOperator":
        """Rewrite t^m * (this operator) in powers of theta; exact."""
        if self.form == THETA:
            return self
        m = self.order
        s = _stirling_first(m)
        # t^m a_i d^i = (t^(m-i) a_i) sum_j s(i, j) theta^j
        scaled = [a.shift_outer(m - i) for i, a in enumerate(self.coeffs)]
        b = [
            sum_of_products(1, [(s[i][j], scaled[i]) for i in range(j, m + 1)])
            for j in range(m + 1)
        ]
        return ScalarOperator(THETA, tuple(b))

    def render(self, field: TowerField) -> str:
        sym = "D" if self.form == PARTIAL else "theta"
        parts = []
        for i in range(self.order, -1, -1):
            a = self.coeffs[i]
            if a.is_exactly_zero():
                continue
            head = sym if i == 1 else (f"{sym}^{i}" if i > 1 else "")
            c = field.render(a)
            if i == 0:
                parts.append(f"({c})")
            elif c == "1":
                parts.append(head)
            else:
                parts.append(f"({c})*{head}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Cyclic vectors
# ---------------------------------------------------------------------------

def _certificate_matrix(C: Connection, s: Sequence[TowerElement]) -> SeriesMatrix:
    cols = [tuple(s)]
    for _ in range(C.rank - 1):
        cols.append(C.nabla(1, cols[-1]))
    return SeriesMatrix(cols).transpose()


# randomized candidates tried after the shifted monomials
_RANDOM_TRIES = 60


def _candidate_vectors(C: Connection, seed: int):
    field = C.field
    r = C.rank
    t = field.gen(1)
    zero = field.zero()
    # deterministic shifted-monomial candidates first
    for shifts in itertools.permutations(range(r)):
        yield tuple(t ** c for c in shifts)
    rng = random.Random(seed)
    for _ in range(_RANDOM_TRIES):
        vec = []
        for _ in range(r):
            coeffs = {
                e: Fraction(rng.randint(-2, 2))
                for e in range(0, 3)
                if rng.random() < 0.6
            }
            vec.append(TowerElement(1, coeffs, None, True) if coeffs else zero)
        if all(v.is_exactly_zero() for v in vec):
            continue
        yield tuple(vec)


def find_cyclic_vector(
    C: Connection, seed: int = 0, prec: Optional[int] = None
) -> Tuple[Tuple[TowerElement, ...], SeriesMatrix, Factorization]:
    """A vector whose iterated derivatives frame the module, with certificate.

    Returns (vector, certificate matrix, the certificate's forward pass at
    ``prec`` terms).  The pass has full rank over certified-nonzero pivots,
    so the determinant it builds when ``.determinant`` is first read is
    certified nonzero with finite valuation; the callers that only need the
    vector build none.  A search below the working precision is a ladder
    rung, and raises at its first undetermined pivot instead of skipping.
    """
    if C.field.level != 1:
        raise ValueError("cyclic vector search runs over the one-variable field")
    for cand in _candidate_vectors(C, seed):
        M = _certificate_matrix(C, cand)
        try:
            res = rank_kernel_det(M, prec)
        except UndeterminedPivot:
            if prec is not None and prec < working_precision():
                # more terms may certify this candidate: skipping it could
                # accept a later one than the full-precision search does
                raise
            continue
        # the pivots are certified nonzero, so full rank certifies the determinant
        if res.rank == C.rank:
            return cand, M, res
    raise SearchExhausted(
        f"no cyclic vector certified after {_RANDOM_TRIES} randomized candidates"
    )


def to_scalar_operator(
    C: Connection, s: Sequence[TowerElement], certificate: Optional[SeriesMatrix] = None,
    prec: Optional[int] = None,
) -> ScalarOperator:
    """The monic operator annihilating the flat-section functional at s.

    With b_k = nabla^k s and the relation nabla^r s = sum x_k b_k, a flat
    section sum f_k b_k forces the single coordinate g = f_{r-1} to satisfy a
    monic order-r equation: f_{k-1} = -x_k g - f_k' and f_0' = -x_0 g.
    Unrolled, that is D^r g + sum_k (-1)^(r+k) D^k(-x_k g) = 0, and the
    Leibniz rule D^k(x g) = sum_j C(k, j) x^(k-j) g^(j) gives the operator
    in closed form: L_r = 1 and, for j < r,

        L_j = (-1)^(r-1) sum_{k=j}^{r-1} (-1)^k C(k, j) x_k^(k-j),

    each one :func:`~higherlocal.series.sum_of_products` with int weights,
    with the window and exactness of the unrolled recursion.  The relation
    is solved at ``prec`` terms, reusing a certificate's pass at ``prec``.
    """
    r = C.rank
    if certificate is None:
        certificate = _certificate_matrix(C, s)
    top = C.nabla(1, certificate.column(r - 1))
    return _operator_of_relation(solve(certificate, top, prec))


def _operator_of_relation(x: Sequence[TowerElement]) -> ScalarOperator:
    """The closed form of :func:`to_scalar_operator` for the relation ``x``."""
    r = len(x)
    derivs = [[xk] for xk in x]  # derivs[k][m] is the m-th derivative of x_k
    for k, ds in enumerate(derivs):
        for _ in range(k):
            ds.append(ds[-1].derive(1))
    L = [
        sum_of_products(
            1, [((-1) ** (r - 1 + k) * comb(k, j), derivs[k][k - j]) for k in range(j, r)]
        )
        for j in range(r)
    ]
    return ScalarOperator(PARTIAL, (*L, TowerElement.constant(1, 1)))


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------

class NewtonPolygon(NamedTuple):
    """Lower hull of the theta-form coefficient valuations.

    ``points`` are the finite lattice points (j, v(b_j)); ``vertices`` the
    lower-hull vertices left to right; ``slopes`` the edge slopes with their
    horizontal multiplicities in ascending order.  The irregularity is the
    total rise along edges of positive slope, a non-negative integer.
    """

    points: Tuple[Tuple[int, int], ...]
    vertices: Tuple[Tuple[int, int], ...]
    slopes: Tuple[Tuple[Fraction, int], ...]
    irregularity: int


def _lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    pts = sorted(points)
    hull: List[Tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_polygon(L: ScalarOperator) -> NewtonPolygon:
    """Hull, slopes and irregularity of the operator's theta form."""
    theta = L.to_theta()
    points = []
    for j, b in enumerate(theta.coeffs):
        if b.is_exactly_zero():
            continue
        points.append((j, b.valuation()))
    vertices = _lower_hull(points)
    slopes: List[Tuple[Fraction, int]] = []
    irregularity = 0
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        slopes.append((slope, x2 - x1))
        if slope > 0:
            rise = y2 - y1
            irregularity += rise
    assert irregularity >= 0
    return NewtonPolygon(tuple(points), tuple(vertices), tuple(slopes), irregularity)


# the precision ladder of connection_irregularity starts at this many terms
_FIRST_RUNG = 8

# what a rung raises when its precision is too short to certify the integer
_TOO_SHORT = (
    UndeterminedPivot,
    UndeterminedLeadingTerm,
    InsufficientPrecision,
    SearchExhausted,
)


def _certified_irregularity(C: Connection, prec: int) -> int:
    s, cert, _ = find_cyclic_vector(C, prec=prec)
    L = to_scalar_operator(C, s, cert, prec)
    return newton_polygon(L).irregularity


def _rank_one_irregularity(C: Connection) -> int:
    """The irregularity of ``d + a dt`` over one variable, read off ``a``.

    The route's cyclic vector is 1 and its operator ``D + a``, whose theta
    form ``theta + t a`` has the Newton points ``(1, 0)`` and, unless ``a``
    is exactly zero, ``(0, v(a) + 1)``: the one edge rises ``-v(a) - 1``
    where that is positive (Malgrange 1974).  An ``a`` without a certified
    leading term raises the :class:`UndeterminedLeadingTerm` of the
    polygon's reading.  No step depends on the precision.
    """
    a = C.matrices[0][0, 0]
    if a.is_exactly_zero():
        return 0
    return max(0, -a.valuation() - 1)


def rank_one_h0(C: Connection) -> int:
    """``h0`` of ``d + a dt`` over one variable, read off ``a``.

    A flat section has ``f'/f = -a``, of valuation at least -1 for a Laurent
    ``f``.  So ``h0`` is 1 for ``a = 0``, 0 for ``v(a) < -1``, and otherwise,
    with ``a = c/t + b``, 1 exactly when ``c`` is an integer: the section is
    ``t^(-c) exp(-int b)``.  It raises where :func:`_rank_one_irregularity`
    does, and no step depends on the precision.
    """
    a = C.matrices[0][0, 0]
    if a.is_exactly_zero():
        return 1
    if a.valuation() < -1:
        return 0
    return int(a.coefficient(-1).denominator == 1)


def connection_irregularity(C: Connection) -> int:
    """Irregularity through a certified cyclic vector, an exact invariant.

    Any certified vector gives the same integer, so the search takes seed 0
    and no seed is asked for.  The route (cyclic vector, scalar operator,
    Newton polygon) runs on a doubling ladder of precisions, 8, 16, 32, ...
    terms, capped at ``working_precision()``: the polygon needs certified
    leading valuations, not full series.  Each rung hands its precision to
    the search and to the certificate's solve, and writes no ambient
    precision.  A rung below the cap ends at its first undetermined
    certificate pivot, so it accepts the candidate a full-precision search
    accepts, and it moves up a rung when a pivot, a leading term or a
    coefficient is not certified at its precision, or when no candidate is.
    Exactness does not depend on the precision, and every valuation the
    polygon reads is certified, so a rung that returns gives the integer of
    the full-precision route.  The last rung is that route, at the working
    precision, and its result or exception is returned as is.  A rank-1
    connection over one variable runs no rung: its integer, or the route's
    exception, is read off its entry (:func:`_rank_one_irregularity`).
    """
    if C.field.level == 1 and C.rank == 1:
        return _rank_one_irregularity(C)
    cap = working_precision()
    prec = _FIRST_RUNG
    while prec < cap:
        try:
            return _certified_irregularity(C, prec)
        except _TOO_SHORT:
            prec *= 2
    return _certified_irregularity(C, cap)
