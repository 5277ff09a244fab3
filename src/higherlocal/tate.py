"""Finite-window model of Tate-type operator indices.

An operator ``T`` on ``k((t))^r`` is measured by relative dimensions of
lattices, as in the n-Tate formalism.  With ``L = k[[t]]^r``,
``L_x = t^x L`` and ``d(X, Y) = dim X/(X cap Y) - dim Y/(X cap Y)``, the
relative dimension ``D(x) = d(L_x, T L_x)`` is ``r (W - x) - rank M(x, W)``
for any cut ``W`` with ``t^W L`` inside ``T L_x``, where ``M(x, W)`` is the
rational matrix of ``T`` from the monomials [x, W - delta) to
[x + delta, W) and ``delta`` is the least displacement of ``T``.  Each
schedule entry ``w`` probes ``x = -w`` and ``x = w`` with ``W = 2w``: the
kernel is ``D(-w) - D(w)``, the solutions with valuations in [-w, w), and
the index is ``-sum_i delta_top(i) + D(w)``, which is the lattice-invariant
degree once ``w`` lies above every solution valuation; the cokernel is
kernel minus index.  A report settles at two consecutive equal
(kernel, cokernel) pairs, neither negative (:func:`_settle`).  The probes
cannot prove that they reach past every solution valuation and cokernel
position; callers compare the index with the certified Newton-polygon
degree where they have one.

The same windows run one level up: an operator in the outermost variable of
a two-variable field is realized as a finite matrix *over* the inner field,
with the target cut at the hull displacement for the kernel and at the
derivative term's displacement for the cokernel, and its kernel/cokernel
are then finite-dimensional inner-field spaces with explicit bounded outer
windows.  The outer windows are the fixed ``OUTER_SCHEDULE``, settled by
the same loop; every ``schedule`` parameter here is a one-variable probe
schedule.  One routine, :func:`edge_profile`, reads the directional
kernel/cokernel dimensions of a covariant derivative along a coordinate
direction for the multicomplex check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .connection import Connection
from .errors import InsufficientPrecision, UnsupportedFrame
from .linalg import (
    SeriesMatrix,
    rank_kernel_det,
    sparse_echelon,
)
from .series import TowerElement, TowerField, sum_of_products

DEFAULT_SCHEDULE = (8, 12, 16, 24, 32)
OUTER_SCHEDULE = (4, 6, 8, 12)


@dataclass
class IndexReport:
    ker_dim: int
    coker_dim: int
    index: int
    stabilized_at: Optional[int]
    trace: Tuple[Tuple[int, int, int], ...] = ()  # (window, ker, coker)

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None


class MatrixDiffOp:
    """sum_d C_d (d/dt)^d with square matrix coefficients over k((t)).

    ``t`` is the outermost variable of the coefficients' tower level.
    """

    __slots__ = ("rank", "coeffs")
    level = 1

    def __init__(self, rank: int, coeffs: Dict[int, SeriesMatrix]):
        self.rank = rank
        self.coeffs = dict(coeffs)
        for M in coeffs.values():
            if M.rows != rank or M.cols != rank:
                raise ValueError("coefficient matrices must be rank x rank")

    @classmethod
    def from_connection(
        cls, C: Connection, normalizer: Optional[TowerElement] = None
    ) -> "MatrixDiffOp":
        """The operator h^(-1) (d/dt + A) for the 1-form normalizer h dt."""
        if C.field.level != cls.level:
            raise UnsupportedFrame(f"this operator needs a {cls.level}-variable connection")
        hinv = C.field.one() if normalizer is None else normalizer.invert()
        return cls.first_order(hinv, C.matrices[-1].scale(hinv))

    @classmethod
    def first_order(cls, c: TowerElement, P: SeriesMatrix) -> "MatrixDiffOp":
        """The operator c d/dt + P."""
        I = SeriesMatrix.identity(TowerField(c.level), P.rows)
        return cls(P.rows, {1: I.scale(c), 0: P})

    # -- displacement hulls ----------------------------------------------------

    def _row_entries(self, i: int):
        for d, M in self.coeffs.items():
            for j in range(self.rank):
                x = M[i, j]
                if not x.is_exactly_zero():
                    yield d, x

    def delta_bottom(self, i: int) -> int:
        vals = []
        for d, x in self._row_entries(i):
            v = x.valuation_lower_bound()
            if v is not None:
                vals.append(v - d)
        return min(vals) if vals else 0

    def delta_top(self, i: int) -> int:
        vals = []
        for d, x in self._row_entries(i):
            if d < 1:
                continue
            v = x.valuation_lower_bound()
            if v is not None:
                vals.append(v - d)
        if vals:
            return min(vals)
        return self.delta_bottom(i)

    def is_zero_row(self, i: int) -> bool:
        return next(self._row_entries(i), None) is None


# ---------------------------------------------------------------------------
# Window realization and the lattice-probe index
# ---------------------------------------------------------------------------

def _exponent_major(labels) -> List[int]:
    return sorted(range(len(labels)), key=lambda k: (labels[k][1], labels[k][0]))


@dataclass
class WindowRealization:
    src_labels: Tuple
    tgt_labels: Tuple
    columns: List[dict]  # sparse columns: {target row index: entry}
    # level 1: an entry of a component-c row is an integer numerator over
    # dens[c]; None: the entries are the values (inner-field elements)
    dens: Optional[Tuple[int, ...]] = None

    def banded(self) -> List[dict]:
        """The rows for the eliminator.

        Window matrices are banded in the exponent, so they go to the
        eliminator exponent-major; in the component-major label order the
        leftmost-column pivot rule fills in across all rank^2 diagonal
        blocks.  The rows go in ascending order and the columns in
        descending order, so each row pivots on its highest source term,
        the row's lattice-sharp ``delta_bottom`` term, almost always still
        free, so few rows meet an earlier pivot.
        """
        order = _exponent_major(self.src_labels)[::-1]
        by_label: List[dict] = [dict() for _ in self.tgt_labels]
        for k, j in enumerate(order):
            for i, q in self.columns[j].items():
                by_label[i][k] = q
        return [by_label[i] for i in _exponent_major(self.tgt_labels)]


def window_columns(
    op: MatrixDiffOp,
    src: Tuple[int, int],
    bounds: Sequence[Tuple[int, int]],
) -> WindowRealization:
    """Matrix of ``op`` from the source exponents ``src = [lo, hi)`` in every component.

    Target component ``i`` keeps the exponents ``bounds[i] = [lo, hi)``.
    Columns are written straight from the coefficient dicts: a coefficient
    ``q t^m`` of ``C_d[i, comp]`` sends ``t^e`` to ``falling(e, d) q`` at
    exponent ``e - d + m`` of component ``i``, where ``t`` is the outermost
    variable and ``q`` is rational (level 1) or an inner-field element
    (level 2).  At level 1 each entry of row ``i`` is read as integer
    numerators over its own denominator and rescaled to ``D_i``, the lcm of
    the entry denominators in that row; the columns are summed in integers
    and keep the integer sums: an entry ``n`` of a component-``i`` row
    stands for ``n / D_i``, and the realization carries ``D_i`` once per
    component in ``dens``.  At level 2 the ``(falling(e, d), q)`` terms of
    an entry are gathered and the entry is built once, by
    :func:`~higherlocal.series.sum_of_products` with each falling factorial
    as an exact constant, with the window and exactness of the chained sum.
    Entries that cancel exactly are dropped at both levels.  Exponents at or
    above ``hi`` are cut (quotient semantics); one below ``lo`` is a broken
    hull.  An inexact coefficient
    must be known up to ``hi``: its product with the monomial is known below
    ``entry.hi + e - d``, and a sum is known below the least bound of its
    terms.
    """
    src_labels = [(c, e) for c in range(op.rank) for e in range(*src)]
    tgt_labels = [(c, e) for c in range(op.rank) for e in range(*bounds[c])]
    offset = []  # target row of (i, ee) is offset[i] + ee
    start = 0
    for lo, hi in bounds:
        offset.append(start - lo)
        start += hi - lo
    integer = next(iter(op.coeffs.values())).level == 1
    if integer:
        dens = [
            lcm(*(x.numerators()[0] for _, x in op._row_entries(i)))
            for i in range(op.rank)
        ]
    # terms[d][comp]: (i, inexact bound or None, [(m, coefficient), ...]),
    # with integer numerators over dens[i] at level 1
    terms = {}
    for d, M in op.coeffs.items():
        per_comp = []
        for comp in range(op.rank):
            entries = []
            for i in range(op.rank):
                entry = M[i, comp]
                if entry.is_exactly_zero():
                    continue
                if integer:
                    den, numerators = entry.numerators()
                    scale = dens[i] // den
                    coeffs = [(m, n * scale) for m, n in numerators]
                else:
                    coeffs = list(entry.coeffs.items())
                entries.append((i, None if entry.exact else entry.hi, coeffs))
            per_comp.append(entries)
        terms[d] = per_comp
    columns = []
    for comp, e in src_labels:
        col: dict = {}
        for d, per_comp in terms.items():
            f = 1  # the falling factorial e (e - 1) ... (e - d + 1)
            for k in range(d):
                f *= e - k
            if f == 0:
                continue
            shift = e - d
            for i, entry_hi, coeffs in per_comp[comp]:
                lo_i, hi_i = bounds[i]
                if entry_hi is not None and entry_hi + shift < hi_i:
                    raise InsufficientPrecision(
                        "operator coefficients are too short for this window"
                    )
                for m, q in coeffs:
                    ee = m + shift
                    if ee >= hi_i:
                        continue
                    if ee < lo_i:
                        raise AssertionError("image fell below the certified hull")
                    row = offset[i] + ee
                    if integer:
                        col[row] = col.get(row, 0) + f * q
                    else:
                        col.setdefault(row, []).append((TowerElement.constant(1, f), q))
        if integer:
            columns.append({row: q for row, q in col.items() if q})
        else:
            fused = ((row, sum_of_products(1, pairs)) for row, pairs in col.items())
            columns.append({row: q for row, q in fused if not q.is_exactly_zero()})
    return WindowRealization(
        tuple(src_labels), tuple(tgt_labels), columns, tuple(dens) if integer else None
    )


def window_bounds(op: MatrixDiffOp, w: int, mode: str) -> List[Tuple[int, int]]:
    """Target exponents ``[lo, hi)`` per component for the window [-w, w).

    Both modes extend the target down to the full displacement hull, so no
    image coefficient is lost at the bottom.  The ``top`` mode cuts the
    target at the derivative term's displacement; the ``bottom`` mode cuts
    at the hull displacement itself, the sharp image of a deep lattice, so
    the bottom rows are a subset of the top ones.  A zero row keeps the
    source window.  The outer-window reduction (:func:`reduce_outer_window`)
    reads its kernel off the bottom cut and its cokernel off the top one.
    """
    bounds = []
    for i in range(op.rank):
        if op.is_zero_row(i):
            bounds.append((-w, w))
            continue
        lo = op.delta_bottom(i)
        hi = lo if mode == "bottom" else op.delta_top(i)
        bounds.append((-w + lo, w + hi))
    return bounds


def realize_window(op: MatrixDiffOp, w: int, mode: str = "top") -> WindowRealization:
    """Matrix of ``op`` on [-w, w) monomial windows, cut by :func:`window_bounds`."""
    return window_columns(op, (-w, w), window_bounds(op, w, mode))


def probe_window(op: MatrixDiffOp, w: int, W: int, delta: int) -> WindowRealization:
    """``M(-w, W)``: ``op`` from exponents [-w, W - delta) to [-w + delta, W).

    ``delta`` is the least ``delta_bottom`` of the rows, so ``op`` maps the
    lattice ``t^x L`` into ``t^(x + delta) L`` and the sources at or above
    ``W - delta`` land at or above the cut.  The columns of exponent at or
    above ``w`` form ``M(w, W)``: their images below ``w + delta`` are 0.
    """
    return window_columns(op, (-w, W - delta), [(-w + delta, W)] * op.rank)


def _settle(probes):
    """Consume ``(w, ker, coker, payload)`` probes until they settle.

    A probe settles at two consecutive equal (ker, coker) pairs, neither of
    them negative; no probe after it is drawn.  Returns the settling
    probe's payload and ``w``, or the last payload and None when the probes
    run out, with the ``(w, ker, coker)`` trace.
    """
    trace: List[Tuple[int, int, int]] = []
    payload = None
    for w, ker, coker, payload in probes:
        trace.append((w, ker, coker))
        if len(trace) >= 2 and trace[-2][1:] == trace[-1][1:] and min(ker, coker) >= 0:
            return payload, w, tuple(trace)
    return payload, None, tuple(trace)


def _probe_ranks(op: MatrixDiffOp, schedule: Sequence[int], delta: int, cut):
    """``(w, W, rank M(-w, W), rank M(w, W))`` per schedule entry.

    The entries run until a probe cannot be filled (``cut(w) <= w``).  The
    ranks are read off a :func:`sparse_echelon` of the banded rows of a
    :func:`probe_window`, whose columns go in descending exponent order,
    ``r`` per exponent: ``rank M(x, W)`` is the number of pivots among the
    leading columns, those of the sources at or above ``x``.
    When the first entry's probe nests in the second's (``w0 <= w1`` and
    ``W0 <= W1``), only ``M(-w1, W1)`` is built.  Its rows with target
    exponent in ``[-w0 + delta, W0)`` are eliminated first: they have no
    entry from a source at or above ``W0 - delta``, so their columns of
    sources at or above ``-w0`` are ``M(-w0, W0)`` beside zero columns, and
    the pivots counted there are the ranks for ``w0``.  The same echelon is
    then continued over the other rows for ``w1``.  Any other entry
    eliminates its own probe.
    """
    r = op.rank

    def ranks(w, top, echelon):  # the probe's sources lie below top
        return tuple(sum(1 for c in echelon if c < r * (top - x)) for x in (-w, w))

    rest = list(schedule)
    if len(rest) >= 2:
        (w0, W0), (w1, W1) = ((w, cut(w)) for w in rest[:2])
        if w0 < W0 and w1 < W1 and w0 <= w1 and W0 <= W1:
            rows = probe_window(op, w1, W1, delta).banded()
            # r rows per target exponent, ascending from -w1 + delta
            lo = r * (w1 - w0)
            hi = lo + r * max(W0 + w0 - delta, 0)
            echelon = sparse_echelon(rows[lo:hi])
            yield (w0, W0, *ranks(w0, W1 - delta, echelon))
            sparse_echelon(rows[:lo] + rows[hi:], echelon)
            yield (w1, W1, *ranks(w1, W1 - delta, echelon))
            rest = rest[2:]
    for w in rest:
        W = cut(w)
        if W <= w:
            # the coefficients cannot fill this probe; larger ones are
            # unreachable, work with what was seen so far
            return
        echelon = sparse_echelon(probe_window(op, w, W, delta).banded())
        yield (w, W, *ranks(w, W - delta, echelon))


def operator_index(op: MatrixDiffOp, schedule: Sequence[int] = DEFAULT_SCHEDULE) -> IndexReport:
    """Kernel, cokernel and index of a one-variable operator, from lattice probes.

    With ``L = k[[t]]^r``, ``L_x = t^x L`` and ``delta`` the least
    ``delta_bottom``, the relative dimension ``D(x) = d(L_x, op L_x)`` is
    ``r (W - x) - rank M(x, W)`` for any ``W`` with ``t^W L`` inside
    ``op L_x``, where ``M(x, W)`` is ``op`` from exponents [x, W - delta)
    to [x + delta, W).  At each schedule entry ``w`` the probes are
    ``x = -w`` and ``x = w`` with ``W = 2w``.  The ranks are counted off a
    :func:`sparse_echelon` of the rows of a :func:`probe_window`, whose
    columns go in descending exponent order: ``rank M(x, W)`` is the number
    of pivots among the columns of sources at or above ``x``.  The first
    two entries share one echelon of the second's probe, whose rows of
    targets below ``W0`` are eliminated first (:func:`_probe_ranks`);
    the first entry cannot settle alone, so its own probe would be
    eliminated for nothing.  Then ``ker = D(-w) - D(w)``,
    ``index = -sum_i delta_top(i) + D(w)`` and ``coker = ker - index``; the
    offset is ``r (1 + v(h))`` for ``h^-1 (d/dt + A)`` and 0 for a unit
    multiplication.  Inexact coefficients lower ``W`` to the highest
    exponent at which the image of ``t^-w`` is known, and the schedule ends
    where that is no more than ``w``.  The trace holds ``(w, ker, coker)``
    per probe; the report settles at two consecutive equal (ker, coker)
    pairs, neither negative (:func:`_settle`), and ``stabilized_at`` is the
    later ``w``.
    """
    r = op.rank
    delta = min(op.delta_bottom(i) for i in range(r))
    offset = -sum(op.delta_top(i) for i in range(r))
    # an inexact entry of C_d known below t^hi knows the image of t^e below
    # t^(hi + e - d), so the lowest source -w caps the cut at known - w
    known = min(
        (x.hi - d for i in range(r) for d, x in op._row_entries(i) if not x.exact),
        default=None,
    )

    def cut(w):
        return 2 * w if known is None else min(2 * w, known - w)

    def probes():
        for w, W, rank_low, rank_high in _probe_ranks(op, schedule, delta, cut):
            d_high = r * (W - w) - rank_high
            ker = r * (W + w) - rank_low - d_high
            yield w, ker, ker - offset - d_high, None

    _, w, trace = _settle(probes())
    if not trace:
        raise InsufficientPrecision(
            "operator coefficients cannot fill even the smallest window"
        )
    _, ker, coker = trace[-1]
    return IndexReport(ker, coker, ker - coker, w, trace)


# ---------------------------------------------------------------------------
# Outer-variable windows over a two-variable field
# ---------------------------------------------------------------------------

class OuterMatrixDiffOp(MatrixDiffOp):
    """sum_d C_d (d/d t_outer)^d over the two-variable field.

    Coefficients are square matrices of level-2 elements; the operator is
    linear over the inner field, so its window matrices have inner-field
    entries.
    """

    __slots__ = ()
    level = 2

    def __init__(self, rank: int, coeffs: Dict[int, SeriesMatrix]):
        if next(iter(coeffs.values())).level != 2:
            raise UnsupportedFrame("outer windows are implemented for two variables")
        super().__init__(rank, coeffs)


@dataclass
class OuterReduction:
    """Windowed kernel/cokernel of an outer-variable operator, over the inner field."""

    window: int
    src_labels: Tuple  # (component, outer exponent)
    tgt_labels: Tuple
    matrix: SeriesMatrix  # the top window, entries over the inner field
    kernel: Tuple  # tuples of inner-field elements indexed by src_labels
    coker_slots: Tuple  # tgt labels representing the cokernel

    @property
    def ker_dim(self) -> int:
        return len(self.kernel)

    @property
    def coker_dim(self) -> int:
        return len(self.coker_slots)


def reduce_outer_window(op: OuterMatrixDiffOp, w: int) -> OuterReduction:
    """Kernel and cokernel slots of ``op`` on the outer window [-w, w).

    The rows of the derivative-cut ("top") window are built once; the
    lattice-sharp ("bottom") window is the subset of them below each
    component's bottom cut.  The kernel comes from the bottom rows, the
    cokernel slots from the pivots of the transposed top rows, so both are
    eliminated.
    """
    win = realize_window(op, w)
    zero = TowerElement.zero(1)
    rows = [[col.get(k, zero) for col in win.columns] for k in range(len(win.tgt_labels))]
    cut = window_bounds(op, w, "bottom")
    bottom = [row for row, (c, e) in zip(rows, win.tgt_labels) if e < cut[c][1]]
    res_b = rank_kernel_det(SeriesMatrix(bottom), want_kernel=True)
    res_t = rank_kernel_det(SeriesMatrix(list(zip(*rows))), want_kernel=False)
    covered = {c for _, c in res_t.pivots}
    coker_slots = tuple(lab for k, lab in enumerate(win.tgt_labels) if k not in covered)
    return OuterReduction(
        w, win.src_labels, win.tgt_labels, SeriesMatrix(rows), res_b.kernel, coker_slots
    )


@dataclass(frozen=True)
class OuterStabilization:
    """What :func:`stabilize_outer_windows` gave for ``op``.

    A caller that has stabilized an operator hands this along, and a later
    caller that would build the same operator reads the reduction from it
    instead of reducing the windows again.
    """

    op: OuterMatrixDiffOp
    reduction: OuterReduction
    stabilized_at: Optional[int]
    trace: Tuple[Tuple[int, int, int], ...]

    def serves(self, op: OuterMatrixDiffOp) -> bool:
        """True when ``op`` is the operator stabilized here."""
        return op.coeffs == self.op.coeffs


def stabilize_outer_windows(op: OuterMatrixDiffOp) -> OuterStabilization:
    """Reduce the windows of ``OUTER_SCHEDULE`` until (ker, coker) settles (:func:`_settle`).

    The record holds the settling reduction (the last one when the pairs
    never agreed), the window at which they agreed (None when they never
    did) and the (window, ker, coker) trace.
    """
    reductions = (reduce_outer_window(op, w) for w in OUTER_SCHEDULE)
    red, at, trace = _settle((r.window, r.ker_dim, r.coker_dim, r) for r in reductions)
    return OuterStabilization(op, red, at, trace)


def strip_outer(x: TowerElement) -> TowerElement:
    """A two-variable element free of the outer variable, as an inner element.

    Only the outer exponent 0 may be stored, and the coefficient at 1 must
    be known to be zero; otherwise :class:`UnsupportedFrame` is raised.
    """
    if x.is_exactly_zero():
        return TowerElement.zero(x.level - 1)
    if set(x.coeffs) - {0} or not x.knows(1):
        raise UnsupportedFrame("coefficients must not involve the outer variable")
    return x.coefficient(0)


def inner_operator(c: TowerElement, P: SeriesMatrix) -> MatrixDiffOp:
    """c d/dt1 + P for two-variable data free of the outer variable.

    The computation is then the same in every outer fiber, so it runs as a
    one-variable operator.
    """
    return MatrixDiffOp.first_order(strip_outer(c), P.map(strip_outer))


@dataclass
class DirectionalProfile:
    direction: int
    ker_dim: int
    coker_dim: int
    stabilized_at: Optional[int]
    trace: Tuple[Tuple[int, int, int], ...]
    # the outer direction's stabilization, to hand along
    outer: Optional[OuterStabilization] = None

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None


def pure_direction(vector_field: Sequence[TowerElement]) -> Optional[int]:
    """The one coordinate direction ``i`` the field points along, or None.

    Only the coefficient of d/dt_i may be nonzero, certainly so, and every
    other one must be exactly zero.
    """
    nonzero = [i for i, a in enumerate(vector_field, start=1) if a.is_certainly_nonzero()]
    if len(nonzero) == 1 and all(
        a.is_exactly_zero() for i, a in enumerate(vector_field, start=1) if i != nonzero[0]
    ):
        return nonzero[0]
    return None


def edge_profile(
    cvec: Sequence[TowerElement], P: SeriesMatrix, schedule: Sequence[int] = DEFAULT_SCHEDULE
) -> DirectionalProfile:
    """Windowed kernel/cokernel of ``sum_k c_k d/dt_k + P`` along one direction.

    The vector field ``cvec`` must point along a single coordinate direction
    ``i`` (:func:`pure_direction`) of at most two variables.  Over one
    variable, and along the inner variable of two when the data are free of
    the outer one (:func:`inner_operator`, the same in every outer fiber),
    the lattice probes of :func:`operator_index` run on ``schedule``.  Along
    the outer variable the fixed outer windows are reduced over the inner
    field (:func:`stabilize_outer_windows`), and the profile keeps that
    stabilization in ``outer``.  Raises :class:`UnsupportedFrame` for any
    other field or data.
    """
    n = len(cvec)
    i = pure_direction(cvec)
    if i is None:
        raise UnsupportedFrame(
            "the vector field does not point along a single coordinate direction"
        )
    if n > 2:
        raise UnsupportedFrame("directional profiles are implemented for n <= 2")
    c = cvec[i - 1]
    if i == 2:
        outer = stabilize_outer_windows(OuterMatrixDiffOp.first_order(c, P))
        red = outer.reduction
        return DirectionalProfile(
            2, red.ker_dim, red.coker_dim, outer.stabilized_at, outer.trace, outer
        )
    op = MatrixDiffOp.first_order(c, P) if n == 1 else inner_operator(c, P)
    rep = operator_index(op, schedule)
    return DirectionalProfile(i, rep.ker_dim, rep.coker_dim, rep.stabilized_at, rep.trace)
