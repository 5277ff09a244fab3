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
kernel minus index.  The operator is read once (:class:`LatticeProbes`),
and each probe is built from that reading as the integer rows that
:func:`~higherlocal.linalg.sparse_echelon` takes, in elimination order;
both ranks of an entry are counted off one sorted list of its pivot
columns.  A report settles at two consecutive equal (kernel, cokernel)
pairs, neither negative (:func:`_settle`).  The probes cannot prove that
they reach past every solution valuation and cokernel position; callers
compare the index with the certified Newton-polygon degree where they have
one.

Windows run one level up too, on the same :class:`MatrixDiffOp`, whose
level is that of its coefficients: an operator in the outermost variable of
a two-variable field is realized as a finite matrix *over* the inner
field, with the target cut at the hull displacement for the kernel and at
the derivative term's displacement for the cokernel, and its
kernel/cokernel are then finite-dimensional inner-field spaces with
explicit bounded outer windows.  An operator whose coefficients are exact
with rational constant inner coefficients is read once, stripped to the
outer variable, by :class:`LatticeProbes`, and its windows are built from
that reading as integer rows and eliminated by one label-order pass,
:func:`~higherlocal.linalg.echelon_relations`; any other is realized by
:func:`window_columns` and eliminated over the inner field.  A reduction
(:class:`OuterReduction`) maps a vector to its coordinates in the kernel
basis and on the cokernel slots; the integer route reads those off its own
elimination over Q for exact vectors.  The outer
windows are the fixed ``OUTER_SCHEDULE``, settled by the same loop; every
``schedule`` parameter here is a one-variable probe schedule.  The
multicomplex check (:mod:`higherlocal.derham`) reads each covariant edge
through these two routes: :func:`operator_index` over one variable or
along the inner one, :func:`stabilize_outer_windows` along the outer one.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .connection import Connection
from .errors import InsufficientPrecision, UnsupportedFrame, WindowTooLarge
from .linalg import Factorization, SeriesMatrix, echelon_kernel, echelon_relations
from .linalg import rank_kernel_det, solve_columns, sparse_echelon
from .series import TowerElement, TowerField, _element, sum_of_products

DEFAULT_SCHEDULE = (8, 12, 16, 24, 32)
OUTER_SCHEDULE = (4, 6, 8, 12)
# the most labels a window may have on either side; a window spans about
# its operator's pole order plus the probe depth, and no flag bounds that
MAX_WINDOW_LABELS = 2 ** 16


class IndexReport(NamedTuple):
    ker_dim: int
    coker_dim: int
    index: int
    stabilized_at: Optional[int]
    trace: Tuple[Tuple[int, int, int], ...] = ()  # (window, ker, coker)

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None


class MatrixDiffOp:
    """sum_d C_d (d/dt)^d with square matrix coefficients over a tower field.

    ``t`` is the outermost variable of the coefficients' tower level
    (:attr:`level`).  At level 2 the operator is linear over the inner
    field, so its window matrices have inner-field entries.
    """

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Dict[int, SeriesMatrix]):
        self.rank = rank
        self.coeffs = dict(coeffs)
        for M in coeffs.values():
            if M.rows != rank or M.cols != rank:
                raise ValueError("coefficient matrices must be rank x rank")

    @property
    def level(self) -> int:
        """The tower level of the coefficients."""
        return next(iter(self.coeffs.values())).level

    @classmethod
    def from_connection(
        cls, C: Connection, normalizer: Optional[TowerElement] = None
    ) -> "MatrixDiffOp":
        """The operator h^(-1) (d/dt + A) for the 1-form normalizer h dt, t outermost."""
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


# ---------------------------------------------------------------------------
# Lattice probes of a one-variable operator
# ---------------------------------------------------------------------------

def _check_labels(sources: int, targets: int) -> None:
    """Raise :class:`WindowTooLarge` when either side is past ``MAX_WINDOW_LABELS``."""
    if max(sources, targets) > MAX_WINDOW_LABELS:
        message = "a window of {} source and {} target labels is past the limit of {} per side"
        raise WindowTooLarge(message.format(sources, targets, MAX_WINDOW_LABELS))


class LatticeProbes:
    """A one-variable operator, read once for its lattice probes ``M(-w, W)``.

    ``delta`` is the least ``delta_bottom``, ``offset`` is
    ``-sum_i delta_top(i)`` and ``known`` the least ``hi - d`` of an inexact
    entry of ``C_d`` (None when every entry is exact).  ``terms[j]`` holds
    the ``(d, i, coefficients)`` of each entry ``C_d[i, j]`` with a stored
    term, read once from its integer numerators: ascending ``(r m, n)``
    pairs, ``n`` the numerator of the coefficient of ``t^m`` over ``D_i``,
    the lcm of the entry denominators in row ``i``, kept as ``dens[i]``.
    A probe's row ``i`` holds ``D_i`` times the rational one, which changes
    no rank.
    """

    __slots__ = ("rank", "order", "delta", "offset", "known", "terms", "dens")

    def __init__(self, op: MatrixDiffOp):
        r = self.rank = op.rank
        self.order = max(op.coeffs)
        self.delta = min(op.delta_bottom(i) for i in range(r))
        self.offset = -sum(op.delta_top(i) for i in range(r))
        self.known = min(
            (x.hi - d for i in range(r) for d, x in op._row_entries(i) if not x.exact),
            default=None,
        )
        self.terms = [[] for _ in range(r)]
        self.dens = []
        for i in range(r):
            entries = [
                (d, j, M[i, j])
                for d, M in op.coeffs.items()
                for j in range(r)
                if not M[i, j].is_exactly_zero()
            ]
            den = lcm(*(x.numerators()[0] for _, _, x in entries))
            self.dens.append(den)
            for d, j, x in entries:
                xden, items = x.numerators()
                if items:
                    coeffs = sorted((r * m, n * (den // xden)) for m, n in items)
                    self.terms[j].append((d, i, coeffs))

    def cut(self, w: int) -> int:
        """``2w``, lowered to the highest exponent at which the image of ``t^-w`` is known.

        An inexact entry of ``C_d`` known below ``t^hi`` knows the image of
        ``t^e`` below ``t^(hi + e - d)``, so the lowest source ``-w`` caps
        the cut at ``known - w``.
        """
        return 2 * w if self.known is None else min(2 * w, self.known - w)

    def rows(self, w: int, W: int) -> List[dict]:
        """``M(-w, W)``, from exponents [-w, W - delta) to [-w + delta, W), as rows.

        The rows are those :func:`sparse_echelon` takes, zeros dropped.  The
        sources at or above ``W - delta`` land at or above the cut, and
        those at or above ``w`` form ``M(w, W)``.  The matrix is banded in
        the exponent, so it goes exponent-major (component-major, the
        leftmost-column pivot rule fills in across all rank^2 diagonal
        blocks): row ``r t + i`` is target ``(i, delta - w + t)`` and column
        ``r s + r - 1 - j`` is source ``(j, W - delta - 1 - s)``, the sources
        descending.  Each row then pivots on its highest source term, its
        lattice-sharp ``delta_bottom`` term, almost always still free.  Past
        ``MAX_WINDOW_LABELS`` labels a side :class:`WindowTooLarge` is raised
        before anything is built, and for ``w >= 1`` a source image not
        known below ``W`` (``W > known - w``) raises
        :class:`InsufficientPrecision`.
        """
        r, delta = self.rank, self.delta
        top, lo = W - delta, delta - w
        n = r * (W - lo)  # labels on either side
        _check_labels(n, n)
        if self.known is not None and self.known - w < W and -w < top:
            raise InsufficientPrecision("operator coefficients are too short for this window")
        rows: List[dict] = [{} for _ in range(n)]
        falling = [1] * (self.order + 1)  # falling[d] = e (e - 1) ... (e - d + 1)
        k = 0
        for e in range(top - 1, -w - 1, -1):
            for d in range(1, self.order + 1):
                falling[d] = falling[d - 1] * (e - d + 1)
            for comp_terms in reversed(self.terms):
                for d, i, coeffs in comp_terms:
                    f = falling[d]
                    if not f:
                        continue
                    base = r * (e - d - lo) + i  # t^m goes to row r m + base
                    if coeffs[0][0] + base < 0:
                        raise AssertionError("image fell below the certified hull")
                    for rm, q in coeffs:
                        if rm + base >= n:
                            break
                        row = rows[rm + base]
                        row[k] = row.get(k, 0) + f * q
                k += 1
        return [{c: q for c, q in row.items() if q} if 0 in row.values() else row for row in rows]


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


def _probe_ranks(probes: LatticeProbes, schedule: Sequence[int]):
    """``(w, W, rank M(-w, W), rank M(w, W))`` per schedule entry.

    The entries run until a probe cannot be filled (``probes.cut(w) <=
    w``).  The ranks are read off a :func:`sparse_echelon` of the rows of a
    probe, whose columns go in descending exponent order, ``r`` per
    exponent: ``rank M(x, W)`` is the number of pivots among the leading
    columns, those of the sources at or above ``x``, and both counts are
    read off one sorted list of the pivot columns.
    When the first entry's probe nests in the second's (``w0 <= w1`` and
    ``W0 <= W1``), only ``M(-w1, W1)`` is built.  Its rows with target
    exponent in ``[-w0 + delta, W0)`` are eliminated first: they have no
    entry from a source at or above ``W0 - delta``, so their columns of
    sources at or above ``-w0`` are ``M(-w0, W0)`` beside zero columns, and
    the pivots counted there are the ranks for ``w0``.  The same echelon is
    then continued over the other rows for ``w1``.  Any other entry
    eliminates its own probe.
    """
    r, delta = probes.rank, probes.delta

    def ranks(w, W, echelon):  # M(x, W) has the leading r (W - delta - x) columns
        cols = sorted(echelon)
        return tuple(bisect_left(cols, r * (W - delta - x)) for x in (-w, w))

    rest = list(schedule)
    if len(rest) >= 2:
        (w0, W0), (w1, W1) = ((w, probes.cut(w)) for w in rest[:2])
        if w0 < W0 and w1 < W1 and w0 <= w1 and W0 <= W1:
            rows = probes.rows(w1, W1)
            # r rows per target exponent, ascending from -w1 + delta
            lo = r * (w1 - w0)
            hi = lo + r * max(W0 + w0 - delta, 0)
            echelon = sparse_echelon(rows[lo:hi])
            yield (w0, W0, *ranks(w0, W1, echelon))
            sparse_echelon(rows[:lo] + rows[hi:], echelon)
            yield (w1, W1, *ranks(w1, W1, echelon))
            rest = rest[2:]
    for w in rest:
        W = probes.cut(w)
        if W <= w:
            # the coefficients cannot fill this probe; larger ones are
            # unreachable, work with what was seen so far
            return
        yield (w, W, *ranks(w, W, sparse_echelon(probes.rows(w, W))))


def operator_index(op: MatrixDiffOp, schedule: Sequence[int] = DEFAULT_SCHEDULE) -> IndexReport:
    """Kernel, cokernel and index of a one-variable operator, from lattice probes.

    With ``L = k[[t]]^r``, ``L_x = t^x L`` and ``delta`` the least
    ``delta_bottom``, the relative dimension ``D(x) = d(L_x, op L_x)`` is
    ``r (W - x) - rank M(x, W)`` for any ``W`` with ``t^W L`` inside
    ``op L_x``, where ``M(x, W)`` is ``op`` from exponents [x, W - delta)
    to [x + delta, W).  At each schedule entry ``w`` the probes are
    ``x = -w`` and ``x = w`` with ``W = 2w``.  The operator is read once
    (:class:`LatticeProbes`): ``delta``, the offset, the known cut and the
    integer numerators of its entries.  Each probe ``M(-w, W)`` is built
    from that reading as integer rows in elimination order, and
    ``rank M(x, W)`` is the number of pivots of their :func:`sparse_echelon`
    among the columns of sources at or above ``x``; both ranks of an entry
    are counted in one pass over the sorted pivot columns.  The first two
    entries share one echelon of the second's probe, whose rows of targets
    below ``W0`` are eliminated first (:func:`_probe_ranks`); the first
    entry cannot settle alone, so its own probe would be eliminated for
    nothing.  Then ``ker = D(-w) - D(w)``, ``index = -sum_i delta_top(i) +
    D(w)`` and ``coker = ker - index``; the offset is ``r (1 + v(h))`` for
    ``h^-1 (d/dt + A)`` and 0 for a unit multiplication.  Inexact
    coefficients lower ``W`` to the highest exponent at which the image of
    ``t^-w`` is known (:meth:`LatticeProbes.cut`), and the schedule ends
    where that is no more than ``w``.  The trace holds ``(w, ker, coker)``
    per probe; the report settles at two consecutive equal (ker, coker)
    pairs, neither negative (:func:`_settle`), and ``stabilized_at`` is the
    later ``w``.
    """
    if op.level != 1:
        raise UnsupportedFrame("operator indices are implemented for one variable")
    probes = LatticeProbes(op)
    r, offset = op.rank, probes.offset

    def readings():
        for w, W, rank_low, rank_high in _probe_ranks(probes, schedule):
            d_high = r * (W - w) - rank_high
            ker = r * (W + w) - rank_low - d_high
            yield w, ker, ker - offset - d_high, None

    _, w, trace = _settle(readings())
    if not trace:
        raise InsufficientPrecision(
            "operator coefficients cannot fill even the smallest window"
        )
    _, ker, coker = trace[-1]
    return IndexReport(ker, coker, ker - coker, w, trace)


# ---------------------------------------------------------------------------
# Outer-variable windows over a two-variable field
# ---------------------------------------------------------------------------

class WindowRealization(NamedTuple):
    src_labels: Tuple
    tgt_labels: Tuple
    columns: List[dict]  # sparse columns: {target row index: inner-field entry}


def window_columns(
    op: MatrixDiffOp,
    src: Tuple[int, int],
    bounds: Sequence[Tuple[int, int]],
) -> WindowRealization:
    """Matrix of a two-variable ``op`` from the exponents ``src = [lo, hi)`` in every component.

    Target component ``i`` keeps the exponents ``bounds[i] = [lo, hi)``.
    Columns are written straight from the coefficient dicts: a coefficient
    ``q t^m`` of ``C_d[i, comp]`` sends ``t^e`` to ``falling(e, d) q`` at
    exponent ``e - d + m`` of component ``i``, where ``t`` is the outer
    variable and ``q`` an inner-field element.  The ``(falling(e, d), q)``
    terms of an entry are gathered and the entry is built once, by
    :func:`~higherlocal.series.sum_of_products` with each falling factorial
    as an int weight, with the window and exactness of the chained sum.
    Entries that cancel exactly are dropped.  Exponents at or above ``hi``
    are cut (quotient semantics); one below ``lo`` is a broken hull.  An
    inexact coefficient must be known up to ``hi``: its product with the
    monomial is known below ``entry.hi + e - d``, and a sum is known below
    the least bound of its terms.  A one-variable ``op`` raises
    :class:`UnsupportedFrame`, and a window with more than
    ``MAX_WINDOW_LABELS`` labels on a side raises :class:`WindowTooLarge`,
    before anything is built.
    """
    _check_outer(op, src, bounds)
    src_labels, tgt_labels, offset = _window_layout(op.rank, src, bounds)
    # terms[d][comp]: (i, inexact bound or None, [(m, coefficient), ...])
    terms = {}
    for d, M in op.coeffs.items():
        per_comp = []
        for comp in range(op.rank):
            entries = []
            for i in range(op.rank):
                entry = M[i, comp]
                if entry.is_exactly_zero():
                    continue
                entries.append((i, None if entry.exact else entry.hi, list(entry.coeffs.items())))
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
                    col.setdefault(offset[i] + ee, []).append((f, q))
        fused = ((row, sum_of_products(1, pairs)) for row, pairs in col.items())
        columns.append({row: q for row, q in fused if not q.is_exactly_zero()})
    return WindowRealization(src_labels, tgt_labels, columns)


def _check_outer(op: MatrixDiffOp, src: Tuple[int, int], bounds) -> None:
    """Raise for a one-variable ``op`` or a window past the label limit, before any building."""
    if op.level != 2:
        raise UnsupportedFrame("outer windows are implemented for two variables")
    _check_labels(op.rank * (src[1] - src[0]), sum(hi - lo for lo, hi in bounds))


def _window_layout(rank: int, src: Tuple[int, int], bounds):
    """Source and target labels, component-major, and the row offsets of an outer window.

    The target row of ``(i, e)`` is ``offset[i] + e``.
    """
    src_labels = tuple((c, e) for c in range(rank) for e in range(*src))
    tgt_labels = tuple((c, e) for c in range(rank) for e in range(*bounds[c]))
    offset = []
    start = 0
    for lo, hi in bounds:
        offset.append(start - lo)
        start += hi - lo
    return src_labels, tgt_labels, offset


def window_bounds(op: MatrixDiffOp, w: int, mode: str) -> List[Tuple[int, int]]:
    """Target exponents ``[lo, hi)`` per component for the window [-w, w).

    Both modes extend the target down to the full displacement hull, so no
    image coefficient is lost at the bottom.  The ``top`` mode cuts the
    target at the derivative term's displacement; the ``bottom`` mode cuts
    at the hull displacement itself, the sharp image of a deep lattice, so
    the bottom rows are a subset of the top ones.  A zero row has both
    displacements 0, so it keeps the source window.  The outer-window
    reduction (:func:`reduce_outer_window`) reads its kernel off the bottom
    cut and its cokernel off the top one.
    """
    bounds = []
    for i in range(op.rank):
        lo = op.delta_bottom(i)
        hi = lo if mode == "bottom" else op.delta_top(i)
        bounds.append((-w + lo, w + hi))
    return bounds


def realize_window(op: MatrixDiffOp, w: int, mode: str = "top") -> WindowRealization:
    """Matrix of a two-variable ``op`` on [-w, w) outer windows, cut by :func:`window_bounds`."""
    return window_columns(op, (-w, w), window_bounds(op, w, mode))


class OuterReduction:
    """Windowed kernel/cokernel of an outer-variable operator, over the inner field.

    The kernel is that of the lattice-sharp ("bottom") window, and the
    cokernel slots are the target labels of the top window's rows left out
    of its greedy row basis in label order.  ``ker_dim`` and the slots are
    read off the eliminations.  Each route is a subclass that gives the top
    window's ``matrix``, entries over the inner field, and the ``kernel``
    basis, tuples of inner-field elements indexed by ``src_labels``; the
    kernel is built when first read, so a window that the settle rule
    discards builds no kernel basis.  Two reductions are equal when their
    windows, labels, matrices, kernel bases and cokernel slots are.

    The two coordinate maps solve over the inner field
    (:func:`~higherlocal.linalg.solve_columns`) here; the integer route
    reads exact vectors off its own elimination instead.
    """

    __slots__ = ("window", "src_labels", "tgt_labels", "ker_dim", "coker_slots")

    def __init__(
        self, window: int, src_labels: Tuple, tgt_labels: Tuple, ker_dim: int, coker_slots: Tuple
    ):
        # labels are (component, outer exponent); coker_slots are the tgt
        # labels representing the cokernel
        self.window, self.src_labels, self.tgt_labels = window, src_labels, tgt_labels
        self.ker_dim, self.coker_slots = ker_dim, coker_slots

    def kernel_coordinates(self, vectors) -> List[Optional[List[TowerElement]]]:
        """Per vector indexed by ``src_labels``, its coordinates in the kernel
        basis, or None when it is certainly outside the span."""
        return solve_columns(self.kernel, vectors)

    def cokernel_coordinates(self, vectors) -> List[Optional[List[TowerElement]]]:
        """Per vector indexed by ``tgt_labels``, its coordinates on the slot units.

        The slot units span a complement of the window's image, so each
        vector is an image plus one combination of them, whose coefficients
        these are (None when no solution is certified).  Here the window's
        columns and the units are eliminated together.
        """
        one, zero = TowerElement.constant(1, 1), TowerElement.zero(1)
        units = [[one if lab == s else zero for lab in self.tgt_labels] for s in self.coker_slots]
        span = [self.matrix.column(j) for j in range(self.matrix.cols)] + units
        m = len(self.src_labels)
        return [x and x[m:] for x in solve_columns(span, vectors)]

    @property
    def coker_dim(self) -> int:
        return len(self.coker_slots)

    def _values(self):
        return (
            self.window, self.src_labels, self.tgt_labels, self.matrix, self.kernel,
            self.coker_slots,
        )

    def __eq__(self, other):
        if not isinstance(other, OuterReduction):
            return NotImplemented
        return self._values() == other._values()


def reduce_outer_window(
    op: MatrixDiffOp, w: int, probes: Optional[LatticeProbes] = None
) -> OuterReduction:
    """Kernel and cokernel slots of a two-variable ``op`` on the outer window [-w, w).

    A one-variable ``op`` raises :class:`UnsupportedFrame`, and a window
    past the label limit :class:`WindowTooLarge`, before either route
    builds anything.  An ``op`` whose coefficients are exact with rational
    constant inner coefficients is read as integers (:func:`_outer_probes`;
    ``probes`` is that reading, made once by a caller that reduces several
    windows) and eliminated fraction-free over Q
    (:func:`_reduce_outer_integer`); any other ``op`` takes the series
    route (:func:`_reduce_outer_series`), whose :func:`realize_window`
    computes the window's bounds and runs both checks.  Both give equal
    reductions.
    """
    if probes is None and op.level == 2:
        probes = _outer_probes(op)
    if probes is None:
        return _reduce_outer_series(op, w)
    bounds = window_bounds(op, w, "top")
    _check_outer(op, (-w, w), bounds)
    return _reduce_outer_integer(probes, w, bounds)


def _outer_probes(op: MatrixDiffOp) -> Optional[LatticeProbes]:
    """Two-variable ``op`` read by :class:`LatticeProbes` in the outer variable, or None.

    The reading exists when every coefficient is exact with exact rational
    constant inner coefficients (inner support {0}).
    """
    entries = (x for M in op.coeffs.values() for row in M.entries for x in row)
    if not all(x.exact and all(q.exact and (q.lo, q.hi) == (0, 1) for q in x.coeffs.values())
               for x in entries):
        return None

    def strip(x):
        # the constants n/d over the lcm of their d: canonical, as each n/d is
        parts = [(m, *q.numerators()) for m, q in x.coeffs.items()]
        den = lcm(*(d for _, d, _ in parts))
        return _element(1, {m: n * (den // d) for m, d, ((_, n),) in parts}, den, None)

    coeffs = {d: [[strip(x) for x in row] for row in M.entries] for d, M in op.coeffs.items()}
    return LatticeProbes(
        MatrixDiffOp(op.rank, {d: SeriesMatrix._of_rows(M, 1) for d, M in coeffs.items()})
    )


def _reduce_outer_integer(probes: LatticeProbes, w: int, bounds) -> OuterReduction:
    """:func:`reduce_outer_window` on the integer reading of ``op``.

    The top window is built from ``probes.terms`` as integer rows in label
    order: ``n t^m`` (over ``D_i``) in ``C_d[i, j]`` sends ``t^e`` to
    ``falling(e, d) n`` at exponent ``e - d + m`` of component ``i``, so
    row ``(i, e)`` is ``D_i`` times the rational one.  One label-order pass
    over them (:func:`echelon_relations`) gives the cokernel slots, the rows
    that reduce to zero (the series route's greedy row basis), with their
    relations.  The kernel is that of the bottom rows, below ``lo_i + 2w``:
    the same pass's when the two cuts coincide, else a :func:`sparse_echelon`.
    """
    r = probes.rank
    src_labels, tgt_labels, offset = _window_layout(r, (-w, w), bounds)
    rows: List[dict] = [{} for _ in tgt_labels]
    falling = [1] * (probes.order + 1)  # falling[d] = e (e - 1) ... (e - d + 1)
    for e in range(-w, w):
        for d in range(1, probes.order + 1):
            falling[d] = falling[d - 1] * (e - d + 1)
        for j, comp_terms in enumerate(probes.terms):
            k = 2 * w * j + e + w  # the column of source (j, e)
            for d, i, coeffs in comp_terms:
                f = falling[d]
                if not f:
                    continue
                lo, hi = bounds[i]
                if coeffs[0][0] // r + e - d < lo:
                    raise AssertionError("image fell below the certified hull")
                for rm, n in coeffs:
                    ee = rm // r + e - d
                    if ee >= hi:
                        break
                    row = rows[offset[i] + ee]
                    row[k] = row.get(k, 0) + f * n
    rows = [{k: n for k, n in row.items() if n} for row in rows]
    m = len(src_labels)
    echelon, relations = echelon_relations(rows, m)
    bottom = [row for row, (c, e) in zip(rows, tgt_labels) if e < bounds[c][0] + 2 * w]
    if len(bottom) < len(rows):  # the top cut is higher: the kernel is the bottom rows'
        echelon = sparse_echelon(bottom)
    slots = tuple(tgt_labels[k] for k in relations)
    return _IntegerReduction(
        w, src_labels, tgt_labels, m - len(echelon), slots,
        rows=rows, dens=probes.dens, echelon=echelon, relations=relations,
    )


class _IntegerReduction(OuterReduction):
    """An outer reduction read over Q from its window's own integer elimination.

    The kernel basis is the rref basis of the bottom rows' ``echelon`` (1
    at each free column), so an exact vector's kernel coordinates are its
    entries at the free columns, and it lies in the span when its residual
    at every pivot column vanishes.  Its coordinate on the slot unit at
    ``s`` is ``psi_s(y)``, ``psi_s`` the dependency relation of row ``s`` on
    the rows before it in the label-order pass, which vanishes on the image
    and is 1 at ``s`` and 0 at the other slots.  Both solutions are unique,
    so they are the elimination's.  A vector with an inexact entry is solved
    by the elimination: read off other rows, it would be known to other
    bounds.  The kernel, the relations scaled to the rational rows and the
    matrix are built when first read; nothing is eliminated again.
    """

    def __init__(self, *base, rows, dens, echelon, relations):
        super().__init__(*base)
        self.rows = rows  # the top window in label order
        self.dens = dens  # D_i per component
        self.echelon = echelon  # the bottom rows' echelon pivots
        self.relations = relations  # per slot row, its relation on the integer rows

    @cached_property
    def matrix(self) -> SeriesMatrix:
        entries = [[TowerElement.zero(1)] * len(self.src_labels) for _ in self.rows]
        for out, (c, _), row in zip(entries, self.tgt_labels, self.rows):
            for k, n in row.items():
                out[k] = TowerElement.constant(1, Fraction(n, self.dens[c]))
        return SeriesMatrix._of_rows(entries, 1)

    @cached_property
    def kernel(self) -> Tuple:
        basis = echelon_kernel(self.echelon, len(self.src_labels))
        return tuple(tuple(TowerElement.constant(1, q) for q in x) for x in basis)

    def kernel_coordinates(self, vectors) -> List[Optional[List[TowerElement]]]:
        if not _all_exact(vectors):
            return super().kernel_coordinates(vectors)
        free = [f for f in range(len(self.src_labels)) if f not in self.echelon]
        # per pivot column c, the residual y[c] - sum_k x_k kernel[k][c] must vanish
        checks = [
            (c, [(-vec[c], k) for k, vec in enumerate(self.kernel) if not vec[c].is_exactly_zero()])
            for c in self.echelon
        ]
        out: List[Optional[List[TowerElement]]] = []
        for y in vectors:
            x = [y[f] for f in free]
            live = {k for k, v in enumerate(x) if not v.is_exactly_zero()}
            for c, terms in checks:
                pairs = [(q, x[k]) for q, k in terms if k in live]
                residual = sum_of_products(1, [(1, y[c])] + pairs) if pairs else y[c]
                if residual.is_certainly_nonzero():
                    x = None
                    break
            out.append(x)
        return out

    @cached_property
    def _relations(self):
        # row (i, e) is D_i times the rational one, so a relation q of the
        # integer rows is q_j D_i(j) / D_i(s) on the rational ones
        dens = [self.dens[c] for c, _ in self.tgt_labels]
        relations = []
        for s, found in self.relations.items():
            psi = ((q * dens[j] / dens[s], j) for j, q in found.items())
            relations.append([
                (q.numerator if q.denominator == 1 else TowerElement.constant(1, q), j)
                for q, j in psi
            ])
        return relations

    def cokernel_coordinates(self, vectors) -> List[Optional[List[TowerElement]]]:
        if not _all_exact(vectors):
            return super().cokernel_coordinates(vectors)
        return [
            [sum_of_products(1, [(q, y[j]) for q, j in psi]) for psi in self._relations]
            for y in vectors
        ]


def _all_exact(vectors) -> bool:
    return all(x.exact for y in vectors for x in y)


def _reduce_outer_series(op: MatrixDiffOp, w: int) -> OuterReduction:
    """:func:`reduce_outer_window` over the inner field, for any two-variable ``op``.

    The rows of the derivative-cut ("top") window are built once, by
    :func:`realize_window`, which computes the window's bounds and runs the
    level and label checks; the lattice-sharp ("bottom") window is the
    subset of them below each component's bottom cut, ``2w`` above the
    bottom of its top cut.  The kernel comes from the bottom rows, whose
    forward pass is kept for it, the cokernel slots from the pivots of the
    transposed top rows, so both are eliminated.  The three matrices are
    built from the window's rows without the public constructor's checks.
    """
    win = realize_window(op, w)
    zero = TowerElement.zero(1)
    rows = [tuple(col.get(k, zero) for col in win.columns) for k in range(len(win.tgt_labels))]
    low: dict = {}
    for c, e in win.tgt_labels:  # ascending per component: the first is the bottom
        low.setdefault(c, e)
    bottom = [row for row, (c, e) in zip(rows, win.tgt_labels) if e < low[c] + 2 * w]
    bottom_pass = rank_kernel_det(SeriesMatrix._of_rows(bottom, 1))
    covered = {c for _, c in rank_kernel_det(SeriesMatrix._of_rows(zip(*rows), 1)).pivots}
    coker_slots = tuple(lab for k, lab in enumerate(win.tgt_labels) if k not in covered)
    return _SeriesReduction(
        w, win.src_labels, win.tgt_labels, len(win.src_labels) - bottom_pass.rank, coker_slots,
        matrix=SeriesMatrix._of_rows(rows, 1), bottom=bottom_pass,
    )


class _SeriesReduction(OuterReduction):
    """An outer reduction eliminated over the inner field."""

    __slots__ = ("matrix", "bottom")

    def __init__(self, *base, matrix: SeriesMatrix, bottom: Factorization):
        super().__init__(*base)
        self.matrix = matrix
        self.bottom = bottom  # the bottom rows' forward pass

    @property
    def kernel(self) -> Tuple:
        return self.bottom.kernel


class OuterStabilization(NamedTuple):
    """What :func:`stabilize_outer_windows` gave for ``op``.

    A caller that has stabilized an operator hands this along, and a later
    caller that would build the same operator reads the reduction from it
    instead of reducing the windows again.
    """

    op: MatrixDiffOp
    reduction: OuterReduction
    stabilized_at: Optional[int]
    trace: Tuple[Tuple[int, int, int], ...]

    def serves(self, op: MatrixDiffOp) -> bool:
        """True when ``op`` is the operator stabilized here."""
        return op.coeffs == self.op.coeffs


def stabilize_outer_windows(op: MatrixDiffOp) -> OuterStabilization:
    """Reduce the windows of ``OUTER_SCHEDULE`` until (ker, coker) settles (:func:`_settle`).

    The record holds the settling reduction (the last one when the pairs
    never agreed), the window at which they agreed (None when they never
    did) and the (window, ker, coker) trace.
    """
    probes = _outer_probes(op) if op.level == 2 else None
    reductions = (reduce_outer_window(op, w, probes) for w in OUTER_SCHEDULE)
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
