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
outer variable, by :class:`LatticeProbes`; its windows are read off the
probes ``M(-w, W)`` as integer rows and eliminated by one label-order pass,
:func:`~higherlocal.linalg.echelon_relations`; any other is realized by
:func:`realize_window`, the one series-window builder, and eliminated over
the inner field.  Both routes take the window's bounds and labels from
:func:`_outer_layout`, where an outer window is checked.  A reduction
(:class:`OuterReduction`) maps a vector to its coordinates in the kernel
basis and on the cokernel slots, read off the route's own eliminations,
with nothing eliminated again.  The outer windows are the fixed
``OUTER_SCHEDULE``, settled by the same loop; every ``schedule``
parameter here is a one-variable probe schedule.  The multicomplex check
(:mod:`higherlocal.derham`) reads each covariant edge through these two
routes: :func:`operator_index` over one variable or along the inner one,
:func:`stabilize_outer_windows` along the outer one.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .connection import Connection
from .errors import InsufficientPrecision, UnsupportedFrame, WindowTooLarge
from .linalg import SeriesMatrix, echelon_kernel, echelon_relations
from .linalg import rank_kernel_det, sparse_echelon
from .series import TowerElement, sum_of_products

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
        if not coeffs:
            raise ValueError("an operator needs at least one coefficient matrix")
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
        """The operator h^(-1) (d/dt + A) for the 1-form normalizer h dt, t outermost.

        With no normalizer or the exact 1 it is d/dt + A, with ``A`` itself.
        """
        one = C.field.one()
        if normalizer is None or normalizer == one:
            return cls.first_order(one, C.matrices[-1])
        hinv = normalizer.invert()
        return cls.first_order(hinv, C.matrices[-1].scale(hinv))

    @classmethod
    def first_order(cls, c: TowerElement, P: SeriesMatrix) -> "MatrixDiffOp":
        """The operator c d/dt + P, whose derivative coefficient is ``diag(c)``."""
        zero = TowerElement.zero(c.level)
        diag = [[c if i == j else zero for j in range(P.rows)] for i in range(P.rows)]
        return cls(P.rows, {1: SeriesMatrix._of_rows(diag, c.level), 0: P})

    # -- displacement hulls ----------------------------------------------------

    def _row_entries(self, i: int) -> List[Tuple[int, int, TowerElement]]:
        """``(d, j, C_d[i, j])`` for each entry of row ``i`` not exactly zero."""
        return [(d, j, x) for d, M in self.coeffs.items() for j, x in enumerate(M.entries[i])
                if not x.is_exactly_zero()]

    def _deltas(self, i: int, entries=None) -> Tuple[int, int]:
        """``(delta_bottom(i), delta_top(i))``, read off row ``i`` at once.

        Each entry of row ``i`` of ``C_d`` not exactly zero gives the shift
        ``v - d``, ``v`` its valuation lower bound.  The bottom is the least
        shift (0 for a zero row), the top the least of the ``d >= 1`` ones
        (the bottom when there are none).  ``entries``: the row's
        :meth:`_row_entries`, when the caller has read them.
        """
        entries = self._row_entries(i) if entries is None else entries
        shifts = [(d, x.valuation_lower_bound() - d) for d, _, x in entries]
        bottom = min((s for _, s in shifts), default=0)
        return bottom, min((s for d, s in shifts if d >= 1), default=bottom)

    def delta_bottom(self, i: int) -> int:
        return self._deltas(i)[0]

    def delta_top(self, i: int) -> int:
        return self._deltas(i)[1]


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
        self.terms = [[] for _ in range(r)]
        self.dens = []
        hulls, cuts = [], []
        for i in range(r):  # each row read once
            entries = op._row_entries(i)
            hulls.append(op._deltas(i, entries))
            cuts += [x.hi - d for d, _, x in entries if not x.exact]
            read = [(d, j, *x.numerators()) for d, j, x in entries]
            den = lcm(*(xden for _, _, xden, _ in read))
            self.dens.append(den)
            for d, j, xden, items in read:
                if items:
                    coeffs = sorted((r * m, n * (den // xden)) for m, n in items)
                    self.terms[j].append((d, i, coeffs))
        self.delta = min(bottom for bottom, _ in hulls)
        self.offset = -sum(top for _, top in hulls)
        self.known = min(cuts, default=None)

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
        top = W - self.delta
        n = self.rank * (top + w)  # labels on either side
        _check_labels(n, n)
        if self.known is not None and self.known - w < W and -w < top:
            raise InsufficientPrecision("operator coefficients are too short for this window")
        return self._build(w, W, top)

    def _build(self, w: int, W: int, stop: int) -> List[dict]:
        """The rows of ``M(-w, W)`` on the sources below ``stop``, without :meth:`rows`' checks.

        Column ``r s + r - 1 - j`` is source ``(j, stop - 1 - s)``, so with
        ``stop = W - delta`` these are :meth:`rows`.
        """
        r, lo = self.rank, self.delta - w
        n = r * (W - lo)
        rows: List[dict] = [{} for _ in range(n)]
        falling = [1] * (self.order + 1)  # falling[d] = e (e - 1) ... (e - d + 1)
        # per component, descending: (d, base less r e, coefficients) per term
        placed = [[(d, i - r * (d + lo), q) for d, i, q in comp] for comp in reversed(self.terms)]
        k = 0
        for e in range(stop - 1, -w - 1, -1):
            for d in range(1, self.order + 1):
                falling[d] = falling[d - 1] * (e - d + 1)
            re = r * e
            for comp_terms in placed:
                for d, offset, coeffs in comp_terms:
                    f = falling[d]
                    if not f:
                        continue
                    base = re + offset  # t^m goes to row r m + base
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


def window_bounds(op: MatrixDiffOp, w: int) -> List[Tuple[int, int]]:
    """Target exponents ``[lo, hi)`` per component for the window [-w, w): the top cut.

    The target reaches down to the full displacement hull, so no image
    coefficient is lost at the bottom, and is cut at the derivative term's
    displacement.  A zero row has both displacements 0, so it keeps the
    source window.  The bottom cut, the sharp image of a deep lattice, is
    ``[lo, lo + 2w)``, a subset of these rows; the outer-window reduction
    (:func:`reduce_outer_window`) reads its kernel off the bottom cut and
    its cokernel off the top one.
    """
    return [(-w + bottom, w + top) for bottom, top in map(op._deltas, range(op.rank))]


def _outer_layout(op: MatrixDiffOp, w: int):
    """``(bounds, src_labels, tgt_labels, offset)`` of the outer window [-w, w), checked.

    A one-variable ``op`` raises :class:`UnsupportedFrame`, and a window
    with more than ``MAX_WINDOW_LABELS`` labels on a side
    :class:`WindowTooLarge`, before any label is built.  The bounds are
    :func:`window_bounds`, the labels ``(component, outer exponent)``
    component-major, and the target row of ``(i, e)`` is ``offset[i] + e``.
    """
    if op.level != 2:
        raise UnsupportedFrame("outer windows are implemented for two variables")
    bounds = window_bounds(op, w)
    _check_labels(2 * w * op.rank, sum(hi - lo for lo, hi in bounds))
    src_labels = tuple((c, e) for c in range(op.rank) for e in range(-w, w))
    tgt_labels = tuple((c, e) for c, b in enumerate(bounds) for e in range(*b))
    offset, start = [], 0
    for lo, hi in bounds:
        offset.append(start - lo)
        start += hi - lo
    return bounds, src_labels, tgt_labels, offset


def realize_window(op: MatrixDiffOp, w: int) -> WindowRealization:
    """Matrix of a two-variable ``op`` on the outer window [-w, w), cut at :func:`window_bounds`.

    Target component ``i`` keeps the exponents ``bounds[i] = [lo, hi)``
    (:func:`_outer_layout`, which runs the level and label checks first).
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
    the least bound of its terms.
    """
    bounds, src_labels, tgt_labels, offset = _outer_layout(op, w)
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


class OuterReduction:
    """Windowed kernel/cokernel of an outer-variable operator, over the inner field.

    The kernel is that of the lattice-sharp ("bottom") window, and the
    cokernel slots are the target labels of the top window's rows left out
    of its greedy row basis in label order.  Both routes return this
    record, with the bottom elimination's ``pivot_columns`` (so ``ker_dim``
    is the number of source labels without a pivot) and two callables that
    build, from the route's own eliminations, the ``kernel`` basis, tuples
    of inner-field elements indexed by ``src_labels``, each 1 at its own
    free column and 0 at the other free columns; and, per slot, its
    ``relations``, ``(weight, row)`` pairs of a functional on the target
    rows that is 1 at the slot, 0 at the other slots and vanishes on the
    window's image.  Each is built once, when first read, so a window that
    the settle rule discards builds neither.  Reductions compare by
    identity.

    The two coordinate maps read every vector off those, on both routes;
    nothing is eliminated again.
    """

    def __init__(
        self, window: int, src_labels: Tuple, tgt_labels: Tuple, coker_slots: Tuple,
        pivot_columns, kernel: Callable[[], Tuple], relations: Callable[[], List],
    ):
        # labels are (component, outer exponent); coker_slots are the tgt
        # labels representing the cokernel
        self.window, self.src_labels, self.tgt_labels = window, src_labels, tgt_labels
        self.coker_slots, self.pivot_columns = coker_slots, pivot_columns
        self._kernel, self._relations = kernel, relations

    @cached_property
    def kernel(self) -> Tuple:
        return self._kernel()

    @cached_property
    def relations(self) -> List:
        return self._relations()

    def kernel_coordinates(self, vectors) -> List[Optional[List[TowerElement]]]:
        """Per vector indexed by ``src_labels``, its coordinates in the kernel
        basis, or None when it is certainly outside the span.

        The coordinates are the vector's entries at the free columns; the
        vector is outside the span when its residual at a pivot column is
        certainly nonzero.
        """
        pivots = self.pivot_columns
        free = [f for f in range(len(self.src_labels)) if f not in pivots]
        # per pivot column c, the residual y[c] - sum_k x_k kernel[k][c] must vanish
        checks = [
            (c, [(-vec[c], k) for k, vec in enumerate(self.kernel) if not vec[c].is_exactly_zero()])
            for c in pivots
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

    def cokernel_coordinates(self, vectors) -> List[List[TowerElement]]:
        """Per vector indexed by ``tgt_labels``, its coordinates on the slot units.

        The slot units span a complement of the window's image, so each
        vector is an image plus one combination of them; its coefficient on
        the unit at slot ``s`` is ``psi_s(y)``, ``psi_s`` the slot's
        relation.
        """
        relations = self.relations
        return [
            [sum_of_products(1, [(q, y[j]) for q, j in psi]) for psi in relations] for y in vectors
        ]

    @property
    def ker_dim(self) -> int:
        return len(self.src_labels) - len(self.pivot_columns)

    @property
    def coker_dim(self) -> int:
        return len(self.coker_slots)


def reduce_outer_window(
    op: MatrixDiffOp, w: int, probes: Optional[LatticeProbes] = None
) -> OuterReduction:
    """Kernel and cokernel slots of a two-variable ``op`` on the outer window [-w, w).

    Both routes take the window's bounds and labels from
    :func:`_outer_layout`, whose level and label checks run before either
    builds anything.  An ``op`` whose coefficients are exact with rational
    constant inner coefficients is read as integers (:func:`_outer_probes`;
    ``probes`` is that reading, made once by a caller that reduces several
    windows) and eliminated fraction-free over Q
    (:func:`_reduce_outer_integer`); any other ``op`` takes the series
    route (:func:`_reduce_outer_series`).  Both give the same
    labels, slots, pivot columns, kernel basis and relations, an int weight
    of the integer route being the inner-field constant of the series one.
    """
    if probes is None:
        probes = _outer_probes(op)
    if probes is None:
        return _reduce_outer_series(op, w)
    return _reduce_outer_integer(probes, w, _outer_layout(op, w))


def _outer_probes(op: MatrixDiffOp) -> Optional[LatticeProbes]:
    """Two-variable ``op`` read by :class:`LatticeProbes` in the outer variable, or None.

    The reading exists when ``op`` is two-variable and every coefficient is
    exact with exact rational constant inner coefficients (inner support {0}).
    """
    entries = (x for M in op.coeffs.values() for row in M.entries for x in row)
    if op.level != 2 or not all(
        x.exact and all(q.exact and (q.lo, q.hi) == (0, 1) for q in x.coeffs.values())
        for x in entries
    ):
        return None

    def strip(x):
        # the inner constants as the coefficients of a level-1 element
        if x.is_exactly_zero():
            return TowerElement.zero(1)
        return TowerElement(1, {m: q.coefficient(0) for m, q in x.coeffs.items()}, None, True)

    coeffs = {d: [[strip(x) for x in row] for row in M.entries] for d, M in op.coeffs.items()}
    return LatticeProbes(
        MatrixDiffOp(op.rank, {d: SeriesMatrix._of_rows(M, 1) for d, M in coeffs.items()})
    )


def _reduce_outer_integer(probes: LatticeProbes, w: int, layout) -> OuterReduction:
    """:func:`reduce_outer_window` on the integer reading of ``op``.

    The top window is read off the lattice probe ``M(-w, W)``, ``W`` the
    highest top cut, built on the sources below ``w``: row ``(i, e)``,
    ``D_i`` times the rational one, is the probe's row of target ``(i, e)``
    with its columns in label order, and a probe row of component ``i``
    below ``lo_i`` with an entry is a broken hull.  One label-order pass
    (:func:`echelon_relations`) gives the cokernel slots, the rows that
    reduce to zero (the series route's greedy row basis), with their
    relations.  The kernel is that of the bottom rows, below ``lo_i + 2w``:
    the same pass's when the two cuts coincide, else a :func:`sparse_echelon`.
    """
    bounds, src_labels, tgt_labels, _ = layout
    r, lo = probes.rank, probes.delta - w
    probe = probes._build(w, max(hi for _, hi in bounds), w)
    if any(probe[r * (e - lo) + i] for i, (lo_i, _) in enumerate(bounds) for e in range(lo, lo_i)):
        raise AssertionError("image fell below the certified hull")
    # probe column r s + r - 1 - j, source (j, w - 1 - s), is label column 2w j + 2w - 1 - s
    label = [2 * w * j + 2 * w - 1 - s for s in range(2 * w) for j in reversed(range(r))]
    rows = [{label[k]: n for k, n in probe[r * (e - lo) + i].items()} for i, e in tgt_labels]
    m = len(src_labels)
    echelon, row_relations = echelon_relations(rows, m)
    bottom = [row for row, (c, e) in zip(rows, tgt_labels) if e < bounds[c][0] + 2 * w]
    if len(bottom) < len(rows):  # the top cut is higher: the kernel is the bottom rows'
        echelon = sparse_echelon(bottom)

    def kernel():
        basis = echelon_kernel(echelon, m)
        return tuple(tuple(TowerElement.constant(1, q) for q in x) for x in basis)

    def relations():
        # row (i, e) is D_i times the rational one, so a relation q of the
        # integer rows is q_j D_i(j) / D_i(s) on the rational ones
        dens = [probes.dens[c] for c, _ in tgt_labels]
        out = []
        for s, found in row_relations.items():
            psi = ((q * dens[j] / dens[s], j) for j, q in found.items())
            out.append([
                (q.numerator if q.denominator == 1 else TowerElement.constant(1, q), j)
                for q, j in psi
            ])
        return out

    slots = tuple(tgt_labels[k] for k in row_relations)
    return OuterReduction(w, src_labels, tgt_labels, slots, echelon, kernel, relations)


def _reduce_outer_series(op: MatrixDiffOp, w: int) -> OuterReduction:
    """:func:`reduce_outer_window` over the inner field, for any two-variable ``op``.

    The rows of the derivative-cut ("top") window are built once, by
    :func:`realize_window`; the lattice-sharp ("bottom") window is the
    subset of them below each component's bottom cut, ``2w`` above the
    bottom of its top cut.  The kernel comes from the bottom rows' forward
    pass, the cokernel slots from the columns without a pivot in the
    transposed top rows' pass; both passes are kept for the coordinate
    reads.  The two matrices are built from the window's rows without the
    public constructor's checks.
    """
    win = realize_window(op, w)
    zero = TowerElement.zero(1)
    rows = [tuple(col.get(k, zero) for col in win.columns) for k in range(len(win.tgt_labels))]
    low: dict = {}
    for c, e in win.tgt_labels:  # ascending per component: the first is the bottom
        low.setdefault(c, e)
    bottom = [row for row, (c, e) in zip(rows, win.tgt_labels) if e < low[c] + 2 * w]
    bottom_pass = rank_kernel_det(SeriesMatrix._of_rows(bottom, 1))
    top_pass = rank_kernel_det(SeriesMatrix._of_rows(zip(*rows), 1))
    covered = {c for _, c in top_pass.pivots}
    coker_slots = tuple(lab for k, lab in enumerate(win.tgt_labels) if k not in covered)

    def relations():
        # the transposed top pass's kernel: one vector per slot, 1 there, 0
        # at the other slots and zero on every column of the window
        return [
            [(q, j) for j, q in enumerate(psi) if not q.is_exactly_zero()]
            for psi in top_pass.kernel
        ]

    pivots = frozenset(c for _, c in bottom_pass.pivots)
    return OuterReduction(
        w, win.src_labels, win.tgt_labels, coker_slots, pivots, lambda: bottom_pass.kernel,
        relations,
    )


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
    probes = _outer_probes(op)
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
