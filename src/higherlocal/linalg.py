"""Exact linear algebra over the tower fields and over the rationals.

Two layers live here.  ``SeriesMatrix`` wraps rectangular arrays of tower
elements and supports the eliminations the rest of the library needs; pivots
are chosen by minimal valuation so division destroys as little window width
as possible, and a pivot candidate that is zero up to precision but not
exactly zero raises :class:`UndeterminedPivot` instead of guessing.

Over the rationals, :func:`sparse_echelon` is the fraction-free eliminator
of the one-variable lattice probes, the integer rows that
:meth:`higherlocal.tate.LatticeProbes.rows` builds, and of the outer
windows whose entries are rational constants; :func:`echelon_kernel`
back-substitutes its kernel basis and :func:`echelon_relations` records the
dependency relation of each row it drops.  Other outer windows, those of
:func:`higherlocal.tate.window_columns`, have inner-field entries, and
:func:`rank_kernel_det` eliminates them.  The dense :func:`rref_q` is the
plain elimination over Q that the test suite uses as an oracle;
:func:`kernel_q` has no caller in the package and stays only as a layer
that ``bench/tracing.py`` wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import LevelMismatch, UndeterminedPivot
from .series import (
    TowerElement,
    TowerField,
    set_working_precision,
    sub_mul,
    sum_of_products,
    working_precision,
)


class SeriesMatrix:
    """A rectangular matrix of tower elements at a common level."""

    # _factored: the forward pass, kept by rank_kernel_det, solve and inverse
    # (the entries never change after construction)
    __slots__ = ("level", "rows", "cols", "entries", "_factored")

    def __init__(self, entries: Sequence[Sequence[TowerElement]]):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one entry")
        width = len(rows[0])
        level = rows[0][0].level
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged matrix")
            for x in r:
                if not isinstance(x, TowerElement) or x.level != level:
                    raise LevelMismatch("all entries must share one tower level")
        self._fill(rows, level)

    def _fill(self, rows: Tuple[Tuple[TowerElement, ...], ...], level: int) -> "SeriesMatrix":
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.level = level
        self._factored = None
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of_rows(cls, rows: Sequence[Sequence[TowerElement]], level: int) -> "SeriesMatrix":
        """The matrix of ``rows``, which the caller built nonempty, rectangular
        and at ``level``: the public constructor's checks are skipped."""
        return object.__new__(cls)._fill(tuple(map(tuple, rows)), level)

    @classmethod
    def zeros(cls, field: TowerField, rows: int, cols: int) -> "SeriesMatrix":
        z = field.zero()
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: TowerField, n: int) -> "SeriesMatrix":
        one, zero = field.one(), field.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    # -- structure ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix._of_rows(zip(*self.entries), self.level)

    def map(self, fn) -> "SeriesMatrix":
        return SeriesMatrix([[fn(x) for x in r] for r in self.entries])

    def derive(self, i: int) -> "SeriesMatrix":
        return self.map(lambda x: x.derive(i))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return SeriesMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map(lambda x: -x)

    def __matmul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        columns = list(zip(*other.entries))
        return SeriesMatrix(
            [
                [sum_of_products(self.level, zip(row, col)) for col in columns]
                for row in self.entries
            ]
        )

    def scale(self, f) -> "SeriesMatrix":
        return self.map(lambda x: x * f)

    def apply(self, vec: Sequence[TowerElement]) -> Tuple[TowerElement, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum_of_products(self.level, zip(row, vec)) for row in self.entries)

    def agrees_with(self, other: "SeriesMatrix") -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a.agrees_with(b)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def block_diag(self, other: "SeriesMatrix") -> "SeriesMatrix":
        z1 = TowerElement.zero(self.level)
        top = [list(r) + [z1] * other.cols for r in self.entries]
        bottom = [[z1] * self.cols + list(r) for r in other.entries]
        return SeriesMatrix(top + bottom)

    def kron(self, other: "SeriesMatrix") -> "SeriesMatrix":
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.entries[i][j]
                    for l in range(other.cols):
                        row.append(a * other.entries[k][l])
                out.append(row)
        return SeriesMatrix(out)

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols}, level {self.level})"


@dataclass(frozen=True)
class Factorization:
    """The forward pass of one matrix, with the row operations it made.

    ``rows`` is the echelon form, ``pivots`` its ``(row, col)`` pivots with
    their elements, ``sign`` the sign of the row permutation.  ``steps[k]``
    is the row exchanged into pivot row ``k`` and the ``(row, factor)``
    updates ``row <- row - factor * (pivot row k)`` made below it.
    ``inverses[k]`` is the inverse of pivot ``k``, or None until
    :meth:`back_substitute` needs it: the forward pass inverts only the
    pivots that clear a row below them.  Exact pivots invert to the working
    precision, so the result holds only at the ``precision`` it was
    computed at; the ``kernel``, built when first read, is built at that
    precision whenever it is read.
    """

    precision: int
    rows: Tuple[Tuple[TowerElement, ...], ...]
    pivots: Tuple[Tuple[int, int], ...]
    elements: Tuple[TowerElement, ...]
    inverses: List[Optional[TowerElement]]
    sign: int
    steps: Tuple[Tuple[int, Tuple[Tuple[int, TowerElement], ...]], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @cached_property
    def kernel(self) -> Tuple[Tuple[TowerElement, ...], ...]:
        """A basis of the right kernel, one vector per column without a pivot.

        The pivots are inverted at the pass's ``precision`` whenever the
        kernel is first read.
        """
        m = len(self.rows[0])
        level = self.rows[0][0].level
        pivot_rows = {pc: pr for pr, pc in self.pivots}
        free = [f for f in range(m) if f not in pivot_rows]
        tail = [[self.rows[pr][f] for f in free] for pr in range(self.rank)]
        old = set_working_precision(self.precision)
        try:
            self.back_substitute(tail)
        finally:
            set_working_precision(old)
        vecs = []
        for k, f in enumerate(free):
            vec = [TowerElement.zero(level)] * m
            vec[f] = TowerElement.constant(level, 1)
            for pc, pr in pivot_rows.items():
                vec[pc] = -tail[pr][k]
            vecs.append(tuple(vec))
        return tuple(vecs)

    @cached_property
    def determinant(self) -> Optional[TowerElement]:
        """The determinant of a square matrix (:func:`_determinant`), else None."""
        return _determinant(self) if len(self.rows) == len(self.rows[0]) else None

    def back_substitute(self, tail: List[List[TowerElement]]) -> None:
        """Reduce the columns carried in ``tail`` (one row per pivot), in place.

        Each pivot row is normalized and cleared from the rows above it; a
        pivot is inverted here, once, when the forward pass did not.  Only
        the carried columns are written: a pivot column above its pivot is
        read from the echelon form, where the later pivots' updates could
        only subtract multiples of exact zeros.
        """
        for k in reversed(range(len(self.pivots))):
            pr, pc = self.pivots[k]
            inv = self.inverses[k]
            if inv is None:
                inv = self.inverses[k] = self.elements[k].invert()
            prow = tail[pr] = [x * inv for x in tail[pr]]
            for i2 in range(pr):
                x = self.rows[i2][pc]
                if x.is_exactly_zero():
                    continue
                tail[i2] = [sub_mul(a, x, b) for a, b in zip(tail[i2], prow)]

    def solve(self, targets) -> List[Optional[List[TowerElement]]]:
        """Per target column, one x with (the factored matrix) x = target, or None.

        The targets take the forward pass's row exchanges and updates, then
        the back-substitution; every target sees the same row operations, so
        each result is the one a system of its own would give.  Free unknowns
        are set to zero.  A target is inconsistent, and gets None, when a row
        left without a pivot has a certified-nonzero right-hand side.
        """
        work = [[b[r] for b in targets] for r in range(len(self.rows))]
        for r, (i, updates) in enumerate(self.steps):
            if i != r:
                work[i], work[r] = work[r], work[i]
            prow = work[r]
            for i2, factor in updates:
                work[i2] = [sub_mul(a, factor, b) for a, b in zip(work[i2], prow)]
        rank = self.rank
        ok = [
            k for k in range(len(targets))
            if not any(row[k].is_certainly_nonzero() for row in work[rank:])
        ]
        tail = [[row[k] for k in ok] for row in work[:rank]]
        self.back_substitute(tail)
        zero = TowerElement.zero(self.rows[0][0].level)
        out: List[Optional[List[TowerElement]]] = [None] * len(targets)
        for j, k in enumerate(ok):
            x = out[k] = [zero] * len(self.rows[0])
            for r, c in self.pivots:
                x[c] = tail[r][j]
        return out


def _forward(entries: Sequence[Sequence[TowerElement]]) -> Factorization:
    """Forward elimination of the rows ``entries`` with minimal-valuation pivots.

    Each column takes the candidate of minimal certified valuation as its
    pivot and is cleared below it; the pivot is inverted only when a row
    below needs clearing.  A column whose only candidates are undetermined
    raises :class:`UndeterminedPivot`; a column of exact zeros is skipped.
    """
    precision = working_precision()
    work: List[List[TowerElement]] = [list(r) for r in entries]
    n, m = len(work), len(work[0])
    zero = TowerElement.zero(work[0][0].level)
    sign = 1
    pivots: List[Tuple[int, int]] = []
    elements: List[TowerElement] = []
    inverses: List[Optional[TowerElement]] = []
    steps = []
    r = 0
    for c in range(m):
        if r == n:
            break
        best = None
        undetermined = False
        for i in range(r, n):
            cls, v = work[i][c].classify_leading()
            if cls == "nonzero":
                if best is None or v < best[0]:
                    best = (v, i)
            elif cls == "undetermined":
                undetermined = True
        if best is None:
            if undetermined:
                raise UndeterminedPivot(c)
            continue
        _, i = best
        if i != r:
            work[i], work[r] = work[r], work[i]
            sign = -sign
        prow = work[r]
        piv = prow[c]
        piv_inv = None
        updates = []
        for i2 in range(r + 1, n):
            row = work[i2]
            x = row[c]
            if x.is_exactly_zero():
                continue
            if piv_inv is None:
                piv_inv = piv.invert()
            factor = x * piv_inv
            for j in range(c + 1, m):
                row[j] = sub_mul(row[j], factor, prow[j])
            row[c] = zero
            updates.append((i2, factor))
        steps.append((i, tuple(updates)))
        pivots.append((r, c))
        elements.append(piv)
        inverses.append(piv_inv)
        r += 1
    return Factorization(
        precision,
        tuple(tuple(row) for row in work),
        tuple(pivots),
        tuple(elements),
        inverses,
        sign,
        tuple(steps),
    )


def _factorization(M: SeriesMatrix) -> Factorization:
    """``M``'s forward pass, reused while the working precision is unchanged."""
    fac = M._factored
    if fac is None or fac.precision != working_precision():
        fac = M._factored = _forward(M.entries)
    return fac


def rank_kernel_det(M: SeriesMatrix) -> Factorization:
    """``M``'s forward pass, row-reduced over the field with minimal-valuation pivoting.

    Raises :class:`UndeterminedPivot` when a column has no certified-nonzero
    candidate but carries entries that are only zero up to precision.  The
    result is the pass ``M`` keeps (:func:`_factorization`) for a later
    :func:`solve` or :func:`inverse`: its ``rank`` and ``pivots`` come from
    the forward pass alone, and its ``kernel`` (a back-substitution) and
    ``determinant`` (a product of pivots) are built when first read.
    """
    return _factorization(M)


def _determinant(fac: Factorization) -> TowerElement:
    """The determinant of the square matrix factored as ``fac``."""
    if fac.rank < len(fac.rows):
        return TowerElement.zero(fac.rows[0][0].level)
    det = fac.elements[0]
    for p in fac.elements[1:]:
        det = det * p
    return det if fac.sign == 1 else -det


def _nonsingular(M: SeriesMatrix, what: str) -> Factorization:
    """The forward pass of the square ``M``, which must have certified full rank."""
    if M.rows != M.cols:
        raise ValueError(f"{what} needs a square matrix")
    fac = _factorization(M)
    if fac.rank < M.rows:
        c = min(set(range(M.rows)) - {pc for _, pc in fac.pivots})
        raise UndeterminedPivot(c, f"matrix is singular at column {c}")
    return fac


def solve(M: SeriesMatrix, rhs: Sequence[TowerElement]) -> Tuple[TowerElement, ...]:
    """Solve M x = rhs for square M with certified full rank."""
    return tuple(_nonsingular(M, "solve").solve([rhs])[0])


def inverse(M: SeriesMatrix) -> SeriesMatrix:
    """Matrix inverse over the tower field."""
    fac = _nonsingular(M, "inverse")
    n = M.rows
    one = TowerElement.constant(M.level, 1)
    zero = TowerElement.zero(M.level)
    columns = fac.solve([[one if i == j else zero for i in range(n)] for j in range(n)])
    return SeriesMatrix(list(zip(*columns)))


def solve_columns(columns, targets) -> List[Optional[List[TowerElement]]]:
    """Per target, one solution x of sum_j x_j columns[j] = target, or None.

    The system may be rectangular and rank-deficient; the columns are
    eliminated once and :meth:`Factorization.solve` serves every target.
    """
    if not columns:
        return [None if any(t.is_certainly_nonzero() for t in b) else [] for b in targets]
    return _forward([[col[r] for col in columns] for r in range(len(columns[0]))]).solve(targets)


# ---------------------------------------------------------------------------
# Rational (window) matrices
# ---------------------------------------------------------------------------

def rref_q(rows: List[List[Fraction]]) -> Tuple[int, List[int], List[List[Fraction]]]:
    """Reduced row echelon form over Q; returns (rank, pivot columns, rref)."""
    work = [list(r) for r in rows]
    n = len(work)
    m = len(work[0]) if n else 0
    piv_cols: List[int] = []
    r = 0
    for c in range(m):
        pivot_row = None
        for i in range(r, n):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[pivot_row], work[r] = work[r], work[pivot_row]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(n):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        piv_cols.append(c)
        r += 1
    return r, piv_cols, work


def kernel_q(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel over Q."""
    if not rows:
        return []
    m = len(rows[0])
    rank, piv_cols, red = rref_q(rows)
    piv_set = dict(zip(piv_cols, range(rank)))
    free = [c for c in range(m) if c not in piv_set]
    out = []
    for f in free:
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for pc, pr in piv_set.items():
            vec[pc] = -red[pr][f]
        out.append(vec)
    return out


# -- sparse variants (dict rows keyed by column index) -------------------------

def _primitive(row: dict) -> dict:
    """``row`` divided by the gcd of its integer entries (``{}`` stays ``{}``)."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _cancel(r: dict, p: dict, c: int) -> dict:
    """The primitive row ``a r - b p`` with ``a/b = p[c]/r[c]`` in lowest terms.

    Column ``c`` cancels and is dropped, as are the other sums that cancel;
    ``a`` is nonzero, so the row space of ``r`` and ``p`` is kept.
    """
    a, b = p[c], r[c]
    g = gcd(a, b)
    a //= g
    b //= g
    out = {cc: a * v for cc, v in r.items() if cc != c}
    for cc, v in p.items():
        if cc == c:
            continue
        nv = out.get(cc, 0) - b * v
        if nv:
            out[cc] = nv
        else:
            out.pop(cc, None)
    return _primitive(out)


def _integer_row(raw: dict) -> dict:
    """The primitive integer row with the span of ``raw``, zeros dropped.

    A row of nonzero ints, as level-1 windows hand over, is only divided by
    its content; any other row is first scaled by the lcm of its
    denominators.
    """
    if 0 not in raw.values():
        try:
            return _primitive(raw)
        except TypeError:  # a Fraction entry
            pass
    den = lcm(*(v.denominator for v in raw.values()))
    return _primitive({c: v.numerator * (den // v.denominator) for c, v in raw.items() if v})


def sparse_echelon(
    rows, echelon: Optional[dict] = None, dependent: Optional[list] = None
) -> dict:
    """Echelon pivots of a sparse rational matrix; returns {col: row dict}.

    Rows are dicts mapping column indices to ints or rationals (zeros are
    dropped).  The elimination is fraction-free: each row is made a
    primitive integer row (:func:`_integer_row`; a row of nonzero ints is
    taken as it is, up to its content), and a row is cleared at a pivot
    column ``c`` by :func:`_cancel`.  Each pivot row returned is primitive
    with integer entries and its leading entry at ``c``; it is a nonzero
    multiple of the row that elimination over Q with unit pivots would give,
    so pivots and ranks are those of the rational matrix, and scaling an
    input row changes neither.  Banded inputs stay banded, so this is much
    faster than dense elimination on window matrices.

    ``echelon``, the result of an earlier call, is continued over ``rows``:
    it is extended in place and returned, and is then the echelon of the
    earlier rows and ``rows`` together.  The pivot columns of an echelon
    form depend only on the row space, so splitting the rows into batches
    changes no pivot column; and whatever the rows, the number of pivots
    left of a column ``k`` is the rank of the columns left of ``k``.

    ``dependent``, when given, gets the index in ``rows`` of each row that
    reduces to zero: the rows left out of the greedy row basis, in order.
    """
    pivots: dict = {} if echelon is None else echelon
    for k, raw in enumerate(rows):
        r = _integer_row(raw)
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r = _cancel(r, p, c)
        else:
            if dependent is not None:
                dependent.append(k)
    return pivots


def echelon_relations(rows) -> Dict[int, Dict[int, Fraction]]:
    """The dependency relation of each row that reduces to zero in a :func:`sparse_echelon` pass.

    ``{k: {j: q_j}}`` per such row ``k``: ``sum_j q_j rows[j] = 0`` with
    ``q_k = 1``, and every other ``j`` a row before ``k`` that the pass
    kept.  Each row carries its own unit at a tag column past every column
    of ``rows``, so the tags of a reduced row record the combination made;
    a row whose columns all cancel is left with its relation.
    """
    m = 1 + max((c for row in rows for c in row), default=-1)
    pivots: dict = {}
    relations = {}
    for k, raw in enumerate(rows):
        r = _integer_row({**raw, m + k: 1})
        while True:
            c = min(r)
            if c >= m:
                relations[k] = {j - m: Fraction(v, r[m + k]) for j, v in r.items()}
                break
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r = _cancel(r, p, c)
    return relations


def echelon_kernel(echelon: dict, m: int) -> List[List[Fraction]]:
    """The basis of the right kernel of a :func:`sparse_echelon` result on ``m`` columns.

    One vector per column without a pivot, 1 there and 0 at the other free
    columns: the rref basis of :func:`kernel_q`, back-substituted over Q.
    """
    pivots = sorted(echelon, reverse=True)
    basis = []
    for f in range(m):
        if f in echelon:
            continue
        x = {f: Fraction(1)}  # the nonzero entries
        for c in pivots:
            row = echelon[c]
            s = sum(v * x[k] for k, v in row.items() if k in x)
            if s:
                x[c] = Fraction(-s, row[c])
        basis.append([x.get(k, Fraction(0)) for k in range(m)])
    return basis
