"""Exact linear algebra over the tower fields and over the rationals.

Two layers live here.  ``SeriesMatrix`` wraps rectangular arrays of tower
elements and supports the eliminations the rest of the library needs; pivots
are chosen by minimal valuation so division destroys as little window width
as possible, and a pivot candidate that is zero up to precision but not
exactly zero raises :class:`UndeterminedPivot` instead of guessing.

Over the rationals there is one eliminator, fraction-free:
:func:`sparse_echelon`, for the one-variable lattice probes, the integer
rows that :meth:`higherlocal.tate.LatticeProbes.rows` builds, and
:func:`echelon_relations`, the same pass with the dependency relation of
each row it drops, for the outer windows whose entries are rational
constants; :func:`echelon_kernel` back-substitutes the kernel basis of
either.  Other outer windows, those of
:func:`higherlocal.tate.window_columns`, have inner-field entries, and
:func:`rank_kernel_det` eliminates them.  :func:`kernel_q`, the kernel of
dense rational rows, has no caller in the package and stays only as a
layer that ``bench/tracing.py`` wraps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import LevelMismatch, UndeterminedPivot
from .series import (
    TowerElement,
    TowerField,
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


class Factorization:
    """The forward pass of one matrix, with the row operations it made.

    ``rows`` is the echelon form, ``pivots`` its ``(row, col)`` pivots with
    their elements, ``sign`` the sign of the row permutation.  ``steps[k]``
    is the row exchanged into pivot row ``k`` and the ``(row, factor)``
    updates ``row <- row - factor * (pivot row k)`` made below it.
    ``inverses[k]`` is the inverse of pivot ``k``, or None until
    :meth:`back_substitute` needs it: the forward pass inverts only the
    pivots that clear a row below them.  Exact pivots expand to
    ``precision`` terms, so the result holds only at that precision, and
    every later inverse of a pivot is taken at it too.
    """

    def __init__(
        self, precision: int, rows: Tuple[Tuple[TowerElement, ...], ...],
        pivots: Tuple[Tuple[int, int], ...], elements: Tuple[TowerElement, ...],
        inverses: List[Optional[TowerElement]], sign: int,
        steps: Tuple[Tuple[int, Tuple[Tuple[int, TowerElement], ...]], ...],
    ):
        # into the instance dict past __setattr__, as the cached kernel and determinant
        vars(self).update(
            precision=precision, rows=rows, pivots=pivots, elements=elements,
            inverses=inverses, sign=sign, steps=steps,
        )

    def __setattr__(self, *a):
        raise AttributeError("Factorization is immutable")

    __delattr__ = __setattr__

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @cached_property
    def kernel(self) -> Tuple[Tuple[TowerElement, ...], ...]:
        """A basis of the right kernel, one vector per column without a pivot,
        back-substituted at the pass's ``precision`` when first read."""
        m = len(self.rows[0])
        level = self.rows[0][0].level
        pivot_rows = {pc: pr for pr, pc in self.pivots}
        free = [f for f in range(m) if f not in pivot_rows]
        tail = [[self.rows[pr][f] for f in free] for pr in range(self.rank)]
        self.back_substitute(tail)
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
        pivot is inverted here, once, at ``precision``, when the forward pass
        did not.  Only the carried columns are written: a pivot column above
        its pivot is read from the echelon form, where the later pivots'
        updates could only subtract multiples of exact zeros.
        """
        for k in reversed(range(len(self.pivots))):
            pr, pc = self.pivots[k]
            inv = self.inverses[k]
            if inv is None:
                inv = self.inverses[k] = self.elements[k].invert(None, self.precision)
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


def _forward(entries: Sequence[Sequence[TowerElement]], precision: int) -> Factorization:
    """Forward elimination of the rows ``entries`` with minimal-valuation pivots.

    Each column takes the candidate of minimal certified valuation as its
    pivot and is cleared below it; the pivot is inverted only when a row
    below needs clearing, an exact one to ``precision`` terms.  A column
    whose only candidates are undetermined raises
    :class:`UndeterminedPivot`; a column of exact zeros is skipped.
    """
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
                piv_inv = piv.invert(None, precision)
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


def rank_kernel_det(M: SeriesMatrix, prec: Optional[int] = None) -> Factorization:
    """``M``'s forward pass, row-reduced over the field with minimal-valuation pivoting.

    Raises :class:`UndeterminedPivot` when a column has no certified-nonzero
    candidate but carries entries that are only zero up to precision.  The
    pass is made at ``prec`` terms (the working precision when None) and
    kept on ``M``, so a later call at the same precision, and :func:`solve`
    and :func:`inverse`, which read theirs here, reuse it: its ``rank`` and
    ``pivots`` come from the forward pass alone, and its ``kernel`` (a
    back-substitution) and ``determinant`` (a product of pivots) are built
    when first read.
    """
    prec = working_precision() if prec is None else prec
    fac = M._factored
    if fac is None or fac.precision != prec:
        fac = M._factored = _forward(M.entries, prec)
    return fac


def _determinant(fac: Factorization) -> TowerElement:
    """The determinant of the square matrix factored as ``fac``."""
    if fac.rank < len(fac.rows):
        return TowerElement.zero(fac.rows[0][0].level)
    det = fac.elements[0]
    for p in fac.elements[1:]:
        det = det * p
    return det if fac.sign == 1 else -det


def _nonsingular(M: SeriesMatrix, what: str, prec: Optional[int]) -> Factorization:
    """The forward pass of the square ``M``, which must have certified full rank."""
    if M.rows != M.cols:
        raise ValueError(f"{what} needs a square matrix")
    fac = rank_kernel_det(M, prec)
    if fac.rank < M.rows:
        c = min(set(range(M.rows)) - {pc for _, pc in fac.pivots})
        raise UndeterminedPivot(c, f"matrix is singular at column {c}")
    return fac


def solve(
    M: SeriesMatrix, rhs: Sequence[TowerElement], prec: Optional[int] = None
) -> Tuple[TowerElement, ...]:
    """Solve M x = rhs for square M with certified full rank."""
    return tuple(_nonsingular(M, "solve", prec).solve([rhs])[0])


def inverse(M: SeriesMatrix, prec: Optional[int] = None) -> SeriesMatrix:
    """Matrix inverse over the tower field."""
    fac = _nonsingular(M, "inverse", prec)
    n = M.rows
    one = TowerElement.constant(M.level, 1)
    zero = TowerElement.zero(M.level)
    columns = fac.solve([[one if i == j else zero for i in range(n)] for j in range(n)])
    return SeriesMatrix(list(zip(*columns)))


# ---------------------------------------------------------------------------
# Rational (window) matrices: dict rows keyed by column index
# ---------------------------------------------------------------------------

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


def sparse_echelon(rows, echelon: Optional[dict] = None) -> dict:
    """Echelon pivots of a sparse integer matrix; returns {col: row dict}.

    Rows are dicts mapping column indices to nonzero ints, taken as given:
    a caller with rational rows clears their denominators first (as
    :func:`kernel_q` does).  The elimination is fraction-free: a row is
    cleared at a pivot column ``c`` by :func:`_cancel`, which returns it
    primitive.  Each pivot row returned has integer entries and its leading
    entry at ``c``; it is a nonzero multiple of the row that elimination
    over Q with unit pivots would give (primitive unless it is an input row
    kept as given), so pivots and ranks are those of the rational matrix,
    and scaling an input row changes neither.  Banded inputs stay banded,
    so this is much faster than dense elimination on window matrices.

    ``echelon``, the result of an earlier call, is continued over ``rows``:
    it is extended in place and returned, and is then the echelon of the
    earlier rows and ``rows`` together.  The pivot columns of an echelon
    form depend only on the row space, so splitting the rows into batches
    changes no pivot column; and whatever the rows, the number of pivots
    left of a column ``k`` is the rank of the columns left of ``k``.
    """
    pivots: dict = {} if echelon is None else echelon
    for r in rows:
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r = _cancel(r, p, c)
    return pivots


def echelon_relations(rows, m: int) -> Tuple[dict, Dict[int, Dict[int, Fraction]]]:
    """A :func:`sparse_echelon` of ``rows`` on ``m`` columns that keeps the dependency relations.

    The rows are :func:`sparse_echelon`'s, taken as given.  Returns
    ``(pivots, relations)``.  Row ``k`` carries its own unit at the tag
    column ``m + k``, so a row whose columns all cancel is left with its
    relation: ``relations[k] = {j: q_j}`` with ``sum_j q_j rows[j] = 0``,
    ``q_k = 1`` and every other ``j`` a kept row before ``k``.  ``pivots``
    has :func:`sparse_echelon`'s pivot columns and, below column ``m``,
    multiples of its rows, so :func:`echelon_kernel` reads the same kernel.
    The tags start at ``m``, not past the last column used, so that an
    empty trailing column stays free.
    """
    pivots: dict = {}
    relations = {}
    for k, raw in enumerate(rows):
        r = {**raw, m + k: 1}
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
    return pivots, relations


def echelon_kernel(echelon: dict, m: int) -> List[List[Fraction]]:
    """The basis of the right kernel of a :func:`sparse_echelon` result on ``m`` columns.

    One vector per column without a pivot, 1 there and 0 at the other free
    columns: the rref basis, back-substituted over Q.  Entries of the pivot
    rows at columns ``m`` and past (:func:`echelon_relations`' tags) are
    not read.
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


def kernel_q(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel over Q of the dense ``rows``: the rref basis.

    Each row is cleared of its denominators, zeros dropped, into the integer
    row that :func:`sparse_echelon` takes.
    """
    if not rows:
        return []
    dens = [lcm(*(v.denominator for v in row)) for row in rows]
    cleared = [{c: int(v * d) for c, v in enumerate(row) if v} for row, d in zip(rows, dens)]
    return echelon_kernel(sparse_echelon(cleared), len(rows[0]))
