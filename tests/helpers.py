"""Fixtures and oracles the tests share, which the library itself never calls."""

import copy
from fractions import Fraction
from math import lcm

from higherlocal.derham import EdgeOperator
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import TowerElement
from higherlocal.tate import LatticeProbes, MatrixDiffOp


def from_scalar(coeffs) -> MatrixDiffOp:
    """The rank-1 operator ``sum_d coeffs[d] (d/dt)^d``."""
    return MatrixDiffOp(1, {d: SeriesMatrix([[a]]) for d, a in enumerate(coeffs)})


def apply_op(op: MatrixDiffOp, vec):
    """``op`` applied to a column vector, deriving in the outermost variable."""
    level = vec[0].level
    out = [TowerElement.zero(level) for _ in range(op.rank)]
    current = list(vec)
    for d in range(0, max(op.coeffs) + 1):
        if d > 0:
            current = [v.derive(level) for v in current]
        M = op.coeffs.get(d)
        if M is None:
            continue
        img = M.apply(current)
        out = [a + b for a, b in zip(out, img)]
    return tuple(out)


def with_zero_direction(B, i: int):
    """A tampered copy of the multicomplex ``B`` with direction ``i`` replaced by zero."""
    clone = copy.copy(B)
    zero = B.field.zero()
    clone.directions = {
        **B.directions,
        i: EdgeOperator(
            tuple(zero for _ in B.directions[i].cvec),
            SeriesMatrix.zeros(B.field, B.rank, B.rank),
        ),
    }
    return clone


def sparse_rows(win):
    """The rows of a window realization, as ``{source column: entry}`` dicts."""
    rows = [dict() for _ in win.tgt_labels]
    for j, col in enumerate(win.columns):
        for i, q in col.items():
            rows[i][j] = q
    return rows


def labelled_entries(win):
    """A window realization as ``{(target label, source label): entry}``."""
    return {
        (win.tgt_labels[k], win.src_labels[j]): q
        for j, col in enumerate(win.columns)
        for k, q in col.items()
    }


def probe_entries(op: MatrixDiffOp, w: int, W: int) -> dict:
    """The rows of ``LatticeProbes(op).rows(w, W)`` as ``{(target label, source label): value}``.

    Labels are ``(component, exponent)``.  Row ``r t + i`` is component
    ``i`` at exponent ``delta - w + t``, and column ``r s + r - 1 - j`` is
    component ``j`` at exponent ``W - delta - 1 - s``; an entry ``n`` of
    row ``i``, a nonzero int, stands for ``n / D_i``, ``D_i`` the lcm of
    the entry denominators in that row.
    """
    probes = LatticeProbes(op)
    r, top, lo = op.rank, W - probes.delta, probes.delta - w
    dens = [lcm(*(x.numerators()[0] for _, x in op._row_entries(i))) for i in range(r)]
    entries = {}
    for at, row in enumerate(probes.rows(w, W)):
        t, i = divmod(at, r)
        for k, n in row.items():
            assert type(n) is int and n
            s, j = divmod(k, r)
            entries[(i, lo + t), (r - 1 - j, top - 1 - s)] = Fraction(n, dens[i])
    return entries
