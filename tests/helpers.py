"""Fixtures and oracles the tests share, which the library itself never calls."""

import copy

from higherlocal.derham import EdgeOperator
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import TowerElement
from higherlocal.tate import MatrixDiffOp


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
