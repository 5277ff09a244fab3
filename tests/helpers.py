"""Fixtures and oracles the tests share, which the library itself never calls."""

import copy
import sys
from fractions import Fraction
from math import gcd, lcm

from higherlocal import series
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


def nabla_by_products(C, i: int, vec):
    """``v_a.derive(i) + sum_of_products(A_i[a], vec)`` for each entry ``a``.

    The covariant derivative expression by expression, the oracle of
    ``Connection.nabla`` at every level: of the level-1 integer pass, and of
    the one fused sum per entry above level 1.
    """
    Av = C.matrices[i - 1].apply(vec)
    return tuple(v.derive(i) + w for v, w in zip(vec, Av))


def along_by_scaling(C, cvec):
    """``sum_k c_k A_k`` as the chained sum of the matrices ``A_k.scale(c_k)``.

    An exact-zero ``c_k`` is skipped, and none left gives the zero matrix:
    the oracle of ``Connection.along``'s one fused sum per entry.
    """
    terms = [M.scale(c) for M, c in zip(C.matrices, cvec) if not c.is_exactly_zero()]
    if not terms:
        return SeriesMatrix.zeros(C.field, C.rank, C.rank)
    return sum(terms[1:], terms[0])


def operator_by_recursion(x):
    """The coefficients of the monic operator of ``nabla^r s = sum_k x_k nabla^k s``.

    The recursion ``f_{i-1} = a_i g - f_i'`` (``a_i = -x_i``, ``g =
    f_{r-1}``) unrolled one operator step at a time, then ``L = f_0' - a_0
    g``, signed to be monic: the oracle of ``dmodule._operator_of_relation``.
    """
    r = len(x)
    a = [-xi for xi in x]
    one = TowerElement.constant(1, 1)
    zero = TowerElement.zero(1)

    # operators on the coordinate g are coefficient lists: P(g) = sum c_j g^(j)
    def op_sub(p, q):
        n = max(len(p), len(q))
        return [
            (p[i] if i < len(p) else zero) - (q[i] if i < len(q) else zero)
            for i in range(n)
        ]

    def op_d(p):
        # (d o P)(g) = sum (c_j' g^(j) + c_j g^(j+1))
        out = [zero] * (len(p) + 1)
        for j, c in enumerate(p):
            out[j] = out[j] + c.derive(1)
            out[j + 1] = out[j + 1] + c
        return out

    P = [one]  # f_{r-1} = g
    for i in range(r - 1, 0, -1):
        P = op_sub([a[i]], op_d(P))
    L = op_sub(op_d(P), [a[0]])
    if (r - 1) % 2:
        L = [-c for c in L]
    return tuple(L)


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


def integer_rows(rows):
    """The rational sparse ``rows`` as the integer rows ``sparse_echelon`` takes.

    Each row is scaled by the lcm of its denominators and divided by its
    content, zeros dropped: a primitive row of nonzero ints with the span of
    the rational one (an empty row for a zero one).
    """
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row.values()))
        ints = {c: int(v * den) for c, v in row.items() if v}
        g = gcd(*ints.values())
        out.append({c: v // g for c, v in ints.items()} if g > 1 else ints)
    return out


def rref_q(rows):
    """Reduced row echelon form over Q; returns (rank, pivot columns, rref).

    The plain dense Gauss-Jordan elimination, the oracle that the library's
    fraction-free eliminators are checked against.
    """
    work = [list(r) for r in rows]
    n = len(work)
    m = len(work[0]) if n else 0
    piv_cols = []
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


def reduction_fields(red) -> tuple:
    """What an outer reduction gives, for comparing two of them: window,
    labels, kernel basis, slots, the set of pivot columns and the relations
    as ``{row: weight}`` dicts, an int weight read as the inner-field
    constant.  Reading it builds the kernel basis and the relations."""
    relations = [
        {j: TowerElement.constant(1, q) if isinstance(q, int) else q for q, j in psi}
        for psi in red.relations
    ]
    return (
        red.window, red.src_labels, red.tgt_labels, red.kernel, red.coker_slots,
        set(red.pivot_columns), relations,
    )


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
    dens = [lcm(*(x.numerators()[0] for _, _, x in op._row_entries(i))) for i in range(r)]
    entries = {}
    for at, row in enumerate(probes.rows(w, W)):
        t, i = divmod(at, r)
        for k, n in row.items():
            assert type(n) is int and n
            s, j = divmod(k, r)
            entries[(i, lo + t), (r - 1 - j, top - 1 - s)] = Fraction(n, dens[i])
    return entries


def record_precision_writes(monkeypatch) -> list:
    """The values of the ``set_working_precision`` calls made from now on.

    Every name in the package bound to the function is patched, so a module
    that imported it by name is counted too; ``monkeypatch`` undoes it.
    """
    writes = []
    original = series.set_working_precision

    def recorded(n):
        writes.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "higherlocal":
            if getattr(module, "set_working_precision", None) is original:
                monkeypatch.setattr(module, "set_working_precision", recorded)
    return writes
