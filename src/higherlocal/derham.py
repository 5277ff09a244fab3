"""De Rham complexes, cube multicomplexes and cohomology dimensions.

Given a flat connection and an independent tuple of closed 1-forms, the
complex of forms splits over the subsets of {1..n}: each vertex of the cube
is a copy of the underlying module identified through the wedge frame of the
tuple, each edge carries two maps, the directional covariant derivative
along the dual frame field (top differential) and the identity scaled by the
wedge sign (bottom differential).  Closedness of the tuple makes the dual
frame fields commute, so all squares anticommute; the checker composes the
edges as differential operators, checks that each route sum vanishes
coefficient by coefficient, and reads each direction's kernel/cokernel
windows through the directional reduction
:func:`~higherlocal.tate.edge_profile`.

Cohomology dimensions over two variables are computed along the outer
variable first: the windowed kernel and cokernel of the outer derivative are
finite-dimensional inner-field spaces carrying an induced inner connection,
whose dimensions, read by the one-variable branch of :func:`cohomology_dims`,
fill in the second page.  That filtration is the only one: every
two-variable answer is computed over ``k((t1))((t2))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .connection import Connection
from .dmodule import connection_irregularity
from .errors import (
    NotClosed,
    NotFlat,
    NotIndependent,
    UndeterminedPivot,
    UnsupportedFrame,
)
from .linalg import SeriesMatrix, inverse, rank_kernel_det, solve_columns
from .series import OneForm, TowerElement, TowerField, sum_of_products
from .tate import (
    DEFAULT_SCHEDULE,
    IndexReport,
    MatrixDiffOp,
    OuterMatrixDiffOp,
    OuterStabilization,
    edge_profile,
    operator_index,
    stabilize_outer_windows,
)


# ---------------------------------------------------------------------------
# Frame tuples
# ---------------------------------------------------------------------------

class FormTuple:
    """An independent tuple of closed 1-forms (nu_1, ..., nu_n)."""

    __slots__ = ("forms", "frame", "frame_inverse")

    def __init__(self, forms: Sequence[OneForm]):
        forms = tuple(forms)
        if not forms:
            raise ValueError("empty form tuple")
        n = forms[0].level
        if len(forms) != n:
            raise NotIndependent("need exactly one form per variable")
        for nu in forms:
            if nu.level != n:
                raise NotIndependent("forms live over different fields")
        N = SeriesMatrix([list(nu.components) for nu in forms])
        try:
            res = rank_kernel_det(N, want_kernel=False)
        except UndeterminedPivot as exc:
            raise NotIndependent(str(exc))
        if res.rank < n or not res.determinant.is_certainly_nonzero():
            raise NotIndependent("component matrix of the tuple is singular")
        for nu in forms:
            w = nu.closedness_witness()
            if w is not None:
                (i, j), _ = w
                raise NotClosed(
                    f"form has a certified nonzero dt{i}^dt{j} exterior component"
                )
        self.forms = forms
        self.frame = N
        self.frame_inverse = inverse(N)

    @property
    def level(self) -> int:
        return len(self.forms)

    def __neg__(self) -> "FormTuple":
        # negation keeps the tuple closed and independent: no check to redo
        neg = object.__new__(FormTuple)
        neg.forms = tuple(-nu for nu in self.forms)
        neg.frame, neg.frame_inverse = -self.frame, -self.frame_inverse
        return neg

    def dual_field(self, i: int) -> Tuple[TowerElement, ...]:
        """The vector field V_i with nu_j(V_i) = delta_ij, as d/dt coefficients."""
        return self.frame_inverse.column(i - 1)

    def is_diagonal(self) -> bool:
        n = self.level
        for i in range(n):
            for j in range(n):
                if i != j and self.frame[i, j].is_certainly_nonzero():
                    return False
        return True


def standard_forms(field: TowerField) -> FormTuple:
    """(dt_1, ..., dt_n)."""
    n = field.level
    forms = []
    for i in range(1, n + 1):
        comps = [field.zero()] * n
        comps[i - 1] = field.one()
        forms.append(OneForm(comps))
    return FormTuple(forms)


# ---------------------------------------------------------------------------
# The binary multicomplex on the cube
# ---------------------------------------------------------------------------

def _wedge_sign(M: frozenset, i: int) -> int:
    """Sign of nu_i ^ nu_M relative to the ascending wedge of M | {i}."""
    return -1 if sum(1 for m in M if m < i) % 2 else 1


# A differential operator on sections: each derivative multi-index (variables
# in ascending order, () for order zero) maps to its r x r coefficient rows.
Operator = Dict[Tuple[int, ...], Tuple[Tuple[TowerElement, ...], ...]]


def _diagonal(x: TowerElement, r: int) -> Tuple[Tuple[TowerElement, ...], ...]:
    """The rows of ``x I`` of size ``r``."""
    zero = TowerElement.zero(x.level)
    return tuple(tuple(x if a == b else zero for b in range(r)) for a in range(r))


@dataclass(frozen=True)
class EdgeOperator:
    """sign * (directional covariant derivative along a frame field)."""

    sign: int
    cvec: Tuple[TowerElement, ...]  # coefficients of d/dt_k
    pmat: SeriesMatrix  # sum c_k A_k

    def terms(self) -> Operator:
        """The edge as ``{(): s P, (k,): s c_k I}``, exact-zero ``c_k`` left out."""
        s, rows = self.sign, self.pmat.entries
        out = {(): rows if s == 1 else tuple(tuple(-x for x in row) for row in rows)}
        for k, c in enumerate(self.cvec, start=1):
            if not c.is_exactly_zero():
                out[(k,)] = _diagonal(c if s == 1 else -c, len(rows))
        return out


class BinaryMultiComplex:
    """Cube-indexed objects with covariant-derivative and wedge differentials."""

    def __init__(self, connection: Connection, forms: FormTuple):
        self.connection = connection
        self.forms = forms
        self.field = connection.field
        self.rank = connection.rank
        n = self.field.level
        self.n = n
        nabla_edges: Dict[Tuple[frozenset, int], EdgeOperator] = {}
        nu_edges: Dict[Tuple[frozenset, int], int] = {}
        fields = {i: forms.dual_field(i) for i in range(1, n + 1)}
        for size in range(n):
            for M in map(frozenset, combinations(range(1, n + 1), size)):
                for i in range(1, n + 1):
                    if i in M:
                        continue
                    sign = _wedge_sign(M, i)
                    cvec = fields[i]
                    nabla_edges[(M, i)] = EdgeOperator(sign, tuple(cvec), connection.along(cvec))
                    nu_edges[(M, i)] = sign
        self.nabla_edges = nabla_edges
        self.nu_edges = nu_edges


def build_multicomplex(C: Connection, forms: FormTuple) -> BinaryMultiComplex:
    if forms.level != C.field.level:
        raise NotIndependent("form tuple level does not match the connection")
    rep = C.check_flatness()
    if not rep.flat:
        raise NotFlat(f"curvature witness in variables {rep.witness[:2]}")
    return BinaryMultiComplex(C, forms)


# ---------------------------------------------------------------------------
# Multicomplex verification
# ---------------------------------------------------------------------------

@dataclass
class SquareFailure:
    face: Tuple
    kind: str
    detail: str


@dataclass
class DirectionResult:
    direction: int
    family: str  # "nabla" or "wedge"
    ok: bool
    detail: str
    trace: Tuple = ()
    # the check could not run on this input (``ok`` is then False)
    unsupported: bool = False
    # the outer reduction of the outermost covariant edge, to hand along
    outer: Optional[OuterStabilization] = None

    @property
    def status(self) -> str:
        """"pass", "fail" or "unsupported"."""
        if self.ok:
            return "pass"
        return "unsupported" if self.unsupported else "fail"


@dataclass
class MultiComplexReport:
    squares_ok: bool
    square_failures: List[SquareFailure]
    directions: List[DirectionResult]

    @property
    def acyclic(self) -> bool:
        return all(d.ok for d in self.directions)

    @property
    def acyclicity(self) -> str:
        """"fail" if a direction failed, else "unsupported" if one could not
        be checked, else "pass"."""
        statuses = {d.status for d in self.directions}
        return next((s for s in ("fail", "unsupported") if s in statuses), "pass")

    @property
    def ok(self) -> bool:
        return self.squares_ok and self.acyclic

    @property
    def outer(self) -> Optional[OuterStabilization]:
        """The stabilized reduction of the outermost covariant edge, if one ran.

        For a diagonal frame that edge is ``nu_n``'s normalized outer
        derivative, the operator :func:`induced_inner_connections` reduces
        for the degree, so the reduction can be handed along to it.
        """
        return next((d.outer for d in self.directions if d.outer is not None), None)


def _add_composite(acc: Dict, F: Operator, G: Operator) -> None:
    """Add the product pairs of the coefficients of ``F o G`` to ``acc``.

    ``F`` is first order, so ``F o G = sum F_a G_b d^(a+b) + sum_l F_(l)
    d_l(G_b) d^b``; ``acc[(c, i, j)]`` collects the pairs whose products sum
    to entry ``(i, j)`` of the coefficient of ``d^c``.
    """

    def add(c, X, Y):
        r = len(X)
        for i in range(r):
            for j in range(r):
                acc.setdefault((c, i, j), []).extend((X[i][m], Y[m][j]) for m in range(r))

    for a, Fa in F.items():
        for b, Gb in G.items():
            add(tuple(sorted(a + b)), Fa, Gb)
            if a:
                (l,) = a
                add(b, Fa, tuple(tuple(x.derive(l) for x in row) for row in Gb))


def check_multicomplex(
    B: BinaryMultiComplex, schedule: Sequence[int] = DEFAULT_SCHEDULE
) -> MultiComplexReport:
    """Check every square as an operator identity, then each direction's acyclicity.

    Each square ``(M, i, j)`` sums two composites per kind of route, and the
    kind fails when a coefficient of that sum is certified nonzero.  The sum
    is the operator every section sees, so no test section is needed.  The
    one-variable and inner directions probe on ``schedule``; the outermost
    covariant edge's stabilized reduction is kept in its
    :class:`DirectionResult` (``MultiComplexReport.outer``).
    """
    failures: List[SquareFailure] = []
    n, level = B.n, B.field.level
    ops: Dict[Tuple[str, frozenset, int], Operator] = {}

    def edge(family, M, i) -> Operator:
        key = (family, M, i)
        if key not in ops:
            if family == "nabla":
                ops[key] = B.nabla_edges[(M, i)].terms()
            else:
                ops[key] = {(): _diagonal(B.field.rational(B.nu_edges[(M, i)]), B.rank)}
        return ops[key]

    for size in range(n - 1):
        for M in map(frozenset, combinations(range(1, n + 1), size)):
            rest = [i for i in range(1, n + 1) if i not in M]
            for i, j in combinations(rest, 2):
                Mi, Mj = M | {i}, M | {j}
                for kind in ("nabla-nabla", "wedge-wedge", "nabla-wedge", "wedge-nabla"):
                    # the edges along i are of the first family, those along j
                    # of the second
                    x, y = kind.split("-")
                    acc: Dict = {}
                    _add_composite(acc, edge(y, Mi, j), edge(x, M, i))
                    _add_composite(acc, edge(x, Mj, i), edge(y, M, j))
                    if any(sum_of_products(level, p).is_certainly_nonzero() for p in acc.values()):
                        failures.append(
                            SquareFailure(
                                (tuple(sorted(M)), i, j),
                                kind,
                                "route sum has a certified nonzero coefficient",
                            )
                        )

    directions = []
    empty = frozenset()
    for i in range(1, n + 1):
        edge = B.nabla_edges[(empty, i)]
        directions.append(_direction_acyclicity(i, edge, schedule))
        s = B.nu_edges[(empty, i)]
        directions.append(
            DirectionResult(
                i,
                "wedge",
                abs(s) == 1,
                "scaled identity" if abs(s) == 1 else "wedge edge is not a unit",
            )
        )
    return MultiComplexReport(not failures, failures, directions)


def _direction_acyclicity(i: int, edge: EdgeOperator, schedule) -> DirectionResult:
    """The acyclicity of covariant edge ``i``, read off its own data.

    A vanishing edge fails: its window kernels grow.  Any other edge goes to
    :func:`~higherlocal.tate.edge_profile` on ``edge.cvec`` and
    ``edge.pmat``, so a tampered edge is what gets checked; the data that
    routine rejects leave the direction unsupported.
    """
    if all(c.is_exactly_zero() for c in edge.cvec):
        return DirectionResult(i, "nabla", False, "covariant edge vanishes; window kernels grow")
    try:
        prof = edge_profile(edge.cvec, edge.pmat, schedule)
    except UnsupportedFrame as exc:
        return DirectionResult(i, "nabla", False, str(exc), unsupported=True)
    detail = "window dimensions " + ("stabilized" if prof.stabilized else "kept growing")
    return DirectionResult(
        prof.direction, "nabla", prof.stabilized, detail, prof.trace, outer=prof.outer
    )


# ---------------------------------------------------------------------------
# Induced inner connections on windowed outer cohomology
# ---------------------------------------------------------------------------

def induced_inner_connections(
    C: Connection,
    normalizer: Optional[TowerElement] = None,
    outer: Optional[OuterStabilization] = None,
) -> Tuple[Optional[Connection], Optional[Connection], OuterStabilization]:
    """Windowed outer H^0 / H^1 of a two-variable connection with inner action.

    Returns (the induced one-variable connection on H^0, the one on H^1,
    the outer stabilization); a level of dimension 0 is None.  The outer
    operator is the covariant derivative along the outer variable, scaled by
    the inverse of ``normalizer`` when given.  When ``outer`` holds the
    stabilization of that same operator (:meth:`OuterStabilization.serves`),
    its reduction is used and no window is reduced again.
    """
    op = OuterMatrixDiffOp.from_connection(C, normalizer)
    if outer is None or not outer.serves(op):
        outer = stabilize_outer_windows(op)
    red = outer.reduction

    def section(labels, values) -> Tuple[TowerElement, ...]:
        # the inner coefficient values[k] at each label (component, outer exponent)
        comps = [dict() for _ in range(C.rank)]
        for (c, e), x in zip(labels, values):
            comps[c][e] = x
        return tuple(TowerElement(2, comp, None, True) for comp in comps)

    def read(labels, sec) -> List[TowerElement]:
        return [sec[c].coefficient(e) for c, e in labels]

    def action(images, span, tail, failure) -> Connection:
        # column j: the last ``tail`` coordinates of images[j] in ``span``
        solutions = solve_columns(span, images)
        if None in solutions:
            raise UnsupportedFrame(failure)
        cols = [x[-tail:] for x in solutions]
        return Connection(TowerField(1), [SeriesMatrix(cols).transpose()])

    h0 = h1 = None
    if red.ker_dim:
        images = [read(red.src_labels, C.nabla(1, section(red.src_labels, v))) for v in red.kernel]
        h0 = action(
            images, red.kernel, red.ker_dim, "induced action does not preserve the windowed kernel"
        )
    if red.coker_dim:
        # the unit section at each cokernel slot, modulo the window's image
        units = [section((slot,), (TowerElement.constant(1, 1),)) for slot in red.coker_slots]
        span = [red.matrix.column(j) for j in range(red.matrix.cols)]
        span += [read(red.tgt_labels, u) for u in units]
        images = [read(red.tgt_labels, C.nabla(1, u)) for u in units]
        h1 = action(
            images, span, red.coker_dim, "induced action leaves the windowed target span"
        )
    return h0, h1, outer


# ---------------------------------------------------------------------------
# Cohomology reports
# ---------------------------------------------------------------------------

@dataclass
class CohomologyReport:
    level: int
    dims: Tuple[int, ...]
    euler: int
    stabilized: bool
    e2: Optional[Dict[Tuple[int, int], int]] = None
    index_report: Optional[IndexReport] = None
    window_dims: Optional[Tuple[int, ...]] = None
    window_agrees: Optional[bool] = None


def cohomology_dims(C: Connection, schedule: Sequence[int] = DEFAULT_SCHEDULE) -> CohomologyReport:
    """Windowed cohomology dimensions with a certified degree-one side.

    Over one variable the degree-zero dimension is the windowed kernel of the
    lattice probes (:func:`operator_index`), a presentation-independent
    quantity.  The degree-one dimension is normalized through the certified
    irregularity (the windowed Euler characteristic equals minus the
    irregularity); the windowed cokernel is computed alongside and compared.

    Over two variables the outer direction goes first, on the fixed outer
    windows (:func:`induced_inner_connections`).  The induced inner
    connection on the outer ``H^q`` fills column ``q`` of the second page
    ``e2``: its one-variable dimensions at inner degrees ``p = 0, 1``, read
    by this function's own one-variable branch on ``schedule``.  ``h^n``
    sums the entries with ``p + q = n``.
    """
    n = C.field.level
    if n == 1:
        irr = connection_irregularity(C)
        rep = operator_index(MatrixDiffOp.from_connection(C), schedule)
        h0 = rep.ker_dim
        dims = (h0, h0 + irr)
        window_dims = (rep.ker_dim, rep.coker_dim) if rep.stabilized else None
        return CohomologyReport(
            1,
            dims,
            -irr,
            rep.stabilized,
            index_report=rep,
            window_dims=window_dims,
            window_agrees=None if window_dims is None else window_dims == dims,
        )
    if n != 2:
        raise UnsupportedFrame("cohomology dimensions are implemented for n <= 2")
    h0, h1, outer = induced_inner_connections(C)
    e2 = {}
    settled = outer.stabilized_at is not None
    for q, C1 in enumerate((h0, h1)):
        e2[(0, q)] = e2[(1, q)] = 0
        if C1 is not None:
            rep = cohomology_dims(C1, schedule)
            e2[(0, q)], e2[(1, q)] = rep.dims
            settled = settled and rep.stabilized
    dims = (e2[(0, 0)], e2[(1, 0)] + e2[(0, 1)], e2[(1, 1)])
    return CohomologyReport(2, dims, dims[0] - dims[1] + dims[2], settled, e2=e2)
