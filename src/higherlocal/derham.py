"""De Rham complexes, cube multicomplexes and cohomology dimensions.

Given a flat connection and an independent tuple of closed 1-forms, the
complex of forms splits over the subsets of {1..n}: each vertex of the cube
is a copy of the underlying module identified through the wedge frame of the
tuple, and each edge carries two maps under one wedge sign, the covariant
derivative along the edge's dual frame field (top differential) and the
identity (bottom differential).  The signs make the two routes of every face
opposite, so the cube is stored as its n directions and each face reduces
to the commutator of its two.  Closed forms have commuting dual fields, so
flatness makes the directions commute; the checker reads each pair's
commutator in closed form, a first-order operator again
(:meth:`~higherlocal.connection.EdgeOperator.commutator`), checks that it
vanishes coefficient by coefficient, and reads each direction's
kernel/cokernel windows off its own data: the lattice probes of
:func:`~higherlocal.tate.operator_index` over one variable or along the
inner one, the outer windows of
:func:`~higherlocal.tate.stabilize_outer_windows` along the outer one.

Cohomology dimensions over two variables are computed along the outer
variable first: the windowed kernel and cokernel of the outer derivative are
finite-dimensional inner-field spaces carrying an induced inner connection,
whose matrix is read by the outer reduction's coordinate maps and whose
dimensions, read by the one-variable branch of :func:`cohomology_dims`,
fill in the second page.  That filtration is the only one: every
two-variable answer is computed over ``k((t1))((t2))``.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .connection import Connection, EdgeOperator
from .dmodule import connection_irregularity, rank_one_h0
from .errors import (
    NotClosed,
    NotFlat,
    NotIndependent,
    UndeterminedPivot,
    UnsupportedFrame,
    WindowTooLarge,
)
from .linalg import SeriesMatrix, inverse, rank_kernel_det
from .series import (
    OneForm,
    TowerElement,
    TowerField,
    set_working_precision,
    working_precision,
)
from .tate import (
    DEFAULT_SCHEDULE,
    IndexReport,
    MatrixDiffOp,
    OuterStabilization,
    operator_index,
    stabilize_outer_windows,
    strip_outer,
)


# ---------------------------------------------------------------------------
# Frame tuples
# ---------------------------------------------------------------------------

class FormTuple:
    """An independent tuple of closed 1-forms (nu_1, ..., nu_n).

    ``frame`` is the component matrix.  Its inverse, whose columns are the
    dual fields, is built when :attr:`frame_inverse` is first read, at the
    precision the tuple was made at, so the commands that read only the
    frame build none.
    """

    __slots__ = ("forms", "frame", "_precision", "_inverse", "_negated")

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
            rank = rank_kernel_det(N).rank
        except UndeterminedPivot as exc:
            raise NotIndependent(str(exc))
        # every pivot is certified nonzero, so full rank certifies the determinant
        if rank < n:
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
        self._precision = working_precision()
        self._inverse = self._negated = None

    @property
    def level(self) -> int:
        return len(self.forms)

    @property
    def frame_inverse(self) -> SeriesMatrix:
        """The inverse of ``frame``; a negated tuple negates its source's."""
        if self._inverse is None and self._negated is not None:
            self._inverse = -self._negated.frame_inverse
        elif self._inverse is None:
            old = set_working_precision(self._precision)
            try:
                self._inverse = inverse(self.frame)
            finally:
                set_working_precision(old)
        return self._inverse

    def __neg__(self) -> "FormTuple":
        # negation keeps the tuple closed and independent: no check to redo
        neg = object.__new__(FormTuple)
        neg.forms = tuple(-nu for nu in self.forms)
        neg.frame, neg._inverse, neg._negated = -self.frame, None, self
        return neg

    def dual_field(self, i: int) -> Tuple[TowerElement, ...]:
        """The vector field V_i with nu_j(V_i) = delta_ij, as d/dt coefficients."""
        return self.frame_inverse.column(i - 1)

    def is_diagonal(self) -> bool:
        """Every off-diagonal frame entry is exactly zero; an undetermined one is not."""
        n = self.level
        return all(
            self.frame[i, j].is_exactly_zero() for i in range(n) for j in range(n) if i != j
        )


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

class BinaryMultiComplex:
    """Cube-indexed objects with covariant-derivative and wedge differentials.

    Edge ``(M, i)`` carries ``s nabla_i`` (top) and ``s 1`` (bottom), with
    ``s(M, i) = (-1)^#{m in M : m < i}`` the sign of ``nu_i ^ nu_M`` against
    the ascending wedge and ``nabla_i`` the covariant derivative along the
    field dual to ``nu_i``; ``directions[i]`` holds ``nabla_i`` unsigned.
    On a face ``(M, i, j)``, ``i < j``, the routes through ``M | {i}`` and
    ``M | {j}`` carry the opposite signs ``-s(M, i) s(M, j)`` and ``s(M, i)
    s(M, j)``.  So a route kind with a wedge edge, a direction composed with
    the identity either way, sums to zero, and the covariant kind sums to
    ``+-(nabla_j nabla_i - nabla_i nabla_j)`` on every face of the pair.
    Each direction is the :class:`~higherlocal.connection.EdgeOperator`
    ``sum_k V_k d/dt_k + sum_k V_k A_k`` of its dual field ``V``.
    """

    def __init__(self, connection: Connection, forms: FormTuple):
        self.connection = connection
        self.forms = forms
        self.field = connection.field
        self.rank = connection.rank
        self.n = self.field.level
        fields = {i: forms.dual_field(i) for i in range(1, self.n + 1)}
        self.directions = {i: EdgeOperator(V, connection.along(V)) for i, V in fields.items()}


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

class SquareFailure(NamedTuple):
    pair: Tuple[int, int]  # the directions (i, j), i < j, of the failing faces
    detail: str


class DirectionResult(NamedTuple):
    direction: int
    ok: bool
    detail: str
    trace: Tuple = ()
    # the check could not run on this input (``ok`` is then False)
    unsupported: bool = False

    @property
    def status(self) -> str:
        """"pass", "fail" or "unsupported"."""
        if self.ok:
            return "pass"
        return "unsupported" if self.unsupported else "fail"


class MultiComplexReport(NamedTuple):
    squares_ok: bool
    square_failures: List[SquareFailure]
    directions: List[DirectionResult]
    # the stabilized reduction of the covariant edge along the outer
    # variable, if one ran.  For a diagonal frame that edge is nu_n's
    # normalized outer derivative, the operator induced_inner_connections
    # reduces for the degree, so the reduction can be handed along to it
    outer: Optional[OuterStabilization] = None

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


def check_multicomplex(
    B: BinaryMultiComplex, schedule: Sequence[int] = DEFAULT_SCHEDULE
) -> MultiComplexReport:
    """Check the commutator of each pair of directions, then each direction's acyclicity.

    Every face of the pair ``(i, j)`` sums to ``+-(nabla_j nabla_i -
    nabla_i nabla_j)`` (:class:`BinaryMultiComplex`), so the pair fails
    when an entry of that commutator, a field and a matrix
    (:meth:`~higherlocal.connection.EdgeOperator.commutator`), is certified
    nonzero.  The commutator is the operator every section sees, so no test
    section is needed.  The one-variable and inner directions probe on
    ``schedule``; the outermost direction's stabilized reduction is kept in
    ``MultiComplexReport.outer``.
    """
    failures: List[SquareFailure] = []
    for i, j in combinations(sorted(B.directions), 2):
        K = B.directions[i].commutator(B.directions[j])
        if any(x.is_certainly_nonzero() for x in chain(K.cvec, *K.pmat.entries)):
            failures.append(SquareFailure((i, j), "commutator has a certified nonzero term"))
    directions, outer = [], None
    for i, edge in B.directions.items():
        d, stab = _direction_acyclicity(i, edge, schedule)
        directions.append(d)
        outer = outer or stab
    return MultiComplexReport(not failures, failures, directions, outer)


def _direction_acyclicity(
    i: int, edge: EdgeOperator, schedule
) -> Tuple[DirectionResult, Optional[OuterStabilization]]:
    """The acyclicity of covariant edge ``i``, read off its own data.

    A vanishing edge fails: its window kernels grow.  Any other edge's field
    ``cvec`` must point along one coordinate direction ``k`` of at most two
    variables: ``c_k`` certainly nonzero, every other coefficient exactly
    zero.  Over one variable, and along the inner variable of two when
    ``c_k`` and ``P`` are free of the outer one (the same in every outer
    fiber, :func:`~higherlocal.tate.strip_outer`), the lattice probes of
    :func:`operator_index` run on ``schedule``.  Along the outer variable
    the fixed outer windows are reduced over the inner field, and that
    stabilization is returned beside the result.  The data that these
    routes reject, a window past the label limit and a window column that
    no precision certifies (:class:`UndeterminedPivot`) leave the direction
    unsupported.  The edge's own ``cvec`` and ``pmat`` are read, so a
    tampered edge is what gets checked.
    """
    cvec, P = edge.cvec, edge.pmat
    if all(c.is_exactly_zero() for c in cvec):
        vanishes = "covariant edge vanishes; window kernels grow"
        return DirectionResult(i, False, vanishes), None
    nonzero = [k for k, c in enumerate(cvec, start=1) if c.is_certainly_nonzero()]
    outer = None
    try:
        if len(nonzero) != 1 or sum(not c.is_exactly_zero() for c in cvec) != 1:
            raise UnsupportedFrame(
                "the vector field does not point along a single coordinate direction"
            )
        if len(cvec) > 2:
            raise UnsupportedFrame("directional profiles are implemented for n <= 2")
        (k,) = nonzero
        c = cvec[k - 1]
        if k == 2:
            outer = stabilize_outer_windows(MatrixDiffOp.first_order(c, P))
            at, trace = outer.stabilized_at, outer.trace
        else:
            if len(cvec) == 2:
                c, P = strip_outer(c), P.map(strip_outer)
            rep = operator_index(MatrixDiffOp.first_order(c, P), schedule)
            at, trace = rep.stabilized_at, rep.trace
    except (UnsupportedFrame, WindowTooLarge, UndeterminedPivot) as exc:
        return DirectionResult(i, False, str(exc), unsupported=True), None
    detail = "window dimensions " + ("kept growing" if at is None else "stabilized")
    return DirectionResult(k, at is not None, detail, trace), outer


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
    its reduction is used and no window is reduced again.  The action on
    ``H^0`` is the kernel coordinates of the ``nabla_1`` images of the
    kernel basis, on ``H^1`` the cokernel coordinates of the images of the
    slot units; the reduction's own maps solve for them
    (:meth:`~higherlocal.tate.OuterReduction.kernel_coordinates`,
    :meth:`~higherlocal.tate.OuterReduction.cokernel_coordinates`).
    """
    op = MatrixDiffOp.from_connection(C, normalizer)
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

    def action(solutions, failure) -> Connection:
        # column j: the coordinates of the image of basis vector j
        if None in solutions:
            raise UnsupportedFrame(failure)
        return Connection(TowerField(1), [SeriesMatrix(solutions).transpose()])

    h0 = h1 = None
    if red.ker_dim:
        images = [read(red.src_labels, C.nabla(1, section(red.src_labels, v))) for v in red.kernel]
        failure = "induced action does not preserve the windowed kernel"
        h0 = action(red.kernel_coordinates(images), failure)
    if red.coker_dim:
        # the unit section at each cokernel slot, modulo the window's image
        one = TowerElement.constant(1, 1)
        units = [section((slot,), (one,)) for slot in red.coker_slots]
        images = [read(red.tgt_labels, C.nabla(1, u)) for u in units]
        failure = "induced action leaves the windowed target span"
        h1 = action(red.cokernel_coordinates(images), failure)
    return h0, h1, outer


# ---------------------------------------------------------------------------
# Cohomology reports
# ---------------------------------------------------------------------------

class CohomologyReport(NamedTuple):
    level: int
    dims: Tuple[int, ...]
    euler: int
    stabilized: bool
    e2: Optional[Dict[Tuple[int, int], int]] = None
    index_report: Optional[IndexReport] = None
    window_dims: Optional[Tuple[int, ...]] = None
    window_agrees: Optional[bool] = None


def cohomology_dims(C: Connection, schedule: Sequence[int] = DEFAULT_SCHEDULE) -> CohomologyReport:
    """Cohomology dimensions, certified in degree one, and in degree zero at rank 1.

    Over one variable the degree-zero dimension is read off the entry at
    rank 1 (:func:`~higherlocal.dmodule.rank_one_h0`); at higher rank it is
    the windowed kernel of the lattice probes (:func:`operator_index`).  The
    degree-one dimension is normalized through the certified irregularity
    (the windowed Euler characteristic equals minus the irregularity); the
    windowed kernel and cokernel are computed alongside and compared.

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
        h0 = rank_one_h0(C) if C.rank == 1 else rep.ker_dim
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
