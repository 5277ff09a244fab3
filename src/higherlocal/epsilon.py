"""Graded epsilon lines: integer degrees and diagram checks.

The degree attached to a connection and a frame tuple is computed along two
routes.  The certified route converts the connection to a scalar operator
through a cyclic vector and reads the degree off the Newton polygon; it is
an exact invariant of the connection, blind to the presentation.  The
windowed route realizes the frame-normalized covariant derivative on finite
windows and takes the stabilized kernel/cokernel difference; it is the
finite-dimensional realization of the comparison between the covariant and
wedge differentials of the length-2 binary complex, and it is reported next
to the certified value with an agreement flag.  On the catalog the two
routes agree; the certified value is the one returned.

Degrees over two variables are iterated: the outer direction is reduced to
its windowed kernel and cokernel with their induced inner connections, each
of which is read by the one-variable route, and the degree is the
alternating sum of the inner degrees.  The determinant component of the
line is not computed: only the degree is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .connection import Connection, KummerCover, induct, kummer_pullback
from .derham import FormTuple, induced_inner_connections
from .dmodule import connection_irregularity
from .errors import UnsupportedFrame
from .series import OneForm, TowerElement, TowerField
from .tate import (
    DEFAULT_SCHEDULE,
    IndexReport,
    MatrixDiffOp,
    OuterStabilization,
    operator_index,
    strip_outer,
)


@dataclass(frozen=True)
class SignConvention:
    """Global sign for the duality comparison; one value per verification run."""

    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass
class EpsilonReport:
    degree: int
    window_reports: Tuple[IndexReport, ...]
    window_degree: Optional[int]
    routes_agree: Optional[bool]
    level_degrees: Tuple[int, ...] = ()  # per outer-cohomology level for n = 2


def _exact_presentation(C: Connection) -> bool:
    return all(
        x.is_fully_exact() for M in C.matrices for row in M.entries for x in row
    )


def _degree_levels(
    C: Connection, nu: FormTuple, outer: Optional[OuterStabilization] = None
) -> Tuple[TowerElement, Tuple[Optional[Connection], ...]]:
    """The inner normalizer ``h`` and the one-variable levels of the degree.

    Over one variable the level is ``C`` itself.  Over two the frame must be
    diagonal, with an outer component free of ``t1``, and the levels are the
    induced inner connections on the outer ``H^0`` and ``H^1`` (None when
    empty); ``outer`` goes to :func:`induced_inner_connections`.  The degree
    is the alternating sum of the levels' degrees for ``h dt``.
    """
    n = C.field.level
    if n == 1:
        return nu.frame[0, 0], (C,)
    if n != 2:
        raise UnsupportedFrame("degrees are implemented for n <= 2")
    if not nu.is_diagonal():
        raise UnsupportedFrame("two-variable degrees need a diagonal frame tuple")
    h2 = nu.frame[1, 1]
    if any(set(c.coeffs) - {0} for c in h2.coeffs.values()):
        # the outer normalizer must commute with the inner derivative for
        # the iterated reduction to be well-formed
        raise UnsupportedFrame("the outer frame component must not involve t1")
    h = strip_outer(nu.frame[0, 0])
    return h, induced_inner_connections(C, normalizer=h2, outer=outer)[:2]


def _level_degree(C1: Optional[Connection]) -> int:
    """The certified degree of one level: minus its irregularity, 0 when empty."""
    return 0 if C1 is None else -connection_irregularity(C1)


def _alternating(values) -> int:
    """The alternating sum over the levels, outer ``H^0`` first."""
    return sum(s * v for s, v in zip((1, -1), values))


def _certified_degree(
    C: Connection, nu: FormTuple, outer: Optional[OuterStabilization] = None
) -> int:
    """The certified degree over the levels of :func:`_degree_levels`, with no window."""
    return _alternating(_level_degree(L) for L in _degree_levels(C, nu, outer)[1])


def epsilon_degree(
    C: Connection,
    nu: FormTuple,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
) -> EpsilonReport:
    """Degree of the graded line comparing the covariant and wedge routes.

    The certified value comes from the cyclic-vector/Newton route and is a
    presentation-independent invariant.  The windowed realization is run
    alongside when the presentation is exact (a Laurent-polynomial matrix);
    window values of truncated presentations are dominated by their
    truncation hulls and are skipped rather than reported as if meaningful.
    Both routes read the levels of :func:`_degree_levels`: ``C`` itself over
    one variable, the induced inner connections on the outer ``H^0`` and
    ``H^1`` over two, where the degree is their alternating sum.  The
    certified value does not depend on which cyclic vector is found, so no
    seed is taken.
    """
    h, levels = _degree_levels(C, nu)
    degrees, window_reports, windows = [], [], []
    for C1 in levels:
        degrees.append(_level_degree(C1))
        if C1 is None:  # an empty level: degree 0 on both routes
            windows.append(0)
            continue
        rep = None
        if _exact_presentation(C1) and h.is_fully_exact():
            op = MatrixDiffOp.from_connection(C1, normalizer=h)
            rep = operator_index(op, schedule)
            window_reports.append(rep)
        windows.append(rep.index if rep is not None and rep.stabilized else None)
    degree = _alternating(degrees)
    window_degree = None if None in windows else _alternating(windows)
    return EpsilonReport(
        degree,
        tuple(window_reports),
        window_degree,
        None if window_degree is None else window_degree == degree,
        tuple(degrees) if len(levels) == 2 else (),
    )


# ---------------------------------------------------------------------------
# Diagram checks
# ---------------------------------------------------------------------------

def pullback_form_tuple(nu: FormTuple, cover: KummerCover) -> FormTuple:
    """Rewrite a base frame tuple on the cover via t = s^e.

    Components against dt_i for i < n pull back coefficient-wise; the
    outermost component picks up the Jacobian e s^(e-1).
    """
    e = cover.e
    n = nu.level
    field = TowerField(n)
    jac = TowerElement.monomial(n, [0] * (n - 1) + [e - 1], e)
    forms = []
    for form in nu.forms:
        comps = []
        for j, c in enumerate(form.components, start=1):
            cc = kummer_pullback(c, e)
            if j == n:
                cc = cc * jac
            comps.append(cc)
        forms.append(OneForm(comps))
    return FormTuple(forms)


def verify_induction(
    C_up: Connection, cover: KummerCover, nu: FormTuple
) -> Tuple[bool, int, int]:
    """Compare the degree upstairs (pulled-back frame) with the induced degree.

    Both are certified degrees (:func:`_certified_degree`); no windowed
    route is run.
    """
    up = _certified_degree(C_up, pullback_form_tuple(nu, cover))
    down = _certified_degree(induct(C_up, cover), nu)
    return up == down, up, down


def verify_duality(
    C: Connection,
    nu: FormTuple,
    sigma: SignConvention = SignConvention(1),
    outer: Optional[OuterStabilization] = None,
) -> Tuple[bool, int, int]:
    """Check degree(dual, -nu) = sigma * degree(C, nu).

    Both sides are certified degrees (:func:`_certified_degree`), without
    the windowed route, whose reports the comparison would discard.
    ``outer`` goes to the levels of ``(C, nu)``: ``verify`` hands along the
    outer reduction that :func:`~higherlocal.derham.check_multicomplex` made
    for the outermost covariant edge of ``(C, nu)``, which for a diagonal
    frame is the operator that degree reduces, so its windows are reduced
    once.  The dual's operator differs and is reduced on its own.
    """
    lhs = _certified_degree(C.dual(), -nu)
    rhs = sigma.sign * _certified_degree(C, nu, outer)
    return lhs == rhs, lhs, rhs


def consistent_signs(instances) -> Tuple[int, ...]:
    """All global signs validating the duality comparison on every instance."""
    out = []
    for sign in (1, -1):
        sigma = SignConvention(sign)
        if all(verify_duality(C, nu, sigma)[0] for C, nu in instances):
            out.append(sign)
    return tuple(out)
