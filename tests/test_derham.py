"""Form tuples, cube multicomplexes, cohomology dimensions."""

import copy
import json
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from higherlocal import cli, derham, linalg, series, tate
from higherlocal.connection import Connection, rank1_from_form
from higherlocal.dmodule import connection_irregularity, rank_one_h0
from higherlocal.derham import (
    BinaryMultiComplex,
    DirectionResult,
    EdgeOperator,
    FormTuple,
    build_multicomplex,
    check_multicomplex,
    cohomology_dims,
    induced_inner_connections,
    standard_forms,
)
from higherlocal.errors import NotClosed, NotIndependent, UnsupportedFrame
from higherlocal.linalg import SeriesMatrix
from higherlocal.series import OneForm, TowerElement, TowerField, sum_of_products
from higherlocal.tate import (
    DEFAULT_SCHEDULE,
    OUTER_SCHEDULE,
    MatrixDiffOp,
    operator_index,
    strip_outer,
)
from helpers import reduction_fields, with_zero_direction
from test_acceptance import f1_catalog, f2_catalog, f2_form_tuples

F1 = TowerField(1)
F2 = TowerField(2)
F3 = TowerField(3)


def dlog_forms():
    t1, t2 = F2.gen(1), F2.gen(2)
    return FormTuple(
        (
            OneForm((t1 ** -1, F2.zero())),
            OneForm((F2.zero(), t2 ** -1)),
        )
    )


def exp2_connection():
    t2 = F2.gen(2)
    return rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2))))


class TestFormTuple:
    def test_standard_forms_valid(self):
        nu = standard_forms(F2)
        assert nu.level == 2
        assert nu.is_diagonal()

    def test_undetermined_off_diagonal_entry_is_not_diagonal(self):
        # O(t2^32): zero below t2^32 and unknown from there, so neither
        # certainly nonzero nor exactly zero
        t2 = F2.gen(2)
        entry = TowerElement(2, {}, 32, False)
        assert not entry.is_certainly_nonzero() and not entry.is_exactly_zero()
        nu = FormTuple((OneForm((F2.one(), entry)), OneForm((F2.zero(), F2.one()))))
        assert not nu.is_diagonal()
        exact = FormTuple((OneForm((F2.one(), t2 ** 40)), OneForm((F2.zero(), F2.one()))))
        assert not exact.is_diagonal()

    def test_dual_fields(self):
        t1 = F2.gen(1)
        nu = FormTuple(
            (
                OneForm((t1 ** -1, F2.zero())),
                OneForm((F2.zero(), F2.one())),
            )
        )
        V1 = nu.dual_field(1)
        assert V1[0].agrees_with(t1)
        assert V1[1].is_exactly_zero()

    def test_rejects_non_closed(self):
        t2 = F2.gen(2)
        with pytest.raises(NotClosed):
            FormTuple((OneForm((t2, F2.zero())), OneForm((F2.zero(), F2.one()))))

    def test_rejects_dependent(self):
        t2 = F2.gen(2)
        with pytest.raises(NotIndependent):
            FormTuple(
                (
                    OneForm((F2.one(), F2.zero())),
                    OneForm((t2, F2.zero())),
                )
            )

    def test_full_rank_certifies_independence_without_a_determinant(self, monkeypatch):
        # every pivot is certified nonzero, so the rank alone decides
        calls = []
        build = linalg._determinant
        monkeypatch.setattr(linalg, "_determinant", lambda *a: calls.append(1) or build(*a))
        t1, t2 = F2.gen(1), F2.gen(2)
        nu = FormTuple((OneForm((t1 ** -1, t2)), OneForm((F2.zero(), 1 + t2))))
        assert nu.level == 2 and dlog_forms().level == 2
        with pytest.raises(NotIndependent):
            FormTuple((OneForm((F2.one(), F2.zero())), OneForm((t2, F2.zero()))))
        assert not calls

    def test_frame_inverse_is_built_on_first_read(self, monkeypatch):
        # verify's dual fields are the columns of the inverse; the negated
        # tuple's inverse is the negated inverse, built once for both
        calls = []
        build = derham.inverse
        monkeypatch.setattr(derham, "inverse", lambda *a: calls.append(1) or build(*a))
        t1, t2 = F2.gen(1), F2.gen(2)
        nu = FormTuple((OneForm((t1 ** -1, t2)), OneForm((F2.zero(), 1 + t2))))
        neg = -nu
        assert not calls
        expected = linalg.inverse(nu.frame)
        assert neg.frame_inverse.entries == (-expected).entries and len(calls) == 1
        assert nu.frame_inverse is nu.frame_inverse and len(calls) == 1
        assert nu.frame_inverse.entries == expected.entries
        assert [nu.dual_field(i) for i in (1, 2)] == [expected.column(j) for j in (0, 1)]
        B = BinaryMultiComplex(Connection.trivial(F2, 1), nu)
        assert [B.directions[i].cvec for i in (1, 2)] == [expected.column(j) for j in (0, 1)]

    def test_frame_inverse_keeps_the_precision_of_the_tuple(self):
        t = F1.gen(1)
        old = series.set_working_precision(8)
        try:
            nu = FormTuple((OneForm((1 + t,)),))
            at_8 = linalg.inverse(nu.frame)
            series.set_working_precision(16)
            assert linalg.inverse(nu.frame).entries != at_8.entries
            assert nu.frame_inverse.entries == at_8.entries
            assert (-nu).frame_inverse.entries == (-at_8).entries
        finally:
            series.set_working_precision(old)

    def test_negation_valid(self):
        nu = standard_forms(F2)
        neg = -nu
        assert neg.level == 2

    def test_negation_negates_the_validated_frame(self, monkeypatch):
        t, t1, t2 = F1.gen(1), F2.gen(1), F2.gen(2)
        z, one = F2.zero(), F2.one()
        # 1/(2 t1) + O(t2), an inexact frame entry
        inexact = TowerElement(2, {0: TowerElement(1, {-1: Fraction(1, 2)}, None, True)}, 1, False)
        tuples = f2_form_tuples() + [
            dlog_forms(),
            FormTuple((OneForm((one, one)), OneForm((z, t2 ** -1)))),
            FormTuple((OneForm((inexact, z)), OneForm((z, one)))),
            FormTuple((OneForm((3 * t ** -1 + t,)),)),
        ]
        for nu in tuples:
            built = FormTuple(tuple(-form for form in nu.forms))
            monkeypatch.setattr(derham, "inverse", None)  # negation inverts nothing
            neg = -nu
            monkeypatch.undo()
            assert neg.forms == built.forms
            assert neg.frame.entries == built.frame.entries
            assert neg.frame_inverse.entries == built.frame_inverse.entries


class TestMulticomplex:
    def test_length_two_binary_complex(self):
        # n = 1: one direction, so no pair and no square
        C = Connection.trivial(F1, 1)
        nu = standard_forms(F1)
        B = build_multicomplex(C, nu)
        assert set(B.directions) == {1}
        assert B.directions[1].cvec == nu.dual_field(1)
        rep = check_multicomplex(B)
        assert rep.ok
        assert [d.direction for d in rep.directions] == [1]

    def test_trivial_cube(self):
        C = Connection.trivial(F2, 1)
        B = build_multicomplex(C, standard_forms(F2))
        assert len(B.directions) == 2
        rep = check_multicomplex(B)
        assert rep.squares_ok
        assert rep.acyclic

    def test_coupled_connection_squares(self):
        # d + d(1/(t1 t2)): genuinely two-variable flat connection
        t1, t2 = F2.gen(1), F2.gen(2)
        f = (t1 * t2) ** -1
        omega = OneForm((f.derive(1), f.derive(2)))
        C = rank1_from_form(omega)
        B = build_multicomplex(C, standard_forms(F2))
        rep = check_multicomplex(B)
        assert rep.squares_ok
        statuses = {d.direction: d.status for d in rep.directions}
        # direction 1's data involve t2, so no fiberwise check applies to it
        assert statuses[1] == "unsupported"
        assert statuses[2] == "pass"
        assert rep.acyclicity == "unsupported"

    def test_dlog_frame(self):
        C = exp2_connection()
        B = build_multicomplex(C, dlog_forms())
        rep = check_multicomplex(B)
        assert rep.squares_ok
        assert rep.acyclic

    def test_sabotage_detected(self):
        C = Connection.trivial(F2, 1)
        B = build_multicomplex(C, standard_forms(F2))
        bad = with_zero_direction(B, 2)
        rep = check_multicomplex(bad)
        assert not rep.ok
        blamed = [d.direction for d in rep.directions if not d.ok]
        assert blamed == [2]

    def test_unsupported_direction_status(self):
        # nu1 = dt1 + dt2, nu2 = dt2: the frame field dual to nu2 is
        # d/dt2 - d/dt1, which mixes directions
        nu = FormTuple((OneForm((F2.one(), F2.one())), OneForm((F2.zero(), F2.one()))))
        B = build_multicomplex(Connection.trivial(F2, 1), nu)
        rep = check_multicomplex(B)
        statuses = {d.direction: d.status for d in rep.directions}
        assert statuses == {1: "pass", 2: "unsupported"}
        assert rep.acyclicity == "unsupported" and not rep.acyclic
        # a failed direction outranks an unsupported one
        assert check_multicomplex(with_zero_direction(B, 1)).acyclicity == "fail"

    def test_directions_are_labelled_by_their_edge(self):
        # nu1 = dt2, nu2 = dt1: edge 1 points along t2 and edge 2 along t1,
        # and each result carries its edge, as failed and unsupported ones do
        nu = FormTuple((OneForm((F2.zero(), F2.one())), OneForm((F2.one(), F2.zero()))))
        rep = check_multicomplex(build_multicomplex(Connection.trivial(F2, 1), nu))
        assert [d.direction for d in rep.directions] == [1, 2]
        assert rep.ok and rep.outer is not None

    def test_outer_reduction_handed_along(self, monkeypatch):
        C = exp2_connection()
        nu = dlog_forms()
        rep = check_multicomplex(build_multicomplex(C, nu))
        assert rep.acyclicity == "pass" and rep.outer is not None
        h2 = nu.frame[1, 1]
        fresh = induced_inner_connections(C, normalizer=h2)
        calls = []
        reduce = tate.reduce_outer_window
        monkeypatch.setattr(tate, "reduce_outer_window", lambda *a: calls.append(1) or reduce(*a))
        shared = induced_inner_connections(C, normalizer=h2, outer=rep.outer)
        assert not calls and shared[2] is rep.outer
        assert reduction_fields(shared[2].reduction) == reduction_fields(fresh[2].reduction)
        assert shared[2].stabilized_at == fresh[2].stabilized_at
        assert [c and c.matrices for c in shared[:2]] == [c and c.matrices for c in fresh[:2]]
        # another operator is reduced afresh
        other = induced_inner_connections(C, outer=rep.outer)
        assert len(calls) == 2
        assert other[2].reduction.coker_slots != shared[2].reduction.coker_slots

    def test_three_variables_squares_checked_directions_unsupported(self):
        # the three commutators are checked at any n; the directions only
        # up to n = 2
        B = build_multicomplex(Connection.trivial(F3, 1), standard_forms(F3))
        rep = check_multicomplex(B)
        assert rep.squares_ok
        statuses = {d.direction: d.status for d in rep.directions}
        assert statuses == {i: "unsupported" for i in (1, 2, 3)}
        assert rep.acyclicity == "unsupported" and rep.outer is None

    def test_one_along_per_direction(self, monkeypatch):
        calls = []
        along = Connection.along
        monkeypatch.setattr(Connection, "along", lambda C, V: calls.append(1) or along(C, V))
        for F in (F1, F2, F3):
            calls.clear()
            B = BinaryMultiComplex(Connection.trivial(F, 1), standard_forms(F))
            assert len(calls) == len(B.directions) == F.level

    def test_non_closed_rejected_at_build(self):
        t2 = F2.gen(2)
        C = Connection.trivial(F2, 1)
        with pytest.raises(NotClosed):
            build_multicomplex(
                C,
                FormTuple(
                    (
                        OneForm((t2, F2.zero())),
                        OneForm((F2.zero(), F2.one())),
                    )
                ),
            )


def wedge_sign(M: frozenset, i: int) -> int:
    """The sign of edge ``(M, i)``: nu_i ^ nu_M against the ascending wedge of M | {i}."""
    return -1 if sum(1 for m in M if m < i) % 2 else 1


def faces(n):
    """Every face ``(M, i, j)`` of the n-cube: ``i < j``, neither in ``M``."""
    for size in range(n - 1):
        for M in map(frozenset, combinations(range(1, n + 1), size)):
            rest = [i for i in range(1, n + 1) if i not in M]
            for i, j in combinations(rest, 2):
                yield M, i, j


def oracle_apply(edge, section, sign=1):
    """A direction applied to one section: component i is sum_k pmat[i, k] v_k +
    sum_k c_k d_k(v_i), times ``sign``."""
    derivatives = [(k, c) for k, c in enumerate(edge.cvec, start=1) if not c.is_exactly_zero()]
    out = []
    for row, v in zip(edge.pmat.entries, section):
        pairs = list(zip(row, section)) + [(c, v.derive(k)) for k, c in derivatives]
        x = sum_of_products(edge.pmat.level, pairs)
        out.append(x if sign == 1 else -x)
    return tuple(out)


def oracle_test_sections(field, rank):
    """Monomial sections at exponents 0, 1 and -1 and two small dense ones."""
    n = field.level
    zero = field.zero()
    sections = []
    for exps in ([0] * n, [1] * n, [-1] * n):
        for c in range(rank):
            vec = [zero] * rank
            vec[c] = field.monomial(exps)
            sections.append(tuple(vec))
    rng = random.Random(12345)

    def dense(level):
        # exponents -1, 0, 1 with coefficients at level - 1, drawn in order
        if level == 0:
            return Fraction(rng.randint(-2, 2))
        return TowerElement(level, {e: dense(level - 1) for e in range(-1, 2)}, None, True)

    sections += [tuple(dense(n) for _ in range(rank)) for _ in range(2)]
    return sections


def oracle_square_failures(B):
    """The ``(face, kind)`` pairs whose route sum is certified nonzero on a
    test section, with edge ``(M, i)`` carrying ``s nabla_i`` and ``s 1``
    for ``s = wedge_sign(M, i)``: the squares as they were checked per face
    and route kind, before the cube became its directions."""
    sections = oracle_test_sections(B.field, B.rank)

    def nabla(M, i, sec):
        return oracle_apply(B.directions[i], sec, wedge_sign(M, i))

    def nu(M, i, sec):
        return tuple(x * Fraction(wedge_sign(M, i)) for x in sec)

    edges = {"nabla": nabla, "wedge": nu}
    failures = []
    for M, i, j in faces(B.n):
        for kind in ("nabla-nabla", "wedge-wedge", "nabla-wedge", "wedge-nabla"):
            x, y = (edges[f] for f in kind.split("-"))
            for sec in sections:
                a = y(M | {i}, j, x(M, i, sec))
                b = x(M | {j}, i, y(M, j, sec))
                if any((p + q).is_certainly_nonzero() for p, q in zip(a, b)):
                    failures.append(((tuple(sorted(M)), i, j), kind))
                    break
    return failures


def square_cases():
    """Named multicomplexes for the squares: the two-variable catalog, trivial
    ranks 1-2 at n = 2 and 3, and the mixed-frame, coupled and dlog ones."""
    cases = [
        (f"f2_{c}_nu{k}", build_multicomplex(C, nu))
        for c, C in enumerate(f2_catalog())
        for k, nu in enumerate(f2_form_tuples())
    ]
    for F in (F2, F3):
        for r in (1, 2):
            B = build_multicomplex(Connection.trivial(F, r), standard_forms(F))
            cases.append((f"trivial_n{F.level}_r{r}", B))
    t1, t2 = F2.gen(1), F2.gen(2)
    f = (t1 * t2) ** -1
    mixed = FormTuple((OneForm((F2.one(), F2.one())), OneForm((F2.zero(), F2.one()))))
    cases += [
        ("mixed", build_multicomplex(Connection.trivial(F2, 1), mixed)),
        ("coupled", build_multicomplex(
            rank1_from_form(OneForm((f.derive(1), f.derive(2)))), standard_forms(F2)
        )),
        ("dlog", build_multicomplex(exp2_connection(), dlog_forms())),
    ]
    return cases


SQUARE_CASES = square_cases()


def non_flat_cases():
    """Cubes over curved connections, built past the flatness gate, with the
    pairs of directions whose curvature is nonzero."""
    z2, one, t2 = F2.zero(), F2.one(), F2.gen(2)
    z3, t3_2, t3_3 = F3.zero(), F3.gen(2), F3.gen(3)
    return [
        # d + t2 dt1, as in test_curvature_fails_the_covariant_square, on
        # the dlog frame
        ("t2_dt1_dlog", BinaryMultiComplex(
            Connection(F2, [SeriesMatrix([[t2]]), SeriesMatrix([[z2]])]), dlog_forms()
        ), [(1, 2)]),
        # constant rank 2: the curvature is [A1, A2] = diag(1, -1)
        ("rank2", BinaryMultiComplex(
            Connection(F2, [SeriesMatrix([[z2, one], [z2, z2]]),
                            SeriesMatrix([[z2, z2], [one, z2]])]),
            standard_forms(F2),
        ), [(1, 2)]),
        # d + t2 dt1 + t3 dt2: the pairs (1, 2) and (2, 3) are curved, each
        # on two faces, and (1, 3) is flat
        ("n3", BinaryMultiComplex(
            Connection(F3, [SeriesMatrix([[t3_2]]), SeriesMatrix([[t3_3]]),
                            SeriesMatrix([[z3]])]),
            standard_forms(F3),
        ), [(1, 2), (2, 3)]),
    ]


NON_FLAT_CASES = non_flat_cases()


@st.composite
def exact_edge_pairs(draw):
    """Two exact rank 1-2 edges over two variables: Laurent-polynomial field
    coefficients and matrix entries with exponents in -2..2, each often
    exactly zero, so the fields range from zero through one coordinate
    direction to non-commuting pairs."""
    r = draw(st.integers(1, 2))
    inner = st.dictionaries(st.integers(-2, 2), st.sampled_from((1, -1, 2)), max_size=2)

    def entry():
        coeffs = draw(st.dictionaries(st.integers(-2, 2), inner, max_size=2))
        return TowerElement(
            2, {e: TowerElement(1, c, None, True) for e, c in coeffs.items()}, None, True
        )

    def edge():
        cvec = (entry(), entry())
        return EdgeOperator(cvec, SeriesMatrix([[entry() for _ in range(r)] for _ in range(r)]))

    return edge(), edge()


class TestSquaresAsOperatorIdentities:
    """Each pair of directions is checked as a commutator; the section check
    of every face and route kind, on the signed edges, is the oracle."""

    def test_sign_rule(self):
        # the two routes of every face carry opposite signs, so each route
        # kind with a wedge edge, a direction composed with the identity in
        # either order, sums to zero
        assert wedge_sign(frozenset(), 1) == 1
        for n in range(1, 6):
            seen = 0
            for M, i, j in faces(n):
                through_i = wedge_sign(M, i) * wedge_sign(M | {i}, j)
                through_j = wedge_sign(M, j) * wedge_sign(M | {j}, i)
                assert through_i == -through_j
                seen += 1
            # n (n - 1) / 2 pairs, each on 2^(n - 2) faces
            assert seen == n * (n - 1) * 2 ** n // 8

    @staticmethod
    def matches_the_oracle(B):
        rep = check_multicomplex(B)
        want = oracle_square_failures(B)
        # the oracle's wedge kinds fail nowhere
        assert [kind for _, kind in want if kind != "nabla-nabla"] == []
        failing = {face for face, _ in want}
        pairs = [f.pair for f in rep.square_failures]
        # each pair's verdict is the oracle's covariant verdict on every face
        # of the pair
        for M, i, j in faces(B.n):
            assert ((tuple(sorted(M)), i, j) in failing) == ((i, j) in pairs)
        assert pairs == sorted({(i, j) for _, i, j in failing})
        assert rep.squares_ok == (not want)
        return rep

    @pytest.mark.parametrize("name", [name for name, _ in SQUARE_CASES])
    def test_matches_the_section_oracle(self, name):
        # the flat multicomplex passes, and so does each zero-direction copy
        # (a zero direction commutes with every other), which fails its
        # acyclicity instead
        B = dict(SQUARE_CASES)[name]
        assert self.matches_the_oracle(B).squares_ok
        for i in B.directions:
            rep = self.matches_the_oracle(with_zero_direction(B, i))
            assert rep.squares_ok
            assert rep.directions[i - 1].status == "fail"

    def test_curvature_fails_the_covariant_square(self):
        # d + t2 dt1 is not flat; with rank 1 the products of the matrix parts
        # commute, so only the derivative term d_2(t2) of a composite sees it
        t2 = F2.gen(2)
        C = Connection(F2, [SeriesMatrix([[t2]]), SeriesMatrix([[F2.zero()]])])
        B = BinaryMultiComplex(C, standard_forms(F2))
        got = [f.pair for f in self.matches_the_oracle(B).square_failures]
        assert got == [(1, 2)]
        assert oracle_square_failures(B) == [(((), 1, 2), "nabla-nabla")]

    @pytest.mark.parametrize("name, B, pairs", NON_FLAT_CASES, ids=[c[0] for c in NON_FLAT_CASES])
    def test_non_flat_cubes_fail_their_curved_pairs(self, name, B, pairs):
        assert not B.connection.check_flatness().flat
        assert [f.pair for f in self.matches_the_oracle(B).square_failures] == pairs

    @settings(deadline=None, max_examples=200)
    @given(exact_edge_pairs())
    def test_drawn_edges_match_the_section_oracle(self, edges):
        # exact two-variable edges beyond SQUARE_CASES, in place of the
        # directions of a trivial cube of their rank.  Only the squares are
        # under test: the drawn directions' windows are not reduced
        B = copy.copy(dict(SQUARE_CASES)[f"trivial_n2_r{edges[0].pmat.rows}"])
        B.directions = dict(enumerate(edges, start=1))
        unchecked = lambda i, edge, schedule: (DirectionResult(i, True, "not checked"), None)
        with mock.patch.object(derham, "_direction_acyclicity", unchecked):
            self.matches_the_oracle(B)

    def test_commutator_sees_a_field_that_composing_cut(self):
        # [d_1 + p, t1 d_2] = d_2 - t1 d_2(p) for p = O(t2^0).  Composing the
        # two operators paired p t1 against t1 p in the d_2 coefficient,
        # which cut its window at t2^0, below the exact 1 of d_1(t1)
        t1, p = F2.gen(1), TowerElement(2, {}, 0, False)
        B = copy.copy(dict(SQUARE_CASES)["trivial_n2_r1"])
        B.directions = {
            1: EdgeOperator((F2.one(), F2.zero()), SeriesMatrix([[p]])),
            2: EdgeOperator((F2.zero(), t1), SeriesMatrix([[F2.zero()]])),
        }
        rep = check_multicomplex(B)
        assert [f.pair for f in rep.square_failures] == [(1, 2)]
        assert not rep.squares_ok
        K = B.directions[1].commutator(B.directions[2])
        assert K.cvec == (F2.zero(), F2.one())


def oracle_outer_windows(op, schedule):
    """The outer settle loop as it was written out by hand: (reduction, at, trace)."""
    trace, red = [], None
    for w in schedule:
        red = tate.reduce_outer_window(op, w)
        trace.append((w, red.ker_dim, red.coker_dim))
        if len(trace) >= 2 and trace[-2][1:] == trace[-1][1:] and min(trace[-1][1:]) >= 0:
            return red, w, tuple(trace)
    return red, None, tuple(trace)


def pure_direction(vector_field):
    """The one coordinate direction ``i`` the field points along, or None.

    Only the coefficient of d/dt_i may be nonzero, certainly so, and every
    other one must be exactly zero.
    """
    nonzero = [i for i, a in enumerate(vector_field, start=1) if a.is_certainly_nonzero()]
    if len(nonzero) == 1 and all(
        a.is_exactly_zero() for i, a in enumerate(vector_field, start=1) if i != nonzero[0]
    ):
        return nonzero[0]
    return None


def inner_operator(c, P):
    """c d/dt1 + P for two-variable data free of the outer variable.

    The computation is then the same in every outer fiber, so it runs as a
    one-variable operator.
    """
    return MatrixDiffOp.first_order(strip_outer(c), P.map(strip_outer))


def oracle_direction_acyclicity(n, i, edge, schedule):
    """The per-direction decision tree, written out by hand with its own
    direction test and inner operator; the outer case also returns
    (reduction, at)."""
    if all(c.is_exactly_zero() for c in edge.cvec):
        return DirectionResult(i, False, "vanishes"), None
    pure = pure_direction(edge.cvec)
    if pure is None:
        return DirectionResult(i, False, "mixed", unsupported=True), None
    if n == 1:
        op = MatrixDiffOp.first_order(edge.cvec[0], edge.pmat)
        rep = operator_index(op, DEFAULT_SCHEDULE)
        return DirectionResult(1, rep.stabilized, "", rep.trace), None
    if pure == n:
        op = MatrixDiffOp.first_order(edge.cvec[n - 1], edge.pmat)
        red, at, trace = oracle_outer_windows(op, schedule)
        return DirectionResult(n, at is not None, "", trace), (red, at)
    try:
        op1 = inner_operator(edge.cvec[0], edge.pmat)
    except UnsupportedFrame as exc:
        return DirectionResult(pure, False, str(exc), unsupported=True), None
    rep = operator_index(op1, DEFAULT_SCHEDULE)
    return DirectionResult(pure, rep.stabilized, "", rep.trace), None


def shared_route_cases():
    pieces, extensions = f1_catalog()
    dt1 = standard_forms(F1)
    cases = [build_multicomplex(C, dt1) for C in pieces + extensions]
    cases += [build_multicomplex(C, nu) for C in f2_catalog() for nu in f2_form_tuples()]
    trivial = build_multicomplex(Connection.trivial(F2, 1), standard_forms(F2))
    mixed = build_multicomplex(
        Connection.trivial(F2, 1),
        FormTuple((OneForm((F2.one(), F2.one())), OneForm((F2.zero(), F2.one())))),
    )
    t1, t2 = F2.gen(1), F2.gen(2)
    f = (t1 * t2) ** -1
    cases += [
        with_zero_direction(trivial, 2),
        with_zero_direction(trivial, 1),
        mixed,
        with_zero_direction(mixed, 1),
        build_multicomplex(
            rank1_from_form(OneForm((f.derive(1), f.derive(2)))), standard_forms(F2)
        ),
        build_multicomplex(exp2_connection(), dlog_forms()),
    ]
    return cases


class TestSharedDirectionalRoute:
    """``check_multicomplex`` reads each covariant edge through
    ``_direction_acyclicity``; the hand-written decision tree is the oracle."""

    @staticmethod
    def key(r):
        return (r.direction, r.ok, r.status, r.trace)

    def test_matches_the_hand_written_tree(self):
        seen = set()
        for B in shared_route_cases():
            rep = check_multicomplex(B)
            # one result per direction, with no wedge entries
            assert len(rep.directions) == B.n
            outers = []
            for i, d in enumerate(rep.directions, start=1):
                edge = B.directions[i]
                want, outer = oracle_direction_acyclicity(B.n, i, edge, OUTER_SCHEDULE)
                assert self.key(d) == self.key(want)
                if outer is not None:
                    outers.append(outer)
                seen.add((B.n, d.status, outer is not None))
            # the report keeps the one outer stabilization, if one ran
            if not outers:
                assert rep.outer is None
            else:
                [(red, at)] = outers
                assert reduction_fields(rep.outer.reduction) == reduction_fields(red)
                assert rep.outer.stabilized_at == at
        # every branch of the tree is exercised
        assert seen >= {
            (1, "pass", False), (2, "pass", False), (2, "pass", True),
            (2, "fail", False), (2, "unsupported", False),
        }


class TestCohomology:
    def test_trivial_rank1_level1(self):
        rep = cohomology_dims(Connection.trivial(F1, 1))
        assert rep.dims == (1, 1)
        assert rep.euler == 0
        assert rep.stabilized

    def test_regular_singular_non_integer(self):
        t = F1.gen(1)
        C = rank1_from_form(OneForm((Fraction(1, 2) * t ** -1,)))
        rep = cohomology_dims(C)
        assert rep.dims == (0, 0)

    def test_exponential_euler_matches_irregularity(self):
        t = F1.gen(1)
        for m in (1, 2):
            C = rank1_from_form(OneForm(((t ** -m).derive(1),)))
            rep = cohomology_dims(C)
            # the windowed route must agree with the certified normalization
            assert rep.index_report.index == -connection_irregularity(C)
            assert rep.window_agrees
            assert rep.dims == (0, m)

    def test_trivial_rank1_level2(self):
        rep = cohomology_dims(Connection.trivial(F2, 1))
        assert rep.dims == (1, 2, 1)
        assert rep.e2 == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        assert rep.stabilized

    def test_exponential_in_t2_level2(self):
        rep = cohomology_dims(exp2_connection())
        # outer direction kills everything except one cokernel line carrying
        # a trivial inner connection
        assert rep.dims == (0, 1, 1)
        assert rep.euler == 0

    def test_regular_times_regular(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        C = rank1_from_form(
            OneForm((Fraction(1, 2) * t1 ** -1, Fraction(1, 3) * t2 ** -1))
        )
        rep = cohomology_dims(C)
        assert rep.dims == (0, 0, 0)

    def test_integer_twist_level2(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        C = rank1_from_form(OneForm((t1 ** -1, 2 * t2 ** -1)))
        assert cohomology_dims(C).dims == (1, 2, 1)

    def test_euler_consistency_across_catalog(self):
        # external products and their sums, against the Kunneth dimensions
        t1, t2 = F2.gen(1), F2.gen(2)
        catalog = [
            (Connection.trivial(F2, 1), (1, 2, 1)),
            (rank1_from_form(OneForm((Fraction(1, 2) * t1 ** -1, F2.zero()))), (0, 0, 0)),
            (rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2)))), (0, 1, 1)),
            (rank1_from_form(OneForm(((t1 ** -1).derive(1), F2.zero()))), (0, 1, 1)),
            (
                rank1_from_form(
                    OneForm((Fraction(1, 2) * t1 ** -1, Fraction(1, 3) * t2 ** -1))
                ).direct_sum(Connection.trivial(F2, 1)),
                (1, 2, 1),
            ),
        ]
        for C, dims in catalog:
            rep = cohomology_dims(C)
            assert rep.dims == dims
            assert rep.euler == dims[0] - dims[1] + dims[2]

    def test_coupled_exponentials_level2(self):
        # d + d(f) for f = 1/(t1 t2) and f = 1/(t1 t2) + 1/t2, by hand
        t1, t2 = F2.gen(1), F2.gen(2)
        for f in ((t1 * t2) ** -1, (t1 * t2) ** -1 + t2 ** -1):
            rep = cohomology_dims(rank1_from_form(OneForm((f.derive(1), f.derive(2)))))
            assert rep.dims == (0, 1, 1)
            assert rep.stabilized


def dlog_dims(k):
    """(h0, h1) of d + k dt/t over one variable."""
    return (1, 1) if Fraction(k).denominator == 1 else (0, 0)


EXP_DIMS = (0, 1)  # (h0, h1) of d + d(1/t)


def kunneth(c1, c2):
    """h^n = sum over p + q = n of h^p(C1) h^q(C2), for C1 in t1 and C2 in t2."""
    return tuple(sum(c1[p] * c2[n - p] for p in (0, 1) if n - p in (0, 1)) for n in range(3))


# ROADMAP items 2 and 16: the outer windows settle before they reach t2^-b
# for these b, and the route prints (0, 0, 0)
DEEP = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="outer window depth, ROADMAP items 2 and 16"
)
DEEP_B = [pytest.param(b, marks=DEEP) for b in (-8, -7, -6, 7, 8)]


def log_twist(k, F=F1):
    """d + (k/t1) dt1, with A2 = 0 over two variables."""
    zeros = [SeriesMatrix([[F.zero()]])] * (F.level - 1)
    return Connection(F, [SeriesMatrix([[k * F.gen(1) ** -1]])] + zeros)


class TestRankOneH0:
    """h0 of d + a dt over one variable, read off a: the flat section
    t^(-c) exp(-int (a - c/t)) is Laurent exactly when the t^-1 coefficient
    c is an integer and v(a) >= -1."""

    def test_pinned_readings(self):
        t = F1.gen(1)
        cases = [
            (F1.zero(), 1), (t ** 3, 1), (-30 * t ** -1 + t, 1), (Fraction(5, 2) * t ** -1, 0),
            (t ** -2 + t ** -1, 0), (t ** -40, 0),
        ]
        for a, h0 in cases:
            assert rank_one_h0(Connection(F1, [SeriesMatrix([[a]])])) == h0

    @settings(deadline=None, max_examples=60)
    @given(st.integers(-60, 60))
    def test_integer_residue_gives_one_section(self, k):
        rep = cohomology_dims(log_twist(k))
        assert rep.dims == (1, 1) and rep.euler == 0

    @settings(deadline=None, max_examples=60)
    @given(st.fractions(-60, 60, max_denominator=12).filter(lambda q: q.denominator > 1))
    def test_non_integer_residue_gives_none(self, k):
        assert cohomology_dims(log_twist(k)).dims == (0, 0)

    def test_two_variable_family(self):
        # each induced level is d + (k/t) dt, read through the n = 1 branch
        for k in range(-60, 61):
            assert cohomology_dims(log_twist(k, F2)).dims == (1, 2, 1), k

    def test_windows_stay_the_cross_check(self):
        # the windows settle before reaching the solution t^30: the certified
        # h0 is printed, and the windowed dims disagree beside it
        rep = cohomology_dims(log_twist(-30))
        assert rep.dims == (1, 1) and rep.stabilized
        assert rep.window_dims == (0, 0) and rep.window_agrees is False


class TestKunneth:
    """External products C1 (x) C2 of rank 1, against the Kunneth formula."""

    A = (*range(-8, 9), Fraction(1, 2), Fraction(-1, 3))

    @pytest.mark.parametrize("b", [*range(-5, 7), Fraction(1, 2), Fraction(-2, 3), *DEEP_B])
    def test_times_dlog_in_t2(self, b):
        t1, t2 = F2.gen(1), F2.gen(2)
        for a in self.A:
            C = rank1_from_form(OneForm((a * t1 ** -1, b * t2 ** -1)))
            assert cohomology_dims(C).dims == kunneth(dlog_dims(a), dlog_dims(b)), a
        C = rank1_from_form(OneForm(((t1 ** -1).derive(1), b * t2 ** -1)))
        assert cohomology_dims(C).dims == kunneth(EXP_DIMS, dlog_dims(b))

    def test_times_exponential_in_t2(self):
        t1, t2 = F2.gen(1), F2.gen(2)
        for a in self.A:
            C = rank1_from_form(OneForm((a * t1 ** -1, (t2 ** -1).derive(2))))
            assert cohomology_dims(C).dims == kunneth(dlog_dims(a), EXP_DIMS), a


def run_n2(tmp_path, capsys, A1, A2, command, *flags) -> dict:
    """``cli.main`` on the n = 2 spec of ``A1`` and ``A2`` (lists of rows of
    expression strings); asserts exit 0 and returns the report's keys."""
    spec = tmp_path / "n2.hl"
    spec.write_text(
        f"[field]\nn = 2\n\n[connection]\nrank = {len(A1)}\n"
        f"A1 = {json.dumps(A1)}\nA2 = {json.dumps(A2)}\n\n[task]\ncommand = {command}\n"
    )
    code = cli.main([str(spec), *flags])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return dict(line.split(" = ", 1) for line in captured.out.splitlines())


def outer_pin(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


ZERO2 = [["0", "0"], ["0", "0"]]


class TestOuterRouteTruth:
    """Known-wrong n = 2 answers, pinned against the Kunneth truth.

    Each connection is, up to a gauge, an external product of a piece in t1
    and a piece in t2, so its dims are ``kunneth`` of the pieces' n = 1
    dims, which the n = 1 route prints.  For ``cohomology`` the t1 piece is
    the trivial one, with dims (1, 1).  When the outer route is mended, the
    strict marks make these go.
    """

    @pytest.mark.parametrize("A1, A2, dims_t2", [
        pytest.param(
            ZERO2, [["0", "1/2*t2^-2"], ["0", "-1/t2"]], (1, 1),
            id="nilpotent-pole", marks=outer_pin("prints (2, 4, 2), ROADMAP items 2 and 16"),
        ),
        pytest.param(
            ZERO2, [["0", "1/(2*t2) - t2"], ["t2", "1/(2*t2^2)"]], (1, 2),
            id="coupled", marks=outer_pin("prints (1, 2, 1), ROADMAP items 2 and 16"),
        ),
        # diag(0, t2^-2) sheared by [[1, t2^-3], [0, 1]]
        pytest.param(
            ZERO2, [["0", "-t2^-5 - 3*t2^-4"], ["0", "t2^-2"]], (1, 2),
            id="shear", marks=outer_pin("prints (5, 11, 6), ROADMAP items 2 and 16"),
        ),
        # [[0, 0], [1/t2, 1/t2]] gauged by [[1, t1], [0, 1]]
        pytest.param(
            [["0", "1"], ["0", "0"]], [["-t1/t2", "-(t1^2 + t1)/t2"], ["1/t2", "(t1 + 1)/t2"]],
            (2, 2), id="t1-gauged",
            marks=outer_pin("exits 1 with UndeterminedPivot, ROADMAP item 17"),
        ),
        # free of t1 but truncated: the series outer route (ROADMAP M7)
        pytest.param(
            ZERO2, [["0", "1/(2*t2^2*(1 - t2))"], ["0", "-1/t2"]], (1, 1),
            id="truncated", marks=outer_pin("prints (2, 4, 2), ROADMAP items 2 and 16"),
        ),
    ])
    def test_cohomology(self, tmp_path, capsys, A1, A2, dims_t2):
        lines = run_n2(tmp_path, capsys, A1, A2, "cohomology")
        assert tuple(int(lines[f"h{n}"]) for n in range(3)) == kunneth((1, 1), dims_t2)

    @pytest.mark.parametrize("command", ["cohomology", "epsilon"])
    @outer_pin(
        "exits 1 with UnsupportedFrame: induced action does not preserve the windowed "
        "kernel, ROADMAP item 2"
    )
    def test_induced_action_keeps_the_kernel(self, tmp_path, capsys, command):
        # exact and flat, so nabla_1 commutes with nabla_2 and preserves its
        # kernel: a windowed kernel that nabla_1 leaves holds a vector that is
        # not a solution, and the outer windows settle too shallow.  verify
        # prints check_duality = unsupported on it
        A1 = [["0", "2", "-2", "0"], ["-2", "0", "0", "-2"], ["-2", "0", "0", "-2"],
              ["0", "-2", "2", "0"]]
        A2 = [
            ["t2^-2 - t2", "2", "-2 - t2/2", "t2^-2 + 2 - t2"],
            ["t2/2", "-2", "t2^-2 + 2 - t2", "2 + t2/2"],
            ["0", "0", "t2^-2 - t2", "2"],
            ["0", "0", "t2/2", "-2"],
        ]
        run_n2(tmp_path, capsys, A1, A2, command)

    @outer_pin("check_duality = fail, ROADMAP item 16")
    def test_verify_external_product(self, tmp_path, capsys):
        # P1 (x) P2, P1 and P2 rank-2 pieces of irregularity 1 in t1 and t2:
        # the degree is irr(P1) irr(P2) = 1, and every check passes
        A1 = [
            ["t1", "0", "1 - 2*t1", "0"], ["0", "t1", "0", "1 - 2*t1"],
            ["0", "0", "-3/2*t1^-2", "0"], ["0", "0", "0", "-3/2*t1^-2"],
        ]
        A2 = [
            ["0", "1/2", "0", "0"], ["0", "3/2*t2^-2 - 2", "0", "0"],
            ["0", "0", "0", "1/2"], ["0", "0", "0", "3/2*t2^-2 - 2"],
        ]
        lines = run_n2(tmp_path, capsys, A1, A2, "verify", "--precision", "16")
        assert lines["degree"] == "1"
        assert (lines["check_duality"], lines["result"]) == ("pass", "pass")


def induced_catalog():
    t1, t2 = F2.gen(1), F2.gen(2)
    f = (t1 * t2) ** -1

    def form(a, b):
        return rank1_from_form(OneForm((a, b)))

    half = form(Fraction(1, 2) * t1 ** -1, F2.zero())
    coupled = form(f.derive(1), f.derive(2))
    return {
        "trivial rank 1": Connection.trivial(F2, 1),
        "trivial rank 2": Connection.trivial(F2, 2),
        "dt1/2t1": half,
        "d(1/t2)": exp2_connection(),
        "d(1/t1)": form((t1 ** -1).derive(1), F2.zero()),
        "dt1/2t1 + dt2/3t2": form(Fraction(1, 2) * t1 ** -1, Fraction(1, 3) * t2 ** -1),
        "d(1/(t1 t2))": coupled,
        "dt1/2t1 + d(1/(t1 t2))": half.direct_sum(coupled),
    }


# (h0.dim, h0.matrix, h1.dim, h1.matrix, kernel, coker slots, window,
#  stabilized) per connection and outer normalizer (None or t2^-1): matrix
# entries are rendered in t1, each kernel vector is {(component, outer
# exponent): entry} over its nonzero entries
INDUCED_PINS = {
    ("trivial rank 1", None): (1, (("0",),), 1, (("0",),), ({(0, 0): "1"},), ((0, -1),), 6, 6),
    ("trivial rank 1", -1): (1, (("0",),), 1, (("0",),), ({(0, 0): "1"},), ((0, 0),), 6, 6),
    ("trivial rank 2", None): (
        2, (("0", "0"), ("0", "0")), 2, (("0", "0"), ("0", "0")),
        ({(0, 0): "1"}, {(1, 0): "1"}), ((0, -1), (1, -1)), 6, 6,
    ),
    ("trivial rank 2", -1): (
        2, (("0", "0"), ("0", "0")), 2, (("0", "0"), ("0", "0")),
        ({(0, 0): "1"}, {(1, 0): "1"}), ((0, 0), (1, 0)), 6, 6,
    ),
    ("dt1/2t1", None): (
        1, (("1/2*t1^-1",),), 1, (("1/2*t1^-1",),), ({(0, 0): "1"},), ((0, -1),), 6, 6,
    ),
    ("dt1/2t1", -1): (
        1, (("1/2*t1^-1",),), 1, (("1/2*t1^-1",),), ({(0, 0): "1"},), ((0, 0),), 6, 6,
    ),
    ("d(1/t2)", None): (0, None, 1, (("0",),), (), ((0, 4),), 6, 6),
    ("d(1/t2)", -1): (0, None, 1, (("0",),), (), ((0, 5),), 6, 6),
    ("d(1/t1)", None): (
        1, (("-t1^-2",),), 1, (("-t1^-2",),), ({(0, 0): "1"},), ((0, -1),), 6, 6,
    ),
    ("d(1/t1)", -1): (
        1, (("-t1^-2",),), 1, (("-t1^-2",),), ({(0, 0): "1"},), ((0, 0),), 6, 6,
    ),
    ("dt1/2t1 + dt2/3t2", None): (0, None, 0, None, (), (), 6, 6),
    ("dt1/2t1 + dt2/3t2", -1): (0, None, 0, None, (), (), 6, 6),
    ("d(1/(t1 t2))", None): (0, None, 1, (("-5*t1^-1",),), (), ((0, 4),), 6, 6),
    ("d(1/(t1 t2))", -1): (0, None, 1, (("-5*t1^-1",),), (), ((0, 5),), 6, 6),
    ("dt1/2t1 + d(1/(t1 t2))", None): (
        1, (("1/2*t1^-1",),), 2, (("1/2*t1^-1", "0"), ("0", "-5*t1^-1")),
        ({(0, 0): "1"},), ((0, -1), (1, 4)), 6, 6,
    ),
    ("dt1/2t1 + d(1/(t1 t2))", -1): (
        1, (("1/2*t1^-1",),), 2, (("1/2*t1^-1", "0"), ("0", "-5*t1^-1")),
        ({(0, 0): "1"},), ((0, 0), (1, 5)), 6, 6,
    ),
}


@st.composite
def t1_free_outer_connections(draw):
    """Flat connections over two variables whose outer operator is free of t1.

    The external product of a piece ``M`` over t1 and a piece ``N`` over t2,
    each of rank 1 or 2 with Laurent-polynomial entries and rational
    coefficients, is gauged by a constant unimodular matrix: ``A1 = g (M (x)
    I) g^-1`` and ``A2 = g (I (x) N) g^-1``.  Drawn with a bound in t1 for
    :func:`truncated_a1`.
    """
    rationals = st.fractions(-2, 2, max_denominator=2)

    def piece(rank, outer):
        def entry():
            coeffs = draw(st.dictionaries(st.integers(-2, 1), rationals, max_size=2))
            if outer:
                inner = {m: TowerElement.constant(1, q) for m, q in coeffs.items()}
            else:
                inner = {0: TowerElement(1, coeffs, None, True)}
            return TowerElement(2, inner, None, True)

        return SeriesMatrix([[entry() for _ in range(rank)] for _ in range(rank)])

    a, b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    M, N = piece(a, False), piece(b, True)
    C = Connection(
        F2,
        [M.kron(SeriesMatrix.identity(F2, b)), SeriesMatrix.identity(F2, a).kron(N)],
    )
    r = a * b
    g = g_inv = SeriesMatrix.identity(F2, r)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(r)))[:2] if r > 1 else (0, 0)
        if i == j:
            continue
        k = draw(st.sampled_from((-1, 1, 2)))
        E = [[F2.one() if p == q else F2.zero() for q in range(r)] for p in range(r)]
        E_inv = [list(row) for row in E]
        E[i][j], E_inv[i][j] = F2.rational(k), F2.rational(-k)
        g, g_inv = SeriesMatrix(E) @ g, g_inv @ SeriesMatrix(E_inv)
    return C.gauge(g, g_inv), draw(st.integers(-1, 2))


def truncated_a1(C, hi):
    """``C`` with every inner coefficient of ``A1`` known below ``t1^hi`` only."""

    def truncated(x):
        return TowerElement(2, {e: c.truncate(hi) for e, c in x.coeffs.items()}, None, True)

    return Connection(F2, [C.matrices[0].map(truncated), C.matrices[1]])


def induced_images(C, red):
    """The ``nabla_1`` images the induced action reads: of the kernel basis,
    indexed by the source labels, and of the slot units, by the target labels."""

    def section(labels, values):
        comps = [dict() for _ in range(C.rank)]
        for (c, e), x in zip(labels, values):
            comps[c][e] = x
        return tuple(TowerElement(2, comp, None, True) for comp in comps)

    def read(labels, sec):
        return [sec[c].coefficient(e) for c, e in labels]

    one = TowerElement.constant(1, 1)
    units = [section((slot,), (one,)) for slot in red.coker_slots]
    kernel = [read(red.src_labels, C.nabla(1, section(red.src_labels, v))) for v in red.kernel]
    return kernel, [read(red.tgt_labels, C.nabla(1, u)) for u in units], units, read


def oracle_induced_action(C, outer):
    """The induced actions by elimination over the inner field: one forward
    pass of the reduction's kernel basis solved for the H^0 images, and one
    of the columns of the top window, realized afresh from ``outer.op``,
    beside the slot units for the H^1 images, keeping the units' part.  Per
    level, the coordinate columns, None for dimension 0, or the message of
    a failed solve."""
    red = outer.reduction
    kernel_images, slot_images, units, read = induced_images(C, red)

    def solved(span, images, tail, failure):
        rows = [[col[r] for col in span] for r in range(len(span[0]))]
        solutions = linalg._forward(rows, series.working_precision()).solve(images)
        return failure if None in solutions else [x[-tail:] for x in solutions]

    levels = [None, None]
    if red.ker_dim:
        failure = "induced action does not preserve the windowed kernel"
        levels[0] = solved(red.kernel, kernel_images, red.ker_dim, failure)
    if red.coker_dim:
        w = red.window
        top = tate.realize_window(outer.op, w)
        assert (top.src_labels, top.tgt_labels) == (red.src_labels, red.tgt_labels)
        zero = TowerElement.zero(1)
        span = [[col.get(k, zero) for k in range(len(top.tgt_labels))] for col in top.columns]
        span += [read(red.tgt_labels, u) for u in units]
        levels[1] = solved(span, slot_images, red.coker_dim, "no solution on the slot units")
    return levels


def read_action(C, red):
    """The induced actions read off the reduction, per level: the images'
    entries at the free columns of the kernel basis, and ``psi_s(y)`` per
    slot relation ``psi_s``.  This copies the formula of
    ``OuterReduction``'s coordinate reads, so it pins their windows and
    exactness, not their values; the oracle's ``agrees_with`` checks those."""
    kernel_images, slot_images, _, _ = induced_images(C, red)
    free = [f for f in range(len(red.src_labels)) if f not in red.pivot_columns]
    return (
        [[y[f] for f in free] for y in kernel_images],
        [[sum_of_products(1, [(q, y[j]) for q, j in psi]) for psi in red.relations]
         for y in slot_images],
    )


def assert_action_matches_the_oracle(C, normalizer, outer, exact):
    """``induced_inner_connections`` against :func:`oracle_induced_action`:
    the same failure, or per level coordinates that agree with the oracle's.
    With ``A1`` ``exact`` the entries are the oracle's, in value, exactness
    and bound; otherwise each is :func:`read_action`'s exactly, and
    ``agrees_with`` the oracle's, the one check independent of the code."""
    red = outer.reduction
    levels = oracle_induced_action(C, outer)
    try:
        h0, h1, _ = induced_inner_connections(C, normalizer, outer)
    except UnsupportedFrame as exc:
        assert str(exc) in levels
        return
    for level, want, read in zip((h0, h1), levels, read_action(C, red)):
        assert not isinstance(want, str)
        if want is None:
            assert level is None
            continue
        got = [list(col) for col in level.matrices[0].transpose().entries]
        if exact:
            assert got == want
            continue
        assert got == read
        assert all(a.agrees_with(b) for x, y in zip(got, want) for a, b in zip(x, y))


class TestInducedInnerConnections:
    """The outer reduction and the induced inner action, pinned exactly."""

    def test_induced_action_eliminates_nothing(self, monkeypatch):
        # the outer operator t1^-1 d/dt2 involves t1, so it takes the series
        # route: H^0 and H^1 of it are 2-dimensional, and both actions are
        # read off the reduction's kept passes, with no forward pass and no solve
        calls = []
        forward, solve = linalg._forward, linalg.Factorization.solve

        def counted(call):
            def run(*args, **kwargs):
                monkeypatch.setattr(
                    linalg, "_forward", lambda *a: calls.append("forward") or forward(*a)
                )
                monkeypatch.setattr(
                    linalg.Factorization, "solve", lambda *a: calls.append("solve") or solve(*a)
                )
                try:
                    return call(*args, **kwargs)
                finally:
                    monkeypatch.setattr(linalg, "_forward", forward)
                    monkeypatch.setattr(linalg.Factorization, "solve", solve)

            return run

        C, t1 = Connection.trivial(F2, 2), F2.gen(1)
        outer = tate.stabilize_outer_windows(MatrixDiffOp.from_connection(C, t1))
        assert not tate._outer_probes(outer.op)
        h0, h1, _ = counted(induced_inner_connections)(C, t1, outer)
        assert (h0.rank, h1.rank) == (2, 2) and not calls
        # d/dt2 is free of t1: its windows are eliminated over Q, and nothing
        # is eliminated over the inner field
        induced = counted(derham.induced_inner_connections)
        monkeypatch.setattr(derham, "induced_inner_connections", induced)
        assert cohomology_dims(Connection.trivial(F2, 2)).dims == (2, 4, 2)
        assert not calls

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(t1_free_outer_connections(), st.booleans())
    def test_integer_route_action_equals_the_series_oracle(self, drawn, normalized):
        # the coordinates read off the window's integer elimination against
        # elimination over the inner field, on the same reduction; each draw
        # is checked with A1 exact and with A1 truncated
        exact, hi = drawn
        normalizer = F2.gen(2) ** -1 if normalized else None
        op = MatrixDiffOp.from_connection(exact, normalizer)
        assert tate._outer_probes(op) is not None
        outer = tate.stabilize_outer_windows(op)
        assert_action_matches_the_oracle(exact, normalizer, outer, True)
        assert_action_matches_the_oracle(truncated_a1(exact, hi), normalizer, outer, False)

    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(t1_free_outer_connections())
    def test_series_route_action_agrees_with_the_oracle(self, drawn):
        # normalized by t1, the outer operator takes the series route, whose
        # kernel basis and relations are inner-field series; each draw is
        # checked with A1 exact and with A1 truncated
        exact, hi = drawn
        t1 = F2.gen(1)
        outer = tate.stabilize_outer_windows(MatrixDiffOp.from_connection(exact, t1))
        assert tate._outer_probes(outer.op) is None
        for C in (exact, truncated_a1(exact, hi)):
            assert_action_matches_the_oracle(C, t1, outer, False)

    def test_integer_route_raises_where_the_oracle_does(self):
        # A1 with t2 in it is not flat: the action leaves the windowed kernel
        t2 = F2.gen(2)
        cases = [
            Connection(F2, [SeriesMatrix([[t2]]), SeriesMatrix([[F2.zero()]])]),
            Connection(F2, [SeriesMatrix([[F2.zero(), t2], [t2 ** -1, F2.zero()]]),
                            SeriesMatrix.zeros(F2, 2, 2)]),
        ]
        for C in cases:
            outer = tate.stabilize_outer_windows(MatrixDiffOp.from_connection(C))
            assert "induced action does not preserve the windowed kernel" in (
                oracle_induced_action(C, outer)
            )
            assert_action_matches_the_oracle(C, None, outer, True)
            assert_action_matches_the_oracle(truncated_a1(C, 2), None, outer, False)

    @pytest.mark.parametrize("name, power", sorted(INDUCED_PINS, key=str))
    def test_pinned(self, name, power):
        C = induced_catalog()[name]
        normalizer = None if power is None else F2.gen(2) ** power
        h0, h1, outer = induced_inner_connections(C, normalizer)
        red, stabilized = outer.reduction, outer.stabilized_at

        def dim(level):
            return 0 if level is None else level.rank

        def rendered(level):
            if level is None:
                return None
            M = level.matrices[0]
            return tuple(tuple(x.render(("t1",)) for x in row) for row in M.entries)

        kernel = []
        for vec in red.kernel:
            assert len(vec) == len(red.src_labels)
            kernel.append(
                {
                    red.src_labels[k]: x.render(("t1",))
                    for k, x in enumerate(vec)
                    if not x.is_exactly_zero()
                }
            )
        got = (
            dim(h0), rendered(h0), dim(h1), rendered(h1),
            tuple(kernel), red.coker_slots, red.window, stabilized,
        )
        assert got == INDUCED_PINS[(name, power)]
