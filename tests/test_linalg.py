"""Series matrices, valuation-pivoted elimination, window matrices."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from higherlocal import linalg, series
from higherlocal.errors import HigherLocalError, InsufficientPrecision, UndeterminedPivot
from higherlocal.linalg import (
    SeriesMatrix,
    echelon_kernel,
    echelon_relations,
    inverse,
    kernel_q,
    rank_kernel_det,
    solve,
    solve_columns,
    sparse_echelon,
)
from higherlocal.series import TowerElement, TowerField
from higherlocal.tate import LatticeProbes, MatrixDiffOp
from helpers import from_scalar, probe_entries, rref_q

F1 = TowerField(1)
F2 = TowerField(2)


def el(*pairs):
    return TowerElement(1, {e: Fraction(c) for e, c in pairs}, None, True)


def mat(rows):
    return SeriesMatrix([[x if isinstance(x, TowerElement) else F1.rational(x) for x in r] for r in rows])


class TestElimination:
    def test_upper_triangular(self):
        t = F1.gen(1)
        M = mat([[1, t], [0, 1]])
        res = rank_kernel_det(M)
        assert res.rank == 2
        assert res.determinant == F1.one()
        assert res.kernel == ()

    def test_rank_one_kernel(self):
        t = F1.gen(1)
        M = mat([[1, t], [t, t * t]])
        res = rank_kernel_det(M)
        assert res.rank == 1
        assert len(res.kernel) == 1
        v = res.kernel[0]
        img = M.apply(v)
        assert all(x.is_exactly_zero() or not x.is_certainly_nonzero() for x in img)
        # kernel spanned by (-t, 1)
        assert v[0].agrees_with(-t)
        assert v[1].agrees_with(F1.one())

    def test_zero_matrix(self):
        M = mat([[0]])
        res = rank_kernel_det(M)
        assert res.rank == 0
        assert res.determinant.is_exactly_zero()

    def test_undetermined_pivot(self):
        fuzzy = TowerElement.inexact_zero(1, 3)
        M = SeriesMatrix([[fuzzy]])
        with pytest.raises(UndeterminedPivot):
            rank_kernel_det(M)

    def test_min_valuation_pivot_keeps_precision(self):
        t = F1.gen(1)
        # column has entries of valuation 2 and 0; the valuation-0 entry
        # must be chosen even though it sits lower in the column
        M = mat([[t * t, 1], [1 + t, t]])
        res = rank_kernel_det(M)
        assert res.rank == 2

    def test_det_multiplicative_random(self):
        rng = random.Random(23)
        for _ in range(40):
            def rnd():
                return TowerElement(
                    1,
                    {
                        e: Fraction(rng.randint(-3, 3))
                        for e in range(-1, 2)
                        if rng.random() < 0.8
                    },
                    None,
                    True,
                )

            A = SeriesMatrix([[rnd() for _ in range(3)] for _ in range(3)])
            B = SeriesMatrix([[rnd() for _ in range(3)] for _ in range(3)])
            try:
                da = rank_kernel_det(A).determinant
                db = rank_kernel_det(B).determinant
                dab = rank_kernel_det(A @ B).determinant
            except UndeterminedPivot:
                continue
            assert dab.agrees_with(da * db)

    def test_solve_and_inverse(self):
        t = F1.gen(1)
        M = mat([[1, t], [t, 1]])
        rhs = (F1.one(), t)
        x = solve(M, rhs)
        img = M.apply(x)
        assert img[0].agrees_with(F1.one())
        assert img[1].agrees_with(t)
        Minv = inverse(M)
        prod = M @ Minv
        assert prod.agrees_with(SeriesMatrix.identity(F1, 2))


class TestDeferredWork:
    """The determinant is built when read, a pivot inverted when needed."""

    def test_determinant_built_when_read(self, monkeypatch):
        calls = []
        build = linalg._determinant
        monkeypatch.setattr(linalg, "_determinant", lambda *a: calls.append(1) or build(*a))
        t = F1.gen(1)
        res = rank_kernel_det(mat([[1 + t, t], [t, 2]]))
        assert res.rank == 2 and len(res.kernel) == 0 and not calls
        assert res.determinant.agrees_with(2 + 2 * t - t * t)
        assert res.determinant is res.determinant and len(calls) == 1
        assert rank_kernel_det(mat([[1, t]])).determinant is None and len(calls) == 1

    def test_kernel_built_when_read(self, monkeypatch):
        calls = []
        back_substitute = linalg.Factorization.back_substitute
        monkeypatch.setattr(
            linalg.Factorization,
            "back_substitute",
            lambda fac, tail: calls.append(1) or back_substitute(fac, tail),
        )
        t = F1.gen(1)
        M = mat([[1, t], [t, t * t]])
        res = rank_kernel_det(M)
        assert res.rank == 1 and res.determinant.is_exactly_zero() and not calls
        assert res.kernel[0][0].agrees_with(-t) and len(calls) == 1
        assert res.kernel is res.kernel and len(calls) == 1

    def test_one_forward_pass_per_precision(self, small_precision):
        M = mat([[1 + F1.gen(1), 2], [3, 4]])
        res = rank_kernel_det(M)
        assert rank_kernel_det(M) is res
        series.set_working_precision(12)
        at_12 = rank_kernel_det(M)
        assert at_12 is not res and at_12.precision == 12 and rank_kernel_det(M) is at_12

    def test_pivots_inverted_when_needed(self, monkeypatch):
        calls = []
        invert = TowerElement.invert
        monkeypatch.setattr(TowerElement, "invert", lambda x, *a: calls.append(x) or invert(x, *a))
        t = F1.gen(1)
        # nothing below either pivot: rank and determinant invert nothing
        M = mat([[1 + t, t], [0, 2 + t]])
        assert rank_kernel_det(M).rank == 2
        assert not calls
        # the back-substitution of a solve inverts each pivot once, for good
        x = solve(M, (F1.one(), t))
        assert len(calls) == 2
        assert inverse(M) @ mat([[1], [t]]) == SeriesMatrix([[v] for v in x])
        assert len(calls) == 2
        # a pivot that clears a row below is inverted in the forward pass
        calls.clear()
        assert rank_kernel_det(mat([[1 + t, t], [t, 1]])).rank == 2
        assert calls == [1 + t]


class TestColumnSolver:
    def test_undetermined_only_column_raises(self):
        fuzzy = TowerElement.inexact_zero(1, 3)
        with pytest.raises(UndeterminedPivot):
            solve_columns([[fuzzy]], [[fuzzy]])

    def rnd(self, rng, exps):
        coeffs = {e: Fraction(rng.randint(-3, 3)) for e in exps}
        return TowerElement(1, coeffs, None, True)

    def test_rectangular_systems(self):
        # series entries where every column gets a pivot; rational entries
        # for the wide rank-deficient case, where exact elimination
        # certifies the dependent row as zero
        rng = random.Random(1807)
        t = F1.gen(1)
        for nrows, ncols, exps in ((3, 2, (-1, 0, 1)), (4, 3, (-1, 0, 1)), (3, 4, (0,))):
            columns = [[self.rnd(rng, exps) for _ in range(nrows)] for _ in range(ncols)]
            # the last row is the sum of the first two
            for col in columns:
                col[-1] = col[0] + col[1]
            x0 = [self.rnd(rng, (-1, 0, 1)) for _ in range(ncols)]
            b = [
                sum((columns[j][i] * x0[j] for j in range(ncols)), F1.zero())
                for i in range(nrows)
            ]
            # break the dependency on the right-hand side only
            broken = b[:-1] + [b[-1] + t]
            x, none, again = solve_columns(columns, [b, broken, b])
            assert x is not None and none is None and again == x
            for i in range(nrows):
                lhs = sum((columns[j][i] * x[j] for j in range(ncols)), F1.zero())
                assert lhs.agrees_with(b[i])


# ---------------------------------------------------------------------------
# The in-place, full-row tower eliminator that the factorization replaced
# ---------------------------------------------------------------------------

def ref_forward(work, ncols):
    n = len(work)
    width = len(work[0])
    zero = TowerElement.zero(work[0][0].level)
    sign = 1
    pivots, elements, inverses = [], [], []
    r = 0
    for c in range(ncols):
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
        piv = work[r][c]
        piv_inv = piv.invert()
        for i2 in range(r + 1, n):
            x = work[i2][c]
            if x.is_exactly_zero():
                continue
            factor = x * piv_inv
            for j in range(c, width):
                work[i2][j] = work[i2][j] - factor * work[r][j]
            work[i2][c] = zero
        pivots.append((r, c))
        elements.append(piv)
        inverses.append(piv_inv)
        r += 1
    return pivots, elements, inverses, sign


def ref_back_substitute(work, pivots, inverses):
    level = work[0][0].level
    for (pr, pc), inv in zip(reversed(pivots), reversed(inverses)):
        work[pr] = [x * inv for x in work[pr]]
        work[pr][pc] = TowerElement.constant(level, 1)
        for i2 in range(pr):
            x = work[i2][pc]
            if x.is_exactly_zero():
                continue
            work[i2] = [a - x * b for a, b in zip(work[i2], work[pr])]
            work[i2][pc] = TowerElement.zero(level)


def ref_rank_kernel_det(M):
    level = M.level
    work = [list(r) for r in M.entries]
    n, m = M.rows, M.cols
    pivots, elements, inverses, sign = ref_forward(work, m)
    rank = len(pivots)
    determinant = None
    if n == m:
        if rank == n:
            det = elements[0]
            for p in elements[1:]:
                det = det * p
            determinant = det if sign == 1 else -det
        else:
            determinant = TowerElement.zero(level)
    ref_back_substitute(work, pivots, inverses)
    pivot_cols = {pc: pr for pr, pc in pivots}
    vecs = []
    for f in range(m):
        if f in pivot_cols:
            continue
        vec = [TowerElement.zero(level)] * m
        vec[f] = TowerElement.constant(level, 1)
        for pc, pr in pivot_cols.items():
            vec[pc] = -work[pr][f]
        vecs.append(tuple(vec))
    return rank, tuple(pivots), tuple(vecs), determinant


def ref_solve_square(M, rhs_rows):
    n = M.rows
    work = [list(r) + list(b) for r, b in zip(M.entries, rhs_rows)]
    pivots, _, inverses, _ = ref_forward(work, n)
    if len(pivots) < n:
        c = min(set(range(n)) - {pc for _, pc in pivots})
        raise UndeterminedPivot(c, f"matrix is singular at column {c}")
    ref_back_substitute(work, pivots, inverses)
    return [row[n:] for row in work]


def ref_solve(M, rhs):
    if M.rows != M.cols:
        raise ValueError("solve needs a square matrix")
    return tuple(row[0] for row in ref_solve_square(M, [[b] for b in rhs]))


def ref_inverse(M):
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    n = M.rows
    one = TowerElement.constant(M.level, 1)
    zero = TowerElement.zero(M.level)
    return SeriesMatrix(
        ref_solve_square(M, [[one if i == j else zero for j in range(n)] for i in range(n)])
    )


def ref_solve_columns(columns, target):
    if not columns:
        return None if any(t.is_certainly_nonzero() for t in target) else []
    ncols = len(columns)
    work = [[col[r] for col in columns] + [t] for r, t in enumerate(target)]
    pivots, _, inverses, _ = ref_forward(work, ncols)
    if any(row[ncols].is_certainly_nonzero() for row in work[len(pivots):]):
        return None
    ref_back_substitute(work, pivots, inverses)
    x = [TowerElement.zero(target[0].level)] * ncols
    for r, c in pivots:
        x[c] = work[r][ncols]
    return x


def eliminated(M):
    """The rank, pivots, kernel and determinant that ``rank_kernel_det`` gives for ``M``."""
    res = rank_kernel_det(M)
    return res.rank, res.pivots, res.kernel, res.determinant


def outcome(fn, *args):
    """The value ``fn`` returns, or the type and arguments of what it raises."""
    try:
        return fn(*args)
    except (HigherLocalError, ValueError) as exc:
        return ("raised", type(exc), exc.args)


@pytest.fixture
def small_precision():
    old = series.set_working_precision(8)
    try:
        yield
    finally:
        series.set_working_precision(old)


def random_entry(rng, field):
    """Exact or inexact, zero in a fifth of the draws; level 2 kept short."""
    if rng.random() < 0.2:
        return field.zero()
    span = (-2, 3) if field.level == 1 else (-1, 2)

    def build(level):
        coeffs = {}
        for e in range(*span):
            if rng.random() < 0.6:
                coeffs[e] = (
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if level == 1 else build(level - 1)
                )
        return TowerElement(level, coeffs, None, True)

    x = build(field.level)
    if rng.random() < 0.3 and x.coeffs:
        x = x.truncate(max(x.coeffs) + rng.randint(-1, 2))
    return x


def random_system(rng, field, rows, cols, kind):
    """A matrix of one ``kind``: general, rank-deficient or undetermined."""
    M = [[random_entry(rng, field) for _ in range(cols)] for _ in range(rows)]
    if kind == "rank-deficient" and rows >= 3:
        # an exact combination of two exact rows, so the deficiency is certified
        M[0] = [x if x.is_fully_exact() else field.one() for x in M[0]]
        M[1] = [x if x.is_fully_exact() else field.gen(1) for x in M[1]]
        c = field.rational(Fraction(rng.randint(1, 3), 2))
        M[2] = [a + c * b for a, b in zip(M[0], M[1])]
    elif kind == "rank-deficient":
        M[-1] = [x * field.rational(2) for x in M[0]] if rows > 1 else [field.zero()] * cols
    elif kind == "undetermined":
        j = rng.randrange(cols)
        for row in M:
            row[j] = TowerElement.inexact_zero(field.level, rng.randint(-1, 2))
        M[rng.randrange(rows)][j] = field.zero()
    return SeriesMatrix(M)


CASES = [
    (F1, shape, kind)
    for shape in ((1, 1), (3, 3), (4, 4), (2, 4), (4, 3))
    for kind in ("general", "rank-deficient", "undetermined")
] + [
    (F2, shape, kind)
    for shape in ((2, 2), (3, 3), (2, 3), (3, 2))
    for kind in ("general", "rank-deficient", "undetermined")
]


class TestEliminationOracle:
    """The factorization against the full-row eliminator, result for result."""

    @pytest.mark.parametrize("field, shape, kind", CASES)
    def test_matches_full_row_eliminator(self, small_precision, field, shape, kind):
        rng = random.Random(f"{field.level} {shape} {kind}")
        rows, cols = shape
        trials = 12 if field.level == 1 else 3
        for _ in range(trials):
            M = random_system(rng, field, rows, cols, kind)
            rhs = tuple(random_entry(rng, field) for _ in range(rows))
            columns = [list(M.column(j)) for j in range(cols)]
            fresh = SeriesMatrix(M.entries)
            assert outcome(eliminated, fresh) == outcome(ref_rank_kernel_det, M)
            assert outcome(solve, SeriesMatrix(M.entries), rhs) == outcome(ref_solve, M, rhs)
            assert outcome(inverse, SeriesMatrix(M.entries)) == outcome(ref_inverse, M)
            # one elimination for both right-hand sides, the second consistent
            # so the back-substitution runs; compared target by target
            x0 = [random_entry(rng, field) for _ in range(cols)]
            targets = [list(rhs), list(M.apply(x0))]
            each = [outcome(ref_solve_columns, columns, b) for b in targets]
            both = outcome(solve_columns, columns, targets)
            # a raise comes from the elimination, which no target changes
            assert (both[0] == "raised" and each == [both, both]) or both == each
            # one matrix through every entry point: the forward pass is reused
            assert outcome(eliminated, M) == outcome(ref_rank_kernel_det, M)
            assert outcome(solve, M, rhs) == outcome(ref_solve, M, rhs)
            assert outcome(inverse, M) == outcome(ref_inverse, M)

    def exact_unit_matrix(self):
        t = F1.gen(1)
        return [[1 + t, t ** -1, 2], [t, 3 - t ** 2, Fraction(1, 2) * t], [1, t, 1 + t ** 3]]

    def test_solve_reuses_the_certified_forward_pass(self, small_precision, monkeypatch):
        calls = []
        forward = linalg._forward
        monkeypatch.setattr(linalg, "_forward", lambda rows: calls.append(1) or forward(rows))
        M = mat(self.exact_unit_matrix())
        rhs = (F1.one(), F1.gen(1) ** -1, F1.zero())
        assert rank_kernel_det(M).rank == 3
        x = solve(M, rhs)
        Minv = inverse(M)
        assert len(calls) == 1
        twin = mat(self.exact_unit_matrix())
        assert twin == M and twin is not M
        assert x == solve(twin, rhs) == ref_solve(M, rhs)
        assert Minv == inverse(twin) == ref_inverse(M)
        assert len(calls) == 2

    def test_new_precision_recomputes_the_forward_pass(self, small_precision, monkeypatch):
        calls = []
        forward = linalg._forward
        monkeypatch.setattr(linalg, "_forward", lambda rows: calls.append(1) or forward(rows))
        M = mat(self.exact_unit_matrix())
        rhs = (F1.one(), F1.zero(), F1.gen(1))
        rank_kernel_det(M)
        at_8 = solve(M, rhs)
        series.set_working_precision(12)
        at_12 = solve(M, rhs)
        assert len(calls) == 2
        assert at_12 != at_8  # the exact pivots invert to more terms
        assert at_12 == solve(mat(self.exact_unit_matrix()), rhs) == ref_solve(M, rhs)
        series.set_working_precision(8)
        assert solve(M, rhs) == at_8
        assert len(calls) == 4


class TestWindowMatrix:
    """Lattice probes of monomial operators, built by ``tate.LatticeProbes``."""

    def test_euler_operator_diagonal(self):
        theta = from_scalar([F1.zero(), F1.gen(1)])
        # delta = 0: M(-2, 2) is theta from [-2, 2) to [-2, 2)
        rows = LatticeProbes(theta).rows(2, 2)
        assert len(rows) == 4
        assert probe_entries(theta, 2, 2) == {((0, e), (0, e)): e for e in (-2, -1, 1)}

    def test_multiplication_shift(self):
        mul_t = MatrixDiffOp(1, {0: SeriesMatrix([[F1.gen(1)]])})
        # delta = 1: M(-2, 2) is t from [-2, 1) to [-1, 2), and the image
        # of t^e is t^(e+1)
        rows = LatticeProbes(mul_t).rows(2, 2)
        assert probe_entries(mul_t, 2, 2) == {((0, e + 1), (0, e)): 1 for e in range(-2, 1)}
        assert len(sparse_echelon(rows)) == 3

    def test_derivative_image_window(self):
        ddt = from_scalar([F1.zero(), F1.one()])
        # delta = -1: M(-3, 3) is d/dt from [-3, 4) to [-4, 3), one row per
        # target exponent; entries m at (m-1 <- m), and no image reaches t^-1
        assert len(LatticeProbes(ddt).rows(3, 3)) == len(range(-4, 3))
        assert probe_entries(ddt, 3, 3) == {((0, m - 1), (0, m)): m for m in range(-3, 4) if m}

    def test_overflow_on_unknown_image(self):
        fuzz = F1.one().truncate(1)  # 1 + O(t)
        op = MatrixDiffOp(1, {0: SeriesMatrix([[fuzz]])})
        # the image of t^-1 is known below t^0
        LatticeProbes(op).rows(1, 0)
        with pytest.raises(InsufficientPrecision):
            LatticeProbes(op).rows(1, 2)

    def test_kernel_and_cokernel_dims(self):
        ddt = from_scalar([F1.zero(), F1.one()])
        # M(-3, 2) is d/dt from [-3, 3) to [-4, 2)
        rows = LatticeProbes(ddt).rows(3, 2)
        rank = len(sparse_echelon(rows))
        assert len(range(-3, 3)) - rank == 1  # constants
        assert len(rows) - rank == 1  # class of t^-1


# -- the rational sparse eliminator, kept as the reference --------------------

def ref_sparse_echelon(rows) -> dict:
    """Elimination over Q with unit pivots: {col: normalized row dict}."""
    pivots: dict = {}
    for raw in rows:
        r = {c: v for c, v in raw.items() if v != 0}
        while r:
            c = min(r)
            if c in pivots:
                f = r.pop(c)
                for cc, v in pivots[c].items():
                    if cc == c:
                        continue
                    nv = r.get(cc, Fraction(0)) - f * v
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
            else:
                inv = Fraction(1) / r[c]
                pivots[c] = {cc: v * inv for cc, v in r.items()}
                break
    return pivots


# small and large numerators of both signs over small, coprime and large
# denominators; zeros are stored entries the eliminators must drop
sparse_values = st.builds(
    Fraction,
    st.integers(-3, 3) | st.integers(-2**70, 2**70),
    st.sampled_from((1, 2, 3, 4, 6, 7, 9, 11, 30, 97, 2**31 - 1, 2**61 - 1, 3**40)),
)


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): tall and wide shapes with zero, empty and dependent rows."""
    ncols = draw(st.integers(1, 9))
    cols = st.integers(0, ncols - 1)
    rows = draw(
        st.lists(st.dictionaries(cols, sparse_values, max_size=ncols), max_size=12)
    )
    # duplicates, multiples and sums of drawn rows lower the rank
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows))
        f = draw(sparse_values)
        new = {c: f * v for c, v in a.items()}
        if draw(st.booleans()):
            for c, v in b.items():
                new[c] = new.get(c, Fraction(0)) + v
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, ncols


class TestSparseEliminationOracle:
    """The fraction-free sparse eliminator against elimination over Q."""

    @settings(deadline=None, max_examples=100)
    @given(sparse_matrices())
    def test_pivot_rows_are_scaled_rational_rows(self, case):
        rows, _ = case
        pivots = sparse_echelon(rows)
        ref = ref_sparse_echelon(rows)
        assert list(pivots) == list(ref)
        for c, row in pivots.items():
            assert all(isinstance(v, int) and v for v in row.values())
            assert math.gcd(*row.values()) == 1
            assert {cc: Fraction(v, row[c]) for cc, v in row.items()} == ref[c]

    def test_integer_and_empty_inputs(self):
        # empty rows, explicit zeros, and Fraction and int rows of one span
        cases = [
            ([], {}),
            ([{}, {0: 0, 1: Fraction(0)}], {}),
            ([{0: 2, 1: 4}, {0: Fraction(1, 3), 1: Fraction(2, 3)}], {0: {0: 1, 1: 2}}),
        ]
        for rows, expected in cases:
            pivots = sparse_echelon(rows)
            assert pivots == expected
            assert all(type(v) is int for row in pivots.values() for v in row.values())
            assert list(pivots) == list(ref_sparse_echelon(rows))


def dense(rows, m):
    """The sparse ``rows`` as dense lists on ``m`` columns."""
    return [[row.get(c, Fraction(0)) for c in range(m)] for row in rows]


def rref_kernel(rows, m):
    """The rref basis of the right kernel of the dense ``rows`` on ``m`` columns:
    one vector per column without a pivot, 1 there and 0 at the other free
    columns, read off ``helpers.rref_q``."""
    _, piv_cols, red = rref_q(rows)
    basis = []
    for f in range(m):
        if f in piv_cols:
            continue
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            vec[pc] = -red[r][f]
        basis.append(vec)
    return basis


class TestEchelonRelations:
    """The label-order pass that keeps its relations, against sparse_echelon and rref."""

    @settings(deadline=None, max_examples=100)
    @given(sparse_matrices(), st.integers(0, 2))
    @example(([{0: Fraction(1)}], 1), 1)  # a tag past the last used column would be column 1
    def test_pivots_kernel_and_relations(self, case, empty):
        rows, ncols = case
        m = ncols + empty  # columns past ncols are in no row
        pivots, relations = echelon_relations(rows, m)
        assert list(pivots) == list(sparse_echelon(rows))
        assert echelon_kernel(pivots, m) == rref_kernel(dense(rows, m), m)
        # the rows dropped are those that add no rank, in order
        ranks = [rref_q(dense(rows[:k], m))[0] for k in range(len(rows) + 1)]
        assert list(relations) == [k for k in range(len(rows)) if ranks[k + 1] == ranks[k]]
        for k, q in relations.items():
            assert q[k] == 1
            assert all(j < k and j not in relations for j in q if j != k)
            for c in range(m):
                assert sum(v * rows[j].get(c, 0) for j, v in q.items()) == 0

    @settings(deadline=None, max_examples=100)
    @given(sparse_matrices(), st.integers(0, 3))
    def test_kernel_q_is_the_rref_kernel(self, case, duplicates):
        rows, ncols = case
        rows = dense(rows + rows[:duplicates], ncols)
        assert kernel_q(rows) == (rref_kernel(rows, ncols) if rows else [])
