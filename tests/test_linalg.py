"""Series matrices, valuation-pivoted elimination, window matrices."""

import random
from fractions import Fraction

import pytest

from higherlocal.errors import UndeterminedPivot, WindowOverflow
from higherlocal.linalg import (
    SeriesMatrix,
    inverse,
    rank_kernel_det,
    solve,
    solve_columns,
    window_matrix,
)
from higherlocal.series import TowerElement, TowerField

F1 = TowerField(1)


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
                da = rank_kernel_det(A, want_kernel=False).determinant
                db = rank_kernel_det(B, want_kernel=False).determinant
                dab = rank_kernel_det(A @ B, want_kernel=False).determinant
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


class TestColumnSolver:
    def test_undetermined_only_column_raises(self):
        fuzzy = TowerElement.inexact_zero(1, 3)
        with pytest.raises(UndeterminedPivot):
            solve_columns([[fuzzy]], [fuzzy])

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
            x = solve_columns(columns, b)
            assert x is not None
            for i in range(nrows):
                lhs = sum((columns[j][i] * x[j] for j in range(ncols)), F1.zero())
                assert lhs.agrees_with(b[i])
            # break the dependency on the right-hand side only
            b[-1] = b[-1] + t
            assert solve_columns(columns, b) is None


class TestWindowMatrix:
    def test_euler_operator_diagonal(self):
        t = F1.gen(1)

        def theta(comp, exps):
            e = exps[0]
            return (F1.monomial([e], e),)

        labels = [(0, (e,)) for e in range(-2, 2)]
        W = window_matrix(theta, labels, labels)
        assert W.shape == (4, 4)
        diag = [W.entries[i][i] for i in range(4)]
        assert diag == [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)]
        assert all(
            W.entries[i][j] == 0 for i in range(4) for j in range(4) if i != j
        )

    def test_multiplication_shift(self):
        def mul_t(comp, exps):
            return (F1.monomial([exps[0] + 1]),)

        labels = [(0, (e,)) for e in range(0, 3)]
        W = window_matrix(mul_t, labels, labels)
        # subdiagonal: image of t^e is t^(e+1); the top one leaves the window
        assert W.entries[1][0] == 1
        assert W.entries[2][1] == 1
        assert all(W.entries[0][j] == 0 for j in range(3))
        assert W.rank() == 2

    def test_derivative_image_window(self):
        def ddt(comp, exps):
            e = exps[0]
            if e == 0:
                return (F1.zero(),)
            return (F1.monomial([e - 1], e),)

        labels = [(0, (e,)) for e in range(0, 3)]
        W = window_matrix(ddt, labels, None)
        assert [lab[1][0] for lab in W.row_labels] == [0, 1]
        # entries m at (m-1 <- m)
        assert W.entries[0][1] == 1
        assert W.entries[1][2] == 2

    def test_overflow_on_unknown_image(self):
        fuzz = F1.one().truncate(1)  # 1 + O(t)

        def op(comp, exps):
            return (fuzz,)

        labels = [(0, (0,))]
        with pytest.raises(WindowOverflow):
            window_matrix(op, labels, [(0, (e,)) for e in range(0, 3)])

    def test_kernel_and_cokernel_dims(self):
        def ddt(comp, exps):
            e = exps[0]
            if e == 0:
                return (F1.zero(),)
            return (F1.monomial([e - 1], e),)

        src = [(0, (e,)) for e in range(-3, 3)]
        tgt = [(0, (e,)) for e in range(-4, 2)]
        W = window_matrix(ddt, src, tgt)
        assert W.kernel_dim() == 1  # constants
        assert W.cokernel_dim() == 1  # class of t^-1
