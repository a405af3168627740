import math
import random
from fractions import Fraction

import pytest

from conftest import random_light_scalar
from qclifford import linalg
from qclifford.linalg import (
    Matrix,
    ShapeMismatch,
    Sized,
    anticommutator,
    kron,
    matmul,
    max_abs_at_points,
    pauli_matrices,
    solve_exact,
)
from qclifford.presentations import su2_action_report
from qclifford.qgamma import ALL_CONVENTIONS
from qclifford.scalars import ZERO, GaussRational, NotInvertible, PointSet, RadicalScalar, qinv, qvar, sqrt
from qclifford.suites import _seeded_irreps


# 1e-10 below q0 = 1.46557..., the real root of q^3 - q^2 - 1: there
# e = 1/q + q - q^2 is about 2.4e-10 while its terms add up to about 4.6
NEAR_ROOT = 1.4655712317767
EPS = 2.0**-52


class TestSized:
    """The size of a float's evaluation bounds its rounding error through
    sums, products, quotients and roots that cancel, whether the float is a
    ``Sized`` value or a scalar evaluated over a point set."""

    EXACT_E = 1 / Fraction(NEAR_ROOT) + Fraction(NEAR_ROOT) - Fraction(NEAR_ROOT) ** 2

    def cases(self, e, inverse, root):
        return ((e, self.EXACT_E), (inverse, 1 / self.EXACT_E), (root, math.sqrt(self.EXACT_E)))

    def test_sized_values(self):
        q = Sized(NEAR_ROOT)
        e = 1.0 / q + q - q**2
        assert abs(e.v) < 1e-9 < e.s
        for got, want in self.cases(e, 1.0 / e, e.sqrt()):
            assert abs(got.v - want) <= 4 * EPS * got.s

    def test_evaluated_scalars(self):
        q = qvar()
        e = qinv() + q - q**2
        points = PointSet([NEAR_ROOT])
        for scalar, want in self.cases(e, e.inverse(), sqrt(e)):
            [[[got]]] = Matrix.from_rows([[scalar]]).evaluate(points, sized=True)
            assert abs(got.v - want) <= 4 * EPS * got.s
            if scalar is e:
                assert got.s == pytest.approx(1 / NEAR_ROOT + NEAR_ROOT + NEAR_ROOT**2, rel=1e-15)


def random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [random_light_scalar(rng) for _ in range(rows * cols)])


def sparse_matrix(rng, rows, cols):
    """About half the entries ZERO, the rest small random scalars."""
    return Matrix(rows, cols, [random_light_scalar(rng) if rng.random() < 0.5 else ZERO for _ in range(rows * cols)])


class TestMatmul:
    def test_pauli_product(self):
        s1, s2, s3 = pauli_matrices()
        i = RadicalScalar.constant(GaussRational(0, 1))
        assert matmul(s1, s2) == s3.scale(i)

    def test_identity_is_neutral(self):
        rng = random.Random(3)
        m = random_matrix(rng, 4, 4)
        assert matmul(Matrix.identity(4), m) == m
        assert matmul(m, Matrix.identity(4)) == m

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            matmul(Matrix.identity(2), Matrix.identity(3))

    def test_zero_skipping_kernels_equal_the_dense_formulas(self):
        # the kernels pass zero entries through; the dense formulas visit
        # every entry and every k
        rng = random.Random(5)
        for _ in range(100):
            a, c = sparse_matrix(rng, 3, 4), sparse_matrix(rng, 3, 4)
            b = sparse_matrix(rng, 4, 2)
            s = rng.choice([ZERO, RadicalScalar.one(), random_light_scalar(rng)])
            dot = [sum((a[i, k] * b[k, j] for k in range(4)), ZERO) for i in range(3) for j in range(2)]
            assert matmul(a, b).data == tuple(dot)
            assert (a + c).data == tuple(x + y for x, y in zip(a.data, c.data))
            assert (a - c).data == tuple(x - y for x, y in zip(a.data, c.data))
            assert a.scale(s).data == tuple(s * x for x in a.data)

    def test_map_calls_its_function_once_per_distinct_entry(self):
        q = qvar()
        m = Matrix(2, 3, [q, ZERO, q, qinv(), ZERO, q])
        calls = []
        image = m.map(lambda s: calls.append(s) or s.at(2))
        assert calls == [q, ZERO, qinv()]
        assert image.data == tuple(s.at(2) for s in m.data)

    def test_associativity_on_200_random_triples(self):
        rng = random.Random(4)
        for _ in range(200):
            a = random_matrix(rng, 2, 3)
            b = random_matrix(rng, 3, 2)
            c = random_matrix(rng, 2, 2)
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


class TestBrackets:
    def test_pauli_anticommutators(self):
        s1, s2, _ = pauli_matrices()
        assert anticommutator(s1, s2).is_zero()
        assert anticommutator(s1, s1) == Matrix.identity(2).scale(2)

    def test_diagonal_matrices_commute(self):
        d1 = Matrix.from_rows([[2, 0], [0, 3]])
        d2 = Matrix.from_rows([[5, 0], [0, Fraction(1, 7)]])
        assert matmul(d1, d2) == matmul(d2, d1)

    def test_anticommutator_is_symmetric(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_matrix(rng, 2, 2)
            b = random_matrix(rng, 2, 2)
            assert anticommutator(a, b) == anticommutator(b, a)

    def test_bracket_requires_square(self):
        with pytest.raises(ShapeMismatch):
            anticommutator(Matrix.zeros(2, 3), Matrix.zeros(3, 2))


class TestKron:
    def test_identity_blocks(self):
        assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)

    def test_involution_tensor_square_is_diagonal(self):
        g3 = Matrix.from_rows([[1, 0], [0, -1]])
        expect = Matrix.from_rows(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        assert kron(g3, g3) == expect

    def test_unit_matrix_block_position(self):
        e11 = Matrix.from_rows([[1, 0], [0, 0]])
        e22 = Matrix.from_rows([[0, 0], [0, 1]])
        k = kron(e11, e22)
        assert k[1, 1].is_one()
        assert sum(1 for x in k.data if not x.is_zero()) == 1

    def test_mixed_product_on_100_random_quadruples(self):
        rng = random.Random(6)
        for _ in range(100):
            a = random_matrix(rng, 2, 2)
            b = random_matrix(rng, 2, 2)
            c = random_matrix(rng, 2, 2)
            d = random_matrix(rng, 2, 2)
            assert matmul(kron(a, b), kron(c, d)) == kron(matmul(a, c), matmul(b, d))


class TestExactSolving:
    def test_inverse_round_trip(self):
        q = qvar()
        m = Matrix.from_rows([[q, 1], [1, 0]])
        assert matmul(m, m.inverse()) == Matrix.identity(2)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotInvertible):
            Matrix.from_rows([[1, 1], [1, 1]]).inverse()

    def test_solve_consistent_system(self):
        q = qvar()
        m = Matrix.from_rows([[q, 1], [1, 0]])
        [(ok, sol)] = solve_exact(m, [[RadicalScalar.one(), RadicalScalar.zero()]])
        assert ok
        got = [
            sol[0] * m[0, 0] + sol[1] * m[0, 1],
            sol[0] * m[1, 0] + sol[1] * m[1, 1],
        ]
        assert got[0].is_one() and got[1].is_zero()

    def test_solve_flags_inconsistent_system(self):
        m = Matrix.from_rows([[1, 1], [1, 1]])
        [(ok, sol)] = solve_exact(m, [[RadicalScalar.one(), RadicalScalar.zero()]])
        assert not ok and sol is None

    def test_underdetermined_system_gets_particular_solution(self):
        m = Matrix.from_rows([[1, 1]])
        [(ok, sol)] = solve_exact(m, [[RadicalScalar.constant(5)]])
        assert ok
        assert (sol[0] + sol[1]) == RadicalScalar.constant(5)

    # one matrix cannot have both a unique solution and a free unknown, so
    # each case runs on a tall matrix of full column rank and on a square
    # one of rank 2, whose third unknown is free
    @pytest.mark.parametrize("free_unknown", [False, True])
    def test_one_elimination_solves_every_right_hand_side(self, monkeypatch, free_unknown):
        q = qvar()
        rows = [[q, 1], [1, 0], [q + 1, 1]]
        if free_unknown:
            rows = [r + [c] for r, c in zip(rows, (0, 1, 1))]
        m = Matrix.from_rows(rows)
        zero, one = RadicalScalar.zero(), RadicalScalar.one()
        # consistent, inconsistent (row 3 is the sum of rows 1 and 2), consistent
        rhs = [[one, zero, one], [one, one, one], [q, zero, q]]
        alone = [solve_exact(m, [b]) for b in rhs]
        calls = []
        row_reduce = linalg._row_reduce
        monkeypatch.setattr(linalg, "_row_reduce", lambda aug, n: calls.append(n) or row_reduce(aug, n))
        together = solve_exact(m, rhs)
        assert len(calls) == 1
        assert together == [r for [r] in alone]
        assert [ok for ok, _ in together] == [True, False, True]
        for (ok, sol), b in zip(together, rhs):
            if ok:
                assert [sum((m[i, j] * sol[j] for j in range(m.cols)), zero) for i in range(3)] == b
                if free_unknown:
                    assert sol[2].is_zero()


def test_numeric_evaluation_matches_numpy_composition(np):
    rng = random.Random(7)
    a = random_matrix(rng, 3, 3)
    b = random_matrix(rng, 3, 3)
    points = PointSet([0.6, 1.4])
    for left, ra, rb in zip(matmul(a, b).evaluate(points), a.evaluate(points), b.evaluate(points)):
        assert np.max(np.abs(np.asarray(left) - np.asarray(ra) @ np.asarray(rb))) < 1e-10


def _point_major_maxima(m: Matrix, points):
    """Reference: evaluate every entry at every point, row by row."""
    maxima, flagged = [], False
    for x in points:
        values = []
        for s in m.data:
            val, flag = s.eval_with_flags(x)
            values.append(val)
            flagged = flagged or flag
        maxima.append(max(abs(v) for v in values))
    return maxima, flagged


class TestMaxAbsAtPoints:
    # 32 points in [0.5, 2] plus points where 1 - q is negative real
    POINTS = [0.5 + 1.5 * k / 31 for k in range(32)]

    def _assert_matches_point_major(self, m, points):
        maxima, flagged = max_abs_at_points(m.data, PointSet(points))
        ref_maxima, ref_flagged = _point_major_maxima(m, points)
        assert maxima == ref_maxima
        assert max([0.0, *maxima]) == max([0.0, *ref_maxima])
        assert flagged == ref_flagged
        return flagged

    def test_repeated_entries_and_zeros(self):
        q = qvar()
        a = q + q**-1
        b = sqrt(q * a) - q**2
        z = RadicalScalar.zero()
        m = Matrix.from_rows([[z, a, b, a], [b, z, z, a], [a, a, b, z], [z, z, z, b]])
        assert not self._assert_matches_point_major(m, self.POINTS)
        assert max_abs_at_points(m.data, PointSet(self.POINTS))[0] != [0.0] * len(self.POINTS)
        zero = Matrix.zeros(2, 2)
        assert max_abs_at_points(zero.data, PointSet(self.POINTS)) == ([0.0] * len(self.POINTS), False)

    def test_chq2_su2_action_residual(self):
        _, irrep, _ = _seeded_irreps(7, 1)[0]
        residuals = [
            m
            for conv in ALL_CONVENTIONS
            for level in (0, 1)
            for m in su2_action_report(irrep, level, conv).residuals.values()
            if not m.is_zero()
        ]
        assert residuals
        for m in residuals:
            self._assert_matches_point_major(m, self.POINTS)

    def test_branch_cut_flag(self):
        # 1 - q is a negative real radicand for every q > 1
        r = sqrt(RadicalScalar.one() - qvar())
        m = Matrix.from_rows([[r, 0], [qvar(), r]])
        assert self._assert_matches_point_major(m, self.POINTS)
        assert not self._assert_matches_point_major(m, [0.5, 0.75])
