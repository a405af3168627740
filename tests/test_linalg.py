import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_light_scalar
from qclifford.linalg import (
    Matrix,
    ShapeMismatch,
    anticommutator,
    kron,
    matmul,
    pauli_matrices,
    solve_exact,
)
from qclifford.scalars import GaussRational, NotInvertible, RadicalScalar, qvar


def random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [random_light_scalar(rng) for _ in range(rows * cols)])


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
        ok, sol = solve_exact(m, [RadicalScalar.one(), RadicalScalar.zero()])
        assert ok
        got = [
            sol[0] * m[0, 0] + sol[1] * m[0, 1],
            sol[0] * m[1, 0] + sol[1] * m[1, 1],
        ]
        assert got[0].is_one() and got[1].is_zero()

    def test_solve_flags_inconsistent_system(self):
        m = Matrix.from_rows([[1, 1], [1, 1]])
        ok, sol = solve_exact(m, [RadicalScalar.one(), RadicalScalar.zero()])
        assert not ok and sol is None

    def test_underdetermined_system_gets_particular_solution(self):
        m = Matrix.from_rows([[1, 1]])
        ok, sol = solve_exact(m, [RadicalScalar.constant(5)])
        assert ok
        assert (sol[0] + sol[1]) == RadicalScalar.constant(5)


def test_numeric_evaluation_matches_numpy_composition():
    rng = random.Random(7)
    a = random_matrix(rng, 3, 3)
    b = random_matrix(rng, 3, 3)
    for qv in (0.6, 1.4):
        left = np.asarray(matmul(a, b).evaluate(qv))
        right = np.asarray(a.evaluate(qv)) @ np.asarray(b.evaluate(qv))
        assert np.max(np.abs(left - right)) < 1e-10
