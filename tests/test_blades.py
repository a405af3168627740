import random
from fractions import Fraction

import pytest

from qclifford.blades import (
    CL31,
    Multivector,
    Signature,
    SignatureMismatch,
    all_basis_blades,
    blade_matrix,
    dirac_matrices,
)
from qclifford.linalg import Matrix, anticommutator, matmul


@pytest.fixture(scope="module")
def generators():
    return [Multivector.generator(i, CL31) for i in range(4)]


class TestCliffordProduct:
    def test_plus_generator_square_cancels(self, generators):
        e = generators
        assert e[1] * e[2] * e[2] == e[1]

    def test_timelike_generator_squares_to_minus_one(self, generators):
        e = generators
        assert e[0] * e[0] == Multivector.scalar(-1, CL31)

    def test_bivector_of_plus_generators_squares_to_minus_one(self, generators):
        e = generators
        b = e[1] * e[2]
        assert b * b == Multivector.scalar(-1, CL31)

    def test_signature_mismatch_rejected(self, generators):
        other = Multivector.generator(0, Signature((1, 1)))
        with pytest.raises(SignatureMismatch):
            generators[0] * other

    def test_associativity_on_300_random_triples(self):
        rng = random.Random(9)
        basis = all_basis_blades(CL31)

        def rand_mv():
            mv = Multivector.zero(CL31)
            for _ in range(rng.randint(1, 3)):
                b = basis[rng.randrange(len(basis))]
                mv = mv + Multivector.blade(b, CL31, Fraction(rng.randint(-3, 3)))
            return mv

        for _ in range(300):
            a, b, c = rand_mv(), rand_mv(), rand_mv()
            assert (a * b) * c == a * (b * c)

    def test_generator_anticommutation_matches_metric(self, generators):
        e = generators
        signs = (-1, 1, 1, 1)
        for mu in range(4):
            for nu in range(4):
                ac = e[mu] * e[nu] + e[nu] * e[mu]
                expect = Multivector.scalar(2 * signs[mu] if mu == nu else 0, CL31)
                assert ac == expect


class TestGradeSplit:
    def test_bivector_has_no_scalar_part(self, generators):
        e = generators
        assert (e[1] * e[2]).scalar_part().is_zero()


class TestDiracRepresentation:
    def test_anticommutation_relations_exact(self):
        gam = dirac_matrices()
        signs = (-1, 1, 1, 1)
        for mu in range(4):
            for nu in range(mu, 4):
                ac = anticommutator(gam[mu], gam[nu])
                if mu == nu:
                    assert ac == Matrix.identity(4).scale(2 * signs[mu]), mu
                else:
                    assert ac.is_zero(), (mu, nu)

    def test_timelike_square_is_minus_identity(self):
        gam = dirac_matrices()
        assert matmul(gam[0], gam[0]) == Matrix.identity(4).scale(-1)
        assert matmul(gam[3], gam[3]) == Matrix.identity(4)

    def test_blade_map_is_multiplicative_on_all_16_blades(self):
        gam = dirac_matrices()
        basis = all_basis_blades(CL31)
        assert len(basis) == 16
        for b1 in basis:
            for b2 in basis:
                mv = Multivector.blade(b1, CL31) * Multivector.blade(b2, CL31)
                expect = Matrix.zeros(4, 4)
                for bl, c in mv.terms.items():
                    expect = expect + blade_matrix(bl, gam).scale(c)
                got = matmul(blade_matrix(b1, gam), blade_matrix(b2, gam))
                assert got == expect, (b1, b2)
