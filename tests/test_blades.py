import random
from fractions import Fraction
from functools import reduce

import pytest

from qclifford.blades import (
    CL31,
    all_basis_blades,
    blade_matrix,
    dirac_matrices,
)
from qclifford.linalg import Matrix, anticommutator, matmul
from qclifford.rewrite import NCPolynomial, local_confluence_check


@pytest.fixture(scope="module")
def generators():
    return [NCPolynomial.gen(i) for i in range(4)]


def mul(*factors):
    return reduce(CL31.multiply, factors)


class TestCliffordProduct:
    def test_plus_generator_square_cancels(self, generators):
        e = generators
        assert mul(e[1], e[2], e[2]) == e[1]

    def test_timelike_generator_squares_to_minus_one(self, generators):
        e = generators
        assert mul(e[0], e[0]) == NCPolynomial.word((), -1)

    def test_bivector_of_plus_generators_squares_to_minus_one(self, generators):
        e = generators
        b = mul(e[1], e[2])
        assert mul(b, b) == NCPolynomial.word((), -1)

    def test_associativity_on_300_random_triples(self):
        rng = random.Random(9)
        basis = all_basis_blades(CL31)

        def rand_mv():
            mv = NCPolynomial.zero()
            for _ in range(rng.randint(1, 3)):
                b = basis[rng.randrange(len(basis))]
                mv = mv + NCPolynomial.word(b, Fraction(rng.randint(-3, 3)))
            return mv

        for _ in range(300):
            a, b, c = rand_mv(), rand_mv(), rand_mv()
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_generator_anticommutation_matches_metric(self, generators):
        e = generators
        signs = (-1, 1, 1, 1)
        for mu in range(4):
            for nu in range(4):
                ac = mul(e[mu], e[nu]) + mul(e[nu], e[mu])
                expect = NCPolynomial.word((), 2 * signs[mu] if mu == nu else 0)
                assert ac == expect


class TestPresentation:
    def test_normal_words_are_the_basis_blades(self):
        # by the diamond lemma the normal words of a confluent presentation
        # form a basis; for Cl(3,1) they are the 16 sorted blades
        assert local_confluence_check(CL31) == []
        normal = [
            w
            for w in [()] + list(CL31.iter_words(5))
            if all((w[i], w[i + 1]) not in CL31.rules for i in range(len(w) - 1))
        ]
        assert normal == all_basis_blades(CL31)
        assert [sum(len(w) == d for w in normal) for d in range(6)] == [1, 4, 6, 4, 1, 0]


class TestGradeSplit:
    def test_bivector_has_no_scalar_part(self, generators):
        e = generators
        assert () not in mul(e[1], e[2]).terms


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
                prod = CL31.multiply(NCPolynomial.word(b1), NCPolynomial.word(b2))
                expect = Matrix.zeros(4, 4)
                for bl, c in prod.terms.items():
                    expect = expect + blade_matrix(bl, gam).scale(c)
                got = matmul(blade_matrix(b1, gam), blade_matrix(b2, gam))
                assert got == expect, (b1, b2)
