import os
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import qclifford
from qclifford.scalars import (
    GaussRational,
    HalfLaurent,
    LaurentFrac,
    RadicalScalar,
    q_plus_qinv,
    qvar,
    sqrt,
)


def env_importing_this_qclifford() -> dict:
    """The environment with the directory of the imported package first on
    PYTHONPATH, so a child process runs the same code from an uninstalled
    checkout."""
    root = str(pathlib.Path(qclifford.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}


def random_gauss(rng: random.Random, complex_ok: bool = True) -> GaussRational:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    im = Fraction(0)
    if complex_ok and rng.random() < 0.3:
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return GaussRational(re, im)


def random_halflaurent(rng: random.Random, max_terms: int = 3) -> HalfLaurent:
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(-4, 4)] = random_gauss(rng)
    return HalfLaurent(coeffs)


def random_fraction_scalar(rng: random.Random) -> RadicalScalar:
    num = random_halflaurent(rng)
    if rng.random() < 0.3:
        den = HalfLaurent({0: GaussRational(1), 2: random_gauss(rng)})
        if den.is_zero() or len(den.terms) < 2:
            den = HalfLaurent({0: GaussRational(1)})
        return RadicalScalar.from_frac(LaurentFrac(num, den))
    return RadicalScalar.from_frac(LaurentFrac(num))


_RADICAL_POOL = None


def radical_pool():
    global _RADICAL_POOL
    if _RADICAL_POOL is None:
        q = qvar()
        Q = q_plus_qinv()
        _RADICAL_POOL = (
            RadicalScalar.one(),
            sqrt(Q),
            sqrt(q * Q),
            sqrt(RadicalScalar.constant(2)),
            sqrt(RadicalScalar.constant(Fraction(3, 5))),
        )
    return _RADICAL_POOL


def random_scalar(rng: random.Random) -> RadicalScalar:
    """Sum of up to three radical-weighted fraction terms."""
    out = RadicalScalar.zero()
    pool = radical_pool()
    for _ in range(rng.randint(1, 3)):
        out = out + random_fraction_scalar(rng) * pool[rng.randrange(len(pool))]
    return out


def random_light_scalar(rng: random.Random) -> RadicalScalar:
    """Small Laurent polynomial, sometimes radical-weighted; cheap to combine."""
    base = RadicalScalar.from_frac(
        LaurentFrac(HalfLaurent({rng.randint(-2, 2): random_gauss(rng, complex_ok=False)}))
    )
    if rng.random() < 0.3:
        pool = radical_pool()
        base = base * pool[rng.randrange(1, len(pool))]
    if rng.random() < 0.3:
        base = base + RadicalScalar.constant(rng.randint(-2, 2))
    return base


# Denominator factors for the fraction-field tests.  Products of them with
# multiplicity make denominators that are equal, coprime, or share a factor
# with a repeated root; 1 + i t and 1 + t^2 share the root t = i.
DEN_FACTORS = (
    HalfLaurent({0: GaussRational(1), 2: GaussRational(1)}),  # 1 + t^2
    HalfLaurent({0: GaussRational(-2), 1: GaussRational(1)}),  # t - 2
    HalfLaurent({0: GaussRational(1), 1: GaussRational(0, 1)}),  # 1 + i t
)


def pool_product(multiplicities) -> HalfLaurent:
    out = HalfLaurent.one()
    for factor, m in zip(DEN_FACTORS, multiplicities):
        out = out * factor**m
    return out


def pool_multiplicities(top: int):
    return st.tuples(*(st.integers(0, top) for _ in DEN_FACTORS))


@st.composite
def pooled_fraction_pairs(draw):
    """Two fractions over pool-product denominators.

    The second takes the first's denominator half the time, and numerators
    carry pool factors too, so sums and products meet every cancellation.
    """

    def fraction(den_multiplicities):
        coeff = st.builds(GaussRational, st.integers(-3, 3), st.sampled_from([0, 0, 1]))
        small = draw(st.dictionaries(st.integers(-2, 2), coeff, min_size=1, max_size=2))
        num = HalfLaurent(small) * pool_product(draw(pool_multiplicities(1)))
        return LaurentFrac(num, pool_product(den_multiplicities))

    m_a = draw(pool_multiplicities(3))
    m_b = draw(st.one_of(st.just(m_a), pool_multiplicities(3)))
    return fraction(m_a), fraction(m_b)


def cancelling_partners(a: LaurentFrac) -> list:
    """Partners b with a + b zero or over denominator one, or with a * b = 1."""
    out = [-a, LaurentFrac(a.den * HalfLaurent.t_power(1) - a.num, a.den)]
    if not a.is_zero():
        out.append(LaurentFrac(a.den, a.num))
    return out


@pytest.fixture
def rng():
    return random.Random(20240814)


@pytest.fixture
def np():
    """numpy, the independent float oracle; a test that takes it skips without it."""
    return pytest.importorskip("numpy")
