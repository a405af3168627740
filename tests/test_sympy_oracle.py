"""Differential test of the radical-free scalar tower against sympy.

Each scalar is transcribed into a sympy rational function of t = q^(1/2)
straight from its coefficient dicts, never through the engine's own ring
operations, so sympy's ``cancel`` is an independent judge of equality.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cancelling_partners, pool_product, pooled_fraction_pairs
from qclifford.scalars import EvalPole, GaussRational, HalfLaurent, LaurentFrac, RadicalScalar

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
gauss = st.builds(GaussRational, rationals, st.one_of(st.just(0), st.just(0), rationals))


def polys(exponents):
    return st.dictionaries(exponents, gauss, max_size=3).map(HalfLaurent)


def fractions_in(exponents):
    def build(num, den):
        return RadicalScalar.from_frac(LaurentFrac(num, den if not den.is_zero() else None))

    return st.builds(build, polys(exponents), polys(exponents))


scalars = fractions_in(st.integers(-3, 3))
# only even powers of t have a rational value at rational q
even_scalars = fractions_in(st.integers(-2, 2).map(lambda k: 2 * k))


@st.composite
def neighbours(draw):
    """Two scalars whose numerators differ in one part of one coefficient, or not at all."""
    num = draw(st.dictionaries(st.integers(-3, 3), gauss, min_size=1, max_size=3))
    den = draw(polys(st.integers(-3, 3)))
    k = draw(st.sampled_from(sorted(num)))
    c, shift = num[k], draw(rationals)
    moved = dict(num)
    moved[k] = draw(
        st.sampled_from([GaussRational(c.re + shift, c.im), GaussRational(c.re, c.im + shift)])
    )
    den = den if not den.is_zero() else None
    return tuple(RadicalScalar.from_frac(LaurentFrac(HalfLaurent(n), den)) for n in (num, moved))


def _sym_poly(p: HalfLaurent):
    return sympy.Add(
        *(
            (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * T**k
            for k, c in p.coeffs.items()
        )
    )


def _sym(x: RadicalScalar):
    assert x.is_fraction()
    return sympy.Add(*(_sym_poly(f.num) / _sym_poly(f.den) for f in x.terms.values()))


def _sympy_equal(x: RadicalScalar, y: RadicalScalar) -> bool:
    return sympy.cancel(_sym(x) - _sym(y)) == 0


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_values_equal_by_identity_get_one_key(a, b, c):
    pairs = [(a * (b + c), a * b + a * c), ((a + b) + c, c + (b + a))]
    if not b.is_zero():
        pairs.append(((a * b) / b, a))
    for x, y in pairs:
        assert x.key() == y.key() and hash(x) == hash(y)
        assert _sympy_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, neighbours())
def test_keys_differ_exactly_when_sympy_says_unequal(a, b, near):
    for x, y in ((a, b), (a, a + b), (a * b, b * a + a), near):
        assert (x.key() == y.key()) == _sympy_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(even_scalars, rationals)
def test_subs_q_matches_sympy_at_rational_q(a, q):
    assume(q != 0)
    den = _sym_poly(a.as_fraction().den).subs(T, sympy.sqrt(sympy.Rational(q)))
    if den == 0:
        with pytest.raises(EvalPole):
            a.subs_q(q)
        return
    want = _sym(a).subs(T, sympy.sqrt(sympy.Rational(q)))
    got = a.subs_q(q)
    assert sympy.expand(want - (sympy.Rational(got.re) + sympy.I * sympy.Rational(got.im))) == 0


# Fraction-field oracle: sympy's own rational functions over Q(i), built from
# the coefficient dicts; equal values compare equal there after cancelling.
RING, _ = sympy.ring("t", sympy.QQ_I)
FIELD, T_FIELD = sympy.field("t", sympy.QQ_I)


def _qq_i(c: GaussRational):
    re, im = Fraction(c.re), Fraction(c.im)
    return sympy.QQ_I(sympy.QQ(re.numerator, re.denominator), sympy.QQ(im.numerator, im.denominator))


def _ring_poly(p: HalfLaurent, shift: int = 0):
    return RING({(k + shift,): _qq_i(c) for k, c in p.coeffs.items()})


def _field_frac(f: LaurentFrac):
    def elem(p):
        v = p.valuation() if p.coeffs else 0
        return FIELD(_ring_poly(p, -v)) * T_FIELD**v

    return elem(f.num) / elem(f.den)


def _assert_canonical(f: LaurentFrac) -> None:
    """Monic denominator of valuation 0, coprime to the stripped numerator."""
    if f.num.is_zero():
        assert f.den.is_one()
        return
    assert min(f.den.coeffs) == 0
    den = _ring_poly(f.den)
    assert den.LC == sympy.QQ_I(1, 0)
    assert _ring_poly(f.num, -f.num.valuation()).gcd(den).degree() == 0


def _check_sum_and_product(a: LaurentFrac, b: LaurentFrac) -> None:
    fa, fb = _field_frac(a), _field_frac(b)
    for got, want in ((a + b, fa + fb), (a * b, fa * fb)):
        _assert_canonical(got)
        assert _field_frac(got) == want


# denominator multiplicities of (1 + t^2, t - 2, 1 + i t) for each Henrici case
HENRICI_CASES = {
    "equal": ((2, 1, 0), (2, 1, 0)),
    "coprime": ((1, 0, 0), (0, 2, 0)),
    "repeated_common_root": ((2, 0, 0), (3, 0, 0)),
    "partial_common_factor": ((1, 1, 0), (0, 1, 1)),
    "root_shared_across_factors": ((1, 0, 0), (0, 0, 2)),
    "one_denominator_one": ((0, 0, 0), (1, 1, 1)),
}


@pytest.mark.parametrize("case", list(HENRICI_CASES))
def test_henrici_cases_match_sympy_and_stay_canonical(case):
    m_a, m_b = HENRICI_CASES[case]
    a = LaurentFrac(HalfLaurent({0: GaussRational(1), 3: GaussRational(-1)}), pool_product(m_a))
    b = LaurentFrac(HalfLaurent({-1: GaussRational(2), 1: GaussRational(0, 1)}), pool_product(m_b))
    for x, y in ((a, b), (b, a), *((a, p) for p in cancelling_partners(a))):
        _check_sum_and_product(x, y)


@settings(max_examples=40, deadline=None)
@given(pooled_fraction_pairs())
def test_pooled_denominators_match_sympy_and_stay_canonical(pair):
    a, b = pair
    for y in (b, *cancelling_partners(a)):
        _check_sum_and_product(a, y)
