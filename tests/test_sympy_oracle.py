"""Differential test of the scalar tower against sympy.

Each scalar is transcribed into a sympy rational function of t = q^(1/2)
straight from its coefficient dicts, never through the engine's own ring
operations, so sympy's ``cancel`` is an independent judge of equality.
Scalars with radicals are compared numerically, to 50 digits, against the
value sympy builds from their defining expression.  The exact value
``at(q)`` at a rational q is compared with sympy's substitution of
t = sqrt(q) into the same transcriptions.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cancelling_partners, pool_product, pooled_fraction_pairs
from qclifford.scalars import (
    EvalPole,
    GaussRational,
    HalfLaurent,
    LaurentFrac,
    RadicalScalar,
    ScalarError,
    q_half,
    q_plus_qinv,
    qinv,
    qvar,
    sqrt,
)

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


def _assert_at_matches_sympy(a: RadicalScalar, q: Fraction) -> None:
    t = sympy.sqrt(sympy.Rational(q))
    if _sym_poly(a.as_fraction().den).subs(T, t) == 0:
        with pytest.raises(EvalPole):
            a.at(q)
        return
    got = _sym(a.at(q))
    assert not got.free_symbols
    assert sympy.expand(_sym(a).subs(T, t) - got) == 0


def _has_odd_power(a: RadicalScalar) -> bool:
    f = a.as_fraction()
    return any(k % 2 for k in (*f.num.coeffs, *f.den.coeffs))


@settings(max_examples=60, deadline=None)
@given(even_scalars, rationals)
def test_at_matches_sympy_at_rational_q(a, q):
    assume(q != 0)
    _assert_at_matches_sympy(a, q)


# t = sqrt(q) is rational at these q, so odd powers of t have exact values
SQUARE_Q = (Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 4))


@settings(max_examples=80, deadline=None)
@given(scalars, st.sampled_from(SQUARE_Q))
def test_at_matches_sympy_with_odd_powers_at_square_q(a, q):
    assume(_has_odd_power(a))
    _assert_at_matches_sympy(a, q)


@settings(max_examples=40, deadline=None)
@given(scalars, st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 4), Fraction(-4)]))
def test_odd_power_at_a_non_square_q_raises(a, q):
    assume(_has_odd_power(a))
    with pytest.raises(ScalarError) as raised:
        a.at(q)
    # a pole of an even-power denominator may be met first
    den = _sym_poly(a.as_fraction().den).subs(T, sympy.sqrt(sympy.Rational(q)))
    assert raised.type is ScalarError or den == 0


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


# Radical oracle: each term is transcribed as coefficient * prod sqrt(radicand),
# with t = q^(1/2) > 0, and compared numerically against the same value built
# by sympy from the defining expression, never from the engine's radicands.
def _sym_frac(f: LaurentFrac):
    return _sym_poly(f.num) / _sym_poly(f.den)


def _sym_radical(x: RadicalScalar):
    return sympy.Add(
        *(
            _sym_frac(c) * sympy.Mul(*(sympy.sqrt(_sym_frac(r)) for r in key))
            for key, c in x.terms.items()
        )
    )


def _radical_pool():
    """(engine value, sympy expression) pairs with up to two distinct radicands."""
    q, Q = qvar(), q_plus_qinv()
    sym_q, sym_Q = T**2, T**2 + T**-2
    bracket = qvar() - qinv()
    sym_bracket = T**2 - T**-2

    def irrep_root(lam: GaussRational):
        # the prefactor sqrt((lambda^-1 - lambda) / (q - q^-1)) of an affine irrep
        lam_s = sympy.Rational(lam.re) + sympy.I * sympy.Rational(lam.im)
        lam_e = RadicalScalar.constant(lam)
        return (
            sqrt((lam_e.inverse() - lam_e) / bracket),
            sympy.sqrt((1 / lam_s - lam_s) / sym_bracket),
        )

    real_root, real_sym = irrep_root(GaussRational(2))
    complex_root, complex_sym = irrep_root(GaussRational(1, Fraction(1, 2)))
    return [
        (sqrt(Q), sympy.sqrt(sym_Q)),
        (sqrt(q * Q), sympy.sqrt(sym_q * sym_Q)),
        (real_root, real_sym),
        (complex_root, complex_sym),
        (1 + q_half(1) * sqrt(Q) - real_root, 1 + T * sympy.sqrt(sym_Q) - real_sym),
        (sqrt(1 + q) + 2 * sqrt(q * Q), sympy.sqrt(1 + sym_q) + 2 * sympy.sqrt(sym_q * sym_Q)),
    ]


RADICAL_T = (sympy.Rational(1, 3), sympy.Rational(5, 4), sympy.Rational(7, 2))


def _agree_to_50_digits(x: RadicalScalar, want, points=RADICAL_T) -> None:
    for t in points:
        got_v = sympy.N(_sym_radical(x).subs(T, t), 60)
        want_v = sympy.N(want.subs(T, t), 60)
        assert abs(got_v - want_v) <= sympy.Float(10) ** -50 * max(1, abs(want_v)), (str(x), t)


@pytest.mark.parametrize("i", range(6))
def test_radical_sums_products_and_inverses_match_sympy(i):
    pool = _radical_pool()
    x, sx = pool[i]
    _agree_to_50_digits(x, sx)
    _agree_to_50_digits(x.inverse(), 1 / sx)
    for y, sy in pool[i:]:
        _agree_to_50_digits(x + y, sx + sy)
        _agree_to_50_digits(x * y, sx * sy)
        _agree_to_50_digits((x + y).inverse(), 1 / (sx + sy))


@pytest.mark.parametrize("i", range(6))
def test_radicals_at_one_and_four_match_sympy(i):
    # a radicand with a pole at q = 1 raises there, where sympy's value is not finite
    pool = _radical_pool()
    x, sx = pool[i]
    for y, sy in [(RadicalScalar.one(), sympy.Integer(1)), *pool[i:]]:
        for got, want in ((x * y, sx * sy), (x + y, sx + sy)):
            for q, t in ((1, 1), (4, 2)):
                if not want.subs(T, t).is_finite:
                    with pytest.raises(EvalPole):
                        got.at(q)
                    continue
                assert not _sym_radical(got.at(q)).free_symbols
                _agree_to_50_digits(got.at(q), want, points=(t,))
