"""Differential test of the radical-free scalar tower against sympy.

Each scalar is transcribed into a sympy rational function of t = q^(1/2)
straight from its coefficient dicts, never through the engine's own ring
operations, so sympy's ``cancel`` is an independent judge of equality.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
