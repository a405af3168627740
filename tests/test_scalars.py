import cmath
import copy
import gc
import json
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    DEN_FACTORS,
    cancelling_partners,
    env_importing_this_qclifford,
    pooled_fraction_pairs,
    radical_pool,
    random_halflaurent,
    random_scalar,
)
from qclifford import scalars
from qclifford.scalars import (
    Divergent,
    GaussRational,
    HalfLaurent,
    LaurentFrac,
    NotInvertible,
    ONE,
    RadicalScalar,
    ZERO,
    ZeroBase,
    q_half,
    q_plus_qinv,
    qinv,
    qvar,
    sqrt,
)


def test_rational_is_reduced_with_positive_denominator():
    r = GaussRational(Fraction(6, -4)).re
    assert r.numerator == -3 and r.denominator == 2


class TestAddition:
    def test_big_q_stays_two_terms(self):
        Q = q_plus_qinv()
        assert Q == qvar() + qinv()
        assert len(Q.as_fraction().num.coeffs) == 2

    def test_like_radical_terms_collect(self):
        s = sqrt(q_plus_qinv())
        assert s + s == 2 * s

    def test_additive_inverse_cancels_exactly(self):
        q, qi = qvar(), qinv()
        assert ((q - qi) + (qi - q)).is_zero()


class TestMultiplication:
    def test_difference_of_squares(self):
        q, qi = qvar(), qinv()
        assert (q - qi) * (q + qi) == q**2 - qi**2

    def test_radical_squares_to_radicand(self):
        q = qvar()
        s = sqrt(q * q_plus_qinv())
        assert s * s == q * q_plus_qinv()
        # qQ = q^2 + 1
        assert s * s == q**2 + RadicalScalar.one()

    def test_half_powers_multiply_by_exponent_addition(self):
        assert q_half(1) * q_half(1) == qvar()
        assert q_half(3) * q_half(-3) == RadicalScalar.one()

    def test_mixed_radicals_merge_through_unit_extraction(self):
        # sqrt(Q) * sqrt(qQ) = q^(1/2) * Q
        got = sqrt(q_plus_qinv()) * sqrt(qvar() * q_plus_qinv())
        assert got == q_half(1) * q_plus_qinv()


class TestEvaluation:
    def test_big_q_at_two(self):
        assert q_plus_qinv().eval_at(2.0) == pytest.approx(2.5)

    def test_three_half_power_at_four(self):
        assert q_half(3).eval_at(4.0) == pytest.approx(8.0)

    def test_sqrt_q_big_q_at_one(self):
        # oracle: qQ = q^2 + 1 = 2 at q = 1
        assert sqrt(qvar() * q_plus_qinv()).eval_at(1.0) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_zero_base_rejected(self):
        with pytest.raises(ZeroBase):
            qvar().eval_at(0.0)

    def test_branch_cut_flagged_for_negative_radicand(self):
        lam = RadicalScalar.constant(2)
        r = (lam.inverse() - lam) / (qvar() - qinv())
        _, flag = sqrt(r).eval_with_flags(3.0)
        assert flag
        _, flag = sqrt(q_plus_qinv()).eval_with_flags(2.0)
        assert not flag

    def test_principal_branch_matches_direct_sqrt(self):
        lam = RadicalScalar.constant(2)
        r = (lam.inverse() - lam) / (qvar() - qinv())
        s = sqrt(r)
        for qv in (0.5, 0.75, 1.5, 3.0):
            assert s.eval_at(qv) == pytest.approx(cmath.sqrt(r.eval_at(qv)))


class TestLimit:
    def test_big_q_limit_is_two(self):
        assert q_plus_qinv().limit_q1() == RadicalScalar.constant(2)

    def test_antisymmetric_combination_vanishes(self):
        assert (qvar() ** 2 - qinv() ** 2).limit_q1().is_zero()

    def test_bracket_with_nonunit_weight_diverges(self):
        # (lambda^{-1} - lambda)/(q - q^{-1}) with lambda = 2 blows up at q = 1
        lam = RadicalScalar.constant(2)
        expr = (lam.inverse() - lam) / (qvar() - qinv())
        with pytest.raises(Divergent):
            expr.limit_q1()

    def test_radical_limits_keep_formal_roots(self):
        assert sqrt(q_plus_qinv()).limit_q1() == sqrt(RadicalScalar.constant(2))


class TestFieldStructure:
    def test_single_term_inverse(self):
        x = q_half(3) * sqrt(q_plus_qinv())
        assert (x * x.inverse()).is_one()

    def test_multi_term_inverse_by_conjugation(self, rng):
        for _ in range(25):
            v = random_scalar(rng)
            if v.is_zero():
                continue
            assert (v * v.inverse()).is_one()

    def test_zero_is_not_invertible(self):
        with pytest.raises(NotInvertible):
            RadicalScalar.zero().inverse()

    def test_exact_substitution_at_rational_q(self):
        val = (qvar() ** 2 - qinv()).subs_q(Fraction(3))
        assert val == GaussRational(Fraction(9) - Fraction(1, 3))


class TestRingAxioms:
    def test_thousand_random_triples(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_mul_commutes_and_associates(self):
        rng = random.Random(12)
        for _ in range(200):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestEvaluationHomomorphism:
    def test_eval_respects_ring_ops(self):
        rng = random.Random(13)
        scalars = [random_scalar(rng) for _ in range(100)]
        qs = [rng.uniform(0.5, 2.0) for _ in range(10)]
        qs = [x if abs(x - 1) > 0.05 else x + 0.1 for x in qs]
        for i in range(0, 100, 2):
            a, b = scalars[i], scalars[i + 1]
            for qv in qs:
                va, vb = a.eval_at(qv), b.eval_at(qv)
                scale = max(1.0, abs(va * vb), abs(va + vb))
                assert abs((a * b).eval_at(qv) - va * vb) <= 1e-12 * scale
                assert abs((a + b).eval_at(qv) - (va + vb)) <= 1e-12 * scale


@st.composite
def half_laurents(draw):
    n = draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(n):
        k = draw(st.integers(-4, 4))
        num = draw(st.integers(-5, 5))
        den = draw(st.integers(1, 4))
        coeffs[k] = GaussRational(Fraction(num, den))
    return HalfLaurent(coeffs)


@settings(max_examples=80, deadline=None)
@given(half_laurents())
def test_sqrt_times_sqrt_recovers_any_polynomial(p):
    x = RadicalScalar.from_frac(LaurentFrac(p))
    s = sqrt(x)
    assert s * s == x


@settings(max_examples=80, deadline=None)
@given(half_laurents(), half_laurents())
def test_polynomial_product_commutes(a, b):
    assert a * b == b * a


def test_canonical_forms_are_hash_consistent(rng):
    for _ in range(50):
        v = random_scalar(rng)
        w = v + RadicalScalar.zero()
        assert v == w and hash(v) == hash(w)


def test_string_rendering_is_deterministic(rng):
    v = sqrt(q_plus_qinv()) + qvar() - RadicalScalar.constant(Fraction(1, 2))
    assert str(v) == str(sqrt(q_plus_qinv()) + qvar() - RadicalScalar.constant(Fraction(1, 2)))


def _clear_memo():
    """Empty both generations of the operation memo."""
    scalars._MEMO.clear()
    scalars._MEMO_OLD.clear()


def _counted(fn, counts: list):
    """``fn`` wrapped so that each call appends its arguments to ``counts``."""

    def counting(*args):
        counts.append(args)
        return fn(*args)

    return counting


def _count_interned_builds(monkeypatch) -> list:
    """Record every call of ``RadicalScalar._nonzero`` from now on."""
    builds = []
    raw = RadicalScalar.__dict__["_nonzero"].__func__
    monkeypatch.setattr(RadicalScalar, "_nonzero", staticmethod(_counted(raw, builds)))
    return builds


class TestMemo:
    """Every operation is memoized on the identity of each operand, which
    interning makes one object per value."""

    def test_equal_operands_in_another_term_order_share_one_product(self):
        b = sqrt(q_plus_qinv()) + qvar()
        p1 = HalfLaurent({-2: GaussRational(1), 2: GaussRational(-1), 0: GaussRational(3)})
        p2 = HalfLaurent({2: GaussRational(-1), 0: GaussRational(3), -2: GaussRational(1)})
        first = RadicalScalar.from_frac(LaurentFrac(p1))
        second = RadicalScalar.from_frac(LaurentFrac(p2))
        assert list(p1.coeffs) != list(p2.coeffs)
        assert first == second and first.key() == second.key()
        _clear_memo()
        product = first * b
        assert second * b is product
        total = first + b
        assert second + b is total

    def test_table_stays_within_its_cap(self, monkeypatch):
        # two generations of MEMO_CAP // 2: together they fill up to the cap
        # and never past it
        _clear_memo()
        calls = []
        monkeypatch.setattr(RadicalScalar, "_mul", _counted(RadicalScalar._mul, calls))
        q = qvar()
        constants = [RadicalScalar.constant(k + 2) for k in range(scalars.MEMO_CAP + 50)]
        filled = 0
        for c in constants:
            q * c
            held = len(scalars._MEMO) + len(scalars._MEMO_OLD)
            assert held <= scalars.MEMO_CAP
            filled = max(filled, held)
        assert filled == scalars.MEMO_CAP
        assert len(calls) == len(constants)
        # an entry of the older generation answers without a recomputation
        (key, (a, b, product)), *_ = scalars._MEMO_OLD.items()
        assert a * b is product
        assert len(calls) == len(constants)
        assert key in scalars._MEMO and key not in scalars._MEMO_OLD

    def test_entries_hold_the_operands_their_ids_name(self, rng):
        _clear_memo()
        values = [random_scalar(rng) for _ in range(12)]
        for a in values:
            -a
            if not a.is_zero():
                a.inverse()
            for b in values:
                a * b
                a + b
                a - b
        assert scalars._MEMO and scalars._MEMO_OLD
        for (_op, id_a, id_b), (a, b, _out) in [*scalars._MEMO.items(), *scalars._MEMO_OLD.items()]:
            assert (id_a, id_b) == (id(a), id(b))

    def test_a_dropped_operand_never_hands_its_product_to_a_new_one(self):
        # a freed scalar's address is soon reused; an entry that did not hold
        # its operands would then answer for a different value
        _clear_memo()
        q = qvar()
        for k in range(300):
            c = RadicalScalar.constant(k + 2)
            assert c * q is RadicalScalar._mul(c, q)
            assert c + q is RadicalScalar._add(c, q)
            assert c - q is RadicalScalar._sub(c, q)
            assert -c is RadicalScalar._neg(c)
            assert c.inverse() is RadicalScalar._inverse(c)
            del c

    def test_the_second_order_of_a_product_or_sum_computes_nothing(self, monkeypatch):
        a, b = sqrt(q_plus_qinv()) + qvar(), qinv() + RadicalScalar.constant(3)
        _clear_memo()
        muls, adds = [], []
        monkeypatch.setattr(RadicalScalar, "_mul", _counted(RadicalScalar._mul, muls))
        monkeypatch.setattr(RadicalScalar, "_add", _counted(RadicalScalar._add, adds))
        assert a * b is b * a
        assert a + b is b + a
        assert len(muls) == len(adds) == 1

    def test_a_second_inverse_does_no_elimination(self, monkeypatch):
        _clear_memo()
        x = q_half(3) + sqrt(q_plus_qinv())
        first = x.inverse()
        builds = _count_interned_builds(monkeypatch)
        assert x.inverse() is first
        assert builds == []

    def test_a_difference_interns_exactly_one_scalar(self, monkeypatch):
        _clear_memo()
        a, b = sqrt(q_plus_qinv()) + qvar(), qinv() + RadicalScalar.constant(3)
        builds = _count_interned_builds(monkeypatch)
        diff = a - b
        assert len(builds) == 1
        assert diff is a + -b


@st.composite
def small_scalar_twins(draw):
    """Two equal small scalars whose coefficients come in opposite orders."""
    items = draw(
        st.dictionaries(
            st.integers(-3, 3), st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=3
        )
    )
    den = draw(st.sampled_from([None, HalfLaurent({0: GaussRational(1), 2: GaussRational(2)})]))
    root = draw(st.sampled_from(radical_pool()))
    twins = []
    for order in (list(items.items()), list(items.items())[::-1]):
        poly = HalfLaurent({k: GaussRational(Fraction(n, d)) for k, (n, d) in order})
        twins.append(RadicalScalar.from_frac(LaurentFrac(poly, den)) * root)
    return twins


@settings(max_examples=80, deadline=None)
@given(st.lists(small_scalar_twins(), min_size=1, max_size=3))
def test_memoized_ops_match_the_tower_in_term_order(twins):
    # twins are one value built in two term orders: one canonical form,
    # one float and one interned object, whose memoized results serve both
    for first, second in twins:
        assert first.key() == second.key()
        for q in (0.3, 0.7, 1.3, 1.9):
            assert first.eval_with_flags(q) == second.eval_with_flags(q)
    values = [x for pair in twins for x in pair]
    for a in values:
        for b in values:
            assert a * b == RadicalScalar._mul(a, b)
            assert a + b == RadicalScalar._add(a, b)


memo_operands = st.one_of(
    small_scalar_twins().map(lambda twins: twins[0]),
    st.integers(0, 2**32 - 1).map(lambda seed: random_scalar(random.Random(seed))),
)


class TestMemoPremises:
    """What the memo takes for granted, decided on the raw operations.

    Each example empties the memo first, so the oracle shares no entry with
    the memoized operators: one result for both operand orders of a sum or
    product, a difference that is the sum with the negation, and negation
    and inverse that undo themselves, all as one interned object."""

    @settings(max_examples=60, deadline=None)
    @given(memo_operands, memo_operands)
    def test_sums_and_products_ignore_the_operand_order(self, a, b):
        _clear_memo()
        assert RadicalScalar._mul(a, b) is RadicalScalar._mul(b, a)
        assert RadicalScalar._add(a, b) is RadicalScalar._add(b, a)

    @settings(max_examples=60, deadline=None)
    @given(memo_operands, memo_operands)
    def test_a_difference_is_the_sum_with_the_negation(self, a, b):
        _clear_memo()
        assert RadicalScalar._sub(a, b) is RadicalScalar._add(a, RadicalScalar._neg(b))

    @settings(max_examples=60, deadline=None)
    @given(memo_operands)
    def test_negation_and_inverse_undo_themselves(self, a):
        _clear_memo()
        assert RadicalScalar._neg(RadicalScalar._neg(a)) is a
        # conjugating away three radical terms can run for minutes on some draws
        assume(0 < len(a.terms) <= 2)
        assert RadicalScalar._inverse(RadicalScalar._inverse(a)) is a


def _reference_sum(x: LaurentFrac, y: LaurentFrac) -> LaurentFrac:
    return LaurentFrac(x.num * y.den + y.num * x.den, x.den * y.den)


def _reference_times(x: LaurentFrac, y: LaurentFrac) -> LaurentFrac:
    return LaurentFrac(x.num * y.num, x.den * y.den)


def _reference_product(a: RadicalScalar, b: RadicalScalar) -> RadicalScalar:
    """a * b by the general merge: every pair of terms, each radicand the two
    share multiplied out, like radicand tuples collected, and every fraction
    built by the canonical constructor."""
    out: dict = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            coeff = _reference_times(c1, c2)
            merged = []
            for r in sorted({*k1, *k2}, key=LaurentFrac.key):
                if r in k1 and r in k2:
                    coeff = _reference_times(coeff, r)
                else:
                    merged.append(r)
            key = tuple(merged)
            out[key] = _reference_sum(out[key], coeff) if key in out else coeff
    return RadicalScalar(out)


def _fresh_fraction_value(f: LaurentFrac, t: complex) -> complex:
    d = f.den.eval_t(t)
    if d == 0:
        raise scalars.EvalPole("denominator vanishes at this q")
    return f.num.eval_t(t) / d


def _fresh_evaluation(x: RadicalScalar, q) -> tuple[complex, bool]:
    """``eval_with_flags`` computed through the uncached ``HalfLaurent.eval_t``."""
    t = cmath.sqrt(complex(q))
    total, flag = 0j, False
    for key, coeff in x.terms.items():
        val = _fresh_fraction_value(coeff, t)
        for rad in key:
            rv = _fresh_fraction_value(rad, t)
            flag = flag or (rv.imag == 0.0 and rv.real < 0.0)
            val *= cmath.sqrt(rv)
        total += val
    return total, flag


def _bits(value: tuple[complex, bool]) -> tuple:
    z, flag = value
    return z.real.hex(), z.imag.hex(), flag


# the signed zeros put -2 + 0j and -2 - 0j on either side of the branch cut
EVAL_POINTS = (0.3, 1.7, 3, -2.0, complex(-2.0, 0.0), complex(-2.0, -0.0), 0.5 + 0.25j)

constants = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(GaussRational, st.integers(-3, 3), st.integers(-3, 3)),
)


class TestShortcuts:
    """Each shortcut of the hot path gives the object, or the bits, that
    the general route gives; every example empties the memo first."""

    @settings(max_examples=60, deadline=None)
    @given(memo_operands)
    def test_a_product_with_minus_one_is_the_general_product(self, x):
        _clear_memo()
        want = _reference_product(x, scalars.MINUS_ONE)
        assert x * scalars.MINUS_ONE is want
        assert scalars.MINUS_ONE * x is want
        assert RadicalScalar._mul(x, scalars.MINUS_ONE) is want

    @settings(max_examples=100, deadline=None)
    @given(constants)
    def test_a_constant_is_the_scalar_its_tower_builds(self, c):
        _clear_memo()
        g = c if isinstance(c, GaussRational) else GaussRational(c)
        built = RadicalScalar({(): LaurentFrac(HalfLaurent({0: g}))})
        assert RadicalScalar.constant(c) is built

    def test_a_constant_no_scalar_holds_is_built_by_its_tower(self):
        for k in range(5):
            v = Fraction(-1, 10**6 + k)
            key = (((), (((0, -1, 0, 10**6 + k),), ((0, 1, 0, 1),))),)
            gc.collect()
            assert key not in scalars._INTERN
            x = RadicalScalar.constant(v)
            assert x.key() == key and scalars._INTERN[key]() is x
            assert x is RadicalScalar({(): LaurentFrac(HalfLaurent({0: GaussRational(v)}))})

    @settings(max_examples=80, deadline=None)
    @given(memo_operands, memo_operands)
    def test_single_term_products_are_the_general_product(self, a, b):
        _clear_memo()
        assert RadicalScalar._mul(a, b) is _reference_product(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(-4, 4), st.integers(-4, 4),
        st.builds(GaussRational, st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: not c.is_zero()),
        st.builds(GaussRational, st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: not c.is_zero()),
    )
    def test_a_product_of_monomials_is_the_multiplied_out_fraction(self, j, k, x, y):
        a, b = LaurentFrac(HalfLaurent({j: x})), LaurentFrac(HalfLaurent({k: y}))
        assert (a * b).key() == _reference_times(a, b).key()

    @settings(max_examples=60, deadline=None)
    @given(memo_operands)
    def test_a_cached_value_is_the_fresh_value_at_its_own_point(self, x):
        for points in (EVAL_POINTS, EVAL_POINTS[::-1]):
            for q in points:
                try:
                    want = _fresh_evaluation(x, q)
                except scalars.EvalPole:
                    with pytest.raises(scalars.EvalPole):
                        x.eval_with_flags(q)
                    continue
                assert _bits(x.eval_with_flags(q)) == _bits(want)

    def test_an_evaluation_at_a_pole_raises_on_every_call(self):
        _clear_memo()
        # 1/(q - 1) * sqrt(q + 1/q): the denominator is exactly 0 at q = 1
        x = (qvar() - ONE).inverse() * sqrt(q_plus_qinv())
        for _ in range(3):
            with pytest.raises(scalars.EvalPole):
                x.eval_with_flags(1.0)
            with pytest.raises(ZeroBase):
                x.eval_with_flags(0.0)
        assert _bits(x.eval_with_flags(2.0)) == _bits(_fresh_evaluation(x, 2.0))


# Counts, over one run of a command in a fresh process: LaurentFrac products,
# gcds, interned RadicalScalar builds, numeric evaluations computed (not read
# from a cache) and the matrix products made inside su(2) action reports.
_COUNT_WORK = """
import collections, contextlib, io, json, sys
from qclifford import linalg, presentations, scalars
from qclifford.cli import main

counts = collections.Counter()
in_su2_report = [0]

def counting(label, fn):
    def wrapper(*args):
        counts[label] += 1
        return fn(*args)
    return wrapper

def su2_report(*args):
    in_su2_report[0] += 1
    try:
        return raw_su2_report(*args)
    finally:
        in_su2_report[0] -= 1

def matmul(a, b):
    if in_su2_report[0]:
        counts["su2_products"] += 1
    return raw_matmul(a, b)

scalars.LaurentFrac.__mul__ = counting("laurentfrac_mul", scalars.LaurentFrac.__mul__)
scalars.poly_gcd = counting("poly_gcd", scalars.poly_gcd)
scalars.RadicalScalar._nonzero = staticmethod(counting("interned", scalars.RadicalScalar._nonzero))
scalars.RadicalScalar._evaluate = counting("scalar_evaluations", scalars.RadicalScalar._evaluate)
scalars.HalfLaurent.eval_t = counting("polynomial_evaluations", scalars.HalfLaurent.eval_t)
raw_matmul, raw_su2_report = linalg.matmul, presentations.su2_action_report
linalg.matmul = presentations.matmul = matmul
presentations.su2_action_report = su2_report
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"exit": code, **counts}))
"""


def _count_work(argv: list) -> dict:
    # a fresh process, because the memo, the intern table and the numeric
    # caches carry state from one test to the next
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_WORK, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env_importing_this_qclifford(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["exit"] == 0
    return counts


def test_hopf_exact_run_builds_each_scalar_about_once():
    # perfbench's hopf-exact command at seed 7.  Without the memo's
    # order-free and fused entries the run makes 2,164 products, 938 gcds
    # and 5,184 interned builds; without the shortcuts for constants, for
    # products with -1 and for sums that cancel, 1,064 products and 1,637
    # builds.  One report per convention, each making its own products,
    # made 520 products in the su(2) reports.
    counts = _count_work(["verify", "--suite", "ch2", "--suite", "chq2", "--mode", "exact", "--seed", "7"])
    assert counts["laurentfrac_mul"] <= 900
    assert counts["poly_gcd"] <= 560
    assert counts["interned"] <= 1350
    assert counts["su2_products"] <= 220


def test_matrix_both_run_evaluates_each_value_once_per_point():
    # perfbench's matrix-both command at seed 7: 32 sample points.  Without
    # the point caches the run evaluates scalars 10,715 times and
    # polynomials 26,656 times.
    counts = _count_work(
        [
            "verify", "--suite", "clifford", "--suite", "qgamma", "--suite", "chq2",
            "--suite", "fierz", "--mode", "both", "--q-samples", "32", "--seed", "7",
        ]
    )
    assert counts["scalar_evaluations"] <= 5400
    assert counts["polynomial_evaluations"] <= 6400


class TestInterning:
    """One live object per value: ``is`` decides equality between scalars."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(small_scalar_twins(), min_size=1, max_size=3))
    def test_equal_values_are_one_object(self, twins):
        values = [x for pair in twins for x in pair]
        for first, second in twins:
            assert first is second
        for a in values:
            # oracles through the canonical form, never through identity
            assert a.is_one() == (a.key() == ONE.key())
            for b in values:
                assert (a == b) == (a.key() == b.key())

    def test_one_is_found_whichever_way_it_is_built(self):
        x = q_half(3) * sqrt(q_plus_qinv())
        assert x * x.inverse() is ONE
        assert qvar() * qinv() is ONE
        assert RadicalScalar.constant(Fraction(2, 2)) is ONE

    def test_table_drains_when_its_scalars_are_dropped(self):
        gc.collect()
        before = len(scalars._INTERN)
        made = [RadicalScalar.constant(Fraction(1, 10**6 + k)) for k in range(10000)]
        assert len(scalars._INTERN) >= before + len(made)
        del made
        gc.collect()
        assert len(scalars._INTERN) == before

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_interned_object(self, clone):
        for x in (qvar(), sqrt(q_plus_qinv()) + qinv(), ZERO, ONE):
            assert clone(x) is x
        # the constants' slots are intact
        assert ZERO.is_zero() and str(ZERO) == "0" and str(ONE) == "1"


class TestSquarePart:
    def test_square_of_a_large_prime_is_found_fast(self):
        assert scalars._square_part(1000000007**2) == 1000000007

    def test_product_of_two_large_primes_has_no_square_part(self):
        assert scalars._square_part(1000000007 * 998244353) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**4 - 1))
    def test_matches_brute_force(self, n):
        largest = next(s for s in range(math.isqrt(n), 0, -1) if n % (s * s) == 0)
        assert scalars._square_part(n) == largest


# Reference Gaussian rationals: plain (Fraction, Fraction) pairs.
def _ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_inverse(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


rationals = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 1, 1, 2, 3, 6]))


def _as_given(x: Fraction):
    """An integral part as a plain int half of the time, so both inputs occur."""
    return x.numerator if x.denominator == 1 and x.numerator % 2 else x


class TestGaussRationalParts:
    """Integral parts are ints; every value matches a Fraction-pair reference."""

    @staticmethod
    def _matches(x: GaussRational, ref) -> None:
        assert (x.re, x.im) == ref
        for part, want in zip((x.re, x.im), ref):
            assert (type(part) is int) == (want.denominator == 1)

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals, rationals, rationals)
    # (2+4i)/6 is (1+2i)/3, a gcd shared by both parts, and times 3 it is integral
    @example(Fraction(2, 6), Fraction(4, 6), Fraction(3), Fraction(0))
    # a real part over 6, no imaginary part: the sum 4/6 reduces to 2/3
    @example(Fraction(5, 6), Fraction(0), Fraction(-1, 6), Fraction(0))
    # the inverse of the pure imaginary 2/3 i is -3/2 i
    @example(Fraction(0), Fraction(2, 3), Fraction(1), Fraction(-1))
    @example(Fraction(-3, 4), Fraction(-5, 6), Fraction(-1, 2), Fraction(-7, 3))
    # numerators and denominators above 2**64
    @example(Fraction(2**70 + 1, 3), Fraction(-(2**65), 7), Fraction(3**45, 2), Fraction(1, 2**66))
    def test_ring_operations_match_the_reference(self, ar, ai, br, bi):
        a = GaussRational(_as_given(ar), _as_given(ai))
        b = GaussRational(_as_given(br), _as_given(bi))
        self._matches(a, (ar, ai))
        self._matches(a + b, (ar + br, ai + bi))
        self._matches(a - b, (ar - br, ai - bi))
        self._matches(-a, (-ar, -ai))
        self._matches(a * b, _ref_mul((ar, ai), (br, bi)))
        if ar or ai:
            self._matches(a.inverse(), _ref_inverse((ar, ai)))
            self._matches(b / a, _ref_mul((br, bi), _ref_inverse((ar, ai))))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_int_and_fraction_parts_are_indistinguishable(self, re, im):
        from_int = GaussRational(re, im)
        from_frac = GaussRational(Fraction(re), Fraction(im))
        assert from_int == from_frac
        assert hash(from_int) == hash(from_frac) == hash((Fraction(re), Fraction(im)))
        assert str(from_int) == str(from_frac)
        assert from_int.to_complex() == from_frac.to_complex() == complex(re, im)
        assert str(from_int.re) == str(Fraction(re)) and str(from_int.im) == str(Fraction(im))


@settings(max_examples=100, deadline=None)
@given(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70), st.integers(1, 10**6), st.integers(-4, 4))
def test_int_and_fraction_built_values_are_one_value(x, y, d, k):
    assume(x or y)
    re, im = Fraction(x, d), Fraction(y, d)
    from_ints = HalfLaurent({k: GaussRational(x, y) / GaussRational(d)})
    from_fracs = HalfLaurent({k: GaussRational(re, im)})
    assert from_ints.key() == from_fracs.key()
    assert RadicalScalar.from_frac(LaurentFrac(from_ints)) is RadicalScalar.from_frac(LaurentFrac(from_fracs))
    bits = lambda z: (z.real.hex(), z.imag.hex())
    want = bits(complex(float(re), float(im)))
    for h in (from_ints, from_fracs):
        assert bits(h.coeffs[k].to_complex()) == bits(h.eval_t(1.0)) == want
    assert bits(from_ints.eval_t(0.5 + 0.25j)) == bits(from_fracs.eval_t(0.5 + 0.25j))


def test_interned_keys_hold_only_ints(capsys):
    # capsys keeps the report off the test output
    from qclifford.cli import main

    assert main(["verify", "--suite", "chq2", "--suite", "fierz", "--mode", "exact"]) == 0

    def leaves(key):
        if type(key) is tuple:
            for part in key:
                yield from leaves(part)
        else:
            yield key

    kinds = {type(leaf) for key in list(scalars._INTERN.keys()) for leaf in leaves(key)}
    assert kinds == {int}


@st.composite
def reduced_fractions(draw):
    num = draw(half_laurents())
    den = draw(half_laurents())
    if den.is_zero():
        den = HalfLaurent({draw(st.integers(-4, 4)): GaussRational(Fraction(draw(st.integers(1, 5)), 3))})
    return LaurentFrac(num, den)


@settings(max_examples=200, deadline=None)
@given(reduced_fractions())
def test_negation_and_inverse_skip_only_the_redundant_gcd(f):
    # the canonical parts are coprime, so the full constructor would find
    # gcd 1: the shortcut must build the same canonical parts
    neg = -f
    full_neg = LaurentFrac(-f.num, f.den)
    assert neg.key() == full_neg.key()
    if not f.is_zero():
        inv = f.inverse()
        full_inv = LaurentFrac(f.den, f.num)
        assert inv.key() == full_inv.key()
        assert inv * f == LaurentFrac.one()


@settings(max_examples=60, deadline=None)
@given(pooled_fraction_pairs())
def test_henrici_sum_and_product_equal_the_multiplied_out_fractions(pair):
    a, b = pair
    for y in (b, *cancelling_partners(a)):
        assert (a + y).key() == LaurentFrac(a.num * y.den + y.num * a.den, a.den * y.den).key()
        assert (a * y).key() == LaurentFrac(a.num * y.num, a.den * y.den).key()


class TestHenriciCost:
    def test_same_denominator_sum_runs_one_gcd_no_longer_than_the_denominator(self, monkeypatch):
        den = HalfLaurent({0: GaussRational(1), 2: GaussRational(1), 4: GaussRational(1)})
        a = LaurentFrac(HalfLaurent.one(), den)
        b = LaurentFrac(HalfLaurent.t_power(1), den)
        calls = []
        gcd = scalars.poly_gcd
        monkeypatch.setattr(scalars, "poly_gcd", lambda x, y: calls.append((x, y)) or gcd(x, y))
        total = a + b
        assert len(calls) <= 1
        for operand in (p for call in calls for p in call):
            assert len(operand.coeffs) <= len(den.coeffs) and operand.degree() <= den.degree()
        assert total.key() == LaurentFrac(HalfLaurent({0: GaussRational(1), 1: GaussRational(1)}), den).key()

    def test_canonical_denominator_inverts_its_leading_coefficient_once(self, monkeypatch):
        calls = []
        inverse = GaussRational.inverse
        monkeypatch.setattr(GaussRational, "inverse", lambda c: calls.append(c) or inverse(c))
        half = LaurentFrac(HalfLaurent.one(), HalfLaurent({0: GaussRational(2)}))
        assert len(calls) == 1
        third = LaurentFrac(HalfLaurent({0: GaussRational(3)})).inverse()
        assert len(calls) == 2
        assert half.key() == LaurentFrac(HalfLaurent({0: GaussRational(Fraction(1, 2))})).key()
        assert third.key() == LaurentFrac(HalfLaurent({0: GaussRational(Fraction(1, 3))})).key()

    def test_product_of_monomial_numerators_runs_no_division(self, monkeypatch):
        one_plus_t2, t_minus_2, _ = DEN_FACTORS
        a = LaurentFrac(HalfLaurent.t_power(2), one_plus_t2)
        b = LaurentFrac(HalfLaurent({1: GaussRational(3)}), t_minus_2)
        calls = []
        divmod_ = scalars._poly_divmod
        monkeypatch.setattr(scalars, "_poly_divmod", lambda x, y: calls.append((x, y)) or divmod_(x, y))
        product = a * b
        assert calls == []
        assert product.key() == (
            HalfLaurent({3: GaussRational(3)}).key(), (one_plus_t2 * t_minus_2).key()
        )
