import itertools
import random

import pytest

from conftest import random_light_scalar
from qclifford import rewrite
from qclifford.presentations import GL_NAMES, build_glq2
from qclifford.rewrite import (
    BudgetExceeded,
    NCPolynomial,
    NonTerminating,
    RewriteSystem,
    local_confluence_check,
)
from qclifford.scalars import qinv, qvar


@pytest.fixture(scope="module")
def gl():
    return build_glq2().rs


class TestNormalForm:
    def test_single_swap_rule(self, gl):
        # a12 a11 -> q^{-1} a11 a12
        nf = gl.normal_form(NCPolynomial.word((1, 0)))
        assert nf == NCPolynomial.word((0, 1), qinv())

    def test_commuting_off_diagonal_pair(self, gl):
        assert gl.normal_form(NCPolynomial.word((2, 1))) == NCPolynomial.word((1, 2))

    def test_diagonal_pair_expands_with_correction_term(self, gl):
        q, qi = qvar(), qinv()
        nf = gl.normal_form(NCPolynomial.word((3, 0)))
        assert nf == NCPolynomial.word((0, 3)) + NCPolynomial.word((1, 2), -(q - qi))

    def test_idempotent(self, gl):
        p = NCPolynomial.word((3, 2, 1, 0))
        once = gl.normal_form(p)
        assert gl.normal_form(once) == once

    def test_budget_exceeded(self, gl, monkeypatch):
        monkeypatch.setattr(rewrite, "STEP_BUDGET", 2)
        with pytest.raises(BudgetExceeded):
            gl.normal_form(NCPolynomial.word((3, 3, 0, 0)))


class TestMultiply:
    def test_already_normal_product(self, gl):
        got = gl.multiply(NCPolynomial.gen(0), NCPolynomial.gen(1))
        assert got == NCPolynomial.word((0, 1))

    def test_disordered_product_rewrites(self, gl):
        got = gl.multiply(NCPolynomial.gen(1), NCPolynomial.gen(0))
        assert got == NCPolynomial.word((0, 1), qinv())

    def test_unit_is_neutral(self, gl):
        rng = random.Random(21)
        for _ in range(20):
            w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 5)))
            p = gl.normal_form(NCPolynomial.word(w, random_light_scalar(rng)))
            assert gl.multiply(NCPolynomial.unit(), p) == p

    def test_multiply_equals_normal_form_of_concatenation(self, gl):
        rng = random.Random(22)
        for _ in range(200):
            w1 = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
            w2 = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
            p = NCPolynomial.word(w1, random_light_scalar(rng))
            r = NCPolynomial.word(w2, random_light_scalar(rng))
            direct = gl.multiply(p, r)
            concat = NCPolynomial(
                {
                    u + v: cu * cv
                    for u, cu in p.terms.items()
                    for v, cv in r.terms.items()
                }
            )
            assert direct == gl.normal_form(concat)

    def test_multiplication_is_associative_on_normal_forms(self, gl):
        rng = random.Random(23)
        for _ in range(50):
            ps = [
                NCPolynomial.word(
                    tuple(rng.randrange(4) for _ in range(rng.randint(1, 3)))
                )
                for _ in range(3)
            ]
            a, b, c = ps
            assert gl.multiply(gl.multiply(a, b), c) == gl.multiply(a, gl.multiply(b, c))


class TestTensorPower:
    def test_cross_slot_letters_commute(self, gl):
        t2 = gl.tensor_power(2)
        left_then_right = t2.multiply(NCPolynomial.gen(0), NCPolynomial.gen(4 + 1))
        right_then_left = t2.multiply(NCPolynomial.gen(4 + 1), NCPolynomial.gen(0))
        assert left_then_right == right_then_left == NCPolynomial.word((0, 5))

    def test_slot_keeps_original_relations(self, gl):
        t2 = gl.tensor_power(2)
        got = t2.multiply(NCPolynomial.gen(1), NCPolynomial.gen(0))
        assert got == NCPolynomial.word((0, 1), qinv())
        got_right = t2.multiply(NCPolynomial.gen(4 + 1), NCPolynomial.gen(4 + 0))
        assert got_right == NCPolynomial.word((4, 5), qinv())


class TestTermination:
    def test_rules_must_descend(self):
        with pytest.raises(NonTerminating):
            RewriteSystem(("a", "b"), {(0, 1): NCPolynomial.word((0, 1))})

    def test_degree_homogeneous_rules(self, gl):
        for rhs in gl.rules.values():
            assert all(len(w) == 2 for w in rhs.terms)

    def test_every_word_to_length_six_terminates(self, gl):
        for w in gl.iter_words(6):
            gl.normal_form(NCPolynomial.word(w))


def sweep_confluence_failures(rs: RewriteSystem, max_len: int = 4) -> list:
    """Reference: every word up to max_len, reduced once at each redex; the
    words whose reducts reach different normal forms."""
    failures = []
    for length in range(2, max_len + 1):
        for w in itertools.product(range(rs.size), repeat=length):
            forms = []
            for i in range(length - 1):
                rhs = rs.rules.get(w[i : i + 2])
                if rhs is not None:
                    reduct = {w[:i] + rw + w[i + 2 :]: c for rw, c in rhs.terms.items()}
                    forms.append(rs.normal_form(NCPolynomial(reduct)))
            if any(f != forms[0] for f in forms[1:]):
                failures.append(w)
    return failures


def _glq2_scaled(lhs) -> RewriteSystem:
    """glq2 with the right-hand side of one rule doubled."""
    rules = dict(build_glq2().rs.rules)
    rules[lhs] = rules[lhs].scale(2)
    return RewriteSystem(GL_NAMES, rules)


class TestLocalConfluence:
    def test_quantum_matrix_rules_are_confluent_to_length_four(self, gl):
        assert local_confluence_check(gl) == []
        assert sweep_confluence_failures(gl) == []

    def test_single_rule_system_has_no_overlaps(self):
        rs = RewriteSystem(("a", "b"), {(1, 0): NCPolynomial.word((0, 1))})
        assert local_confluence_check(rs) == []

    @pytest.mark.parametrize("lhs", [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)])
    def test_doubling_a_rule_breaks_an_overlap(self, lhs):
        failures = local_confluence_check(_glq2_scaled(lhs))
        assert failures and set(failures) <= {(3, 1, 0), (3, 2, 0)}, failures

    def test_doubling_the_correction_rule_keeps_confluence(self):
        # the coefficient of a12 a21 in a22 a11 -> a11 a22 + c a12 a21 is
        # free: every overlap rejoins whatever c is
        assert local_confluence_check(_glq2_scaled((3, 0))) == []

    @pytest.mark.parametrize("lhs", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_agrees_with_the_exhaustive_sweep(self, lhs):
        rs = _glq2_scaled(lhs)
        swept = sweep_confluence_failures(rs)
        critical = local_confluence_check(rs)
        # the critical words are exactly the length-3 words with two redexes,
        # and a longer failing word implies a failing critical word
        assert critical == [w for w in swept if len(w) == 3]
        assert bool(critical) == bool(swept)
