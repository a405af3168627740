import cmath
import functools
import itertools
import json
from fractions import Fraction

import pytest

from qclifford import fierz, rewrite
from qclifford.fierz import (
    CONVENTION_COMMUTE,
    CONVENTION_REFLECT,
    KPolynomial,
    LINEAR_RELATIONS,
    bilinear_current,
    braid_residual,
    current_prefactor,
    flip_matrix,
    hecke_residual,
    hecke_rmatrix,
    k_degree,
    kpoly_gcd,
    linear_relation_residuals,
    majorana_components,
    quadratic_identity_report,
    reflection_rules,
    spinor_metric,
    two_spinor_system,
)
from qclifford.cli import main
from qclifford.linalg import Matrix, matmul
from qclifford.qgamma import build_q_gammas, gamma5
from qclifford.rewrite import BudgetExceeded, NCPolynomial
from qclifford.scalars import PointSet, RadicalScalar, q_plus_qinv, qinv, qvar
from qclifford.suites import RunContext, registry

SAMPLES = (0.5, 0.8, 1.3, 1.6, 1.9)


@pytest.fixture(scope="module")
def gs():
    return build_q_gammas()


class TestExchangeMatrix:
    def test_diagonal_sector_entries(self):
        r = hecke_rmatrix()
        assert r[0, 0] == qvar()
        assert r[3, 3] == qvar()
        assert r[1, 1] == qvar() - qinv()
        assert r[1, 2].is_one() and r[2, 1].is_one()

    def test_flip_at_q_equals_one(self):
        assert hecke_rmatrix().map(lambda s: s.at(1)) == flip_matrix()

    def test_hecke_relation_exact(self):
        # oracle for the middle block: char poly x^2 - (q - q^{-1}) x - 1 has
        # roots q and -q^{-1}, so (R - q)(R + q^{-1}) annihilates everything
        assert hecke_residual(hecke_rmatrix()).is_zero()

    def test_braid_relation_exact_on_cube(self):
        assert braid_residual(hecke_rmatrix()).is_zero()


class TestReflectionRules:
    def test_rule_count_is_four(self):
        assert len(reflection_rules(1).rules) == 4

    def test_q1_unit_constant_gives_plain_commutation(self):
        rs = reflection_rules(1)
        for (a, b), rhs in rs.rules.items():
            at_one = NCPolynomial({w: c.at(1) for w, c in rhs.terms.items()})
            assert at_one == NCPolynomial.word((b, a))

    def test_rules_preserve_bilinear_sector(self):
        rs = reflection_rules(Fraction(2, 3))
        for rhs in rs.rules.values():
            for w in rhs.terms:
                assert len(w) == 2
                assert w[0] < 2 <= w[1]

    def test_confluence_outcome_recorded(self):
        # one doublet: every left-hand side is a Z then a Zbar and no rule
        # starts with a Zbar, so no two rules overlap; two doublets overlap,
        # and reading the quadratic identity's k-dependence off the k-grading
        # needs their normal forms unique
        for k in (1, Fraction(3, 5)):
            assert rewrite.local_confluence_check(reflection_rules(k)) == []
            for convention in (CONVENTION_COMMUTE, CONVENTION_REFLECT):
                rs = two_spinor_system(k, convention)
                assert rewrite.local_confluence_check(rs) == [], (k, convention)

    @pytest.mark.parametrize("convention", [CONVENTION_COMMUTE, CONVENTION_REFLECT])
    def test_only_reflecting_pairs_carry_k(self, convention):
        # the k-grading invariant, rule by rule: a rule scales by k exactly
        # when its left-hand side has k-degree one, and its right-hand side
        # is normal-ordered with respect to the grading
        k = Fraction(3, 5)
        at_k = two_spinor_system(k, convention).rules
        at_one = two_spinor_system(1, convention).rules
        assert at_k.keys() == at_one.keys()
        for lhs, rhs in at_k.items():
            d = k_degree(lhs, convention)
            assert rhs == at_one[lhs].scale(k**d), lhs
            assert all(k_degree(w, convention) == 0 for w in rhs.terms), lhs
        assert sum(k_degree(lhs, convention) for lhs in at_k) == 4 * len(
            fierz.reflecting_pairs(convention)
        )

    def test_k_degree_counts_reflecting_pairs(self):
        z11, z21 = fierz._zed(1)[0], fierz._zed(2)[0]
        zb11, zb21 = fierz._zbar(1)[0], fierz._zbar(2)[0]
        for convention in (CONVENTION_COMMUTE, CONVENTION_REFLECT):
            assert k_degree((zb11, zb21, z11, z21), convention) == 0
        assert k_degree((z11, zb11, z21, zb21), CONVENTION_COMMUTE) == 2
        assert k_degree((z11, zb11, z21, zb21), CONVENTION_REFLECT) == 3
        assert k_degree((z11, z21, zb11, zb21), CONVENTION_COMMUTE) == 2
        assert k_degree((z11, z21, zb11, zb21), CONVENTION_REFLECT) == 4
        with pytest.raises(ValueError, match="unknown convention"):
            k_degree((z11, zb11), "no_such_convention")

    @pytest.mark.parametrize("k", [1, Fraction(3, 5)], ids=["k=1", "k=3/5"])
    def test_exchange_coefficients_match_the_index_sum(self, k):
        # oracle: rule (i, l) has coefficient
        # k sum_{j, i'} eps^{-1}[l, j] R[(i, j), (i', j')] eps[i', m] on Zbar^m Z^j'
        k = RadicalScalar.constant(k)
        r, eps = hecke_rmatrix(), spinor_metric()
        eps_inv = eps.inverse()
        coeffs = fierz._exchange_coefficients(k)
        for i, l, m, jp in itertools.product(range(2), repeat=4):
            expected = RadicalScalar.zero()
            for j in range(2):
                for ip in range(2):
                    expected = expected + k * eps_inv[l, j] * r[2 * i + j, 2 * ip + jp] * eps[ip, m]
            assert coeffs[2 * i + l, 2 * m + jp] == expected, (i, l, m, jp)

    def test_metric_is_invertible(self):
        eps = spinor_metric()
        assert matmul(eps, eps.inverse()) == Matrix.identity(2)


class TestCurrents:
    def test_prefactor_square_bookkeeping(self):
        # J^2 carries (1/(q sqrt(Q)))^2 = 1/(q^2 Q) exactly
        pref = current_prefactor()
        assert pref * pref == (qvar() ** 2 * q_plus_qinv()).inverse()

    def test_scalar_current_has_four_terms(self):
        rs = two_spinor_system(1, CONVENTION_COMMUTE)
        bar = majorana_components(1)
        ket = majorana_components(2)
        j = rs.normal_form(bilinear_current(Matrix.identity(4), bar, ket))
        assert 0 < len(j.terms) <= 4
        for w in j.terms:
            assert len(w) == 2

    def test_residual_degree_at_most_four(self, gs):
        k_dependence = quadratic_identity_report(gs, CONVENTION_COMMUTE)
        for w in k_dependence:
            assert len(w) <= 4
        assert all(poly.degree() < 4 for poly in k_dependence.values())

    @staticmethod
    def _sandwiches(gs):
        # the five current families: scalar, vector, pseudoscalar, and
        # products of two and three deformed gammas
        g = {**gs, "5": gamma5(gs)}
        for indices in ("", "0", "5", "03", "5+", "0+3", "+-3"):
            sandwich = Matrix.identity(4)
            for label in indices:
                sandwich = matmul(sandwich, g[label])
            yield sandwich

    def test_all_five_current_families_constructible(self, gs):
        rs = two_spinor_system(1, CONVENTION_COMMUTE)
        bar = majorana_components(1)
        ket = majorana_components(2)
        for sandwich in self._sandwiches(gs):
            j = rs.normal_form(bilinear_current(sandwich, bar, ket))
            assert all(len(w) == 2 for w in j.terms)

    @pytest.mark.parametrize("convention", [CONVENTION_COMMUTE, CONVENTION_REFLECT])
    def test_bilinear_current_is_already_in_normal_form(self, gs, convention):
        # the normal-formed current is the sum of the normal-formed products
        # bar[a] * ket[b], and normal-forming it again changes nothing
        rs = two_spinor_system(Fraction(3, 5), convention)
        bar = majorana_components(1)
        ket = majorana_components(2)
        for sandwich in self._sandwiches(gs):
            j = rs.normal_form(bilinear_current(sandwich, bar, ket))
            by_product = NCPolynomial.zero()
            for a in range(4):
                for b in range(4):
                    by_product = by_product + rs.multiply(bar[a], ket[b]).scale(sandwich[a, b])
            assert j == by_product.scale(current_prefactor())
            assert rs.normal_form(j) == j


class TestLinearRelations:
    def test_seven_relations(self, gs):
        results = linear_relation_residuals(gs)
        assert len(results) == 7

    def test_engine_matches_float_oracle_classification(self, gs, np):
        results = linear_relation_residuals(gs)

        def oracle(q):
            Q = q + 1 / q
            rqQ = cmath.sqrt(q * Q)
            rQ = cmath.sqrt(Q)
            g0 = np.array(
                [[0, 0, q**2, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]],
                dtype=complex,
            )
            gp = rqQ * np.array(
                [[0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]],
                dtype=complex,
            )
            gm = rQ * np.array(
                [
                    [0, 0, 0, q**-1.5],
                    [0, 0, 0, 0],
                    [0, 0, 0, 0],
                    [-(q**1.5), 0, 0, 0],
                ],
                dtype=complex,
            )
            g3 = np.array(
                [
                    [0, 0, 1 / q + q - q**2, 0],
                    [0, 0, 0, -(q**-2.0)],
                    [-1, 0, 0, 0],
                    [0, q**2, 0, 0],
                ],
                dtype=complex,
            )
            return {"0": g0, "+": gp, "-": gm, "3": g3, "5": g0 @ gp @ gm @ g3}

        # each relation's scale, re-entered from its name
        scales = {
            "J53 = -q^2 J50": lambda q: -q * q,
            "J0- = -J+3": lambda q: -1.0,
            "J35 = J05": lambda q: 1.0,
            "J-0 = q^-2 J3+": lambda q: 1 / (q * q),
            "J0+ = q^2 J-3": lambda q: q * q,
            "J5+ = J+-": lambda q: 1.0,
            "J+0 = -J3-": lambda q: -1.0,
        }
        for qv in SAMPLES:
            mats = oracle(qv)
            for (name, lhs, _, rhs), residual in zip(LINEAR_RELATIONS, results):
                o_res = mats[lhs[0]] @ mats[lhs[1]] - scales[name](qv) * (
                    mats[rhs[0]] @ mats[rhs[1]]
                )
                o_norm = float(np.max(np.abs(o_res)))
                e_norm = float(np.max(np.abs(residual.evaluate(PointSet([qv]))[0])))
                assert abs(o_norm - e_norm) < 1e-9, name
                # identical pass/fail classification at this sample
                assert (o_norm < 1e-9) == (e_norm < 1e-9), name

    def test_classification_matches_exact_zero_test(self, gs, np):
        for residual in linear_relation_residuals(gs):
            norms = [float(np.max(np.abs(residual.evaluate(PointSet([qv]))[0]))) for qv in SAMPLES]
            if residual.is_zero():
                assert max(norms) < 1e-12
            else:
                assert max(norms) > 1e-9

    def test_checks_count_the_relations_they_read(self, monkeypatch, tmp_path):
        # two tautologies, one scaled wrongly: the exact check and the oracle
        # read the same table, whatever its length
        row = ("J0+ = J0+", ("0", "+"), lambda q: 1, ("0", "+"))
        monkeypatch.setattr(fierz, "LINEAR_RELATIONS", (row, (*row[:2], lambda q: 2, row[3])))
        out = tmp_path / "fierz.json"
        argv = ["verify", "--suite", "fierz", "--mode", "both", "--seed", "7", "--format", "json"]
        assert main([*argv, "--out", str(out)]) == 0
        checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
        linear = checks["fierz.linear_relations"]
        assert linear["details"] == {"holding_exactly": ["J0+ = J0+"], "relations": 2}
        assert linear["witness"] == "1 of 2 hold exactly" and linear["mismatch"]
        assert checks["fierz.linear_relations_oracle"]["status"] == "pass"


def _gcd(k_dependence) -> KPolynomial:
    """The gcd of every word's polynomial in k."""
    return functools.reduce(kpoly_gcd, k_dependence.values(), KPolynomial([]))


def _vanishes_at_one(k_dependence) -> bool:
    """Whether the identity vanishes at k = 1: every coefficient sum is zero."""
    return all(sum(p.coeffs, RadicalScalar.zero()).is_zero() for p in k_dependence.values())


class TestQuadraticIdentity:
    def test_completes_under_budget_for_both_conventions(self, gs):
        for convention in (CONVENTION_COMMUTE, CONVENTION_REFLECT):
            k_dependence = quadratic_identity_report(gs, convention)
            # only surviving words, in (length, word) order
            assert list(k_dependence) == sorted(k_dependence, key=lambda w: (len(w), w))
            assert not any(poly.is_zero() for poly in k_dependence.values())

    def test_budget_is_enforced(self, gs, monkeypatch):
        monkeypatch.setattr(rewrite, "STEP_BUDGET", 3)
        with pytest.raises(BudgetExceeded):
            quadratic_identity_report(gs, CONVENTION_COMMUTE)

    def test_k_analysis_is_deterministic(self, gs):
        r1 = quadratic_identity_report(gs, CONVENTION_COMMUTE)
        r2 = quadratic_identity_report(gs, CONVENTION_COMMUTE)
        assert [(w, p.render()) for w, p in r1.items()] == [(w, p.render()) for w, p in r2.items()]
        assert _gcd(r1).render() == _gcd(r2).render()

    @pytest.mark.parametrize("swap_roles", [False, True])
    @pytest.mark.parametrize("convention", [CONVENTION_COMMUTE, CONVENTION_REFLECT])
    def test_k_grading_matches_reduction_at_k(self, gs, convention, swap_roles):
        # oracle: reduce the identity in the system at k itself, normal-forming
        # each current and multiplying normal forms; word by word it must equal
        # sum_d k^d (coefficient of k^d) read from the report
        k_dependence = quadratic_identity_report(gs, convention, swap_roles)
        bar, ket = (majorana_components(s) for s in ((2, 1) if swap_roles else (1, 2)))
        sandwiches = (Matrix.identity(4), matmul(gs["0"], gs["3"]), gamma5(gs))
        q = qvar()
        assert any(poly.degree() > 0 for poly in k_dependence.values())
        for k in (Fraction(3, 5), Fraction(2), Fraction(-1, 2)):
            rs = two_spinor_system(k, convention)
            j, j_03, j_5 = (rs.normal_form(bilinear_current(m, bar, ket)) for m in sandwiches)
            direct = rs.normal_form(
                rs.multiply(j, j).scale(q**4)
                - rs.multiply(j_03, j_03)
                - rs.multiply(j_5, j_5).scale(q_plus_qinv() * (RadicalScalar.one() - q**-4))
            )
            graded = {}
            for w, poly in k_dependence.items():
                graded[w] = RadicalScalar.zero()
                for d, c in enumerate(poly.coeffs):
                    graded[w] = graded[w] + c * RadicalScalar.constant(k**d)
            assert direct == NCPolynomial(graded), k

    def test_one_system_build_per_report(self, gs, monkeypatch):
        calls = []
        build = fierz.two_spinor_system

        def counting_build(k, convention):
            calls.append((k, convention))
            return build(k, convention)

        monkeypatch.setattr(fierz, "two_spinor_system", counting_build)
        for convention in (CONVENTION_COMMUTE, CONVENTION_REFLECT):
            calls.clear()
            quadratic_identity_report(gs, convention)
            assert calls == [(1, convention)]

    def test_relabeling_invariance_under_commuting_convention(self, gs):
        plain = quadratic_identity_report(gs, CONVENTION_COMMUTE)
        swapped = quadratic_identity_report(gs, CONVENTION_COMMUTE, swap_roles=True)
        assert _vanishes_at_one(plain) == _vanishes_at_one(swapped)
        assert _gcd(plain).render() == _gcd(swapped).render()
        assert len(plain) == len(swapped)

    @staticmethod
    def _check(monkeypatch, k_dependence):
        """The convention-a check's report when the identity's k-dependence
        is ``k_dependence``."""
        monkeypatch.setattr(fierz, "quadratic_identity_report", lambda gs, convention: k_dependence)
        check = next(c for c in registry() if c.check_id == "fierz.quadratic.convention_a")
        return check.fn(RunContext(mode="exact"))

    # every golden report has gcd degree 0 and no k root: these are the
    # branches that none of them reaches
    def test_check_reads_a_linear_gcd_as_its_root(self, monkeypatch):
        one, root = RadicalScalar.one(), RadicalScalar.constant(Fraction(3, 5))
        # k - 3/5 and (k - 3/5)(k + 1) = k^2 + (2/5) k - 3/5
        linear = KPolynomial([-root, one])
        quadratic = KPolynomial([-root, one - root, one])
        r = self._check(monkeypatch, {(0, 4): linear, (1, 3, 5, 7): quadratic})
        assert r.details == {"nonzero_words": 2, "gcd_degree": 1, "k_roots": ["3/5"]}
        # the values at k = 1 are 2/5 and 4/5
        assert r.residual_max == "0.8"
        assert r.witness.startswith("Zb1.1*Z1.1 -> ") and "; Zb1.2*Zb2.2*Z1.2*Z2.2 -> " in r.witness

    def test_check_of_an_identity_that_vanishes_for_every_k(self, monkeypatch):
        r = self._check(monkeypatch, {})
        assert r.details == {"nonzero_words": 0, "gcd_degree": None, "k_roots": []}
        assert r.residual_max == "0.0" and r.witness == ""

    def test_k_polynomial_gcd_helper(self):
        one = RadicalScalar.one()
        # gcd of (k+1)(k-1) and (k-1) is k-1 after monic normalization
        p = KPolynomial([-(one), RadicalScalar.zero(), one])
        r = KPolynomial([-(one), one])
        g = kpoly_gcd(p, r)
        assert g.degree() == 1
        # monic: k - 1
        assert g.coeffs[1].is_one()
        assert (g.coeffs[0] + one).is_zero()
