import cmath

import pytest

from qclifford import qgamma
from qclifford.linalg import Matrix, matmul, max_abs_at_points
from qclifford.qgamma import (
    ALL_CONVENTIONS,
    FLIP,
    ActionConvention,
    bare_relation_system,
    build_metric,
    build_q_gammas,
    deformed_metric,
    deformed_metric_blade_oracle,
    deformed_metric_target,
    gamma5,
)
from qclifford.scalars import (
    PointSet,
    RadicalScalar,
    q_half,
    q_plus_qinv,
    qinv,
    qvar,
    sqrt,
)
from qclifford.report import format_float
from qclifford.suites import RunContext, registry

SAMPLES = (0.5, 0.8, 1.3, 1.6, 1.9)


def oracle_gammas(q: complex):
    """Float re-entry of the deformed gamma entries, independent of the engine."""
    import numpy as np  # callers take the ``np`` fixture, which skips without it

    Q = q + 1.0 / q
    rqQ = cmath.sqrt(q * Q)
    rQ = cmath.sqrt(Q)
    g0 = np.array(
        [[0, 0, q**2, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    gp = rqQ * np.array(
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    gm = rQ * np.array(
        [[0, 0, 0, q**-1.5], [0, 0, 0, 0], [0, 0, 0, 0], [-(q**1.5), 0, 0, 0]],
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
    return [g0, gp, gm, g3]


def oracle_metric(q: complex):
    import numpy as np  # callers take the ``np`` fixture, which skips without it

    return np.array(
        [
            [0, 0, 0, 1 / q],
            [0, -1 + q**-2.0, -1 / q, 0],
            [0, -1 / q, 0, 0],
            [q, 0, 0, 0],
        ],
        dtype=complex,
    )


@pytest.fixture(scope="module")
def gs():
    return build_q_gammas()


@pytest.fixture(scope="module")
def qm():
    return build_metric()


class TestTranscription:
    def test_ten_pinned_gamma_entries(self, gs):
        q = qvar()
        Q = q_plus_qinv()
        one = RadicalScalar.one()
        assert gs["0"][0, 2] == q**2
        assert gs["0"][1, 3] == -one
        assert gs["0"][2, 0] == -one
        assert gs["0"][3, 1] == -one
        assert gs["+"][0, 3] == sqrt(q * Q)
        assert gs["+"][2, 1] == -sqrt(q * Q)
        assert gs["-"][0, 3] == sqrt(Q) * q_half(-3)
        assert gs["-"][3, 0] == -(sqrt(Q) * q_half(3))
        assert gs["3"][0, 2] == qinv() + q - q**2
        assert gs["3"][1, 3] == -(q**-2)

    def test_eight_pinned_metric_entries(self, qm):
        q = qvar()
        assert qm.c[0, 3] == qinv()
        assert qm.c[1, 1] == -RadicalScalar.one() + q**-2
        assert qm.c[1, 2] == -qinv()
        assert qm.c[2, 1] == -qinv()
        assert qm.c[3, 0] == q
        assert qm.c[0, 0].is_zero()
        assert qm.c[2, 2].is_zero()
        assert qm.c[3, 3].is_zero()

    def test_matrices_match_float_oracle_at_samples(self, gs, np):
        for qv in SAMPLES:
            for engine, oracle in zip(gs.values(), oracle_gammas(qv)):
                assert np.max(np.abs(engine.evaluate(PointSet([qv]))[0] - oracle)) < 1e-12


class TestExactIdentities:
    def test_gamma_plus_squares_to_zero(self, gs):
        assert matmul(gs["+"], gs["+"]).is_zero()

    @pytest.mark.parametrize("mode", ["exact", "both"])
    def test_a_failing_square_names_the_points_it_measured(self, gs, mode):
        (check,) = [c for c in registry() if c.check_id == "qgamma.gamma_plus_square_zero"]
        ctx = RunContext(mode=mode, seed=7)
        assert check.fn(ctx).q_values == []
        # gamma0 squares to a nonzero matrix, so the check measures it
        ctx.gammas = {**gs, "+": gs["0"]}
        report = check.fn(ctx)
        assert report.status == "fail" and float(report.residual_max) > 0.0
        assert report.q_values == ctx.q_values_field
        assert len(report.q_values) == (0 if mode == "exact" else ctx.q_samples)

    def test_metric_inverse_is_exact(self, qm):
        assert matmul(qm.c, qm.c_inverse) == Matrix.identity(4)

    def test_metric_inverse_matches_numeric_inverse(self, qm, np):
        for qv in SAMPLES:
            numeric = np.linalg.inv(oracle_metric(qv))
            assert np.max(np.abs(qm.c_inverse.evaluate(PointSet([qv]))[0] - numeric)) < 1e-10


class TestGamma5:
    def test_q1_value_matches_direct_product_oracle(self, gs, np):
        g5_at_1 = gamma5(gs).map(lambda s: s.at(1))
        oracle = oracle_gammas(1.0)
        ref = oracle[0] @ oracle[1] @ oracle[2] @ oracle[3]
        # the value at q = 1 is a constant matrix, so the evaluation point is arbitrary
        assert np.max(np.abs(g5_at_1.evaluate(PointSet([5.0]))[0] - ref)) < 1e-12

    def test_generic_q_value_matches_direct_product_oracle(self, gs, np):
        g5 = gamma5(gs)
        for qv in SAMPLES:
            oracle = oracle_gammas(qv)
            ref = oracle[0] @ oracle[1] @ oracle[2] @ oracle[3]
            assert np.max(np.abs(g5.evaluate(PointSet([qv]))[0] - ref)) < 1e-11

    def test_nonzero_at_generic_q(self, gs, np):
        g5 = gamma5(gs)
        assert not g5.is_zero()
        assert np.max(np.abs(g5.evaluate(PointSet([1.5]))[0])) > 1e-3

    def test_annihilated_by_raising_gamma(self, gs, np):
        # (gamma+)^2 = 0 forces rank(gamma+ gamma5) <= 2
        g5 = gamma5(gs)
        prod = matmul(gs["+"], g5)
        assert np.linalg.matrix_rank(prod.evaluate(PointSet([1.5]))[0]) <= 2


class TestDeformedMetric:
    def test_symmetric_for_every_convention(self, gs):
        for conv in ALL_CONVENTIONS:
            res = deformed_metric(gs, conv)
            assert res.matrix == res.matrix.transpose()
            assert res.deviation_zero

    def test_blade_oracle_agrees_exactly_and_numerically(self, gs):
        for conv in ALL_CONVENTIONS:
            engine = deformed_metric(gs, conv).matrix
            oracle = deformed_metric_blade_oracle(gs, conv)
            assert engine == oracle
            assert all(v < 1e-10 for v in max_abs_at_points((engine - oracle).data, PointSet(SAMPLES))[0])

    def test_target_matrix_pinned_entries(self):
        target = deformed_metric_target()
        q = qvar()
        Q = q_plus_qinv()
        assert target[0, 0] == Q * q**-3
        assert target[0, 1] == RadicalScalar.one() - q**2
        assert target == target.transpose()

    def test_comparison_against_target_is_deterministic(self, gs):
        for conv in ALL_CONVENTIONS:
            d1 = deformed_metric(gs, conv).matrix - deformed_metric_target()
            d2 = deformed_metric(gs, conv).matrix - deformed_metric_target()
            assert d1 == d2
            assert str(d1) == str(d2)


class TestActionCoefficients:
    # entry (i, j) is 2^(4i + j): all 16 differ, and so do all row sums,
    # column sums, rows and columns
    M = Matrix(4, 4, [RadicalScalar.constant(2**k) for k in range(16)])
    FORMULAS = {
        ActionConvention.ROW_SUM: lambda nu: sum(2 ** (4 * nu + rho) for rho in range(4)),
        ActionConvention.COL_SUM: lambda nu: sum(2 ** (4 * rho + nu) for rho in range(4)),
        ActionConvention.FIXED_ROW: lambda nu: 2**nu,
        ActionConvention.FIXED_COL: lambda nu: 2 ** (4 * nu),
    }

    @pytest.mark.parametrize("conv", ALL_CONVENTIONS)
    def test_each_convention_is_its_index_formula(self, conv):
        # sum_rho m[nu, rho], sum_rho m[rho, nu], m[0, nu] and m[nu, 0]
        expect = [RadicalScalar.constant(self.FORMULAS[conv](nu)) for nu in range(4)]
        assert qgamma.action_coefficients(self.M, conv) == expect


def _is_the_flip_relation(residual: Matrix, gs, qm) -> bool:
    """Whether row (mu, nu) of ``residual`` is, for every pair,
    g_mu g_nu + q g_nu g_mu - q^{-1} Q (C^{-1})_{mu nu} I, built here from
    the gammas and the metric alone."""
    ms = list(gs.values())
    prefactor = qinv() * q_plus_qinv()
    for mu in range(4):
        for nu in range(4):
            lhs = matmul(ms[mu], ms[nu]) + matmul(ms[nu], ms[mu]).scale(qvar())
            rhs = Matrix.identity(4).scale(prefactor * qm.c_inverse[mu, nu])
            if Matrix(4, 4, residual.row(4 * mu + nu)) != lhs - rhs:
                return False
    return True


class TestBareRelation:
    def test_flip_residual_is_the_relation_with_the_flip_for_every_pair(self, gs, qm):
        system = bare_relation_system(gs, qm)
        assert _is_the_flip_relation(system.residual(FLIP), gs, qm)
        # the identity braiding pairs g_mu g_nu with q g_mu g_nu instead
        assert not _is_the_flip_relation(system.residual(Matrix.identity(16)), gs, qm)

    def test_flip_residual_plus_plus_at_q1_matches_oracle(self, gs, qm, np):
        # oracle: 2 (gamma+)^2 - 2 C^{-1}[+,+] I at q = 1, computed in floats
        oracle = oracle_gammas(1.0)
        cinv = np.linalg.inv(oracle_metric(1.0))
        expected = 2 * oracle[1] @ oracle[1] - 2 * cinv[1, 1] * np.eye(4)
        # row 5 is the pair (+, +)
        residual = Matrix(4, 4, bare_relation_system(gs, qm).residual(FLIP).row(5))
        got = residual.map(lambda s: s.at(1)).evaluate(PointSet([2.0]))[0]
        assert np.max(np.abs(got - expected)) < 1e-12
        # and in this case the residual is exactly zero
        assert np.max(np.abs(expected)) < 1e-12

    def test_flip_mismatch_is_decided_by_the_exact_zero_count(self, monkeypatch):
        # a nonzero residual that measures 0.0 at every sample still mismatches
        monkeypatch.setattr(RunContext, "measure", lambda self, values, points=None: 0.0)
        (check,) = [c for c in registry() if c.check_id == "qgamma.bare_relation_flip"]
        report = check.fn(RunContext(mode="exact"))
        assert report.residual_max == format_float(0.0)
        assert report.details["pairs_exactly_zero"] < 16
        assert report.mismatch

    def test_flip_residuals_deterministic(self, gs, qm):
        r1 = bare_relation_system(gs, qm).residual(FLIP)
        r2 = bare_relation_system(gs, qm).residual(FLIP)
        assert r1 == r2

    def test_exact_witness_satisfies_the_system(self, gs, qm):
        exact = bare_relation_system(gs, qm).at(1).solve()
        if not exact.solvable:
            pytest.skip("system infeasible; nothing to substitute")
        mats = [m.map(lambda s: s.at(1)) for m in gs.values()]
        cinv = qm.c_inverse.map(lambda s: s.at(1))
        two = RadicalScalar.constant(2)
        for mu in range(4):
            for nu in range(4):
                total = matmul(mats[mu], mats[nu])
                row = 4 * mu + nu
                for np_ in range(4):
                    for mp in range(4):
                        coeff = exact.witness[row, 4 * np_ + mp]
                        total = total + matmul(mats[np_], mats[mp]).scale(coeff)
                target = Matrix.identity(4).scale(two * cinv[mu, nu])
                assert total == target, (mu, nu)

    def test_generic_witness_satisfies_the_system_exactly(self, gs, qm):
        system = bare_relation_system(gs, qm)
        generic = system.solve()
        assert generic.solvable and generic.infeasible_pairs == []
        assert matmul(system.coeff, generic.witness.transpose()) == system.targets.transpose()
        assert system.coeff.rank() == 8

    def test_each_solution_leaves_a_zero_residual(self, gs, qm):
        # the certificates, read through the method the flip check reads
        system = bare_relation_system(gs, qm)
        s1 = system.at(1)
        assert system.residual(system.solve().witness).is_zero()
        assert s1.residual(s1.solve().witness).is_zero()

    def test_exact_solve_at_q1_is_one_elimination(self, monkeypatch):
        # the check decides all 16 systems by one elimination per field:
        # q = 1, then generic q
        calls = []
        solve = qgamma.solve_exact
        monkeypatch.setattr(qgamma, "solve_exact", lambda a, rhs: calls.append(len(rhs)) or solve(a, rhs))
        (check,) = [c for c in registry() if c.check_id == "qgamma.bare_relation_solve"]
        report = check.fn(RunContext(mode="exact"))
        assert calls == [16, 16]
        assert report.details["exact_q1_solvable"] and report.details["generic_q_solvable"]
        assert not report.mismatch

    def test_a_target_off_only_away_from_q1_is_a_mismatch(self, gs, qm, monkeypatch):
        # raising a target entry of an all-zero coefficient row by q - 1 leaves
        # q = 1 solvable, so only the generic decision can flag the mismatch
        system = bare_relation_system(gs, qm)
        row = next(i for i in range(16) if all(s.is_zero() for s in system.coeff.row(i)))
        data = list(system.targets.data)
        data[5 * 16 + row] = data[5 * 16 + row] + qvar() - RadicalScalar.one()
        off = qgamma.BareSystem(system.coeff, Matrix(16, 16, data))
        monkeypatch.setattr(qgamma, "bare_relation_system", lambda gs, qm: off)
        (check,) = [c for c in registry() if c.check_id == "qgamma.bare_relation_solve"]
        report = check.fn(RunContext(mode="both", seed=7))
        assert report.details["exact_q1_solvable"]
        assert not report.details["generic_q_solvable"]
        assert report.mismatch
        # no certificate, so no float was evaluated and no point is named
        assert report.details["samples_solvable"] == []
        assert report.q_values == []
