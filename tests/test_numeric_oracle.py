"""The plain-Python float helpers of ``linalg`` and the bare-relation
decision against numpy as an oracle.  Every test takes the ``np`` fixture,
so the module collects without numpy and only its tests skip."""

import random

import pytest

from qclifford import qgamma
from qclifford.linalg import (
    Matrix,
    Sized,
    cadd,
    cidentity,
    cmatmul,
    cscale,
    csub,
    solve_exact,
)
from qclifford.qgamma import bare_relation_system, build_metric, build_q_gammas
from qclifford.scalars import PointSet, RadicalScalar
from qclifford.suites import CROSS_CHECK_TOL, RunContext, registry

# 32 evenly spaced points of [0.2, 4] plus the classical point q = 1
Q_VALUES = sorted({1.0, *(0.2 + 3.8 * k / 31 for k in range(32))})

# the target entry the infeasible control raises by exactly 1: pair (+, +),
# entry (0, 3)
PERTURBED = (5, 3)


def _random_matrix(rng, n):
    return [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [2, 4])
def test_complex_helpers_match_numpy(np, n):
    rng = random.Random(n)
    for _ in range(50):
        a, b = _random_matrix(rng, n), _random_matrix(rng, n)
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        na, nb = np.array(a), np.array(b)
        for got, want in (
            (cmatmul(a, b), na @ nb),
            (cadd(a, b), na + nb),
            (csub(a, b), na - nb),
            (cscale(c, a), c * na),
            (cidentity(n), np.eye(n)),
        ):
            assert np.max(np.abs(np.array(got) - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_sized_products_carry_the_sums_of_absolute_terms(np, n):
    # over Sized entries the helpers give the plain values, and as sizes the
    # same expression over the absolute values
    rng = random.Random(n)
    for _ in range(20):
        a, b = _random_matrix(rng, n), _random_matrix(rng, n)
        sa, sb = ([list(map(Sized, row)) for row in m] for m in (a, b))
        got = csub(cmatmul(sa, sb), cmatmul(sb, sa))
        assert [[x.v for x in row] for row in got] == csub(cmatmul(a, b), cmatmul(b, a))
        na, nb = np.abs(np.array(a)), np.abs(np.array(b))
        assert np.max(np.abs(np.array([[x.s for x in row] for row in got]) - (na @ nb + nb @ na))) < 1e-12


@pytest.fixture(scope="module")
def gs():
    return build_q_gammas()


@pytest.fixture(scope="module")
def qm():
    return build_metric()


def _numpy_system(np, gs, qm, q):
    """The bare-relation coefficient matrix and its 16 targets at q, built with numpy."""
    mats = [np.asarray(m.evaluate(PointSet([q]))[0]) for m in gs.values()]
    cinv = np.asarray(qm.c_inverse.evaluate(PointSet([q]))[0])
    pref = (1.0 / q) * (q + 1.0 / q)
    coeff = np.array([(q * mats[a] @ mats[b]).reshape(-1) for a in range(4) for b in range(4)]).T
    targets = np.array([
        (pref * cinv[mu, nu] * np.eye(4) - mats[mu] @ mats[nu]).reshape(-1)
        for mu in range(4)
        for nu in range(4)
    ])
    return coeff, targets


def _lstsq_residual(np, coeff, b):
    sol, *_ = np.linalg.lstsq(coeff, b, rcond=None)
    return float(np.linalg.norm(coeff @ sol - b))


def _at(np, m: Matrix, q):
    return np.asarray(m.evaluate(PointSet([q]))[0])


def test_bare_coefficient_matrix_has_rank_8(np, gs, qm):
    # at every point the numpy system has rank 8 and is the exact system
    # evaluated there
    system = bare_relation_system(gs, qm)
    assert len(Q_VALUES) >= 30 and 1.0 in Q_VALUES
    for q in Q_VALUES:
        coeff, targets = _numpy_system(np, gs, qm, q)
        assert np.linalg.matrix_rank(coeff) == 8, q
        scale = max(np.max(np.abs(coeff)), np.max(np.abs(targets)))
        assert np.max(np.abs(_at(np, system.coeff, q) - coeff)) <= 1e-14 * scale, q
        assert np.max(np.abs(_at(np, system.targets, q) - targets)) <= 1e-14 * scale, q


def test_generic_solution_solves_the_system_at_every_point(np, gs, qm):
    # the exact generic solution, evaluated, solves each numpy system within
    # the componentwise bound |A x - b| <= tol (|A| |x| + |b|)
    generic = bare_relation_system(gs, qm).solve()
    assert generic.solvable
    for q in Q_VALUES:
        coeff, targets = _numpy_system(np, gs, qm, q)
        x = _at(np, generic.witness, q)
        for b, xp in zip(targets, x):
            residual = np.abs(coeff @ xp - b)
            assert np.all(residual <= CROSS_CHECK_TOL * (np.abs(coeff) @ np.abs(xp) + np.abs(b))), q


def test_perturbed_target_leaves_a_residual(np, gs, qm, monkeypatch):
    # one target entry raised by exactly 1 is infeasible at generic q, leaves
    # a least-squares residual at every point, and makes the check mismatch
    system = bare_relation_system(gs, qm)
    pair, entry = PERTURBED
    data = list(system.targets.data)
    data[16 * pair + entry] = data[16 * pair + entry] + RadicalScalar.one()
    perturbed = qgamma.BareSystem(system.coeff, Matrix(16, 16, data))
    [(ok, solution)] = solve_exact(perturbed.coeff, [perturbed.targets.row(pair)])
    assert not ok and solution is None
    for q in Q_VALUES:
        coeff, targets = _numpy_system(np, gs, qm, q)
        b = targets[pair].copy()
        b[entry] += 1
        assert _lstsq_residual(np, coeff, b) >= 1e-3, q
    monkeypatch.setattr(qgamma, "bare_relation_system", lambda gs, qm: perturbed)
    (check,) = [c for c in registry() if c.check_id == "qgamma.bare_relation_solve"]
    report = check.fn(RunContext(mode="both", seed=7))
    assert not report.details["generic_q_solvable"]
    assert report.mismatch
