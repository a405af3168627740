"""The plain-Python float helpers of ``linalg`` against numpy as an oracle."""

import random

import pytest

from qclifford.linalg import (
    cadd,
    cidentity,
    cmatmul,
    cscale,
    csub,
    max_abs,
    numeric_solve_residuals,
)
from qclifford.qgamma import (
    BARE_SOLVE_TOL,
    bare_relation_solve_numeric,
    build_metric,
    build_q_gammas,
)

np = pytest.importorskip("numpy")

# 32 evenly spaced points of [0.2, 4] plus the classical point q = 1
Q_VALUES = sorted({1.0, *(0.2 + 3.8 * k / 31 for k in range(32))})


def _random_matrix(rng, n):
    return [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [2, 4])
def test_complex_helpers_match_numpy(n):
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
        assert abs(max_abs(a) - np.max(np.abs(na))) < 1e-12


@pytest.fixture(scope="module")
def gs():
    return build_q_gammas()


@pytest.fixture(scope="module")
def qm():
    return build_metric()


def _numpy_system(gs, qm, q):
    """The bare-relation coefficient matrix and its 16 targets at q, built with numpy."""
    mats = [np.asarray(m.evaluate(q)) for m in gs.matrices]
    cinv = np.asarray(qm.c_inverse.evaluate(q))
    pref = (1.0 / q) * (q + 1.0 / q)
    coeff = np.array([(q * mats[a] @ mats[b]).reshape(-1) for a in range(4) for b in range(4)]).T
    targets = [
        (pref * cinv[mu, nu] * np.eye(4) - mats[mu] @ mats[nu]).reshape(-1)
        for mu in range(4)
        for nu in range(4)
    ]
    return coeff, targets


def _lstsq_residual(coeff, b):
    sol, *_ = np.linalg.lstsq(coeff, b, rcond=None)
    return float(np.linalg.norm(coeff @ sol - b))


def test_bare_coefficient_matrix_has_rank_8(gs, qm):
    # so the elimination solver must cope with rank deficiency
    for q in (1.0, 1.5):
        assert np.linalg.matrix_rank(_numpy_system(gs, qm, q)[0]) == 8


def test_bare_solve_agrees_with_lstsq(gs, qm):
    # mixing the rows by an invertible matrix keeps the rank and the
    # solutions, but leaves rounding where elimination of the sparse system
    # leaves exact zeros, so only the mixed systems exercise the pivot cut-off
    rng = np.random.default_rng(0)
    mix = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert len(Q_VALUES) >= 30 and 1.0 in Q_VALUES
    for q in Q_VALUES:
        ok, resid = bare_relation_solve_numeric(gs, qm, q)
        coeff, targets = _numpy_system(gs, qm, q)
        oracle = max(_lstsq_residual(coeff, b) for b in targets)
        assert ok == (oracle < BARE_SOLVE_TOL), q
        assert resid < 1e-9 and oracle < 1e-9, (q, resid, oracle)
        mixed = [mix @ b for b in targets]
        got = numeric_solve_residuals((mix @ coeff).tolist(), [b.tolist() for b in mixed])
        oracle = max(_lstsq_residual(mix @ coeff, b) for b in mixed)
        assert max(got) < 1e-9 and oracle < 1e-9, (q, max(got), oracle)


def test_perturbed_target_leaves_a_residual(gs, qm):
    for q in Q_VALUES:
        coeff, targets = _numpy_system(gs, qm, q)
        b = targets[5].copy()
        b[3] += 1e-3
        assert _lstsq_residual(coeff, b) >= 1e-9, q
        (resid,) = numeric_solve_residuals(coeff.tolist(), [b.tolist()])
        assert resid >= 1e-9, q
