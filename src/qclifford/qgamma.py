"""The deformed gamma matrices, their metric, and the induced metric checks.

The four 4x4 deformed gamma matrices and the metric C are transcribed once
here, as exact functions of q; transcription tests pin individual entries
independently.  The action map that sends deformed gammas to combinations
of classical ones contracts one matrix index in a way its statement leaves
ambiguous, so all four natural contraction conventions are enumerated and
the resulting deformed metric is compared entrywise against the
transcribed target rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .blades import CL31, dirac_matrices
from .linalg import (
    CMatrix,
    Matrix,
    cidentity,
    cmatmul,
    cscale,
    csub,
    kron,
    matmul,
    numeric_solve_residuals,
    solve_exact,
)
from .rewrite import NCPolynomial
from .scalars import (
    RadicalScalar,
    q_half,
    q_plus_qinv,
    qinv,
    qvar,
    sqrt,
)

@dataclass(frozen=True)
class QGammaSet:
    """The four deformed gamma matrices, indexed 0, +, -, 3."""

    gamma0: Matrix
    gamma_plus: Matrix
    gamma_minus: Matrix
    gamma3: Matrix

    @property
    def matrices(self) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        return (self.gamma0, self.gamma_plus, self.gamma_minus, self.gamma3)


@dataclass(frozen=True)
class QMetric:
    c: Matrix
    c_inverse: Matrix


def build_q_gammas() -> QGammaSet:
    """Construct the deformed gamma matrices symbolically in q."""
    q = qvar()
    Q = q_plus_qinv()
    root_qQ = sqrt(q * Q)
    root_Q = sqrt(Q)
    z = RadicalScalar.zero()
    one = RadicalScalar.one()

    gamma0 = Matrix.from_rows(
        [
            [z, z, q**2, z],
            [z, z, z, -one],
            [-one, z, z, z],
            [z, -one, z, z],
        ]
    )
    gamma_plus = Matrix.from_rows(
        [
            [z, z, z, root_qQ],
            [z, z, z, z],
            [z, -root_qQ, z, z],
            [z, z, z, z],
        ]
    )
    gamma_minus = Matrix.from_rows(
        [
            [z, z, z, root_Q * q_half(-3)],
            [z, z, z, z],
            [z, z, z, z],
            [-(root_Q * q_half(3)), z, z, z],
        ]
    )
    gamma3 = Matrix.from_rows(
        [
            [z, z, qinv() + q - q**2, z],
            [z, z, z, -(q**-2)],
            [-one, z, z, z],
            [z, q**2, z, z],
        ]
    )
    return QGammaSet(gamma0, gamma_plus, gamma_minus, gamma3)


def build_metric() -> QMetric:
    """The invariant metric C and its exact inverse."""
    q = qvar()
    z = RadicalScalar.zero()
    c = Matrix.from_rows(
        [
            [z, z, z, qinv()],
            [z, -RadicalScalar.one() + q**-2, -qinv(), z],
            [z, -qinv(), z, z],
            [q, z, z, z],
        ]
    )
    return QMetric(c, c.inverse())


def gamma5(gs: QGammaSet) -> Matrix:
    """Ordered product gamma0 * gamma_plus * gamma_minus * gamma3."""
    return matmul(matmul(matmul(gs.gamma0, gs.gamma_plus), gs.gamma_minus), gs.gamma3)


class ActionConvention(str, Enum):
    """How the spare matrix index of the action map gets contracted."""

    ROW_SUM = "row_sum"
    COL_SUM = "col_sum"
    FIXED_ROW = "fixed_row_0"
    FIXED_COL = "fixed_col_0"


ALL_CONVENTIONS = (
    ActionConvention.ROW_SUM,
    ActionConvention.COL_SUM,
    ActionConvention.FIXED_ROW,
    ActionConvention.FIXED_COL,
)


def action_coefficients(m: Matrix, conv: ActionConvention) -> list[RadicalScalar]:
    """Coefficient vector c_nu extracted from one matrix per convention."""
    n = m.rows
    zero = RadicalScalar.zero()
    if conv is ActionConvention.ROW_SUM:
        out = []
        for nu in range(n):
            s = zero
            for rho in range(n):
                s = s + m[nu, rho]
            out.append(s)
        return out
    if conv is ActionConvention.COL_SUM:
        out = []
        for nu in range(n):
            s = zero
            for rho in range(n):
                s = s + m[rho, nu]
            out.append(s)
        return out
    if conv is ActionConvention.FIXED_ROW:
        return [m[0, nu] for nu in range(n)]
    if conv is ActionConvention.FIXED_COL:
        return [m[nu, 0] for nu in range(n)]
    raise ValueError(conv)


@dataclass
class DeformedMetricResult:
    convention: ActionConvention
    matrix: Matrix
    # max-entry of the non-scalar deviation of each anticommutator; all of
    # these are exactly zero when the image matrices are genuine vectors.
    deviation_zero: bool


def deformed_metric(gs: QGammaSet, conv: ActionConvention) -> DeformedMetricResult:
    """Half the identity coefficient of {A_mu, A_nu} for the image matrices.

    A_mu = sum_nu c_nu(gamma_mu_q) gamma_nu over the classical gamma basis;
    the scalar part is extracted as trace/8 and any deviation from a pure
    multiple of the identity is recorded.  Each of the 16 products
    A_mu A_nu is made once and serves both anticommutators it enters.
    """
    gammas = dirac_matrices()
    images = []
    for m in gs.matrices:
        coeffs = action_coefficients(m, conv)
        a = Matrix.zeros(4, 4)
        for nu in range(4):
            a = a + gammas[nu].scale(coeffs[nu])
        images.append(a)
    products = [[matmul(a, b) for b in images] for a in images]
    entries = []
    deviation_zero = True
    quarter = RadicalScalar.constant(1) / RadicalScalar.constant(4)
    for mu in range(4):
        for nu in range(4):
            ac = products[mu][nu] + products[nu][mu]
            ident_coeff = ac.trace() * quarter
            entries.append(ident_coeff * (RadicalScalar.constant(1) / RadicalScalar.constant(2)))
            if not (ac - Matrix.identity(4).scale(ident_coeff)).is_zero():
                deviation_zero = False
    return DeformedMetricResult(conv, Matrix(4, 4, entries), deviation_zero)


def deformed_metric_blade_oracle(gs: QGammaSet, conv: ActionConvention) -> Matrix:
    """Independent route: expand {A_mu, A_nu} in the Cl(3,1) presentation.

    Each A_mu is the vector sum_nu c_nu e_nu, multiplied by the rewrite
    rules of ``CL31``; no matrix product, anticommutator or trace is used.
    Each of the 16 ordered products A_mu A_nu is made once and serves both
    anticommutators it enters.
    """
    vectors = []
    for m in gs.matrices:
        coeffs = action_coefficients(m, conv)
        vectors.append(NCPolynomial({(nu,): coeffs[nu] for nu in range(4)}))
    products = [[CL31.multiply(u, v) for v in vectors] for u in vectors]
    entries = []
    half = RadicalScalar.constant(1) / RadicalScalar.constant(2)
    zero = RadicalScalar.zero()
    for mu in range(4):
        for nu in range(4):
            ac = products[mu][nu] + products[nu][mu]
            entries.append(ac.terms.get((), zero) * half)
    return Matrix(4, 4, entries)


def deformed_metric_target() -> Matrix:
    """Transcribed reference values for the deformed metric comparison."""
    q = qvar()
    qi = qinv()
    Q = q_plus_qinv()
    one = RadicalScalar.one()
    e01 = one - q**2
    e02 = q - qi
    e03 = one - Q * q**-3 + q**-2
    e12 = q - q**2 + q**3 - q**4
    e13 = q * Q
    e23 = one - q**2 - qi - q**-3
    return Matrix.from_rows(
        [
            [Q * q**-3, e01, e02, e03],
            [e01, Q * q + q**4 - one, e12, e13],
            [e02, e12, Q * (Q - 2 * q**2), e23],
            [e03, e13, e23, -one + q * Q + q**-3 + q**-4],
        ]
    )


def bare_relation_flip_residuals(gs: QGammaSet, qm: QMetric) -> dict[tuple[int, int], Matrix]:
    """Residuals of the defining relation with the braiding replaced by a flip.

    residual(mu, nu) = g_mu g_nu + q g_nu g_mu - q^{-1} Q (C^{-1})_{mu nu} I.
    """
    q = qvar()
    Q = q_plus_qinv()
    prefactor = qinv() * Q
    ident = Matrix.identity(4)
    out = {}
    ms = gs.matrices
    for mu in range(4):
        for nu in range(4):
            lhs = matmul(ms[mu], ms[nu]) + matmul(ms[nu], ms[mu]).scale(q)
            rhs = ident.scale(prefactor * qm.c_inverse[mu, nu])
            out[(mu, nu)] = lhs - rhs
    return out


@dataclass
class BareRelationSolve:
    """Solvability of the relation for unknown braiding coefficients."""

    solvable: bool
    # rows indexed by the (mu, nu) pair, columns by the (nu', mu') pair
    witness: Matrix | None
    infeasible_pairs: list[tuple[int, int]]


def bare_relation_solve_exact_q1(gs: QGammaSet, qm: QMetric) -> BareRelationSolve:
    """Solve for the 256 braiding entries exactly at q = 1.

    For each index pair (mu, nu) the 16 unknowns R^{mu nu}_{nu' mu'} enter
    one 4x4 matrix equation linearly, giving 16 16x16 systems over the exact
    scalar field that share one coefficient matrix, solved by one
    elimination.
    """
    mats1 = [m.map(lambda s: s.limit_q1()) for m in gs.matrices]
    cinv1 = qm.c_inverse.map(lambda s: s.limit_q1())
    prefactor = RadicalScalar.constant(2)  # q^{-1} Q at q = 1
    ident = Matrix.identity(4)
    # column (nu', mu') of the coefficient matrix is g_nu' g_mu' flattened
    # row-major, as is each target
    cols = [matmul(a, b).data for a in mats1 for b in mats1]
    targets = [
        (ident.scale(prefactor * cinv1[mu, nu]) - matmul(mats1[mu], mats1[nu])).data
        for mu in range(4)
        for nu in range(4)
    ]
    solved = solve_exact(Matrix.from_rows(list(zip(*cols))), targets)
    infeasible = [divmod(p, 4) for p, (ok, _) in enumerate(solved) if not ok]
    if infeasible:
        return BareRelationSolve(False, None, infeasible)
    return BareRelationSolve(True, Matrix.from_rows([sol for _, sol in solved]), [])


# largest solve residual that still counts as solvable
BARE_SOLVE_TOL = 1e-9


def bare_relation_solve_numeric(gs: QGammaSet, qm: QMetric, q_value: complex) -> tuple[bool, float]:
    """Solvability of the same systems at one numeric q.

    The 16x16 coefficient matrix has rank 8, so the 16 systems are solved
    together by elimination with a pivot cut-off; returns whether the largest
    residual ||A x - b||_2 stays below ``BARE_SOLVE_TOL``, and that residual.
    """
    mats = [m.evaluate(q_value) for m in gs.matrices]
    cinv = qm.c_inverse.evaluate(q_value)
    pref = (1.0 / q_value) * (q_value + 1.0 / q_value)
    cols = [
        _flatten(cmatmul(cscale(q_value, mats[np_]), mats[mp]))
        for np_ in range(4)
        for mp in range(4)
    ]
    coeff = [list(row) for row in zip(*cols)]
    targets = [
        _flatten(
            csub(cscale(pref * cinv[mu][nu], cidentity(4)), cmatmul(mats[mu], mats[nu]))
        )
        for mu in range(4)
        for nu in range(4)
    ]
    worst = max(numeric_solve_residuals(coeff, targets))
    return worst < BARE_SOLVE_TOL, worst


def _flatten(m: CMatrix) -> list[complex]:
    return [z for row in m for z in row]
