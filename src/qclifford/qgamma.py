"""The deformed gamma matrices, their metric, and the induced metric checks.

The four 4x4 deformed gamma matrices and the metric C are transcribed once
here, as exact functions of q; transcription tests pin individual entries
independently.  The action map that sends deformed gammas to combinations
of classical ones contracts one matrix index in a way its statement leaves
ambiguous, so all four natural contraction conventions are enumerated and
the resulting deformed metric is compared entrywise against the
transcribed target rather than asserted.

The bare relation, with the braiding left as 256 unknowns, is one set of
linear systems over the generic-q field (``BareSystem``); it is decided
exactly there and at q = 1, and the exact generic solution is the
certificate a float cross-check evaluates.  The same systems give the
relation's residual for any given braiding, the flip (``FLIP``) among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .blades import CL31, dirac_matrices
from .linalg import Matrix, Sized, matmul, solve_exact
from .rewrite import NCPolynomial
from .scalars import (
    PointSet,
    RadicalScalar,
    q_half,
    q_plus_qinv,
    qinv,
    qvar,
    sqrt,
)

@dataclass(frozen=True)
class QMetric:
    c: Matrix
    c_inverse: Matrix


def build_q_gammas() -> dict[str, Matrix]:
    """The deformed gamma matrices, symbolic in q, keyed by their labels
    "0", "+", "-", "3" in that order."""
    q = qvar()
    Q = q_plus_qinv()
    root_qQ = sqrt(q * Q)
    root_Q = sqrt(Q)
    z = RadicalScalar.zero()
    one = RadicalScalar.one()
    return {
        "0": Matrix.from_rows(
            [
                [z, z, q**2, z],
                [z, z, z, -one],
                [-one, z, z, z],
                [z, -one, z, z],
            ]
        ),
        "+": Matrix.from_rows(
            [
                [z, z, z, root_qQ],
                [z, z, z, z],
                [z, -root_qQ, z, z],
                [z, z, z, z],
            ]
        ),
        "-": Matrix.from_rows(
            [
                [z, z, z, root_Q * q_half(-3)],
                [z, z, z, z],
                [z, z, z, z],
                [-(root_Q * q_half(3)), z, z, z],
            ]
        ),
        "3": Matrix.from_rows(
            [
                [z, z, qinv() + q - q**2, z],
                [z, z, z, -(q**-2)],
                [-one, z, z, z],
                [z, q**2, z, z],
            ]
        ),
    }


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


def gamma5(gs: dict[str, Matrix]) -> Matrix:
    """Ordered product gamma0 * gamma+ * gamma- * gamma3."""
    return matmul(matmul(matmul(gs["0"], gs["+"]), gs["-"]), gs["3"])


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
    """Coefficient vector c_nu extracted from one matrix per convention: the
    sums or the first entries of its rows, or of its columns (the rows of its
    transpose)."""
    if conv in (ActionConvention.COL_SUM, ActionConvention.FIXED_COL):
        m = m.transpose()
    if conv in (ActionConvention.ROW_SUM, ActionConvention.COL_SUM):
        zero = RadicalScalar.zero()
        return [sum(m.row(nu), zero) for nu in range(m.rows)]
    return list(m.row(0))


@dataclass
class DeformedMetricResult:
    matrix: Matrix
    # max-entry of the non-scalar deviation of each anticommutator; all of
    # these are exactly zero when the image matrices are genuine vectors.
    deviation_zero: bool


def deformed_metric(gs: dict[str, Matrix], conv: ActionConvention) -> DeformedMetricResult:
    """Half the identity coefficient of {A_mu, A_nu} for the image matrices.

    A_mu = sum_nu c_nu(gamma_mu_q) gamma_nu over the classical gamma basis;
    the scalar part is extracted as trace/8 and any deviation from a pure
    multiple of the identity is recorded.  Each of the 16 products
    A_mu A_nu is made once and serves both anticommutators it enters.
    """
    gammas = dirac_matrices()
    images = []
    for m in gs.values():
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
    return DeformedMetricResult(Matrix(4, 4, entries), deviation_zero)


def deformed_metric_blade_oracle(gs: dict[str, Matrix], conv: ActionConvention) -> Matrix:
    """Independent route: expand {A_mu, A_nu} in the Cl(3,1) presentation.

    Each A_mu is the vector sum_nu c_nu e_nu, multiplied by the rewrite
    rules of ``CL31``; no matrix product, anticommutator or trace is used.
    Each of the 16 ordered products A_mu A_nu is made once and serves both
    anticommutators it enters.
    """
    vectors = []
    for m in gs.values():
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


# the braiding that flips each pair: row (a, b) is row (b, a) of the identity,
# so its residual is the relation with R replaced by the flip
FLIP = Matrix.from_rows([Matrix.identity(16).row(4 * b + a) for a in range(4) for b in range(4)])


@dataclass
class BareRelationSolve:
    """Solvability of the relation for unknown braiding coefficients."""

    solvable: bool
    # rows indexed by the (mu, nu) pair, columns by the (nu', mu') pair
    witness: Matrix | None
    infeasible_pairs: list[tuple[int, int]]


@dataclass(frozen=True)
class BareSystem:
    """The relation g_mu g_nu + sum R^{mu nu}_{nu' mu'} q g_nu' g_mu' =
    q^{-1} Q (C^{-1})_{mu nu} I as 16 linear systems, one per pair (mu, nu),
    in the 16 unknowns R^{mu nu}_{nu' mu'}.

    The systems share one coefficient matrix, whose column (nu', mu') is
    q g_nu' g_mu' flattened row-major; row (mu, nu) of ``targets`` is
    q^{-1} Q (C^{-1})_{mu nu} I - g_mu g_nu, flattened the same way.
    """

    coeff: Matrix
    targets: Matrix

    def residual(self, braiding: Matrix) -> Matrix:
        """A x - b of every system, x the system's row of ``braiding``: row
        (mu, nu) is that pair's residual matrix, flattened row-major."""
        return matmul(braiding, self.coeff.transpose()) - self.targets

    def at(self, q) -> "BareSystem":
        """The same systems with every entry evaluated exactly at q."""
        return BareSystem(self.coeff.map(lambda s: s.at(q)), self.targets.map(lambda s: s.at(q)))

    def solve(self) -> BareRelationSolve:
        """Decide all 16 systems over the scalar field by one elimination."""
        solved = solve_exact(self.coeff, [self.targets.row(p) for p in range(self.targets.rows)])
        infeasible = [divmod(p, 4) for p, (ok, _) in enumerate(solved) if not ok]
        if infeasible:
            return BareRelationSolve(False, None, infeasible)
        return BareRelationSolve(True, Matrix.from_rows([sol for _, sol in solved]), [])

    def float_residuals(self, solution: Matrix, points: PointSet) -> list[list[Sized]]:
        """At each point, A x - b for every system's solution x (a row of
        ``solution``), as ``Sized`` values.  Each entry is evaluated once
        over the point set, and only nonzero entries of A and x multiply."""
        a_rows, a_cols = self.coeff.rows, self.coeff.cols
        # the rows of A's nonzero entries in each column
        column = [[i for i in range(a_rows) if not self.coeff[i, j].is_zero()] for j in range(a_cols)]
        support = [[j for j in range(a_cols) if not solution[p, j].is_zero()] for p in range(solution.rows)]
        out = []
        for a, b, x in zip(*(m.evaluate(points, sized=True) for m in (self.coeff, self.targets, solution))):
            residuals = []
            for p, cols in enumerate(support):
                ax = [0] * a_rows
                for j in cols:
                    for i in column[j]:
                        ax[i] = ax[i] + a[i][j] * x[p][j]
                residuals += [v - t for v, t in zip(ax, b[p])]
            out.append(residuals)
        return out


def bare_relation_system(gs: dict[str, Matrix], qm: QMetric) -> BareSystem:
    """The bare-relation systems over the generic-q field."""
    q = qvar()
    prefactor = qinv() * q_plus_qinv()
    ident = Matrix.identity(4)
    products = [matmul(a, b) for a in gs.values() for b in gs.values()]
    targets = [
        (ident.scale(prefactor * qm.c_inverse[mu, nu]) - products[4 * mu + nu]).data
        for mu in range(4)
        for nu in range(4)
    ]
    cols = [p.scale(q).data for p in products]
    return BareSystem(Matrix.from_rows(list(zip(*cols))), Matrix.from_rows(targets))
