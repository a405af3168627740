"""Concrete algebra presentations and their representations.

Builds the quantum 2x2 matrix bialgebra, the Clifford-Hopf algebra on
three generators with its central squares, the one-parameter deformation
of that algebra, two-dimensional irreducible representations of the
doubled (affinized) deformation, and the induced action candidates on
su(2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache, cached_property

from .hopf import HopfData
from .linalg import CMatrix, Matrix, anticommutator, cscale, matmul, pauli_matrices
from .qgamma import ActionConvention, action_coefficients
from .rewrite import NCPolynomial, RewriteSystem, anticommutation_rules, central_rules
from .scalars import (
    GaussRational,
    RadicalScalar,
    accumulate,
    q_bracket_of,
    q_minus_qinv_inverse,
    qinv,
    qvar,
    sqrt,
)


class DegenerateParams(Exception):
    """Irrep parameters make the deformed bracket ill-defined."""


# ---------------------------------------------------------------------------
# Quantum 2x2 matrices
# ---------------------------------------------------------------------------

GL_NAMES = ("a11", "a12", "a21", "a22")


# Each presentation's rewrite system is built once per process and shared by
# every HopfData on it, so that its tensor square and Hopf premise rows (kept
# in ``rs.derived``) are computed once too.  The structure-map dicts of a
# HopfData are built fresh on every call: callers may change them.


@cache
def _glq2_system() -> RewriteSystem:
    q = qvar()
    qi = qinv()
    rules = {
        (1, 0): NCPolynomial.word((0, 1), qi),
        (2, 0): NCPolynomial.word((0, 2), qi),
        (2, 1): NCPolynomial.word((1, 2)),
        (3, 1): NCPolynomial.word((1, 3), qi),
        (3, 2): NCPolynomial.word((2, 3), qi),
        (3, 0): NCPolynomial.word((0, 3)) + NCPolynomial.word((1, 2), -(q - qi)),
    }
    return RewriteSystem(GL_NAMES, rules)


def build_glq2() -> HopfData:
    """The six-relation quantum matrix bialgebra with matrix coproduct.

    No antipode is assigned (the presentation does not localize the
    quantum determinant).
    """
    rs = _glq2_system()
    g = rs.size
    # Delta(a_ij) = sum_k a_ik (x) a_kj with a_ij at index 2(i-1)+(j-1)
    def idx(i, j):
        return 2 * (i - 1) + (j - 1)

    coproduct = {}
    for i in (1, 2):
        for j in (1, 2):
            p = NCPolynomial.zero()
            for k in (1, 2):
                p = p + NCPolynomial.word((idx(i, k), g + idx(k, j)))
            coproduct[idx(i, j)] = p
    counit = {
        idx(1, 1): RadicalScalar.one(),
        idx(2, 2): RadicalScalar.one(),
        idx(1, 2): RadicalScalar.zero(),
        idx(2, 1): RadicalScalar.zero(),
    }
    return HopfData(rs, coproduct, counit, antipode={})


# ---------------------------------------------------------------------------
# Clifford-Hopf algebra CH and its deformation
# ---------------------------------------------------------------------------

CH_NAMES = ("E1", "E2", "E3", "G3", "G1", "G2")
CH_E = (0, 1, 2)
CH_G3 = 3
CH_G = (4, 5)


@cache
def _ch2_system() -> RewriteSystem:
    # the E's are central; G3^2 = 1 and G1^2, G2^2 are E1, E2
    rules = central_rules(CH_E, len(CH_NAMES))
    rules.update(
        anticommutation_rules(
            (CH_G3, *CH_G),
            (NCPolynomial.unit(), NCPolynomial.gen(CH_E[0]), NCPolynomial.gen(CH_E[1])),
        )
    )
    return RewriteSystem(CH_NAMES, rules)


def build_ch2() -> HopfData:
    """Clifford-Hopf algebra: anticommuting G's squaring to central E's."""
    one = RadicalScalar.one()
    rs = _ch2_system()
    g = rs.size

    coproduct = {}
    counit = {}
    antipode = {}
    for e in CH_E:
        coproduct[e] = NCPolynomial.gen(e) + NCPolynomial.gen(g + e)
        counit[e] = RadicalScalar.zero()
        antipode[e] = NCPolynomial.word((e,), -1)
    coproduct[CH_G3] = NCPolynomial.word((CH_G3, g + CH_G3))
    counit[CH_G3] = one
    antipode[CH_G3] = NCPolynomial.gen(CH_G3)
    for gmu in CH_G:
        coproduct[gmu] = NCPolynomial.gen(gmu) + NCPolynomial.word((CH_G3, g + gmu))
        counit[gmu] = RadicalScalar.zero()
        antipode[gmu] = NCPolynomial.word((gmu, CH_G3))
    return HopfData(rs, coproduct, counit, antipode)


CHQ_NAMES = ("K1", "K1inv", "K2", "K2inv", "E1", "E2", "E3", "G3", "G1", "G2")
CHQ_K = ((0, 1), (2, 3))  # (K, K^{-1}) per deformed direction
CHQ_E = (4, 5, 6)
CHQ_G3 = 7
CHQ_G = (8, 9)


@cache
def _chq2_system() -> RewriteSystem:
    # the K's, their inverses and the E's are central
    rules = central_rules((*CHQ_K[0], *CHQ_K[1], *CHQ_E), len(CHQ_NAMES))
    # K K^{-1} = K^{-1} K = 1
    for k, kinv in CHQ_K:
        rules[(k, kinv)] = NCPolynomial.unit()
        rules[(kinv, k)] = NCPolynomial.unit()
    # G3^2 = 1 and G_mu^2 = (K_mu^2 - K_mu^{-2}) / (q - q^{-1})
    denom_inv = q_minus_qinv_inverse()
    squares = [NCPolynomial.unit()] + [
        NCPolynomial.word((k, k), denom_inv) + NCPolynomial.word((kinv, kinv), -denom_inv)
        for k, kinv in CHQ_K
    ]
    rules.update(anticommutation_rules((CHQ_G3, *CHQ_G), squares))
    return RewriteSystem(CHQ_NAMES, rules)


def build_chq2(include_inherited_antipode: bool = False) -> HopfData:
    """One-parameter deformation of the Clifford-Hopf algebra.

    Only the squares of G1, G2 and their coproducts deform; the square
    becomes the q-bracket of the central weight, expressed through the
    adjoined invertible generators K = q^{E/2}.  The antipode of the
    deformed G's is left unassigned unless explicitly requested: the
    undeformed assignment S(G) = G*G3 is consistent with the deformed
    coproduct, but it is reported rather than presumed.
    """
    one = RadicalScalar.one()
    rs = _chq2_system()
    g = rs.size

    coproduct = {}
    counit = {}
    antipode = {}
    for k, kinv in CHQ_K:
        coproduct[k] = NCPolynomial.word((k, g + k))
        coproduct[kinv] = NCPolynomial.word((kinv, g + kinv))
        counit[k] = one
        counit[kinv] = one
        antipode[k] = NCPolynomial.gen(kinv)
        antipode[kinv] = NCPolynomial.gen(k)
    for e in CHQ_E:
        coproduct[e] = NCPolynomial.gen(e) + NCPolynomial.gen(g + e)
        counit[e] = RadicalScalar.zero()
        antipode[e] = NCPolynomial.word((e,), -1)
    coproduct[CHQ_G3] = NCPolynomial.word((CHQ_G3, g + CHQ_G3))
    counit[CHQ_G3] = one
    antipode[CHQ_G3] = NCPolynomial.gen(CHQ_G3)
    for axis, gmu in enumerate(CHQ_G):
        k, kinv = CHQ_K[axis]
        # Delta(G) = G (x) K^{-1} + K G3 (x) G
        coproduct[gmu] = NCPolynomial.word((gmu, g + kinv)) + NCPolynomial.word(
            (k, CHQ_G3, g + gmu)
        )
        counit[gmu] = RadicalScalar.zero()
        if include_inherited_antipode:
            antipode[gmu] = NCPolynomial.word((gmu, CHQ_G3))
    return HopfData(rs, coproduct, counit, antipode)


@cache
def _group_toy_system() -> RewriteSystem:
    rules = {
        (0, 1): NCPolynomial.unit(),
        (1, 0): NCPolynomial.unit(),
    }
    return RewriteSystem(("g", "g_inv"), rules)


def build_group_toy() -> HopfData:
    """Single grouplike generator with an explicit inverse; sanity case."""
    rs = _group_toy_system()
    one = RadicalScalar.one()
    coproduct = {
        0: NCPolynomial.word((0, 2)),
        1: NCPolynomial.word((1, 3)),
    }
    counit = {0: one, 1: one}
    antipode = {0: NCPolynomial.gen(1), 1: NCPolynomial.gen(0)}
    return HopfData(rs, coproduct, counit, antipode)


# ---------------------------------------------------------------------------
# Two-dimensional irreps of the affinized deformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrrepParams:
    """Labels (z, lambda_x, lambda_y) of a two-dimensional irrep, exact."""

    z: GaussRational
    lambda_x: GaussRational
    lambda_y: GaussRational

    def __post_init__(self):
        for name in ("z", "lambda_x", "lambda_y"):
            if getattr(self, name).is_zero():
                raise DegenerateParams(f"{name} must be nonzero")


@dataclass(frozen=True)
class CH2Irrep:
    """The five representation matrices plus the weight values per level."""

    params: IrrepParams
    gamma_x0: Matrix
    gamma_y0: Matrix
    gamma_x1: Matrix
    gamma_y1: Matrix
    gamma_3: Matrix

    def gamma(self, level: int, axis: str) -> Matrix:
        return {
            (0, "x"): self.gamma_x0,
            (0, "y"): self.gamma_y0,
            (1, "x"): self.gamma_x1,
            (1, "y"): self.gamma_y1,
        }[(level, axis)]

    def weight(self, level: int, axis: str) -> GaussRational:
        """The value of q^{E} for the given level and axis."""
        lam = self.params.lambda_x if axis == "x" else self.params.lambda_y
        return lam.inverse() if level == 0 else lam

    def bracket(self, level: int, axis: str) -> RadicalScalar:
        """[E]_q = (q^E - q^{-E}) / (q - q^{-1}) as an exact scalar."""
        return q_bracket_of(RadicalScalar.constant(self.weight(level, axis)))


def _flip_matrix(upper, lower) -> Matrix:
    z = RadicalScalar.zero()
    return Matrix.from_rows([[z, upper], [lower, z]])


def build_affine_irrep(params: IrrepParams) -> CH2Irrep:
    """Construct the representation matrices exactly, symbolic in q."""
    z_val = RadicalScalar.constant(params.z)
    z_inv = RadicalScalar.constant(params.z.inverse())
    i_unit = RadicalScalar.constant(GaussRational(0, 1))
    lx = RadicalScalar.constant(params.lambda_x)
    lxi = RadicalScalar.constant(params.lambda_x.inverse())
    ly = RadicalScalar.constant(params.lambda_y)
    lyi = RadicalScalar.constant(params.lambda_y.inverse())
    denom_inv = q_minus_qinv_inverse()

    pre_x0 = sqrt((lxi - lx) * denom_inv)
    pre_y0 = sqrt((lyi - ly) * denom_inv)
    pre_x1 = sqrt((lx - lxi) * denom_inv)
    pre_y1 = sqrt((ly - lyi) * denom_inv)

    gamma_x0 = _flip_matrix(z_inv, z_val).scale(pre_x0)
    gamma_y0 = _flip_matrix(-(i_unit * z_inv), i_unit * z_val).scale(pre_y0)
    gamma_x1 = _flip_matrix(z_val, z_inv).scale(pre_x1)
    gamma_y1 = _flip_matrix(-(i_unit * z_val), i_unit * z_inv).scale(pre_y1)
    gamma_3 = Matrix.from_rows([[1, 0], [0, -1]])
    return CH2Irrep(params, gamma_x0, gamma_y0, gamma_x1, gamma_y1, gamma_3)


@dataclass
class IrrepRelationReport:
    """Exact residuals of the deformed relations for one irrep."""

    irrep: CH2Irrep
    square_residuals: dict[tuple[int, str], Matrix]
    anticommutator_residuals: dict[tuple[int, str, str], Matrix]
    gamma3_square_residual: Matrix

    @cached_property
    def cross_level_anticommutators(self) -> dict[tuple[str, str], Matrix]:
        """Anticommutators mixing the two levels, built on first read."""
        g = self.irrep.gamma
        return {
            ("x", "y"): anticommutator(g(0, "x"), g(1, "y")),
            ("y", "x"): anticommutator(g(0, "y"), g(1, "x")),
            ("x", "x"): anticommutator(g(0, "x"), g(1, "x")),
            ("y", "y"): anticommutator(g(0, "y"), g(1, "y")),
        }

    def all_pass(self) -> bool:
        per_level = all(m.is_zero() for m in self.square_residuals.values()) and all(
            m.is_zero() for m in self.anticommutator_residuals.values()
        )
        return per_level and self.gamma3_square_residual.is_zero()


def verify_irrep_relations(irrep: CH2Irrep) -> IrrepRelationReport:
    """Check the square law and anticommutation per level.

    Cross-level anticommutators are reported but carry no expectation: the
    relations are only required level by level.
    """
    ident = Matrix.identity(2)
    squares = {}
    anticomms = {}
    for level in (0, 1):
        for axis in ("x", "y"):
            g = irrep.gamma(level, axis)
            squares[(level, axis)] = matmul(g, g) - ident.scale(
                irrep.bracket(level, axis)
            )
            anticomms[(level, axis, "3")] = anticommutator(g, irrep.gamma_3)
        anticomms[(level, "x", "y")] = anticommutator(
            irrep.gamma(level, "x"), irrep.gamma(level, "y")
        )
    g3sq = matmul(irrep.gamma_3, irrep.gamma_3) - ident
    return IrrepRelationReport(irrep, squares, anticomms, g3sq)


def affine_irrep_numeric(
    z: complex, lambda_x: complex, lambda_y: complex, q_value: complex
) -> dict[str, CMatrix]:
    """Floating-point construction of the same matrices at a numeric q."""
    if q_value in (1, -1):
        raise DegenerateParams("q must differ from +1 and -1")
    if not z or not lambda_x or not lambda_y:
        raise DegenerateParams("parameters must be nonzero")
    denom = q_value - 1.0 / q_value

    def flip(upper, lower):
        return [[0j, complex(upper)], [complex(lower), 0j]]

    pre_x0 = cmath.sqrt((1.0 / lambda_x - lambda_x) / denom)
    pre_y0 = cmath.sqrt((1.0 / lambda_y - lambda_y) / denom)
    pre_x1 = cmath.sqrt((lambda_x - 1.0 / lambda_x) / denom)
    pre_y1 = cmath.sqrt((lambda_y - 1.0 / lambda_y) / denom)
    return {
        "x0": cscale(pre_x0, flip(1.0 / z, z)),
        "y0": cscale(pre_y0, flip(-1j / z, 1j * z)),
        "x1": cscale(pre_x1, flip(z, 1.0 / z)),
        "y1": cscale(pre_y1, flip(-1j * z, 1j / z)),
        "g3": [[1 + 0j, 0j], [0j, -1 + 0j]],
    }


# ---------------------------------------------------------------------------
# The induced action candidates on su(2)
# ---------------------------------------------------------------------------


@dataclass
class Su2ActionReport:
    """Computed values for every claim about the mapped Pauli generators."""

    convention: ActionConvention
    level: int
    alpha: list[Matrix]  # images of sigma_1, sigma_2; sigma_3 maps to itself
    residuals: dict[str, Matrix]


@cache
def _identity_and_four() -> tuple[Matrix, Matrix]:
    """I and 4 I, the 2x2 constants every su(2) action report compares with."""
    ident = Matrix.identity(2)
    return ident, ident.scale(4)


def su2_action_report(
    irrep: CH2Irrep, level: int, conv: ActionConvention, products: dict | None = None
) -> Su2ActionReport:
    """Build the mapped generators and evaluate the claimed relations.

    Claims evaluated (none asserted): squares of the mapped sigma_1 and
    sigma_2 vanish; the mapped sigma_3 squares to one; the mixed bracket
    with sigma_3 vanishes; brackets among the first two equal 4.
    ``products`` maps a pair of matrices to their product; a product it
    holds is read, and a new one is entered, so reports that share the
    table share their products.  A pair is keyed by the identities of its
    entries, which interning makes equal for equal matrices, and its entry
    holds both matrices, so those identities stay taken while it lives.
    """
    if products is None:
        products = {}

    def mul(a: Matrix, b: Matrix) -> Matrix:
        key = (tuple(map(id, a.data)), tuple(map(id, b.data)))
        entry = products.get(key)
        if entry is None:
            entry = products[key] = (a, b, matmul(a, b))
        return entry[2]

    def anticomm(a: Matrix, b: Matrix) -> Matrix:
        return mul(a, b) + mul(b, a)

    s1, s2, s3 = pauli_matrices()
    paulis = (s1, s2)
    mats = (irrep.gamma(level, "x"), irrep.gamma(level, "y"))
    coeffs = [action_coefficients(m, conv) for m in mats]
    alpha = []
    for nu in range(2):
        a = Matrix.zeros(2, 2)
        for mu in range(2):
            a = a + paulis[mu].scale(coeffs[mu][nu])
        alpha.append(a)
    ident, four = _identity_and_four()
    residuals = {
        "alpha1_squared": mul(alpha[0], alpha[0]),
        "alpha2_squared": mul(alpha[1], alpha[1]),
        "alpha3_squared_minus_1": mul(s3, s3) - ident,
        "anticomm_alpha1_sigma3": anticomm(alpha[0], s3),
        "anticomm_alpha2_sigma3": anticomm(alpha[1], s3),
        "anticomm_11_minus_4": anticomm(alpha[0], alpha[0]) - four,
        "anticomm_12_minus_4": anticomm(alpha[0], alpha[1]) - four,
        "anticomm_22_minus_4": anticomm(alpha[1], alpha[1]) - four,
    }
    return Su2ActionReport(conv, level, alpha, residuals)


def su2_action_reports(
    irrep: CH2Irrep, level: int, convs
) -> dict[ActionConvention, Su2ActionReport]:
    """``su2_action_report`` of each of ``convs`` at one (irrep, level).

    The reports share one table of products: for the antidiagonal irrep
    matrices the conventions map (sigma_1, sigma_2) to (A, B), (B, A),
    (0, A) and (0, B), so most products repeat between them.
    """
    products: dict = {}
    return {conv: su2_action_report(irrep, level, conv, products) for conv in convs}


# ---------------------------------------------------------------------------
# Adjoint action
# ---------------------------------------------------------------------------


def adjoint_action(h: HopfData, element: NCPolynomial, target: NCPolynomial) -> NCPolynomial:
    """h_(1) * x * S(h_(2)), computed through the coproduct normal form.

    Each piece is a normal form, so their sum is one as well.
    """
    rs = h.rs
    out: dict = {}
    for tw, c in h.delta(element).terms.items():
        u, v = h.split(tw)
        sv = h.antipode_of(NCPolynomial.word(v))
        piece = rs.multiply(NCPolynomial.word(u), target)
        for w, c2 in rs.multiply(piece, sv).terms.items():
            accumulate(out, w, c * c2)
    return NCPolynomial(out)
