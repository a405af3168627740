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
from functools import cache

from .hopf import HopfData
from .linalg import CMatrix, Matrix, cscale, matmul, pauli_matrices
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
    """The five representation matrices by name, ``x0``, ``y0``, ``x1``,
    ``y1`` (axis and level) and ``g3``, plus the weight values per level."""

    params: IrrepParams
    gammas: dict[str, Matrix]

    def weight(self, level: int, axis: str) -> GaussRational:
        """The value of q^{E} for the given level and axis."""
        lam = self.params.lambda_x if axis == "x" else self.params.lambda_y
        return lam.inverse() if level == 0 else lam

    def bracket(self, level: int, axis: str) -> RadicalScalar:
        """[E]_q = (q^E - q^{-E}) / (q - q^{-1}) as an exact scalar."""
        return q_bracket_of(RadicalScalar.constant(self.weight(level, axis)))


def build_affine_irrep(params: IrrepParams) -> CH2Irrep:
    """Construct the representation matrices exactly, symbolic in q: at
    level l, with u = z^(2l - 1), x flips (u, 1/u) and y flips (-i u, i/u),
    each scaled by the square root of its bracket."""
    zero = RadicalScalar.zero()
    i_unit = RadicalScalar.constant(GaussRational(0, 1))
    gammas: dict[str, Matrix] = {}
    irrep = CH2Irrep(params, gammas)
    for level in (0, 1):
        u = RadicalScalar.constant(params.z.inverse() if level == 0 else params.z)
        flips = {"x": (u, u.inverse()), "y": (-(i_unit * u), i_unit * u.inverse())}
        for axis, (upper, lower) in flips.items():
            flip = Matrix.from_rows([[zero, upper], [lower, zero]])
            gammas[f"{axis}{level}"] = flip.scale(sqrt(irrep.bracket(level, axis)))
    gammas["g3"] = Matrix.from_rows([[1, 0], [0, -1]])
    return irrep


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


def su2_action_report(
    irrep: CH2Irrep, level: int, conv: ActionConvention, products: dict
) -> dict[str, Matrix]:
    """Build the mapped generators and evaluate the claimed relations, as
    the residual matrix of each claim by name.

    Claims evaluated (none asserted): squares of the mapped sigma_1 and
    sigma_2 vanish; the mapped sigma_3 squares to one; the mixed bracket
    with sigma_3 vanishes; brackets among the first two equal 4.
    ``products`` maps a pair of matrices to their product; a product it
    holds is read, and a new one is entered, so calls that share the
    table share their products.  A pair is keyed by the identities of its
    entries, which interning makes equal for equal matrices, and its entry
    holds both matrices, so those identities stay taken while it lives.
    """

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
    mats = (irrep.gammas[f"x{level}"], irrep.gammas[f"y{level}"])
    coeffs = [action_coefficients(m, conv) for m in mats]
    alpha = []
    for nu in range(2):
        a = Matrix.zeros(2, 2)
        for mu in range(2):
            a = a + paulis[mu].scale(coeffs[mu][nu])
        alpha.append(a)
    ident = Matrix.identity(2)
    four = ident.scale(4)
    return {
        "alpha1_squared": mul(alpha[0], alpha[0]),
        "alpha2_squared": mul(alpha[1], alpha[1]),
        "alpha3_squared_minus_1": mul(s3, s3) - ident,
        "anticomm_alpha1_sigma3": anticomm(alpha[0], s3),
        "anticomm_alpha2_sigma3": anticomm(alpha[1], s3),
        "anticomm_11_minus_4": anticomm(alpha[0], alpha[0]) - four,
        "anticomm_12_minus_4": anticomm(alpha[0], alpha[1]) - four,
        "anticomm_22_minus_4": anticomm(alpha[1], alpha[1]) - four,
    }


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
