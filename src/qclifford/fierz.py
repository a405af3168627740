"""Spinor bilinear currents and their relations.

Covers the braided commutation rule between a spinor doublet and its
conjugate (a reflection-equation exchange through an explicit Hecke-type
R-matrix), the five current families built from the deformed gamma
matrices, the seven linear current relations reduced to matrix identities,
and the quadratic current identity reduced to normal form in the spinor
generator algebra.

The exchange constant k is handled exactly: the residual is computed at
several rational k values and its polynomial k-dependence is recovered by
exact interpolation, validated on surplus sample points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, _row_reduce, kron, matmul
from .qgamma import QGammaSet, gamma5
from .rewrite import NCPolynomial, RewriteSystem
from .scalars import (
    RadicalScalar,
    _coerce,
    accumulate,
    q_half,
    q_plus_qinv,
    qinv,
    qvar,
    sqrt,
)


def hecke_rmatrix() -> Matrix:
    """The 4x4 exchange matrix in the basis (11, 12, 21, 22).

    q on the diagonal sectors, a unit off-diagonal exchange block, and a
    q - q^{-1} correction on the ordered pair.
    """
    q = qvar()
    z = RadicalScalar.zero()
    one = RadicalScalar.one()
    return Matrix.from_rows(
        [
            [q, z, z, z],
            [z, q - qinv(), one, z],
            [z, one, z, z],
            [z, z, z, q],
        ]
    )


def flip_matrix(n: int = 2) -> Matrix:
    """Permutation matrix swapping the two tensor factors of C^n x C^n."""
    z = RadicalScalar.zero()
    one = RadicalScalar.one()
    dim = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [z] * dim
            row[j * n + i] = one
            rows.append(row)
    return Matrix(dim, dim, [x for row in rows for x in row])


def hecke_residual(r: Matrix) -> Matrix:
    """(R - q I)(R + q^{-1} I); zero exactly for the Hecke exchange matrix."""
    q = qvar()
    ident = Matrix.identity(r.rows)
    return matmul(r - ident.scale(q), r + ident.scale(qinv()))


def braid_residual(r: Matrix) -> Matrix:
    """(R x I)(I x R)(R x I) - (I x R)(R x I)(I x R) on the tensor cube."""
    ident = Matrix.identity(2)
    r1 = kron(r, ident)
    r2 = kron(ident, r)
    lhs = matmul(matmul(r1, r2), r1)
    rhs = matmul(matmul(r2, r1), r2)
    return lhs - rhs


def spinor_metric() -> Matrix:
    """Default antisymmetric deformed metric on the spinor doublet."""
    z = RadicalScalar.zero()
    return Matrix.from_rows(
        [
            [z, q_half(-1)],
            [-q_half(1), z],
        ]
    )


def _exchange_coefficients(k: RadicalScalar) -> dict:
    """Coefficients of the rules Z^i Zbar^l -> sum c Zbar^m Z^j.

    Obtained from the doublet relation by inverting the metric on the left
    leg: c[(i, l), (m, j)] = k * sum_j' eps_inv[l, j'] R[(i, j'), (i', j)] eps[i', m].
    """
    r = hecke_rmatrix()
    eps = spinor_metric()
    eps_inv = eps.inverse()
    coeffs: dict[tuple[int, int], dict[tuple[int, int], RadicalScalar]] = {}
    for i in range(2):
        for l in range(2):
            body: dict[tuple[int, int], RadicalScalar] = {}
            for j in range(2):
                e_lj = eps_inv[l, j]
                if e_lj.is_zero():
                    continue
                for ip in range(2):
                    for jp in range(2):
                        r_entry = r[i * 2 + j, ip * 2 + jp]
                        if r_entry.is_zero():
                            continue
                        for m in range(2):
                            e_im = eps[ip, m]
                            if e_im.is_zero():
                                continue
                            accumulate(body, (m, jp), k * e_lj * r_entry * e_im)
            coeffs[(i, l)] = body
    return coeffs


def reflection_rules(k) -> RewriteSystem:
    """Rewrite system for one spinor doublet and its conjugate.

    Alphabet Zb1 < Zb2 < Z1 < Z2; the four rules move a Z past a Zbar,
    producing scalar-weighted sums of Zbar-first words.
    """
    coeffs = _exchange_coefficients(_coerce(k))
    rules = {}
    for (i, l), body in coeffs.items():
        rhs = NCPolynomial(
            {(m, 2 + j): c for (m, j), c in body.items()}
        )
        rules[(2 + i, l)] = rhs
    return RewriteSystem(("Zb1", "Zb2", "Z1", "Z2"), rules)


CONVENTION_COMMUTE = "distinct_spinors_commute"
CONVENTION_REFLECT = "distinct_spinors_reflect"

# letters: Zb<a><i> at 2(a-1)+(i-1), Z<a><i> at 4 + 2(a-1)+(i-1)
_SPINOR_NAMES = ("Zb1.1", "Zb1.2", "Zb2.1", "Zb2.2", "Z1.1", "Z1.2", "Z2.1", "Z2.2")


def _zbar(spinor: int, comp: int) -> int:
    return 2 * (spinor - 1) + (comp - 1)


def _zed(spinor: int, comp: int) -> int:
    return 4 + 2 * (spinor - 1) + (comp - 1)


def two_spinor_system(k, convention: str) -> RewriteSystem:
    """Rewrite system for two doublets.

    Each doublet obeys the reflection exchange with its own conjugate.
    Across doublets either all components commute, or Z-past-Zbar pairs
    obey the same reflection exchange (leaving same-type cross pairs
    free), matching the two readings of the unstated convention.
    """
    coeffs = _exchange_coefficients(_coerce(k))
    rules: dict[tuple[int, int], NCPolynomial] = {}

    def add_reflection(a: int, b: int) -> None:
        for (i, l), body in coeffs.items():
            rhs = NCPolynomial(
                {(_zbar(b, m + 1), _zed(a, j + 1)): c for (m, j), c in body.items()}
            )
            rules[(_zed(a, i + 1), _zbar(b, l + 1))] = rhs

    add_reflection(1, 1)
    add_reflection(2, 2)
    if convention == CONVENTION_COMMUTE:
        for i in (1, 2):
            for l in (1, 2):
                rules[(_zed(1, i), _zbar(2, l))] = NCPolynomial.word(
                    (_zbar(2, l), _zed(1, i))
                )
                rules[(_zed(2, i), _zbar(1, l))] = NCPolynomial.word(
                    (_zbar(1, l), _zed(2, i))
                )
                rules[(_zbar(2, i), _zbar(1, l))] = NCPolynomial.word(
                    (_zbar(1, l), _zbar(2, i))
                )
                rules[(_zed(2, i), _zed(1, l))] = NCPolynomial.word(
                    (_zed(1, l), _zed(2, i))
                )
    elif convention == CONVENTION_REFLECT:
        add_reflection(1, 2)
        add_reflection(2, 1)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return RewriteSystem(_SPINOR_NAMES, rules)


def majorana_components(spinor: int) -> list[NCPolynomial]:
    """The four-component assembly (Z^1, Z^2, (Zbar eps^{-1})^1, (Zbar eps^{-1})^2)."""
    eps_inv = spinor_metric().inverse()
    comps = [
        NCPolynomial.gen(_zed(spinor, 1)),
        NCPolynomial.gen(_zed(spinor, 2)),
    ]
    for j in range(2):
        p = NCPolynomial.zero()
        for i in range(2):
            c = eps_inv[i, j]
            if not c.is_zero():
                p = p + NCPolynomial.word((_zbar(spinor, i + 1),), c)
        comps.append(p)
    return comps


def current_prefactor() -> RadicalScalar:
    """1 / (q sqrt(Q)), applied exactly once per current."""
    return (qvar() * sqrt(q_plus_qinv())).inverse()


def bilinear_current(
    sandwich: Matrix,
    rs: RewriteSystem,
    bar_components: list[NCPolynomial],
    ket_components: list[NCPolynomial],
) -> NCPolynomial:
    """prefactor * sum_{a,b} bar[a] M[a,b] ket[b], normal-formed.

    Each product comes out of ``rs.multiply`` in normal form, and scaling
    and adding normal forms keep them normal.
    """
    pref = current_prefactor()
    out = NCPolynomial.zero()
    for a in range(4):
        for b in range(4):
            m_ab = sandwich[a, b]
            if m_ab.is_zero():
                continue
            term = rs.multiply(bar_components[a], ket_components[b])
            out = out + term.scale(m_ab)
    return out.scale(pref)


# ---------------------------------------------------------------------------
# Linear relations among the currents, reduced to matrix identities
# ---------------------------------------------------------------------------

# (lhs indices, scale factor builder, rhs indices); the digit 5 denotes the
# pseudoscalar product of all four deformed gammas.
LINEAR_RELATIONS = (
    ("J53 = -q^2 J50", ("5", "3"), "minus_q2", ("5", "0")),
    ("J0- = -J+3", ("0", "-"), "minus_one", ("+", "3")),
    ("J35 = J05", ("3", "5"), "one", ("0", "5")),
    ("J-0 = q^-2 J3+", ("-", "0"), "qinv2", ("3", "+")),
    ("J0+ = q^2 J-3", ("0", "+"), "q2", ("-", "3")),
    ("J5+ = J+-", ("5", "+"), "one", ("+", "-")),
    ("J+0 = -J3-", ("+", "0"), "minus_one", ("3", "-")),
)


def _relation_scale(tag: str) -> RadicalScalar:
    q = qvar()
    if tag == "one":
        return RadicalScalar.one()
    if tag == "minus_one":
        return -RadicalScalar.one()
    if tag == "q2":
        return q * q
    if tag == "minus_q2":
        return -(q * q)
    if tag == "qinv2":
        return qinv() * qinv()
    raise ValueError(tag)


def gamma_by_label(gs: QGammaSet, label: str, g5: Matrix) -> Matrix:
    """The deformed gamma named by ``label``; "5" names ``g5``."""
    return {"0": gs.gamma0, "+": gs.gamma_plus, "-": gs.gamma_minus, "3": gs.gamma3, "5": g5}[label]


@dataclass
class LinearRelationResult:
    name: str
    residual: Matrix
    holds_exactly: bool


def linear_relation_residuals(gs: QGammaSet) -> list[LinearRelationResult]:
    """Exact residual g_A g_B - c g_C g_D per transcribed relation.

    Bilinears in one spinor pair agree exactly when the sandwiched
    matrices agree, so the matrix residual is the convention-free form of
    each relation.
    """
    g5 = gamma5(gs)
    out = []
    for name, lhs, tag, rhs in LINEAR_RELATIONS:
        a = matmul(gamma_by_label(gs, lhs[0], g5), gamma_by_label(gs, lhs[1], g5))
        b = matmul(gamma_by_label(gs, rhs[0], g5), gamma_by_label(gs, rhs[1], g5))
        residual = a - b.scale(_relation_scale(tag))
        out.append(LinearRelationResult(name, residual, residual.is_zero()))
    return out


# ---------------------------------------------------------------------------
# Quadratic identity with exact treatment of the exchange constant
# ---------------------------------------------------------------------------


@dataclass
class KPolynomial:
    """Polynomial in the exchange constant with exact scalar coefficients."""

    coeffs: list[RadicalScalar]  # index = power of k, no trailing zeros

    @staticmethod
    def from_list(raw: list[RadicalScalar]) -> "KPolynomial":
        while raw and raw[-1].is_zero():
            raw.pop()
        return KPolynomial(raw)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if d == 0:
                parts.append(f"({c})")
            elif d == 1:
                parts.append(f"({c})*k")
            else:
                parts.append(f"({c})*k^{d}")
        return " + ".join(parts)


def _kpoly_divmod(a: list[RadicalScalar], b: list[RadicalScalar]):
    rem = list(a)
    quo = [RadicalScalar.zero()] * max(0, len(a) - len(b) + 1)
    lead_inv = b[-1].inverse()
    while len(rem) >= len(b):
        c = rem[-1] * lead_inv
        d = len(rem) - len(b)
        quo[d] = c
        for i, bc in enumerate(b):
            rem[d + i] = rem[d + i] - c * bc
        while rem and rem[-1].is_zero():
            rem.pop()
        if not rem:
            break
    return quo, rem


def kpoly_gcd(a: KPolynomial, b: KPolynomial) -> KPolynomial:
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        _, r = _kpoly_divmod(x, y)
        x, y = y, r
    if not x:
        return KPolynomial([])
    lead_inv = x[-1].inverse()
    return KPolynomial([c * lead_inv for c in x])


# the residual is evaluated at K_NODES + K_VALIDATE rational values of the
# exchange constant; the polynomial recovered from the first K_NODES must
# reproduce the surplus points exactly, certifying the assumed degree bound
K_NODES = 6
K_VALIDATE = 2


def _interpolate_k(
    nodes: list[Fraction], columns: list[list[RadicalScalar]]
) -> list[KPolynomial]:
    """Exact interpolant of each column of values through the first K_NODES nodes.

    The Vandermonde system is row-reduced once, augmented with every column;
    each interpolant (degree < K_NODES) must then reproduce its column's
    values at the surplus nodes exactly, which certifies the degree bound.
    """
    n = K_NODES
    powers = [[RadicalScalar.constant(x**d) for d in range(n)] for x in nodes]
    aug = [powers[i] + [col[i] for col in columns] for i in range(n)]
    if len(_row_reduce(aug, n)) < n:
        raise ArithmeticError("interpolation system must be solvable")
    polys = []
    for j, col in enumerate(columns):
        poly = KPolynomial.from_list([aug[d][n + j] for d in range(n)])
        for row, v in zip(powers[n:], col[n:]):
            predicted = RadicalScalar.zero()
            for c, p in zip(poly.coeffs, row):
                predicted = predicted + c * p
            if not (predicted - v).is_zero():
                raise ArithmeticError(
                    "k-degree exceeds the interpolation bound; raise K_NODES"
                )
        polys.append(poly)
    return polys


@dataclass
class QuadraticIdentityReport:
    """Everything the quadratic current identity evaluates to.

    ``residual_at_reference`` is the normal form of
    q^4 J^2 - (J03)^2 - Q(1 - q^{-4}) (J5)^2 at k = 1; ``k_dependence``
    maps each surviving word to its exact polynomial in k;
    ``common_k_roots`` lists exact k values killing every coefficient (for
    degree-one gcd), or carries the gcd itself otherwise.
    """

    convention: str
    residual_at_reference: NCPolynomial
    vanishes_at_reference: bool
    k_dependence: dict[tuple[int, ...], KPolynomial]
    gcd_polynomial: KPolynomial
    common_k_roots: list[RadicalScalar]
    names: tuple[str, ...]

    def render_k_dependence(self) -> list[tuple[str, str]]:
        out = []
        for w in sorted(self.k_dependence, key=lambda x: (len(x), x)):
            word = "*".join(self.names[i] for i in w) if w else "1"
            out.append((word, self.k_dependence[w].render()))
        return out


def _quadratic_residual(
    gs: QGammaSet,
    k_value: Fraction,
    convention: str,
    swap_roles: bool = False,
) -> tuple[NCPolynomial, RewriteSystem]:
    rs = two_spinor_system(k_value, convention)
    bar_spinor, ket_spinor = (2, 1) if swap_roles else (1, 2)
    bar = majorana_components(bar_spinor)
    ket = majorana_components(ket_spinor)
    ident = Matrix.identity(4)
    g03 = matmul(gs.gamma0, gs.gamma3)
    g5 = gamma5(gs)
    j_scalar = bilinear_current(ident, rs, bar, ket)
    j_03 = bilinear_current(g03, rs, bar, ket)
    j_5 = bilinear_current(g5, rs, bar, ket)
    q = qvar()
    big_q = q_plus_qinv()
    lhs = rs.multiply(j_scalar, j_scalar).scale(q**4)
    mid = rs.multiply(j_03, j_03)
    rhs = rs.multiply(j_5, j_5).scale(big_q * (RadicalScalar.one() - q**-4))
    return rs.normal_form(lhs - mid - rhs), rs


def quadratic_identity_report(
    gs: QGammaSet,
    convention: str = CONVENTION_COMMUTE,
    swap_roles: bool = False,
) -> QuadraticIdentityReport:
    """Reduce the quadratic identity and solve its k-dependence exactly."""
    nodes = [Fraction(i + 1) for i in range(K_NODES + K_VALIDATE)]
    residuals = []
    names: tuple[str, ...] = _SPINOR_NAMES
    for kv in nodes:
        res, rs = _quadratic_residual(gs, kv, convention, swap_roles)
        residuals.append(res)
        names = rs.names
    words = sorted(
        {w for res in residuals for w in res.terms}, key=lambda x: (len(x), x)
    )
    zero = RadicalScalar.zero()
    columns = [[res.terms.get(w, zero) for res in residuals] for w in words]
    k_dependence = {
        w: poly for w, poly in zip(words, _interpolate_k(nodes, columns)) if not poly.is_zero()
    }
    gcd_poly = KPolynomial([])
    for poly in k_dependence.values():
        gcd_poly = kpoly_gcd(gcd_poly, poly) if not gcd_poly.is_zero() else poly
    roots: list[RadicalScalar] = []
    if not gcd_poly.is_zero() and gcd_poly.degree() == 1:
        roots.append(-(gcd_poly.coeffs[0] / gcd_poly.coeffs[1]))
    reference_index = 0  # k = 1
    residual_ref = residuals[reference_index]
    return QuadraticIdentityReport(
        convention=convention,
        residual_at_reference=residual_ref,
        vanishes_at_reference=residual_ref.is_zero(),
        k_dependence=k_dependence,
        gcd_polynomial=gcd_poly,
        common_k_roots=roots,
        names=names,
    )
