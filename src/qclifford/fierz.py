"""Spinor bilinear currents and their relations.

Covers the braided commutation rule between a spinor doublet and its
conjugate (a reflection-equation exchange through an explicit Hecke-type
R-matrix), the five current families built from the deformed gamma
matrices, the seven linear current relations reduced to matrix identities,
and the quadratic current identity reduced to normal form in the spinor
generator algebra.

The exchange constant k is handled exactly, through an invariant of the
rules.  Only the reflection rules carry k: each one moves a Z past a Zbar,
keeps both spinor labels, and is k times its k = 1 form.  A word W whose
Z-before-Zbar pairs include d(W) pairs that exchange by reflection
therefore normal-forms at k to k^d(W) times its normal form at k = 1,
because normal words put every Zbar before every Z and the two-doublet
systems are confluent (normal forms are unique by the diamond lemma).  The
quadratic identity is expanded into words, grouped by d and normal-formed
once per group at k = 1; group d is its coefficient of k^d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, kron, matmul
from .qgamma import gamma5
from .rewrite import NCPolynomial, RewriteSystem, Word
from .scalars import (
    RadicalScalar,
    _coerce,
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


def flip_matrix() -> Matrix:
    """Permutation matrix swapping the two tensor factors of C^2 x C^2."""
    return Matrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


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


def _exchange_coefficients(k: RadicalScalar) -> Matrix:
    """Coefficients of the rules Z^i Zbar^l -> sum c Zbar^m Z^j.

    Obtained from the doublet relation by inverting the metric on the left
    leg: the matrix k (I x eps^{-1}) R (eps x I), whose row 2i + l holds
    rule (i, l) with the coefficient of Zbar^m Z^j in column 2m + j.
    """
    eps = spinor_metric()
    ident = Matrix.identity(2)
    exchange = matmul(matmul(kron(ident, eps.inverse()), hecke_rmatrix()), kron(eps, ident))
    return exchange.scale(k)


def _exchange_rules(coeffs: Matrix, zed: tuple[int, int], zbar: tuple[int, int]) -> dict:
    """The rules Z^i Zbar^l -> sum c Zbar^m Z^j for one Z doublet and one Zbar doublet.

    ``zed`` and ``zbar`` are the letters of each doublet's two components.
    """
    return {
        (zed[i], zbar[l]): NCPolynomial(
            {(zbar[m], zed[j]): coeffs[2 * i + l, 2 * m + j] for m in range(2) for j in range(2)}
        )
        for i in range(2)
        for l in range(2)
    }


def reflection_rules(k) -> RewriteSystem:
    """Rewrite system for one spinor doublet and its conjugate.

    Alphabet Zb1 < Zb2 < Z1 < Z2; the four rules move a Z past a Zbar,
    producing scalar-weighted sums of Zbar-first words.
    """
    rules = _exchange_rules(_exchange_coefficients(_coerce(k)), (2, 3), (0, 1))
    return RewriteSystem(("Zb1", "Zb2", "Z1", "Z2"), rules)


CONVENTION_COMMUTE = "distinct_spinors_commute"
CONVENTION_REFLECT = "distinct_spinors_reflect"

# letters: Zb<a><i> at 2(a-1)+(i-1), Z<a><i> at 4 + 2(a-1)+(i-1)
SPINOR_NAMES = ("Zb1.1", "Zb1.2", "Zb2.1", "Zb2.2", "Z1.1", "Z1.2", "Z2.1", "Z2.2")


def _zbar(spinor: int) -> tuple[int, int]:
    return 2 * spinor - 2, 2 * spinor - 1


def _zed(spinor: int) -> tuple[int, int]:
    return 2 * spinor + 2, 2 * spinor + 3


def _spinor(letter: int) -> int:
    return letter % 4 // 2 + 1


def reflecting_pairs(convention: str) -> tuple[tuple[int, int], ...]:
    """The (Z spinor, Zbar spinor) pairs that exchange by reflection.

    Their rules are the only ones that carry the exchange constant k.
    """
    if convention == CONVENTION_COMMUTE:
        return ((1, 1), (2, 2))
    if convention == CONVENTION_REFLECT:
        return ((1, 1), (2, 2), (1, 2), (2, 1))
    raise ValueError(f"unknown convention {convention!r}")


def two_spinor_system(k, convention: str) -> RewriteSystem:
    """Rewrite system for two doublets.

    Each doublet obeys the reflection exchange with its own conjugate.
    Across doublets either all components commute, or Z-past-Zbar pairs
    obey the same reflection exchange (leaving same-type cross pairs
    free), matching the two readings of the unstated convention.
    """
    coeffs = _exchange_coefficients(_coerce(k))
    rules: dict[tuple[int, int], NCPolynomial] = {}
    for a, b in reflecting_pairs(convention):
        rules.update(_exchange_rules(coeffs, _zed(a), _zbar(b)))
    if convention == CONVENTION_COMMUTE:
        # each (later, earlier) pair of letter groups across the doublets
        for later, earlier in (
            (_zed(1), _zbar(2)),
            (_zed(2), _zbar(1)),
            (_zbar(2), _zbar(1)),
            (_zed(2), _zed(1)),
        ):
            for x in later:
                for y in earlier:
                    rules[(x, y)] = NCPolynomial.word((y, x))
    return RewriteSystem(SPINOR_NAMES, rules)


def k_degree(word: Word, convention: str) -> int:
    """The power of k that normal-ordering ``word`` picks up.

    It counts the pairs of a Z and a later Zbar in ``word`` whose spinors
    exchange by reflection: each reflection step removes one such pair and
    is the only step that contributes a factor k, and no normal word has one.
    """
    pairs = reflecting_pairs(convention)
    return sum(
        (_spinor(z), _spinor(zb)) in pairs
        for i, z in enumerate(word)
        if z >= 4
        for zb in word[i + 1 :]
        if zb < 4
    )


def majorana_components(spinor: int) -> list[NCPolynomial]:
    """The four-component assembly (Z^1, Z^2, (Zbar eps^{-1})^1, (Zbar eps^{-1})^2)."""
    eps_inv = spinor_metric().inverse()
    comps = [NCPolynomial.gen(z) for z in _zed(spinor)]
    for j in range(2):
        p = NCPolynomial.zero()
        for i in range(2):
            c = eps_inv[i, j]
            if not c.is_zero():
                p = p + NCPolynomial.word((_zbar(spinor)[i],), c)
        comps.append(p)
    return comps


def current_prefactor() -> RadicalScalar:
    """1 / (q sqrt(Q)), applied exactly once per current."""
    return (qvar() * sqrt(q_plus_qinv())).inverse()


def bilinear_current(
    sandwich: Matrix,
    bar_components: list[NCPolynomial],
    ket_components: list[NCPolynomial],
) -> NCPolynomial:
    """prefactor * sum_{a,b} bar[a] M[a,b] ket[b], as concatenated words.

    No rule is applied: callers normal-form the current, or whatever they
    build from it, in the rewrite system they need.
    """
    out = NCPolynomial.zero()
    for a in range(4):
        for b in range(4):
            m_ab = sandwich[a, b]
            if not m_ab.is_zero():
                out = out + (bar_components[a] * ket_components[b]).scale(m_ab)
    return out.scale(current_prefactor())


# ---------------------------------------------------------------------------
# Linear relations among the currents, reduced to matrix identities
# ---------------------------------------------------------------------------

# (name, lhs labels, scale as a function of q, rhs labels); the label 5
# denotes the pseudoscalar product of all four deformed gammas.
LINEAR_RELATIONS = (
    ("J53 = -q^2 J50", ("5", "3"), lambda q: -(q * q), ("5", "0")),
    ("J0- = -J+3", ("0", "-"), lambda q: -1, ("+", "3")),
    ("J35 = J05", ("3", "5"), lambda q: 1, ("0", "5")),
    ("J-0 = q^-2 J3+", ("-", "0"), lambda q: 1 / (q * q), ("3", "+")),
    ("J0+ = q^2 J-3", ("0", "+"), lambda q: q * q, ("-", "3")),
    ("J5+ = J+-", ("5", "+"), lambda q: 1, ("+", "-")),
    ("J+0 = -J3-", ("+", "0"), lambda q: -1, ("3", "-")),
)


def linear_relation_residuals(gs: dict[str, Matrix]) -> list[Matrix]:
    """Exact residual g_A g_B - c g_C g_D per transcribed relation, in
    ``LINEAR_RELATIONS`` order.

    Bilinears in one spinor pair agree exactly when the sandwiched
    matrices agree, so the matrix residual is the convention-free form of
    each relation.
    """
    g = {**gs, "5": gamma5(gs)}
    out = []
    for _, lhs, scale, rhs in LINEAR_RELATIONS:
        a = matmul(g[lhs[0]], g[lhs[1]])
        b = matmul(g[rhs[0]], g[rhs[1]])
        out.append(a - b.scale(scale(qvar())))
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


def quadratic_identity_report(
    gs: dict[str, Matrix], convention: str, swap_roles: bool = False
) -> dict[Word, KPolynomial]:
    """The quadratic identity's k-dependence, read off the k-grading.

    Maps each surviving word of the normal form of
    q^4 J^2 - (J03)^2 - Q(1 - q^{-4}) (J5)^2 to its exact polynomial in k,
    in (length, word) order.
    """
    bar_spinor, ket_spinor = (2, 1) if swap_roles else (1, 2)
    bar = majorana_components(bar_spinor)
    ket = majorana_components(ket_spinor)
    j_scalar = bilinear_current(Matrix.identity(4), bar, ket)
    j_03 = bilinear_current(matmul(gs["0"], gs["3"]), bar, ket)
    j_5 = bilinear_current(gamma5(gs), bar, ket)
    q = qvar()
    identity = (
        (j_scalar * j_scalar).scale(q**4)
        - j_03 * j_03
        - (j_5 * j_5).scale(q_plus_qinv() * (RadicalScalar.one() - q**-4))
    )
    graded: dict[int, dict[Word, RadicalScalar]] = {}
    for w, c in identity.terms.items():
        graded.setdefault(k_degree(w, convention), {})[w] = c
    rs = two_spinor_system(1, convention)
    # by_degree[d] is the coefficient of k^d
    by_degree = [NCPolynomial.zero()] * (max(graded, default=-1) + 1)
    for d, terms in graded.items():
        by_degree[d] = rs.normal_form(NCPolynomial(terms))
    zero = RadicalScalar.zero()
    k_dependence = {}
    words = {w for p in by_degree for w in p.terms}
    for w in sorted(words, key=lambda x: (len(x), x)):
        poly = KPolynomial.from_list([p.terms.get(w, zero) for p in by_degree])
        if not poly.is_zero():
            k_dependence[w] = poly
    return k_dependence
