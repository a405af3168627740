"""The classical Clifford algebra Cl(3,1) as a presentation.

Cl(3,1) is the rewrite system on e0..e3 with the relations
e_mu e_nu + e_nu e_mu = 2 g_{mu nu} for the metric diag(-1, 1, 1, 1).  The
rules are confluent, so by the diamond lemma its normal words, the 16
sorted index tuples (basis blades), form a basis, and an element is an
``NCPolynomial`` over them.  A concrete 4x4 matrix representation is
provided next to it.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Matrix, matmul
from .rewrite import NCPolynomial, RewriteSystem, anticommutation_rules
from .scalars import GaussRational

# Cl(3,1) on e0..e3 with metric diag(-1, 1, 1, 1): e_mu e_mu -> g_mu and
# e_nu e_mu -> -e_mu e_nu for mu < nu
CL31 = RewriteSystem(
    ("e0", "e1", "e2", "e3"),
    anticommutation_rules(range(4), [NCPolynomial.word((), g) for g in (-1, 1, 1, 1)]),
)


def all_basis_blades(rs: RewriteSystem):
    """All 2^n basis blades, ordered by (grade, indices)."""
    n = rs.size
    return [b for grade in range(n + 1) for b in combinations(range(n), grade)]


def dirac_matrices() -> list[Matrix]:
    """A 4x4 matrix representation of Cl(3,1) with metric diag(-1,1,1,1).

    Entries are Gaussian rationals; the anticommutators are exact:
    {g_mu, g_nu} = 2 diag(-1,1,1,1)_{mu nu} * I.
    """
    i = GaussRational(0, 1)
    mi = GaussRational(0, -1)
    z = 0
    g0 = Matrix.from_rows([[i, z, z, z], [z, i, z, z], [z, z, mi, z], [z, z, z, mi]])
    g1 = Matrix.from_rows([[z, z, z, i], [z, z, i, z], [z, mi, z, z], [mi, z, z, z]])
    g2 = Matrix.from_rows([[z, z, z, 1], [z, z, -1, z], [z, -1, z, z], [1, z, z, z]])
    g3 = Matrix.from_rows([[z, z, i, z], [z, z, z, mi], [mi, z, z, z], [z, i, z, z]])
    return [g0, g1, g2, g3]


def blade_matrix(blade: tuple[int, ...], gammas: list[Matrix]) -> Matrix:
    """Image of a basis blade under the multiplicative extension e_mu -> g_mu."""
    n = gammas[0].rows
    out = Matrix.identity(n)
    for idx in blade:
        out = matmul(out, gammas[idx])
    return out


def dirac_image(p: NCPolynomial) -> Matrix:
    """Image of ``p`` under e_mu -> g_mu: sum c * blade_matrix(w) over its terms."""
    gammas = dirac_matrices()
    return sum((blade_matrix(w, gammas).scale(c) for w, c in p.terms.items()), Matrix.zeros(4, 4))
