"""Classical Clifford algebras as exact blade arithmetic.

Multivectors are sparse maps from sorted index tuples (blades) to scalar
coefficients.  Products follow the generator relation
e_mu e_nu + e_nu e_mu = 2 g_{mu nu} for a diagonal metric of the given
signature.  A concrete 4x4 matrix representation is provided for the
(3,1) signature with metric diag(-1, 1, 1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, matmul
from .scalars import GaussRational, RadicalScalar, _coerce, accumulate


class SignatureMismatch(Exception):
    pass


@dataclass(frozen=True)
class Signature:
    """Diagonal metric signs, one per generator index."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signature entries must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.signs)


# Spacetime signature used throughout: index order 0, 1, 2, 3.
CL31 = Signature((-1, 1, 1, 1))


def _blade_mul(ea: tuple[int, ...], eb: tuple[int, ...], signs: tuple[int, ...]):
    """Multiply basis blades; returns (sign, blade) with sign in {+1, -1, 0}."""
    result = list(ea)
    sign = 1
    for x in eb:
        pos = len(result)
        while pos > 0 and result[pos - 1] > x:
            pos -= 1
            sign = -sign
        if pos > 0 and result[pos - 1] == x:
            sign *= signs[x]
            del result[pos - 1]
        else:
            result.insert(pos, x)
    return sign, tuple(result)


class Multivector:
    """Element of Cl(p, q): sparse blade-to-coefficient map."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=None):
        if terms is None:
            terms = {}
        self.sig = sig
        self.terms = {b: c for b, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero(sig: Signature) -> "Multivector":
        return Multivector(sig)

    @staticmethod
    def scalar(c, sig: Signature) -> "Multivector":
        return Multivector(sig, {(): _coerce(c)})

    @staticmethod
    def generator(i: int, sig: Signature) -> "Multivector":
        if not 0 <= i < sig.dim:
            raise IndexError("generator index out of range")
        return Multivector(sig, {(i,): RadicalScalar.one()})

    @staticmethod
    def blade(indices, sig: Signature, coeff=1) -> "Multivector":
        b = tuple(indices)
        if list(b) != sorted(set(b)):
            raise ValueError("blade indices must be strictly increasing")
        return Multivector(sig, {b: _coerce(coeff)})

    def _check(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise SignatureMismatch("operands live in different algebras")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out = dict(self.terms)
        for b, c in other.terms.items():
            accumulate(out, b, c)
        return Multivector(self.sig, out)

    def __neg__(self) -> "Multivector":
        return Multivector(self.sig, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def scale(self, c) -> "Multivector":
        c = _coerce(c)
        return Multivector(self.sig, {b: c * v for b, v in self.terms.items()})

    def __mul__(self, other: "Multivector") -> "Multivector":
        """Clifford product."""
        self._check(other)
        out: dict[tuple[int, ...], RadicalScalar] = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                sgn, blade = _blade_mul(b1, b2, self.sig.signs)
                coeff = c1 * c2
                if sgn < 0:
                    coeff = -coeff
                accumulate(out, blade, coeff)
        return Multivector(self.sig, out)

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> RadicalScalar:
        return self.terms.get((), RadicalScalar.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.sig, tuple(sorted((b, c.key()) for b, c in self.terms.items()))))

    def __repr__(self) -> str:
        return f"Multivector({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for b in sorted(self.terms, key=lambda x: (len(x), x)):
            name = "1" if not b else "e" + "".join(str(i) for i in b)
            parts.append(f"({self.terms[b]})*{name}")
        return " + ".join(parts)


def all_basis_blades(sig: Signature):
    """All 2^n basis blades, ordered by (grade, indices)."""
    n = sig.dim
    blades = []
    for mask in range(1 << n):
        blade = tuple(i for i in range(n) if mask & (1 << i))
        blades.append(blade)
    blades.sort(key=lambda b: (len(b), b))
    return blades


def dirac_matrices() -> list[Matrix]:
    """A 4x4 matrix representation of Cl(3,1) with metric diag(-1,1,1,1).

    Entries are Gaussian rationals; the anticommutators are exact:
    {g_mu, g_nu} = 2 diag(-1,1,1,1)_{mu nu} * I.
    """
    i = GaussRational(0, 1)
    mi = GaussRational(0, -1)
    z = 0

    def m(rows):
        return Matrix.from_rows(
            [[RadicalScalar.constant(GaussRational(x) if isinstance(x, int) else x) for x in row] for row in rows]
        )

    g0 = m([[i, z, z, z], [z, i, z, z], [z, z, mi, z], [z, z, z, mi]])
    g1 = m([[z, z, z, i], [z, z, i, z], [z, mi, z, z], [mi, z, z, z]])
    g2 = m([[z, z, z, 1], [z, z, -1, z], [z, -1, z, z], [1, z, z, z]])
    g3 = m([[z, z, i, z], [z, z, z, mi], [mi, z, z, z], [z, i, z, z]])
    return [g0, g1, g2, g3]


def blade_matrix(blade: tuple[int, ...], gammas: list[Matrix]) -> Matrix:
    """Image of a basis blade under the multiplicative extension e_mu -> g_mu."""
    n = gammas[0].rows
    out = Matrix.identity(n)
    for idx in blade:
        out = matmul(out, gammas[idx])
    return out
