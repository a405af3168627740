"""Exact scalar arithmetic for the verification engine.

The scalar ring is built in layers:

* ``GaussRational`` -- Gaussian rationals (x + y i)/d held as three ints
  in lowest terms, so the arithmetic never touches ``Fraction``; it is the
  type of a coefficient where one enters or leaves the tower;
* ``HalfLaurent`` -- Laurent polynomials in t = q^(1/2) over the Gaussian
  rationals (the exponent k stands for q^(k/2)), each held as its
  canonical form: a tuple of ``(k, x, y, d)`` ints, one per term
  (x + y i)/d * t^k, by ascending k, each coefficient in lowest terms with
  d > 0.  Sums, products and divisions work on these ints, one gcd per
  coefficient, and make no ``GaussRational``;
* ``LaurentFrac`` -- the fraction field of ``HalfLaurent``, reduced to a
  unique canonical form (monic denominator of valuation zero, gcd one);
  its key is the pair of its parts' int tuples;
* ``RadicalScalar`` -- finite sums of fraction-coefficient terms, each
  carrying a set of canonical fractions under formal square roots.

Identical radicands multiply out exactly (sqrt(a)*sqrt(a) = a), so every
identity whose radicals only ever appear squared is decided exactly.
Each layer has one exact map, ``at(q)``, to its value at a rational q, and
one numeric map to its values over a ``PointSet``.  Both take the principal
branch, and only positive rational squares and even powers of t are ever
moved out of a root, which keeps exact and numeric values in agreement on
the positive real q axis.  Each scalar has one canonical form, ``key()``,
a nested tuple of ints, and evaluation sums terms in its order, so a float
depends only on the exact value, never on the order in which the terms
were built.

Every ``RadicalScalar`` is hash-consed: construction goes through one table
``_INTERN`` from ``key()`` to a weak reference, so there is one live object
per value and ``is`` decides equality between scalars.  The key is built
first and the table read before a scalar is made; a reference's callback
drops the entry when its scalar goes.  Every ``RadicalScalar`` operation
goes through one memo keyed on the identity of its operands: sums and
products on the unordered pair, differences on the ordered pair, negations
and inverses on the one operand.  The memo keeps the entries of two
generations and drops the older one whole when the younger one fills;
``*`` and ``+`` read a hit in line.

Each operation does only the work its result needs:

* ``x * MINUS_ONE`` is the memoized ``-x``; a sum or difference that
  cancels is ``ZERO`` without a table lookup;
* ``RadicalScalar.constant`` reads the table at the constant's key and
  builds the tower only for a value with no live scalar;
* ``HalfLaurent.one()``/``zero()`` and ``LaurentFrac.one()``/``zero()`` are
  shared objects, so ``is_one`` mostly decides by identity;
* a product of two one-term scalars with a radical-free factor skips the
  radicand merge; a product with a monomial polynomial is one coefficient
  product per term, and a product of two monomial fractions over
  denominator 1 is one coefficient product;
* a difference ``a - a``, and a sum of a scalar and its memoized
  negation, is ``ZERO`` with no arithmetic.

A numeric evaluation covers a whole point set at once.  Each polynomial,
fraction and scalar keeps the values of the last set it was evaluated over,
so a part shared by many scalars is computed once per set; an evaluation
that raises (``EvalPole``, ``OverflowError``) stores nothing.
"""

from __future__ import annotations

import cmath
import weakref
from fractions import Fraction
from functools import cache
from math import gcd as _int_gcd, isqrt, lcm


class ScalarError(Exception):
    """Base class for scalar arithmetic errors."""


class ZeroBase(ScalarError):
    """Evaluation, exact or numeric, requested at q = 0."""


class NotInvertible(ScalarError):
    """Division by a scalar with no inverse in the ring."""


class EvalPole(ScalarError):
    """Evaluation, exact or numeric, hit a zero of a denominator."""


def _square_part(n: int) -> int:
    """Largest s such that s*s divides n (n > 0).

    Trial division stops once d**3 > n: every prime factor of the cofactor
    left is then above its cube root, so it is 1, p, p*q or p*p, and only
    p*p, a perfect square, adds to s.
    """
    s = 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
        d += 1 if d == 2 else 2
    r = isqrt(n)
    return s * r if r * r == n else s


def accumulate(out: dict, key, value) -> None:
    """Add ``value`` into ``out[key]``, dropping the key when the sum is zero."""
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def deduct(out: dict, key, value) -> None:
    """Subtract ``value`` from ``out[key]``, dropping the key when the
    difference is zero; ``-value`` is built only for an absent key."""
    s = out.get(key)
    s = -value if s is None else s - value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


_new = object.__new__


def _gauss(x: int, y: int, d: int) -> "GaussRational":
    """(x + y i)/d for ints already in lowest terms."""
    out = _new(GaussRational)
    out.x, out.y, out.d = x, y, d
    return out


def _lowest(x: int, y: int, d: int) -> "GaussRational":
    """(x + y i)/d brought to lowest terms (d > 0); builds the result in
    line, as ``_gauss`` does, because every ``GaussRational`` sum and
    product runs it."""
    if d != 1:
        g = _int_gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    out = _new(GaussRational)
    out.x, out.y, out.d = x, y, d
    return out


def _reduce(x: int, y: int, d: int) -> tuple[int, int, int]:
    """(x + y i)/d (d > 0) in lowest terms, as its three ints."""
    if d != 1:
        g = _int_gcd(x, y, d)
        if g != 1:
            return x // g, y // g, d // g
    return x, y, d


def _inverse(x: int, y: int, d: int) -> tuple[int, int, int]:
    """The inverse of a nonzero (x + y i)/d in lowest terms."""
    if y:
        return _reduce(d * x, -d * y, x * x + y * y)
    # d/x is in lowest terms already: gcd(x, d) = 1
    return (d, 0, x) if x > 0 else (-d, 0, -x)


def _part(n: int, d: int):
    """n/d as an ``int`` when integral, else as a reduced ``Fraction``."""
    return n // d if n % d == 0 else Fraction(n, d)


class GaussRational:
    """Complex number (x + y i)/d with exact rational real and imaginary parts.

    The three ints are kept in lowest terms, d > 0 and gcd(x, y, d) = 1, so
    equal values have equal fields and each operation is integer arithmetic
    plus one gcd.  ``re`` and ``im`` read each part as an ``int`` when
    integral and a reduced ``Fraction`` otherwise.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.x, self.y, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self.x = re.numerator * (d // re.denominator)
        self.y = im.numerator * (d // im.denominator)
        self.d = d

    re = property(lambda self: _part(self.x, self.d))
    im = property(lambda self: _part(self.y, self.d))

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def __add__(self, other: "GaussRational") -> "GaussRational":
        d, e = self.d, other.d
        if d == e:
            return _lowest(self.x + other.x, self.y + other.y, d)
        return _lowest(self.x * e + other.x * d, self.y * e + other.y * d, d * e)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return self + -other

    def __neg__(self) -> "GaussRational":
        return _gauss(-self.x, -self.y, self.d)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        if not self.y and not other.y:
            return _lowest(self.x * other.x, 0, self.d * other.d)
        x, y, u, v = self.x, self.y, other.x, other.y
        return _lowest(x * u - y * v, x * v + y * u, self.d * other.d)

    def inverse(self) -> "GaussRational":
        if not self.x and not self.y:
            raise NotInvertible("division by zero")
        return _gauss(*_inverse(self.x, self.y, self.d))

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GaussRational)
            and self.x == other.x
            and self.y == other.y
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{imag})"


GR_ZERO = GaussRational(0)


class PointSet:
    """Nonzero points q at which values are computed together, with t =
    sqrt(q) taken once per point and ``t**k`` once per exponent k.  A set
    made by ``prefix(n)`` holds the first n points of ``whole``, and a scalar
    evaluated over it reads the values it holds for ``whole``."""

    __slots__ = ("qs", "ts", "whole", "_powers")

    def __init__(self, qs):
        self.qs = tuple(qs)
        if 0 in self.qs:
            raise ZeroBase("q must be nonzero")
        self.ts = [cmath.sqrt(complex(q)) for q in self.qs]
        self.whole = self
        self._powers = {}

    def __len__(self) -> int:
        return len(self.qs)

    def prefix(self, n: int) -> "PointSet":
        out = PointSet(self.qs[:n])
        out.whole = self.whole
        return out

    def powers(self, k: int) -> list[complex]:
        """``t**k`` at each point."""
        p = self._powers.get(k)
        if p is None:
            p = self._powers[k] = [t**k for t in self.ts]
        return p


# The helpers below take and give the canonical terms of polynomials
# (see ``HalfLaurent``).


def _shift(terms: tuple, k: int) -> tuple:
    """The terms of t^k * p."""
    return tuple([(e + k, x, y, d) for e, x, y, d in terms]) if k else terms


def _times(terms: tuple, j: int, x: int, y: int, d: int) -> tuple:
    """The terms of (x + y i)/d * t^j * p for a nonzero coefficient: no
    product vanishes and the order stays, so each term is one product and
    one gcd."""
    if x == d == 1 and not y:
        return _shift(terms, j)
    out = []
    for k, u, v, e in terms:
        a, b, c = x * u - y * v, x * v + y * u, d * e
        if c != 1:
            g = _int_gcd(a, b, c)
            if g != 1:
                a, b, c = a // g, b // g, c // g
        out.append((k + j, a, b, c))
    return tuple(out)


def _plus(a: tuple, b: tuple) -> tuple:
    """The terms of p + q, merged by exponent."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        s, t = a[i], b[j]
        if s[0] < t[0]:
            out.append(s)
            i += 1
        elif t[0] < s[0]:
            out.append(t)
            j += 1
        else:
            k, x, y, d = s
            _, u, v, e = t
            if d == e:
                x, y = x + u, y + v
            else:
                x, y, d = x * e + u * d, y * e + v * d, d * e
            if x or y:
                if d != 1:
                    g = _int_gcd(x, y, d)
                    if g != 1:
                        x, y, d = x // g, y // g, d // g
                out.append((k, x, y, d))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _canonical(acc: dict) -> tuple:
    """The terms of a dict from exponent to an (x, y, d) with d > 0, each
    brought to lowest terms, zeros dropped."""
    out = []
    for k in sorted(acc):
        x, y, d = acc[k]
        if x or y:
            out.append((k, *_reduce(x, y, d)))
    return tuple(out)


def _product(a: tuple, b: tuple) -> tuple:
    """The terms of p * q: each coefficient is summed over a common
    denominator and brought to lowest terms once."""
    acc = {}
    for j, x, y, d in a:
        for k, u, v, e in b:
            s, r, c = x * u - y * v, x * v + y * u, d * e
            k += j
            old = acc.get(k)
            if old is not None:
                m, n, f = old
                if f == c:
                    s, r = s + m, r + n
                else:
                    s, r, c = s * f + m * c, r * f + n * c, c * f
            acc[k] = s, r, c
    return _canonical(acc)


def _derivative(terms: tuple) -> tuple:
    return tuple([(k - 1, *_reduce(k * x, k * y, d)) for k, x, y, d in terms if k])


def _scaled(p: "HalfLaurent", j: int, x: int, y: int, d: int) -> "HalfLaurent":
    """(x + y i)/d * t^j * p for a nonzero coefficient: p itself when that
    is 1, so the parts that several fractions share are evaluated once."""
    terms = _times(p.terms, j, x, y, d)
    return p if terms is p.terms else HalfLaurent._of(terms)


class HalfLaurent:
    """Laurent polynomial in t = q^(1/2); exponent k means q^(k/2).

    ``terms`` is the canonical form: ``(k, x, y, d)`` ints, one per term
    (x + y i)/d * t^k, by ascending k, each coefficient in lowest terms with
    d > 0.  It is also ``key()``.  Nothing may mutate it."""

    __slots__ = ("terms", "_at", "_values")

    def __init__(self, coeffs: dict | None = None):
        """From a dict of exponents to ``GaussRational`` coefficients."""
        self.terms = tuple(sorted((k, c.x, c.y, c.d) for k, c in (coeffs or {}).items() if c.x or c.y))
        self._at = None

    @staticmethod
    def _of(terms: tuple) -> "HalfLaurent":
        """Wrap canonical ``terms`` as they are."""
        out = _new(HalfLaurent)
        out.terms = terms
        out._at = None
        return out

    @staticmethod
    def zero() -> "HalfLaurent":
        return _HL_ZERO

    @staticmethod
    def one() -> "HalfLaurent":
        return _HL_ONE

    @staticmethod
    def t_power(k: int) -> "HalfLaurent":
        return HalfLaurent._of(((k, 1, 0, 1),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return HalfLaurent._of(_plus(self.terms, other.terms))

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent._of(tuple([(k, -x, -y, d) for k, x, y, d in self.terms]))

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        a, b = self.terms, other.terms
        if a == _ONE_TERMS:
            return other
        if b == _ONE_TERMS:
            return self
        if len(b) < len(a):
            a, b = b, a
        if len(a) == 1:
            return HalfLaurent._of(_times(b, *a[0]))
        return HalfLaurent._of(_product(a, b)) if a else _HL_ZERO

    def __pow__(self, n: int) -> "HalfLaurent":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = HalfLaurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("valuation of zero")
        return self.terms[0][0]

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of zero")
        return self.terms[-1][0]

    def values(self, points: PointSet) -> list[complex]:
        """The value at each point: from 0j, ``c * t**k`` added term by term
        in ascending exponent order."""
        if self._at is points:
            return self._values
        vals = [0j] * len(points)
        for k, x, y, d in self.terms:
            c = complex(x / d, y / d)  # int / int rounds correctly
            vals = [v + c * p for v, p in zip(vals, points.powers(k))]
        self._at, self._values = points, vals
        return vals

    def at(self, q) -> GaussRational:
        """Exact value at a nonzero rational q, with t = q^(1/2) > 0.  An odd
        power of t is allowed only where t is rational: q a rational square."""
        q = Fraction(q)
        if not q:
            raise ZeroBase("q must be nonzero")
        if q == 1:
            return sum((_gauss(x, y, d) for _, x, y, d in self.terms), GR_ZERO)
        a, b = q.numerator, q.denominator
        n, d = isqrt(max(a, 0)), isqrt(b)
        square = n * n == a and d * d == b
        if square:
            a, b = n, d  # t = a/b, else t^2 = a/b; each is in lowest terms
        total = GR_ZERO
        for k, x, y, c in self.terms:
            if k % 2 and not square:
                raise ScalarError("half-integer power of q has no rational value")
            e = k if square else k // 2
            p = _gauss(a ** abs(e), 0, b ** abs(e))
            total = total + _gauss(x, y, c) * (p if e >= 0 else p.inverse())
        return total

    def key(self) -> tuple:
        """Canonical form: ``terms``."""
        return self.terms

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, HalfLaurent) and self.terms == other.terms)

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        coeffs = ", ".join(f"{k}: {_gauss(x, y, d)!r}" for k, x, y, d in self.terms)
        return f"HalfLaurent({{{coeffs}}})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_render_term(_gauss(x, y, d), k) for k, x, y, d in self.terms)


def _render_term(c: GaussRational, k: int) -> str:
    if k == 0:
        return str(c)
    if k % 2 == 0:
        e = k // 2
        qpart = "q" if e == 1 else f"q^{e}"
    else:
        qpart = f"q^({k}/2)"
    cs = str(c)
    if cs == "1":
        return qpart
    if cs == "-1":
        return f"-{qpart}"
    return f"{cs}*{qpart}"


_ONE_TERMS = ((0, 1, 0, 1),)
_HL_ZERO = HalfLaurent._of(())
_HL_ONE = HalfLaurent._of(_ONE_TERMS)


def _poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder terms of polynomial division, for
    valuation >= 0 operands, b nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = b[-1][0]
    lx, ly, ld = _inverse(*b[-1][1:])
    rest = b[:-1]
    rem = {k: (x, y, d) for k, x, y, d in a}
    quo = []
    while rem:
        da = max(rem)
        if da < db:
            break
        # the leading term cancels exactly; each other term of b is taken away
        x, y, d = rem.pop(da)
        cx, cy, cd = _reduce(x * lx - y * ly, x * ly + y * lx, d * ld)
        quo.append((da - db, cx, cy, cd))
        for k, u, v, e in rest:
            k += da - db
            u, v, e = cx * u - cy * v, cx * v + cy * u, cd * e
            old = rem.get(k)
            if old is None:
                rem[k] = _reduce(-u, -v, e)
                continue
            x, y, d = old
            x, y, d = _reduce(x * e - u * d, y * e - v * d, d * e)
            if x or y:
                rem[k] = x, y, d
            else:
                del rem[k]
    return tuple(reversed(quo)), _canonical(rem)


def _exact_div(a: tuple, b: tuple) -> tuple:
    q, r = _poly_divmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _stripped(terms: tuple) -> tuple:
    """The terms of p with its valuation moved to 0."""
    return _shift(terms, -terms[0][0]) if terms else terms


def poly_gcd(a: HalfLaurent, b: HalfLaurent) -> HalfLaurent:
    """Monic gcd of the valuation-stripped polynomial parts (1 if coprime).

    Units t^k are ignored: the result always has valuation 0, and a
    monomial operand is such a unit, so it needs no Euclid.  Both operands
    must be nonzero.
    """
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _HL_ONE
    x, y = _stripped(a.terms), _stripped(b.terms)
    while y:
        x, y = y, _stripped(_poly_divmod(x, y)[1])
    return HalfLaurent._of(_times(x, 0, *_inverse(*x[-1][1:])))


def squarefree_split(p: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
    """Write a monic valuation-0 polynomial p as s^2 * f with f squarefree.

    Both factors come back monic; works over any characteristic-0 field.
    """
    if p.degree() == 0:
        return _HL_ONE, _HL_ONE
    g = poly_gcd(p, HalfLaurent._of(_derivative(p.terms)))
    if g.degree() == 0:
        return _HL_ONE, p
    w = _exact_div(p.terms, g.terms)
    sg, fg = squarefree_split(g)
    return sg * fg, HalfLaurent._of(_exact_div(w, fg.terms))


def _cancel(p: HalfLaurent, g: HalfLaurent) -> HalfLaurent:
    """p / g for a monic valuation-0 g dividing p's valuation-stripped part."""
    if g.is_one():
        return p
    v = p.terms[0][0]
    return HalfLaurent._of(_shift(_exact_div(_shift(p.terms, -v), g.terms), v))


def _monic_den(num: HalfLaurent, den: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
    """Rescale num/den so that den is monic with valuation 0 (den nonzero)."""
    d = den.terms
    vd = -d[0][0]
    x, y, e = _inverse(*d[-1][1:])
    return _scaled(num, vd, x, y, e), (_HL_ONE if len(d) == 1 else _scaled(den, vd, x, y, e))


class LaurentFrac:
    """Reduced quotient of half-Laurent polynomials.

    Canonical form: denominator monic with valuation 0 and coprime to the
    valuation-stripped numerator, so equal values compare equal.  ``key()``
    is the pair of the two parts' terms.
    """

    __slots__ = ("num", "den", "_hash", "_at", "_values")

    def __init__(self, num: HalfLaurent, den: HalfLaurent | None = None):
        self._hash = self._at = None
        if den is None or den.is_one():
            self.num = num
            self.den = _HL_ONE
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = _HL_ZERO
            self.den = _HL_ONE
            return
        num, den = _monic_den(num, den)
        if not den.is_one():
            g = poly_gcd(num, den)
            num, den = _cancel(num, g), _cancel(den, g)
        self.num = num
        self.den = den

    @staticmethod
    def _reduced(num: HalfLaurent, den: HalfLaurent) -> "LaurentFrac":
        """The fraction with parts already in canonical form, built as is."""
        out = _new(LaurentFrac)
        out.num = num
        out.den = den
        out._hash = out._at = None
        return out

    @staticmethod
    def zero() -> "LaurentFrac":
        return _LF_ZERO

    @staticmethod
    def one() -> "LaurentFrac":
        return _LF_ONE

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_one(self) -> bool:
        return self.num.terms == _ONE_TERMS and self.den.terms == _ONE_TERMS

    def __add__(self, other: "LaurentFrac") -> "LaurentFrac":
        # Henrici: only a factor both denominators share can cancel
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms:
            return other
        if not c.terms:
            return self
        if b.terms == _ONE_TERMS:
            return LaurentFrac._reduced(a * d + c, d)
        if d.terms == _ONE_TERMS:
            return LaurentFrac._reduced(a + c * b, b)
        if b == d:
            g = b
            b1 = d1 = _HL_ONE
        else:
            g = poly_gcd(b, d)
            if g.is_one():
                return LaurentFrac._reduced(a * d + c * b, b * d)
            b1, d1 = _cancel(b, g), _cancel(d, g)
        t = a * d1 + c * b1
        if not t.terms:
            return _LF_ZERO
        g2 = poly_gcd(t, g)
        return LaurentFrac._reduced(_cancel(t, g2), b1 * _cancel(d, g2))

    def __neg__(self) -> "LaurentFrac":
        return LaurentFrac._reduced(-self.num, self.den)

    def __sub__(self, other: "LaurentFrac") -> "LaurentFrac":
        return self + (-other)

    def __mul__(self, other: "LaurentFrac") -> "LaurentFrac":
        if self.is_one():
            return other
        if other.is_one():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms or not c.terms:
            return _LF_ZERO
        if len(a.terms) == 1 == len(c.terms) and b.terms == _ONE_TERMS == d.terms:
            # two monomials: one coefficient product, nothing to cancel
            ((j, x, y, e),), ((k, u, v, f),) = a.terms, c.terms
            x, y, e = x * u - y * v, x * v + y * u, e * f
            if e != 1:
                g = _int_gcd(x, y, e)
                if g != 1:
                    x, y, e = x // g, y // g, e // g
            return LaurentFrac._reduced(HalfLaurent._of(((j + k, x, y, e),)), _HL_ONE)
        # Henrici: cross-cancel each numerator against the other denominator
        if not d.is_one():
            g = poly_gcd(a, d)
            a, d = _cancel(a, g), _cancel(d, g)
        if not b.is_one():
            g = poly_gcd(c, b)
            c, b = _cancel(c, g), _cancel(b, g)
        return LaurentFrac._reduced(a * c, b * d)

    def inverse(self) -> "LaurentFrac":
        if self.is_zero():
            raise NotInvertible("division by zero")
        # the parts of a canonical fraction are coprime: only the new
        # denominator's valuation and leading coefficient need normalising
        return LaurentFrac._reduced(*_monic_den(self.den, self.num))

    def __truediv__(self, other: "LaurentFrac") -> "LaurentFrac":
        return self * other.inverse()

    def values(self, points: PointSet) -> list[complex]:
        """num / den at each point; a pole at any point raises."""
        if self._at is points:
            return self._values
        dens = self.den.values(points)
        if 0 in dens:
            raise EvalPole("denominator vanishes at this q")
        vals = [n / d for n, d in zip(self.num.values(points), dens)]
        self._at, self._values = points, vals
        return vals

    def at(self, q) -> GaussRational:
        """Exact value at a rational q (see ``HalfLaurent.at``)."""
        d = self.den.at(q)
        if d.is_zero():
            raise EvalPole("denominator vanishes at this q")
        return self.num.at(q) / d

    def key(self) -> tuple:
        return self.num.terms, self.den.terms

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, LaurentFrac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # a radicand is hashed in every dict of terms that it keys
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentFrac({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


_LF_ZERO = LaurentFrac(_HL_ZERO)
_LF_ONE = LaurentFrac(_HL_ONE)


def _split_gauss_square(x: int, y: int, d: int) -> tuple[tuple, tuple]:
    """Write (x + y i)/d = s^2 * c0 with s a positive rational, both as
    (x, y, d) ints; extraction is maximal over positive rational squares, so
    the result is canonical."""
    # c = (g/d) * (x + y i)/g with g = gcd(x, y), and g/d is in lowest terms
    sg, sd = _square_part(_int_gcd(x, y)), _square_part(d)
    return (sg, 0, sd), (x // (sg * sg), y // (sg * sg), d // (sd * sd))


def _split_radical(r: LaurentFrac) -> tuple[LaurentFrac, LaurentFrac | None]:
    """Decompose sqrt(r) as outside * sqrt(inside), inside a radicand.

    Only even t-powers, positive rational squares and square polynomial
    factors move outside.  So a radicand is a canonical fraction whose
    numerator has valuation 0 or 1 and no square content or square
    polynomial factor left, and which is never 1.  Its squarefree
    denominator stays under the root, so numeric evaluation takes a single
    principal square root of the true value (rationalizing would flip the
    sign wherever the denominator is negative).  Returns (0, None) for
    r = 0 and (outside, None) when r is a perfect square.
    """
    if r.is_zero():
        return LaurentFrac.zero(), None
    v = r.num.valuation()
    a, b = divmod(v, 2)
    lead = r.num.terms[-1][1:]
    s_num, f_num = squarefree_split(_scaled(r.num, -v, *_inverse(*lead)))
    s_rat, c0 = _split_gauss_square(*lead)
    # den = s_den^2 * f_den: the square part moves outside, the squarefree
    # part stays under the root (sqrt(x/f) = sqrt(x f)/f is not branch-safe).
    s_den, f_den = squarefree_split(r.den)
    inside = LaurentFrac(_scaled(f_num, b, *c0), f_den)
    outside = LaurentFrac(_scaled(s_num, a, *s_rat), s_den)
    if inside.is_one():
        return outside, None
    return outside, inside


class RadicalScalar:
    """Ring element: sum of Laurent-fraction terms times formal radicals.

    ``terms`` maps a tuple of distinct radicands (from ``_split_radical``),
    sorted by ``LaurentFrac.key()``, to its coefficient; the empty tuple
    keys the radical-free part.  The terms are held in the order of their
    radicands' keys, the order of ``key()``, in which evaluation sums them.  Addition merges like keys,
    multiplication cancels paired radicands exactly.

    Instances are interned: one live object per value, so ``a == b`` is
    ``a is b`` between scalars, and nothing may mutate ``terms``.  Each of
    ``+``, ``*``, ``-`` (both forms) and ``inverse()`` is answered from the
    identity memo ``_memo`` when it already holds the result; ``a + b`` and
    ``b + a`` (and ``a * b`` and ``b * a``) share one entry.  A product with
    ``MINUS_ONE`` is the memoized negation.
    """

    __slots__ = ("terms", "_key", "_at", "_values", "_cut", "__weakref__")

    def __new__(cls, terms: dict[tuple[LaurentFrac, ...], LaurentFrac] | None = None):
        if terms is None:
            terms = {}
        return RadicalScalar._nonzero({k: c for k, c in terms.items() if not c.is_zero()})

    @staticmethod
    def _nonzero(terms: dict) -> "RadicalScalar":
        """The interned scalar with ``terms``; the caller guarantees no zero.

        The key is built first and the table read before anything else is:
        a scalar is made only for a value that has no live one.
        """
        if len(terms) == 1:
            ((k, c),) = terms.items()
            key = ((tuple([r.key() for r in k]) if k else (), (c.num.terms, c.den.terms)),)
        elif not terms:
            key = ()
        else:
            # radicand tuples differ term by term, so the sort never
            # compares the radicands or coefficients themselves
            ordered = sorted([(tuple([r.key() for r in k]), k, c) for k, c in terms.items()])
            key = tuple([(rkeys, c.key()) for rkeys, _, c in ordered])
            terms = {k: c for _, k, c in ordered}
        entry = _INTERN.get(key)
        if entry is not None:
            out = entry()
            if out is not None:
                return out
        out = _new(RadicalScalar)
        out.terms = terms
        out._key = key
        out._at = None
        entry = _INTERN[key] = _Entry(out, _forget)
        entry.key = key
        return out

    def __reduce__(self):
        # copy and pickle rebuild through the table; the default protocol
        # would call __new__ with no terms and overwrite ZERO's slots
        return (RadicalScalar, (self.terms,))

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RadicalScalar":
        return ZERO

    @staticmethod
    def one() -> "RadicalScalar":
        return ONE

    @staticmethod
    def from_frac(f: LaurentFrac) -> "RadicalScalar":
        return RadicalScalar({(): f})

    @staticmethod
    def constant(c) -> "RadicalScalar":
        """The constant c: an int, a Fraction or a GaussRational.

        The table is read at the constant's canonical key first; the tower
        of fraction, polynomial and coefficient is built only for a constant
        that has no live scalar.
        """
        if type(c) is not GaussRational:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(c)!r} to GaussRational")
            c = GaussRational(c)
        if not c.x and not c.y:
            return ZERO
        entry = _INTERN.get((((), (((0, c.x, c.y, c.d),), _ONE_TERMS)),))
        if entry is not None:
            out = entry()
            if out is not None:
                return out
        return RadicalScalar._nonzero({(): LaurentFrac._reduced(HalfLaurent._of(((0, c.x, c.y, c.d),)), _HL_ONE)})

    @staticmethod
    def t_power(k: int) -> "RadicalScalar":
        """q^(k/2)."""
        return RadicalScalar({(): LaurentFrac(HalfLaurent.t_power(k))})

    # ---- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self is ONE

    def is_fraction(self) -> bool:
        return all(k == () for k in self.terms)

    def as_fraction(self) -> LaurentFrac:
        if self.is_zero():
            return LaurentFrac.zero()
        if not self.is_fraction():
            raise ScalarError("value carries unresolved radicals")
        return self.terms[()]

    # ---- ring operations -----------------------------------------------

    def __add__(self, other):
        if type(other) is not RadicalScalar:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        if id(other) < id(self):
            self, other = other, self
        # the memo hit, read in line; _add is looked up per call, so a
        # replaced _add is the one that computes and keys the entry
        op = RadicalScalar._add
        key = (op, id(self), id(other))
        entry = _MEMO.get(key)
        if entry is not None:
            return entry[2]
        if _negation_of(self) is other or _negation_of(other) is self:
            return ZERO
        return _remember(key, op, self, other)

    __radd__ = __add__

    def _add(self, other: "RadicalScalar") -> "RadicalScalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return RadicalScalar._nonzero(out) if out else ZERO

    def __neg__(self) -> "RadicalScalar":
        return _memo(RadicalScalar._neg, self)

    def _neg(self) -> "RadicalScalar":
        return RadicalScalar._nonzero({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not RadicalScalar:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return -other
        if self is other:
            return ZERO
        return _memo(RadicalScalar._sub, self, other)

    def __rsub__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def _sub(self, other: "RadicalScalar") -> "RadicalScalar":
        """self - other, subtracting term by term so -other is never built."""
        out = dict(self.terms)
        for k, c in other.terms.items():
            deduct(out, k, c)
        return RadicalScalar._nonzero(out) if out else ZERO

    def __mul__(self, other):
        if type(other) is not RadicalScalar:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        if other is ONE:
            return self
        if self is ONE:
            return other
        if not self.terms or not other.terms:
            return ZERO
        if other is MINUS_ONE:
            return _memo(RadicalScalar._neg, self)
        if self is MINUS_ONE:
            return _memo(RadicalScalar._neg, other)
        if id(other) < id(self):
            self, other = other, self
        # as in __add__: the memo hit in line, _mul looked up per call
        op = RadicalScalar._mul
        key = (op, id(self), id(other))
        entry = _MEMO.get(key)
        if entry is not None:
            return entry[2]
        return _remember(key, op, self, other)

    __rmul__ = __mul__

    def _mul(self, other: "RadicalScalar") -> "RadicalScalar":
        if len(self.terms) == 1 and len(other.terms) == 1:
            # a radical-free factor leaves the other's radicands as they are
            ((k1, c1),), ((k2, c2),) = self.terms.items(), other.terms.items()
            if not k1:
                return RadicalScalar._nonzero({k2: c1 * c2})
            if not k2:
                return RadicalScalar._nonzero({k1: c1 * c2})
        out: dict[tuple[LaurentFrac, ...], LaurentFrac] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                coeff = c1 * c2
                merged: list[LaurentFrac] = []
                i = j = 0
                while i < len(k1) and j < len(k2):
                    r1, r2 = k1[i], k2[j]
                    if r1 == r2:
                        coeff = coeff * r1
                        i += 1
                        j += 1
                    elif r1.key() < r2.key():
                        merged.append(r1)
                        i += 1
                    else:
                        merged.append(r2)
                        j += 1
                merged.extend(k1[i:])
                merged.extend(k2[j:])
                accumulate(out, tuple(merged), coeff)
        return RadicalScalar._nonzero(out)

    def __pow__(self, n: int) -> "RadicalScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = RadicalScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "RadicalScalar":
        """Exact inverse, from the memo when it holds one, else ``_inverse``."""
        return _memo(RadicalScalar._inverse, self)

    def _inverse(self) -> "RadicalScalar":
        """Exact inverse by successive conjugation over each radical."""
        if self.is_zero():
            raise NotInvertible("division by zero")
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            inv = coeff.inverse()
            for r in key:
                inv = inv * r.inverse()
            return RadicalScalar({key: inv})
        rads = sorted({r for key in self.terms for r in key}, key=LaurentFrac.key)
        for rad in reversed(rads):
            with_r: dict[tuple[LaurentFrac, ...], LaurentFrac] = {}
            without_r: dict[tuple[LaurentFrac, ...], LaurentFrac] = {}
            for key, c in self.terms.items():
                if rad in key:
                    with_r[tuple(r for r in key if r != rad)] = c
                else:
                    without_r[key] = c
            a = RadicalScalar(without_r)
            b = RadicalScalar(with_r)
            root = RadicalScalar({(rad,): LaurentFrac.one()})
            denom = a * a - b * b * RadicalScalar.from_frac(rad)
            if denom.is_zero():
                continue
            return (a - b * root) * denom.inverse()
        raise NotInvertible("radicals are algebraically dependent")

    def __truediv__(self, other) -> "RadicalScalar":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "RadicalScalar":
        return _coerce(other) * self.inverse()

    # ---- comparisons ---------------------------------------------------

    def key(self) -> tuple:
        """Canonical form: radicand keys and coefficient key of each term."""
        return self._key

    def __eq__(self, other) -> bool:
        if type(other) is not RadicalScalar:
            # the abc check on Fraction is slow, so it runs only off the fast path
            if not isinstance(other, (int, Fraction, GaussRational)):
                return NotImplemented
            other = _coerce(other)
        return self is other

    def __hash__(self):
        return hash(self._key)

    # ---- evaluation ----------------------------------------------------

    def values_with_flag(self, points: PointSet) -> tuple[list[complex], bool]:
        """Principal-branch value at each point, plus a branch-cut flag: set
        when a radicand is a negative real number at some point (its square
        root then sits on the branch cut).  A prefix reads its whole set's."""
        whole = points.whole
        if self._at is not whole:
            totals = [0j] * len(whole)
            cut = len(whole)  # the first point at which the flag is set
            for key, coeff in self.terms.items():
                vals = coeff.values(whole)
                for rad in key:
                    rvs = rad.values(whole)
                    cut = next((i for i, v in enumerate(rvs[:cut]) if v.imag == 0.0 and v.real < 0.0), cut)
                    vals = [v * cmath.sqrt(rv) for v, rv in zip(vals, rvs)]
                totals = [a + v for a, v in zip(totals, vals)]
            self._at, self._values, self._cut = whole, totals, cut
        return self._values[: len(points)], self._cut < len(points)

    def eval_with_flags(self, q_value: complex) -> tuple[complex, bool]:
        """``values_with_flag`` at the one point ``q_value``."""
        values, flag = self.values_with_flag(PointSet((q_value,)))
        return values[0], flag

    def at(self, q) -> "RadicalScalar":
        """Exact value at a rational q, each radicand's value under ``sqrt``.
        This evaluates; it takes no limit: a pole of a coefficient or radicand
        raises ``EvalPole`` even where the scalar tends to a finite value."""
        total = ZERO
        for key, coeff in self.terms.items():
            term = RadicalScalar.constant(coeff.at(q))
            for rad in key:
                term = term * sqrt(RadicalScalar.constant(rad.at(q)))
            total = total + term
        return total

    # ---- rendering -----------------------------------------------------

    def __repr__(self) -> str:
        return f"RadicalScalar({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.terms.items():
            cs = str(coeff)
            if key:
                roots = "*".join(f"sqrt({r})" for r in key)
                if cs == "1":
                    parts.append(roots)
                elif cs == "-1":
                    parts.append(f"-{roots}")
                else:
                    body = cs if coeff.den.is_one() and len(coeff.num.terms) == 1 else f"({cs})"
                    parts.append(f"{body}*{roots}")
            else:
                parts.append(cs)
        return " + ".join(parts)


# canonical key -> a weak reference to the one live scalar of that value.
# The reference's callback drops the entry when its scalar goes; ZERO, ONE,
# MINUS_ONE, q and 1/q are held by this module for good.
_INTERN: dict = {}


class _Entry(weakref.ref):
    """A weak reference that knows its key in the table; unlike
    ``weakref.KeyedRef`` it is built with no Python-level constructor."""

    __slots__ = ("key",)


def _forget(entry: _Entry, table: dict = _INTERN) -> None:
    """Drop the entry of a scalar that has gone, unless a newer scalar took
    its key already.  The table is bound here, so the callback still finds
    it while the interpreter shuts down."""
    held = table.pop(entry.key, None)
    if held is not entry and held is not None:
        table[entry.key] = held


# Results of every RadicalScalar operation, keyed on the operation and the
# identity of each operand, shared between callers (nothing mutates a scalar
# once built).  Sums and products come in with their operands ordered by id,
# so both orders share one entry; differences keep their order; negations,
# inverses and square roots have None for the second operand.  An entry holds
# its operands, so their ids cannot be reused while it lives.  The entries
# live in two generations of MEMO_CAP // 2: a hit in the older one moves its
# entry to the younger, and when the younger is full the older is dropped and
# the younger takes its place, so at most MEMO_CAP entries are ever held.
MEMO_CAP = 512
_MEMO: dict = {}
_MEMO_OLD: dict = {}


def _memo(op, a: RadicalScalar, b: RadicalScalar | None = None) -> RadicalScalar:
    key = (op, id(a), id(b))
    entry = _MEMO.get(key)
    if entry is None:
        return _remember(key, op, a, b)
    return entry[2]


def _remember(key: tuple, op, a: RadicalScalar, b: RadicalScalar | None) -> RadicalScalar:
    """The result for ``key``, which the younger generation does not hold:
    moved up from the older one, or computed, then entered in the younger."""
    global _MEMO, _MEMO_OLD
    entry = _MEMO_OLD.pop(key, None)
    if entry is None:
        entry = (a, b, op(a) if b is None else op(a, b))
    if len(_MEMO) >= MEMO_CAP // 2:
        _MEMO_OLD, _MEMO = _MEMO, {}
    _MEMO[key] = entry
    return entry[2]


def _negation_of(a: RadicalScalar) -> RadicalScalar | None:
    """``-a`` if either generation of the memo holds it, else None."""
    key = (RadicalScalar._neg, id(a), id(None))
    entry = _MEMO.get(key) or _MEMO_OLD.get(key)
    return entry[2] if entry is not None else None


def _coerce(x) -> RadicalScalar:
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, int):
        if x == 1:
            return ONE
        if x == 0:
            return ZERO
        return RadicalScalar.constant(x)
    if isinstance(x, (Fraction, GaussRational)):
        return RadicalScalar.constant(x)
    if isinstance(x, LaurentFrac):
        return RadicalScalar.from_frac(x)
    if isinstance(x, HalfLaurent):
        return RadicalScalar.from_frac(LaurentFrac(x))
    raise TypeError(f"cannot coerce {type(x)!r} to RadicalScalar")


def sqrt(x: RadicalScalar) -> RadicalScalar:
    """Formal square root of a radical-free scalar (principal branch)."""
    return _memo(_sqrt, _coerce(x))


def _sqrt(x: RadicalScalar) -> RadicalScalar:
    outside, rad = _split_radical(x.as_fraction())
    if rad is None:
        return RadicalScalar.from_frac(outside)
    return RadicalScalar({(rad,): outside})


# Convenience values used throughout the engine.

ZERO = RadicalScalar()
ONE = RadicalScalar({(): LaurentFrac.one()})
MINUS_ONE = RadicalScalar.constant(-1)
_Q = RadicalScalar.t_power(2)
_QINV = RadicalScalar.t_power(-2)


def qvar() -> RadicalScalar:
    """The deformation parameter q."""
    return _Q


def qinv() -> RadicalScalar:
    return _QINV


@cache
def q_minus_qinv_inverse() -> RadicalScalar:
    """1 / (q - q^(-1)), the denominator of every q-bracket."""
    return (_Q - _QINV).inverse()


def q_half(k: int = 1) -> RadicalScalar:
    """q^(k/2)."""
    return RadicalScalar.t_power(k)


def q_plus_qinv() -> RadicalScalar:
    """The combination q + q^(-1)."""
    return qvar() + qinv()


def q_bracket_of(value: RadicalScalar) -> RadicalScalar:
    """(v - v^(-1)) / (q - q^(-1)) for an invertible v standing for q^E."""
    return (value - value.inverse()) * q_minus_qinv_inverse()
