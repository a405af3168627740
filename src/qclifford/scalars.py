"""Exact scalar arithmetic for the verification engine.

The scalar ring is built in layers:

* ``GaussRational`` -- Gaussian rationals (x + y i)/d held as three ints
  in lowest terms, so the arithmetic never touches ``Fraction``;
* ``HalfLaurent`` -- Laurent polynomials in t = q^(1/2) with Gaussian
  rational coefficients (the exponent k stands for q^(k/2));
* ``LaurentFrac`` -- the fraction field of ``HalfLaurent``, reduced to a
  unique canonical form (monic denominator of valuation zero, gcd one);
* ``RadicalScalar`` -- finite sums of fraction-coefficient terms, each
  carrying a set of canonical fractions under formal square roots.

Identical radicands multiply out exactly (sqrt(a)*sqrt(a) = a), so every
identity whose radicals only ever appear squared is decided exactly.
Numeric evaluation uses the principal branch throughout; only positive
rational squares and even powers of t are ever moved out of a root, which
keeps exact and principal-branch numeric values in agreement on the
positive real q axis.  Each scalar has one canonical form, ``key()``, a
nested tuple of ints, and evaluation sums terms in its order, so a float
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
  shared objects, so ``is_one`` mostly decides by identity, and a
  ``LaurentFrac`` builds its key once;
* a product of two one-term scalars with a radical-free factor skips the
  radicand merge, and a product of two monomial fractions over
  denominator 1 is one coefficient product.

Numeric values are cached on the objects that have them: a scalar keeps
(value, branch-cut flag) per q, and a polynomial its value per point, for
up to ``POINTS_HELD`` points each.  A cache goes with its object, and an
evaluation that raises (``EvalPole``, ``ZeroBase``) stores nothing.
"""

from __future__ import annotations

import cmath
import weakref
from fractions import Fraction
from functools import cache
from math import copysign, gcd as _int_gcd, isqrt, lcm


class ScalarError(Exception):
    """Base class for scalar arithmetic errors."""


class ZeroBase(ScalarError):
    """Numeric evaluation requested at q = 0."""


class Divergent(ScalarError):
    """The q -> 1 limit does not exist."""


class NotInvertible(ScalarError):
    """Division by a scalar with no inverse in the ring."""


class EvalPole(ScalarError):
    """Numeric evaluation hit a zero of a denominator."""


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
    line, as ``_gauss`` does, because every sum and product runs it."""
    if d != 1:
        g = _int_gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    out = _new(GaussRational)
    out.x, out.y, out.d = x, y, d
    return out


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
        x, y, d = self.x, self.y, self.d
        if y:
            return _lowest(d * x, -d * y, x * x + y * y)
        if not x:
            raise NotInvertible("division by zero")
        if d == 1 and x in (1, -1):
            return self
        # d/x is in lowest terms already: gcd(x, d) = 1
        return _gauss(d if x > 0 else -d, 0, abs(x))

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

    def to_complex(self) -> complex:
        # int / int rounds correctly, so this equals float() of each part
        return complex(self.x / self.d, self.y / self.d)

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
GR_ONE = GaussRational(1)


class HalfLaurent:
    """Laurent polynomial in t = q^(1/2); exponent k means q^(k/2)."""

    __slots__ = ("coeffs", "_key", "_complex", "_values")

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        self._key = None
        self._complex = None
        self._values = None

    @staticmethod
    def _nonzero(coeffs: dict) -> "HalfLaurent":
        """Wrap ``coeffs`` as is; the caller guarantees it holds no zero."""
        out = _new(HalfLaurent)
        out.coeffs = coeffs
        out._key = None
        out._complex = None
        out._values = None
        return out

    @staticmethod
    def zero() -> "HalfLaurent":
        return _HL_ZERO

    @staticmethod
    def one() -> "HalfLaurent":
        return _HL_ONE

    @staticmethod
    def t_power(k: int) -> "HalfLaurent":
        return HalfLaurent({k: GR_ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        if self is _HL_ONE:
            return True
        c = self.coeffs.get(0)
        return c is not None and len(self.coeffs) == 1 and c.x == 1 and not c.y and c.d == 1

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            accumulate(out, k, c)
        return HalfLaurent._nonzero(out)

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent._nonzero({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        if self.is_one():
            return other
        if other.is_one():
            return self
        out: dict[int, GaussRational] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                accumulate(out, k1 + k2, c1 * c2)
        return HalfLaurent._nonzero(out)

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

    def scale(self, c: GaussRational) -> "HalfLaurent":
        if c.is_zero():
            return HalfLaurent.zero()
        if c.x == 1 and not c.y and c.d == 1:
            return self
        return HalfLaurent({k: v * c for k, v in self.coeffs.items()})

    def shifted(self, k: int) -> "HalfLaurent":
        if k == 0:
            return self
        return HalfLaurent({e + k: c for e, c in self.coeffs.items()})

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("valuation of zero")
        return min(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of zero")
        return max(self.coeffs)

    def lead_coeff(self) -> GaussRational:
        return self.coeffs[self.degree()]

    def monic_pair(self) -> tuple["HalfLaurent", GaussRational]:
        """Return (self / lead, lead)."""
        lead = self.lead_coeff()
        inv = lead.inverse()
        return self.scale(inv), lead

    def derivative(self) -> "HalfLaurent":
        out = {}
        for k, c in self.coeffs.items():
            if k != 0:
                out[k - 1] = c * GaussRational(k)
        return HalfLaurent(out)

    def _ordered(self):
        """(exponent, coefficient) pairs by ascending exponent."""
        items = self.coeffs.items()
        return sorted(items) if len(items) > 1 else items

    def eval_t(self, t: complex) -> complex:
        if self._complex is None:
            self._complex = tuple((k, complex(x / d, y / d)) for k, x, y, d in self.key())
        total = 0j
        for k, c in self._complex:
            total += c * t**k
        return total

    def _value(self, t: complex, at) -> complex:
        """``eval_t(t)``, computed once per point: ``at`` is the point key
        (see ``_point_key``) of the q whose square root is ``t``."""
        values = self._values
        if values is None:
            values = self._values = {}
        v = values.get(at)
        if v is None:
            v = self.eval_t(t)
            if len(values) < POINTS_HELD:
                values[at] = v
        return v

    def at_one(self) -> GaussRational:
        total = GR_ZERO
        for c in self.coeffs.values():
            total = total + c
        return total

    def subs_q(self, q: Fraction) -> GaussRational:
        """Exact value at a rational q; only integer powers of q allowed."""
        if q == 0:
            raise ZeroBase("q must be nonzero")
        total = GR_ZERO
        for k, c in self.coeffs.items():
            if k % 2:
                raise ScalarError("half-integer power of q has no rational value")
            total = total + c * GaussRational(q ** (k // 2))
        return total

    def key(self) -> tuple:
        """Canonical form: all-int ``(exponent, x, y, d)`` tuples, one per term
        (x + y i)/d * t^exponent, by ascending exponent."""
        if self._key is None:
            self._key = tuple((k, c.x, c.y, c.d) for k, c in self._ordered())
        return self._key

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, HalfLaurent) and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        return f"HalfLaurent({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(_render_term(c, k) for k, c in self._ordered())


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


_HL_ZERO = HalfLaurent()
_HL_ONE = HalfLaurent({0: GR_ONE})


def _poly_divmod(a: HalfLaurent, b: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
    """Polynomial division for valuation >= 0 operands, b nonzero."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.coeffs)
    quo: dict[int, GaussRational] = {}
    db = b.degree()
    lb = b.coeffs[db]
    lb_inv = lb.inverse()
    while rem and max(rem) >= db:
        da = max(rem)
        coef = rem[da] * lb_inv
        quo[da - db] = coef
        for k, c in b.coeffs.items():
            accumulate(rem, k + da - db, -(c * coef))
    return HalfLaurent._nonzero(quo), HalfLaurent._nonzero(rem)


def _poly_exact_div(a: HalfLaurent, b: HalfLaurent) -> HalfLaurent:
    q, r = _poly_divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_gcd(a: HalfLaurent, b: HalfLaurent) -> HalfLaurent:
    """Monic gcd of the valuation-stripped polynomial parts (1 if coprime).

    Units t^k are ignored: the result always has valuation 0, and a
    monomial operand is such a unit, so it needs no Euclid.  Both operands
    must be nonzero: a zero one raises ValueError from valuation() unless
    the other is a monomial.
    """
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return HalfLaurent.one()
    x = a.shifted(-a.valuation())
    y = b.shifted(-b.valuation())
    while not y.is_zero():
        _, r = _poly_divmod(x, y)
        x = y
        if r.is_zero():
            y = HalfLaurent.zero()
        else:
            y = r.shifted(-r.valuation())
    return x.monic_pair()[0]


def squarefree_split(p: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
    """Write a monic valuation-0 polynomial p as s^2 * f with f squarefree.

    Both factors come back monic; works over any characteristic-0 field.
    """
    if p.degree() == 0:
        return HalfLaurent.one(), HalfLaurent.one()
    g = poly_gcd(p, p.derivative())
    if g.degree() == 0:
        return HalfLaurent.one(), p
    w = _poly_exact_div(p, g)
    sg, fg = squarefree_split(g)
    f = _poly_exact_div(w, fg)
    s = sg * fg
    return s, f


def _cancel(p: HalfLaurent, g: HalfLaurent) -> HalfLaurent:
    """p / g for a monic valuation-0 g dividing p's valuation-stripped part."""
    if g.is_one():
        return p
    v = p.valuation()
    return _poly_exact_div(p.shifted(-v), g).shifted(v)


def _monic_den(num: HalfLaurent, den: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
    """Rescale num/den so that den is monic with valuation 0 (den nonzero)."""
    vd = den.valuation()
    inv = den.lead_coeff().inverse()
    if len(den.coeffs) == 1:
        return num.shifted(-vd).scale(inv), _HL_ONE
    return num.shifted(-vd).scale(inv), den.shifted(-vd).scale(inv)


class LaurentFrac:
    """Reduced quotient of half-Laurent polynomials.

    Canonical form: denominator monic with valuation 0 and coprime to the
    valuation-stripped numerator, so equal values compare equal.
    """

    __slots__ = ("num", "den", "_key")

    def __init__(self, num: HalfLaurent, den: HalfLaurent | None = None):
        self._key = None
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
        out._key = None
        return out

    @staticmethod
    def zero() -> "LaurentFrac":
        return _LF_ZERO

    @staticmethod
    def one() -> "LaurentFrac":
        return _LF_ONE

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other: "LaurentFrac") -> "LaurentFrac":
        # Henrici: only a factor both denominators share can cancel
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.coeffs:
            return other
        if not c.coeffs:
            return self
        if b.is_one():
            return LaurentFrac._reduced(a * d + c, d)
        if d.is_one():
            return LaurentFrac._reduced(a + c * b, b)
        if b == d:
            g = b
            b1 = d1 = HalfLaurent.one()
        else:
            g = poly_gcd(b, d)
            if g.is_one():
                return LaurentFrac._reduced(a * d + c * b, b * d)
            b1, d1 = _cancel(b, g), _cancel(d, g)
        t = a * d1 + c * b1
        if not t.coeffs:
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
        if not a.coeffs or not c.coeffs:
            return _LF_ZERO
        if len(a.coeffs) == 1 and len(c.coeffs) == 1 and b.is_one() and d.is_one():
            # two monomials: one coefficient product, nothing to cancel
            ((j, x),), ((k, y),) = a.coeffs.items(), c.coeffs.items()
            return LaurentFrac._reduced(HalfLaurent._nonzero({j + k: x * y}), _HL_ONE)
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

    def _value(self, t: complex, at) -> complex:
        """The value at t = sqrt(q), from the point caches of both parts (see
        ``HalfLaurent._value``); a pole raises on every call."""
        d = self.den._value(t, at)
        if d == 0:
            raise EvalPole("denominator vanishes at this q")
        return self.num._value(t, at) / d

    def at_one(self) -> GaussRational:
        d = self.den.at_one()
        if d.is_zero():
            raise Divergent("denominator vanishes at q = 1")
        return self.num.at_one() / d

    def subs_q(self, q: Fraction) -> GaussRational:
        d = self.den.subs_q(q)
        if d.is_zero():
            raise EvalPole("denominator vanishes at this q")
        return self.num.subs_q(q) / d

    def key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._key = (self.num.key(), self.den.key())
        return key

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, LaurentFrac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        return f"LaurentFrac({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


_LF_ZERO = LaurentFrac(_HL_ZERO)
_LF_ONE = LaurentFrac(_HL_ONE)


def _split_gauss_square(c: GaussRational) -> tuple[GaussRational, GaussRational]:
    """Write c = s^2 * c0 with s a positive rational; extraction is maximal
    over positive rational squares, so the result is canonical."""
    # c = (g/d) * (x + y i)/g with g = gcd(x, y), and g/d is in lowest terms
    sg, sd = _square_part(_int_gcd(c.x, c.y)), _square_part(c.d)
    return _gauss(sg, 0, sd), _gauss(c.x // (sg * sg), c.y // (sg * sg), c.d // (sd * sd))


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
    num0 = r.num.shifted(-v)
    pm, clead = num0.monic_pair()
    s_num, f_num = squarefree_split(pm)
    s_rat, c0 = _split_gauss_square(clead)
    # den = s_den^2 * f_den: the square part moves outside, the squarefree
    # part stays under the root (sqrt(x/f) = sqrt(x f)/f is not branch-safe).
    s_den, f_den = squarefree_split(r.den)
    inside = LaurentFrac(f_num.scale(c0).shifted(b), f_den)
    out_num = s_num.scale(s_rat).shifted(a)
    outside = LaurentFrac(out_num, s_den)
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

    __slots__ = ("terms", "_key", "_values", "__weakref__")

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
        if len(terms) < 2:
            key = tuple([(tuple([r.key() for r in k]) if k else (), c.key()) for k, c in terms.items()])
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
        out._values = None
        _INTERN[key] = weakref.KeyedRef(out, _forget, key)
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
        entry = _INTERN.get((((), (((0, c.x, c.y, c.d),), _ONE_KEY)),))
        if entry is not None:
            out = entry()
            if out is not None:
                return out
        return RadicalScalar._nonzero({(): LaurentFrac._reduced(HalfLaurent._nonzero({0: c}), _HL_ONE)})

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

    def eval_with_flags(self, q_value: complex) -> tuple[complex, bool]:
        """Principal-branch numeric value plus a branch-cut warning flag.

        The flag is set when any radicand evaluates to a negative real
        number (the principal square root then sits on the branch cut).
        Computed once per point and then read from the scalar's own cache;
        an evaluation that raises stores nothing.
        """
        at = q_value if type(q_value) is float else _point_key(q_value)
        values = self._values
        if values is None:
            values = self._values = {}
        hit = values.get(at)
        if hit is None:
            hit = self._evaluate(q_value, at)
            if len(values) < POINTS_HELD:
                values[at] = hit
        return hit

    def _evaluate(self, q_value: complex, at) -> tuple[complex, bool]:
        """``eval_with_flags`` computed afresh; ``at`` names the point."""
        if q_value == 0:
            raise ZeroBase("q must be nonzero")
        if not self.terms:
            return 0j, False
        t = cmath.sqrt(complex(q_value))
        total = 0j
        branch_cut = False
        for key, coeff in self.terms.items():
            val = coeff._value(t, at)
            for rad in key:
                rv = rad._value(t, at)
                if rv.imag == 0.0 and rv.real < 0.0:
                    branch_cut = True
                val *= cmath.sqrt(rv)
            total += val
        return total, branch_cut

    def eval_at(self, q_value: complex) -> complex:
        return self.eval_with_flags(q_value)[0]

    def subs_q(self, q: Fraction) -> GaussRational:
        """Exact value at a rational q for radical-free even-power scalars."""
        total = GR_ZERO
        for key, coeff in self.terms.items():
            if key:
                raise ScalarError("value carries unresolved radicals")
            total = total + coeff.subs_q(q)
        return total

    def limit_q1(self) -> "RadicalScalar":
        """Value at q = 1 when finite; raises Divergent otherwise."""
        total = RadicalScalar.zero()
        for key, coeff in self.terms.items():
            c1 = coeff.at_one()
            term = RadicalScalar.constant(c1)
            for rad in key:
                rv = rad.at_one()
                term = term * sqrt(RadicalScalar.constant(rv))
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
                    body = cs if coeff.den.is_one() and len(coeff.num.coeffs) == 1 else f"({cs})"
                    parts.append(f"{body}*{roots}")
            else:
                parts.append(cs)
        return " + ".join(parts)


# canonical key -> a weak reference to the one live scalar of that value.
# The reference's callback drops the entry when its scalar goes; ZERO, ONE,
# MINUS_ONE, q and 1/q are held by this module for good.
_INTERN: dict = {}


def _forget(entry: weakref.KeyedRef, table: dict = _INTERN) -> None:
    """Drop the entry of a scalar that has gone, unless a newer scalar took
    its key already.  The table is bound here, so the callback still finds
    it while the interpreter shuts down."""
    if table.get(entry.key) is entry:
        del table[entry.key]


# the key of the denominator 1, shared by the key of every constant
_ONE_KEY = _HL_ONE.key()

# most points whose values one scalar or polynomial keeps: each scalar caches
# (value, branch-cut flag) and each polynomial its value, keyed by point, so
# a run with many q samples holds at most this many per object
POINTS_HELD = 64


def _point_key(q) -> tuple:
    """The cache key of a non-float point: the complex value with the signs
    of both parts, since cmath.sqrt tells -0.0 from 0.0 on the negative axis.
    A float q is its own key: complex() gives it a +0.0 imaginary part."""
    z = complex(q)
    return (z, copysign(1.0, z.real), copysign(1.0, z.imag))


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
