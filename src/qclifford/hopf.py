"""Executable Hopf algebra axiom checkers.

A ``HopfData`` bundles a finitely presented algebra with generator-level
coproduct, counit and (optionally partial) antipode assignments.
``extend`` applies Delta (into the tensor square) and the antipode (on the
reversed word) letter by letter; eps is a character, so eps(w) is the
product of its letters' counits.

Each law is decided on all of H by the standard lemma (Kassel, *Quantum
Groups*, GTM 155, ch. III; Majid, *Foundations of Quantum Group Theory*,
ch. 1): it holds on H once its premises hold and it holds on every
generator x, where its sides are sums over the terms c (u x v) of Delta(x),
u and v normal words of H.  A premise says that a structure map respects
every rule a*b -> R, so that it is well defined on H:

- coassociativity needs Delta(a) Delta(b) = Delta(R); both sides are then
  algebra maps into the tensor cube.  At x they are sum c Delta(u) x v and
  sum c u x Delta(v): a slot-sorted word whose slots are normal words of H
  is a normal form of the cube, so they are built by concatenation and no
  cube is built;
- the counit law needs that and eps(a) eps(b) = eps(R); both sides and the
  identity are then algebra maps H -> H.  At x they are sum c eps(u) v and
  sum c eps(v) u, normal forms as they stand;
- the antipode law needs both and S(b) S(a) = S(R); the elements where
  m (S x id) Delta = eps * 1 holds then form a subalgebra, and so do
  those where m (id x S) Delta = eps * 1 holds.  At x the sides are the
  normal forms of sum c S(u) v and sum c u S(v).

A failed premise fails the verdict and leads its witnesses, so no verdict
passes vacuously; each law reads only its own premises.  A premise is a
fact about the presentation and one map, not about a law: each premise row
(one map on every rule) is computed once per rewrite system and generator
images, compared by content, and shared by every law and every algebra on
that system.  All comparisons are of normal forms in the algebra and its
tensor square and cube, which are confluent
(``tests/test_hopf.py::TestTargetConfluence``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .rewrite import NCPolynomial, RewriteSystem, Word
from .scalars import ZERO, RadicalScalar, accumulate


class AntipodeMissing(Exception):
    """Antipode requested for a generator that has none assigned."""


def extend(p: NCPolynomial, images: dict, target: RewriteSystem) -> NCPolynomial:
    """The image of ``p`` under the algebra map with these generator images.

    Letter images are multiplied left to right in ``target``; a sum of
    normal forms is returned, and so a normal form."""
    out: dict[Word, RadicalScalar] = {}
    for w, c in p.terms.items():
        image = NCPolynomial.unit()
        for letter in w:
            image = target.multiply(image, images[letter])
        for w2, c2 in image.terms.items():
            accumulate(out, w2, c * c2)
    return NCPolynomial._nonzero(out)


def _once(rs: RewriteSystem, key, build, *args):
    """``build(*args)``, computed once per system: it is kept in
    ``rs.derived``, so it lives no longer than ``rs``."""
    derived = rs.derived
    if key not in derived:
        derived[key] = build(*args)
    return derived[key]


def _shift(p: NCPolynomial, by: int) -> NCPolynomial:
    """``p`` with every letter moved ``by`` places up, into a later tensor slot."""
    return NCPolynomial._nonzero({tuple(i + by for i in w): c for w, c in p.terms.items()})


def _convolve(terms, f) -> NCPolynomial:
    """sum c f(u, v) over the terms (c, u, v) of some Delta(p)."""
    return sum((f(u, v).scale(c) for c, u, v in terms), NCPolynomial.zero())


@dataclass
class HopfData:
    """Presentation plus generator-level coalgebra structure.

    coproduct values live in the tensor square of ``rs`` (slot-0 index i,
    slot-1 index size+i); counit values are scalars; antipode values are
    polynomials over ``rs`` itself and may be missing for some generators.
    """

    rs: RewriteSystem
    coproduct: dict[int, NCPolynomial]
    counit: dict[int, RadicalScalar]
    antipode: dict[int, NCPolynomial] = field(default_factory=dict)

    @property
    def t2(self) -> RewriteSystem:
        return _once(self.rs, ("tensor_power", 2), self.rs.tensor_power, 2)

    def split(self, tw: Word) -> tuple[Word, Word]:
        """The slot parts (u, v) of a slot-sorted tensor-square word."""
        g = self.rs.size
        k = bisect_left(tw, g)  # slot-0 letters (< g) all come first
        return tw[:k], tuple(i - g for i in tw[k:])

    def terms(self, p: NCPolynomial) -> list:
        """Delta(p) = sum c u x v as its terms (c, u, v), u and v normal words of H."""
        return [(c, *map(NCPolynomial.word, self.split(tw))) for tw, c in self.delta(p).terms.items()]

    def delta(self, p: NCPolynomial) -> NCPolynomial:
        return extend(p, self.coproduct, self.t2)

    def counit_of(self, p: NCPolynomial) -> NCPolynomial:
        """eps(p) * 1 in ``rs``.  eps is a character, so eps(w) is the product
        of its letters' counits: a scalar, found with no normal form."""
        total = ZERO
        for w, c in p.terms.items():
            for letter in w:
                c = c * self.counit[letter]
            total = total + c
        return NCPolynomial({(): total})

    def antipode_of(self, p: NCPolynomial) -> NCPolynomial:
        """S(p); S is anti-multiplicative, so S(w) is the image of w reversed."""
        for w in p.terms:
            for letter in reversed(w):
                if letter not in self.antipode:
                    raise AntipodeMissing(self.rs.names[letter])
        reversed_p = NCPolynomial._nonzero({w[::-1]: c for w, c in p.terms.items()})
        return extend(reversed_p, self.antipode, self.rs)

    def missing_antipode_generators(self) -> list[str]:
        return [self.rs.names[i] for i in range(self.rs.size) if i not in self.antipode]


@dataclass
class AxiomResult:
    """Outcome of one axiom check: pass/fail plus exact witnesses.

    ``checked_words`` counts the generators a Hopf law was evaluated on, or
    the rules the bialgebra compatibility was."""

    name: str
    ok: bool
    checked_words: int
    witnesses: list[tuple[str, str]] = field(default_factory=list)


def _premise_row(h: HopfData, m: str) -> list[tuple[str, str] | None]:
    """Map ``m`` on every rule a*b -> R of ``h.rs``: the witness where m does
    not respect the rule, else None.

    "Delta" compares Delta(a) Delta(b) with Delta(R), "eps" eps(a) eps(b)
    with eps(R) (the witness is the scalar difference), and "S" S(b) S(a)
    with S(R).  A row depends only on the system and m's generator images,
    so it is computed once per system and images, compared by content: an
    algebra whose map was changed reads its own row."""
    rs = h.rs
    images, image, render = {
        "Delta": (h.coproduct, h.delta, h.t2.render),
        "eps": (h.counit, h.counit_of, lambda d: str(d.terms[()])),
        "S": (h.antipode, h.antipode_of, rs.render),
    }[m]

    def build() -> list[tuple[str, str] | None]:
        row = []
        for (a, b), rhs in rs.rules.items():
            diff = image(NCPolynomial.word((a, b))) - image(rhs)
            label = f"{m}({rs.names[a]}*{rs.names[b]})"
            row.append(None if diff.is_zero() else (label, render(diff)))
        return row

    return _once(rs, (m, frozenset(images.items())), build)


def _premise_witnesses(h: HopfData, maps: tuple[str, ...]) -> list[tuple[str, str]]:
    """The rules a*b -> R that the named structure maps fail to respect,
    rule by rule, and within a rule in the order of ``maps``."""
    rows = [_premise_row(h, m) for m in maps]
    return [w for per_rule in zip(*rows) for w in per_rule if w is not None]


def _decide(h: HopfData, name: str, maps: tuple[str, ...], law, render) -> AxiomResult:
    """Decide a law on all of H: the premises on ``maps``, then each generator.

    ``law(x, terms)`` gives the sides of the law at generator x, from the
    terms of Delta(x), and the value each must equal; a side that differs
    gives the witness (x, side - goal)."""
    rs = h.rs
    witnesses = _premise_witnesses(h, maps)
    for x in range(rs.size):
        sides, goal = law(x, h.terms(NCPolynomial.gen(x)))
        witnesses += [(rs.names[x], render(side - goal)) for side in sides if side != goal]
    return AxiomResult(name, not witnesses, rs.size, witnesses)


def _coassociativity_sides(h: HopfData, terms) -> tuple[list[NCPolynomial], NCPolynomial]:
    """[(Delta x id) Delta(p)] and (id x Delta) Delta(p), as ``_decide`` reads a law's
    sides, from the terms of Delta(p): v moves to slot 2, Delta(v) to slots 1 and 2."""
    g = h.rs.size
    left = _convolve(terms, lambda u, v: h.delta(u) * _shift(v, 2 * g))
    return [left], _convolve(terms, lambda u, v: u * _shift(h.delta(v), g))


def check_coassociativity(h: HopfData) -> AxiomResult:
    """(Delta x id) o Delta = (id x Delta) o Delta on all of H.

    Witnesses name the cube's letters as ``tensor_power(3)`` would."""
    names = h.rs.tensor_names(3)
    return _decide(
        h, "coassociativity", ("Delta",), lambda x, terms: _coassociativity_sides(h, terms),
        lambda p: p.render(names),
    )


def check_counit(h: HopfData) -> AxiomResult:
    """(eps x id) o Delta = id = (id x eps) o Delta on all of H."""

    def law(x: int, terms):
        left = _convolve(terms, lambda u, v: h.counit_of(u) * v)
        right = _convolve(terms, lambda u, v: u * h.counit_of(v))
        return [left, right], NCPolynomial.gen(x)

    return _decide(h, "counit", ("Delta", "eps"), law, h.rs.render)


def check_antipode(h: HopfData) -> AxiomResult:
    """mult o (S x id) o Delta = unit o eps = mult o (id x S) o Delta on all of H.

    Raises AntipodeMissing when a generator has no antipode; callers that
    want a report test ``missing_antipode_generators`` first.
    """
    missing = h.missing_antipode_generators()
    if missing:
        raise AntipodeMissing(", ".join(missing))

    def law(x: int, terms):
        left = _convolve(terms, lambda u, v: h.antipode_of(u) * v)
        right = _convolve(terms, lambda u, v: u * h.antipode_of(v))
        return [h.rs.normal_form(left), h.rs.normal_form(right)], h.counit_of(NCPolynomial.gen(x))

    return _decide(h, "antipode", ("Delta", "eps", "S"), law, h.rs.render)


def check_bialgebra_compatibility(h: HopfData) -> AxiomResult:
    """Delta and eps respect every defining relation of the presentation."""
    witnesses = _premise_witnesses(h, ("Delta", "eps"))
    return AxiomResult("bialgebra_compatibility", not witnesses, len(h.rs.rules), witnesses)
