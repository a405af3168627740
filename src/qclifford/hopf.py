"""Executable Hopf algebra axiom checkers.

A ``HopfData`` bundles a finitely presented algebra with generator-level
coproduct, counit and (optionally partial) antipode assignments.  The
checkers evaluate the coassociativity, counit and antipode axioms on all
words up to a length bound, computing inside the tensor-square and
tensor-cube rewrite systems, and report exact witnesses on failure.
Structure maps extend multiplicatively (the antipode anti-multiplicatively),
so the generator- and relation-level checks are the decisive content; the
word sweep is a consistency net on top.

Every structure map is applied by one mechanism, ``WordImages``: a word's
image is its prefix's image times its last letter's image.  It gives the
coproduct in the tensor square, and in the algebra itself the identity
map's normal forms, the counit as eps(w) * 1 and (on reversed words) the
antipode.  Images are interned, so equal images are one object, and each
product is computed once per distinct (prefix image, last letter) pair.
These four tables live on the ``HopfData`` and are filled on first use,
so every later sweep of the same algebra reads them; the structure maps
must not change after that.

Every axiom is swept by one loop, ``_sweep``, and is given to it as legs
plus a target.  The legs of a slot pair (u, v) of a coproduct term are
what it adds to the two sides (Delta(u) v and u Delta(v), eps(u) v and
eps(v) u, S(u) v and u S(v)); each side is the sum of c * leg over the
terms of Delta(w), so it depends on the word's coproduct image alone and
is summed once per distinct image, keyed on the image's ``id``.  Those
keys stay valid because the coproduct table holds every image it hands
out.  Only the comparison with a target (NF(w) or eps(w) * 1) is made per
word; coassociativity, which has none, compares its two sides once per
image.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .rewrite import NCPolynomial, RewriteSystem, Word
from .scalars import RadicalScalar, accumulate


class AntipodeMissing(Exception):
    """Antipode requested for a generator that has none assigned."""


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

    @cached_property
    def t2(self) -> RewriteSystem:
        return self.rs.tensor_power(2)

    @cached_property
    def t3(self) -> RewriteSystem:
        return self.rs.tensor_power(3)

    @cached_property
    def delta_images(self) -> WordImages:
        """Coproducts of words, one table shared by every sweep of this algebra."""
        return WordImages(self.coproduct, self.t2)

    @cached_property
    def antipode_images(self) -> WordImages:
        """Antipodes of reversed words, one table shared like ``delta_images``."""
        return WordImages(self.antipode, self.rs)

    @cached_property
    def nf_images(self) -> WordImages:
        """Normal forms of words, the identity map's images, shared the same way."""
        return WordImages({i: NCPolynomial.gen(i) for i in range(self.rs.size)}, self.rs)

    @cached_property
    def counit_images(self) -> WordImages:
        """eps(w) * 1 for every word: the counit as a map into ``rs``, shared the same way."""
        return WordImages({i: NCPolynomial({(): e}) for i, e in self.counit.items()}, self.rs)

    def split(self, tw: Word) -> tuple[Word, Word]:
        """The slot parts (u, v) of a slot-sorted tensor-square word."""
        g = self.rs.size
        k = bisect_left(tw, g)  # slot-0 letters (< g) all come first
        return tw[:k], tuple(i - g for i in tw[k:])

    def delta(self, p: NCPolynomial) -> NCPolynomial:
        return self.delta_images.extend(p)

    def antipode_of(self, p: NCPolynomial) -> NCPolynomial:
        """S(p); S is anti-multiplicative, so S(w) is the image of w reversed."""
        for w in p.terms:
            for letter in reversed(w):
                if letter not in self.antipode:
                    raise AntipodeMissing(self.rs.names[letter])
        reversed_p = NCPolynomial._nonzero({w[::-1]: c for w, c in p.terms.items()})
        return self.antipode_images.extend(reversed_p)

    def missing_antipode_generators(self) -> list[str]:
        return [
            self.rs.names[i]
            for i in range(self.rs.size)
            if i not in self.antipode
        ]


@dataclass
class AxiomResult:
    """Outcome of one axiom sweep: pass/fail plus exact witnesses."""

    name: str
    ok: bool
    checked_words: int
    witnesses: list[tuple[str, str]] = field(default_factory=list)


class WordImages:
    """Images of words under the algebra map fixed by its generator images.

    A word's image is its prefix's image times the image of its last
    letter, multiplied in ``target``.  The structure maps are
    multiplicative and the target systems confluent (tested in
    ``tests/test_hopf.py::TestTargetConfluence``), so by the diamond lemma
    this bracketing gives the same normal form as any other.

    Images are interned by their term set: equal images are one object,
    and the product is computed once per distinct (prefix image, last
    letter) pair, not once per word.  The table holds every image it hands
    out, so an image's ``id`` is a stable memo key while the table lives.
    Equal words in the images are one interned tuple.
    """

    def __init__(self, gen_images, target: RewriteSystem):
        self.gen_images = gen_images
        self.target = target
        unit = NCPolynomial.unit()
        self.cache: dict[Word, NCPolynomial] = {(): unit}
        self.images: dict[frozenset, NCPolynomial] = {frozenset(unit.terms.items()): unit}
        # (id of the prefix image, last letter) -> the word's image
        self.products: dict[tuple[int, int], NCPolynomial] = {}
        self.words: dict[Word, Word] = {}

    def __call__(self, word) -> NCPolynomial:
        cached = self.cache.get(word)
        if cached is None:
            prefix = self(word[:-1])
            key = (id(prefix), word[-1])
            cached = self.products.get(key)
            if cached is None:
                image = self.target.multiply(prefix, self.gen_images[word[-1]])
                words = self.words
                terms = {words.setdefault(w, w): c for w, c in image.terms.items()}
                cached = self.images.setdefault(
                    frozenset(terms.items()), NCPolynomial._nonzero(terms)
                )
                self.products[key] = cached
            self.cache[word] = cached
        return cached

    def extend(self, p: NCPolynomial) -> NCPolynomial:
        """The image of ``p``: a sum of normal forms, and so normal itself."""
        out: dict[Word, RadicalScalar] = {}
        for w, c in p.terms.items():
            for w2, c2 in self(w).terms.items():
                accumulate(out, w2, c * c2)
        return NCPolynomial._nonzero(out)


def _sweep(h: HopfData, name: str, max_len: int, legs, target=None) -> AxiomResult:
    """Check one axiom, given by its legs and target, on every word up to ``max_len``.

    ``legs(u, v)`` gives the two normal forms that the slot pair (u, v) of
    a coproduct term adds to the left and right sides; it is called once
    per tensor word.  Each side is the sum of c * leg over the terms
    c (u x v) of Delta(w), summed once per distinct coproduct image.  With
    a ``target``, each side that differs from ``target(w)`` gives a
    witness; without one, the sides are compared with each other and the
    witness is their difference in the tensor cube.
    """
    rs, delta, split = h.rs, h.delta_images, h.split
    # tensor word of the slot pair (u, v) -> legs(u, v); kept per call, as
    # a memo on the HopfData raised peak RSS more than repeat sweeps saved
    leg_pairs: dict[Word, tuple[NCPolynomial, NCPolynomial]] = {}
    # id of a coproduct image -> its (left, right) sides and, without a
    # target, their rendered difference when they differ
    sides_of: dict[int, tuple[NCPolynomial, NCPolynomial, str | None]] = {}
    checked = 0
    witnesses = []
    for w in rs.iter_words(max_len):
        checked += 1
        image = delta(w)
        sides = sides_of.get(id(image))
        if sides is None:
            lhs: dict[Word, RadicalScalar] = {}
            rhs: dict[Word, RadicalScalar] = {}
            for tw, c in image.terms.items():
                pair = leg_pairs.get(tw)
                if pair is None:
                    pair = leg_pairs[tw] = legs(*split(tw))
                for w2, c2 in pair[0].terms.items():
                    accumulate(lhs, w2, c * c2)
                for w2, c2 in pair[1].terms.items():
                    accumulate(rhs, w2, c * c2)
            left, right = NCPolynomial._nonzero(lhs), NCPolynomial._nonzero(rhs)
            apart = target is None and left != right
            sides = sides_of[id(image)] = (left, right, h.t3.render(left - right) if apart else None)
        left, right, residual = sides
        if target is not None:
            goal = target(w)
            for side in (left, right):
                if side != goal:
                    witnesses.append((rs.render(NCPolynomial.word(w)), rs.render(side - goal)))
        elif residual is not None:
            witnesses.append((rs.render(NCPolynomial.word(w)), residual))
    return AxiomResult(name, not witnesses, checked, witnesses)


def check_coassociativity(h: HopfData, max_len: int = 4) -> AxiomResult:
    """(Delta x id) o Delta = (id x Delta) o Delta on words up to max_len.

    Slot-sorted concatenations of normal slot parts are already normal in
    the tensor systems, so the legs Delta(u) v and u Delta(v) of a slot
    pair are its coproduct values shifted into the tensor cube.
    """
    g = h.rs.size
    delta = h.delta_images

    def legs(u: Word, v: Word) -> tuple[NCPolynomial, NCPolynomial]:
        v3 = tuple(x + 2 * g for x in v)
        return (
            NCPolynomial._nonzero({tw + v3: c for tw, c in delta(u).terms.items()}),
            NCPolynomial._nonzero(
                {u + tuple(x + g for x in tw): c for tw, c in delta(v).terms.items()}
            ),
        )

    return _sweep(h, "coassociativity", max_len, legs)


def check_counit(h: HopfData, max_len: int = 4) -> AxiomResult:
    """(eps x id) o Delta = id = (id x eps) o Delta on words up to max_len.

    The slot parts of a normal-formed coproduct are themselves normal, so
    the legs eps(u) v and eps(v) u are single terms or zero, and the target
    is the word's normal form.
    """
    eps = h.counit_images

    # most counit legs vanish (1,506 of 1,764 on ch2 at length 4), so they
    # share the table's one interned zero instead of allocating one each
    def leg(w: Word, e: NCPolynomial) -> NCPolynomial:
        return e if e.is_zero() else NCPolynomial._nonzero({w: e.terms[()]})

    def legs(u: Word, v: Word) -> tuple[NCPolynomial, NCPolynomial]:
        return leg(v, eps(u)), leg(u, eps(v))

    return _sweep(h, "counit", max_len, legs, h.nf_images)


def check_antipode(h: HopfData, max_len: int = 4) -> AxiomResult:
    """mult o (S x id) o Delta = unit o eps = mult o (id x S) o Delta.

    S is anti-multiplicative, so S(w) is the image of the reversed word.
    The legs S(u) v and u S(v) are normal forms, and the target is
    eps(w) * 1.  Raises AntipodeMissing when some generator has no
    antipode assigned; callers that want a report instead should test
    ``missing_antipode_generators`` first.
    """
    missing = h.missing_antipode_generators()
    if missing:
        raise AntipodeMissing(", ".join(missing))
    rs, s_images = h.rs, h.antipode_images

    def legs(u: Word, v: Word) -> tuple[NCPolynomial, NCPolynomial]:
        return (
            rs.multiply(s_images(u[::-1]), NCPolynomial.word(v)),
            rs.multiply(NCPolynomial.word(u), s_images(v[::-1])),
        )

    return _sweep(h, "antipode", max_len, legs, h.counit_images)


def check_bialgebra_compatibility(h: HopfData) -> AxiomResult:
    """Delta and eps respect every defining relation of the presentation.

    For each rule L -> R this compares Delta(L) with Delta(R) in the
    tensor square and eps(L) * 1 with eps(R) * 1 in the algebra; an eps
    witness is the scalar difference.
    """
    rs, t2, delta, eps = h.rs, h.t2, h.delta_images, h.counit_images
    witnesses = []
    for (a, b), rhs in rs.rules.items():
        name = f"{rs.names[a]}*{rs.names[b]}"
        diff = delta((a, b)) - delta.extend(rhs)
        if not diff.is_zero():
            witnesses.append((f"Delta({name})", t2.render(diff)))
        e_diff = eps((a, b)) - eps.extend(rhs)
        if not e_diff.is_zero():
            witnesses.append((f"eps({name})", str(e_diff.terms[()])))
    return AxiomResult("bialgebra_compatibility", not witnesses, len(rs.rules), witnesses)
