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
coproduct in the tensor square, the identity map's normal forms, and (on
reversed words) the antipode; the counit is the same prefix rule over
scalars.  Images are interned, so equal images are one object, and each
product is computed once per distinct (prefix image, last letter) pair.
The coproduct and antipode tables and the counit memo live on the
``HopfData`` and are filled on first use, so every later sweep of the same
algebra reads them; the structure maps must not change after that.  The
sweeps build the identity table and their side memos afresh and drop them
when they end.

Each side of each axiom is a function of the word's coproduct image alone
(only the target, NF(w) or eps(w)*1, depends on the word), so the sweeps
compute the sides once per distinct image, keyed on the image's ``id``.
Those keys stay valid because the coproduct table holds every image it
hands out.
"""

from __future__ import annotations

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

    def __post_init__(self):
        self._splits: dict[Word, tuple[Word, Word]] = {}
        self._counits: dict[Word, RadicalScalar] = {(): RadicalScalar.one()}

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

    def split(self, tw: Word) -> tuple[Word, Word]:
        """The slot parts (u, v) of a slot-sorted tensor-square word, memoised."""
        parts = self._splits.get(tw)
        if parts is None:
            g = self.rs.size
            parts = (tuple(i for i in tw if i < g), tuple(i - g for i in tw if i >= g))
            self._splits[tw] = parts
        return parts

    def delta(self, p: NCPolynomial) -> NCPolynomial:
        return self.delta_images.extend(p)

    def counit_word(self, w: Word) -> RadicalScalar:
        """eps(w) = eps(w[:-1]) * eps(last letter), memoised per word."""
        val = self._counits.get(w)
        if val is None:
            val = self._counits[w] = self.counit_word(w[:-1]) * self.counit[w[-1]]
        return val

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
            _add_scaled(out, self(w), c)
        return NCPolynomial._nonzero(out)


def _add_scaled(out: dict, p: NCPolynomial, c: RadicalScalar) -> None:
    """out += c * p, term by term."""
    for w, c2 in p.terms.items():
        accumulate(out, w, c * c2)


def _side_witnesses(rs, w, left: NCPolynomial, right: NCPolynomial, target: NCPolynomial):
    """(word, residual) for each side of a two-sided axiom that misses ``target``.

    Each side is compared with ``target`` term by term first, so only a
    failing side builds its difference.
    """
    return [
        (rs.render(NCPolynomial.word(w)), rs.render(side - target))
        for side in (left, right)
        if side != target
    ]


def _sweep(h: HopfData, name: str, max_len: int, sides, witnesses_of) -> AxiomResult:
    """Check one axiom on every word up to ``max_len``.

    ``sides(image)`` is evaluated once per distinct coproduct image, and
    ``witnesses_of(w, sides)`` compares it with the word's own target.
    """
    delta = h.delta_images
    memo: dict[int, object] = {}
    checked = 0
    witnesses = []
    for w in h.rs.iter_words(max_len):
        checked += 1
        image = delta(w)
        key = id(image)
        if key not in memo:
            memo[key] = sides(image)
        witnesses += witnesses_of(w, memo[key])
    return AxiomResult(name, not witnesses, checked, witnesses)


def check_coassociativity(h: HopfData, max_len: int = 4) -> AxiomResult:
    """(Delta x id) o Delta = (id x Delta) o Delta on words up to max_len.

    Slot-sorted concatenations of normal slot parts are already normal in
    the tensor systems, so applying Delta to one leg of a normal-formed
    coproduct is pure linear assembly over memoized coproduct values.
    Both legs of each tensor word (u, v) are expanded once per sweep, as
    the tensor-cube terms of (Delta x id)(u v) and (id x Delta)(u v), and
    the residual is rendered once per distinct coproduct image.
    """
    rs = h.rs
    g = rs.size
    delta, split = h.delta_images, h.split
    # tensor word of the slot pair (u, v) -> tensor-cube terms of Delta(u) v and u Delta(v)
    legs: dict[Word, tuple[list, list]] = {}

    def residual(image: NCPolynomial) -> str | None:
        lhs: dict[Word, RadicalScalar] = {}
        rhs: dict[Word, RadicalScalar] = {}
        for tw, c in image.terms.items():
            pair = legs.get(tw)
            if pair is None:
                u, v = split(tw)
                v3 = tuple(x + 2 * g for x in v)
                pair = legs[tw] = (
                    [(tw2 + v3, c2) for tw2, c2 in delta(u).terms.items()],
                    [(u + tuple(x + g for x in tw2), c2) for tw2, c2 in delta(v).terms.items()],
                )
            for tw3, c2 in pair[0]:
                accumulate(lhs, tw3, c * c2)
            for tw3, c2 in pair[1]:
                accumulate(rhs, tw3, c * c2)
        if lhs == rhs:
            return None
        return h.t3.render(NCPolynomial(lhs) - NCPolynomial(rhs))

    def witnesses_of(w: Word, diff: str | None) -> list:
        return [] if diff is None else [(rs.render(NCPolynomial.word(w)), diff)]

    return _sweep(h, "coassociativity", max_len, residual, witnesses_of)


def check_counit(h: HopfData, max_len: int = 4) -> AxiomResult:
    """(eps x id) o Delta = id = (id x eps) o Delta on words up to max_len.

    The slot parts of a normal-formed coproduct are themselves normal, so
    collapsing one leg with the counit is linear assembly, done once per
    distinct coproduct image.
    """
    rs = h.rs
    split = h.split
    bases = WordImages({i: NCPolynomial.gen(i) for i in range(rs.size)}, rs)

    def sides(image: NCPolynomial) -> tuple[NCPolynomial, NCPolynomial]:
        left: dict[Word, RadicalScalar] = {}
        right: dict[Word, RadicalScalar] = {}
        for tw, c in image.terms.items():
            u, v = split(tw)
            accumulate(left, v, c * h.counit_word(u))
            accumulate(right, u, c * h.counit_word(v))
        return NCPolynomial(left), NCPolynomial(right)

    return _sweep(
        h, "counit", max_len, sides, lambda w, pair: _side_witnesses(rs, w, *pair, bases(w))
    )


def check_antipode(h: HopfData, max_len: int = 4) -> AxiomResult:
    """mult o (S x id) o Delta = unit o eps = mult o (id x S) o Delta.

    S is anti-multiplicative, so S(w) is the image of the reversed word.
    Each slot pair (u, v) of a coproduct term is multiplied out once per
    sweep, as S(u) v and u S(v); the sides are sums of those normal forms
    and so are normal themselves, and are summed once per distinct
    coproduct image.  Raises AntipodeMissing when some generator has no
    antipode assigned; callers that want a report instead should test
    ``missing_antipode_generators`` first.
    """
    missing = h.missing_antipode_generators()
    if missing:
        raise AntipodeMissing(", ".join(missing))
    rs = h.rs
    split, s_images = h.split, h.antipode_images
    # tensor word of the slot pair (u, v) -> (S(u) v, u S(v))
    products: dict[Word, tuple[NCPolynomial, NCPolynomial]] = {}

    def sides(image: NCPolynomial) -> tuple[NCPolynomial, NCPolynomial]:
        left: dict[Word, RadicalScalar] = {}
        right: dict[Word, RadicalScalar] = {}
        for tw, c in image.terms.items():
            pair = products.get(tw)
            if pair is None:
                u, v = split(tw)
                pair = products[tw] = (
                    rs.multiply(s_images(u[::-1]), NCPolynomial.word(v)),
                    rs.multiply(NCPolynomial.word(u), s_images(v[::-1])),
                )
            _add_scaled(left, pair[0], c)
            _add_scaled(right, pair[1], c)
        return NCPolynomial._nonzero(left), NCPolynomial._nonzero(right)

    def witnesses_of(w: Word, pair) -> list:
        return _side_witnesses(rs, w, *pair, NCPolynomial({(): h.counit_word(w)}))

    return _sweep(h, "antipode", max_len, sides, witnesses_of)


def check_bialgebra_compatibility(h: HopfData) -> AxiomResult:
    """Delta and eps respect every defining relation of the presentation.

    For each rule L -> R this compares Delta(L) with Delta(R) in the
    tensor square and eps(L) with eps(R) as scalars.
    """
    rs, t2 = h.rs, h.t2
    witnesses = []
    for (a, b), rhs in rs.rules.items():
        name = f"{rs.names[a]}*{rs.names[b]}"
        diff = h.delta(NCPolynomial.word((a, b))) - h.delta(rhs)
        if not diff.is_zero():
            witnesses.append((f"Delta({name})", t2.render(diff)))
        e_diff = h.counit_word((a, b)) - sum(
            (c * h.counit_word(w) for w, c in rhs.terms.items()), RadicalScalar.zero()
        )
        if not e_diff.is_zero():
            witnesses.append((f"eps({name})", str(e_diff)))
    return AxiomResult("bialgebra_compatibility", not witnesses, len(rs.rules), witnesses)
