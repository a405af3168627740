"""Executable Hopf algebra axiom checkers.

A ``HopfData`` bundles a finitely presented algebra with generator-level
coproduct, counit and (optionally partial) antipode assignments.  The
checkers evaluate the coassociativity, counit and antipode axioms on all
words up to a length bound, computing inside the tensor-square and
tensor-cube rewrite systems, and report exact witnesses on failure.
Structure maps extend multiplicatively (the antipode anti-multiplicatively),
so the generator- and relation-level checks are the decisive content; the
word sweep is a consistency net on top.

All three sweeps share one mechanism, ``WordImages``: a word's image is
its prefix's image times its last letter's image, memoised per word.  It
gives the coproduct in the tensor square, the identity map's normal forms,
and (on reversed words) the antipode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rewrite import (
    DEFAULT_BUDGET,
    NCPolynomial,
    RewriteSystem,
    apply_morphism,
)
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
        self._t2 = None
        self._t3 = None

    @property
    def t2(self) -> RewriteSystem:
        if self._t2 is None:
            self._t2 = self.rs.tensor_power(2)
        return self._t2

    @property
    def t3(self) -> RewriteSystem:
        if self._t3 is None:
            self._t3 = self.rs.tensor_power(3)
        return self._t3

    def delta(self, p: NCPolynomial, budget: int = DEFAULT_BUDGET) -> NCPolynomial:
        return apply_morphism(p, self.coproduct, self.t2, budget)

    def counit_word(self, w) -> RadicalScalar:
        """eps(w): the product of the counits of the letters of w."""
        val = RadicalScalar.one()
        for letter in w:
            val = val * self.counit[letter]
            if val.is_zero():
                break
        return val

    def antipode_of(self, p: NCPolynomial, budget: int = DEFAULT_BUDGET) -> NCPolynomial:
        out = NCPolynomial.zero()
        for w, c in p.terms.items():
            term = NCPolynomial.unit()
            for letter in reversed(w):
                img = self.antipode.get(letter)
                if img is None:
                    raise AntipodeMissing(self.rs.names[letter])
                term = self.rs.multiply(term, img, budget)
            out = out + term.scale(c)
        return self.rs.normal_form(out, budget)

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


def _split_t2_word(word, size: int):
    """Split a slot-sorted tensor-square word into its two slot parts."""
    u = tuple(i for i in word if i < size)
    v = tuple(i - size for i in word if i >= size)
    return u, v


class WordImages:
    """Images of words under the algebra map fixed by its generator images.

    A word's image is its prefix's image times the image of its last
    letter, multiplied in ``target`` and memoised per word, so each word
    costs one multiplication once its prefix is known.  The structure
    maps are multiplicative and the target systems confluent, so by the
    diamond lemma this bracketing gives the same normal form as any other.
    """

    def __init__(self, gen_images, target: RewriteSystem, budget: int = DEFAULT_BUDGET):
        self.gen_images = gen_images
        self.target = target
        self.budget = budget
        self.cache: dict[tuple[int, ...], NCPolynomial] = {(): NCPolynomial.unit()}

    def __call__(self, word) -> NCPolynomial:
        cached = self.cache.get(word)
        if cached is None:
            cached = self.target.multiply(
                self(word[:-1]), self.gen_images[word[-1]], self.budget
            )
            self.cache[word] = cached
        return cached


def _side_witnesses(rs, w, left: NCPolynomial, right: NCPolynomial, target: NCPolynomial):
    """(word, residual) for each side of a two-sided axiom that misses ``target``."""
    return [
        (rs.render(NCPolynomial.word(w)), rs.render(d))
        for d in (left - target, right - target)
        if not d.is_zero()
    ]


def check_coassociativity(
    h: HopfData, max_len: int = 4, budget: int = DEFAULT_BUDGET
) -> AxiomResult:
    """(Delta x id) o Delta = (id x Delta) o Delta on words up to max_len.

    Slot-sorted concatenations of normal slot parts are already normal in
    the tensor systems, so applying Delta to one leg of a normal-formed
    coproduct is pure linear assembly over memoized coproduct values.
    """
    rs = h.rs
    g = rs.size
    delta = WordImages(h.coproduct, h.t2, budget)
    checked = 0
    witnesses = []
    for w in rs.iter_words(max_len):
        checked += 1
        lhs: dict[tuple[int, ...], RadicalScalar] = {}
        rhs: dict[tuple[int, ...], RadicalScalar] = {}
        for tw, c in delta(w).terms.items():
            u, v = _split_t2_word(tw, g)
            for tw2, c2 in delta(u).terms.items():
                accumulate(lhs, tw2 + tuple(x + 2 * g for x in v), c * c2)
            for tw2, c2 in delta(v).terms.items():
                accumulate(rhs, u + tuple(x + g for x in tw2), c * c2)
        if lhs != rhs:
            diff = NCPolynomial(lhs) - NCPolynomial(rhs)
            witnesses.append((rs.render(NCPolynomial.word(w)), h.t3.render(diff)))
    return AxiomResult("coassociativity", not witnesses, checked, witnesses)


def check_counit(
    h: HopfData, max_len: int = 4, budget: int = DEFAULT_BUDGET
) -> AxiomResult:
    """(eps x id) o Delta = id = (id x eps) o Delta on words up to max_len.

    The slot parts of a normal-formed coproduct are themselves normal, so
    collapsing one leg with the counit is linear assembly.
    """
    rs = h.rs
    g = rs.size
    delta = WordImages(h.coproduct, h.t2, budget)
    bases = WordImages({i: NCPolynomial.gen(i) for i in range(g)}, rs, budget)
    checked = 0
    witnesses = []
    for w in rs.iter_words(max_len):
        checked += 1
        left: dict[tuple[int, ...], RadicalScalar] = {}
        right: dict[tuple[int, ...], RadicalScalar] = {}
        for tw, c in delta(w).terms.items():
            u, v = _split_t2_word(tw, g)
            accumulate(left, v, c * h.counit_word(u))
            accumulate(right, u, c * h.counit_word(v))
        witnesses += _side_witnesses(rs, w, NCPolynomial(left), NCPolynomial(right), bases(w))
    return AxiomResult("counit", not witnesses, checked, witnesses)


def check_antipode(
    h: HopfData, max_len: int = 4, budget: int = DEFAULT_BUDGET
) -> AxiomResult:
    """mult o (S x id) o Delta = unit o eps = mult o (id x S) o Delta.

    S is anti-multiplicative, so S(w) is the image of the reversed word.
    Raises AntipodeMissing when some generator has no antipode assigned;
    callers that want a report instead should test
    ``missing_antipode_generators`` first.
    """
    missing = h.missing_antipode_generators()
    if missing:
        raise AntipodeMissing(", ".join(missing))
    rs = h.rs
    g = rs.size
    delta = WordImages(h.coproduct, h.t2, budget)
    s_cache = WordImages(h.antipode, rs, budget)
    checked = 0
    witnesses = []
    for w in rs.iter_words(max_len):
        checked += 1
        left = NCPolynomial.zero()
        right = NCPolynomial.zero()
        for tw, c in delta(w).terms.items():
            u, v = _split_t2_word(tw, g)
            left = left + rs.multiply(s_cache(u[::-1]), NCPolynomial.word(v), budget).scale(c)
            right = right + rs.multiply(NCPolynomial.word(u), s_cache(v[::-1]), budget).scale(c)
        target = NCPolynomial({(): h.counit_word(w)})
        witnesses += _side_witnesses(
            rs, w, rs.normal_form(left, budget), rs.normal_form(right, budget), target
        )
    return AxiomResult("antipode", not witnesses, checked, witnesses)


def check_bialgebra_compatibility(
    h: HopfData, budget: int = DEFAULT_BUDGET
) -> AxiomResult:
    """Delta and eps respect every defining relation of the presentation.

    For each rule L -> R this compares Delta(L) with Delta(R) in the
    tensor square and eps(L) with eps(R) as scalars.
    """
    rs, t2 = h.rs, h.t2
    checked = 0
    witnesses = []
    for (a, b), variants in rs.rules.items():
        lhs_word = NCPolynomial.word((a, b))
        e_l = h.counit_word((a, b))
        name = f"{rs.names[a]}*{rs.names[b]}"
        for rhs in variants:
            checked += 1
            d_l = h.delta(lhs_word, budget)
            d_r = h.delta(rhs, budget)
            diff = d_l - d_r
            if not diff.is_zero():
                witnesses.append((f"Delta({name})", t2.render(diff)))
            e_r = sum(
                (c * h.counit_word(w) for w, c in rhs.terms.items()), RadicalScalar.zero()
            )
            if not (e_l - e_r).is_zero():
                witnesses.append((f"eps({name})", str(e_l - e_r)))
    return AxiomResult("bialgebra_compatibility", not witnesses, checked, witnesses)
