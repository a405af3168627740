"""Normal-ordering engine for finitely presented noncommutative algebras.

Words are tuples of generator indices over an ordered alphabet.  A
rewrite system maps two-letter left-hand sides to polynomial replacements
whose words are strictly smaller in the degree-lexicographic order, which
guarantees termination.  Confluence is never assumed: it is checked
separately by enumerating critical words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _cartesian

from .scalars import RadicalScalar, _coerce, accumulate

# most rewrite steps one normal_form call may take before BudgetExceeded
STEP_BUDGET = 10**6

Word = tuple[int, ...]


class RewriteError(Exception):
    pass


class BudgetExceeded(RewriteError):
    """Rewriting exceeded its step budget."""


class NonTerminating(RewriteError):
    """A rule violates the degree-lexicographic descent invariant."""


def deglex_less(a: Word, b: Word) -> bool:
    return (len(a), a) < (len(b), b)


class NCPolynomial:
    """Sparse noncommutative polynomial: word -> scalar coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, RadicalScalar] | None = None):
        if terms is None:
            terms = {}
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    @staticmethod
    def _nonzero(terms: dict[Word, RadicalScalar]) -> "NCPolynomial":
        """Wrap ``terms`` as is; the caller guarantees it holds no zero."""
        p = object.__new__(NCPolynomial)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial()

    @staticmethod
    def unit() -> "NCPolynomial":
        return NCPolynomial({(): RadicalScalar.one()})

    @staticmethod
    def word(w, coeff=1) -> "NCPolynomial":
        return NCPolynomial({tuple(w): _coerce(coeff)})

    @staticmethod
    def gen(i: int) -> "NCPolynomial":
        return NCPolynomial({(i,): RadicalScalar.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(out, w, c)
        return NCPolynomial._nonzero(out)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial._nonzero({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def scale(self, c) -> "NCPolynomial":
        c = _coerce(c)
        if c.is_zero():
            return NCPolynomial.zero()
        return NCPolynomial({w: c * v for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted((w, c.key()) for w, c in self.terms.items())))

    def __repr__(self) -> str:
        return f"NCPolynomial({self.terms!r})"

    def render(self, names) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda x: (len(x), x)):
            word = "*".join(names[i] for i in w) if w else "1"
            c = str(self.terms[w])
            parts.append(word if c == "1" else f"({c})*{word}")
        return " + ".join(parts)


class RewriteSystem:
    """Ordered alphabet plus terminating two-letter rewrite rules.

    A pair may carry several replacement variants (an over-determined
    presentation); normal forms always use the first variant, and the
    confluence check treats the alternatives as additional peaks.
    """

    def __init__(self, names, rules):
        self.names = tuple(names)
        self.rules: dict[tuple[int, int], tuple[NCPolynomial, ...]] = {}
        n = len(self.names)
        for (a, b), rhs in rules.items():
            variants = tuple(rhs) if isinstance(rhs, (list, tuple)) else (rhs,)
            if not variants:
                raise ValueError("empty rule variant list")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("rule letter outside the alphabet")
            lhs = (a, b)
            for variant in variants:
                for w in variant.terms:
                    if not deglex_less(w, lhs):
                        raise NonTerminating(
                            f"rule {self.names[a]}*{self.names[b]} does not descend"
                        )
            self.rules[(a, b)] = variants
        # integer-keyed view of the first variant of each rule (hot path)
        n = len(self.names)
        self._flat = {a * n + b: v[0].terms for (a, b), v in self.rules.items()}

    @property
    def size(self) -> int:
        return len(self.names)

    def normal_form(self, p: NCPolynomial) -> NCPolynomial:
        """Rewrite every word until no rule applies (leftmost pair first).

        Single-word replacements are spliced in place and the scan resumes
        one position back (everything further left is already redex-free),
        so pure commutation steps never re-walk the word.  Raises
        BudgetExceeded after ``STEP_BUDGET`` rewrite steps.
        """
        limit = STEP_BUDGET
        flat = self._flat
        n = len(self.names)
        out: dict[Word, RadicalScalar] = {}
        stack = list(p.terms.items())
        steps = 0
        while stack:
            w, c = stack.pop()
            # fast scan: most words are already normal
            pos = -1
            for i in range(len(w) - 1):
                if w[i] * n + w[i + 1] in flat:
                    pos = i
                    break
            if pos < 0:
                accumulate(out, w, c)
                continue
            word = list(w)
            i = pos
            branched = False
            while i < len(word) - 1:
                terms = flat.get(word[i] * n + word[i + 1])
                if terms is None:
                    i += 1
                    continue
                steps += 1
                if steps > limit:
                    raise BudgetExceeded(f"exceeded {limit} rewrite steps")
                if len(terms) == 1:
                    ((rw, rc),) = terms.items()
                    word[i : i + 2] = rw
                    c = c * rc
                    i = i - 1 if i else 0
                    continue
                pre = tuple(word[:i])
                post = tuple(word[i + 2 :])
                for rw, rc in terms.items():
                    stack.append((pre + rw + post, c * rc))
                branched = True
                break
            if not branched:
                accumulate(out, tuple(word), c)
        return NCPolynomial._nonzero(out)

    def multiply(self, p: NCPolynomial, r: NCPolynomial) -> NCPolynomial:
        """Concatenation product followed by normal form."""
        raw: dict[Word, RadicalScalar] = {}
        for w1, c1 in p.terms.items():
            for w2, c2 in r.terms.items():
                accumulate(raw, w1 + w2, c1 * c2)
        return self.normal_form(NCPolynomial._nonzero(raw))

    def tensor_power(self, n: int) -> "RewriteSystem":
        """n commuting slots, each carrying a copy of this system.

        Slot-s generator i gets index s*size + i; letters of different
        slots commute, so normal forms factor as slot-0 part * slot-1
        part * ...
        """
        g = self.size
        names = [f"{nm}[{s}]" for s in range(n) for nm in self.names]
        rules: dict[tuple[int, int], tuple[NCPolynomial, ...]] = {}
        for s in range(n):
            off = s * g
            for (a, b), variants in self.rules.items():
                shifted = tuple(
                    NCPolynomial(
                        {tuple(off + i for i in w): c for w, c in v.terms.items()}
                    )
                    for v in variants
                )
                rules[(off + a, off + b)] = shifted
        for s_hi in range(n):
            for s_lo in range(s_hi):
                for a in range(g):
                    for b in range(g):
                        lhs = (s_hi * g + a, s_lo * g + b)
                        rules[lhs] = NCPolynomial.word((s_lo * g + b, s_hi * g + a))
        return RewriteSystem(names, rules)

    def iter_words(self, max_len: int, min_len: int = 1):
        for length in range(min_len, max_len + 1):
            yield from _cartesian(range(self.size), repeat=length)

    def render(self, p: NCPolynomial) -> str:
        return p.render(self.names)


@dataclass
class ConfluenceFailure:
    """Witness: one word, two single-step reducts with distinct normal forms."""

    word: Word
    position_a: tuple[int, int]
    position_b: tuple[int, int]
    normal_form_a: NCPolynomial = field(repr=False)
    normal_form_b: NCPolynomial = field(repr=False)


def _rewrite_once_at(rs: RewriteSystem, w: Word, pos: int, variant: int) -> NCPolynomial:
    rep = rs.rules[(w[pos], w[pos + 1])][variant]
    pre, post = w[:pos], w[pos + 2 :]
    return NCPolynomial({pre + rw + post: c for rw, c in rep.terms.items()})


def local_confluence_check(rs: RewriteSystem, max_len: int) -> list[ConfluenceFailure]:
    """Exhaustively test all words up to max_len with >= 2 one-step reducts.

    A reduct is a (position, rule-variant) choice, so both overlapping
    redexes and conflicting variants for the same pair count as peaks.
    Failures are returned as data; an empty list means every tested peak
    rejoins.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    failures: list[ConfluenceFailure] = []
    for w in rs.iter_words(max_len, min_len=2):
        choices = [
            (i, v)
            for i in range(len(w) - 1)
            if (w[i], w[i + 1]) in rs.rules
            for v in range(len(rs.rules[(w[i], w[i + 1])]))
        ]
        if len(choices) < 2:
            continue
        forms = []
        for pos, variant in choices:
            nf = rs.normal_form(_rewrite_once_at(rs, w, pos, variant))
            forms.append(((pos, variant), nf))
        base_choice, base = forms[0]
        for choice, nf in forms[1:]:
            if nf != base:
                failures.append(ConfluenceFailure(w, base_choice, choice, base, nf))
    return failures
