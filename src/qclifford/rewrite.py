"""Normal-ordering engine for finitely presented noncommutative algebras.

Words are tuples of generator indices over an ordered alphabet.  A
rewrite system maps two-letter left-hand sides to polynomial replacements
whose words are strictly smaller in the degree-lexicographic order, which
guarantees termination.  Confluence is never assumed: it is decided
separately on the critical overlaps, by the diamond lemma.
"""

from __future__ import annotations

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
    """Sparse noncommutative polynomial: word -> scalar coefficient.

    Nothing writes to a polynomial's ``terms`` once it is built, so one
    polynomial may be shared by every caller, as ``unit()`` is.
    """

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
        return _UNIT

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
        out = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(out, w, -c)
        return NCPolynomial._nonzero(out)

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        """Concatenation product; no rule is applied."""
        out: dict[Word, RadicalScalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return NCPolynomial._nonzero(out)

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


_UNIT = NCPolynomial({(): RadicalScalar.one()})


class RewriteSystem:
    """Ordered alphabet plus terminating two-letter rewrite rules.

    Each left-hand side pair maps to one replacement polynomial.
    """

    def __init__(self, names, rules: dict[tuple[int, int], NCPolynomial]):
        self.names = tuple(names)
        n = len(self.names)
        for (a, b), rhs in rules.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("rule letter outside the alphabet")
            if not all(deglex_less(w, (a, b)) for w in rhs.terms):
                raise NonTerminating(
                    f"rule {self.names[a]}*{self.names[b]} does not descend"
                )
        self.rules: dict[tuple[int, int], NCPolynomial] = dict(rules)
        # integer-keyed view of the rules (hot path)
        self._flat = {a * n + b: rhs.terms for (a, b), rhs in self.rules.items()}
        # what the layers above compute once per system (its tensor square,
        # the Hopf premise rows), kept here so that it lives exactly as long
        # as the system
        self.derived: dict = {}

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
        return self.normal_form(p * r)

    def tensor_power(self, n: int) -> "RewriteSystem":
        """n commuting slots, each carrying a copy of this system.

        Slot-s generator i gets index s*size + i; letters of different
        slots commute, so normal forms factor as slot-0 part * slot-1
        part * ...
        """
        g = self.size
        names = self.tensor_names(n)
        rules: dict[tuple[int, int], NCPolynomial] = {}
        for s in range(n):
            off = s * g
            for (a, b), rhs in self.rules.items():
                rules[(off + a, off + b)] = NCPolynomial(
                    {tuple(off + i for i in w): c for w, c in rhs.terms.items()}
                )
        for s_hi in range(n):
            for s_lo in range(s_hi):
                for a in range(g):
                    for b in range(g):
                        lhs = (s_hi * g + a, s_lo * g + b)
                        rules[lhs] = NCPolynomial.word((s_lo * g + b, s_hi * g + a))
        return RewriteSystem(names, rules)

    def tensor_names(self, n: int) -> list[str]:
        """Letter names of the n-fold tensor power: slot s's copy of x is x[s]."""
        return [f"{nm}[{s}]" for s in range(n) for nm in self.names]

    def iter_words(self, max_len: int):
        for length in range(1, max_len + 1):
            yield from _cartesian(range(self.size), repeat=length)

    def render(self, p: NCPolynomial) -> str:
        return p.render(self.names)


def anticommutation_rules(gens, squares) -> dict[tuple[int, int], NCPolynomial]:
    """Clifford relations among ``gens``: x*x -> its square, y*x -> -x*y for x < y."""
    rules: dict[tuple[int, int], NCPolynomial] = {}
    for y, square in zip(gens, squares, strict=True):
        rules[(y, y)] = square
        for x in gens:
            if x < y:
                rules[(y, x)] = NCPolynomial.word((x, y), -1)
    return rules


def central_rules(central, size: int) -> dict[tuple[int, int], NCPolynomial]:
    """Every later generator of a ``size``-letter alphabet moves right past each central one."""
    return {(y, c): NCPolynomial.word((c, y)) for c in central for y in range(c + 1, size)}


def rule_witnesses(
    rs: RewriteSystem, image, product, name: str, render
) -> list[tuple[str, str] | None]:
    """Each rule a*b -> R of ``rs`` in order: None where product(image(a), image(b))
    = image(R), else the witness (f"{name}(a*b)", render of their difference).  A
    row of Nones says that ``image``, extended from the generators, is well defined
    on ``rs``; a map that reverses its words fails, as it reverses only R."""
    gens = [image(NCPolynomial.gen(x)) for x in range(rs.size)]
    row = []
    for (a, b), rhs in rs.rules.items():
        diff = product(gens[a], gens[b]) - image(rhs)
        label = f"{name}({rs.names[a]}*{rs.names[b]})"
        row.append(None if diff.is_zero() else (label, render(diff)))
    return row


def local_confluence_check(rs: RewriteSystem) -> list[Word]:
    """The critical overlaps whose two one-step reducts have different normal forms.

    Left-hand sides are two letters long and each pair has one rule, so
    the only ambiguities are the overlaps (a, b, c) where (a, b) and
    (b, c) are both rules, reduced at position 0 or at position 1.  The
    rules descend in the degree-lexicographic order, so by Bergman's
    diamond lemma the system is confluent, and normal forms are unique,
    exactly when this returns [].
    """
    followers: dict[int, list[int]] = {}
    for b, c in sorted(rs.rules):
        followers.setdefault(b, []).append(c)
    failures: list[Word] = []
    for a, b in sorted(rs.rules):
        for c in followers.get(b, ()):
            at_0 = rs.multiply(rs.rules[(a, b)], NCPolynomial.gen(c))
            at_1 = rs.multiply(NCPolynomial.gen(a), rs.rules[(b, c)])
            if at_0 != at_1:
                failures.append((a, b, c))
    return failures
