import dataclasses
import json
import subprocess
import sys
from itertools import chain

import pytest

from conftest import env_importing_this_qclifford
from qclifford.hopf import (
    AntipodeMissing,
    AxiomResult,
    _coassociativity_sides,
    _premise_row,
    _premise_witnesses,
    check_antipode,
    check_bialgebra_compatibility,
    check_coassociativity,
    check_counit,
    extend,
)
from qclifford.presentations import (
    CH_G,
    CH_G3,
    build_ch2,
    build_chq2,
    build_glq2,
    build_group_toy,
)
from qclifford.rewrite import NCPolynomial, RewriteSystem, local_confluence_check
from qclifford.scalars import RadicalScalar
from qclifford.suites import (
    _AXIOM_CHECKS,
    WITNESSES_SHOWN,
    RunContext,
    _perturbed_ch2,
    registry,
)


def apply_morphism(
    p: NCPolynomial, images: dict[int, NCPolynomial], target: RewriteSystem
) -> NCPolynomial:
    """Reference: extend a generator assignment to an algebra map and apply
    it letter by letter, with no memo."""
    out = NCPolynomial.zero()
    for w, c in p.terms.items():
        term = NCPolynomial.unit()
        for letter in w:
            term = target.multiply(term, images[letter])
        out = out + term.scale(c)
    return target.normal_form(out)


def _full_chq2():
    return build_chq2(include_inherited_antipode=True)


def _broken_glq2():
    gl = build_glq2()
    gl.coproduct[0] = NCPolynomial.word((0, gl.rs.size + 1))  # Delta(a11) = a11 (x) a12
    return gl


def _primitive_g1_ch2():
    """ch2 with a primitive Delta(G1) = G1 (x) 1 + 1 (x) G1 and S(G1) = -G1.

    Every law holds on the generators, but Delta(G1) Delta(G1) differs from
    Delta(E1), so Delta is not defined on H and no law may pass."""
    h = build_ch2()
    g1 = CH_G[0]
    h.coproduct[g1] = NCPolynomial.gen(g1) + NCPolynomial.gen(h.rs.size + g1)
    h.antipode[g1] = NCPolynomial.word((g1,), -1)
    return h


class _PerWordImages(dict):
    """Reference word images: one product per word, nothing interned."""

    def __init__(self, gen_images, target: RewriteSystem):
        super().__init__({(): NCPolynomial.unit()})
        self.gen_images = gen_images
        self.target = target

    def __missing__(self, word):
        image = self[word] = self.target.multiply(self[word[:-1]], self.gen_images[word[-1]])
        return image


def _plain_counit(h, w):
    """Reference eps(w): the plain product of the letters' counits, no memo."""
    val = RadicalScalar.one()
    for letter in w:
        val = val * h.counit[letter]
    return val


def _reference_premises(h, maps):
    """Reference premise witnesses, rule by rule and in the order of ``maps``:
    each image recomputed by apply_morphism (eps as the plain product of the
    letters' counits) in a freshly built tensor square, nothing cached."""
    rs = h.rs
    t2 = rs.tensor_power(2)

    def eps(p):
        total = RadicalScalar.zero()
        for w, c in p.terms.items():
            total = total + c * _plain_counit(h, w)
        return total

    def antipode(p):
        reversed_p = NCPolynomial({w[::-1]: c for w, c in p.terms.items()})
        return apply_morphism(reversed_p, h.antipode, rs)

    premises = {
        "Delta": (lambda p: apply_morphism(p, h.coproduct, t2), t2.render),
        "eps": (eps, str),
        "S": (antipode, rs.render),
    }
    witnesses = []
    for (a, b), rhs in rs.rules.items():
        for m in maps:
            image, render = premises[m]
            diff = image(NCPolynomial.word((a, b))) - image(rhs)
            if not diff.is_zero():
                witnesses.append((f"{m}({rs.names[a]}*{rs.names[b]})", render(diff)))
    return witnesses


def _reference_side_witnesses(rs, w, left, right, target):
    return [
        (rs.render(NCPolynomial.word(w)), rs.render(side - target))
        for side in (left, right)
        if side != target
    ]


def _reference_coassociativity(h, max_len):
    """Reference sweep: both sides recomputed for every word, no image memo."""
    rs, g = h.rs, h.rs.size
    delta = _PerWordImages(h.coproduct, h.t2)
    words = list(rs.iter_words(max_len))
    witnesses = []
    for w in words:
        lhs, rhs = NCPolynomial.zero(), NCPolynomial.zero()
        for tw, c in delta[w].terms.items():
            u, v = h.split(tw)
            v3 = tuple(x + 2 * g for x in v)
            lhs += NCPolynomial({tw2 + v3: c * c2 for tw2, c2 in delta[u].terms.items()})
            rhs += NCPolynomial(
                {u + tuple(x + g for x in tw2): c * c2 for tw2, c2 in delta[v].terms.items()}
            )
        if lhs != rhs:
            cube = rs.tensor_power(3)
            witnesses.append((rs.render(NCPolynomial.word(w)), cube.render(lhs - rhs)))
    return AxiomResult("coassociativity", not witnesses, len(words), witnesses)


def _reference_counit(h, max_len):
    rs = h.rs
    delta = _PerWordImages(h.coproduct, h.t2)
    words = list(rs.iter_words(max_len))
    witnesses = []
    for w in words:
        left, right = NCPolynomial.zero(), NCPolynomial.zero()
        for tw, c in delta[w].terms.items():
            u, v = h.split(tw)
            left += NCPolynomial.word(v, c * _plain_counit(h, u))
            right += NCPolynomial.word(u, c * _plain_counit(h, v))
        target = rs.normal_form(NCPolynomial.word(w))
        witnesses += _reference_side_witnesses(rs, w, left, right, target)
    return AxiomResult("counit", not witnesses, len(words), witnesses)


def _reference_antipode(h, max_len):
    rs = h.rs
    delta = _PerWordImages(h.coproduct, h.t2)
    s_images = _PerWordImages(h.antipode, rs)
    words = list(rs.iter_words(max_len))
    witnesses = []
    for w in words:
        left, right = NCPolynomial.zero(), NCPolynomial.zero()
        for tw, c in delta[w].terms.items():
            u, v = h.split(tw)
            left += rs.multiply(s_images[u[::-1]], NCPolynomial.word(v)).scale(c)
            right += rs.multiply(NCPolynomial.word(u), s_images[v[::-1]]).scale(c)
        target = NCPolynomial({(): _plain_counit(h, w)})
        witnesses += _reference_side_witnesses(rs, w, left, right, target)
    return AxiomResult("antipode", not witnesses, len(words), witnesses)




# witnesses of check_bialgebra_compatibility on the perturbed Delta and eps,
# which lead the lemma's witnesses of every law that needs that premise
PERTURBED_COASSOC_DELTA = [
    ("Delta(G1*G1)", "(-1)*E1[0] + (-1)*E1[1] + E1[0]*E2[1]"),
    ("Delta(G1*G3)", "(2)*G3[0]*G1[0]*G3[1]*G2[1]"),
]
PERTURBED_EPS = [("eps(G1*G1)", "1"), ("eps(G1*G3)", "2")]


class TestGroupToy:
    def test_all_three_axioms_pass(self):
        toy = build_group_toy()
        assert check_coassociativity(toy).ok
        assert check_counit(toy).ok
        assert check_antipode(toy).ok


class TestQuantumMatrixBialgebra:
    def test_matrix_coproduct_is_coassociative(self):
        gl = build_glq2()
        assert check_coassociativity(gl).ok

    def test_counit_laws(self):
        gl = build_glq2()
        assert check_counit(gl).ok

    def test_relations_preserved_by_coproduct_and_counit(self):
        gl = build_glq2()
        r = check_bialgebra_compatibility(gl)
        assert r.ok, r.witnesses

    def test_antipode_is_not_assigned(self):
        gl = build_glq2()
        assert gl.missing_antipode_generators() == list(gl.rs.names)
        with pytest.raises(AntipodeMissing):
            check_antipode(gl)


class TestCliffordHopf:
    def test_axioms_to_length_three(self):
        # the lemma decides all of H, and so every word of length 3 with it
        ch = build_ch2()
        assert check_coassociativity(ch).ok
        assert check_counit(ch).ok
        assert check_antipode(ch).ok
        assert check_bialgebra_compatibility(ch).ok

    def test_grading_generator_antipode_squares_to_counit(self):
        # S(G3) G3 = G3^2 = 1 = eps(G3) * 1
        ch = build_ch2()
        prod = ch.rs.multiply(ch.antipode[CH_G3], NCPolynomial.gen(CH_G3))
        assert prod == NCPolynomial.unit()

    def test_odd_generator_antipode_telescopes_to_zero(self):
        # mult (S x id) Delta(G1) = G1 G3 + G3 G1 = 0 = eps(G1)
        ch = build_ch2()
        g1 = CH_G[0]
        s_g1 = ch.antipode[g1]
        left = ch.rs.multiply(s_g1, NCPolynomial.unit())
        right = ch.rs.multiply(ch.antipode[CH_G3], NCPolynomial.gen(g1))
        assert (left + right).is_zero()

    def test_primitive_central_generator_antipode(self):
        # S(E1) = -E1 makes -E1 + E1 = 0 = eps(E1)
        ch = build_ch2()
        assert ch.antipode[0] == NCPolynomial.word((0,), -1)
        assert check_antipode(ch).ok


class TestDeformedCliffordHopf:
    def test_deformed_relations_still_form_a_bialgebra(self):
        chq = build_chq2()
        r = check_bialgebra_compatibility(chq)
        assert r.ok, r.witnesses[:3]

    def test_deformed_coproduct_coassociative(self):
        chq = build_chq2()
        assert check_coassociativity(chq).ok

    def test_counit_compatible_with_weight_generators(self):
        chq = build_chq2()
        assert check_counit(chq).ok

    def test_antipode_reported_missing_for_deformed_generators(self):
        chq = build_chq2()
        assert chq.missing_antipode_generators() == ["G1", "G2"]

    def test_undeformed_antipode_still_satisfies_axiom(self):
        chq = build_chq2(include_inherited_antipode=True)
        assert check_antipode(chq).ok


class TestNegativeControls:
    def test_broken_coproduct_fails_coassociativity(self):
        gl = build_glq2()
        gl.coproduct[0] = NCPolynomial.word((0, gl.rs.size + 1))
        r = check_coassociativity(gl)
        assert not r.ok
        assert r.witnesses

    def test_broken_counit_fails(self):
        ch = build_ch2()
        ch.counit[CH_G[0]] = RadicalScalar.one()
        assert not check_counit(ch).ok

    def test_broken_antipode_fails(self):
        ch = build_ch2()
        ch.antipode[CH_G3] = NCPolynomial.word((CH_G3,), -1)
        assert not check_antipode(ch).ok

    def test_failures_persist_at_longer_lengths(self):
        # the generators where the lemma finds coassociativity broken fail
        # the reference sweep too, and its failing words only grow with length
        gl = _broken_glq2()
        lemma = {w for w, _ in check_coassociativity(gl).witnesses if "(" not in w}
        failing2 = {w for w, _ in _reference_coassociativity(gl, 2).witnesses}
        failing3 = {w for w, _ in _reference_coassociativity(gl, 3).witnesses}
        assert lemma == {"a11", "a12", "a21"}
        assert lemma <= failing2 <= failing3

    @pytest.mark.parametrize(
        "which, witnesses",
        [
            (
                "coassoc",
                [
                    ("Delta(G1*G1)", "(-1)*E1[0] + (-1)*E1[1] + E1[0]*E2[1]"),
                    ("Delta(G1*G3)", "(2)*G3[0]*G1[0]*G3[1]*G2[1]"),
                ],
            ),
            ("counit", [("eps(G1*G1)", "1"), ("eps(G1*G3)", "2")]),
            ("antipode", []),
        ],
    )
    def test_perturbed_maps_break_the_relations(self, which, witnesses):
        # ch2 has 18 rules; a perturbed Delta or eps breaks the ones with G1
        # on the left, while the antipode does not enter the compatibility
        expect = AxiomResult("bialgebra_compatibility", not witnesses, 18, witnesses)
        assert check_bialgebra_compatibility(_perturbed_ch2(which)) == expect

    def test_eps_respects_relations_by_plain_substitution(self):
        gl = build_glq2()
        # eps(a11 a12) = 0 = q eps(a12 a11), and each is the plain product
        lhs = gl.counit_of(NCPolynomial.word((0, 1)))
        rhs = gl.counit_of(NCPolynomial.word((1, 0)))
        assert lhs.is_zero() and rhs.is_zero()
        assert _plain_counit(gl, (0, 1)).is_zero() and _plain_counit(gl, (1, 0)).is_zero()


_COUNITAL = [
    (check_coassociativity, _reference_coassociativity),
    (check_counit, _reference_counit),
]
_ALL_THREE = _COUNITAL + [(check_antipode, _reference_antipode)]

# the algebras the lemma is checked on against the reference sweep, with the
# sweep's length and the laws it covers
_ORACLE_ALGEBRAS = {
    "toy": (build_group_toy, 3, _ALL_THREE),
    "glq2": (build_glq2, 4, _COUNITAL),
    "glq2_broken_delta": (_broken_glq2, 3, _COUNITAL),
    "ch2": (build_ch2, 4, _ALL_THREE),
    "chq2": (_full_chq2, 3, _ALL_THREE),
    "perturbed_coassoc": (lambda: _perturbed_ch2("coassoc"), 3, _ALL_THREE),
    "perturbed_counit": (lambda: _perturbed_ch2("counit"), 3, _ALL_THREE),
    "perturbed_antipode": (lambda: _perturbed_ch2("antipode"), 3, _ALL_THREE),
}


class TestSweepOracle:
    """The lemma's verdict on all of H against the word-by-word reference sweep.

    A law that holds on H holds on every word, and every failure below
    shows up within the swept lengths, so the verdicts must agree."""

    @pytest.mark.parametrize(
        "build, max_len, checkers", list(_ORACLE_ALGEBRAS.values()), ids=list(_ORACLE_ALGEBRAS)
    )
    def test_lemma_verdict_equals_reference_sweep(self, build, max_len, checkers):
        h = build()
        for checker, reference in checkers:
            assert checker(h).ok == reference(build(), max_len).ok, checker.__name__

    @pytest.mark.parametrize(
        "which, expect",
        [
            (
                "coassoc",
                {
                    "coassociativity": PERTURBED_COASSOC_DELTA + [
                        ("G1", "(-1)*G1[0]*G2[1] + (-1)*G1[0]*G3[1]*G2[2] + G1[0]*G2[1]*G2[2]"),
                    ],
                    "counit": PERTURBED_COASSOC_DELTA + [("G1", "(-1)*G1"), ("G1", "(-1)*G1")],
                    "antipode": PERTURBED_COASSOC_DELTA + [
                        ("G1", "(-1)*G3*G1*G2"), ("G1", "G3*G1*G2"),
                    ],
                },
            ),
            (
                "counit",
                {
                    "coassociativity": [],
                    "counit": PERTURBED_EPS + [("G1", "1"), ("G1", "G3")],
                    "antipode": PERTURBED_EPS + [("G1", "(-1)*1"), ("G1", "(-1)*1")],
                },
            ),
            (
                "antipode",
                {
                    "coassociativity": [],
                    "counit": [],
                    "antipode": [
                        ("G3", "(-2)*1"), ("G3", "(-2)*1"), ("G1", "(-2)*G3*G1"),
                        ("G2", "(-2)*G3*G2"),
                    ],
                },
            ),
        ],
    )
    def test_perturbation_witnesses(self, which, expect):
        # premise witnesses (a broken relation) lead, generator witnesses follow;
        # a perturbed eps or S leaves coassociativity, which reads Delta only
        h = _perturbed_ch2(which)
        for checker in (check_coassociativity, check_counit, check_antipode):
            r = checker(h)
            witnesses = expect[r.name]
            assert r == AxiomResult(r.name, not witnesses, 6, witnesses)

    def test_failed_premise_fails_every_law(self):
        # the laws hold on every generator; only Delta(G1*G1) = Delta(E1) fails
        h = _primitive_g1_ch2()
        delta_witnesses = [
            ("Delta(G1*G1)", "(2)*G1[0]*G1[1]"),
            ("Delta(G2*G1)", "(2)*G2[0]*G1[1]"),
        ]
        s_witnesses = [("S(G1*G1)", "(2)*E1"), ("S(G2*G1)", "(-2)*G3*G1*G2")]
        assert check_coassociativity(h) == AxiomResult("coassociativity", False, 6, delta_witnesses)
        assert check_counit(h) == AxiomResult("counit", False, 6, delta_witnesses)
        interleaved = [delta_witnesses[0], s_witnesses[0], delta_witnesses[1], s_witnesses[1]]
        assert check_antipode(h) == AxiomResult("antipode", False, 6, interleaved)
        # the length-3 counit sweep misses it: the lemma is the stricter net
        assert _reference_counit(_primitive_g1_ch2(), 3).ok


class TestAxiomCheckWitnesses:
    """A failing check of the Hopf table names its leading witnesses."""

    def test_perturbed_ch2_coassociativity_names_its_witnesses(self):
        ctx = RunContext(mode="exact")
        ctx.ch2 = _perturbed_ch2("coassoc")
        check = next(c for c in registry() if c.check_id == "ch2.coassociativity_len4")
        r = check.fn(ctx)
        generator = ("G1", "(-1)*G1[0]*G2[1] + (-1)*G1[0]*G3[1]*G2[2] + G1[0]*G2[1]*G2[2]")
        assert r.status == "fail"
        assert r.witness == str(PERTURBED_COASSOC_DELTA + [generator])

    @pytest.mark.parametrize("row", _AXIOM_CHECKS, ids=[row[0] for row in _AXIOM_CHECKS])
    def test_every_row_shows_the_same_leading_witnesses(self, row):
        # Delta(x0) + x0 (x) 1 breaks a relation of every suite algebra
        check_id, checker = row[:2]
        suite = check_id.split(".")[0]
        ctx = RunContext(mode="exact")
        h = getattr(ctx, suite)
        broken = {**h.coproduct, 0: h.coproduct[0] + NCPolynomial.gen(0)}
        setattr(ctx, suite, dataclasses.replace(h, coproduct=broken))
        r = next(c for c in registry() if c.check_id == check_id).fn(ctx)
        expect = checker(getattr(ctx, suite)).witnesses
        assert r.status == "fail" and expect
        assert r.witness == str(expect[:WITNESSES_SHOWN])


class TestCoassociativityByConcatenation:
    """The coassociativity sides are built by concatenation, with no tensor
    cube; against the cube itself, each term is a normal form and each sum is
    (Delta x id) Delta or (id x Delta) Delta applied letter by letter."""

    @pytest.mark.parametrize(
        "build", [b for b, _, _ in _ORACLE_ALGEBRAS.values()], ids=list(_ORACLE_ALGEBRAS)
    )
    def test_sides_are_cube_normal_forms_of_the_morphisms(self, build):
        h = build()
        g = h.rs.size
        t3 = h.rs.tensor_power(3)
        # slot 1 goes to slot 2 on the left; Delta moves up one slot on the right
        left_images = {**h.coproduct, **{g + i: NCPolynomial.gen(2 * g + i) for i in range(g)}}
        right_images = {i: NCPolynomial.gen(i) for i in range(g)}
        for i, p in h.coproduct.items():
            shifted = {tuple(x + g for x in w): c for w, c in p.terms.items()}
            right_images[g + i] = NCPolynomial(shifted)
        for w in chain([()], h.rs.iter_words(3)):
            d = h.delta(NCPolynomial.word(w))
            terms = h.terms(d)
            for term in terms:
                [left], right = _coassociativity_sides(h, [term])
                for side in (left, right):
                    assert t3.normal_form(side) == side, (w, term)
            [left], right = _coassociativity_sides(h, terms)
            assert left == apply_morphism(d, left_images, t3), w
            assert right == apply_morphism(d, right_images, t3), w


class TestTargetConfluence:
    """Every system the Hopf checkers compare normal forms in has unique normal
    forms, the premise under which comparing them decides equality in H.  The
    checkers never build the tensor cube, but their coassociativity sides are
    its normal forms, so its confluence is checked here too."""

    @pytest.mark.parametrize(
        "build",
        [build_glq2, build_ch2, build_chq2, build_group_toy],
        ids=["glq2", "ch2", "chq2", "group_toy"],
    )
    def test_algebra_and_its_tensor_powers_are_confluent(self, build):
        h = build()
        for rs in (h.rs, h.t2, h.rs.tensor_power(3)):
            assert local_confluence_check(rs) == [], rs.names


class TestStructureMaps:
    """HopfData's own coproduct, antipode and counit against the references."""

    @pytest.mark.parametrize(
        "build", [build_glq2, build_ch2, _full_chq2], ids=["glq2", "ch2", "chq2"]
    )
    def test_delta_matches_apply_morphism(self, build):
        h = build()
        for w in chain([()], h.rs.iter_words(3)):
            p = NCPolynomial.word(w)
            assert h.delta(p) == apply_morphism(p, h.coproduct, h.t2), w

    @pytest.mark.parametrize("build", [build_ch2, _full_chq2], ids=["ch2", "chq2"])
    def test_antipode_of_matches_apply_morphism_on_reversed_word(self, build):
        h = build()
        for w in chain([()], h.rs.iter_words(3)):
            expect = apply_morphism(NCPolynomial.word(w[::-1]), h.antipode, h.rs)
            assert h.antipode_of(NCPolynomial.word(w)) == expect, w

    @pytest.mark.parametrize(
        "build", [build_glq2, build_ch2, _full_chq2], ids=["glq2", "ch2", "chq2"]
    )
    def test_counit_of_is_the_plain_product(self, build):
        h = build()
        for w in chain([()], h.rs.iter_words(3)):
            expect = NCPolynomial({(): _plain_counit(h, w)})
            assert h.counit_of(NCPolynomial.word(w)) == expect, w

    def test_antipode_of_raises_for_an_unassigned_generator(self):
        gl = build_glq2()
        with pytest.raises(AntipodeMissing, match="a12"):
            gl.antipode_of(NCPolynomial.word((0, 1)))


_THREE_MAPS = ("Delta", "eps", "S")


class TestPremiseRows:
    """Premise rows are shared per system and generator images; the witnesses
    they give must be those of a cache-free reference, whatever filled them."""

    @pytest.mark.parametrize(
        "build, base, maps",
        [
            (build_group_toy, build_group_toy, _THREE_MAPS),
            (build_glq2, build_glq2, ("Delta", "eps")),
            (_broken_glq2, build_glq2, ("Delta", "eps")),
            (build_ch2, build_ch2, _THREE_MAPS),
            (_full_chq2, build_chq2, _THREE_MAPS),
            (lambda: _perturbed_ch2("coassoc"), build_ch2, _THREE_MAPS),
            (lambda: _perturbed_ch2("counit"), build_ch2, _THREE_MAPS),
            (lambda: _perturbed_ch2("antipode"), build_ch2, _THREE_MAPS),
            (_primitive_g1_ch2, build_ch2, _THREE_MAPS),
        ],
        ids=[
            "toy", "glq2", "glq2_broken_delta", "ch2", "chq2", "perturbed_coassoc",
            "perturbed_counit", "perturbed_antipode", "primitive_g1",
        ],
    )
    def test_witnesses_equal_the_reference_on_a_cold_and_a_filled_cache(self, build, base, maps):
        h = build()
        expect = _reference_premises(h, maps)
        h.rs.derived.clear()
        assert _premise_witnesses(h, maps) == expect
        # the unperturbed algebra on the same system fills the rows it can
        h.rs.derived.clear()
        b = base()
        skip = "S" if b.missing_antipode_generators() else None
        _premise_witnesses(b, tuple(m for m in maps if m != skip))
        assert _premise_witnesses(h, maps) == expect
        assert _premise_witnesses(h, maps) == expect

    def test_changing_a_map_after_a_check_changes_the_next_verdict(self):
        h = build_ch2()
        assert check_counit(h).ok and check_antipode(h).ok
        h.counit[CH_G[0]] = RadicalScalar.one()
        assert check_counit(h).witnesses[:2] == PERTURBED_EPS
        h.counit[CH_G[0]] = RadicalScalar.zero()
        assert check_counit(h).ok
        # a primitive G1 breaks only the Delta and S premises, never a law on
        # a generator: a stale row would let every law pass
        primitive = _primitive_g1_ch2()
        saved = h.coproduct[CH_G[0]], h.antipode[CH_G[0]]
        h.coproduct[CH_G[0]], h.antipode[CH_G[0]] = (
            primitive.coproduct[CH_G[0]], primitive.antipode[CH_G[0]]
        )
        assert check_coassociativity(h) == check_coassociativity(primitive)
        assert not check_antipode(h).ok
        assert check_antipode(h) == check_antipode(primitive)
        h.coproduct[CH_G[0]], h.antipode[CH_G[0]] = saved
        assert check_coassociativity(h).ok and check_antipode(h).ok

    def test_algebras_on_one_presentation_share_its_system_and_rows(self):
        ch2 = build_ch2()
        for which in ("coassoc", "counit", "antipode"):
            perturbed = _perturbed_ch2(which)
            assert perturbed.rs is ch2.rs
            assert perturbed.t2 is ch2.t2
        chq2, full = build_chq2(), _full_chq2()
        assert full.rs is chq2.rs and full.t2 is chq2.t2
        for m in ("Delta", "eps"):
            assert _premise_row(full, m) is _premise_row(chq2, m)
        # the structure-map dicts stay fresh: changing one changes no other
        assert ch2.coproduct is not build_ch2().coproduct
        assert chq2.antipode != full.antipode


class TestSharedUnit:
    def test_unit_is_one_shared_polynomial(self):
        assert NCPolynomial.unit() is NCPolynomial.unit()
        assert NCPolynomial.unit() == NCPolynomial({(): RadicalScalar.one()})

    def test_extend_builds_no_unit(self, monkeypatch):
        h = build_ch2()
        t2 = h.t2  # built before counting: a tensor power copies the unit rule
        built = []
        init = NCPolynomial.__init__

        def counting_init(self, terms=None):
            init(self, terms)
            built.append(self.terms)

        monkeypatch.setattr(NCPolynomial, "__init__", counting_init)
        p = NCPolynomial.word((CH_G[0], CH_G3, CH_G[1])) + NCPolynomial.word((CH_G3,), 2)
        image = extend(p, h.coproduct, t2)
        monkeypatch.undo()
        assert image == apply_morphism(p, h.coproduct, t2)
        assert {(): RadicalScalar.one()} not in built


# Counts tensor powers built (by their n), normal forms taken and structure
# maps applied over one hopf-exact run (the command of perfbench's hopf-exact
# workload).
_COUNT_HOPF_WORK = """
import collections, contextlib, io, json
from qclifford import hopf, rewrite
from qclifford.cli import main

counts = collections.Counter()
powers = []

def counting(label, fn):
    def wrapper(*args):
        counts[label] += 1
        return fn(*args)
    return wrapper

rs = rewrite.RewriteSystem
tensor_power = rs.tensor_power

def counting_power(self, n):
    powers.append(n)
    return tensor_power(self, n)

rs.tensor_power = counting_power
rs.normal_form = counting("normal_form", rs.normal_form)
hopf.extend = counting("extend", hopf.extend)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--suite", "ch2", "--suite", "chq2", "--mode", "exact", "--seed", "7"])
print(json.dumps({"exit": code, "tensor_powers": powers, **counts}))
"""


def _hopf_work() -> dict:
    """The counts of ``_COUNT_HOPF_WORK``, taken in a fresh process, because
    the rewrite systems and their rows live for the whole process."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_HOPF_WORK],
        capture_output=True,
        text=True,
        env=env_importing_this_qclifford(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_hopf_exact_run_decides_each_premise_once():
    # One tensor square per presentation (ch2, chq2 and the group toy) and
    # no cube: the coassociativity sides are built by concatenation, and the
    # counit sides are sums of normal words.  The run
    # takes 775 normal forms and 450 structure-map applications, extending
    # Delta of each generator anew wherever it is read; with Delta of each
    # generator kept in a table per system and coproduct, 646 and 321; with
    # each premise's left side mapped as one word, not as the product of its
    # generators' images, 802 and 477 (with the table).  With the
    # cube built and the counit laws extended into the algebra, it built 6
    # tensor powers and took 1,076;
    # with every system and premise row also rebuilt per algebra and per
    # law, 11 and 2,960, and 1,598 structure-map applications.
    counts = _hopf_work()
    assert counts["exit"] == 0
    assert counts["tensor_powers"] == [2, 2, 2]
    assert counts["normal_form"] <= 950
    assert counts["extend"] <= 800

