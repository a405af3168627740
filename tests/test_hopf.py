from itertools import chain

import pytest

from qclifford.hopf import (
    AntipodeMissing,
    AxiomResult,
    WordImages,
    check_antipode,
    check_bialgebra_compatibility,
    check_coassociativity,
    check_counit,
)
from qclifford.presentations import (
    CH_G,
    CH_G3,
    adjoint_action,
    build_ch2,
    build_chq2,
    build_glq2,
    build_group_toy,
)
from qclifford.rewrite import NCPolynomial, RewriteSystem, local_confluence_check
from qclifford.scalars import RadicalScalar
from qclifford.suites import _perturbed_ch2


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
            witnesses.append((rs.render(NCPolynomial.word(w)), h.t3.render(lhs - rhs)))
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


class TestGroupToy:
    def test_all_three_axioms_pass(self):
        toy = build_group_toy()
        assert check_coassociativity(toy, 3).ok
        assert check_counit(toy, 3).ok
        assert check_antipode(toy, 3).ok


class TestQuantumMatrixBialgebra:
    def test_matrix_coproduct_is_coassociative(self):
        gl = build_glq2()
        assert check_coassociativity(gl, 3).ok

    def test_counit_laws(self):
        gl = build_glq2()
        assert check_counit(gl, 3).ok

    def test_relations_preserved_by_coproduct_and_counit(self):
        gl = build_glq2()
        r = check_bialgebra_compatibility(gl)
        assert r.ok, r.witnesses

    def test_antipode_is_not_assigned(self):
        gl = build_glq2()
        assert gl.missing_antipode_generators() == list(gl.rs.names)
        with pytest.raises(AntipodeMissing):
            check_antipode(gl, 2)


class TestCliffordHopf:
    def test_axioms_to_length_three(self):
        ch = build_ch2()
        assert check_coassociativity(ch, 3).ok
        assert check_counit(ch, 3).ok
        assert check_antipode(ch, 3).ok
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
        assert check_antipode(ch, 1).ok


class TestDeformedCliffordHopf:
    def test_deformed_relations_still_form_a_bialgebra(self):
        chq = build_chq2()
        r = check_bialgebra_compatibility(chq)
        assert r.ok, r.witnesses[:3]

    def test_deformed_coproduct_coassociative(self):
        chq = build_chq2()
        assert check_coassociativity(chq, 2).ok

    def test_counit_compatible_with_weight_generators(self):
        chq = build_chq2()
        assert check_counit(chq, 2).ok

    def test_antipode_reported_missing_for_deformed_generators(self):
        chq = build_chq2()
        assert chq.missing_antipode_generators() == ["G1", "G2"]

    def test_undeformed_antipode_still_satisfies_axiom(self):
        chq = build_chq2(include_inherited_antipode=True)
        assert check_antipode(chq, 2).ok


class TestNegativeControls:
    def test_broken_coproduct_fails_coassociativity(self):
        gl = build_glq2()
        gl.coproduct[0] = NCPolynomial.word((0, gl.rs.size + 1))
        r = check_coassociativity(gl, 2)
        assert not r.ok
        assert r.witnesses

    def test_broken_counit_fails(self):
        ch = build_ch2()
        ch.counit[CH_G[0]] = RadicalScalar.one()
        assert not check_counit(ch, 2).ok

    def test_broken_antipode_fails(self):
        ch = build_ch2()
        ch.antipode[CH_G3] = NCPolynomial.word((CH_G3,), -1)
        assert not check_antipode(ch, 2).ok

    def test_failures_persist_at_longer_lengths(self):
        gl = build_glq2()
        gl.coproduct[0] = NCPolynomial.word((0, gl.rs.size + 1))
        w2 = check_coassociativity(gl, 2).witnesses
        w3 = check_coassociativity(gl, 3).witnesses
        failing2 = {w for w, _ in w2}
        failing3 = {w for w, _ in w3}
        assert failing2 <= failing3

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
        # eps(a11 a12) = 0 = q eps(a12 a11)
        lhs = gl.counit_images((0, 1))
        rhs = gl.counit_images((1, 0))
        assert lhs.is_zero() and rhs.is_zero()


_COUNITAL = [
    (check_coassociativity, _reference_coassociativity),
    (check_counit, _reference_counit),
]
_ALL_THREE = _COUNITAL + [(check_antipode, _reference_antipode)]


class TestSweepOracle:
    """Sides memoised per distinct coproduct image against the word-by-word
    reference: the full AxiomResult, witnesses in order included."""

    @pytest.mark.parametrize(
        "build, max_len, checkers",
        [
            (build_group_toy, 3, _ALL_THREE),
            (build_glq2, 4, _COUNITAL),
            (_broken_glq2, 3, _COUNITAL),
            (build_ch2, 4, _ALL_THREE),
            (_full_chq2, 3, _ALL_THREE),
            (lambda: _perturbed_ch2("coassoc"), 3, _ALL_THREE),
            (lambda: _perturbed_ch2("counit"), 3, _ALL_THREE),
            (lambda: _perturbed_ch2("antipode"), 3, _ALL_THREE),
        ],
        ids=[
            "toy", "glq2", "glq2_broken_delta", "ch2", "chq2", "perturbed_coassoc",
            "perturbed_counit", "perturbed_antipode",
        ],
    )
    def test_memoised_sweeps_equal_reference(self, build, max_len, checkers):
        h = build()
        for checker, reference in checkers:
            assert checker(h, max_len) == reference(build(), max_len), checker.__name__


class TestTargetConfluence:
    """Every system the Hopf checkers multiply in has unique normal forms,
    the diamond-lemma premise of ``WordImages``."""

    @pytest.mark.parametrize(
        "build",
        [build_glq2, build_ch2, build_chq2, build_group_toy],
        ids=["glq2", "ch2", "chq2", "group_toy"],
    )
    def test_algebra_and_its_tensor_powers_are_confluent(self, build):
        h = build()
        for rs in (h.rs, h.t2, h.t3):
            assert local_confluence_check(rs) == [], rs.names


class TestWordImages:
    """The shared prefix cache against the direct letter-by-letter extension."""

    @pytest.mark.parametrize(
        "build",
        [
            build_glq2,
            build_ch2,
            _full_chq2,
            lambda: _perturbed_ch2("coassoc"),
            lambda: _perturbed_ch2("counit"),
            lambda: _perturbed_ch2("antipode"),
        ],
        ids=[
            "glq2", "ch2", "chq2", "perturbed_coassoc", "perturbed_counit",
            "perturbed_antipode",
        ],
    )
    def test_coproduct_images_match_apply_morphism(self, build):
        h = build()
        words = list(chain([()], h.rs.iter_words(3)))
        # fill the whole table first, so every shared image has been handed out
        images = [h.delta_images(w) for w in words]
        for w, image in zip(words, images, strict=True):
            assert image == apply_morphism(NCPolynomial.word(w), h.coproduct, h.t2), w

    @pytest.mark.parametrize(
        "build, max_len, distinct",
        [(build_ch2, 4, 187), (_full_chq2, 3, 284), (build_glq2, 4, 217)],
        ids=["ch2", "chq2", "glq2"],
    )
    def test_equal_images_are_one_object(self, build, max_len, distinct):
        h = build()
        words = list(h.rs.iter_words(max_len))
        images = [h.delta_images(w) for w in words]
        by_value = {}
        for w, image in zip(words, images, strict=True):
            assert by_value.setdefault(image, image) is image, w
        assert len({id(image) for image in images}) == len(by_value) == distinct
        # Delta respects the relations, so equal images are equal normal forms
        assert len({h.rs.normal_form(NCPolynomial.word(w)) for w in words}) == distinct

    @pytest.mark.parametrize("build", [build_glq2, build_ch2], ids=["glq2", "ch2"])
    def test_equal_words_in_the_table_are_one_object(self, build):
        h = build()
        check_coassociativity(h, 3)
        seen = {}
        for image in h.delta_images.cache.values():
            for tw in image.terms:
                assert seen.setdefault(tw, tw) is tw, tw
        assert len(seen) < sum(len(image.terms) for image in h.delta_images.cache.values())

    def test_reversed_word_images_are_the_antipode(self):
        h = build_ch2()
        s_images = WordImages(h.antipode, h.rs)
        for w in chain([()], h.rs.iter_words(3)):
            expect = apply_morphism(NCPolynomial.word(w[::-1]), h.antipode, h.rs)
            assert s_images(w[::-1]) == expect, w


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

    def test_antipode_of_raises_for_an_unassigned_generator(self):
        gl = build_glq2()
        with pytest.raises(AntipodeMissing, match="a12"):
            gl.antipode_of(NCPolynomial.word((0, 1)))

    def test_one_antipode_table_per_algebra(self, monkeypatch):
        h = _full_chq2()
        built = []
        init = WordImages.__init__

        def counting(self, gen_images, target):
            built.append(gen_images)
            init(self, gen_images, target)

        monkeypatch.setattr(WordImages, "__init__", counting)
        for w in h.rs.iter_words(2):
            h.antipode_of(NCPolynomial.word(w))
            adjoint_action(h, NCPolynomial.word(w), NCPolynomial.gen(0))
        assert check_antipode(h, 2).ok and check_antipode(h, 3).ok
        assert check_counit(h, 2).ok and check_counit(h, 3).ok
        assert check_bialgebra_compatibility(h).ok
        assert sum(1 for images in built if images is h.antipode) == 1
        # the counit sweeps share one identity-map table as well
        identity = {i: NCPolynomial.gen(i) for i in range(h.rs.size)}
        assert sum(1 for images in built if images == identity) == 1
        # and the counit, antipode and compatibility checks one counit table
        counit = {i: NCPolynomial({(): e}) for i, e in h.counit.items()}
        assert sum(1 for images in built if images == counit) == 1

    def test_a_second_counit_sweep_multiplies_nothing(self, monkeypatch):
        h = build_ch2()
        first = check_counit(h, 4)
        calls = []
        multiply = RewriteSystem.multiply

        def counting(self, *args, **kw):
            calls.append(self)
            return multiply(self, *args, **kw)

        monkeypatch.setattr(RewriteSystem, "multiply", counting)
        assert check_counit(h, 4) == first
        assert calls == []

    @pytest.mark.parametrize(
        "build", [build_glq2, build_ch2, _full_chq2], ids=["glq2", "ch2", "chq2"]
    )
    def test_counit_images_compute_each_distinct_product_once(self, build, monkeypatch):
        h = build()
        words = list(h.rs.iter_words(3))
        expect = [NCPolynomial({(): _plain_counit(h, w)}) for w in words]
        calls = []
        multiply = RewriteSystem.multiply

        def counting(self, *args, **kw):
            calls.append(self)
            return multiply(self, *args, **kw)

        monkeypatch.setattr(RewriteSystem, "multiply", counting)
        assert [h.counit_images(w) for w in words] == expect
        # one product in the algebra per distinct (prefix image, last
        # letter) pair, far fewer than one per word: eps takes few values
        pairs = {(h.counit_images(w[:-1]), w[-1]) for w in words}
        assert all(rs is h.rs for rs in calls)
        assert len(calls) == len(pairs) < len(words)
        calls.clear()
        assert [h.counit_images(w) for w in words] == expect
        assert calls == []


_WITH_ANTIPODE = [
    (check_antipode, 2),
    (check_coassociativity, 3),
    (check_counit, 3),
    (check_antipode, 3),
]


class TestSharedCoproductTable:
    """One HopfData swept in mixed order and lengths gives the fresh results."""

    @pytest.mark.parametrize(
        "build, sweeps",
        [
            (build_group_toy, _WITH_ANTIPODE),
            (build_glq2, [(check_counit, 2), (check_coassociativity, 3), (check_counit, 3)]),
            (build_ch2, _WITH_ANTIPODE),
            (_full_chq2, _WITH_ANTIPODE),
            (lambda: _perturbed_ch2("coassoc"), _WITH_ANTIPODE),
            (lambda: _perturbed_ch2("counit"), _WITH_ANTIPODE),
            (lambda: _perturbed_ch2("antipode"), _WITH_ANTIPODE),
        ],
        ids=[
            "toy", "glq2", "ch2", "chq2", "perturbed_coassoc", "perturbed_counit",
            "perturbed_antipode",
        ],
    )
    def test_shared_sweeps_equal_fresh_sweeps(self, build, sweeps):
        shared = build()
        for checker, max_len in sweeps:
            assert checker(shared, max_len) == checker(build(), max_len), (checker, max_len)

    def test_each_product_is_computed_once(self, monkeypatch):
        h = build_ch2()
        calls = []
        multiply = RewriteSystem.multiply

        def counting(self, *args, **kw):
            calls.append(self)
            return multiply(self, *args, **kw)

        monkeypatch.setattr(RewriteSystem, "multiply", counting)
        assert check_coassociativity(h, 4).ok and check_counit(h, 4).ok
        assert check_antipode(h, 4).ok
        # one tensor-square product per distinct (prefix image, last letter)
        # pair, fewer than the one per word of length 1 to 4 over six letters
        words = list(h.rs.iter_words(4))
        pairs = {(h.delta_images(w[:-1]), w[-1]) for w in words}
        t2_products = sum(1 for rs in calls if rs is h.t2)
        assert t2_products == len(pairs) < len(words) == 6 + 6**2 + 6**3 + 6**4

        calls.clear()
        assert check_antipode(h, 4).ok
        pairs = {tw for w in h.rs.iter_words(4) for tw in h.delta_images(w).terms}
        image_words = {
            part[::-1][:k]
            for tw in pairs
            for part in h.split(tw)
            for k in range(1, len(part) + 1)
        }
        assert all(rs is h.rs for rs in calls)
        assert len(calls) <= 2 * len(pairs) + len(image_words)
