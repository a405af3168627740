import pytest

from qclifford.hopf import (
    AntipodeMissing,
    WordImages,
    check_antipode,
    check_bialgebra_compatibility,
    check_coassociativity,
    check_counit,
)
from qclifford.presentations import (
    CH_G,
    CH_G3,
    build_ch2,
    build_chq2,
    build_glq2,
    build_group_toy,
)
from qclifford.rewrite import NCPolynomial, apply_morphism
from qclifford.scalars import RadicalScalar


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

    def test_eps_respects_relations_by_plain_substitution(self):
        gl = build_glq2()
        # eps(a11 a12) = 0 = q eps(a12 a11)
        lhs = gl.counit_word((0, 1))
        rhs = gl.counit_word((1, 0))
        assert lhs.is_zero() and rhs.is_zero()


class TestWordImages:
    """The shared prefix cache against the direct letter-by-letter extension."""

    @pytest.mark.parametrize("build", [build_glq2, build_ch2], ids=["glq2", "ch2"])
    def test_coproduct_images_match_apply_morphism(self, build):
        h = build()
        delta = WordImages(h.coproduct, h.t2)
        for w in h.rs.iter_words(3, min_len=0):
            expect = apply_morphism(NCPolynomial.word(w), h.coproduct, h.t2)
            assert delta(w) == expect, w

    def test_reversed_word_images_are_the_antipode(self):
        h = build_ch2()
        s_images = WordImages(h.antipode, h.rs)
        for w in h.rs.iter_words(3, min_len=0):
            assert s_images(w[::-1]) == h.antipode_of(NCPolynomial.word(w)), w
