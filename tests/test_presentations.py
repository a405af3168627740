import cmath
import random
from fractions import Fraction

import pytest
from conftest import irrep_relations_hold

from qclifford.linalg import Matrix, anticommutator, matmul
from qclifford.presentations import (
    CH_G,
    CH_G3,
    CHQ_G,
    CHQ_K,
    DegenerateParams,
    IrrepParams,
    adjoint_action,
    affine_irrep_numeric,
    build_affine_irrep,
    build_ch2,
    build_chq2,
    build_glq2,
    su2_action_report,
)
from qclifford.qgamma import ALL_CONVENTIONS, ActionConvention
from qclifford.rewrite import NCPolynomial
from qclifford.scalars import (
    GaussRational,
    RadicalScalar,
    q_bracket_of,
    qinv,
    qvar,
    sqrt,
)
from qclifford.suites import _seeded_irreps


class TestQuantumMatrixPresentation:
    def test_six_relations(self):
        gl = build_glq2()
        assert len(gl.rs.rules) == 6

    def test_coproduct_of_a11(self):
        gl = build_glq2()
        g = gl.rs.size
        # a11 -> a11 (x) a11 + a12 (x) a21
        expect = NCPolynomial.word((0, g + 0)) + NCPolynomial.word((1, g + 2))
        assert gl.coproduct[0] == expect

    def test_counit_values(self):
        gl = build_glq2()
        assert gl.counit[0].is_one() and gl.counit[3].is_one()
        assert gl.counit[1].is_zero() and gl.counit[2].is_zero()


class TestCliffordHopfPresentation:
    def test_odd_generators_anticommute(self):
        ch = build_ch2()
        g1, g2 = CH_G
        got = ch.rs.normal_form(NCPolynomial.word((g2, g1)))
        assert got == NCPolynomial.word((g1, g2), -1)

    def test_squares_are_central_generators(self):
        ch = build_ch2()
        got = ch.rs.normal_form(NCPolynomial.word((CH_G[0], CH_G[0])))
        assert got == NCPolynomial.gen(0)
        got3 = ch.rs.normal_form(NCPolynomial.word((CH_G3, CH_G3)))
        assert got3 == NCPolynomial.unit()

    def test_antipode_of_odd_generator(self):
        ch = build_ch2()
        assert ch.antipode[CH_G[0]] == NCPolynomial.word((CH_G[0], CH_G3))

    def test_deformed_square_is_q_bracket(self):
        chq = build_chq2()
        k, kinv = CHQ_K[0]
        denom_inv = (qvar() - qinv()).inverse()
        got = chq.rs.normal_form(NCPolynomial.word((CHQ_G[0], CHQ_G[0])))
        expect = NCPolynomial.word((k, k), denom_inv) + NCPolynomial.word(
            (kinv, kinv), -denom_inv
        )
        assert got == expect

    def test_deformed_coproduct_legs(self):
        chq = build_chq2()
        g = chq.rs.size
        k, kinv = CHQ_K[0]
        expect = NCPolynomial.word((CHQ_G[0], g + kinv)) + NCPolynomial.word(
            (k, CH_G3 + 4, g + CHQ_G[0])
        )
        assert chq.coproduct[CHQ_G[0]] == expect


class TestAffineIrrep:
    def test_grading_matrix_display(self):
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        assert irrep.gammas["g3"] == Matrix.from_rows([[1, 0], [0, -1]])

    def test_unit_prefactor_reduces_to_plain_flip(self):
        # lambda chosen so (lambda^{-1} - lambda)/(q - q^{-1}) == 1 at q == lambda^{-1}:
        # instead verify the z-structure alone with prefactor squared equal to
        # the bracket: entries of gammas["x0"] with z = 1 are prefactor times the flip
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        m = irrep.gammas["x0"]
        assert m[0, 0].is_zero() and m[1, 1].is_zero()
        assert m[0, 1] == m[1, 0]  # z = z^{-1} = 1

    def test_pinned_square_negative_nine_sixteenths(self):
        # oracle: (1/2 - 2)/(3 - 1/3) = -9/16 by direct rational arithmetic
        oracle = (Fraction(1, 2) - 2) / (Fraction(3) - Fraction(1, 3))
        assert oracle == Fraction(-9, 16)
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        sq = matmul(irrep.gammas["x0"], irrep.gammas["x0"])
        assert sq[0, 0].at(3) == GaussRational(oracle)
        assert sq[1, 1].at(3) == GaussRational(oracle)
        assert sq[0, 1].is_zero() and sq[1, 0].is_zero()

    def test_pinned_square_sixteen_ninths(self):
        # oracle: (3 - 1/3)/(2 - 1/2) = 16/9
        oracle = (Fraction(3) - Fraction(1, 3)) / (Fraction(2) - Fraction(1, 2))
        assert oracle == Fraction(16, 9)
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        sq = matmul(irrep.gammas["y1"], irrep.gammas["y1"])
        assert sq[0, 0].at(2) == GaussRational(oracle)

    def test_matrices_are_the_prefactor_construction(self):
        # the construction written out: the flips of z^(-1) at level 0 and of z
        # at level 1, scaled by sqrt((1/lambda - lambda)/(q - 1/q)) at level 0
        # and by sqrt((lambda - 1/lambda)/(q - 1/q)) at level 1
        denom_inv = (qvar() - qinv()).inverse()
        i_unit = RadicalScalar.constant(GaussRational(0, 1))

        def flip(upper, lower, prefactor):
            zero = RadicalScalar.zero()
            return Matrix.from_rows([[zero, upper], [lower, zero]]).scale(prefactor)

        for irrep in _seeded_irreps(7, 20):
            params = irrep.params
            z, zi, lx, lxi, ly, lyi = (
                RadicalScalar.constant(v)
                for p in (params.z, params.lambda_x, params.lambda_y)
                for v in (p, p.inverse())
            )
            assert irrep.gammas == {
                "x0": flip(zi, z, sqrt((lxi - lx) * denom_inv)),
                "y0": flip(-(i_unit * zi), i_unit * z, sqrt((lyi - ly) * denom_inv)),
                "x1": flip(z, zi, sqrt((lx - lxi) * denom_inv)),
                "y1": flip(-(i_unit * z), i_unit * zi, sqrt((ly - lyi) * denom_inv)),
                "g3": Matrix.from_rows([[1, 0], [0, -1]]),
            }, params

    def test_relations_for_twenty_exact_draws(self):
        rng = random.Random(31)

        def draw():
            while True:
                g = GaussRational(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                )
                if not g.is_zero() and g not in (GaussRational(1), GaussRational(-1)):
                    return g

        for _ in range(20):
            p = IrrepParams(draw(), draw(), draw())
            assert irrep_relations_hold(build_affine_irrep(p)), p

    def test_square_law_equals_bracket_of_weight(self):
        p = IrrepParams(GaussRational(2), GaussRational(3), GaussRational(5))
        irrep = build_affine_irrep(p)
        for level in (0, 1):
            for axis in ("x", "y"):
                g = irrep.gammas[f"{axis}{level}"]
                expect = q_bracket_of(RadicalScalar.constant(irrep.weight(level, axis)))
                assert matmul(g, g) == Matrix.identity(2).scale(expect)

    def test_numeric_relations_to_1e10(self, np):
        rng = random.Random(32)
        for _ in range(20):
            z = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
            lx = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
            ly = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
            qv = rng.uniform(1.1, 2.0)
            mats = {k: np.asarray(m) for k, m in affine_irrep_numeric(z, lx, ly, qv).items()}
            denom = qv - 1 / qv
            for lvl in (0, 1):
                for axis, lam in (("x", lx), ("y", ly)):
                    w = 1 / lam if lvl == 0 else lam
                    m = mats[f"{axis}{lvl}"]
                    assert np.max(np.abs(m @ m - ((w - 1 / w) / denom) * np.eye(2))) < 1e-10
                x, y = mats[f"x{lvl}"], mats[f"y{lvl}"]
                assert np.max(np.abs(x @ y + y @ x)) < 1e-10

    def test_cross_level_brackets_reported_not_asserted(self):
        # the relations hold level by level only: a level-0 gamma and a
        # level-1 gamma need not anticommute
        p = IrrepParams(GaussRational(2), GaussRational(3), GaussRational(5))
        g = build_affine_irrep(p).gammas
        cross = [anticommutator(g[a], g[b]) for a in ("x0", "y0") for b in ("x1", "y1")]
        assert not all(m.is_zero() for m in cross)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateParams):
            IrrepParams(GaussRational(0), GaussRational(2), GaussRational(3))
        with pytest.raises(DegenerateParams):
            affine_irrep_numeric(1.0, 1.0, 2.0, 1)


class TestSu2Action:
    def test_sigma3_maps_to_itself_claims(self):
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        for conv in ALL_CONVENTIONS:
            rep = su2_action_report(irrep, 0, conv, {})
            assert rep["alpha3_squared_minus_1"].is_zero()
            assert rep["anticomm_alpha1_sigma3"].is_zero()
            assert rep["anticomm_alpha2_sigma3"].is_zero()

    def test_column_sum_square_matches_hand_expansion(self):
        # (alpha_sigma1)^2 = z^2 (px^2 - py^2) I for the column-sum extraction
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        rep = su2_action_report(irrep, 0, ActionConvention.COL_SUM, {})
        lam_x = RadicalScalar.constant(Fraction(1, 2)) - RadicalScalar.constant(2)
        lam_y = RadicalScalar.constant(Fraction(1, 3)) - RadicalScalar.constant(3)
        denom = qvar() - qinv()
        expect = Matrix.identity(2).scale((lam_x - lam_y) / denom)
        assert rep["alpha1_squared"] == expect

    def test_report_values_are_deterministic(self):
        p = IrrepParams(GaussRational(1), GaussRational(2), GaussRational(3))
        irrep = build_affine_irrep(p)
        r1 = su2_action_report(irrep, 1, ActionConvention.ROW_SUM, {})
        r2 = su2_action_report(irrep, 1, ActionConvention.ROW_SUM, {})
        assert r1 == r2


class TestAdjointAction:
    def test_grading_generator_acts_by_conjugation(self):
        ch = build_ch2()
        got = adjoint_action(ch, NCPolynomial.gen(CH_G3), NCPolynomial.gen(CH_G[0]))
        assert got == NCPolynomial.word((CH_G[0],), -1)

    def test_central_generator_acts_trivially(self):
        ch = build_ch2()
        got = adjoint_action(ch, NCPolynomial.gen(0), NCPolynomial.gen(CH_G[0]))
        assert got.is_zero()

    def test_odd_generator_adjoint_on_itself(self):
        # ad_{G1}(G1) = G1 G1 S(1) + G3 G1 S(G1) = E1 + G3 G1 G1 G3 = E1 + E1
        ch = build_ch2()
        got = adjoint_action(ch, NCPolynomial.gen(CH_G[0]), NCPolynomial.gen(CH_G[0]))
        assert got == NCPolynomial.word((0,), 2)
