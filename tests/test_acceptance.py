"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output section) and then asserts, so the suite both documents and
enforces the contract.  Tolerances are pinned here and nowhere else:
exact checks use literal equality in the scalar ring; numeric checks use
the stated absolute tolerances.
"""

import json
import random
from fractions import Fraction

import pytest
from conftest import irrep_relations_hold

from qclifford import blades, fierz, hopf, presentations, qgamma, suites
from qclifford.cli import main
from qclifford.linalg import Matrix, anticommutator, matmul, max_abs_at_points
from qclifford.report import validate_report
from qclifford.rewrite import NCPolynomial, local_confluence_check
from qclifford.scalars import GaussRational, PointSet, RadicalScalar


def conclude(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {verdict} - {description}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_1_classical_clifford():
    gam = blades.dirac_matrices()
    signs = (-1, 1, 1, 1)
    pairs_ok = True
    for mu in range(4):
        for nu in range(mu, 4):
            ac = anticommutator(gam[mu], gam[nu])
            expect = (
                Matrix.identity(4).scale(2 * signs[mu])
                if mu == nu
                else Matrix.zeros(4, 4)
            )
            pairs_ok = pairs_ok and ac == expect
    basis = blades.all_basis_blades(blades.CL31)
    agree = len(basis) == 16
    for b1 in basis:
        for b2 in basis:
            prod = blades.CL31.multiply(NCPolynomial.word(b1), NCPolynomial.word(b2))
            expect = Matrix.zeros(4, 4)
            for bl, c in prod.terms.items():
                expect = expect + blades.blade_matrix(bl, gam).scale(c)
            got = matmul(blades.blade_matrix(b1, gam), blades.blade_matrix(b2, gam))
            agree = agree and got == expect
    conclude(
        1,
        "classical Clifford anticommutation and blade/matrix agreement, exact",
        pairs_ok and agree,
    )


def test_criterion_2_ch2_hopf_suite():
    ch = presentations.build_ch2()
    ok = (
        hopf.check_coassociativity(ch).ok
        and hopf.check_counit(ch).ok
        and hopf.check_antipode(ch).ok
    )
    # three negative controls, one per axiom, must each fail
    broken_coassoc = presentations.build_ch2()
    broken_coassoc.coproduct[presentations.CH_G[0]] = NCPolynomial.word(
        (presentations.CH_G[0], broken_coassoc.rs.size + presentations.CH_G[1])
    )
    broken_counit = presentations.build_ch2()
    broken_counit.counit[presentations.CH_G[0]] = RadicalScalar.one()
    broken_antipode = presentations.build_ch2()
    broken_antipode.antipode[presentations.CH_G3] = NCPolynomial.word(
        (presentations.CH_G3,), -1
    )
    controls_fail = (
        not hopf.check_coassociativity(broken_coassoc).ok
        and not hopf.check_counit(broken_counit).ok
        and not hopf.check_antipode(broken_antipode).ok
    )
    conclude(
        2,
        "CH(2) coassociativity, counit, antipode to length 4 plus negative controls",
        ok and controls_fail,
    )


def test_criterion_3_glq2_suite():
    gl = presentations.build_glq2()
    bialg = hopf.check_bialgebra_compatibility(gl).ok
    terminated = 0
    try:
        for w in gl.rs.iter_words(8):
            gl.rs.normal_form(NCPolynomial.word(w))  # default 10^6 step budget
            terminated += 1
    except Exception:
        terminated = -1
    confluence = local_confluence_check(gl.rs)
    conclude(
        3,
        "six relations preserved by the coproduct/counit, all words to length 8 "
        "terminate, local confluence reported",
        bialg and terminated == 87380 and confluence == [],
        detail=f"words={terminated}, confluence_failures={len(confluence)}",
    )


def test_criterion_4_chq2_irrep_suite(np):
    rng = random.Random(2024)

    def draw():
        while True:
            g = GaussRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            )
            if not g.is_zero() and g not in (GaussRational(1), GaussRational(-1)):
                return g

    exact_ok = True
    for _ in range(20):
        p = presentations.IrrepParams(draw(), draw(), draw())
        exact_ok = exact_ok and irrep_relations_hold(presentations.build_affine_irrep(p))

    numeric_ok = True
    for _ in range(20):
        z = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        lx = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        ly = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        qv = rng.uniform(1.1, 2.0)
        mats = {
            k: np.asarray(m) for k, m in presentations.affine_irrep_numeric(z, lx, ly, qv).items()
        }
        denom = qv - 1 / qv
        for lvl in (0, 1):
            for axis, lam in (("x", lx), ("y", ly)):
                w = 1 / lam if lvl == 0 else lam
                m = mats[f"{axis}{lvl}"]
                if np.max(np.abs(m @ m - ((w - 1 / w) / denom) * np.eye(2))) > 1e-10:
                    numeric_ok = False
            x, y = mats[f"x{lvl}"], mats[f"y{lvl}"]
            if np.max(np.abs(x @ y + y @ x)) > 1e-10:
                numeric_ok = False

    pinned = presentations.IrrepParams(
        GaussRational(1), GaussRational(2), GaussRational(3)
    )
    sq = matmul(
        presentations.build_affine_irrep(pinned).gammas["x0"],
        presentations.build_affine_irrep(pinned).gammas["x0"],
    )
    pinned_ok = (
        sq[0, 0].at(3) == GaussRational(Fraction(-9, 16))
        and sq[1, 1].at(3) == GaussRational(Fraction(-9, 16))
        and sq[0, 1].is_zero()
        and sq[1, 0].is_zero()
    )
    conclude(
        4,
        "irrep square law and anticommutation for 20 seeded draws, exact and 1e-10 "
        "numeric, with the pinned -9/16 value",
        exact_ok and numeric_ok and pinned_ok,
    )


def test_criterion_5_exchange_matrix_suite():
    r = fierz.hecke_rmatrix()
    ok = (
        fierz.hecke_residual(r).is_zero()
        and fierz.braid_residual(r).is_zero()
        and r.map(lambda s: s.at(1)) == fierz.flip_matrix()
    )
    conclude(5, "Hecke and braid relations exact in q; flip at q = 1", ok)


def test_criterion_6_qgamma_suite():
    from qclifford.scalars import q_half, q_plus_qinv, qinv, qvar, sqrt

    gs = qgamma.build_q_gammas()
    qm = qgamma.build_metric()
    q = qvar()
    Q = q_plus_qinv()
    one = RadicalScalar.one()
    pins = (
        gs["0"][0, 2] == q**2
        and gs["0"][1, 3] == -one
        and gs["0"][2, 0] == -one
        and gs["0"][3, 1] == -one
        and gs["+"][0, 3] == sqrt(q * Q)
        and gs["+"][2, 1] == -sqrt(q * Q)
        and gs["-"][0, 3] == sqrt(Q) * q_half(-3)
        and gs["-"][3, 0] == -(sqrt(Q) * q_half(3))
        and gs["3"][0, 2] == qinv() + q - q**2
        and gs["3"][1, 3] == -(q**-2)
    )
    ok = (
        matmul(gs["+"], gs["+"]).is_zero()
        and matmul(qm.c, qm.c_inverse) == Matrix.identity(4)
        and pins
    )
    conclude(
        6,
        "raising gamma squares to zero, metric inverse exact, ten transcription pins",
        ok,
    )


def test_criterion_7_oracle_equivalence(np):
    gs = qgamma.build_q_gammas()
    ctx = suites.RunContext(mode="both", q_samples=8, seed=2024)
    points = ctx.samples[:5]

    # linear relations: engine vs independent float oracle
    results = fierz.linear_relation_residuals(gs)
    from test_qgamma import oracle_gammas  # independent float transcription

    # each relation's scale, re-entered from its name
    scales = {
        "J53 = -q^2 J50": lambda q: -q * q,
        "J0- = -J+3": lambda q: -1.0,
        "J35 = J05": lambda q: 1.0,
        "J-0 = q^-2 J3+": lambda q: 1 / (q * q),
        "J0+ = q^2 J-3": lambda q: q * q,
        "J5+ = J+-": lambda q: 1.0,
        "J+0 = -J3-": lambda q: -1.0,
    }
    linear_ok = len(results) == 7
    for qv in points:
        g = oracle_gammas(qv)
        mats = {"0": g[0], "+": g[1], "-": g[2], "3": g[3], "5": g[0] @ g[1] @ g[2] @ g[3]}
        for (name, lhs, _, rhs), residual in zip(fierz.LINEAR_RELATIONS, results):
            o_res = mats[lhs[0]] @ mats[lhs[1]] - scales[name](qv) * (
                mats[rhs[0]] @ mats[rhs[1]]
            )
            o_norm = float(np.max(np.abs(o_res)))
            e_norm = float(np.max(np.abs(residual.evaluate(PointSet([qv]))[0])))
            if abs(o_norm - e_norm) > 1e-9 or (o_norm < 1e-9) != (e_norm < 1e-9):
                linear_ok = False

    # deformed metric: engine matrix route vs independent blade-algebra route
    metric_ok = True
    for conv in qgamma.ALL_CONVENTIONS:
        engine = qgamma.deformed_metric(gs, conv).matrix
        oracle = qgamma.deformed_metric_blade_oracle(gs, conv)
        if any(v > 1e-9 for v in max_abs_at_points((engine - oracle).data, PointSet(points))[0]):
            metric_ok = False

    # target comparison report: per-entry residuals per convention, deterministic
    target = qgamma.deformed_metric_target()
    report_rows_1 = {
        conv.value: str(qgamma.deformed_metric(gs, conv).matrix - target)
        for conv in qgamma.ALL_CONVENTIONS
    }
    report_rows_2 = {
        conv.value: str(qgamma.deformed_metric(gs, conv).matrix - target)
        for conv in qgamma.ALL_CONVENTIONS
    }
    deterministic = report_rows_1 == report_rows_2
    conclude(
        7,
        "engine matches brute-force oracles at 5 seeded q to 1e-9; target "
        "comparison emitted deterministically",
        linear_ok and metric_ok and deterministic,
    )


def test_criterion_8_quadratic_identity_report():
    gs = qgamma.build_q_gammas()
    renders = []
    for convention in (fierz.CONVENTION_COMMUTE, fierz.CONVENTION_REFLECT):
        k_dependence = fierz.quadratic_identity_report(gs, convention)  # default budget
        renders.append(tuple((w, poly.render()) for w, poly in k_dependence.items()))
    # byte-determinism of the k-analysis for a fixed configuration
    rep2 = fierz.quadratic_identity_report(gs, fierz.CONVENTION_COMMUTE)
    deterministic = renders[0] == tuple((w, poly.render()) for w, poly in rep2.items())
    conclude(
        8,
        "quadratic identity reduces under budget for both conventions; "
        "k-analysis byte-deterministic",
        len(renders) == 2 and deterministic,
    )


def test_criterion_9_cli_contract(tmp_path):
    args = ["--suite", "clifford", "--suite", "qgamma", "--seed", "11", "--q-samples", "3"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--format", "json", "--out", str(out1), *args])
    code2 = main(["verify", "--format", "json", "--out", str(out2), *args])
    byte_identical = out1.read_bytes() == out2.read_bytes()
    schema_ok = True
    try:
        validate_report(json.loads(out1.read_text()))
    except Exception:
        schema_ok = False
    fail_code = main(
        ["verify", "--suite", "selfcheck", "--format", "json", "--out", str(tmp_path / "f.json")]
    )
    strict_code = main(
        [
            "verify",
            "--suite",
            "qgamma",
            "--strict",
            "--format",
            "json",
            "--out",
            str(tmp_path / "s.json"),
        ]
    )
    conclude(
        9,
        "byte-identical reports, exit-code semantics with strict mode, schema "
        "validation",
        code1 == 0 and code2 == 0 and byte_identical and schema_ok
        and fail_code == 1 and strict_code == 1,
    )
