"""Workload definitions, the expected verdict table and its comparator.

A workload is one ``qclifford`` command line.  The benchmark appends
``--seed S --format json --out PATH`` to it, so the seed is the only input
that changes between runs.  The expected table is written by hand from the
acceptance criteria in ``tests/test_acceptance.py`` and the claim each check
states in ``qclifford list-checks``; it is not read back from a report.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_SUITES = ("clifford", "qgamma", "glq2", "ch2", "chq2", "fierz")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # the verify command line, without seed and output
    suites: tuple[str, ...]  # suites whose checks the run must report
    limit_s: float  # wall-clock limit of one invocation
    exit_code: int = 0
    why: str = ""  # the reason the workload was chosen, one line


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            ("verify", "--suite", "all", "--mode", "both"),
            ALL_SUITES,
            limit_s=140.0,
            why="the headline run; ~75% of it is glq2.termination_len8, raw-rewriting"
            " 87,380 words whose coefficients come from a tiny closed set",
        ),
        Workload(
            "hopf-exact",
            ("verify", "--suite", "ch2", "--suite", "chq2", "--mode", "exact"),
            ("ch2", "chq2"),
            limit_s=40.0,
            why="tensor-square/cube multiplication and antipode products in the Hopf"
            " checkers; no glq2 sweep, numeric sampling only at 5 fixed points",
        ),
        Workload(
            "matrix-both",
            (
                "verify", "--suite", "clifford", "--suite", "qgamma",
                "--suite", "chq2", "--suite", "fierz",
                "--mode", "both", "--q-samples", "32",
            ),
            ("clifford", "qgamma", "chq2", "fierz"),
            limit_s=40.0,
            why="diverse LaurentFrac operands with real denominators: gcds, exact"
            " inverses and solves, fierz k-interpolation, float oracles at 32 points",
        ),
    )
}


def program_argv(workload: Workload, seed: int, out_path: str) -> list[str]:
    return [*workload.argv, "--seed", str(seed), "--format", "json", "--out", out_path]


PASS = ("pass", False)
REPORT = ("report", False)
REPORT_MISMATCH = ("report", True)

# check id -> (status, mismatch flag); 34 pass, 18 report, 0 fail
EXPECTED = {
    # criterion 1: exact Cl(3,1) anticommutation and blade/matrix agreement
    "clifford.blade_associativity": PASS,
    "clifford.blade_matrix_agreement": PASS,
    "clifford.dirac_anticommutation": PASS,
    # criterion 6: transcription pins, (gamma+)^2 = 0, exact metric inverse
    "qgamma.transcription": PASS,
    "qgamma.gamma_plus_square_zero": PASS,
    "qgamma.metric_inverse": PASS,
    "qgamma.gamma5_structure": PASS,
    # criterion 7: matrix route agrees with the blade-algebra route
    "qgamma.deformed_metric_oracle": PASS,
    # no convention reproduces the transcribed target (strict mode exits 1,
    # tests/test_cli.py::test_strict_mode_fails_on_target_mismatch)
    "qgamma.deformed_metric.col_sum": REPORT_MISMATCH,
    "qgamma.deformed_metric.fixed_col_0": REPORT_MISMATCH,
    "qgamma.deformed_metric.fixed_row_0": REPORT_MISMATCH,
    "qgamma.deformed_metric.row_sum": REPORT_MISMATCH,
    # replacing the braiding by the flip breaks the relation away from q = 1
    "qgamma.bare_relation_flip": REPORT_MISMATCH,
    # solvable at q = 1 and at sampled q (tests/test_qgamma.py TestBareRelation)
    "qgamma.bare_relation_solve": REPORT,
    # criterion 3: relations preserved, all words to length 8 terminate,
    # local confluence to length 4, degree-homogeneous rules
    "glq2.rules_degree_homogeneous": PASS,
    "glq2.local_confluence_len4": PASS,
    "glq2.termination_len8": PASS,
    "glq2.bialgebra_relations": PASS,
    "glq2.coassociativity_len4": PASS,
    "glq2.counit_len4": PASS,
    # the presentation assigns no antipode; reported, never asserted
    "glq2.antipode": REPORT,
    # criterion 2: the three axioms hold and each perturbed map fails its axiom
    "ch2.coassociativity_len4": PASS,
    "ch2.counit_len4": PASS,
    "ch2.antipode_len4": PASS,
    "ch2.bialgebra_relations": PASS,
    "ch2.negative_control_coassoc": PASS,
    "ch2.negative_control_counit": PASS,
    "ch2.negative_control_antipode": PASS,
    "ch2.grouplike_toy": PASS,
    # criterion 4: deformed bialgebra axioms and the irrep square laws
    "chq2.bialgebra_relations": PASS,
    "chq2.coassociativity_len3": PASS,
    "chq2.counit_len3": PASS,
    "chq2.irrep_square_law": PASS,
    "chq2.irrep_anticommutation": PASS,
    "chq2.irrep_pinned": PASS,
    # the undeformed antipode satisfies the axiom with the deformed coproduct
    "chq2.antipode_inherited": REPORT,
    # reported, never asserted: missing antipode, cross-level brackets, and
    # the post-action values of the su(2) candidates
    "chq2.antipode_missing": REPORT,
    "chq2.irrep_cross_index": REPORT,
    "chq2.su2_action.col_sum": REPORT,
    "chq2.su2_action.fixed_col_0": REPORT,
    "chq2.su2_action.fixed_row_0": REPORT,
    "chq2.su2_action.row_sum": REPORT,
    # criterion 5: Hecke and braid relations exact, flip at q = 1
    "fierz.rhat_hecke": PASS,
    "fierz.rhat_braid": PASS,
    "fierz.rhat_q1_flip": PASS,
    "fierz.reflection_rule_count": PASS,
    "fierz.reflection_q1_commutation": PASS,
    # criterion 7: engine residuals match the float oracle
    "fierz.linear_relations_oracle": PASS,
    # not all seven transcribed relations hold exactly; the flag records it
    "fierz.linear_relations": REPORT_MISMATCH,
    # recorded, not asserted: confluence outcome and the k-analysis
    "fierz.reflection_confluence": REPORT,
    "fierz.quadratic.convention_a": REPORT,
    "fierz.quadratic.convention_b": REPORT,
}


def expected_for(suites) -> dict:
    return {cid: v for cid, v in EXPECTED.items() if cid.split(".", 1)[0] in suites}


def wrong_checks(expected: dict, doc: dict | None) -> list[str]:
    """Check ids with a wrong verdict: a status or mismatch flag that differs
    from ``expected``, a missing expected check, or a check nobody expected.
    ``doc`` is the parsed report, or None when the run gave no report."""
    got = {}
    if doc is not None:
        got = {c["check_id"]: (c["status"], c.get("mismatch", False)) for c in doc["checks"]}
    wrong = {cid for cid, want in expected.items() if got.get(cid) != want}
    return sorted(wrong | (got.keys() - expected.keys()))
