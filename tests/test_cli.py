import json
import pathlib
import random
import subprocess
import sys

import pytest

from qclifford import presentations
from qclifford.cli import main
from qclifford.report import (
    REPORT_SCHEMA,
    diff_reports,
    load_report,
    validate_report,
)
from qclifford.suites import RunContext, _seeded_irreps, registry

FAST_SUITE = ["--suite", "clifford"]


def run_verify(tmp_path, name, extra):
    out = tmp_path / name
    code = main(["verify", "--format", "json", "--out", str(out), *extra])
    return code, out.read_bytes()


class TestDeterminism:
    def test_identical_config_and_seed_give_identical_bytes(self, tmp_path):
        args = [*FAST_SUITE, "--suite", "qgamma", "--seed", "7", "--q-samples", "3"]
        code1, bytes1 = run_verify(tmp_path, "a.json", args)
        code2, bytes2 = run_verify(tmp_path, "b.json", args)
        assert code1 == code2 == 0
        assert bytes1 == bytes2

    def test_different_seed_changes_only_noise_fields(self, tmp_path):
        base = [*FAST_SUITE, "--mode", "exact"]
        _, bytes1 = run_verify(tmp_path, "a.json", [*base, "--seed", "1"])
        _, bytes2 = run_verify(tmp_path, "b.json", [*base, "--seed", "2"])
        doc1, doc2 = json.loads(bytes1), json.loads(bytes2)
        # exact mode ignores sampling: statuses and residuals identical
        diffs = diff_reports(doc1, doc2)
        assert diffs == []

    def test_exact_vs_numeric_statuses_identical(self, tmp_path):
        _, b_exact = run_verify(
            tmp_path, "e.json", [*FAST_SUITE, "--suite", "qgamma", "--mode", "exact"]
        )
        _, b_num = run_verify(
            tmp_path, "n.json", [*FAST_SUITE, "--suite", "qgamma", "--mode", "numeric"]
        )
        doc_e, doc_n = json.loads(b_exact), json.loads(b_num)
        status_e = {c["check_id"]: c["status"] for c in doc_e["checks"]}
        status_n = {c["check_id"]: c["status"] for c in doc_n["checks"]}
        assert status_e == status_n


class TestExitCodes:
    def test_passing_suite_exits_zero(self, tmp_path):
        code, _ = run_verify(tmp_path, "ok.json", FAST_SUITE)
        assert code == 0

    def test_ch2_exact_json_all_axioms_pass(self, tmp_path):
        code, payload = run_verify(
            tmp_path, "ch2.json", ["--suite", "ch2", "--mode", "exact"]
        )
        assert code == 0
        doc = json.loads(payload)
        axioms = {
            c["check_id"]: c["status"]
            for c in doc["checks"]
            if c["check_id"].startswith("ch2.")
        }
        assert axioms["ch2.coassociativity_len4"] == "pass"
        assert axioms["ch2.counit_len4"] == "pass"
        assert axioms["ch2.antipode_len4"] == "pass"
        assert doc["summary"]["fail"] == 0

    def test_failing_fixture_exits_nonzero(self, tmp_path):
        code, payload = run_verify(tmp_path, "bad.json", ["--suite", "selfcheck"])
        assert code == 1
        doc = json.loads(payload)
        assert doc["summary"]["fail"] == 1

    def test_strict_mode_fails_on_target_mismatch(self, tmp_path):
        # the deformed-metric comparison mismatches under every convention
        code_loose, _ = run_verify(tmp_path, "l.json", ["--suite", "qgamma"])
        code_strict, _ = run_verify(
            tmp_path, "s.json", ["--suite", "qgamma", "--strict"]
        )
        assert code_loose == 0
        assert code_strict == 1

    def test_unknown_suite_is_a_config_error(self, capsys):
        code = main(["verify", "--suite", "nonsense"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err


class TestReportFile:
    def test_emitted_json_validates_against_schema(self, tmp_path):
        _, payload = run_verify(tmp_path, "r.json", FAST_SUITE)
        doc = json.loads(payload)
        validate_report(doc)
        assert doc["schema_version"] == "1"

    def test_checks_sorted_by_id(self, tmp_path):
        _, payload = run_verify(tmp_path, "r.json", [*FAST_SUITE, "--suite", "qgamma"])
        ids = [c["check_id"] for c in json.loads(payload)["checks"]]
        assert ids == sorted(ids)

    def test_no_timing_in_canonical_json(self, tmp_path):
        _, payload = run_verify(tmp_path, "r.json", FAST_SUITE)
        assert b"elapsed" not in payload

    def test_text_format_prints_summary(self, capsys):
        code = main(["verify", *FAST_SUITE, "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass," in out


class TestDiffCommand:
    def test_identical_files_diff_empty(self, tmp_path, capsys):
        _, _ = run_verify(tmp_path, "a.json", FAST_SUITE)
        code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "a.json")])
        assert code == 0
        assert "no differences" in capsys.readouterr().out

    def test_status_change_is_reported(self, tmp_path, capsys):
        run_verify(tmp_path, "a.json", FAST_SUITE)
        doc = load_report(str(tmp_path / "a.json"))
        doc["checks"][0]["status"] = "fail"
        doc["summary"]["fail"] += 1
        doc["summary"]["pass"] -= 1
        (tmp_path / "b.json").write_text(json.dumps(doc))
        code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 1
        assert "status" in capsys.readouterr().out

    def test_unparseable_file_is_an_error(self, tmp_path, capsys):
        (tmp_path / "junk.json").write_text("{nope")
        (tmp_path / "invalid.json").write_text('{"schema_version": "1"}')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
        run_verify(tmp_path, "a.json", FAST_SUITE)
        for bad in ("junk.json", "invalid.json", "binary.json"):
            code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / bad)])
            assert code == 2, bad
            assert "Traceback" not in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = clifford\nseed = 9\nmode = exact\n")
        out = tmp_path / "r.json"
        code = main(
            ["verify", "--config", str(cfg), "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 9
        assert doc["config"]["mode"] == "exact"
        assert doc["config"]["suites"] == ["clifford"]

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nmode = exact\nsuite = clifford\n")
        out = tmp_path / "r.json"
        code = main(
            [
                "verify",
                "--config",
                str(cfg),
                "--seed",
                "4",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["seed"] == 4

    def test_bad_q_range_rejected(self, capsys):
        code = main(["verify", *FAST_SUITE, "--q-range", "2:1"])
        assert code == 2
        # every q in these ranges lies in the sampler's exclusion window
        # around 1 or -1, so sampling could never finish
        for q_range in ("0.97:1.03", "0.96:1.04", "-1.03:-0.97"):
            code = main(["verify", *FAST_SUITE, f"--q-range={q_range}"])
            assert code == 2, q_range
            assert "no admissible samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["q_samples = abc", "seed = x", "convention = bogus", "format = xml"],
    )
    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = clifford\n{line}\n")
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestGoldenReport:
    # byte oracles for refactors: each file is the output of `qclifford verify
    # <suites> --mode exact --seed 7 --format json` and changes only with the report
    @pytest.mark.parametrize(
        "golden_name, suites",
        [
            ("hopf_exact_seed7.json", ["ch2", "chq2"]),
            ("matrix_exact_seed7.json", ["clifford", "qgamma", "fierz"]),
        ],
        ids=["hopf_exact_seed7.json", "matrix_exact_seed7.json"],
    )
    def test_hopf_exact_seed7_report_is_unchanged(self, tmp_path, golden_name, suites):
        golden = pathlib.Path(__file__).parent / "data" / golden_name
        args = [arg for s in suites for arg in ("--suite", s)]
        code, payload = run_verify(tmp_path, "r.json", [*args, "--mode", "exact", "--seed", "7"])
        assert code == 0
        assert payload == golden.read_bytes()


class TestRunContext:
    def test_exact_mode_draws_no_q_samples(self, monkeypatch):
        calls = []
        uniform = random.Random.uniform

        def counting_uniform(self, a, b):
            calls.append((a, b))
            return uniform(self, a, b)

        monkeypatch.setattr(random.Random, "uniform", counting_uniform)
        ctx = RunContext(mode="exact")
        assert calls == []
        assert ctx.q_values_field == []
        RunContext(mode="both")
        assert len(calls) >= 8

    def test_seeded_irreps_are_built_once_as_one_stream(self, monkeypatch):
        builds = []
        build = presentations.build_affine_irrep

        def counting_build(params):
            builds.append(params)
            return build(params)

        monkeypatch.setattr(presentations, "build_affine_irrep", counting_build)
        ctx = RunContext(mode="exact", seed=7)
        assert ctx.irreps is ctx.irreps
        assert len(builds) == len(ctx.irreps) == 20
        # checks that use five draws take a prefix of the same stream
        assert [p for p, _, _ in ctx.irreps[:5]] == [p for p, _, _ in _seeded_irreps(7, 5)]


class TestConventionFilter:
    def test_convention_flag_restricts_per_convention_checks(self, tmp_path):
        _, payload = run_verify(
            tmp_path,
            "c.json",
            ["--suite", "qgamma", "--convention", "row_sum", "--mode", "exact"],
        )
        doc = json.loads(payload)
        metric_checks = [
            c["check_id"]
            for c in doc["checks"]
            if c["check_id"].startswith("qgamma.deformed_metric.")
        ]
        assert metric_checks == ["qgamma.deformed_metric.row_sum"]
        assert doc["config"]["conventions"] == ["row_sum"]


class TestListChecks:
    def test_lists_every_registered_check(self, capsys):
        code = main(["list-checks"])
        out = capsys.readouterr().out
        assert code == 0
        for cdef in registry():
            assert cdef.check_id in out

    def test_check_ids_unique(self):
        ids = [c.check_id for c in registry()]
        assert len(ids) == len(set(ids))


def test_console_entry_point_runs_in_subprocess(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qclifford.cli",
            "verify",
            "--suite",
            "clifford",
            "--format",
            "json",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    validate_report(json.loads(out.read_text()))
