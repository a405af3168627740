import json
import os
import pathlib
import random
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import env_importing_this_qclifford
from qclifford import fierz, presentations, qgamma
from qclifford import suites as suites_mod
from qclifford.cli import main
from qclifford.report import (
    REPORT_SCHEMA,
    ReportDiff,
    SchemaError,
    diff_reports,
    format_float,
    load_report,
    validate_report,
    write_atomic,
)
from qclifford.suites import REFERENCE_SAMPLES, RunContext, _seeded_irreps, registry

FAST_SUITE = ["--suite", "clifford"]


@pytest.fixture
def no_checks(monkeypatch):
    """Fail the test if any check runs."""

    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suites_mod, "run_checks", refuse)


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


    def test_out_naming_a_directory_is_refused_before_any_check(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(suites_mod, "run_checks", lambda *args: ran.append(args))
        target = tmp_path / "sub"
        target.mkdir()
        code = main(["verify", *FAST_SUITE, "--format", "json", "--out", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
        assert list(target.iterdir()) == []

    def test_out_in_a_missing_directory_is_refused_before_any_check(self, tmp_path, capsys, no_checks):
        target = tmp_path / "missing" / "x.json"
        code = main(["verify", *FAST_SUITE, "--format", "json", "--out", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_report_file_mode_follows_the_umask(self, tmp_path, umask):
        out = tmp_path / "r.json"
        old = os.umask(umask)
        try:
            write_atomic(str(out), "{}\n")
            created = out.stat().st_mode & 0o777
            out.chmod(0o600)
            write_atomic(str(out), "{}\n")
            overwritten = out.stat().st_mode & 0o777
        finally:
            os.umask(old)
        assert created == overwritten == 0o666 & ~umask

    @pytest.mark.parametrize("target_exists", [True, False], ids=["target", "dangling"])
    def test_out_through_a_symlink_writes_its_target(self, tmp_path, target_exists):
        _, expected = run_verify(tmp_path, "plain.json", FAST_SUITE)
        (tmp_path / "sub").mkdir()
        target = tmp_path / "sub" / "real.json"
        if target_exists:
            target.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("sub", "real.json"))
        code, payload = run_verify(tmp_path, "link.json", FAST_SUITE)
        assert code == 0 and payload == expected
        assert link.is_symlink() and target.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.json", "plain.json", "real.json", "sub"]

    def test_out_onto_a_fifo_writes_into_it(self, tmp_path):
        _, expected = run_verify(tmp_path, "plain.json", FAST_SUITE)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a reader is open, so the writer's open does not block; the report
        # is far smaller than the pipe buffer, so neither does its write
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = main(["verify", *FAST_SUITE, "--format", "json", "--out", str(fifo)])
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "plain.json"]


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

    def test_mismatch_flip_is_reported(self, tmp_path, capsys):
        run_verify(tmp_path, "a.json", FAST_SUITE)
        doc = load_report(str(tmp_path / "a.json"))
        doc["checks"][0]["mismatch"] = not doc["checks"][0]["mismatch"]
        (tmp_path / "b.json").write_text(json.dumps(doc))
        code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 1
        assert f"{doc['checks'][0]['check_id']}: mismatch" in capsys.readouterr().out

    def test_bad_tolerance_is_an_error(self, tmp_path, capsys):
        run_verify(tmp_path, "a.json", FAST_SUITE)
        doc = load_report(str(tmp_path / "a.json"))
        doc["checks"][0]["residual_max"] = "12.5"
        (tmp_path / "b.json").write_text(json.dumps(doc))
        files = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for tolerance in ("nan", "-1"):
            code = main(["diff", *files, f"--tolerance={tolerance}"])
            assert code == 2, tolerance
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "old, new, tolerance, reported",
        [
            ("0", "1e-13", 1e-12, False),
            ("0", "1e-09", 1e-12, True),
            ("0", "zero", 1e-12, True),
            ("0", "nan", 1e-12, True),
            ("nan", "0", 1e-12, True),
            ("nan", "NaN", 1e-12, True),
            ("0", "inf", float("inf"), True),
            ("inf", "Infinity", 1e-12, True),
        ],
    )
    def test_residual_move_is_reported_beyond_the_tolerance(self, old, new, tolerance, reported):
        golden = pathlib.Path(__file__).parent / "data" / "both_q32_seed7.json"
        doc_a, doc_b = json.loads(golden.read_text()), json.loads(golden.read_text())
        doc_a["checks"][0]["residual_max"] = old
        doc_b["checks"][0]["residual_max"] = new
        cid = doc_a["checks"][0]["check_id"]
        expected = [ReportDiff(cid, "residual", old, new)] if reported else []
        assert diff_reports(doc_a, doc_b, tolerance) == expected

    def test_changed_fields_are_reported_by_kind(self, tmp_path, capsys):
        golden = pathlib.Path(__file__).parent / "data" / "both_q32_seed7.json"
        doc = json.loads(golden.read_text())
        checks = {c["check_id"]: c for c in doc["checks"]}
        checks["fierz.linear_relations"]["witness"] = "changed"
        checks["fierz.linear_relations"]["details"] = {"replaced": True}
        col_sum = checks["qgamma.deformed_metric.col_sum"]
        col_sum["q_values"] = col_sum["q_values"][:4]
        checks["qgamma.deformed_metric.row_sum"]["convention"] = "col_sum"
        (tmp_path / "b.json").write_text(json.dumps(doc))
        code = main(["diff", str(golden), str(tmp_path / "b.json")])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert {tuple(line.split(" ")[:2]) for line in lines} == {
            ("fierz.linear_relations:", "witness"),
            ("fierz.linear_relations:", "details"),
            ("qgamma.deformed_metric.col_sum:", "q_values"),
            ("qgamma.deformed_metric.row_sum:", "convention"),
        }
        assert len(lines) == 4

    def test_unparseable_file_is_an_error(self, tmp_path, capsys):
        (tmp_path / "junk.json").write_text("{nope")
        (tmp_path / "invalid.json").write_text('{"schema_version": "1"}')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
        run_verify(tmp_path, "a.json", FAST_SUITE)
        for bad in ("junk.json", "invalid.json", "binary.json"):
            code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / bad)])
            assert code == 2, bad
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [0, 100000])
    def test_malformed_file_exits_2_with_one_error_line_naming_it(self, tmp_path, capsys, depth):
        # an empty file, or brackets nested past the JSON decoder's recursion limit
        bad = tmp_path / "bad.json"
        bad.write_text("[" * depth + "]" * depth)
        code = main(["diff", str(bad), str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


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
        # every q in the first two ranges lies in the sampler's exclusion
        # window around 1, so sampling could never finish; the third lies in
        # q < 0; a nan bound hung the sampler too, and an infinite one
        # reached numpy
        for q_range, message in (
            ("0.97:1.03", "no admissible samples"),
            ("0.96:1.04", "no admissible samples"),
            ("-1.03:-0.97", "q > 0"),
            ("nan:2", "finite bounds"),
            ("0.5:inf", "finite bounds"),
            ("-inf:-0.5", "finite bounds"),
        ):
            code = main(["verify", *FAST_SUITE, f"--q-range={q_range}"])
            assert code == 2, q_range
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("q_range", ["-2:-0.5", "-0.5:2", "0:2"])
    def test_non_positive_q_range_is_refused_before_any_check(self, capsys, no_checks, q_range):
        # exact values agree with principal-branch numerics only for q > 0:
        # at q = -1.5, q^(-1/2) sqrt(1 + q^2) is -1.472i where the principal
        # sqrt(q + 1/q) is +1.472i, so a negative range failed oracle checks
        code = main(["verify", "--suite", "fierz", f"--q-range={q_range}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "q > 0" in err

    def test_q_range_that_overflows_float_evaluation_exits_2_without_traceback(self):
        # q^k at q = 1e150 overflows complex exponentiation in the numeric backend
        proc = subprocess.run(
            [
                sys.executable, "-m", "qclifford.cli", "verify", "--suite", "qgamma",
                "--q-range", "1e150:1e151", "--q-samples", "3",
            ],
            capture_output=True,
            text=True,
            env=env_importing_this_qclifford(),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "1e150:1e151" in proc.stderr

    @pytest.mark.parametrize(
        "q_range, code",
        [
            # an admissible sliver of 2e-9 hung the rejection sampler, and one
            # of 1e-7 took seconds for eight samples
            ("0.95:1.050000002", 2),
            ("0.95:1.0500001", 2),
            # a range far from every exclusion is admissible however short
            ("0.5:0.5000000005", 0),
        ],
    )
    def test_q_range_is_judged_by_its_admissible_share(self, q_range, code):
        proc = subprocess.run(
            [sys.executable, "-m", "qclifford.cli", "verify", "--suite", "clifford",
             "--q-range", q_range],
            capture_output=True,
            text=True,
            env=env_importing_this_qclifford(),
            timeout=2 if code == 2 else 60,
        )
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert "too few admissible samples" in proc.stderr

    @pytest.mark.parametrize("source", ["argv", "config"])
    def test_q_samples_above_the_cap_exit_2_without_drawing(self, tmp_path, source):
        # the sampler draws every sample up front: an uncapped count grows
        # memory without bound, so this runs in a child with a timeout
        too_many = str(suites_mod.MAX_Q_SAMPLES + 1)
        if source == "argv":
            extra = ["--q-samples", too_many]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"q_samples = {too_many}\n")
            extra = ["--config", str(cfg)]
        proc = subprocess.run(
            [sys.executable, "-m", "qclifford.cli", "verify", "--suite", "clifford", *extra],
            capture_output=True,
            text=True,
            env=env_importing_this_qclifford(),
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert too_many in proc.stderr

    @pytest.mark.parametrize(
        "line",
        [
            "q_samples = abc",
            "seed = x",
            "convention = bogus",
            "format = xml",
            "sead = 3",
            "strict = ture",
        ],
    )
    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = clifford\n{line}\n")
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, no_checks):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 7\n\xff\xfe = 1\n")
        code = main(["verify", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestGoldenReport:
    # byte oracles for refactors: each file is the output of `qclifford verify
    # <args> --format json` and changes only with the report; the two `both`
    # rows also pin the sampled float residuals
    GOLDENS = {
        "hopf_exact_seed7.json": ["--suite", "ch2", "--suite", "chq2", "--mode", "exact"],
        "matrix_exact_seed7.json": [
            "--suite", "clifford", "--suite", "qgamma", "--suite", "fierz", "--mode", "exact",
        ],
        "both_q32_seed7.json": [
            "--suite", "qgamma", "--suite", "fierz", "--mode", "both", "--q-samples", "32",
        ],
        # chq2's numeric cross-checks at the q samples of perfbench's matrix-both
        "chq2_both_q32_seed7.json": ["--suite", "chq2", "--mode", "both", "--q-samples", "32"],
        # the only golden that holds glq2
        "all_exact_seed7.json": ["--suite", "all", "--mode", "exact"],
    }

    @pytest.mark.parametrize("golden_name", list(GOLDENS))
    def test_report_matches_golden(self, tmp_path, golden_name):
        golden = pathlib.Path(__file__).parent / "data" / golden_name
        args = self.GOLDENS[golden_name]
        code, payload = run_verify(tmp_path, "r.json", [*args, "--seed", "7"])
        assert code == 0
        assert payload == golden.read_bytes()

    def test_hopf_report_does_not_depend_on_check_order(self, tmp_path):
        # the Hopf premise rows and tensor powers are shared for the life of
        # the process, so which check pays for them depends on the order the
        # checks run in; the verdicts and witnesses must not
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-c", _REVERSED_HOPF_RUN, str(out)],
            capture_output=True,
            text=True,
            env=env_importing_this_qclifford(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["exit"] == 0
        assert len(result["ran"]) > 1 and result["ran"] == sorted(result["ran"], reverse=True)
        golden = pathlib.Path(__file__).parent / "data" / "hopf_exact_seed7.json"
        assert out.read_bytes() == golden.read_bytes()


# Runs the hopf golden's command in a fresh process with the check registry
# reversed, and prints the exit code and the ids in the order they ran.
_REVERSED_HOPF_RUN = """
import contextlib, dataclasses, io, json, sys
from qclifford import suites
from qclifford.cli import main

forward = suites.registry
ran = []

def recorded(check):
    def fn(ctx):
        ran.append(check.check_id)
        return check.fn(ctx)
    return dataclasses.replace(check, fn=fn)

suites.registry = lambda: [recorded(c) for c in reversed(forward())]
argv = ["verify", "--suite", "ch2", "--suite", "chq2", "--mode", "exact", "--seed", "7"]
with contextlib.redirect_stdout(io.StringIO()):
    code = main([*argv, "--format", "json", "--out", sys.argv[1]])
print(json.dumps({"exit": code, "ran": ran}))
"""


def _edit(path, value=None, delete=False):
    """A mutant maker: set (or delete) the entry at ``path`` of a report."""

    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if delete:
            del doc[last]
        else:
            doc[last] = value

    return mutate


class TestReportSchema:
    HOPF_GOLDEN = pathlib.Path(__file__).parent / "data" / "hopf_exact_seed7.json"
    # one mutant of the hopf golden per keyword and level, with the verdict
    # JSON Schema gives it
    MUTANTS = {
        "config_missing_seed": (_edit(["config", "seed"], delete=True), False),
        "check_missing_residual": (_edit(["checks", 0, "residual_max"], delete=True), False),
        "summary_missing_report": (_edit(["summary", "report"], delete=True), False),
        "config_extra_key": (_edit(["config", "extra"], 1), False),
        "check_extra_key": (_edit(["checks", 0, "extra"], 1), False),
        "summary_extra_key": (_edit(["summary", "extra"], 1), False),
        "top_level_extra_key": (_edit(["extra"], 1), False),
        "seed_string": (_edit(["config", "seed"], "7"), False),
        "seed_true": (_edit(["config", "seed"], True), False),
        "seed_integral_float": (_edit(["config", "seed"], 7.0), True),
        "seed_fractional_float": (_edit(["config", "seed"], 7.5), False),
        "strict_one": (_edit(["config", "strict"], 1), False),
        "witness_number": (_edit(["checks", 0, "witness"], 3), False),
        "witness_string": (_edit(["checks", 0, "witness"], "w"), True),
        "status_ok": (_edit(["checks", 0, "status"], "ok"), False),
        "mode_fast": (_edit(["config", "mode"], "fast"), False),
        "q_samples_zero": (_edit(["config", "q_samples"], 0), False),
        "q_samples_one_as_float": (_edit(["config", "q_samples"], 1.0), True),
        "q_range_one_item": (_edit(["config", "q_range"], ["0.5"]), False),
        "q_range_three_items": (_edit(["config", "q_range"], ["0.5", "1.0", "2.0"]), False),
        "q_range_item_number": (_edit(["config", "q_range", 0], 0.5), False),
        "checks_object": (_edit(["checks"], {}), False),
        "checks_empty": (_edit(["checks"], []), True),
        "details_list": (_edit(["checks", 0, "details"], []), False),
        "top_level_empty": (lambda doc: doc.clear(), False),
    }

    @staticmethod
    def _accepts(validate, rejection, doc) -> bool:
        try:
            validate(doc)
        except rejection:
            return False
        return True

    def _mutant(self, name):
        doc = json.loads(self.HOPF_GOLDEN.read_text())
        mutate, accepted = self.MUTANTS[name]
        mutate(doc)
        return doc, accepted

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_verdict_matches_jsonschema_on_each_mutant(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        doc, accepted = self._mutant(name)
        oracle = self._accepts(
            lambda d: jsonschema.validate(d, REPORT_SCHEMA), jsonschema.ValidationError, doc
        )
        assert self._accepts(validate_report, SchemaError, doc) == oracle == accepted

    @pytest.mark.parametrize("golden_name", list(TestGoldenReport.GOLDENS))
    def test_goldens_are_accepted_like_jsonschema(self, golden_name):
        jsonschema = pytest.importorskip("jsonschema")
        doc = json.loads((pathlib.Path(__file__).parent / "data" / golden_name).read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        validate_report(doc)

    @pytest.mark.parametrize("name", sorted(n for n, (_, ok) in MUTANTS.items() if not ok))
    def test_diff_of_a_rejected_mutant_exits_2_with_one_error_line(self, tmp_path, capsys, name):
        doc, _ = self._mutant(name)
        mutant = tmp_path / "mutant.json"
        mutant.write_text(json.dumps(doc))
        code = main(["diff", str(self.HOPF_GOLDEN), str(mutant)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mutant}: not a valid report: $") and err.count("\n") == 1

    def test_schema_uses_only_the_keywords_the_validator_reads(self):
        # validate_report reads exactly these; a schema that adds another
        # keyword needs the validator taught it first
        supported = {
            "type", "required", "properties", "additionalProperties", "items",
            "enum", "minimum", "minItems", "maxItems",
        }
        used = set()
        stack = [REPORT_SCHEMA]
        while stack:
            schema = stack.pop()
            used |= set(schema)
            stack.extend(schema.get("properties", {}).values())
            stack.extend([schema["items"]] if "items" in schema else [])
            assert schema.get("additionalProperties", False) is False
        assert used == supported


# points on either side of the edges of the two windows the q sampler
# excludes, |q - 1| < 0.05 and |q| < 1e-6, at distances from 1e-12 to 0.1, so
# a range of two of them may lie inside a window, overlap one or straddle both
_NEAR_EXCLUSION_EDGES = st.builds(
    lambda edge, sign, exponent: edge + sign * 10.0**exponent,
    st.sampled_from([-1e-6, 1e-6, 0.95, 1.05]),
    st.sampled_from([-1, 0, 1]),
    st.floats(-12, -1),
)


def _exact_admissible_share(lo: float, hi: float) -> Fraction:
    """Share of [lo, hi] outside both windows, in exact rational arithmetic."""
    lo, hi = Fraction(lo), Fraction(hi)
    windows = [(Fraction(95, 100), Fraction(105, 100)), (Fraction(-1, 10**6), Fraction(1, 10**6))]
    covered = sum(max(Fraction(0), min(hi, b) - max(lo, a)) for a, b in windows)
    return 1 - covered / (hi - lo)


class TestRunContext:
    def test_sample_count_is_capped(self):
        cap = suites_mod.MAX_Q_SAMPLES
        assert len(RunContext(q_samples=cap).samples) == cap
        for count in (0, cap + 1):
            with pytest.raises(ValueError, match="q_samples"):
                RunContext(q_samples=count)

    @settings(max_examples=200, deadline=None)
    @given(lo=_NEAR_EXCLUSION_EDGES, hi=_NEAR_EXCLUSION_EDGES)
    @example(lo=0.95, hi=0.9500000000000001)
    def test_a_range_is_accepted_only_with_enough_admissible_share(self, lo, hi):
        assume(lo < hi)
        share = _exact_admissible_share(lo, hi)
        # float and exact arithmetic may disagree right at the threshold
        assume(abs(share - suites_mod.MIN_ADMISSIBLE_SHARE) > 1e-9)
        if share >= suites_mod.MIN_ADMISSIBLE_SHARE:
            samples = RunContext(q_range=(lo, hi)).samples
            assert len(samples) == 8
            assert all(lo <= x <= hi and abs(x - 1) >= 0.05 and abs(x) >= 1e-6 for x in samples)
        else:
            with pytest.raises(ValueError, match="admissible samples"):
                RunContext(q_range=(lo, hi))

    def test_numeric_irreps_draw_q_by_the_samplers_rule(self):
        # each irrep's q lies in the user's range and outside every window
        qs = [params[3] for params, _ in RunContext(q_range=(0.9, 1.0), seed=7).numeric_irreps]
        assert len(qs) == 20
        assert all(0.9 <= q <= 1.0 and abs(q - 1) >= 0.05 and abs(q) >= 1e-6 for q in qs), qs

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

    def test_each_deformed_metric_is_built_once(self, monkeypatch):
        # the per-convention checks and the blade oracle share one build
        calls = []
        build = qgamma.deformed_metric

        def counting_build(gs, conv):
            calls.append(conv)
            return build(gs, conv)

        monkeypatch.setattr(qgamma, "deformed_metric", counting_build)
        suites_mod.run_checks(["qgamma"], RunContext(mode="exact"))
        assert sorted(calls) == sorted(qgamma.ALL_CONVENTIONS)
        calls.clear()
        row_sum = (qgamma.ActionConvention.ROW_SUM,)
        suites_mod.run_checks(["qgamma"], RunContext(mode="exact", conventions=row_sum))
        assert calls == list(row_sum)

    def test_linear_relation_residuals_are_built_once(self, monkeypatch):
        # fierz.linear_relations and its float oracle share one computation
        calls = []
        build = fierz.linear_relation_residuals

        def counting_build(gs):
            calls.append(gs)
            return build(gs)

        monkeypatch.setattr(fierz, "linear_relation_residuals", counting_build)
        ctx = RunContext(mode="exact")
        reports = suites_mod.run_checks(["fierz"], ctx)
        ids = {r.check_id for r in reports}
        assert {"fierz.linear_relations", "fierz.linear_relations_oracle"} <= ids
        assert calls == [ctx.gammas]

    def test_oracle_checks_name_the_reference_points_they_fell_back_to(self, tmp_path):
        # with fewer than five samples the oracles evaluate at REFERENCE_SAMPLES
        args = ["--suite", "qgamma", "--suite", "fierz", "--q-samples", "3"]
        _, payload = run_verify(tmp_path, "o.json", args)
        q_values = {c["check_id"]: c["q_values"] for c in json.loads(payload)["checks"]}
        reference = [format_float(x) for x in REFERENCE_SAMPLES]
        for check_id in (
            "qgamma.deformed_metric_oracle",
            "qgamma.bare_relation_solve",
            "fierz.linear_relations_oracle",
        ):
            assert q_values[check_id] == reference, check_id
        assert len(q_values["qgamma.bare_relation_flip"]) == 3


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

    def test_repeated_convention_gives_the_bytes_of_a_single_one(self, tmp_path):
        base = ["--suite", "qgamma", "--mode", "exact", "--q-samples", "3"]
        _, single = run_verify(tmp_path, "one.json", [*base, "--convention", "row_sum"])
        _, repeated = run_verify(
            tmp_path, "two.json", [*base, "--convention", "row_sum", "--convention", "row_sum"]
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text("convention = row_sum, row_sum\n")
        _, from_file = run_verify(tmp_path, "cfg.json", [*base, "--config", str(cfg)])
        assert json.loads(single)["config"]["conventions"] == ["row_sum"]
        assert repeated == single
        assert from_file == single


class TestListChecks:
    def test_lists_every_registered_check(self, capsys):
        code = main(["list-checks"])
        out = capsys.readouterr().out
        assert code == 0
        for cdef in registry():
            assert cdef.check_id in out

    def test_claims_index_matches_the_committed_listing(self, capsys):
        # ids, suites and descriptions are pinned byte for byte
        golden = pathlib.Path(__file__).parent / "data" / "list_checks.txt"
        assert main(["list-checks"]) == 0
        assert capsys.readouterr().out.encode() == golden.read_bytes()

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
        env=env_importing_this_qclifford(),
    )
    assert proc.returncode == 0, proc.stderr
    validate_report(json.loads(out.read_text()))


def test_importing_the_cli_does_not_load_jsonschema():
    # the package checks reports itself; importing jsonschema would add
    # ~0.1 s to every start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qclifford.cli; print('jsonschema' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env_importing_this_qclifford(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_runtime_never_imports_numpy(tmp_path):
    # numpy is a test oracle only: with it blocked, import fails loudly, and
    # every command must still run and exit 0
    golden = pathlib.Path(__file__).parent / "data" / "hopf_exact_seed7.json"
    copy = tmp_path / "copy.json"
    copy.write_bytes(golden.read_bytes())
    verify = [
        "verify", "--suite", "clifford", "--suite", "qgamma", "--suite", "chq2",
        "--suite", "fierz", "--mode", "both", "--q-samples", "5",
        "--format", "json", "--out", str(tmp_path / "r.json"),
    ]
    script = "\n".join(
        [
            "import sys",
            "import qclifford.cli",
            "print('numpy' in sys.modules)",
            "sys.modules['numpy'] = None",
            f"print([qclifford.cli.main(a) for a in {[verify, ['list-checks'], ['diff', str(golden), str(copy)]]!r}])",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env_importing_this_qclifford(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]", proc.stdout[-2000:]


# Run in a child process: numpy's import raises ImportError, as it does where
# numpy is not installed (a ``None`` entry in sys.modules would instead break
# sympy, which probes for numpy).  The whole suite is collected, then only the
# tests that take the ``np`` fixture run.
_WITHOUT_NUMPY = r'''
import importlib.abc
import json
import sys


class BlockNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, BlockNumpy())
import pytest


class Probe:
    def __init__(self):
        self.modules = {"passed": [], "skipped": [], "failed": []}
        self.outcomes = {}

    def pytest_collectreport(self, report):
        if report.nodeid.endswith(".py"):
            self.modules[report.outcome].append(report.nodeid)

    def pytest_collection_modifyitems(self, config, items):
        config.hook.pytest_deselected(items=[i for i in items if "np" not in i.fixturenames])
        items[:] = [i for i in items if "np" in i.fixturenames]

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            reason = report.longrepr[2] if report.skipped else ""
            self.outcomes[report.nodeid] = [report.outcome, reason]


probe = Probe()
code = pytest.main([sys.argv[1], "-q", "-p", "no:cacheprovider"], plugins=[probe])
print(json.dumps({"code": int(code), "modules": probe.modules, "outcomes": probe.outcomes}))
'''


def test_tier1_runs_without_numpy():
    # numpy is an optional oracle: without it every test module still
    # collects, and only the numpy-oracle tests skip
    tests = pathlib.Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tests)],
        capture_output=True,
        text=True,
        cwd=tests.parent,
        env=env_importing_this_qclifford(),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    modules = {p.name for p in tests.glob("test_*.py")}
    assert result["modules"]["failed"] == []
    assert [pathlib.Path(m).name for m in result["modules"]["skipped"]] == ["test_numeric_oracle.py"]
    assert {pathlib.Path(m).name for m in result["modules"]["passed"]} == modules - {
        "test_numeric_oracle.py"
    }
    outcomes = result["outcomes"]
    assert {nodeid.split("::")[0].split("/")[-1] for nodeid in outcomes} >= {
        "test_acceptance.py", "test_fierz.py", "test_linalg.py",
        "test_presentations.py", "test_qgamma.py",
    }
    for nodeid, (outcome, reason) in outcomes.items():
        assert outcome == "skipped" and "numpy" in reason, nodeid
