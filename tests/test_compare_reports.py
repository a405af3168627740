"""The standalone report comparison script, run as a subprocess."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_reports.py"
GOLDEN = ROOT / "tests" / "data" / "both_q32_seed7.json"


def compare(old, new):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )


def edited(tmp_path, edit, name="new.json"):
    """A copy of the golden report with ``edit`` applied to its checks by id."""
    doc = json.loads(GOLDEN.read_text())
    edit({c["check_id"]: c for c in doc["checks"]})
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def set_field(check_id, field, value):
    def edit(checks):
        checks[check_id][field] = value

    return edit


def test_equal_reports_agree():
    proc = compare(GOLDEN, GOLDEN)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1].endswith("0 differences: agree")


def test_residual_moved_within_tolerance_is_listed_and_agrees(tmp_path):
    new = edited(tmp_path, set_field("qgamma.transcription", "residual_max", "1e-13"))
    proc = compare(GOLDEN, new)
    assert proc.returncode == 0, proc.stdout
    assert "moved within tolerance: qgamma.transcription: residual_max 0 -> 1e-13" in proc.stdout


def test_residual_moved_beyond_tolerance_disagrees(tmp_path):
    # an infinite or NaN residual agrees only with the identical string
    for ra, rb in [("0", "1e-09"), ("0", "inf"), ("1", "inf"), ("0", "nan"), ("nan", "0"), ("inf", "Infinity")]:
        old = edited(tmp_path, set_field("qgamma.transcription", "residual_max", ra), "old.json")
        new = edited(tmp_path, set_field("qgamma.transcription", "residual_max", rb))
        proc = compare(old, new)
        assert proc.returncode == 1, (ra, rb)
        assert f"DIFFERENT: qgamma.transcription: residual_max {ra} -> {rb}" in proc.stdout


def test_non_numeric_residual_disagrees(tmp_path):
    new = edited(tmp_path, set_field("qgamma.transcription", "residual_max", "zero"))
    proc = compare(GOLDEN, new)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "DIFFERENT: qgamma.transcription: residual_max 0 -> zero" in proc.stdout


def test_changed_witness_disagrees(tmp_path):
    new = edited(tmp_path, set_field("fierz.linear_relations", "witness", "changed"))
    proc = compare(GOLDEN, new)
    assert proc.returncode == 1
    assert "DIFFERENT: fierz.linear_relations: witness" in proc.stdout


@pytest.mark.parametrize(
    "content",
    [None, b"{nope", b"\xff\xfe{", b'{"schema_version": "1"}', b"[]", b'{"checks": [{}]}'],
    ids=["missing", "not_json", "not_utf8", "no_checks", "not_an_object", "check_without_id"],
)
def test_unreadable_input_is_an_error(tmp_path, content):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    for old, new in ((bad, GOLDEN), (GOLDEN, bad)):
        proc = compare(old, new)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {bad}") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""
