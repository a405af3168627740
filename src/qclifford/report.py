"""Check reports, deterministic serialization, and report diffing.

A report is a list of per-check records plus the configuration echo.
Serialization is canonical: keys sorted, arrays ordered by check id, and
every numeric quantity rendered as a decimal string, so identical
configuration and seed produce byte-identical files.  Wall-clock timing
is shown in the text rendering only; embedding it in the canonical JSON
would break byte determinism.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import jsonschema

SCHEMA_VERSION = "1"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_REPORT = "report"

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "config", "checks", "summary"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "string"},
        "config": {
            "type": "object",
            "required": [
                "suites",
                "mode",
                "q_samples",
                "q_range",
                "seed",
                "strict",
                "conventions",
            ],
            "additionalProperties": False,
            "properties": {
                "suites": {"type": "array", "items": {"type": "string"}},
                "mode": {"enum": ["exact", "numeric", "both"]},
                "q_samples": {"type": "integer", "minimum": 1},
                "q_range": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "seed": {"type": "integer"},
                "strict": {"type": "boolean"},
                "conventions": {"type": "array", "items": {"type": "string"}},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check_id", "status", "residual_max"],
                "additionalProperties": False,
                "properties": {
                    "check_id": {"type": "string"},
                    "status": {"enum": [STATUS_PASS, STATUS_FAIL, STATUS_REPORT]},
                    "residual_max": {"type": "string"},
                    "witness": {"type": ["string", "null"]},
                    "convention": {"type": ["string", "null"]},
                    "q_values": {"type": "array", "items": {"type": "string"}},
                    "mismatch": {"type": "boolean"},
                    "details": {"type": "object"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["pass", "fail", "report"],
            "additionalProperties": False,
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
                "report": {"type": "integer"},
            },
        },
    },
}


@dataclass
class CheckReport:
    """Outcome of a single named check."""

    check_id: str
    status: str
    residual_max: str = "0"
    witness: str | None = None
    convention: str | None = None
    q_values: list[str] = field(default_factory=list)
    mismatch: bool = False
    details: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "residual_max": self.residual_max,
            "witness": self.witness,
            "convention": self.convention,
            "q_values": list(self.q_values),
            "mismatch": self.mismatch,
            "details": self.details,
        }


def format_float(x: float) -> str:
    """Deterministic decimal rendering of a float."""
    return repr(float(x))


def _status_counts(reports: list[CheckReport]) -> dict[str, int]:
    """Number of reports per status, in pass, fail, report order."""
    return {
        s: sum(1 for r in reports if r.status == s)
        for s in (STATUS_PASS, STATUS_FAIL, STATUS_REPORT)
    }


def reports_to_json(config_dict: dict, reports: list[CheckReport]) -> str:
    reports = sorted(reports, key=lambda r: r.check_id)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config_dict,
        "checks": [r.to_json_dict() for r in reports],
        "summary": _status_counts(reports),
    }
    validate_report(doc)
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def validate_report(doc: dict) -> None:
    jsonschema.validate(doc, REPORT_SCHEMA)


def format_text(config_dict: dict, reports: list[CheckReport]) -> str:
    reports = sorted(reports, key=lambda r: r.check_id)
    lines = []
    lines.append(f"suites: {', '.join(config_dict['suites'])}")
    lines.append(
        f"mode={config_dict['mode']} seed={config_dict['seed']} "
        f"q_samples={config_dict['q_samples']} strict={config_dict['strict']}"
    )
    lines.append("")
    width = max((len(r.check_id) for r in reports), default=10)
    for r in reports:
        status = r.status.upper()
        extra = ""
        if r.convention:
            extra += f" convention={r.convention}"
        if r.mismatch:
            extra += " mismatch"
        lines.append(
            f"{status:6s} {r.check_id:<{width}s} residual={r.residual_max}{extra}"
            f" [{r.elapsed_ms} ms]"
        )
    lines.append("")
    lines.append(", ".join(f"{n} {s}" for s, n in _status_counts(reports).items()))
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ParseError(Exception):
    pass


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_report(doc)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ParseError(str(exc)) from exc
    except jsonschema.ValidationError as exc:
        raise ParseError(f"{path}: not a valid report: {exc.message}") from exc
    return doc


@dataclass
class ReportDiff:
    check_id: str
    kind: str  # status / residual / only_in_a / only_in_b
    a_value: str | None
    b_value: str | None


def diff_reports(doc_a: dict, doc_b: dict, tolerance: float = 0.0) -> list[ReportDiff]:
    """Checks whose status changed or residual moved beyond the tolerance."""
    a_checks = {c["check_id"]: c for c in doc_a["checks"]}
    b_checks = {c["check_id"]: c for c in doc_b["checks"]}
    out = []
    for cid in sorted(set(a_checks) | set(b_checks)):
        ca = a_checks.get(cid)
        cb = b_checks.get(cid)
        if ca is None:
            out.append(ReportDiff(cid, "only_in_b", None, cb["status"]))
            continue
        if cb is None:
            out.append(ReportDiff(cid, "only_in_a", ca["status"], None))
            continue
        if ca["status"] != cb["status"]:
            out.append(ReportDiff(cid, "status", ca["status"], cb["status"]))
            continue
        ra, rb = ca["residual_max"], cb["residual_max"]
        if ra != rb:
            try:
                drift = abs(float(ra) - float(rb))
            except ValueError:
                drift = float("inf")
            if drift > tolerance:
                out.append(ReportDiff(cid, "residual", ra, rb))
    return out
