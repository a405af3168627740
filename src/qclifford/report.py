"""Check reports, deterministic serialization, and report diffing.

A report is a list of per-check records plus the configuration echo.
Serialization is canonical: keys sorted, arrays ordered by check id, and
every numeric quantity rendered as a decimal string, so identical
configuration and seed produce byte-identical files.  Wall-clock timing
is shown in the text rendering only; embedding it in the canonical JSON
would break byte determinism.

``REPORT_SCHEMA`` is the one definition of the format.  It is written in
JSON Schema and read by the module's own validator, ``validate_report``,
which knows exactly the keywords the schema uses, with JSON Schema's
meaning for each.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

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


class SchemaError(Exception):
    """A document that does not match ``REPORT_SCHEMA``; the message reads
    ``WHERE: WHY``, with WHERE the path of the offending value (``$.config.seed``)."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema's type names; an integral float counts as an integer, a bool
# as no number
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _check(value, schema: dict, where: str) -> None:
    """Raise ``SchemaError`` at the first keyword of ``schema`` that ``value``
    violates.  As in JSON Schema, a keyword about one type ignores values of
    the others."""
    names = schema.get("type", ())
    names = [names] if isinstance(names, str) else names
    if names and not any(_IS_TYPE[n](value) for n in names):
        raise SchemaError(f"{where}: {value!r} is not of type {' or '.join(names)}")
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{where}: {value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        raise SchemaError(f"{where}: {value!r} is less than the minimum {schema['minimum']!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(f"{where}: {key!r} is a required property")
        if schema.get("additionalProperties", True) is False:
            extra = sorted(k for k in value if k not in properties)
            if extra:
                raise SchemaError(f"{where}: unexpected properties {extra!r}")
        for key, sub in properties.items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise SchemaError(f"{where}: {len(value)} items, fewer than {schema['minItems']}")
        if len(value) > schema.get("maxItems", len(value)):
            raise SchemaError(f"{where}: {len(value)} items, more than {schema['maxItems']}")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], f"{where}[{i}]")


def validate_report(doc: dict) -> None:
    _check(doc, REPORT_SCHEMA, "$")


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
    """Write ``text`` to ``path`` through a renamed temp file.

    A symlink is followed, so the link survives and its target gets the
    report.  A path that exists but is no regular file (a FIFO, a device,
    ``/dev/stdout``) cannot be renamed over and is written in place.
    ``mkstemp`` creates the temp file with mode 0600, which the rename would
    keep; the report gets the mode a plain ``open`` would give it instead.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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
    except OSError as exc:  # the message names the path
        raise ParseError(str(exc)) from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply to read") from exc
    except SchemaError as exc:
        raise ParseError(f"{path}: not a valid report: {exc}") from exc
    return doc


@dataclass
class ReportDiff:
    check_id: str
    kind: str  # status / a field of _COMPARED / residual / only_in_a / only_in_b
    a_value: object
    b_value: object


# check fields compared for equality, each its own diff kind, with the value
# a hand-written report that omits the field stands for
_COMPARED = {"mismatch": False, "witness": None, "convention": None, "q_values": [], "details": {}}


def diff_reports(doc_a: dict, doc_b: dict, tolerance: float = 0.0) -> list[ReportDiff]:
    """Checks whose status or any field of ``_COMPARED`` changed, or whose
    residual moved beyond the tolerance (an infinite or NaN residual moves
    whenever its string changes)."""
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
        for kind, default in _COMPARED.items():
            va, vb = ca.get(kind, default), cb.get(kind, default)
            if va != vb:
                out.append(ReportDiff(cid, kind, va, vb))
        ra, rb = ca["residual_max"], cb["residual_max"]
        if ra != rb and not _residual_close(ra, rb, tolerance):
            out.append(ReportDiff(cid, "residual", ra, rb))
    return out


def _residual_close(ra: str, rb: str, tolerance: float) -> bool:
    """Whether two different residual strings are finite numbers at most
    ``tolerance`` apart; a non-finite one agrees only with itself."""
    try:
        a, b = float(ra), float(rb)
    except ValueError:
        return False
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tolerance
