"""Compare two canonical JSON reports field by field, independently of qclifford.

Usage::

    python scripts/compare_reports.py OLD.json NEW.json

Both reports must hold the same config, schema version, summary and check
ids, and every check field must be equal except ``residual_max``, which may
move by at most 1e-12 relative or 1e-12 absolute (a refactor that changes
only the order of floating-point sums moves the last bits, nothing else); an
infinite or NaN residual agrees only with the identical string.
Prints one line per moved residual and a summary line; exits 0 when the
reports agree and 1 otherwise.  A file that cannot be read, is not JSON or
holds no list of checks exits 2 with one ``error:`` line on stderr.  It reads
the files with ``json`` alone, so it shares no code with ``qclifford diff``.
"""

from __future__ import annotations

import json
import math
import sys

REL_TOL = 1e-12
ABS_TOL = 1e-12


def _residual_close(old: str, new: str) -> bool:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):  # not a number: only equal strings agree
        return False
    if not (math.isfinite(a) and math.isfinite(b)):  # inf or nan: only equal strings agree
        return False
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def compare(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """(problems, notes): problems break agreement, notes list moved residuals."""
    problems, notes = [], []
    for field in ("schema_version", "config", "summary"):
        if old.get(field) != new.get(field):
            problems.append(f"{field}: {old.get(field)!r} != {new.get(field)!r}")
    old_checks = {c["check_id"]: c for c in old["checks"]}
    new_checks = {c["check_id"]: c for c in new["checks"]}
    if list(old_checks) != list(new_checks):
        problems.append(f"check ids differ: {sorted(set(old_checks) ^ set(new_checks))}")
    for cid in old_checks.keys() & new_checks.keys():
        a, b = old_checks[cid], new_checks[cid]
        for field in sorted(a.keys() | b.keys()):
            if field == "residual_max" or a.get(field) == b.get(field):
                continue
            problems.append(f"{cid}: {field} {a.get(field)!r} != {b.get(field)!r}")
        ra, rb = a["residual_max"], b["residual_max"]
        if ra != rb:
            line = f"{cid}: residual_max {ra} -> {rb}"
            (notes if _residual_close(ra, rb) else problems).append(line)
    return problems, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        checks = doc.get("checks") if isinstance(doc, dict) else None
        if not isinstance(checks, list) or not all(
            isinstance(c, dict) and "check_id" in c and "residual_max" in c for c in checks
        ):
            print(f"error: {path}: not a report (no list of checks with ids and residuals)",
                  file=sys.stderr)
            return 2
        docs.append(doc)
    problems, notes = compare(*docs)
    for line in notes:
        print(f"  moved within tolerance: {line}")
    for line in problems:
        print(f"  DIFFERENT: {line}")
    verdict = "agree" if not problems else "DISAGREE"
    print(f"{argv[0]} vs {argv[1]}: {len(docs[0]['checks'])} checks, "
          f"{len(notes)} residuals moved within tolerance, {len(problems)} differences: {verdict}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
