"""Command-line front end: run suites, diff reports, list checks."""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import report as report_mod
from . import suites as suites_mod
from .qgamma import ActionConvention


class ConfigError(Exception):
    pass


_FORMATS = ("text", "json")
_CONVENTION_VALUES = tuple(c.value for c in ActionConvention)
_CONFIG_KEYS = (
    "suite", "mode", "q_samples", "q_range", "seed", "strict", "convention", "format", "out",
)
_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _parse_q_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"bad q range {text!r}, expected LO:HI") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"q range {text!r} must have finite bounds")
    if lo >= hi:
        raise ConfigError("q range must satisfy LO < HI")
    if lo <= 0:  # exact and principal-branch values agree only for q > 0
        raise ConfigError(f"q range {text!r} must lie in q > 0")
    return lo, hi


def load_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; lists are comma separated."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key] = val
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _config_int(values: dict, key: str) -> int:
    try:
        return int(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {values[key]!r}") from exc


def _config_list(values: dict, key: str) -> list[str]:
    items = [s.strip() for s in values[key].split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key} must name at least one value, got {values[key]!r}")
    return items


def _apply_config_file(args: argparse.Namespace, values: dict) -> None:
    """File values fill in anything the command line left at its default."""
    unknown = [key for key in values if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if "suite" in values and args.suite is None:
        args.suite = _config_list(values, "suite")
    if "mode" in values and args.mode is None:
        args.mode = values["mode"]
    if "q_samples" in values and args.q_samples is None:
        args.q_samples = _config_int(values, "q_samples")
    if "q_range" in values and args.q_range is None:
        args.q_range = values["q_range"]
    if "seed" in values and args.seed is None:
        args.seed = _config_int(values, "seed")
    if "strict" in values:
        flag = values["strict"].lower()
        if flag not in _TRUE + _FALSE:
            raise ConfigError(f"strict must be 1/true/yes or 0/false/no, got {values['strict']!r}")
        args.strict = args.strict or flag in _TRUE
    if "convention" in values and args.convention is None:
        args.convention = _config_list(values, "convention")
    if "format" in values and args.format is None:
        args.format = values["format"]
    if "out" in values and args.out is None:
        args.out = values["out"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclifford",
        description="Exact verification suites for deformed Clifford and Hopf algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("verify", help="run verification suites")
    run.add_argument("--suite", action="append", default=None, metavar="S",
                     help="suite name or 'all'; repeatable")
    run.add_argument("--mode", choices=suites_mod.MODES, default=None)
    run.add_argument("--q-samples", dest="q_samples", type=int, default=None)
    run.add_argument("--q-range", dest="q_range", default=None, metavar="LO:HI")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--strict", action="store_true", default=False,
                     help="report-status mismatches against targets also fail")
    run.add_argument("--format", choices=_FORMATS, default=None)
    run.add_argument("--out", default=None, metavar="PATH")
    run.add_argument("--convention", action="append", default=None,
                     choices=_CONVENTION_VALUES, help="restrict action conventions")
    run.add_argument("--config", default=None, metavar="PATH",
                     help="key = value file mirroring the flags; flags win")

    diff = sub.add_parser("diff", help="compare two report files")
    diff.add_argument("report_a")
    diff.add_argument("report_b")
    diff.add_argument("--tolerance", type=float, default=0.0)

    sub.add_parser("list-checks", help="print the claims index of all checks")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.config:
        _apply_config_file(args, load_config_file(args.config))
    # RunContext declares the defaults, so it is given only the options set
    options = {k: v for k in ("mode", "q_samples", "seed") if (v := getattr(args, k)) is not None}
    if args.q_range is not None:
        options["q_range"] = _parse_q_range(args.q_range)
    if args.convention is not None:
        unknown = [v for v in args.convention if v not in _CONVENTION_VALUES]
        if unknown:
            raise ConfigError(f"unknown convention {unknown[0]!r}")
        # repeats are dropped in order, as resolve_suites does for --suite
        options["conventions"] = tuple(ActionConvention(v) for v in dict.fromkeys(args.convention))
    if args.format not in (None, *_FORMATS):
        raise ConfigError(f"unknown format {args.format!r}")
    if args.out is not None:  # refused before any check runs
        if not args.out:
            raise ConfigError("out must name a file, got ''")
        if os.path.isdir(args.out):
            raise ConfigError(f"cannot write report: {args.out} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ConfigError(f"cannot write report: the directory of {args.out} does not exist")
    try:
        chosen = suites_mod.resolve_suites(["all"] if args.suite is None else args.suite)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        ctx = suites_mod.RunContext(**options)
    except ValueError as exc:  # a mode, sample count or q range the context refuses
        raise ConfigError(str(exc)) from exc
    try:
        reports = suites_mod.run_checks(chosen, ctx)
    except OverflowError as exc:  # samples so large that float evaluation overflows
        raise ConfigError(f"q range {args.q_range!r} overflows float evaluation: {exc}") from exc
    config_dict = {
        "suites": chosen,
        "mode": ctx.mode,
        "q_samples": ctx.q_samples,
        "q_range": [report_mod.format_float(x) for x in ctx.q_range],
        "seed": ctx.seed,
        "strict": bool(args.strict),
        "conventions": sorted(c.value for c in ctx.conventions),
    }
    if args.format == "json":
        text = report_mod.reports_to_json(config_dict, reports)
    else:
        text = report_mod.format_text(config_dict, reports)
    if args.out is not None:
        try:
            report_mod.write_atomic(args.out, text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return suites_mod.exit_code(reports, bool(args.strict))


def _cmd_diff(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # also rejects nan
        raise ConfigError(f"tolerance must be a non-negative number, got {args.tolerance!r}")
    try:
        doc_a = report_mod.load_report(args.report_a)
        doc_b = report_mod.load_report(args.report_b)
    except report_mod.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diffs = report_mod.diff_reports(doc_a, doc_b, args.tolerance)
    for d in diffs:
        print(f"{d.check_id}: {d.kind} {d.a_value!r} -> {d.b_value!r}")
    if not diffs:
        print("no differences")
    return 0 if not diffs else 1


def _cmd_list_checks(_args: argparse.Namespace) -> int:
    defs = suites_mod.registry()
    width = max(len(c.check_id) for c in defs)
    for c in defs:
        print(f"{c.check_id:<{width}s}  [{c.suite}]  {c.description}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "list-checks":
            return _cmd_list_checks(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
