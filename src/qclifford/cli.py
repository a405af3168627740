"""Command-line front end: run suites, diff reports, list checks."""

from __future__ import annotations

import argparse
import os
import sys

from . import report as report_mod
from . import suites as suites_mod
from .qgamma import ActionConvention


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one line, like any other
        raise ConfigError(message)


# config keys, each mirroring the flag of its name; a list key gives one flag
# per comma-separated item, and strict reads as a boolean
_CONFIG_KEYS = (
    "suite", "mode", "q_samples", "q_range", "seed", "strict", "convention", "format", "out",
)
_LIST_KEYS = ("suite", "convention")
_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _parse_q_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad q range {text!r}, expected LO:HI") from exc
    return lo, hi


def config_flags(path: str) -> list[str]:
    """The flags a config file's ``key = value`` lines stand for; '#' starts
    a comment."""
    try:
        lines = report_mod.read_text(path).splitlines()
    except (OSError, ValueError) as exc:  # also too large, not UTF-8, or a NUL in the path
        reason = getattr(exc, "strerror", None) or exc  # str() of an OSError repeats the path
        raise ConfigError(f"{path}: cannot read config file: {reason}") from exc
    flags: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is repeated")
        seen.add(key)
        if key == "strict":
            if val.lower() not in _TRUE + _FALSE:
                raise ConfigError(
                    f"{path}:{lineno}: strict must be 1/true/yes or 0/false/no, got {val!r}"
                )
            flags += ["--strict"] * (val.lower() in _TRUE)
        else:
            items = val.split(",") if key in _LIST_KEYS else [val]
            flags += [f"--{key.replace('_', '-')}={item.strip()}" for item in items]
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qclifford",
        description="Exact verification suites for deformed Clifford and Hopf algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("verify", help="run verification suites")
    run.add_argument("--suite", action="append", default=None, metavar="S",
                     help="suite name or 'all'; repeatable")
    run.add_argument("--mode", choices=report_mod.MODES, default=None)
    run.add_argument("--q-samples", dest="q_samples", type=int, default=None)
    run.add_argument("--q-range", dest="q_range", default=None, metavar="LO:HI",
                     help="sample q in LO:HI; 0 < q <= 1e6, at least 0.05 from 1 and 1e-6 from 0")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--strict", action="store_true", default=None,
                     help="report-status mismatches against targets also fail")
    run.add_argument("--format", choices=("text", "json"), default=None)
    run.add_argument("--out", default=None, metavar="PATH")
    run.add_argument("--convention", action="append", default=None,
                     choices=[c.value for c in ActionConvention],
                     help="restrict action conventions")
    run.add_argument("--config", default=None, metavar="PATH",
                     help="key = value file mirroring the flags; flags win")

    diff = sub.add_parser("diff", help="compare two report files")
    diff.add_argument("report_a")
    diff.add_argument("report_b")
    diff.add_argument("--tolerance", type=float, default=0.0)

    sub.add_parser("list-checks", help="print the claims index of all checks")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    # RunContext declares the defaults, so it is given only the options set
    options = {k: v for k in ("mode", "q_samples", "seed") if (v := getattr(args, k)) is not None}
    if args.q_range is not None:
        options["q_range"] = _parse_q_range(args.q_range)
    if args.convention is not None:
        # repeats are dropped in order, as resolve_suites does for --suite
        options["conventions"] = tuple(ActionConvention(v) for v in dict.fromkeys(args.convention))
    if args.out is not None:  # refused before any check runs
        if not args.out or "\0" in args.out:
            raise ConfigError(f"out must name a file, got {args.out!r}")
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
    reports = suites_mod.run_checks(chosen, ctx)
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
            raise ConfigError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)
    return suites_mod.exit_code(reports, bool(args.strict))


def _cmd_diff(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # also rejects nan
        raise ConfigError(f"tolerance must be a non-negative number, got {args.tolerance!r}")
    doc_a = report_mod.load_report(args.report_a)
    doc_b = report_mod.load_report(args.report_b)
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
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.config is not None:
            # the file fills only the options the command line left unset
            flags = config_flags(args.config)
            try:
                from_file = parser.parse_args(["verify", *flags])
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from exc
            for key, value in vars(from_file).items():
                if getattr(args, key) is None:
                    setattr(args, key, value)
        command = {"verify": _cmd_verify, "diff": _cmd_diff, "list-checks": _cmd_list_checks}
        return command[args.command](args)
    except (ConfigError, report_mod.ParseError) as exc:
        # a message that quotes raw input (a path, an argument) stays one line
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
