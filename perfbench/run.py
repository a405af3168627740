"""Benchmark of ``qclifford verify``.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 60] [--trace 0|1]
    python3 perfbench/run.py --workload all [--profile] [--record FILE]

The load is a closed loop with one client: each repetition is one fresh
Python process (``child.py``) that imports ``qclifford.cli`` and calls
``main(argv)``; processes run one after another, never concurrently.  A
fresh process per repetition is what every CLI call costs, so the lazily
built algebras count inside ``wall_s``.  BLAS pools are pinned to one thread
and ``PYTHONHASHSEED`` to 0 in the child.  The seed reaches the program only
as ``--seed``.

``--trace 0`` spawns a few import-only processes for ``setup_s``, then
runs ``REPS`` repetitions; ``--seconds`` only caps them, so a run that
would overrun it stops early.  It reports the median ``setup_s`` and
``peak_rss_mb`` and the mean ``wall_s`` of the repetitions, and prints
their median, tail, fastest and CPU time beside it.  On a shared 2-vCPU
Xeon virtual machine (CPython 3.11.7), other tenants slow the program by up
to 1.8x for seconds to minutes; the process CPU time grows with the wall
time, so the program itself runs slower, the CPU is not stolen from it.
Sliding windows of 10 and 14 repetitions over five recordings of 54-91
repetitions gave an IQR/median across windows of 0.05-0.15 for the mean,
0.07-0.22 for the median and 0.07-0.20 for the fastest repetition.
``--trace 1`` alternates untraced and traced repetitions (up to three
pairs, as the time budget allows), runs the scalar microbenchmarks, and
reports the per-layer metrics of the fastest traced repetition with the
tracing overhead: the mean traced minus the mean untraced ``wall_s``.

Every repetition runs under a wall-clock limit.  A timeout, a traceback, a
wrong exit code or an unreadable result counts every expected check of that
invocation as a wrong verdict; the results are still printed.  Verdicts are
compared with the hand-written table in ``workloads.py``, and all reports of
one run must be byte-identical.

``BENCHMARK.json`` lists hopf-exact and matrix-both, whose ``REPS``
repetitions fit into one 60 s run; verify-all, a single 35-60 s
repetition per run, is measured on demand with ``--workload verify-all``.
``--workload all`` runs every workload untraced and traced; ``--profile``
adds one cProfile run per workload with each module's share of self time;
``--record FILE`` writes everything, with machine information, as JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, expected_for, program_argv, wrong_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
CHILD = HERE / "child.py"

RUN_BUDGET_S = 172.0  # one workload run, all of its processes included
SETUP_SPAWNS = 10  # import-only processes per untraced run
REPS = 12  # repetitions per untraced run; --seconds caps the run
SETUP_LIMIT_S = 30.0
MICRO_LIMIT_S = 60.0
MICRO_RESERVE_S = 5.0  # time a traced run keeps for the microbenchmarks
TRACE_PAIRS = 3  # untraced/traced repetition pairs per traced run, as time allows

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    PYTHONHASHSEED="0",
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)

def workdir() -> Path:
    """A fresh directory for one invocation's spec, result, trace and report."""
    return Path(tempfile.mkdtemp(dir=SCRATCH / "tmp"))


def invoke(mode: str, limit_s: float, argv=(), deadline: float | None = None, work: Path | None = None) -> dict:
    """Run one child process to completion or to its limit.

    Returns the child's result, or ``{"error": ..., "elapsed_s": ...}`` when
    it timed out, failed, printed a traceback or wrote no readable result."""
    work = work or workdir()
    spec = {
        "mode": mode,
        "argv": list(argv),
        "src": str(SRC),
        "result": str(work / "result.json"),
        "trace_out": str(work / "trace.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    if deadline is not None:
        limit_s = max(0.1, min(limit_s, deadline - time.monotonic()))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec_path), repr(started)],
            cwd=ROOT,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=limit_s,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {limit_s:.1f} s", "elapsed_s": time.monotonic() - started}
    elapsed = time.monotonic() - started
    err = proc.stderr.decode("utf-8", "replace").strip()
    if proc.returncode != 0 or "Traceback (most recent call last)" in err:
        last = err.splitlines()[-1] if err else ""
        return {"error": f"child exited {proc.returncode}: {last}", "elapsed_s": elapsed}
    try:
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {"error": f"unreadable result: {exc}", "elapsed_s": elapsed}
    result["elapsed_s"] = elapsed
    result["trace_out"] = spec["trace_out"]
    return result


def check_shape(doc) -> None:
    """Raise ValueError unless ``doc`` holds a list of checks, each with an
    id and a status, so that a report of another shape reads as unreadable."""
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(checks, list):
        raise ValueError("no list of checks")
    for check in checks:
        if not isinstance(check, dict) or not isinstance(check.get("check_id"), str) or "status" not in check:
            raise ValueError(f"check without check_id and status: {check!r:.80}")


class Verdicts:
    """Verdict tally of one run: checks attempted, wrong verdicts, report bytes."""

    def __init__(self, workload, expected: dict | None = None):
        self.workload = workload
        self.expected = expected_for(workload.suites) if expected is None else expected
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.errors = []

    def repetition(self, mode: str, seed: int, deadline: float) -> dict:
        """Run the workload once in ``mode`` and score its report."""
        work = workdir()
        out = work / "report.json"
        result = invoke(mode, self.workload.limit_s, program_argv(self.workload, seed, str(out)), deadline, work)
        data = None
        if "error" in result:
            self.errors.append(result["error"])
        elif result["exit_code"] != self.workload.exit_code:
            self.errors.append(f"exit code {result['exit_code']}, expected {self.workload.exit_code}")
        else:
            try:
                data = out.read_bytes()
            except OSError as exc:
                self.errors.append(f"unreadable report: {exc}")
        self.score(data)
        return result

    def score(self, data: bytes | None) -> None:
        """Count the verdicts of one report.  No report, or bytes that are not
        a report, count every expected check as wrong."""
        doc = None
        if data is not None:
            try:
                doc = json.loads(data)
                check_shape(doc)
                self.digests.add(hashlib.sha256(data).hexdigest())
            except ValueError as exc:
                doc = None
                self.errors.append(f"unreadable report: {exc}")
        self.attempted += len(self.expected)
        self.failed += len(wrong_checks(self.expected, doc))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors and len(self.digests) == 1

    def lines(self) -> list[str]:
        share = self.failed / self.attempted if self.attempted else 1.0
        out = [
            f"  {'wrong_verdict_share':<44} {share:.4f} share ({self.failed} of {self.attempted} checks)",
            f"  report sha256 {', '.join(sorted(self.digests)) or 'none'}"
            f" ({'byte-identical' if len(self.digests) == 1 else 'NOT byte-identical'} across repetitions)",
        ]
        out += [f"  error: {e}" for e in self.errors]
        return out


def wall_of(result: dict, workload) -> float:
    """Wall time of a repetition; a failed one counts as taking its whole
    slot, the workload's limit, so that it never reads as fast."""
    return result.get("wall_s", workload.limit_s)


def wall_text(samples: list[float]) -> str:
    """Sample count, median, the highest percentile with at least ten
    samples beyond it, and the fastest sample."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"mean of n={n}, median {statistics.median(samples):.4f}"
    if n > 10:
        k = n - 10
        text += f", p{100 * k / n:.0f} {ordered[k - 1]:.4f}"
    return f"{text}, fastest {ordered[0]:.4f}"


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(workload, seed: int, seconds: float) -> tuple[Verdicts, dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    verdicts = Verdicts(workload)
    invoke("setup", SETUP_LIMIT_S, deadline=deadline)  # warm-up: bytecode and file caches
    setups = [invoke("setup", SETUP_LIMIT_S, deadline=deadline) for _ in range(SETUP_SPAWNS)]
    reps = []
    begin = time.monotonic()
    while not reps or (
        len(reps) < REPS
        and time.monotonic() - begin + reps[-1]["elapsed_s"] < seconds
        and time.monotonic() + 1.5 * reps[-1]["elapsed_s"] < deadline
    ):
        reps.append(verdicts.repetition("run", seed, deadline))
    walls = [wall_of(r, workload) for r in reps]
    cpus = [r["cpu_s"] for r in reps if "cpu_s" in r]
    setup_s = [r["setup_s"] for r in setups + reps if "setup_s" in r]
    rss = [r["peak_rss_mb"] for r in reps if "peak_rss_mb" in r]
    metrics = {
        "wall_s": statistics.mean(walls),
        "setup_s": median_or_zero(setup_s),
        "peak_rss_mb": median_or_zero(rss),
    }
    notes = {
        "wall_s": wall_text(walls),
        "setup_s": f"median of n={len(setup_s)}",
        "peak_rss_mb": f"median of n={len(rss)}",
    }
    if cpus:
        notes["cpu_s"] = f"mean {statistics.mean(cpus):.4f} s of process CPU time, {sum(cpus) / sum(walls):.1%} of wall_s"
    return verdicts, metrics, notes


def run_traced(workload, seed: int) -> tuple[Verdicts, dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    verdicts = Verdicts(workload)
    plain, traced = [], []
    while not traced or (
        len(traced) < TRACE_PAIRS
        and time.monotonic() + 1.5 * (plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"]) + MICRO_RESERVE_S < deadline
    ):
        plain.append(verdicts.repetition("run", seed, deadline))
        traced.append(verdicts.repetition("trace", seed, deadline))
    micro = invoke("micro", MICRO_LIMIT_S, deadline=deadline)
    if "error" in micro:
        verdicts.errors.append(f"microbenchmarks: {micro['error']}")
    fastest = min(traced, key=lambda r: wall_of(r, workload))
    metrics = dict(fastest.get("layers", {}))
    metrics.update(micro.get("micro", {}))
    metrics["trace.wall_s"] = statistics.mean(wall_of(r, workload) for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.mean(wall_of(r, workload) for r in plain)
    notes = {"trace.overhead_s": f"mean of {len(traced)} traced minus mean of {len(plain)} untraced, alternating"}
    if "layers" in fastest:
        dump = SCRATCH / f"trace-{workload.name}-seed{seed}.json"
        shutil.copyfile(fastest["trace_out"], dump)
        notes["spans"] = str(dump.relative_to(ROOT))
    return verdicts, metrics, notes


def load_benchmark() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure(workload, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """One workload run; prints its lines and returns the result object."""
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {' '.join(program_argv(workload, seed, 'PATH'))}")
    if trace:
        verdicts, metrics, notes = run_traced(workload, seed)
        wanted = units["per_layer"]
    else:
        verdicts, metrics, notes = run_untraced(workload, seed, seconds)
        wanted = units["end_to_end"]
    for key in sorted(metrics):
        unit = wanted.get(key, "")
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<44} {metrics[key]:.6g} {unit}{note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"  {key}: {note}")
    for line in verdicts.lines():
        print(line)
    return {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        # a metric the run could not produce (a check outside this workload,
        # or a failed traced run, which is already counted as wrong) reads 0
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in wanted.items()},
    }


def profile(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    work = workdir()
    out = work / "report.json"
    result = invoke("profile", 10 * workload.limit_s, program_argv(workload, seed, str(out)), work=work)
    print(f"workload {name} seed {seed} cProfile self-time share by module:")
    if "error" in result:
        print(f"  error: {result['error']}")
        return {}
    for module, share in result["module_shares"].items():
        print(f"  {module:<28} {share:7.2%}")
    return result["module_shares"]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "system": f"{platform.system()} {platform.machine()}",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0, help="cap on the repetitions of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="add one cProfile run per workload")
    parser.add_argument("--record", metavar="FILE", help="write all results and machine info as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "qclifford" / "cli.py").is_file():
        print(f"error: no qclifford source under {SRC}", file=sys.stderr)
        return 2
    try:
        units = load_benchmark()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)
    (SCRATCH / "tmp").mkdir(parents=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    for name in names:
        for trace in modes:
            results[f"{name}/trace{int(trace)}"] = measure(WORKLOADS[name], args.seed, args.seconds, trace, units)
    shares = {name: profile(name, args.seed) for name in names} if args.profile else {}
    shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)

    if args.record:
        record = {
            "machine": machine_info(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {
                n: {"argv": program_argv(WORKLOADS[n], args.seed, "PATH"), "why": WORKLOADS[n].why}
                for n in names
            },
            "results": results,
            "module_self_time_share": shares,
        }
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{k}/{m}": v for k, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
