"""One workload process.  ``run.py`` starts it as

    python3 perfbench/child.py SPEC.json SPAWN_T

with ``PYTHONPATH`` pointing at the checkout's ``src``.  The spec names a
mode and where to write the result:

* ``setup``   import ``qclifford.cli`` and report the set-up time;
* ``run``     also call ``qclifford.cli.main(argv)`` and time it;
* ``trace``   wrap the layers first (see ``tracer.py``), then run;
* ``profile`` run under cProfile and report each module's self-time share;
* ``micro``   run the scalar microbenchmarks.

Set-up time runs from SPAWN_T, the parent's monotonic clock just before it
started this process (the second argument), until ``qclifford.cli`` has
been imported.
"""

import json
import os
import resource
import sys
import time


def _module_of(filename: str, src: str) -> str:
    if filename == "~":  # C functions: builtins and methods of builtin types
        return "builtins"
    filename = os.path.realpath(filename)
    if filename.startswith(src + os.sep):
        return "qclifford." + os.path.splitext(os.path.basename(filename))[0]
    for package in ("numpy", "jsonschema"):
        if f"{os.sep}{package}{os.sep}" in filename:
            return package
    if os.path.basename(filename) == "fractions.py":
        return "fractions"
    return "other"


def module_shares(prof, src: str) -> dict:
    """Share of all profiled self time spent in each module."""
    import pstats

    by_module = {}
    for (filename, _line, _name), (_cc, _nc, self_s, _ct, _callers) in pstats.Stats(prof).stats.items():
        module = _module_of(filename, src)
        by_module[module] = by_module.get(module, 0.0) + self_s
    total = sum(by_module.values()) or 1.0
    return {m: s / total for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])}


def main(spec_path: str, spawn_t: float) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    result = {}
    tracer = None
    if mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    import qclifford.cli

    result["setup_s"] = time.monotonic() - spawn_t
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(qclifford.cli.__file__).startswith(src + os.sep):
        sys.exit(f"qclifford was imported from {qclifford.cli.__file__}, not from {src}")

    if mode == "micro":
        import micro

        result["micro"] = micro.run()
    elif mode == "profile":
        import cProfile

        prof = cProfile.Profile()
        result["exit_code"] = prof.runcall(qclifford.cli.main, spec["argv"])
        result["module_shares"] = module_shares(prof, src)
    elif mode in ("run", "trace"):
        start, start_cpu = time.perf_counter(), time.process_time()
        result["exit_code"] = qclifford.cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - start_cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer_mod.layer_metrics(tracer)
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
