"""The benchmark's tracer probes and microbenchmarks still fit the package.

``perfbench/tracer.py`` wraps each ``PROBES`` target by replacing the entry
in its owner's ``__dict__``, and ``perfbench/micro.py`` builds its operands
with the scalar constructors; a refactor that renames, moves or inherits
one of them would break ``perfbench/run.py --trace 1``, and so would a
result that lacks a field a probe's ``on_return`` reads.  Each file is read
as text and executed in a fresh namespace, so these tests write nothing
under ``perfbench/``.
"""

import collections
import importlib
import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str) -> types.ModuleType:
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    exec(code, module.__dict__)
    return module


def test_every_probe_target_is_defined_by_its_owner():
    missing = []
    for name, module_name, attrs, *_ in _load("tracer").PROBES:
        module = importlib.import_module(f"qclifford.{module_name}")
        for attr in attrs:
            owner = module
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if last not in owner.__dict__:
                missing.append(f"{name}: qclifford.{module_name}.{attr}")
    assert not missing, missing
    assert callable(importlib.import_module("qclifford.suites").registry)


def test_every_microbenchmark_runs_once_against_the_package():
    ops = _load("micro").operations()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert set(ops) == {m["name"] for m in declared if m["name"].endswith("_us")}
    for name, op in ops.items():
        result = op()
        assert not result.is_zero(), name


def test_hopf_probes_read_the_checkers_results():
    hopf = importlib.import_module("qclifford.hopf")
    ch = importlib.import_module("qclifford.presentations").build_ch2()
    probes = [p for p in _load("tracer").PROBES if p[1] == "hopf" and p[4] is not None]
    assert {attrs for _, _, attrs, *_ in probes} == {
        ("check_coassociativity",), ("check_counit",), ("check_antipode",)
    }
    for name, _, (attr,), _, on_return in probes:
        result = getattr(hopf, attr)(ch)
        tracer = types.SimpleNamespace(extras=collections.defaultdict(float))
        on_return(tracer, (ch,), result)
        # the metric counts the six generators each law was decided on
        assert tracer.extras == {f"{name}.words": 6}
