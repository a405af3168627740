"""The benchmark tracer's probes still name functions of the package.

``perfbench/tracer.py`` wraps each ``PROBES`` target by replacing the entry
in its owner's ``__dict__``; a refactor that renames, moves or inherits one
of them would break ``perfbench/run.py --trace 1``.  The tracer is read as
text and executed in a fresh namespace, so this test writes nothing under
``perfbench/``.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module


def test_every_probe_target_is_defined_by_its_owner():
    missing = []
    for name, module_name, attrs, *_ in _load_tracer().PROBES:
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
