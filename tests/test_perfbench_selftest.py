"""The benchmark's self-tests pass against the package.

``perfbench/selftest.py`` checks the harness's own arithmetic and verdict
gate, and starts real workload processes on the code under ``src/``, so a
package change that breaks the harness fails here.  It runs in a child
process from the repository root, with bytecode writing off, so nothing is
left under ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
