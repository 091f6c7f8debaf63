"""The benchmark harness self-test runs against the current source tree.

The tracer wraps functorlab names by string (``VecFunctor.mat``,
``Skeleton.generating_morphisms``, ``SetFunctor.act_table``, ...), so a
change in the package that drops or renames one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
