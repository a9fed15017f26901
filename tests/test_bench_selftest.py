"""The benchmark still counts damaged outputs as failed.

``perfbench/selftest.py`` writes a right output and damaged copies of it for
the ``complete`` and ``check`` workloads and judges each with the code
``perfbench/run.py`` uses.  It runs in its own interpreter, like the
benchmark's operations.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_fails_every_damaged_output():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "self-test passed" in out.stdout
    assert "BAD" not in out.stdout
