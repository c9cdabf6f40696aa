"""The benchmark's own test: every workload on a few items, traced and
untraced, through the same entry point the full runs use.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
