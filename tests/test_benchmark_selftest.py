"""The benchmark's own self-tests, run as a script as the benchmark runs them.

``perfbench/selftest.py`` checks that workload generation, the output
checkers and the verdict logic agree with the package, so a program change
that breaks how a benchmark run is judged fails here, not in the next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftests_pass():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.rstrip().endswith("OK"), done.stderr
