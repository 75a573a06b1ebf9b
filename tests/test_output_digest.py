"""The package's exact outputs, pinned by the digests of scripts/output_digest.py,
and the other scripts run as a reader runs them.

A change that keeps every output bit-identical leaves all three lines as
they are; a change that alters an output must say so by updating them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True)

DIGEST_LINES = [
    "00c07143ad0e8144638deca1210bc01bebc252cb5dd27e595a769de2caf49a89",
    "walkers 1f691b5e847ba2119fc4720236f3a94ae565660267a6691493ab351c7a405a69",
    "series-alphas 513c08823e5cc68661cca5e65e641bb92ec18828d6a0de023623aa7bdbc0583f",
]


def test_output_digests_are_unchanged():
    done = run_script("output_digest.py")
    assert done.returncode == 0, done.stderr
    assert [" ".join(line.split()) for line in done.stdout.splitlines()] == DIGEST_LINES


@pytest.mark.parametrize("argv", [["sequence_tour.py"], ["bench_series.py", "--help"]])
def test_script_runs(argv):
    # a script that imports a name the package no longer has fails here
    done = run_script(*argv)
    assert done.returncode == 0, done.stderr
