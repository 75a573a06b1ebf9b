"""The package's exact outputs, pinned by the digests of scripts/output_digest.py,
and the other scripts run as a reader runs them.

A change that keeps every output bit-identical leaves all three lines as
they are; a change that alters an output must say so by updating them.
The ``binary`` section of the first line hashes the closed binary family
through the CLI's ``trees --method closed`` path, and the third line
hashes ``levels.alpha_recurrence``, the one series form of the expansion
coefficients.
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
    "1b0c0888518d8a32091cda6485de2dc6897df8b25209cf2a20914e801327a416",
    "walkers 1f691b5e847ba2119fc4720236f3a94ae565660267a6691493ab351c7a405a69",
    "series-alphas 29ffd77905ff20c1bc62c2ab504da89926e7e0bc39518c666ef8fd1ecfd643fb",
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
