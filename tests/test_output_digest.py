"""The package's exact outputs, pinned by the digests of scripts/output_digest.py.

A change that keeps every output bit-identical leaves all three lines as
they are; a change that alters an output must say so by updating them.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGEST_LINES = [
    "d2a6d16489ce0f7c09e1a76b9972e0e70411ccce260df78e03f6a14a657b5adc",
    "walkers 1f691b5e847ba2119fc4720236f3a94ae565660267a6691493ab351c7a405a69",
    "series-alphas 513c08823e5cc68661cca5e65e641bb92ec18828d6a0de023623aa7bdbc0583f",
]


def test_output_digests_are_unchanged():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert [" ".join(line.split()) for line in out.splitlines()] == DIGEST_LINES
