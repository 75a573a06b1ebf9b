"""The benchmark's tracer, installed on the package as a traced run installs it.

``perfbench/tracer.py`` wraps names of the package and calls each check
through the campaign's registry.  A renamed name, another registry shape
or another ``run_check`` signature fails here, not in the next traced run.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in its own process: install() replaces the package's functions for good
TRACED_CHECK = textwrap.dedent("""
    import tracer as tracing
    from embtrees import campaign

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracing.wrap_checks(tracer, campaign._CHECKS)
    result = campaign.run_check("kernel/fuss-catalan")
    assert result.status == "pass", result.detail
    metrics = tracer.layer_metrics()
    assert metrics["campaign.checks"] == 1, metrics["campaign.checks"]
    assert metrics["kernel.newton.calls"] > 0
    print("ok")
""")


def test_tracer_wraps_the_package_and_its_checks():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    done = subprocess.run([sys.executable, "-c", TRACED_CHECK], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
