"""Fixed-work benchmark for embtrees: one workload per invocation.

    python3 perfbench/run.py --workload {verify,queries,cache} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload itself runs in a fresh
child process (worker.py); this process times the set-up in separate fresh
processes, checks every output against an independent count (oracles.py),
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 175.0
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _worker_env() -> dict[str, str]:
    """The caller's environment without embtrees defaults (they would change the work)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EMBTREES_")}


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge_verify(raw: dict) -> tuple[bool, int, int, list[str]]:
    """Every registered check ran in every round and none reported fail."""
    problems = []
    attempted = failed = 0
    for records in raw["rounds"]:
        attempted += len(records)
        seen = {check_id: status for check_id, status, _, _ in records}
        missing = sorted(set(workloads.CHECK_IDS) - set(seen))
        if missing:
            problems.append(f"checks did not run: {missing}")
        for check_id, status, _, detail in records:
            allowed = {"pass"} | ({"conjecture-consistent"}
                                  if check_id == workloads.CONJECTURE_CHECK else set())
            if status not in allowed:
                failed += 1
                problems.append(f"{check_id}: {status} {detail}")
    return not problems, attempted, failed, problems


def judge_cli(raw: dict) -> tuple[bool, int, int, list[str]]:
    """Each distinct query's output equals its independent count, and every
    repeat of it (later rounds, cache hits) is bit-identical to that output.
    Known-fault queries that fail count in ``failed`` without spoiling
    ``correct``."""
    verdicts: dict[str, tuple[bool, str, str]] = {}
    for key, text in raw["texts"].items():
        ok, detail = oracles.check_output(json.loads(key), text)
        verdicts[key] = (ok, detail, hashlib.sha256(text.encode()).hexdigest())
    known = {json.dumps(list(op)) for op in workloads.KNOWN_FAULTS}
    problems = []
    attempted = failed = 0
    for records in raw["rounds"]:
        for argv, (_, status, digest) in zip(raw["ops"], records):
            key = json.dumps(argv)
            attempted += 1
            ok, detail, want = verdicts[key]
            if status != 0:
                ok, detail = False, f"status {status}"
            elif digest != want:
                ok, detail = False, "output differs from the first computation"
            if not ok:
                failed += 1
                if key not in known:
                    problems.append(f"{' '.join(argv)}: {detail}")
    return not problems, attempted, failed, problems


def end_to_end(raw: dict, setup: list[float]) -> dict[str, float]:
    """The mean round time, and the 90th percentile over every operation of
    every round.

    On a host whose cores are shared with other tenants, speed switches
    between a fast and a slow state many times a second, and between busy
    and calm stretches every few tens of seconds, so the figures average
    over the whole run rather than pick one round.
    No median latency is reported: it falls where the two states' latencies
    overlap, and so it moves most with the share of fast time.
    """
    if raw["ops"] is None:
        # verify: one request asks for 30 verdicts at once; a check's latency
        # is the time from the request to its verdict (checks run in id order)
        op_ms = [t for records in raw["rounds"]
                 for t in itertools.accumulate(float(r[2]) for r in records)]
    else:
        op_ms = [r[0] for records in raw["rounds"] for r in records]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.fmean(raw["round_s"]),
        "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "embtrees" / "__init__.py").is_file():
        print(f"run.py: no embtrees source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            setup = [run_worker(common + ["--setup-only"], 60)["setup_s"]
                     for _ in range(SETUP_PROBES)]
        extra = ["--trace"] if args.trace else []
        raw = run_worker(common + ["--seconds", str(args.seconds)] + extra,
                         DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    judge = judge_verify if args.workload == "verify" else judge_cli
    correct, attempted, failed, problems = judge(raw)
    for line in problems:
        print(f"run.py: wrong output: {line}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(raw, setup).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
