"""Run one workload in this (fresh) process and print raw measurements as JSON.

    python3 perfbench/worker.py --workload queries --seed 1 --seconds 10 [--trace] [--setup-only]

Set-up is the import of embtrees plus generation of the round's inputs.
The run then repeats whole rounds of the same operation list until
``--seconds`` have passed (one round when traced).  Outputs are not judged
here: the parent process (run.py) checks them against independent counts,
so that neither the checks' time nor their memory lands in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli_round(main, ops, cache_dir, tracer) -> tuple[float, list]:
    """Every operation through ``cli.main`` in order; (round seconds, records)."""
    records = []
    started = time.perf_counter()
    for argv in ops:
        full = list(argv) + (["--cache-dir", str(cache_dir)] if cache_dir else [])
        out = io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), span:
            t0 = time.perf_counter()
            try:
                status = main(full)
            except SystemExit as exc:  # argparse rejections
                status = f"exit {exc.code}"
            except Exception as exc:  # a crashed query is a failed query
                status = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        records.append((t1 - t0, status, out.getvalue()))
    return time.perf_counter() - started, records


def run_verify_round(run_campaign, config) -> tuple[float, list]:
    started = time.perf_counter()
    report = run_campaign(config)
    elapsed = time.perf_counter() - started
    return elapsed, [[r.id, r.status, r.runtime_ms, r.detail] for r in report.results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from embtrees import campaign, cli

    if args.workload == "verify":
        ops = None
        config = campaign.CampaignConfig()
    else:
        ops = workloads.round_ops(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracing.wrap_checks(tracer, campaign._CHECKS)

    round_s: list[float] = []
    rounds: list[list] = []
    texts: dict[str, str] = {}
    run_started = time.perf_counter()
    while True:
        if ops is None:
            elapsed, records = run_verify_round(campaign.run_campaign, config)
            rounds.append(records)
        else:
            cache_dir = None
            if args.workload == "cache":
                cache_dir = WORK_DIR / f"cache-{os.getpid()}-{len(rounds)}"
                shutil.rmtree(cache_dir, ignore_errors=True)
            try:
                elapsed, records = run_cli_round(cli.main, ops, cache_dir, tracer)
            finally:
                if cache_dir is not None:
                    shutil.rmtree(cache_dir, ignore_errors=True)
            compact = []
            for argv, (seconds, status, text) in zip(ops, records):
                texts.setdefault(json.dumps(argv), text)
                compact.append([seconds * 1000, status, _digest(text)])
            rounds.append(compact)
        round_s.append(elapsed)
        if tracer or time.perf_counter() - run_started >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "rounds": rounds,
        "texts": texts,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write_spans(WORK_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
