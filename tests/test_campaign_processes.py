"""The campaign in worker processes: the same results, and no process left behind.

``run_campaign`` forks one worker per usable CPU.  These tests pin the
CPU count through ``os.sched_getaffinity``, so they take the pooled path
(two workers) or the in-process path whatever the host has.
"""

import json
import multiprocessing
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from embtrees import campaign
from embtrees.cli import main
from embtrees.counts import COUNTS


@pytest.fixture
def cpus(monkeypatch):
    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return pin


def report_pids(monkeypatch, suite):
    """Make every check of ``suite`` pass with its process id as the detail."""
    for check_id, (claim, _) in list(campaign._CHECKS.items()):
        if check_id.startswith(suite + "/"):
            monkeypatch.setitem(campaign._CHECKS, check_id,
                                (claim, lambda order: (True, str(os.getpid()))))


def assert_no_process_left(pids=()):
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_pooled_and_in_process_runs_agree(cpus):
    def run():
        report = campaign.run_campaign(campaign.CampaignConfig())
        return [(r.id, r.claim, r.status, r.detail, r.counts) for r in report.results]

    cpus(2)
    pooled = run()
    cpus(1)
    in_process = run()
    assert pooled == in_process
    assert [row[0] for row in pooled] == sorted(campaign._CHECKS)
    assert all(dict(row[4]).keys() == COUNTS.keys() for row in pooled)
    assert sum(dict(row[4])["series.mul"] for row in pooled) > 0


def test_pooled_checks_run_in_workers_that_are_gone_after(cpus, monkeypatch):
    cpus(2)
    report_pids(monkeypatch, "exact-arith")
    report = campaign.run_campaign(campaign.CampaignConfig(suites=("exact-arith",)))
    pids = {int(r.detail) for r in report.results}
    assert os.getpid() not in pids
    assert_no_process_left(pids)


@pytest.mark.parametrize("count,suites", [(1, ("exact-arith",)),
                                          (2, ("exact-arith/ring-laws",))])
def test_one_cpu_or_one_check_runs_in_process(cpus, monkeypatch, count, suites):
    cpus(count)
    report_pids(monkeypatch, "exact-arith")
    report = campaign.run_campaign(campaign.CampaignConfig(suites=suites))
    assert report.results
    assert {r.detail for r in report.results} == {str(os.getpid())}


def test_another_thread_keeps_the_run_in_process(cpus, monkeypatch):
    cpus(2)
    report_pids(monkeypatch, "exact-arith")
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        report = campaign.run_campaign(campaign.CampaignConfig(suites=("exact-arith",)))
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert {r.detail for r in report.results} == {str(os.getpid())}


def test_a_check_that_raises_in_a_worker_fails_and_leaves_no_process(cpus, monkeypatch):
    cpus(2)
    claim, _ = campaign._CHECKS["kernel/fuss-catalan"]

    def broken(order):
        raise RuntimeError("broken check")

    monkeypatch.setitem(campaign._CHECKS, "kernel/fuss-catalan", (claim, broken))
    report = campaign.run_campaign(campaign.CampaignConfig(suites=("kernel", "exact-arith")))
    failed = {r.id: r.detail for r in report.failed}
    assert failed == {"kernel/fuss-catalan": "exception: broken check"}
    assert_no_process_left()


def test_a_result_that_cannot_come_back_raises_and_leaves_no_process(cpus, monkeypatch):
    # a detail that cannot be pickled raises in this process while the
    # workers are up
    cpus(2)
    claim, _ = campaign._CHECKS["exact-arith/ring-laws"]
    monkeypatch.setitem(campaign._CHECKS, "exact-arith/ring-laws",
                        (claim, lambda order: (True, lambda: None)))
    with pytest.raises(Exception, match="pickle"):
        campaign.run_campaign(campaign.CampaignConfig(suites=("exact-arith",)))
    assert_no_process_left()


def test_a_worker_that_dies_raises_and_leaves_no_process(cpus, monkeypatch):
    cpus(2)
    claim, _ = campaign._CHECKS["exact-arith/ring-laws"]
    tests = os.getpid()  # the check ends only a worker, never this process

    def dies(order):
        return (True, "") if os.getpid() == tests else os._exit(1)

    monkeypatch.setitem(campaign._CHECKS, "exact-arith/ring-laws", (claim, dies))

    def waited_too_long(signum, frame):
        raise TimeoutError("run_campaign still waits for the dead worker")

    # an alarm, since a lost result can keep a pool waiting forever
    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            campaign.run_campaign(campaign.CampaignConfig(suites=("exact-arith",)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_process_left()


def test_verify_json_prints_each_check_in_id_order_then_totals(cpus, capsys):
    cpus(2)
    assert main(["verify", "--json", "--suite", "kernel", "--suite", "exact-arith"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    checks, totals = lines[:-1], lines[-1]["totals"]
    ids = [c["id"] for c in checks]
    assert ids == sorted(c for c in campaign._CHECKS if c.startswith(("kernel/", "exact-arith/")))
    assert all(c.keys() == {"id", "status", "ms", "detail", "counts"} for c in checks)
    assert all(c["status"] == "pass" and c["counts"].keys() == COUNTS.keys() for c in checks)
    assert totals["checks"] == len(checks) and totals["statuses"] == {"pass": len(checks)}
    assert totals["ms"] == sum(c["ms"] for c in checks)
    assert totals["counts"] == {name: sum(c["counts"][name] for c in checks) for name in COUNTS}
    assert totals["counts"]["kernel.newton"] > 0 and totals["counts"]["kernel.hensel"] > 0
    assert_no_process_left()


def test_verify_json_keeps_the_failure_exit_code(capsys, monkeypatch):
    claim, _ = campaign._CHECKS["kernel/fuss-catalan"]
    monkeypatch.setitem(campaign._CHECKS, "kernel/fuss-catalan",
                        (claim, lambda order: (False, "forced failure")))
    assert main(["verify", "--json", "--suite", "kernel"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[0]["status"] == "fail" and lines[0]["detail"] == "forced failure"
    assert lines[-1]["totals"]["statuses"] == {"fail": 1, "pass": 1}
