"""Tests for the fault-tolerant sweep service (``repro.exp`` PR-7).

Covers the acceptance contract: the durable work-queue journal survives
kills at any instruction (torn tails, running-state normalization),
crash resume produces a byte-identical records table while re-executing
only missing points, deterministically failing points retry their
budget then quarantine without aborting the sweep, the watchdog
recovers dead and stalled pool workers by respawning the pool, corrupt
store entries are quarantined as cache misses, and the CLI checkpoints
on SIGINT and emits the exact ``--resume`` command.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.exp import (
    ArtifactStore,
    DesignSpec,
    EconSpec,
    ExperimentSpec,
    Fault,
    FaultInjected,
    FaultPlan,
    KILL_EXIT_CODE,
    NetsimSpec,
    NullStore,
    RetryPolicy,
    ScenarioSpec,
    SweepService,
    WorkQueue,
    corrupt_artifact,
    run_experiment,
    stage_key,
    sweep_fingerprint,
)
from repro.exp.service import _axis_list

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def tiny_spec(**overrides) -> ExperimentSpec:
    """A 6-site US experiment cheap enough for per-test cold builds."""
    kwargs = dict(
        scenario=ScenarioSpec(name="us", sites=6, seed=42),
        design=DesignSpec(
            budget_towers=150.0,
            solver="heuristic",
            aggregate_gbps=20.0,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(loads=(0.3, 0.9), engine="fluid", seed=0),
        econ=EconSpec(),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


AXES = {
    "design.budget_towers": [100.0, 150.0],
    "netsim.loads": [(0.3,), (0.9,)],
}

#: RetryPolicy used throughout: fast backoff so retries don't slow tests.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The uninterrupted, fault-free result every service run must match."""
    store = ArtifactStore(tmp_path_factory.mktemp("baseline-store"))
    return SweepService(tiny_spec(), axes=AXES, store=store, jobs=1).run()


# --------------------------------------------------------------------------
# WorkQueue journal.
# --------------------------------------------------------------------------


class TestWorkQueue:
    def test_lifecycle_and_counts(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 3)
        assert q.pending_indices() == [0, 1, 2]
        q.mark_running(0, owner="w1")
        q.mark_done(0, result={"records": [], "stage_status": {}})
        q.mark_running(1)
        q.mark_requeued(1, error="transient")
        q.mark_running(2)
        q.mark_failed(2, "boom")
        assert q.counts() == {"pending": 1, "running": 0, "done": 1,
                              "failed": 1}
        assert q.record(1).attempts == 1
        assert q.record(2).error == "boom"

    def test_replay_reconstructs_state(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 3)
        q.mark_running(0, owner="w1")
        q.mark_done(0, result={"records": [{"x": 1}], "stage_status": {}})
        q.mark_running(1)
        q.mark_requeued(1, error="transient")
        q.close()
        q2 = WorkQueue(tmp_path / "j", "fp", 3, resume=True)
        assert q2.done_indices() == [0]
        assert q2.record(0).status == "done"
        assert q2.record(1).status == "pending"
        assert q2.record(1).attempts == 1
        assert q2.load_result(0) == {"records": [{"x": 1}], "stage_status": {}}

    def test_running_tasks_normalize_to_pending_on_resume(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0, owner="died")
        q.close()  # process "crashed" mid-point
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        rec = q2.record(0)
        assert rec.status == "pending"
        assert rec.attempts == 1  # the interrupted attempt stays counted
        assert rec.interrupted

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.mark_done(0, result={"records": [], "stage_status": {}})
        q.close()
        with open(q.journal_path, "a") as fh:
            fh.write('{"e": "start", "i": 1, "t":')  # torn mid-write
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q2.record(0).status == "done"
        assert q2.record(1).status == "pending"

    def test_done_without_result_payload_demotes_to_pending(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.close()
        # Model a defective done event that carries no result payload
        # (e.g. written by a buggy or older producer).
        with open(q.journal_path, "a") as fh:
            fh.write('{"e": "done", "i": 0, "t": 0.0, "o": null}\n')
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q2.record(0).status == "pending"

    def test_torn_done_line_demotes_only_that_point(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.mark_done(0, result={"records": [{"x": 1}], "stage_status": {}})
        q.mark_running(1)
        q.mark_done(1, result={"records": [{"x": 2}], "stage_status": {}})
        q.close()
        # Tear the final done line (killed mid-append): point 1 loses
        # its completion and must re-run; point 0 is untouched.
        raw = q.journal_path.read_text().splitlines()
        torn = raw[-1][: len(raw[-1]) // 2]
        q.journal_path.write_text("\n".join(raw[:-1]) + "\n" + torn)
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q2.record(0).status == "done"
        assert q2.load_result(0) == {"records": [{"x": 1}], "stage_status": {}}
        assert q2.record(1).status == "pending"

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        WorkQueue(tmp_path / "j", "fp-a", 2).close()
        with pytest.raises(ValueError, match="different sweep"):
            WorkQueue(tmp_path / "j", "fp-b", 2, resume=True)
        with pytest.raises(ValueError, match="refusing to resume"):
            WorkQueue(tmp_path / "j", "fp-a", 3, resume=True)

    def test_fresh_open_discards_old_journal(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2)
        q.mark_running(0)
        q.mark_done(0, result={"records": [], "stage_status": {}})
        q.close()
        q2 = WorkQueue(tmp_path / "j", "fp", 2, resume=False)
        assert q2.pending_indices() == [0, 1]
        assert q2.load_result(0) is None

    def test_resume_with_no_journal_starts_fresh(self, tmp_path):
        q = WorkQueue(tmp_path / "j", "fp", 2, resume=True)
        assert q.pending_indices() == [0, 1]


# --------------------------------------------------------------------------
# Fault plans.
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_round_trip_and_selection(self):
        plan = FaultPlan(faults=(
            Fault(point=1, action="fail"),
            Fault(point=1, action="delay", attempt=2, seconds=0.5),
        ))
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert [f.action for f in again.for_point(1, 1)] == ["fail"]
        assert [f.action for f in again.for_point(1, 2)] == ["delay"]
        assert again.for_point(0, 1) == []

    def test_fail_fault_raises(self):
        plan = FaultPlan(faults=(Fault(point=0, action="fail"),))
        with pytest.raises(FaultInjected):
            plan.fire_before(0, 1)
        plan.fire_before(0, 2)  # attempt 2 is clean

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault(point=0, action="explode")
        with pytest.raises(ValueError, match="1-based"):
            Fault(point=0, action="kill", attempt=0)
        with pytest.raises(ValueError, match="unknown fault field"):
            Fault.from_dict({"point": 0, "action": "kill", "when": "now"})

    def test_seeded_kills_deterministic(self):
        a = FaultPlan.seeded_kills(100, seed=7, rate=0.1)
        b = FaultPlan.seeded_kills(100, seed=7, rate=0.1)
        assert a == b
        assert len(a.faults) == 10
        assert all(f.action == "kill" for f in a.faults)
        assert FaultPlan.seeded_kills(100, seed=8, rate=0.1) != a


# --------------------------------------------------------------------------
# Store corruption quarantine (satellite b).
# --------------------------------------------------------------------------


class TestStoreQuarantine:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path, caplog):
        store = ArtifactStore(tmp_path / "store")
        spec = tiny_spec()
        run_experiment(spec, store=store)
        key = stage_key(spec, "substrate")
        corrupt_artifact(store, key, mode="garbage")
        fresh = ArtifactStore(tmp_path / "store")  # no memory layer
        with caplog.at_level(logging.WARNING, logger="repro.exp.store"):
            found, _ = fresh.get(key)
        assert not found
        assert "quarantin" in caplog.text
        quarantined = store.path_for(key).with_name(
            store.path_for(key).name + ".corrupt"
        )
        assert quarantined.exists()
        assert not store.path_for(key).exists()
        # The recompute republishes into the now-empty slot.
        rerun = run_experiment(spec, store=fresh)
        assert rerun.stage_status["substrate"] == "computed"
        assert fresh.get(key)[0]

    def test_truncated_entry_is_also_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = tiny_spec()
        run_experiment(spec, store=store)
        key = stage_key(spec, "design")
        corrupt_artifact(store, key, mode="truncate")
        assert not ArtifactStore(tmp_path / "store").get(key)[0]


# --------------------------------------------------------------------------
# Point failures: quarantined by name, other points' rows kept.
# --------------------------------------------------------------------------

#: Point 1 (a negative aggregate) fails in the design stage every time.
FAILING_AXES = {"design.aggregate_gbps": [20.0, -5.0]}


class TestPointQuarantine:
    def _run(self, tmp_path, jobs):
        service = SweepService(
            tiny_spec(), axes=FAILING_AXES,
            store=ArtifactStore(tmp_path / "s"), jobs=jobs,
            retry=RetryPolicy(max_attempts=1), poll_interval_s=0.05,
        )
        return service.run()

    def _assert_point_1_quarantined(self, result):
        assert [f.index for f in result.failures] == [1]
        failure = result.failures[0]
        assert failure.assignment == {"design.aggregate_gbps": -5.0}
        assert failure.attempts == 1
        assert "ValueError" in failure.error
        assert "aggregate" in failure.error
        assert not result.interrupted
        # Point 0's rows survive; point 1 contributes none.
        assert result.records
        assert all(row["point"] == 0 for row in result.records)
        assert result.points[1].records == []

    def test_inline_failure_names_point_and_keeps_rows(self, tmp_path):
        self._assert_point_1_quarantined(self._run(tmp_path, jobs=1))

    def test_pool_failure_names_point(self, tmp_path):
        self._assert_point_1_quarantined(self._run(tmp_path, jobs=2))


# --------------------------------------------------------------------------
# SweepService.
# --------------------------------------------------------------------------


class TestSweepService:
    def test_matches_sweep_runner_byte_for_byte(self, tmp_path, baseline):
        service = SweepService(
            tiny_spec(), axes=AXES,
            store=ArtifactStore(tmp_path / "s"), jobs=1, retry=FAST_RETRY,
        )
        result = service.run()
        assert result.records_json() == baseline.records_json()
        assert result.executed_points == 4
        assert not result.interrupted
        assert not result.failures
        # A clean sweep writes no quarantine report.
        assert not service.queue.failure_report_path.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journal_free_nullstore_sweep_matches_journaled(
        self, tmp_path, monkeypatch, jobs
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        journaled = SweepService(
            tiny_spec(), axes=AXES, store=NullStore(), jobs=jobs,
            journal_dir=tmp_path / "journal",
        ).run()
        before = set(tmp_path.iterdir())
        service = SweepService(
            tiny_spec(), axes=AXES, store=NullStore(), jobs=jobs
        )
        assert service.journal_dir is None
        private = service.queue.journal_dir
        assert private.parent == tmp_path
        result = service.run()
        assert result.records_json() == journaled.records_json()
        assert result.journal_dir is None
        assert not private.exists()
        assert set(tmp_path.iterdir()) == before
        assert service.queue.counts()["done"] == len(service.points)

    def test_journal_free_resume_raises(self):
        with pytest.raises(ValueError, match="journal_dir"):
            SweepService(
                tiny_spec(), axes=AXES, store=NullStore(), resume=True
            )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_run_releases_journal_fd(self, tmp_path, baseline):
        store = ArtifactStore(tmp_path / "s")
        SweepService(tiny_spec(), axes=AXES, store=store).run()  # warm up
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            service = SweepService(tiny_spec(), axes=AXES, store=store)
            result = service.run()
            assert result.records_json() == baseline.records_json()
            assert service.queue.counts()["done"] == len(service.points)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_transient_fault_retries_to_success(self, tmp_path, baseline):
        plan = FaultPlan(faults=(Fault(point=1, action="fail", attempt=1),))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=1, retry=FAST_RETRY, fault_plan=plan,
        )
        result = service.run()
        assert result.records_json() == baseline.records_json()
        assert service.queue.record(1).attempts == 2
        assert not result.failures

    def test_deterministic_failure_quarantines_without_aborting(
        self, tmp_path, baseline
    ):
        plan = FaultPlan(faults=tuple(
            Fault(point=2, action="fail", attempt=a) for a in (1, 2, 3)
        ))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=1, retry=FAST_RETRY, fault_plan=plan,
        )
        result = service.run()
        # Every other point completed; the table is the baseline minus
        # point 2's rows.
        expected = [r for r in baseline.records if r["point"] != 2]
        assert result.records == expected
        assert [f.index for f in result.failures] == [2]
        assert result.failures[0].attempts == 3
        assert "FaultInjected" in result.failures[0].error
        report = json.loads(service.queue.failure_report_path.read_text())
        assert report["counts"]["failed"] == 1
        assert report["failures"][0]["index"] == 2
        assert not result.interrupted

    def test_stop_then_resume_is_byte_identical(self, tmp_path, baseline):
        store = ArtifactStore(tmp_path / "s")
        service = SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY,
        )
        seen = []

        def stop_after_two(index, rows):
            seen.append(index)
            if len(seen) == 2:
                service.request_stop()

        first = service.run(on_point=stop_after_two)
        assert first.interrupted
        assert len(service.queue.done_indices()) == 2
        resumed = SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY,
            resume=True,
        )
        result = resumed.run()
        assert result.records_json() == baseline.records_json()
        assert not result.interrupted
        assert result.resumed_points == 2
        assert result.executed_points == 2
        # Shared expensive stages came from the first session's store:
        # nothing completed re-executes.
        assert result.session_executed("substrate") == 0
        assert result.session_executed("design") <= 1

    def test_resume_of_complete_sweep_executes_nothing(
        self, tmp_path, baseline
    ):
        store = ArtifactStore(tmp_path / "s")
        SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY
        ).run()
        again = SweepService(
            tiny_spec(), axes=AXES, store=store, jobs=1, retry=FAST_RETRY,
            resume=True,
        ).run()
        assert again.records_json() == baseline.records_json()
        assert again.executed_points == 0
        assert again.resumed_points == 4

    def test_fingerprint_distinguishes_sweeps(self):
        spec = tiny_spec()
        a = sweep_fingerprint(spec, _axis_list(AXES))
        b = sweep_fingerprint(
            spec, _axis_list({"design.budget_towers": [100.0, 200.0]})
        )
        assert a != b
        assert a == sweep_fingerprint(spec, _axis_list(AXES))

    def test_retry_policy_backoff_deterministic(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.5, seed=3)
        assert policy.delay_s(1, 0) == 0.0
        d2, d3 = policy.delay_s(2, 5), policy.delay_s(3, 5)
        assert 0.5 <= d2 <= 0.5 * 1.25
        assert 1.0 <= d3 <= 1.0 * 1.25
        assert policy.delay_s(2, 5) == d2  # same seed, same jitter
        assert RetryPolicy(max_attempts=4, backoff_base_s=0.5,
                           seed=4).delay_s(2, 5) != d2


class TestSweepServicePool:
    """Pool-mode chaos: dead workers and the watchdog."""

    def test_killed_worker_respawns_pool_and_completes(
        self, tmp_path, baseline
    ):
        plan = FaultPlan(faults=(Fault(point=2, action="kill", attempt=1),))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=2, retry=FAST_RETRY, fault_plan=plan,
            poll_interval_s=0.05,
        )
        result = service.run()
        assert result.records_json() == baseline.records_json()
        assert result.pool_restarts >= 1
        assert not result.failures

    def test_watchdog_kills_stalled_point(self, tmp_path, baseline):
        plan = FaultPlan(faults=(
            Fault(point=1, action="delay", attempt=1, seconds=60.0),
        ))
        service = SweepService(
            tiny_spec(), axes=AXES, store=ArtifactStore(tmp_path / "s"),
            jobs=2, retry=FAST_RETRY, fault_plan=plan,
            point_timeout_s=2.0, poll_interval_s=0.1,
        )
        start = time.monotonic()
        result = service.run()
        assert time.monotonic() - start < 40.0  # far less than the 60s stall
        assert result.records_json() == baseline.records_json()
        assert result.pool_restarts >= 1
        assert not result.failures


# --------------------------------------------------------------------------
# CLI: crash resume, SIGINT checkpoint, quarantine exit codes.
# --------------------------------------------------------------------------


SPEC_DOC = {
    "spec": {
        "scenario": {"name": "us", "sites": 6, "seed": 42},
        "design": {
            "budget_towers": 150.0,
            "solver": "heuristic",
            "aggregate_gbps": 20.0,
            "solver_opts": {"ilp_refinement": False},
        },
        "netsim": {"loads": [0.3, 0.9], "engine": "fluid", "seed": 0},
        "econ": {},
    },
    "axes": {
        "design.budget_towers": [100.0, 150.0],
        "netsim.loads": [[0.3], [0.9]],
    },
}


def _cli_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(args, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_cli_env(), cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture()
def cli_sweep_dir(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC_DOC))
    return tmp_path


class TestCliFaultTolerance:
    def test_parent_crash_then_resume_byte_identical(self, cli_sweep_dir):
        # The uninterrupted reference run (separate store).
        clean = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "ref-store"],
            cli_sweep_dir,
        )
        assert clean.returncode == 0, clean.stderr
        # A kill fault in inline mode os._exit()s the parent process —
        # the SIGKILL-the-driver crash of the acceptance contract.
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [{"point": 2, "action": "kill", "attempt": 1}]}
        ))
        crashed = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--fault-plan", "plan.json"],
            cli_sweep_dir,
        )
        assert crashed.returncode == KILL_EXIT_CODE
        resumed = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--resume"],
            cli_sweep_dir,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout  # byte-identical records

    def test_sigint_checkpoints_and_prints_resume_command(
        self, cli_sweep_dir
    ):
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [
                {"point": 1, "action": "delay", "attempt": 1, "seconds": 15.0}
            ]}
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "spec.json", "--json",
             "--cache-dir", "store", "--fault-plan", "plan.json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_cli_env(), cwd=cli_sweep_dir,
        )
        # Give the run time to finish point 0 and enter point 1's delay.
        time.sleep(10)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 130, err
        assert "point(s) done" in err
        assert "resume with: python -m repro run spec.json" in err
        assert "--resume" in err
        # And the printed command actually completes the sweep.
        clean = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "ref-store"],
            cli_sweep_dir,
        )
        resumed = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--fault-plan", "plan.json", "--resume"],
            cli_sweep_dir,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout

    def test_quarantined_sweep_exits_one_with_report(self, cli_sweep_dir):
        (cli_sweep_dir / "plan.json").write_text(json.dumps(
            {"faults": [
                {"point": 0, "action": "fail", "attempt": a}
                for a in (1, 2)
            ]}
        ))
        out = _run_cli(
            ["run", "spec.json", "--json", "--cache-dir", "store",
             "--fault-plan", "plan.json", "--retries", "2"],
            cli_sweep_dir,
        )
        assert out.returncode == 1
        assert "quarantined" in out.stderr
        assert "point 0" in out.stderr
        rows = json.loads(out.stdout)
        assert rows and all(row["point"] != 0 for row in rows)

    def test_resume_without_journal_location_is_rejected(self, cli_sweep_dir):
        out = _run_cli(
            ["run", "spec.json", "--no-cache", "--resume"], cli_sweep_dir
        )
        assert out.returncode != 0
        assert "--journal-dir" in out.stderr

    def test_no_cache_sweep_quarantines_without_report(self, cli_sweep_dir):
        doc = dict(SPEC_DOC, axes={"design.aggregate_gbps": [20.0, -5.0]})
        (cli_sweep_dir / "spec.json").write_text(json.dumps(doc))
        out = _run_cli(
            ["run", "spec.json", "--json", "--no-cache", "--retries", "1"],
            cli_sweep_dir,
        )
        assert out.returncode == 1, out.stderr
        assert "1 point(s) quarantined after retries:" in out.stderr
        assert "point 1" in out.stderr
        rows = json.loads(out.stdout)
        assert rows and all(row["point"] == 0 for row in rows)
