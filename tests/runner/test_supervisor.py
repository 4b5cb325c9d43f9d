"""Tests for the supervised process pool: workers that die and hang.

SIGKILL'd workers (the ``worker.kill`` fault site) and SIGSTOP'd workers
(a stale heartbeat — the hang signature) must both be detected, the
worker respawned and the task requeued; tasks that destroy every worker
they touch degrade into FAILED envelopes under the
``completed + failed + timed_out == submitted`` accounting.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.runner import (
    ExperimentEngine,
    SupervisedPool,
    resilience,
    sweep_orphan_heartbeats,
)
from repro.runner.resilience import FaultPlan, FaultSpec, RetryPolicy

PARAMS = [{"x": i} for i in range(6)]


def _square(params: dict) -> dict:
    return {"ok": True, "y": params["x"] * params["x"]}


def _hang_once(params: dict) -> dict:
    """SIGSTOP the worker on the first dispatch (flag file absent); run
    normally on a redispatch.  SIGSTOP freezes every thread — including
    the heartbeat — which is exactly the hang the monitor must detect."""
    flag = params.get("flag")
    if flag and not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("stopped once")
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"ok": True, "y": params["x"]}


def _hang_always(params: dict) -> dict:
    os.kill(os.getpid(), signal.SIGSTOP)
    return {"ok": True}  # unreachable: the worker is stopped until killed


def _run_supervised(
    plan=None,
    fn=_square,
    params=PARAMS,
    retry=None,
    heartbeat_timeout=30.0,
):
    if plan is not None:
        resilience.activate(plan)
    try:
        engine = ExperimentEngine(
            jobs=2,
            cache=None,
            retry=retry,
            supervised=True,
            heartbeat_timeout=heartbeat_timeout,
        )
        out = engine.map_cached("unit", fn, params)
        return out, engine
    finally:
        resilience.deactivate()


class TestPoolBasics:
    def test_matches_serial_results_in_submission_order(self):
        serial = ExperimentEngine(jobs=1, cache=None).map_cached(
            "unit", _square, PARAMS
        )
        out, engine = _run_supervised()
        assert out == serial
        assert engine.stats.respawned == 0
        assert engine.stats.completed == len(PARAMS)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            SupervisedPool(2, heartbeat_timeout=0.0)

    def test_empty_task_list(self):
        assert SupervisedPool(2).run([]) == []


class TestDeadWorkerRecovery:
    def test_sigkilled_worker_is_respawned_and_task_requeued(self):
        plan = FaultPlan([FaultSpec("worker.kill", "unit#2", times=1)])
        out, engine = _run_supervised(plan)
        assert out == [{"ok": True, "y": p["x"] ** 2} for p in PARAMS]
        assert engine.stats.respawned == 1
        assert engine.stats.completed == len(PARAMS)
        assert engine.stats.failed == 0 and engine.stats.timed_out == 0
        victim = next(o for o in engine.stats.outcomes if o.label == "unit#2")
        assert victim.status == "ok"
        assert victim.respawned == 1
        assert any(f.startswith("worker.dead@1") for f in victim.faults)

    def test_multiple_victims_all_recover(self):
        plan = FaultPlan(
            [
                FaultSpec("worker.kill", "unit#1", times=1),
                FaultSpec("worker.kill", "unit#4", times=1),
            ]
        )
        out, engine = _run_supervised(plan)
        assert out == [{"ok": True, "y": p["x"] ** 2} for p in PARAMS]
        assert engine.stats.respawned == 2
        assert engine.stats.completed == len(PARAMS)

    def test_poisoned_task_degrades_to_failed(self):
        """A task that kills EVERY worker it touches must exhaust its
        dispatch budget and fail — without wedging the other tasks."""
        plan = FaultPlan([FaultSpec("worker.kill", "unit#0", times=0)])
        retry = RetryPolicy(max_attempts=2, backoff=0.0)
        out, engine = _run_supervised(plan, retry=retry)
        assert out[0]["ok"] is False
        assert out[0]["error_type"] == "WorkerCrash"
        assert out[1:] == [{"ok": True, "y": p["x"] ** 2} for p in PARAMS[1:]]
        assert engine.stats.failed == 1
        assert engine.stats.respawned == 2  # one per doomed dispatch
        assert (
            engine.stats.completed + engine.stats.failed + engine.stats.timed_out
            == len(PARAMS)
        )
        victim = next(o for o in engine.stats.outcomes if o.label == "unit#0")
        assert victim.status == "failed"
        assert victim.attempts == 2 and victim.respawned == 2


class TestHungWorkerRecovery:
    def test_sigstopped_worker_is_killed_respawned_and_task_redispatched(
        self, tmp_path
    ):
        params = [dict(p) for p in PARAMS]
        params[2]["flag"] = str(tmp_path / "hang-once")
        out, engine = _run_supervised(
            fn=_hang_once, params=params, heartbeat_timeout=0.6
        )
        assert out == [{"ok": True, "y": p["x"]} for p in PARAMS]
        assert engine.stats.respawned >= 1
        assert engine.stats.completed == len(PARAMS)
        victim = next(o for o in engine.stats.outcomes if o.label == "unit#2")
        assert victim.status == "ok"
        assert any(f.startswith("worker.hung@") for f in victim.faults)

    def test_always_hanging_task_times_out(self):
        retry = RetryPolicy(max_attempts=2, backoff=0.0)
        out, engine = _run_supervised(
            fn=_hang_always,
            params=[{"x": 0}, {"x": 1}],
            retry=retry,
            heartbeat_timeout=0.5,
        )
        assert all(p["ok"] is False for p in out)
        assert engine.stats.timed_out == 2
        assert (
            engine.stats.completed + engine.stats.failed + engine.stats.timed_out
            == 2
        )
        for o in engine.stats.outcomes:
            assert o.status == "timed_out"
            assert o.attempts == 2
            assert any(f.startswith("worker.hung@") for f in o.faults)


class TestJournalIntegration:
    def test_supervised_run_journals_completions_and_resumes(self, tmp_path):
        from repro.runner import RunJournal, scan_journal
        from repro.runner.journal import JOURNAL_NAME

        plan = FaultPlan([FaultSpec("worker.kill", "unit#1", times=1)])
        resilience.activate(plan)
        try:
            engine = ExperimentEngine(
                jobs=2, cache=None, supervised=True, heartbeat_timeout=30.0
            )
            engine.journal = RunJournal(tmp_path)
            ref = engine.map_cached("unit", _square, PARAMS)
            engine.journal.close()
        finally:
            resilience.deactivate()
        scan = scan_journal(tmp_path / JOURNAL_NAME)
        assert scan.pending() == {}
        assert len(scan.completed()) == len(PARAMS)

        resumed = ExperimentEngine(jobs=1, cache=None)
        resumed.load_resume_state(scan)
        assert resumed.map_cached("unit", _square, PARAMS) == ref
        assert resumed.stats.resumed == len(PARAMS)


def _dead_pid() -> int:
    """A pid guaranteed dead: a reaped child's."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestOrphanHeartbeatSweep:
    def test_removes_dead_owner_dirs_only(self, tmp_path):
        dead = tmp_path / f"repro-supervisor-pid{_dead_pid()}-a1b2"
        live = tmp_path / f"repro-supervisor-pid{os.getpid()}-c3d4"
        foreign = tmp_path / "repro-supervisor-c3d4"  # pre-pid naming
        unparseable = tmp_path / "repro-supervisor-pidxyz-e5f6"
        for d in (dead, live, foreign, unparseable):
            d.mkdir()
            (d / "hb-0").write_text("beat")
        not_a_dir = tmp_path / f"repro-supervisor-pid{_dead_pid()}-file"
        not_a_dir.write_text("stray file, not a heartbeat dir")

        assert sweep_orphan_heartbeats(tmp_path) == 1
        assert not dead.exists()
        assert live.exists() and foreign.exists() and unparseable.exists()
        assert not_a_dir.exists()
        # Idempotent: a second sweep finds nothing left to reap.
        assert sweep_orphan_heartbeats(tmp_path) == 0

    def test_pool_run_sweeps_orphans_on_start(self):
        import tempfile
        from pathlib import Path

        orphan = Path(tempfile.gettempdir()) / (
            f"repro-supervisor-pid{_dead_pid()}-testorphan"
        )
        orphan.mkdir()
        (orphan / "hb-0").write_text("beat")
        try:
            out = SupervisedPool(1).run(
                [(_square, {"x": 3}, "k0", None, False, "unit#0", None, None)]
            )
            assert out[0]["payload"]["ok"] and out[0]["payload"]["y"] == 9
            assert not orphan.exists()  # swept before the run started
        finally:
            if orphan.exists():
                import shutil

                shutil.rmtree(orphan, ignore_errors=True)


#: Run by a subprocess: a local pool (``sys.argv[2]``: the supervised
#: pool or the engine's plain one) whose two workers record their pids
#: and then sit in a long task until the test SIGKILLs the subprocess.
_HOLDER = """
import os, sys, time
from repro.runner import ExperimentEngine

def hold(params):
    open(os.path.join(params["dir"], str(os.getpid())), "w").close()
    time.sleep(120)
    return {"ok": True}

if __name__ == "__main__":
    engine = ExperimentEngine(
        jobs=2, cache=None, supervised=sys.argv[2] == "supervised",
        heartbeat_timeout=0.5,
    )
    engine.map_cached("hold", hold, [{"dir": sys.argv[1], "x": i} for i in range(2)])
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live, non-zombie process (an orphan that
    exited may linger as a zombie until its new parent reaps it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to the signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")


class TestOrphanedWorkers:
    @pytest.mark.parametrize("pool", ["supervised", "plain"])
    def test_workers_exit_when_their_parent_is_sigkilled(self, tmp_path, pool):
        script = tmp_path / "holder.py"
        script.write_text(_HOLDER)
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        src = str(Path(repro.__file__).resolve().parents[1])
        holder = subprocess.Popen(
            [sys.executable, str(script), str(pids_dir), pool],
            env={**os.environ, "PYTHONPATH": src},
        )
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = [int(p.name) for p in pids_dir.iterdir()]
            assert len(pids) == 2, "the pool's workers never started"
            holder.kill()
            holder.wait(timeout=10)
            # Six parent checks of a plain-pool worker (0.5 s apart),
            # thirty of a supervised one: generous for a loaded host.
            deadline = time.monotonic() + 3.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _running(pid)]
            assert not survivors, f"orphaned workers still running: {survivors}"
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            sweep_orphan_heartbeats()  # the killed holder's heartbeat dir
