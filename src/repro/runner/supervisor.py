"""Supervised process-pool execution: workers that can die and hang.

``concurrent.futures.ProcessPoolExecutor`` treats a dead worker as a
broken pool — one SIGKILL'd (OOM'd, segfaulted) process aborts the whole
campaign, and a hung worker wedges it forever.  :class:`SupervisedPool`
replaces it for runs that must survive both:

* every worker is a real :mod:`multiprocessing` process with a
  **heartbeat file** touched by a daemon thread every
  ``heartbeat_interval`` seconds, and it ends itself once its parent is
  gone (:func:`exit_with_parent`), so a SIGKILLed run leaves no workers
  behind;
* the parent's monitor loop detects **dead** workers (``is_alive()``
  false — SIGKILL, OOM, segfault) and **hung** workers (heartbeat older
  than ``heartbeat_timeout`` while holding a task — a C-level deadlock
  or a stopped process), kills the hung ones, **respawns** a
  replacement, and **requeues** the task the victim held;
* requeues are budgeted by the run's existing
  :class:`~repro.runner.resilience.RetryPolicy` (``max_attempts``
  dispatches per task): a poisoned unit that kills every worker it
  touches degrades into the standard FAILED payload instead of wedging
  the campaign, preserving ``completed + failed + timed_out ==
  submitted`` accounting.

Tasks are the same tuples :func:`repro.runner.engine._pool_worker`
executes, so cache I/O, retry-within-worker, fault plans and
observability deltas all behave exactly as in the plain pool; results
are returned in submission order, keeping supervised runs bit-identical
to serial ones.  The deterministic ``worker.kill`` fault site
(:func:`~repro.runner.resilience.worker_kill_point`) fires inside the
worker loop at task start, so chaos tests can SIGKILL precisely chosen
dispatches.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import resilience
from ..observability import count
from .resilience import JobOutcome, RetryPolicy, failure_payload

__all__ = [
    "SupervisedPool",
    "WorkerCrash",
    "exit_with_parent",
    "sweep_orphan_heartbeats",
]

#: Heartbeat directories are ``<tmp>/repro-supervisor-pid<PID>-<random>``:
#: the owning monitor's pid is embedded in the name so a later pool can
#: tell an orphan (owner dead — the monitor itself was SIGKILLed before
#: its ``rmtree`` ran) from a live sibling pool's directory.
_HEARTBEAT_PREFIX = "repro-supervisor-"


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM) — definitely alive
    return True


def sweep_orphan_heartbeats(root: Path | str | None = None) -> int:
    """Remove heartbeat dirs whose owning monitor process is gone.

    A SIGKILLed monitor never reaches the ``rmtree`` in its ``finally``
    block, leaking ``hb-*`` files in the temp dir forever.  Each pool
    run sweeps on start: any ``repro-supervisor-pid<PID>-*`` directory
    whose pid no longer exists is an orphan and is deleted.  Directories
    without a parseable pid (foreign or pre-pid-format) are left alone.
    Returns the number of directories removed.
    """
    root = Path(root if root is not None else tempfile.gettempdir())
    removed = 0
    for path in root.glob(_HEARTBEAT_PREFIX + "pid*"):
        if not path.is_dir():
            continue
        pid_text = path.name[len(_HEARTBEAT_PREFIX) + 3 :].split("-", 1)[0]
        if not pid_text.isdigit():
            continue
        if _pid_alive(int(pid_text)):
            continue
        shutil.rmtree(path, ignore_errors=True)
        removed += 1
    if removed:
        count("supervisor.orphans_swept", removed)
    return removed


class WorkerCrash(Exception):
    """A task's worker died or hung; used to build its FAILED payload."""


def exit_with_parent(interval: float = 0.5) -> None:
    """End this process within ``interval`` seconds of its parent's death.

    A pool worker blocks on its task queue, and a SIGKILLed parent never
    sends the stop sentinel, so the orphan (re-parented, ``os.getppid()``
    changed) would wait forever.  Starts a daemon thread that polls the
    parent pid; every local pool worker calls this at start-up.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(interval)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _worker_main(
    worker_id: int,
    task_q,
    result_q,
    heartbeat_path: str,
    heartbeat_interval: float,
) -> None:
    """Worker process body: beat, take tasks, execute, report.

    The heartbeat is a daemon thread touching ``heartbeat_path`` — it
    stops only when the whole process stops (SIGKILL, SIGSTOP, C-level
    deadlock holding the GIL), which is precisely the condition the
    monitor needs to observe.  The worker also exits once the parent is
    gone, checked at the same interval.
    """
    # Imported here (not at module top) to avoid an import cycle:
    # engine imports supervisor for the pool, supervisor needs engine's
    # worker body at execution time only.
    from .engine import _pool_worker

    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            try:
                Path(heartbeat_path).touch()
            except OSError:
                pass
            stop.wait(heartbeat_interval)

    threading.Thread(target=beat, daemon=True).start()
    exit_with_parent(heartbeat_interval)
    while True:
        item = task_q.get()
        if item is None:
            break
        idx, task, prior_attempts = item
        label = task[5]
        plan_doc = task[7]
        # The kill site must see the task's fault plan before the worker
        # body installs it; a forked worker otherwise carries the
        # parent's (already-advanced) counters.
        if plan_doc is not None:
            resilience.activate(resilience.FaultPlan.from_dict(plan_doc))
        else:
            resilience.deactivate()
        resilience.worker_kill_point(label, prior_attempts)  # may not return
        try:
            envelope = _pool_worker(task)
        except BaseException as exc:  # defensive: report, never die silently
            envelope = {
                "payload": failure_payload(exc, "failed"),
                "cached": False,
                "wall": 0.0,
                "outcome": JobOutcome(
                    label, "failed", faults=[f"{type(exc).__name__}@worker"],
                    error=str(exc),
                ).as_dict(),
                "cache_stats": {},
            }
        result_q.put((worker_id, idx, envelope))
    stop.set()


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    id: int
    proc: mp.Process
    task_q: object
    heartbeat: Path
    busy: tuple | None = None  # (idx, task, attempts) currently held


class SupervisedPool:
    """Self-healing process pool with heartbeat monitoring.

    Parameters
    ----------
    workers:
        Worker-process count.
    policy:
        The :class:`RetryPolicy` bounding dispatches per task
        (``max_attempts``); ``None`` uses the defaults.
    heartbeat_timeout:
        Seconds of heartbeat silence from a *busy* worker before it is
        declared hung, killed, and replaced.
    heartbeat_interval:
        Seconds between worker heartbeats (default: ``timeout / 5``,
        floored at 50 ms).
    """

    def __init__(
        self,
        workers: int,
        policy: RetryPolicy | None = None,
        heartbeat_timeout: float = 30.0,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, heartbeat_timeout / 5.0)
        )
        self.poll_interval = poll_interval
        self.respawned = 0  # workers replaced (dead + hung)
        self.requeued = 0  # task dispatches repeated after a worker loss
        self._ctx = mp.get_context()
        self._next_id = 0
        self._fault_history: dict[int, list[str]] = {}

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, hb_dir: Path, result_q) -> _Worker:
        wid = self._next_id
        self._next_id += 1
        hb = hb_dir / f"hb-{wid}"
        hb.touch()  # valid from birth: never stale before the first beat
        task_q = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, result_q, str(hb), self.heartbeat_interval),
            daemon=True,
        )
        proc.start()
        return _Worker(id=wid, proc=proc, task_q=task_q, heartbeat=hb)

    def _kill(self, worker: _Worker) -> None:
        try:
            os.kill(worker.proc.pid, signal.SIGKILL)
        except (OSError, TypeError):
            pass
        worker.proc.join(timeout=5.0)

    def _stale(self, worker: _Worker) -> float | None:
        """Heartbeat age if beyond the timeout, else ``None``."""
        try:
            age = time.time() - worker.heartbeat.stat().st_mtime
        except OSError:
            return None  # file missing: worker not started yet; not stale
        return age if age > self.heartbeat_timeout else None

    # -- the run loop --------------------------------------------------

    def run(self, tasks: list[tuple], on_result=None) -> list[dict]:
        """Execute every task, surviving worker deaths and hangs.

        Returns envelopes in submission order.  ``on_result(idx,
        envelope)`` fires as each task completes (in completion order) —
        the engine journals from it, so a crash of the *parent* after a
        callback still finds that unit's record on disk.
        """
        results: list[dict | None] = [None] * len(tasks)
        if not tasks:
            return []
        backlog: list[tuple] = [
            (idx, task, 0) for idx, task in reversed(list(enumerate(tasks)))
        ]
        self._fault_history = {}  # idx -> worker-loss fault strings
        sweep_orphan_heartbeats()
        hb_dir = Path(
            tempfile.mkdtemp(prefix=f"{_HEARTBEAT_PREFIX}pid{os.getpid()}-")
        )
        result_q = self._ctx.SimpleQueue()
        fleet: list[_Worker] = []
        remaining = len(tasks)
        try:
            for _ in range(min(self.workers, len(tasks))):
                fleet.append(self._spawn(hb_dir, result_q))
            while remaining:
                self._dispatch(fleet, backlog)
                remaining -= self._drain(fleet, result_q, results, on_result)
                remaining -= self._police(
                    fleet, backlog, hb_dir, result_q, results, on_result
                )
        finally:
            for w in fleet:
                if w.proc.is_alive():
                    try:
                        w.task_q.put(None)
                    except (OSError, ValueError):
                        pass
            deadline = time.time() + 5.0
            for w in fleet:
                w.proc.join(timeout=max(0.0, deadline - time.time()))
                if w.proc.is_alive():
                    self._kill(w)
            shutil.rmtree(hb_dir, ignore_errors=True)
        return results  # type: ignore[return-value]

    def _dispatch(self, fleet: list[_Worker], backlog: list[tuple]) -> None:
        for w in fleet:
            if not backlog:
                return
            if w.busy is None and w.proc.is_alive():
                item = backlog.pop()
                w.busy = item
                w.task_q.put(item)

    def _drain(self, fleet, result_q, results, on_result) -> int:
        """Absorb every ready result; returns how many tasks finished."""
        finished = 0
        while True:
            try:
                # SimpleQueue has no timeout; poll the pipe instead.
                if not result_q._reader.poll(self.poll_interval):
                    return finished
                wid, idx, envelope = result_q.get()
            except (OSError, EOFError):
                return finished
            for w in fleet:
                if w.id == wid:
                    w.busy = None
                    break
            if results[idx] is not None:
                continue  # late duplicate from a worker we already wrote off
            history = self._fault_history.get(idx)
            if history and envelope.get("outcome") is not None:
                # The unit survived one or more worker losses before this
                # completion: stamp the provenance into its outcome.
                envelope["outcome"]["respawned"] = len(history)
                envelope["outcome"]["faults"] = (
                    history + list(envelope["outcome"].get("faults", []))
                )
            results[idx] = envelope
            finished += 1
            if on_result is not None:
                on_result(idx, envelope)

    def _police(
        self, fleet, backlog, hb_dir, result_q, results, on_result
    ) -> int:
        """Detect dead/hung workers; respawn and requeue.  Returns the
        number of tasks that exhausted their dispatch budget here."""
        finished = 0
        for i, w in enumerate(fleet):
            dead = not w.proc.is_alive()
            stale = None if dead else (self._stale(w) if w.busy else None)
            if not dead and stale is None:
                continue
            if not dead:
                self._kill(w)  # hung: SIGKILL works on stopped/deadlocked
            victim = w.busy
            self.respawned += 1
            fleet[i] = self._spawn(hb_dir, result_q)
            if victim is None:
                continue  # died between tasks: nothing to requeue
            idx, task, attempts = victim
            if results[idx] is not None:
                continue  # its result arrived before the death was seen
            attempts += 1
            label = task[5]
            kind = (
                f"worker.hung@{attempts}(stale {stale:.1f}s)"
                if stale is not None
                else f"worker.dead@{attempts}"
            )
            faults = self._fault_history.setdefault(idx, [])
            faults.append(kind)
            if attempts < self.policy.max_attempts:
                self.requeued += 1
                backlog.append((idx, task, attempts))
                continue
            status = "timed_out" if stale is not None else "failed"
            err = WorkerCrash(
                f"{label}: worker {'hung' if stale is not None else 'died'} "
                f"on all {attempts} dispatches"
            )
            outcome = JobOutcome(
                label,
                status,
                attempts=attempts,
                faults=list(faults),
                error=str(err),
                respawned=attempts,
            )
            envelope = {
                "payload": failure_payload(err, status),
                "cached": False,
                "wall": 0.0,
                "outcome": outcome.as_dict(),
                "cache_stats": {},
            }
            results[idx] = envelope
            finished += 1
            if on_result is not None:
                on_result(idx, envelope)
        return finished
