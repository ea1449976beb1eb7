"""Sweep execution: the one executor behind every sweep.

:class:`SweepService` expands a base spec over declared axes (the
cartesian product, first axis outermost), runs every point through
:func:`~repro.exp.runner.run_experiment`, and assembles one tidy records
table in point order.  Each point is a durable task in a
:class:`~repro.exp.queue.WorkQueue` journal, and a supervisor loop
executes the points with

* **bounded retry** with exponential backoff + deterministic jitter
  (:class:`RetryPolicy`) — a point that keeps failing is quarantined
  into the failure report while the rest of the sweep completes;
* **worker heartbeats** — each pool worker runs a daemon thread that
  atomically rewrites ``hb/worker-<pid>.json`` with its pid, current
  task, and a wall-clock stamp;
* a **watchdog** that SIGKILLs workers whose point exceeds the
  per-point timeout or whose heartbeat goes stale, and treats the
  resulting ``BrokenProcessPool`` (the same signal an OOM-killed worker
  produces) as a *restart*, not an abort: in-flight points are requeued
  with their attempt counted and a fresh pool is spawned;
* **crash resume** — ``SweepService(..., resume=True)`` re-executes
  only points without a ``done`` journal entry.  The journal records
  *metadata* (status, attempts, owners); the rows themselves re-derive
  from the content-addressed artifact store, where every completed
  stage of a done point is already cached — so collecting a resumed
  point is pure cache hits (a missing or corrupt artifact recomputes
  deterministically) and the resumed ``records_json()`` is
  byte-identical to an uninterrupted run.

The journal lives next to the artifact store (or in ``journal_dir``).
A :class:`~repro.exp.store.NullStore` sweep with no ``journal_dir`` has
nowhere durable to checkpoint, so it journals into a private temporary
directory that :meth:`SweepService.run` removes; such a sweep runs once
and cannot resume.

Determinism contract: retries, pool restarts, and resume change *when*
a point executes, never *what* it computes — every stage is a pure
function of its seed-pinned spec slice, and the table is assembled in
point order.  A ``jobs=4`` run is byte-identical to ``jobs=1``, and a
warm-cache rerun is byte-identical to the cold run while skipping every
substrate/design execution.

``jobs=1`` executes points inline (no pool, no watchdog);
``jobs>=2`` runs the supervised pool, scheduled in :func:`point_waves`
so shared substrate/design stages compute once.  A seed-pinned
:class:`~repro.exp.faults.FaultPlan` can be injected to
deterministically kill workers, delay points, or corrupt artifacts —
the chaos tests and ``bench_sweep_service.py`` are built on it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import random
import shutil
import signal
import tempfile
import threading
import time
import traceback
from collections import deque
from collections.abc import Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .faults import FaultPlan
from .queue import DONE, FAILED, RUNNING, WorkQueue
from .runner import ExperimentRun, run_experiment
from .spec import ExperimentSpec, canonical_json
from .stages import BASE_STAGES, stage_key
from .store import ArtifactStore, CACHED, COMPUTED, NullStore

logger = logging.getLogger(__name__)

#: Worker heartbeat period (pool mode).
HEARTBEAT_INTERVAL_S = 0.5

#: Heartbeat age past which the watchdog counts a pool worker as dead or
#: frozen and kills it.
STALL_TIMEOUT_S = 15.0


# --------------------------------------------------------------------------
# Sweep points.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted spec path and its values.

    ``path`` addresses a field of an enabled spec section, e.g.
    ``"design.budget_towers"`` or ``"netsim.loads"``.
    """

    path: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.path!r} needs at least one value")


def _axis_list(
    axes: Mapping[str, Sequence] | Sequence[SweepAxis],
) -> tuple[SweepAxis, ...]:
    if isinstance(axes, Mapping):
        return tuple(SweepAxis(path, tuple(values)) for path, values in axes.items())
    return tuple(
        a if isinstance(a, SweepAxis) else SweepAxis(a[0], tuple(a[1])) for a in axes
    )


def expand_points(
    base_spec: ExperimentSpec, axes: tuple[SweepAxis, ...]
) -> list[tuple[dict, ExperimentSpec]]:
    """(axis-assignment, spec) for every sweep point, in sweep order.

    The cartesian product of the axis values, first axis outermost —
    the single source of point indexing (a journal written by one
    session must mean the same points to the session that resumes it).
    """
    combos = itertools.product(*(axis.values for axis in axes))
    points = []
    for combo in combos:
        spec = base_spec
        assignment: dict[str, Any] = {}
        for axis, value in zip(axes, combo):
            spec = spec.with_value(axis.path, value)
            assignment[axis.path] = value
        points.append((assignment, spec))
    return points


def point_waves(
    points: list[tuple[dict, ExperimentSpec]],
    store: ArtifactStore,
    indices: Sequence[int] | None = None,
) -> list[list[int]]:
    """Schedule points so shared expensive stages compute once.

    Cold points sharing a substrate or design key would otherwise
    race: every worker misses the store at the same time and
    redundantly rebuilds the same artifact.  Each wave runs one
    representative point per distinct stage key (substrate first,
    then design) so later waves find the shared artifacts published;
    on a warm store the extra barriers cost microseconds.  With a
    NullStore nothing is shareable, so there is one wave.

    ``indices`` restricts scheduling to a subset of the points (the
    resume path only schedules points without a journal entry).
    """
    order = list(range(len(points))) if indices is None else list(indices)
    if isinstance(store, NullStore):
        return [order] if order else []
    remaining = order
    waves: list[list[int]] = []
    for stage_name in BASE_STAGES:
        reps: list[int] = []
        rest: list[int] = []
        seen: set[str] = set()
        for index in remaining:
            key = stage_key(points[index][1], stage_name)
            if key in seen:
                rest.append(index)
            else:
                seen.add(key)
                reps.append(index)
        if rest:  # sharing exists at this level: barrier after reps
            waves.append(reps)
            remaining = rest
    if remaining:
        waves.append(remaining)
    return waves


def sweep_fingerprint(
    base_spec: ExperimentSpec, axes: tuple[SweepAxis, ...]
) -> str:
    """Content hash identifying one sweep (spec + axes, order-sensitive)."""
    doc = {
        "spec": base_spec.to_dict(),
        "axes": [[axis.path, list(axis.values)] for axis in axes],
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attributes:
        max_attempts: total tries per point (1 = no retry) before the
            point is quarantined.
        backoff_base_s: delay before the 2nd attempt; doubles per retry.
        backoff_cap_s: upper bound on the backoff delay.
        jitter: fraction of the delay added as seeded pseudo-random
            jitter (de-synchronizes retry storms without wall-clock
            randomness — the same seed always jitters identically).
        seed: jitter seed.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int, point: int) -> float:
        """Seconds to wait before running ``attempt`` (2-based) of ``point``."""
        if attempt <= 1 or self.backoff_base_s <= 0:
            return 0.0
        base = min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 2))
        rng = random.Random(self.seed * 1_000_003 + point * 1_009 + attempt)
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class PointFailure:
    """One quarantined sweep point (retries exhausted)."""

    index: int
    assignment: dict
    attempts: int
    error: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "assignment": {
                path: list(v) if isinstance(v, tuple) else v
                for path, v in self.assignment.items()
            },
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SweepResult:
    """A finished sweep: the tidy table plus execution accounting.

    ``records`` / ``records_json()`` cover the *done* points only, in
    point order — for a sweep with no quarantined points the table is
    byte-identical whatever ``jobs`` was, and whether the points ran in
    one shot or across crashes and resumes.

    Attributes:
        axes: the sweep axes, first axis outermost.
        records: one row per (done point, stage row), in point order;
            every row carries ``point`` plus one column per axis path.
        points: the per-point :class:`ExperimentRun` summaries
            (records + stage status), in point order; a point that did
            not finish has empty records and status.
        stage_counts: stage -> {"computed": n, "cached": n} aggregated
            over all done points.
        failures: quarantined points (index, assignment, attempts, last
            error), also persisted to ``failures.json`` in the journal.
        interrupted: the run stopped early (``request_stop`` / SIGINT);
            pending points remain journaled for ``resume=True``.
        resumed_points: points whose rows were loaded from the journal
            instead of executing.
        executed_points: points actually executed this session.
        pool_restarts: how many times the watchdog respawned the pool.
        journal_dir: where the journal (and failure report) lives;
            ``None`` for a journal-free sweep.
        session_stage_counts: like ``stage_counts``, for the points
            executed this session only.
    """

    axes: tuple[SweepAxis, ...]
    records: list[dict]
    points: list[ExperimentRun]
    stage_counts: dict[str, dict[str, int]]
    failures: list[PointFailure] = field(default_factory=list)
    interrupted: bool = False
    resumed_points: int = 0
    executed_points: int = 0
    pool_restarts: int = 0
    journal_dir: Path | None = None
    session_stage_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def records_json(self) -> str:
        """Canonical JSON of the table (byte-comparable across runs)."""
        return canonical_json(self.records)

    def executed(self, stage: str) -> int:
        """How many points actually *computed* this stage (vs cache hits)."""
        return self.stage_counts.get(stage, {}).get(COMPUTED, 0)

    def session_executed(self, stage: str) -> int:
        """Stage executions (not cache hits) *this session* only."""
        return self.session_stage_counts.get(stage, {}).get(COMPUTED, 0)


# --------------------------------------------------------------------------
# Worker side: heartbeat thread + point executor.
# --------------------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Daemon thread atomically rewriting this worker's heartbeat file."""

    def __init__(self, hb_dir: str, interval_s: float) -> None:
        super().__init__(daemon=True, name="repro-sweep-heartbeat")
        self.path = Path(hb_dir) / f"worker-{os.getpid()}.json"
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._task: int | None = None
        self._attempt: int | None = None
        self._since: float | None = None

    def set_task(self, index: int | None, attempt: int | None) -> None:
        with self._lock:
            self._task = index
            self._attempt = attempt
            self._since = time.time() if index is not None else None
        self.beat()

    def beat(self) -> None:
        with self._lock:
            doc = {
                "pid": os.getpid(),
                "task": self._task,
                "attempt": self._attempt,
                "since": self._since,
                "time": time.time(),
            }
        tmp = self.path.with_name(f"{self.path.name}.tmp")
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True))
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - journal dir vanished
            pass

    def run(self) -> None:  # pragma: no cover - timing-dependent loop
        while True:
            self.beat()
            time.sleep(self.interval_s)


_WORKER_HEARTBEAT: _Heartbeat | None = None


def _ensure_heartbeat(hb_dir: str) -> _Heartbeat:
    global _WORKER_HEARTBEAT
    if _WORKER_HEARTBEAT is None:
        _WORKER_HEARTBEAT = _Heartbeat(hb_dir, HEARTBEAT_INTERVAL_S)
        _WORKER_HEARTBEAT.start()
    return _WORKER_HEARTBEAT


#: One store per (worker process, root): keeps the store's per-process
#: memory layer effective across the several points a worker executes.
_WORKER_STORES: dict[str | None, ArtifactStore] = {}


def _worker_store(store_root: str | None) -> ArtifactStore:
    if store_root not in _WORKER_STORES:
        _WORKER_STORES[store_root] = (
            ArtifactStore(store_root) if store_root is not None else NullStore()
        )
    return _WORKER_STORES[store_root]


def _service_worker(
    spec_dict: dict,
    store_root: str | None,
    index: int,
    attempt: int,
    hb_dir: str,
    fault_doc: dict | None,
) -> tuple:
    """Pool entry: run one point, reporting errors as data (never raising).

    A raised exception would poison only this future; returning
    ``("error", ...)`` keeps the supervisor's retry bookkeeping in one
    place and reserves exceptions for genuine pool breakage.
    """
    heartbeat = _ensure_heartbeat(hb_dir)
    heartbeat.set_task(index, attempt)
    try:
        plan = FaultPlan.from_dict(fault_doc) if fault_doc else None
        if plan is not None:
            plan.fire_before(index, attempt)
        spec = ExperimentSpec.from_dict(spec_dict)
        store = _worker_store(store_root)
        run = run_experiment(spec, store=store)
        if plan is not None:
            plan.fire_after(index, attempt, spec, store)
        return (index, "ok", run.records, run.stage_status, os.getpid())
    except Exception as exc:
        return (
            index,
            "error",
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(limit=20),
            os.getpid(),
        )
    finally:
        heartbeat.set_task(None, None)


# --------------------------------------------------------------------------
# Supervisor.
# --------------------------------------------------------------------------


class SweepService:
    """Checkpointed, crash-resumable sweep executor (see module docs).

    Args:
        base_spec: the spec every point starts from.
        axes: mapping of dotted spec path -> values (or ``SweepAxis``
            list); the sweep is the cartesian product, first axis
            outermost.
        store: shared artifact cache (an on-disk store for reuse across
            points, processes and sessions; ``NullStore`` disables
            caching).  The journal lives under
            ``<store root>/sweeps/<fingerprint>`` unless ``journal_dir``
            overrides it; a :class:`NullStore` with no ``journal_dir``
            journals into a private temporary directory that
            :meth:`run` removes.
        jobs: worker processes; 1 executes points inline.
        journal_dir: explicit journal location.
        resume: load the existing journal and execute only points
            without a ``done`` entry (needs a durable journal).
        retry: bounded-retry policy (attempts, backoff, jitter).
        point_timeout_s: wall-clock budget per point attempt; the
            watchdog kills the worker past it (pool mode only).
        poll_interval_s: supervisor wait tick (watchdog granularity).
        fault_plan: deterministic fault injection for chaos tests.

    Example::

        service = SweepService(
            spec,
            axes={"design.budget_towers": [500, 1000, 1500],
                  "netsim.loads": [(0.3,), (0.9,)]},
            jobs=4,
        )
        result = service.run()
    """

    def __init__(
        self,
        base_spec: ExperimentSpec,
        axes: Mapping[str, Sequence] | Sequence[SweepAxis],
        store: ArtifactStore | None = None,
        jobs: int = 1,
        journal_dir: Path | str | None = None,
        resume: bool = False,
        retry: RetryPolicy | None = None,
        point_timeout_s: float | None = None,
        poll_interval_s: float = 0.25,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.base_spec = base_spec
        self.axes = _axis_list(axes)
        self.store = store if store is not None else ArtifactStore()
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self.point_timeout_s = point_timeout_s
        self.poll_interval_s = poll_interval_s
        self.fault_plan = fault_plan
        # Fail fast on bad paths / disabled sections before any work runs.
        for axis in self.axes:
            base_spec.with_value(axis.path, axis.values[0])
        self.points = expand_points(base_spec, self.axes)
        self.fingerprint = sweep_fingerprint(base_spec, self.axes)
        # The durable journal location; None when the journal is private.
        self.journal_dir: Path | None = None
        self._private_journal: str | None = None
        if journal_dir is not None:
            self.journal_dir = Path(journal_dir)
        elif not isinstance(self.store, NullStore):
            self.journal_dir = (
                Path(self.store.root) / "sweeps" / self.fingerprint[:16]
            )
        elif resume:
            raise ValueError(
                "resume=True needs a durable journal: pass journal_dir "
                "(a NullStore sweep without one journals privately and "
                "cannot resume)"
            )
        else:
            self._private_journal = tempfile.mkdtemp(prefix="repro-sweep-")
        self.queue = WorkQueue(
            self.journal_dir or self._private_journal,
            self.fingerprint,
            len(self.points),
            resume=resume,
        )
        self._stop = threading.Event()
        self._restarts = 0
        self._executed = 0
        self._kill_reasons: dict[int, str] = {}
        self._on_point: Callable[[int, list[dict]], None] | None = None

    # -- control ----------------------------------------------------------

    def request_stop(self) -> None:
        """Checkpoint and stop after the in-flight points settle.

        Safe to call from a signal handler; the journal is already
        durable, so stopping loses no completed work.
        """
        self._stop.set()

    # -- execution --------------------------------------------------------

    def run(
        self, on_point: Callable[[int, list[dict]], None] | None = None
    ) -> SweepResult:
        """Execute (or resume) the sweep; see the class docs.

        ``on_point(index, rows)`` fires for points executed this
        session, in completion order (journal-resumed points are loaded,
        not re-announced).

        The journal file is closed when this returns (queue queries
        such as ``service.queue.counts()`` keep working), and a private
        journal directory is removed.
        """
        self._on_point = on_point
        try:
            resumed = len(self.queue.done_indices())
            self._session_counts: dict[str, dict[str, int]] = {}
            self._session_records: dict[int, list[dict]] = {}
            pending = self.queue.pending_indices()
            if pending and not self._stop.is_set():
                if self.jobs == 1:
                    self._run_inline(pending)
                else:
                    self._run_pool(pending)
            return self._collect(resumed)
        finally:
            self.queue.close()
            if self._private_journal is not None:
                shutil.rmtree(self._private_journal, ignore_errors=True)

    # .. inline (jobs=1) ..................................................

    def _run_inline(self, pending: list[int]) -> None:
        owner = f"inline:{os.getpid()}"
        # No wave scheduling inline: one process never races itself, and
        # the store's memory layer already dedups shared stages — wave
        # key hashing would only add per-point overhead.
        ready = deque(pending)
        retry_at: dict[int, float] = {}
        while (ready or retry_at) and not self._stop.is_set():
            if ready:
                index = ready.popleft()
            else:  # everything left is backing off; sleep to the next
                index, when = min(retry_at.items(), key=lambda kv: kv[1])
                delay = when - time.monotonic()
                if delay > 0:
                    self._stop.wait(delay)
                    if self._stop.is_set():
                        break
                del retry_at[index]
            attempt = self.queue.record(index).attempts + 1
            self.queue.mark_running(index, owner=owner)
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire_before(index, attempt)
                run = run_experiment(self.points[index][1], store=self.store)
                if self.fault_plan is not None:
                    self.fault_plan.fire_after(
                        index, attempt, self.points[index][1], self.store
                    )
            except Exception as exc:
                when = self._note_failure(
                    index, attempt, f"{type(exc).__name__}: {exc}"
                )
                if when is not None:
                    retry_at[index] = when
            else:
                self._finish_point(
                    index, attempt, run.records, run.stage_status, owner
                )

    # .. pool (jobs>=2) ...................................................

    def _spawn_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs)

    def _run_pool(self, pending: list[int]) -> None:
        self._clear_heartbeats()
        store_root = (
            None if isinstance(self.store, NullStore) else str(self.store.root)
        )
        fault_doc = (
            self.fault_plan.to_dict() if self.fault_plan is not None else None
        )
        pool = self._spawn_pool()
        futures: dict[Any, int] = {}
        try:
            for wave in point_waves(self.points, self.store, indices=pending):
                remaining = set(wave)
                retry_at: dict[int, float] = {}
                attempt_of: dict[int, int] = {}
                while (remaining or futures) and not self._stop.is_set():
                    now = time.monotonic()
                    in_flight = set(futures.values())
                    for index in sorted(remaining - in_flight):
                        if retry_at.get(index, 0.0) > now:
                            continue
                        attempt = self.queue.record(index).attempts + 1
                        attempt_of[index] = attempt
                        self.queue.mark_running(
                            index, owner=f"pool#{self._restarts}"
                        )
                        future = pool.submit(
                            _service_worker,
                            self.points[index][1].to_dict(),
                            store_root,
                            index,
                            attempt,
                            str(self.queue.heartbeat_dir),
                            fault_doc,
                        )
                        futures[future] = index
                    if not futures:
                        next_ready = min(
                            retry_at.get(i, 0.0) for i in remaining
                        )
                        self._stop.wait(
                            min(
                                self.poll_interval_s,
                                max(0.0, next_ready - now),
                            )
                        )
                        continue
                    done, _ = wait(
                        set(futures),
                        timeout=self.poll_interval_s,
                        return_when=FIRST_COMPLETED,
                    )
                    try:
                        for future in done:
                            # Pop only after result(): a BrokenProcessPool
                            # must leave the dead worker's point in
                            # ``futures`` so recovery requeues it too.
                            index = futures[future]
                            payload = future.result()
                            del futures[future]
                            self._absorb(
                                index,
                                attempt_of.get(index, 1),
                                payload,
                                retry_at,
                                remaining,
                            )
                    except BrokenProcessPool:
                        pool = self._recover_pool(
                            pool, futures, attempt_of, retry_at, remaining
                        )
                        futures = {}
                        continue
                    victims = self._watchdog_victims(set(futures.values()))
                    if victims:
                        self._kill_workers(victims)
                if self._stop.is_set():
                    break  # keep this wave's in-flight futures for requeue
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            if self._stop.is_set():
                # Futures already handed to workers may still finish,
                # but their results are lost with this process — put
                # their journal state back to pending so resume re-runs
                # them (the started attempt stays counted).
                for index in sorted(set(futures.values())):
                    if self.queue.record(index).status == RUNNING:
                        self.queue.mark_requeued(
                            index, error="interrupted by stop request"
                        )

    def _absorb(
        self,
        index: int,
        attempt: int,
        payload: tuple,
        retry_at: dict[int, float],
        remaining: set[int],
    ) -> None:
        kind = payload[1]
        if kind == "ok":
            _, _, records, stage_status, pid = payload
            self._finish_point(
                index, attempt, records, stage_status, f"pid:{pid}"
            )
            remaining.discard(index)
        else:
            _, _, message, tb, _pid = payload
            logger.debug("sweep point %d attempt %d traceback:\n%s",
                         index, attempt, tb)
            when = self._note_failure(index, attempt, message)
            if when is None:
                remaining.discard(index)
            else:
                retry_at[index] = when

    def _finish_point(
        self,
        index: int,
        attempt: int,
        records: list[dict],
        stage_status: dict[str, str],
        owner: str,
    ) -> None:
        # Rows stay in memory for this session's _collect; the journal
        # gets only the completion summary.  Rows for points finished in
        # an *earlier* session re-derive from the artifact store.
        self._session_records[index] = records
        self.queue.mark_done(
            index,
            owner=owner,
            result={
                "stage_status": stage_status,
                "attempts": attempt,
                "owner": owner,
            },
        )
        self._executed += 1
        if self._on_point is not None:
            self._on_point(index, records)

    def _note_failure(self, index: int, attempt: int, message: str):
        """Quarantine (returns None) or requeue (returns retry time)."""
        if attempt >= self.retry.max_attempts:
            self.queue.mark_failed(index, message)
            logger.warning(
                "sweep point %d quarantined after %d attempt(s): %s",
                index,
                attempt,
                message,
            )
            return None
        self.queue.mark_requeued(index, error=message)
        delay = self.retry.delay_s(attempt + 1, index)
        logger.info(
            "sweep point %d attempt %d failed (%s); retrying in %.2fs",
            index,
            attempt,
            message,
            delay,
        )
        return time.monotonic() + delay

    # .. watchdog .........................................................

    def _read_heartbeats(self) -> list[dict]:
        beats = []
        try:
            entries = sorted(self.queue.heartbeat_dir.glob("worker-*.json"))
        except OSError:  # pragma: no cover - journal dir vanished
            return []
        for path in entries:
            try:
                beats.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # mid-replace or torn; next tick will see it
        return beats

    def _clear_heartbeats(self) -> None:
        for path in self.queue.heartbeat_dir.glob("worker-*.json*"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def _watchdog_victims(self, in_flight: set[int]) -> dict[int, int]:
        """pid -> task index for workers that must die (timeout/stall)."""
        victims: dict[int, int] = {}
        now = time.time()
        for beat in self._read_heartbeats():
            pid, task = beat.get("pid"), beat.get("task")
            if pid is None or task is None or task not in in_flight:
                continue
            since = beat.get("since") or now
            stamp = beat.get("time") or now
            if (
                self.point_timeout_s is not None
                and now - since > self.point_timeout_s
            ):
                self._kill_reasons[task] = (
                    f"watchdog: point exceeded {self.point_timeout_s:.1f}s "
                    f"timeout (worker pid {pid} killed)"
                )
                victims[pid] = task
            elif now - stamp > STALL_TIMEOUT_S:
                self._kill_reasons[task] = (
                    f"watchdog: worker pid {pid} heartbeat stale for "
                    f"{now - stamp:.1f}s (killed)"
                )
                victims[pid] = task
        return victims

    def _kill_workers(self, victims: dict[int, int]) -> None:
        for pid, task in victims.items():
            logger.warning(
                "watchdog killing worker pid %d (point %d): %s",
                pid,
                task,
                self._kill_reasons.get(task, "stalled"),
            )
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        # The broken pool surfaces as BrokenProcessPool on the next wait.

    def _recover_pool(
        self,
        pool: ProcessPoolExecutor,
        futures: dict[Any, int],
        attempt_of: dict[int, int],
        retry_at: dict[int, float],
        remaining: set[int],
    ) -> ProcessPoolExecutor:
        """Respawn after worker death: requeue in-flight points, new pool."""
        interrupted = sorted(set(futures.values()))
        logger.warning(
            "worker pool broke with %d point(s) in flight (%s); respawning",
            len(interrupted),
            interrupted,
        )
        for index in interrupted:
            reason = self._kill_reasons.pop(
                index, "worker process died (pool broken)"
            )
            when = self._note_failure(
                index,
                attempt_of.get(index, self.queue.record(index).attempts),
                reason,
            )
            if when is None:
                remaining.discard(index)
            else:
                retry_at[index] = when
        # Reap any survivors of the broken pool (e.g. a stalled worker
        # whose sibling died) so they cannot double-write artifacts.
        for beat in self._read_heartbeats():
            pid = beat.get("pid")
            if pid is not None and pid != os.getpid():
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        pool.shutdown(wait=False, cancel_futures=True)
        self._clear_heartbeats()
        self._kill_reasons.clear()
        self._restarts += 1
        return self._spawn_pool()

    # -- assembly ---------------------------------------------------------

    def _collect(self, resumed: int) -> SweepResult:
        table: list[dict] = []
        runs: list[ExperimentRun] = []
        counts: dict[str, dict[str, int]] = {}
        failures: list[PointFailure] = []
        unfinished = 0
        for index, (assignment, spec) in enumerate(self.points):
            rec = self.queue.record(index)
            records: list[dict] = []
            stage_status: dict[str, str] = {}
            if rec.status == DONE:
                payload = self.queue.load_result(index)
                if payload is None:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"journal says point {index} is done but its result "
                        f"payload is unreadable ({self.queue.journal_path})"
                    )
                records = self._session_records.get(index)
                this_session = records is not None
                if records is None:
                    # Finished in an earlier session: re-derive the rows
                    # from the artifact store.  Every stage of a done
                    # point is cached, so this is pure lookups; a lost
                    # or corrupt artifact recomputes deterministically.
                    records = run_experiment(spec, store=self.store).records
                stage_status = payload["stage_status"]
                for stage_name, outcome in stage_status.items():
                    bucket = counts.setdefault(
                        stage_name, {COMPUTED: 0, CACHED: 0}
                    )
                    bucket[outcome] = bucket.get(outcome, 0) + 1
                    if this_session:
                        bucket = self._session_counts.setdefault(
                            stage_name, {COMPUTED: 0, CACHED: 0}
                        )
                        bucket[outcome] = bucket.get(outcome, 0) + 1
                for row in records:
                    table.append({"point": index, **assignment, **row})
            elif rec.status == FAILED:
                failures.append(
                    PointFailure(
                        index=index,
                        assignment=dict(assignment),
                        attempts=rec.attempts,
                        error=rec.error or "unknown error",
                    )
                )
            else:
                unfinished += 1
            runs.append(
                ExperimentRun(
                    spec=spec,
                    records=records,
                    stage_status=stage_status,
                    artifacts={},
                )
            )
        self.queue.write_failure_report([f.to_dict() for f in failures])
        return SweepResult(
            axes=self.axes,
            records=table,
            points=runs,
            stage_counts=counts,
            failures=failures,
            interrupted=unfinished > 0,
            resumed_points=resumed,
            executed_points=self._executed,
            pool_restarts=self._restarts,
            journal_dir=self.journal_dir,
            session_stage_counts=self._session_counts,
        )
