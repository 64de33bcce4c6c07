"""Task executors: one stage driver over a thread pool or worker processes.

Tasks are Python callables operating on in-memory partitions.  What matters
for the reproduction is that the execution exposes the same *shape* as a
distributed engine — per-task metrics, stragglers, retried attempts — so
that campaign runs can be compared and the cluster simulator can
extrapolate costs.  Two backends implement that shape behind one interface
(``execute_stage`` / ``shutdown``), selected by
``EngineConfig.executor_backend``:

:class:`Executor`
    the default thread pool — simple, shares the driver address space,
    bounded by the GIL for CPU-bound work;
:class:`ProcessExecutor`
    forked worker processes — stage payloads (cut to what the stage reads,
    see :class:`_StageCut`) are pickled to the workers over a
    :class:`~repro.engine.transport.ShuffleTransport` and map output comes
    back as the span catalog of its frame files, so CPU-bound jobs get
    real multi-core speedups.

Both run every attempt through :func:`run_attempt` and settle every
attempt on the driver thread in one loop (:meth:`Executor._run_stage`), so
retries, deadlines and speculation exist once and results, fault injection
and metrics stay backend-invariant.  A backend differs only in how it
builds its pool and submits one attempt.
"""

from __future__ import annotations

import collections
import copy
import math
import multiprocessing
import os
import statistics
import tempfile
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import EngineConfig
from ..errors import SerializationError, TaskError
from . import serializer
from .dataset import (LineageStub, ParallelCollectionDataset,
                      ShuffleDependency)
from .metrics import StageMetrics, TaskContext, TaskMetrics
from .retry import (FAILURES, Faults, InjectedCrash, InjectedFailure,
                    NodeHealthTracker, attempt_failure, policy)

#: Floor on the speculation threshold: tasks faster than this are never
#: worth duplicating — the relaunch overhead exceeds any possible win.
_SPECULATION_MIN_S = 0.05

#: Poll interval for the settle loop when deadlines, speculation or
#: heartbeat checks need the driver to wake up between task completions.
_POLL_S = 0.02


class Task:
    """A unit of work: compute one partition of one stage."""

    def __init__(self, task_id: str, stage_id: int, partition: int):
        self.task_id = task_id
        self.stage_id = stage_id
        self.partition = partition

    def run(self, task_context: TaskContext) -> Any:
        """Execute the task and return its result."""
        raise NotImplementedError


class TaskResult:
    """The outcome of a successfully completed task."""

    def __init__(self, task: Task, value: Any, metrics: TaskMetrics):
        self.task = task
        self.value = value
        self.metrics = metrics


def run_attempt(task: Task, attempt: int, faults: Faults,
                hard_crash: bool = False,
                task_context: Optional[TaskContext] = None) -> Dict[str, Any]:
    """Run one attempt of ``task``; return its outcome as a plain dict.

    The ``task`` and ``crash`` fail points fire here, which both backends
    run, so a given attempt fails identically on both: each is drawn per
    ``(task id, attempt)`` under its own tag, so arming one never perturbs
    the other's decisions.  The
    outcome is ``ok``, ``duration_s`` and either ``value`` plus the
    ``TaskContext`` ``counters``, or ``error`` — (exception type name,
    message, formatted traceback) — plus ``failure``: the kind of
    :data:`~repro.engine.retry.FAILURES` it signals and its coordinates.
    An injected crash raises *before* the work on a thread; with
    ``hard_crash`` (a worker process) it kills the process *after* the
    work, leaving the partial output a killed worker leaves behind.
    """
    task_context = task_context or TaskContext()
    started = time.perf_counter()
    key = f"{task.task_id}:{attempt}"
    try:
        if faults.fires("task", key):
            raise InjectedFailure(
                f"injected failure for {task.task_id} attempt {attempt}")
        crash = faults.fires("crash", key)
        if crash and not hard_crash:
            raise InjectedCrash(
                f"injected crash for {task.task_id} attempt {attempt}")
        value = task.run(task_context)
        if crash:
            os._exit(17)  # skips atexit sweepers on purpose
    except Exception as error:  # noqa: BLE001 - settled by the driver
        return {"ok": False, "duration_s": time.perf_counter() - started,
                "error": (type(error).__name__, str(error),
                          traceback.format_exc()),
                "failure": attempt_failure(error)}
    return {"ok": True, "duration_s": time.perf_counter() - started,
            "value": value, "counters": task_context.counters()}


class _Attempt:
    """Driver-side record of one in-flight task attempt."""

    __slots__ = ("index", "attempt", "speculative", "started")

    def __init__(self, index: int, attempt: int, speculative: bool,
                 started: float):
        self.index = index
        self.attempt = attempt
        self.speculative = speculative
        #: Driver clock at submission.  Under a deadline or speculation at
        #: most ``num_workers`` attempts are in flight, so an attempt starts
        #: when it is submitted — unless an abandoned attempt still holds
        #: its worker.
        self.started = started


class _StageDrive:
    """Mutable state of one stage execution."""

    def __init__(self, tasks: Sequence[Task], stage: StageMetrics):
        self.tasks = tasks
        self.stage = stage
        #: Payload token of the process backend's published stage.
        self.token: Optional[str] = None
        self.completed: Dict[int, TaskResult] = {}
        self.active: Dict[Any, _Attempt] = {}
        #: Task indices waiting for a free slot; retries jump the queue.
        self.pending = collections.deque(range(len(tasks)))
        #: Failed or timed-out attempts per task index (the retry budget's
        #: one ledger).
        self.failures: List[int] = [0] * len(tasks)
        #: Next attempt number per task index — monotonic so every
        #: resubmission (retry, crash respawn, speculation) draws fresh
        #: seeded fault decisions.
        self.next_attempt: List[int] = [0] * len(tasks)
        #: Task indices already speculated in the current pool generation.
        self.speculated: set = set()
        #: Durations of successful attempts (median feeds speculation).
        self.durations: List[float] = []

    def has_active(self, index: int) -> bool:
        """Is any attempt of task ``index`` still in flight?"""
        return any(info.index == index for info in self.active.values())

    def restart(self) -> None:
        """Forget a dead pool's attempts; queue every unfinished task."""
        self.active.clear()
        self.speculated.clear()
        self.pending = collections.deque(
            index for index in range(len(self.tasks))
            if index not in self.completed)


class Executor:
    """Runs tasks on a thread pool, and holds the one stage driver.

    The pool is created on the first stage and then lives for the
    executor's lifetime; :meth:`shutdown` (called by
    ``EngineContext.stop``) joins its threads, abandoned attempts
    included.  Every attempt is settled on the driver thread, so stage
    metrics need no lock.
    """

    def __init__(self, config: EngineConfig,
                 clock: Callable[[], float] = time.perf_counter,
                 heartbeat_dir: Optional[Callable[[], str]] = None):
        self.config = config
        #: Clock of the running-time deadlines and speculation thresholds
        #: (never of reported durations); injectable so tests can expire a
        #: deadline without racing a sleep against it.
        self._clock = clock
        self._attempts = policy(config, "attempt")
        self.faults = Faults.of(config)
        beat_s = config.heartbeat_interval_s
        #: The worker ledger.  Only worker processes beat (``heartbeat_dir``)
        #: or take strikes (a thread settles no pid).
        self.health = NodeHealthTracker(
            failure_threshold=config.blacklist_failure_threshold,
            heartbeat_timeout_s=(config.heartbeat_timeout_s or 4 * beat_s)
            if beat_s > 0 else 0.0,
            heartbeat_dir=heartbeat_dir,
            blacklist_cooldown_s=config.blacklist_cooldown_s)
        #: Worker pids seen in settled outcomes of the live pool; a thread
        #: pool has none.
        self._pool_pids: set = set()
        self._pool = None
        self._pool_lock = threading.Lock()

    # -- backend surface ----------------------------------------------------

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.num_workers,
                    thread_name_prefix="repro-worker")
            return self._pool

    @property
    def _timed(self) -> bool:
        """Does a deadline or speculation watch attempts' running time?"""
        return bool(self.config.task_timeout_s
                    or self.config.speculation_multiplier > 0)

    def _submit(self, drive: _StageDrive, index: int, attempt: int):
        task = drive.tasks[index]
        if len(drive.tasks) == 1 and not self._timed:
            # nothing to overlap and no clock to watch: the driver runs it,
            # saving the two thread hand-offs of a pool round trip
            future = Future()
            future.set_result(run_attempt(task, attempt, self.faults))
            return future
        return self._get_pool().submit(run_attempt, task, attempt, self.faults)

    def _absorb(self, outcome: Dict[str, Any],
                metrics: Optional[TaskMetrics]) -> None:
        """Fold a settled attempt's side effects into the driver.

        ``metrics`` is ``None`` for the loser of a speculation race.  A
        thread shares the driver's address space, so there is nothing to
        fold.
        """

    def shutdown(self) -> None:
        """Join the pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def execute_stage(self, tasks: Sequence[Task],
                      stage: StageMetrics) -> List[TaskResult]:
        """Run every task of a stage on the pool; results in task order."""
        started = time.perf_counter()
        try:
            return self._run_stage(_StageDrive(tasks, stage))
        finally:
            stage.wall_clock_s = time.perf_counter() - started

    # -- the stage driver ---------------------------------------------------

    def _run_stage(self, drive: _StageDrive) -> List[TaskResult]:
        """Settle the stage's attempts until every task completes.

        Deadlines and speculation time an attempt from its submission, and
        a one-worker pool runs in submission order, so those keep at most
        ``num_workers`` attempts in flight (plus speculative duplicates)
        and a retry, at the front of the queue, runs next.  Otherwise the
        whole stage is queued at once, so a worker never idles while the
        driver wakes to refill it.  A stage that fails cancels what has not
        started and joins what has — abandoned attempts excepted — before
        the error propagates.
        """
        slots = self.config.num_workers \
            if self._timed or self.config.num_workers == 1 else len(drive.tasks)
        poll = _POLL_S if self._timed or self.health.watches_beats else None
        try:
            while len(drive.completed) < len(drive.tasks):
                while drive.pending and len(drive.active) < slots:
                    self._launch(drive, drive.pending.popleft())
                done, _ = wait(list(drive.active), timeout=poll,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    self._settle(drive, drive.active.pop(future),
                                 future.result())
                self._enforce_deadlines(drive)
                self._launch_speculations(drive)
                self.health.check_heartbeats(self._pool_pids)
        except BaseException:
            for future in drive.active:
                future.cancel()
            wait(list(drive.active))
            raise
        return [drive.completed[index] for index in range(len(drive.tasks))]

    def _launch(self, drive: _StageDrive, index: int,
                speculative: bool = False) -> None:
        """Submit the next attempt of task ``index``."""
        attempt = drive.next_attempt[index]
        drive.next_attempt[index] = attempt + 1
        # the clock is read first: an attempt must not start before its
        # deadline does
        info = _Attempt(index, attempt, speculative, self._clock())
        future = self._submit(drive, index, attempt)
        drive.active[future] = info

    @staticmethod
    def _attempt_metrics(drive: _StageDrive, info: _Attempt,
                         **fields: Any) -> TaskMetrics:
        task = drive.tasks[info.index]
        return TaskMetrics(task_id=task.task_id, stage_id=task.stage_id,
                           partition_index=task.partition,
                           attempt=info.attempt, speculative=info.speculative,
                           **fields)

    def _settle(self, drive: _StageDrive, info: _Attempt,
                outcome: Dict[str, Any]) -> None:
        """Fold one finished attempt into the stage.

        The first result of a task wins; a later one (a speculation loser)
        only reaches :meth:`_absorb`.  A failure whose ledger is the stage
        (lost map output, a rotten checkpoint span included) will not heal
        on a retry — the same damaged bytes would be read again — so it is
        raised to the scheduler, which recomputes it from lineage and reruns
        the stage; like the attempts a broken pool takes down, the attempt
        is counted by that rerun, not recorded as a failed attempt.  Any
        other failure is charged to the task's retry budget.
        """
        if info.index in drive.completed:
            self._absorb(outcome, None)
            return
        metrics = self._attempt_metrics(drive, info,
                                        duration_s=outcome["duration_s"],
                                        failed=not outcome["ok"])
        if outcome["ok"]:
            metrics.set_counters(outcome["counters"])
        self._absorb(outcome, metrics)
        if outcome["ok"]:
            drive.stage.add_task(metrics)
            drive.stage.speculative_wins += info.speculative
            drive.durations.append(metrics.duration_s)
            drive.completed[info.index] = TaskResult(
                drive.tasks[info.index], outcome["value"], metrics)
            return
        _, message, trace = outcome["error"]
        kind, coordinates = outcome["failure"]
        failure = FAILURES[kind]
        if failure.ledger == "stage":
            raise failure.detect[0](message, **coordinates)
        drive.stage.add_task(metrics)
        self._charge(drive, info.index, message, RuntimeError(trace))

    def _charge(self, drive: _StageDrive, index: int, reason: str,
                cause: Optional[Exception] = None) -> None:
        """Charge one failed or timed-out attempt to the task's budget.

        The budget is only *enforced* once no other attempt of the task is
        in flight, so a speculative duplicate gets to finish what the
        original could not; otherwise the task is retried next.
        """
        drive.failures[index] += 1
        if drive.has_active(index):
            return
        if drive.failures[index] > self._attempts.max_retries:
            task = drive.tasks[index]
            raise TaskError(f"task {task.task_id} failed after "
                            f"{drive.failures[index]} attempts: {reason}",
                            task_id=task.task_id, cause=cause)
        drive.pending.appendleft(index)

    def _enforce_deadlines(self, drive: _StageDrive) -> None:
        """Abandon attempts that overran ``task_timeout_s``.

        An abandoned attempt keeps running, but its future is dropped: its
        result is never settled.  A thread attempt may still write its map
        output; a retried map attempt replaces, never adds to, the shuffle
        totals, so that late write is harmless.
        """
        timeout = self.config.task_timeout_s
        if not timeout:
            return
        now = self._clock()
        for future, info in list(drive.active.items()):
            if now - info.started <= timeout:
                continue
            future.cancel()
            del drive.active[future]
            if info.index in drive.completed:
                continue
            drive.stage.add_task(self._attempt_metrics(
                drive, info, duration_s=timeout, failed=True, timed_out=True))
            self._charge(drive, info.index, f"exceeded its {timeout}s deadline")

    def _launch_speculations(self, drive: _StageDrive) -> None:
        """Duplicate stragglers once most of the stage has finished.

        Armed only past the ``speculation_quantile`` completion mark so the
        median runtime is a meaningful baseline; an attempt running longer
        than ``speculation_multiplier``× that median (floored at
        ``_SPECULATION_MIN_S``) gets one duplicate per pool generation,
        submitted with a fresh attempt number.  First result wins.
        """
        multiplier = self.config.speculation_multiplier
        total = len(drive.tasks)
        if multiplier <= 0 or total <= 1 or not drive.durations:
            return
        needed = max(1, math.ceil(total * self.config.speculation_quantile))
        if len(drive.completed) < needed:
            return
        threshold = max(multiplier * statistics.median(drive.durations),
                        _SPECULATION_MIN_S)
        now = self._clock()
        for info in list(drive.active.values()):
            if info.speculative or info.index in drive.speculated or \
                    info.index in drive.completed or \
                    now - info.started <= threshold:
                continue
            drive.speculated.add(info.index)
            self._launch(drive, info.index, speculative=True)
            drive.stage.speculative_launches += 1


class _StageCut:
    """The copy of a stage's task graphs that crosses the process boundary.

    A stage reads the spans of its complete upstream shuffles (checkpoints,
    broadcast builds and a dataset's ``split`` included) — never the
    lineage behind them.  Walking from each task root, the dependency edge
    into such lineage is replaced by an edge to a
    :class:`~repro.engine.dataset.LineageStub`; the datasets and
    dependencies between a root and a cut are shallow copies, everything
    untouched is shipped as the object it is, and the driver's graph is
    never mutated (fetch-failure and journal recovery both recompute from
    it and republish).  The cut is per edge: a dataset
    behind a complete shuffle on one path and read narrowly on another
    ships in full, because the narrow path reaches it.  A cached parent is
    *not* a cut — a worker may evict the seeded block and recompute.
    """

    def __init__(self, tasks: Sequence[Task],
                 is_complete: Callable[[int], bool]):
        self._is_complete = is_complete
        self._shipped: Dict[int, Any] = {}
        self._roots: Dict[int, Any] = {}
        #: Datasets the payload carries (stubs excluded), in walk order.
        self.datasets: List[Any] = []
        #: Ids of the complete shuffles the shipped graph reads.
        self.shuffle_ids: List[int] = []
        self.tasks = [self._ship_task(task) for task in tasks]

    def _ship_task(self, task: Task) -> Task:
        clone = copy.copy(task)
        if getattr(task, "_dataset", None) is not None:
            clone._dataset = self._ship(task._dataset)
        dependency = getattr(task, "_dependency", None)
        if dependency is not None:
            # the shuffle this task *writes*; its parent is the stage root.
            # One copy serves every task, so its closures pickle once.
            root = self._roots.get(id(dependency))
            if root is None:
                root = self._roots[id(dependency)] = self._reparent(
                    dependency, self._ship(dependency.parent))
            clone._dependency = root
        return clone

    @staticmethod
    def _reparent(dependency: Any, parent: Any) -> Any:
        if parent is dependency.parent:
            return dependency
        clone = copy.copy(dependency)
        clone.parent = parent
        return clone

    def _edge_parent(self, dependency: Any) -> Any:
        """What the payload carries behind one edge: the parent, or a stub."""
        if isinstance(dependency, ShuffleDependency) and \
                self._is_complete(dependency.shuffle_id):
            if dependency.shuffle_id not in self.shuffle_ids:
                self.shuffle_ids.append(dependency.shuffle_id)
            return LineageStub(dependency.parent)
        return self._ship(dependency.parent)

    def _ship(self, dataset: Any) -> Any:
        """``dataset`` as the payload carries it: itself, or a cut copy.

        The copy is shallow — it shares every other attribute value with
        the driver's object.  A ``split`` is one more shuffle edge, cut
        when its shuffle is complete; until then the payload has no catalog
        of it, and the tasks read the split partitions whole.
        """
        shipped = self._shipped.get(id(dataset))
        if shipped is not None:
            return shipped
        dependencies = [
            self._reparent(dependency, self._edge_parent(dependency))
            for dependency in dataset.dependencies]
        split = dataset.split
        shipped = dataset
        if split is not None or any(
                new is not old
                for new, old in zip(dependencies, dataset.dependencies)):
            shipped = copy.copy(dataset)
            shipped.dependencies = dependencies
        if split is not None:
            shipped.split = self._reparent(split, self._edge_parent(split))
        self._shipped[id(dataset)] = shipped
        self.datasets.append(shipped)
        return shipped


def _dumps_error(value: Any) -> Optional[str]:
    try:
        serializer.dumps(value)
        return None
    except Exception as fault:  # noqa: BLE001 - diagnosis only
        return str(fault) or type(fault).__name__


def _diagnose_unpicklable(tasks: Sequence[Task], datasets: List[Any],
                          error: Exception) -> str:
    """Name the graph node that cannot cross the process boundary.

    Probes every dataset's state attribute by attribute (dependencies
    excluded — their parents are probed as datasets, their own closures
    separately), so the failure message points at the offending node and
    field instead of at an anonymous pickling traceback.
    """
    for dataset in datasets:
        state = dataset.__getstate__()
        state.pop("dependencies", None)
        for attribute, value in state.items():
            fault = _dumps_error(value)
            if fault is not None:
                return (f"cannot ship stage to worker processes: dataset "
                        f"'{dataset.name}' (id {dataset.id}) holds "
                        f"unpicklable state in {attribute!r}: {fault}")
        for dependency in dataset.dependencies:
            for attribute, value in vars(dependency).items():
                if attribute == "parent":
                    continue
                fault = _dumps_error(value)
                if fault is not None:
                    return (f"cannot ship stage to worker processes: "
                            f"{type(dependency).__name__} of dataset "
                            f"'{dataset.name}' (id {dataset.id}) holds "
                            f"unpicklable state in {attribute!r}: {fault}")
    for task in tasks:
        func = getattr(task, "_func", None)
        if func is not None:
            fault = _dumps_error(func)
            if fault is not None:
                return (f"cannot ship stage to worker processes: task "
                        f"{task.task_id} action function is unpicklable: "
                        f"{fault}")
    return f"cannot ship stage to worker processes: {error}"


class ProcessExecutor(Executor):
    """Runs tasks on forked worker processes — the multi-core backend.

    Same stage driver and observable behaviour as :class:`Executor`; the
    differences are mechanical.  Each stage is serialized once into a
    payload (task graphs cut at complete shuffle boundaries, the span
    catalog of the shuffles they read, the cached blocks of the datasets
    they carry) published through the shuffle transport; workers run
    :func:`run_attempt` out of that payload and return its outcome plus
    the catalog of the map output written, dirty cache blocks and their
    pid, which :meth:`_absorb` adopts into the shuffle manager, the block
    store and the health tracker.
    """

    def __init__(self, config: EngineConfig, shuffle_manager=None,
                 block_store=None, memory_manager=None, transport=None,
                 clock: Callable[[], float] = time.perf_counter):
        self._owns_transport = transport is None
        if transport is None:
            # directly constructed executors (no engine context) still need
            # somewhere for payloads and map output to live
            from .transport import ShuffleTransport
            transport = ShuffleTransport(
                tempfile.mkdtemp(prefix="repro-transport-"))
        super().__init__(config, clock, heartbeat_dir=transport.heartbeat_dir)
        self._shuffle_manager = shuffle_manager
        self._block_store = block_store
        self._memory = memory_manager
        self._transport = transport

    # -- pool lifecycle -----------------------------------------------------

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                from . import worker as worker_runtime
                # fork keeps worker start cheap and inherits loaded modules;
                # platforms without it (Windows) fall back to their default
                methods = multiprocessing.get_all_start_methods()
                mp_context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.config.num_workers,
                    mp_context=mp_context,
                    initializer=worker_runtime.initialize_worker,
                    initargs=(serializer.dumps(self.config),
                              self._transport.worker_spec()))
            return self._pool

    def _submit(self, drive: _StageDrive, index: int, attempt: int):
        from . import worker as worker_runtime
        return self._get_pool().submit(worker_runtime.run_stage_task,
                                       drive.token, index, attempt)

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_pids.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Join the worker processes (idempotent)."""
        super().shutdown()
        if self._owns_transport:
            self._transport.cleanup()

    # -- stage publication --------------------------------------------------

    def _publish_stage(self, tasks: Sequence[Task]) -> str:
        """Serialize what this stage reads — and nothing behind it.

        The payload holds the cut task graphs (:class:`_StageCut`), the span
        catalog of exactly the shuffles those graphs read, and the cached
        blocks of exactly the datasets they carry.  Parallelised input on
        the path is published once per context and rides as spans.
        """
        is_complete = self._shuffle_manager.is_complete \
            if self._shuffle_manager is not None else lambda shuffle_id: False
        cut = _StageCut(tasks, is_complete)
        payload = {
            "tasks": cut.tasks,
            "catalog": {shuffle_id:
                        self._shuffle_manager.export_catalog(shuffle_id)
                        for shuffle_id in cut.shuffle_ids},
            "blocks": self._collect_blocks(cut.datasets),
        }
        try:
            for dataset in cut.datasets:
                if isinstance(dataset, ParallelCollectionDataset):
                    dataset.publish(self._transport)
            data = serializer.dumps(payload)
        except Exception as error:  # noqa: BLE001 - rethrown with diagnosis
            raise SerializationError(
                _diagnose_unpicklable(tasks, cut.datasets, error)) from error
        return self._transport.publish_stage(data)

    def _collect_blocks(self, datasets: List[Any]) -> Dict[Tuple[int, int], Any]:
        if self._block_store is None:
            return {}
        blocks: Dict[Tuple[int, int], Any] = {}
        for dataset in datasets:
            if not dataset.is_cached:
                continue
            cached = self._block_store.snapshot_dataset(dataset.id,
                                                        dataset.num_partitions)
            for partition, records in cached.items():
                blocks[(dataset.id, partition)] = records
        return blocks

    # -- result settlement --------------------------------------------------

    def _absorb(self, outcome: Dict[str, Any],
                metrics: Optional[TaskMetrics]) -> None:
        """Fold a worker's outcome into the driver's stores.

        Blocks cached before a failure, or by a speculation loser, stay
        cached, as on the thread backend where the driver store is written
        directly.  Only a winner registers its map output: a loser's spans
        are simply never registered.  A failure whose ledger is the worker
        strikes it; a lost span is charged to its *producer* by the
        scheduler.
        """
        worker = outcome["worker"]
        self._pool_pids.add(worker)
        if self._block_store is not None:
            for (dataset_id, partition), records in outcome["blocks"].items():
                self._block_store.put(dataset_id, partition, records)
        if metrics is None:
            return
        if outcome["ok"]:
            map_output = outcome.get("map_output")
            if map_output is not None and self._shuffle_manager is not None:
                self._shuffle_manager.adopt_catalog(*map_output,
                                                    producer=worker)
            if self._memory is not None:
                # fold the driver-tracked residency (external spans
                # registered so far) into the worker-observed peak,
                # mirroring the write-time samples thread tasks take
                metrics.peak_shuffle_bytes = max(
                    metrics.peak_shuffle_bytes, self._memory.used_bytes)
            self.health.record_success(worker)
        elif FAILURES[outcome["failure"][0]].ledger == "worker":
            self.health.record_failure(worker)

    def execute_stage(self, tasks: Sequence[Task],
                      stage: StageMetrics) -> List[TaskResult]:
        """Publish the stage, run it on the worker pool; results in task order.

        A worker that dies hard (injected crash, OOM kill) breaks the whole
        :class:`ProcessPoolExecutor`; rather than failing the job the stage
        forks a fresh pool and resubmits only its unfinished tasks, each on
        a fresh attempt number so seeded fault decisions are re-drawn.  The
        stage ledger's policy bounds the respawns per stage, each counted
        in ``stage.retries``.  The payload file is discarded when the stage
        settles.
        """
        started = time.perf_counter()
        drive = _StageDrive(tasks, stage)

        def run(attempt: int) -> List[TaskResult]:
            try:
                # a crash in a *previous* stage can leave the shared pool
                # broken, surfacing only at this stage's submit
                return self._run_stage(drive)
            except BrokenProcessPool:
                # tasks settled before the crash keep their results and
                # their registered map output
                self._discard_pool()
                raise

        def respawn(attempt: int, error: BaseException) -> None:
            stage.retries += 1
            drive.restart()

        try:
            if tasks:
                self.health.check_heartbeats(self._pool_pids)
                # a pool cannot route around one worker: "stop scheduling
                # onto a blacklisted worker" means forking a fresh pool at
                # the stage boundary
                if not self.health.blacklisted.isdisjoint(self._pool_pids):
                    self._discard_pool()
                drive.token = self._publish_stage(tasks)
            return policy(self.config, "stage").run(
                run, retry_on=FAILURES["broken_pool"].detect, on_retry=respawn)
        finally:
            if drive.token is not None:
                self._transport.discard_stage(drive.token)
            stage.wall_clock_s = time.perf_counter() - started


def create_executor(config: EngineConfig, shuffle_manager=None,
                    block_store=None, memory_manager=None, transport=None):
    """Build the executor ``config.executor_backend`` selects.

    The thread backend ignores the collaborator arguments — it shares the
    driver's address space and needs no registration or transport.
    """
    if config.executor_backend == "process":
        return ProcessExecutor(config, shuffle_manager=shuffle_manager,
                               block_store=block_store,
                               memory_manager=memory_manager,
                               transport=transport)
    return Executor(config)
