"""Task executors: thread pool and forked worker processes.

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
    back as pickle-framed spill-file spans, so CPU-bound jobs get
    real multi-core speedups while results, retries, fault injection and
    metrics stay backend-invariant.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import random
import statistics
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import EngineConfig
from ..errors import (CheckpointCorruptionError, FetchFailedError,
                      SerializationError, TaskError)
from . import serializer
from .dataset import (BroadcastDependency, LineageStub,
                      ParallelCollectionDataset, ShuffleDependency,
                      TaskContext)
from .metrics import StageMetrics, TaskMetrics

#: The ``TaskContext`` counters copied verbatim into ``TaskMetrics`` after a
#: successful attempt — and, on the process backend, shipped back across the
#: process boundary inside the task result dict.  One list, two backends:
#: a counter added here flows through both.
_TASK_COUNTERS = ("records_read", "records_written", "shuffle_bytes_read",
                  "shuffle_bytes_written", "cache_hits", "batches_processed",
                  "spills", "spill_bytes", "peak_shuffle_bytes",
                  "fetch_retries")

#: Floor on the speculation threshold: tasks faster than this are never
#: worth duplicating — the relaunch overhead exceeds any possible win.
_SPECULATION_MIN_S = 0.05

#: Poll interval for the settle loop when deadlines, speculation or
#: heartbeat checks need the driver to wake up between task completions.
_POLL_S = 0.02


class InjectedFailure(RuntimeError):
    """Raised by the fault injector to simulate a spurious task failure."""


def should_inject_failure(config: EngineConfig, task_id: str,
                          attempt: int) -> bool:
    """Seeded per ``(seed, task id, attempt)`` fault-injection decision.

    A module function rather than an executor method so worker processes
    evaluate the *same* decision for the same attempt — fault injection is
    deterministic across backends.
    """
    if config.failure_rate <= 0.0:
        return False
    rng = random.Random(f"{config.seed}:{task_id}:{attempt}")
    return rng.random() < config.failure_rate


def should_inject_crash(config: EngineConfig, task_id: str,
                        attempt: int) -> bool:
    """Seeded decision for ``crash_failure_rate`` (hard worker death).

    Keyed separately from :func:`should_inject_failure` (note the
    ``crash:`` tag) so enabling one knob never perturbs the other's
    decisions.  On the process backend a hit makes the worker ``os._exit``
    mid-task; the thread backend degrades it to an ordinary injected
    failure since a thread cannot lose its process.
    """
    if config.crash_failure_rate <= 0.0:
        return False
    rng = random.Random(f"{config.seed}:crash:{task_id}:{attempt}")
    return rng.random() < config.crash_failure_rate


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


class Executor:
    """Runs tasks on a thread pool, honouring retries and fault injection.

    The worker pool is created lazily on the first multi-task stage and then
    lives for the executor's lifetime — stages no longer pay thread spawn and
    join costs.  :meth:`shutdown` (called by ``EngineContext.stop``) releases
    the threads.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        # StageMetrics.add_task mutates unguarded aggregate fields; pool
        # workers finish concurrently, so all mutation goes through this lock
        self._metrics_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.num_workers,
                    thread_name_prefix="repro-worker")
            return self._pool

    def shutdown(self) -> None:
        """Release the persistent worker pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _should_inject_failure(self, task: Task, attempt: int) -> bool:
        return should_inject_failure(self.config, task.task_id, attempt)

    def _run_one(self, task: Task, stage: StageMetrics) -> TaskResult:
        last_error: Exception | None = None
        for attempt in range(self.config.max_task_retries + 1):
            task_context = TaskContext()
            metrics = TaskMetrics(task_id=task.task_id, stage_id=task.stage_id,
                                  partition_index=task.partition, attempt=attempt)
            started = time.perf_counter()
            try:
                if self._should_inject_failure(task, attempt):
                    raise InjectedFailure(
                        f"injected failure for {task.task_id} attempt {attempt}")
                if should_inject_crash(self.config, task.task_id, attempt):
                    # no process to kill on this backend: the crash knob
                    # degrades to a plain retried failure, keeping the
                    # attempt sequence seeded and the results identical
                    raise InjectedFailure(
                        f"injected crash for {task.task_id} attempt {attempt}")
                value = task.run(task_context)
            except (CheckpointCorruptionError, FetchFailedError):
                # lost shuffle output or a rotten checkpoint file will not
                # heal on retry — the same damaged bytes would be read
                # again.  Record the failed attempt and let the driver
                # invalidate the damaged state and recompute from lineage.
                metrics.duration_s = time.perf_counter() - started
                metrics.failed = True
                with self._metrics_lock:
                    stage.add_task(metrics)
                raise
            except Exception as error:  # noqa: BLE001 - retried below
                metrics.duration_s = time.perf_counter() - started
                metrics.failed = True
                with self._metrics_lock:
                    stage.add_task(metrics)
                last_error = error
                continue
            metrics.duration_s = time.perf_counter() - started
            for name in _TASK_COUNTERS:
                setattr(metrics, name, getattr(task_context, name))
            with self._metrics_lock:
                stage.add_task(metrics)
            return TaskResult(task, value, metrics)
        raise TaskError(
            f"task {task.task_id} failed after "
            f"{self.config.max_task_retries + 1} attempts: {last_error}",
            task_id=task.task_id, cause=last_error)

    def execute_stage(self, tasks: Sequence[Task], stage: StageMetrics) -> List[TaskResult]:
        """Run every task of a stage and return results in task order.

        Single-task stages short-circuit the pool and run inline; every
        other stage goes through the persistent pool (a one-worker pool
        executes tasks sequentially in submission order, so ``num_workers=1``
        stays deterministic).  ``stage.wall_clock_s`` is recorded identically
        on both paths.
        """
        started = time.perf_counter()
        results: List[Tuple[int, TaskResult]] = []
        if len(tasks) <= 1:
            for index, task in enumerate(tasks):
                results.append((index, self._run_one(task, stage)))
        else:
            pool = self._get_pool()
            futures = [(index, pool.submit(self._run_one, task, stage))
                       for index, task in enumerate(tasks)]
            try:
                for index, future in futures:
                    results.append((index, future.result()))
            except BaseException:
                # the pool outlives the stage, so a failed stage must not
                # leak stragglers into it: cancel what has not started and
                # join what has, restoring the all-tasks-settled guarantee
                # the per-stage pool's shutdown used to provide
                for _, future in futures:
                    future.cancel()
                wait([future for _, future in futures])
                raise
        stage.wall_clock_s = time.perf_counter() - started
        results.sort(key=lambda pair: pair[0])
        return [result for _, result in results]


class _StageCut:
    """The copy of a stage's task graphs that crosses the process boundary.

    A stage reads the spans of its complete upstream shuffles, the values of
    its filled broadcasts and the files of its live checkpoints — never the
    lineage behind them.  Walking from each task root, the dependency edge
    into such lineage is replaced by an edge to a
    :class:`~repro.engine.dataset.LineageStub`; the datasets and
    dependencies between a root and a cut are shallow copies, everything
    untouched is shipped as the object it is, and the driver's graph is
    never mutated (fetch-failure, checkpoint-corruption and journal recovery
    all recompute from it and republish).  The cut is per edge: a dataset
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

    def _edge_parent(self, dataset: Any, dependency: Any) -> Any:
        """What the payload carries behind one edge: the parent, or a stub."""
        if dataset.has_checkpoint:
            cut = True  # served from the checkpoint files, whatever the edge
        elif isinstance(dependency, ShuffleDependency):
            cut = self._is_complete(dependency.shuffle_id)
            if cut and dependency.shuffle_id not in self.shuffle_ids:
                self.shuffle_ids.append(dependency.shuffle_id)
        else:
            cut = isinstance(dependency, BroadcastDependency) and \
                dependency.holder.ready
        if cut:
            return LineageStub(dependency.parent)
        return self._ship(dependency.parent)

    def _ship(self, dataset: Any) -> Any:
        """``dataset`` as the payload carries it: itself, or a cut copy.

        The copy is shallow — it shares every attribute value (installed
        skew-slice overrides included) with the driver's object.
        """
        shipped = self._shipped.get(id(dataset))
        if shipped is not None:
            return shipped
        dependencies = [
            self._reparent(dependency, self._edge_parent(dataset, dependency))
            for dependency in dataset.dependencies]
        shipped = dataset
        if any(new is not old
               for new, old in zip(dependencies, dataset.dependencies)):
            shipped = copy.copy(dataset)
            shipped.dependencies = dependencies
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


class ProcessExecutor:
    """Runs tasks on forked worker processes — the multi-core backend.

    Same interface and observable behaviour as :class:`Executor`; the
    differences are mechanical.  Each stage is serialized once into a
    payload (task graphs cut at satisfied shuffle, broadcast and checkpoint
    boundaries, the span catalog of the shuffles they read, the cached
    blocks of the datasets they carry) published through the shuffle
    transport; workers run
    tasks out of that payload and return plain dicts carrying the value,
    the ``TaskContext`` counters, map-output spans and dirty cache blocks.
    The driver settles results in submission order: it registers map
    output with the shuffle manager, adopts cached blocks, folds worker
    peaks with the driver-tracked residency, and drives the retry loop —
    fault injection is evaluated *inside* the worker with the same seeded
    decision as the thread backend, so a given attempt fails identically
    on both.
    """

    def __init__(self, config: EngineConfig, shuffle_manager=None,
                 block_store=None, memory_manager=None, transport=None,
                 health_tracker=None,
                 clock: Callable[[], float] = time.perf_counter):
        self.config = config
        #: Clock of the running-time deadlines and speculation thresholds
        #: (never of reported durations); injectable so tests can expire a
        #: deadline without racing a sleep against it.
        self._clock = clock
        self._shuffle_manager = shuffle_manager
        self._block_store = block_store
        self._memory = memory_manager
        self._health = health_tracker
        if transport is None:
            # directly constructed executors (no engine context) still need
            # somewhere for payloads and map output to live
            from .transport import LocalDirShuffleTransport
            transport = LocalDirShuffleTransport(
                tempfile.mkdtemp(prefix="repro-transport-"))
            self._owns_transport = True
        else:
            self._owns_transport = False
        self._transport = transport
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: Worker pids observed in settled outcomes of the current pool —
        #: the blacklist check recycles the pool when one of them goes bad
        #: (a ``ProcessPoolExecutor`` cannot route around a single worker).
        self._pool_pids: set = set()

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

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_pids.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _recycle_blacklisted_pool(self) -> None:
        """Replace the pool when a blacklisted worker is (or may be) in it.

        A ``ProcessPoolExecutor`` offers no per-worker routing, so "stop
        scheduling onto a blacklisted worker" means forking a fresh pool at
        the next stage boundary; settled tasks keep their results, and the
        blacklisted process is simply no longer there to receive work.
        """
        if self._health is None or not self._health.blacklisted:
            return
        if any(self._health.is_blacklisted(pid) for pid in self._pool_pids):
            self._discard_pool()

    def shutdown(self) -> None:
        """Join the worker processes (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
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
        token = self._transport.publish_stage(data)
        # one-shot skew-slice overrides just shipped inside the payload;
        # the worker copies own them now, and a stale driver copy would
        # replay into a later job's payload (a cut copy shares the dict)
        for dataset in cut.datasets:
            overrides = getattr(dataset, "_slice_results", None)
            if overrides:
                overrides.clear()
        return token

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

    def _adopt_blocks(self, blocks) -> None:
        if not blocks or self._block_store is None:
            return
        for (dataset_id, partition), records in blocks.items():
            self._block_store.put(dataset_id, partition, records)

    def _task_metrics(self, task: Task, info: "_Attempt") -> TaskMetrics:
        return TaskMetrics(task_id=task.task_id, stage_id=task.stage_id,
                           partition_index=task.partition,
                           attempt=info.attempt, speculative=info.speculative)

    def _settle_attempt(self, outcome: Dict[str, Any], info: "_Attempt",
                        drive: "_StageDrive") -> None:
        """Fold one finished attempt into the stage.

        Losers of a speculation race (their index already settled) only
        donate their cached blocks — no metrics, no map-output
        registration, no value: first result wins and the duplicate's
        spans are simply never registered (the PR 8 replace-not-double-
        count accounting makes a late registration harmless anyway, but
        discarding is cleaner).  Failures consume one unit of the task's
        retry budget; the budget is only *enforced* when no other attempt
        of the task is still in flight, so a speculative duplicate gets to
        finish what the original could not.
        """
        task = drive.tasks[info.index]
        worker = outcome.get("worker")
        if worker is not None:
            self._pool_pids.add(worker)
        # blocks cached before a failure (or by a speculation loser) stay
        # cached, as on the thread backend where the driver store is
        # written directly
        self._adopt_blocks(outcome.get("blocks"))
        if info.index in drive.completed:
            return
        metrics = self._task_metrics(task, info)
        metrics.duration_s = outcome["duration_s"]
        if outcome["ok"]:
            for name in _TASK_COUNTERS:
                setattr(metrics, name, outcome["counters"].get(name, 0))
            map_output = outcome.get("map_output")
            if map_output is not None and self._shuffle_manager is not None:
                self._shuffle_manager.register_external_map_output(
                    map_output["shuffle_id"], map_output["map_partition"],
                    map_output["spans"], worker=worker,
                    sample=map_output["sample"])
            if self._memory is not None:
                # fold the driver-tracked residency (external spans
                # registered so far) into the worker-observed peak,
                # mirroring the write-time samples the thread backend's
                # tasks take while buckets accumulate
                metrics.peak_shuffle_bytes = max(
                    metrics.peak_shuffle_bytes, self._memory.used_bytes)
            drive.stage.add_task(metrics)
            if info.speculative:
                drive.stage.speculative_wins += 1
            if self._health is not None and worker is not None:
                self._health.record_success(worker)
            drive.durations.append(metrics.duration_s)
            drive.completed[info.index] = TaskResult(task, outcome["value"],
                                                     metrics)
            return
        metrics.failed = True
        drive.stage.add_task(metrics)
        kind, message, trace = outcome["error"]
        fetch_failed = outcome.get("fetch_failed")
        if fetch_failed is not None:
            # same rule as the thread backend: a lost map output will not
            # heal on a task retry, so hand it straight to the scheduler
            # for lineage recomputation.  The *producer* of the damaged
            # span takes the health strike, not this reader — the
            # scheduler knows who that is.
            raise FetchFailedError(message,
                                   shuffle_id=fetch_failed[0],
                                   map_partition=fetch_failed[1])
        checkpoint_failed = outcome.get("checkpoint_failed")
        if checkpoint_failed is not None:
            # a corrupt checkpoint file reads identically on every retry;
            # rethrow with coordinates so the driver drops the checkpoint
            # and re-runs the job from lineage
            raise CheckpointCorruptionError(message,
                                            dataset_id=checkpoint_failed[0],
                                            partition=checkpoint_failed[1])
        if self._health is not None and worker is not None:
            self._health.record_failure(worker, kind="task")
        drive.failures[info.index] += 1
        if drive.failures[info.index] > self.config.max_task_retries:
            if drive.has_active(info.index):
                return  # a speculative duplicate may still settle the task
            raise TaskError(
                f"task {task.task_id} failed after "
                f"{drive.failures[info.index]} attempts: {message}",
                task_id=task.task_id,
                cause=RuntimeError(f"{kind} in worker process:\n{trace}"))
        if not drive.has_active(info.index):
            drive.submit(info.index)

    def _enforce_deadlines(self, drive: "_StageDrive") -> None:
        """Abandon attempts that overran ``task_timeout_s`` while running.

        The deadline clock starts when the attempt begins *executing* (not
        when it is queued behind a busy pool), so a deep stage on a small
        pool never times out tasks that were merely waiting their turn.
        An abandoned attempt keeps running in the worker, but its future
        is dropped from the drive: the result is never consumed, its
        map-output spans never register, its value is discarded.
        """
        timeout = self.config.task_timeout_s
        if not timeout:
            return
        now = self._clock()
        for future, info in list(drive.active.items()):
            if info.started is None or now - info.started <= timeout:
                continue
            future.cancel()
            del drive.active[future]
            if info.index in drive.completed:
                continue
            task = drive.tasks[info.index]
            metrics = self._task_metrics(task, info)
            metrics.duration_s = timeout
            metrics.failed = True
            metrics.timed_out = True
            drive.stage.add_task(metrics)
            drive.failures[info.index] += 1
            if drive.failures[info.index] > self.config.max_task_retries:
                if drive.has_active(info.index):
                    continue
                raise TaskError(
                    f"task {task.task_id} exceeded its {timeout}s deadline "
                    f"on {drive.failures[info.index]} attempts",
                    task_id=task.task_id)
            if not drive.has_active(info.index):
                drive.submit(info.index)

    def _launch_speculations(self, drive: "_StageDrive") -> None:
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
        for future, info in list(drive.active.items()):
            if info.speculative or info.index in drive.speculated:
                continue
            if info.index in drive.completed:
                continue
            if info.started is None or now - info.started <= threshold:
                continue
            drive.speculated.add(info.index)
            drive.submit(info.index, speculative=True)
            drive.stage.speculative_launches += 1

    def execute_stage(self, tasks: Sequence[Task],
                      stage: StageMetrics) -> List[TaskResult]:
        """Run every task of a stage on the worker pool; results in task order.

        The driver settles attempts as they finish (``FIRST_COMPLETED``
        waits), resubmits retries against the published payload, enforces
        running-time deadlines, launches speculative duplicates for
        stragglers, and discards the payload file when the stage settles.

        A worker that dies hard (injected crash, OOM kill) breaks the whole
        :class:`ProcessPoolExecutor`; rather than failing the job the stage
        forks a fresh pool and resubmits only its unfinished tasks, each on
        a fresh attempt number so seeded fault decisions are re-drawn.  Up
        to ``max_stage_retries`` such respawns are tolerated per stage, each
        counted in ``stage.retries``.
        """
        started = time.perf_counter()
        if not tasks:
            stage.wall_clock_s = time.perf_counter() - started
            return []
        if self._health is not None:
            self._health.check_heartbeats()
            self._recycle_blacklisted_pool()
        token = self._publish_stage(tasks)
        drive = _StageDrive(self, tasks, stage, token)
        try:
            pool_crashes = 0
            while len(drive.completed) < len(tasks):
                drive.pool = self._get_pool()
                drive.active.clear()
                drive.speculated.clear()
                try:
                    # submits stay inside the handler's reach: a crash in a
                    # *previous* stage attempt can leave the shared pool
                    # broken, surfacing only when the next submit is made
                    for index in range(len(tasks)):
                        if index not in drive.completed:
                            drive.submit(index)
                    self._drive(drive)
                except BrokenProcessPool:
                    # every unfinished future of the dead pool is lost;
                    # tasks settled before the crash keep their results and
                    # their registered map output
                    self._discard_pool()
                    pool_crashes += 1
                    if pool_crashes > self.config.max_stage_retries:
                        raise
                    # resubmission draws from the monotonic next_attempt
                    # counters, so the respawned generation re-runs every
                    # unfinished task on a fresh attempt number and fresh
                    # seeded fault decisions
                    stage.retries += 1
                except BaseException:
                    for future in drive.active:
                        future.cancel()
                    wait(list(drive.active))
                    raise
        finally:
            self._transport.discard_stage(token)
            stage.wall_clock_s = time.perf_counter() - started
        return [drive.completed[index] for index in range(len(tasks))]

    def _drive(self, drive: "_StageDrive") -> None:
        """Settle the stage's in-flight attempts until every task completes."""
        poll = None
        if (self.config.task_timeout_s
                or self.config.speculation_multiplier > 0
                or (self._health is not None and self._health.watches_beats)):
            poll = _POLL_S
        while len(drive.completed) < len(drive.tasks):
            done, _ = wait(list(drive.active), timeout=poll,
                           return_when=FIRST_COMPLETED)
            for future in done:
                info = drive.active.pop(future)
                # a dead pool surfaces here as BrokenProcessPool and is
                # handled one frame up; anything else is a driver bug
                self._settle_attempt(future.result(), info, drive)
            # the deadline/speculation clock starts when an attempt begins
            # *executing*, not when it is queued behind a busy pool
            now = self._clock()
            for future, info in drive.active.items():
                if info.started is None and future.running():
                    info.started = now
            self._enforce_deadlines(drive)
            self._launch_speculations(drive)
            if self._health is not None:
                self._health.check_heartbeats()


class _Attempt:
    """Driver-side record of one in-flight task attempt."""

    __slots__ = ("index", "attempt", "speculative", "started")

    def __init__(self, index: int, attempt: int, speculative: bool):
        self.index = index
        self.attempt = attempt
        self.speculative = speculative
        #: ``perf_counter`` stamp of the first poll that saw the future
        #: running; ``None`` while queued (deadlines and speculation only
        #: measure execution time, never queue time).
        self.started: Optional[float] = None


class _StageDrive:
    """Mutable state of one stage execution on the process backend."""

    def __init__(self, executor: "ProcessExecutor", tasks: Sequence[Task],
                 stage: StageMetrics, token: str):
        self.tasks = tasks
        self.stage = stage
        self.token = token
        self.pool: Optional[ProcessPoolExecutor] = None
        self.completed: Dict[int, TaskResult] = {}
        self.active: Dict[Any, _Attempt] = {}
        #: Failed attempts per task index (the retry budget's ledger).
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

    def submit(self, index: int, speculative: bool = False) -> None:
        """Submit the next attempt of task ``index`` to the current pool."""
        from . import worker as worker_runtime
        attempt = self.next_attempt[index]
        self.next_attempt[index] = attempt + 1
        future = self.pool.submit(worker_runtime.run_stage_task,
                                  self.token, index, attempt)
        self.active[future] = _Attempt(index, attempt, speculative)


def create_executor(config: EngineConfig, shuffle_manager=None,
                    block_store=None, memory_manager=None, transport=None,
                    health_tracker=None):
    """Build the executor ``config.executor_backend`` selects.

    The thread backend ignores the collaborator arguments — it shares the
    driver's address space and needs no registration or transport.
    """
    if config.executor_backend == "process":
        return ProcessExecutor(config, shuffle_manager=shuffle_manager,
                               block_store=block_store,
                               memory_manager=memory_manager,
                               transport=transport,
                               health_tracker=health_tracker)
    return Executor(config)
