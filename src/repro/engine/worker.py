"""Worker-process runtime of the process execution backend.

Each worker process (forked by :class:`~repro.engine.executor.ProcessExecutor`)
holds one :class:`WorkerContext` — a stand-in for the driver's
``EngineContext`` exposing exactly the surface task graphs touch while
computing partitions: ``config``, a :class:`WorkerBlockStore`, a
:class:`~repro.engine.shuffle.ShuffleManager`, a fresh
:class:`~repro.engine.memory.MemoryManager` and a per-process spill
directory.  The driver publishes one serialized *payload* per stage: the task
graphs cut at every complete shuffle (a checkpoint and a broadcast build
are ones; the lineage behind a cut is a
:class:`~repro.engine.dataset.LineageStub`), the span catalog of exactly
the shuffles the cut graphs read, the cached blocks of the datasets they
carry, and parallelised input as per-partition spans.  Workers
deserialize it once, give it its own shuffle manager — the
driver's kind, over the worker's transport, with no memory manager — which
adopts the payload's catalogs, reattach the worker context to every dataset
in the task graphs, and then answer
``run_stage_task(payload, index, attempt)`` calls with a plain result dict:
the outcome of :func:`~repro.engine.executor.run_attempt` — the attempt
body the thread backend runs too, seeded fault injection included — plus
the catalog of any map output written (its spans and key sample), dirty
cache blocks and the worker's pid, so byte/spill/peak accounting flows back
across the process boundary and job metrics stay backend-invariant.
"""

from __future__ import annotations

import atexit
import os
import shutil
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from . import serializer
from .executor import run_attempt
from .memory import MemoryManager
from .metrics import TaskContext
from .retry import Faults
from .shuffle import ShuffleManager
from .storage import BlockStore
from .transport import ShuffleTransport, build_worker_transport

#: Deserialized stage payloads kept per worker; stages of one job arrive in
#: order, so a handful covers retries without unbounded growth.
_PAYLOAD_CACHE_SIZE = 4


class _AttemptFaults(Faults):
    """A worker's fail points: ``corrupt`` draws once per task attempt.

    :meth:`arm` keys the draw ``"{task_id}:{attempt}"``; the first frame the
    attempt writes draws it, whatever key the shuffle manager passes, and
    every later frame is written intact.  A retried or recomputed attempt
    draws afresh, so an injected corruption stays recoverable rather than
    repeating forever.
    """

    _key: Optional[str] = None

    def arm(self, key: str) -> None:
        self._key = key

    def damage(self, payload: bytes, key: str) -> bytes:
        key, self._key = self._key, None
        return payload if key is None else super().damage(payload, key)


class WorkerBlockStore(BlockStore):
    """A :class:`BlockStore` that tracks blocks cached since the last task.

    Workers cannot share the driver's cache, so the driver seeds each stage
    payload with the relevant cached blocks (:meth:`seed`, which bypasses
    dirty tracking) and the task result carries back whatever the task
    cached (:meth:`drain_dirty`) for the driver to adopt — the next stage's
    payload then serves those partitions as cache hits everywhere.
    """

    def __init__(self, memory_budget_bytes: int):
        super().__init__(memory_budget_bytes)
        self._dirty: Dict[Tuple[int, int], List[Any]] = {}

    def put(self, dataset_id: int, partition: int, records: List[Any]) -> None:
        super().put(dataset_id, partition, records)
        # keep our own reference: the block may be LRU-evicted before the
        # task finishes, but the driver must still adopt it
        self._dirty[(dataset_id, partition)] = list(records)

    def seed(self, blocks: Dict[Tuple[int, int], List[Any]]) -> None:
        for (dataset_id, partition), records in blocks.items():
            BlockStore.put(self, dataset_id, partition, records)

    def drain_dirty(self) -> Dict[Tuple[int, int], List[Any]]:
        dirty, self._dirty = self._dirty, {}
        return dirty


class WorkerContext:
    """Stand-in for ``EngineContext`` inside a worker process."""

    def __init__(self, config, transport: ShuffleTransport):
        self.config = config
        self.memory_manager = MemoryManager(config.shuffle_memory_bytes)
        self.block_store = WorkerBlockStore(config.memory_budget_bytes)
        self.faults = _AttemptFaults.of(config)
        #: The shuffle manager of the payload whose task runs now.
        self.shuffle_manager: Optional[ShuffleManager] = None
        self._transport = transport
        self._spill_root: Optional[str] = None

    def shuffle_store(self, catalogs: Dict[int, Dict[str, Any]]
                      ) -> ShuffleManager:
        """A shuffle manager holding exactly ``catalogs``' map output.

        Built per stage payload, with no memory manager: the spans it reads
        and writes are not this worker's residency, so worker-observed
        peaks count merge runs only.  Map output it writes is framed into
        the transport.
        """
        manager = ShuffleManager(transport=self._transport,
                                 codec=self.config.spill_codec,
                                 faults=self.faults)
        for shuffle_id, catalog in catalogs.items():
            manager.adopt_catalog(shuffle_id, catalog)
        return manager

    def spill_dir(self) -> str:
        """Per-process spill directory, created lazily (external merges).

        Lives under the transport root so a hard worker death (which skips
        ``atexit``) cannot leak it: the driver's transport cleanup sweeps
        it with everything else.
        """
        if self._spill_root is None:
            self._spill_root = self._transport.worker_scratch_dir()
        return self._spill_root

    def cleanup(self) -> None:
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None


class _WorkerState:
    def __init__(self, ctx: WorkerContext):
        self.ctx = ctx
        self.payloads: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()


_STATE: Optional[_WorkerState] = None


def _heartbeat_loop(directory: str, interval_s: float) -> None:
    """Touch this worker's beat file forever (daemon thread).

    Liveness is the file's mtime: the driver-side
    :class:`~repro.engine.scheduler.NodeHealthTracker` compares it against
    ``heartbeat_timeout_s``.  A wedged or killed worker stops touching the
    file and goes stale; write errors are swallowed — a missing beat *is*
    the signal, crashing the worker over it would invert the design.
    """
    path = os.path.join(directory, str(os.getpid()))
    while True:
        try:
            with open(path, "a"):
                pass
            os.utime(path, None)
        except OSError:
            pass
        time.sleep(interval_s)


def initialize_worker(config_bytes: bytes,
                      transport_spec: Dict[str, Any]) -> None:
    """Process-pool initializer: build this worker's context once.

    ``transport_spec`` is the driver transport's
    :meth:`~repro.engine.transport.ShuffleTransport.worker_spec`: TCP
    workers rebuild a fetch client with the driver's retry knobs, local
    workers attach to the shared directory.  When heartbeats are configured
    the worker also starts its liveness thread here, before the first task
    runs.
    """
    global _STATE
    config = serializer.loads(config_bytes)
    transport = build_worker_transport(transport_spec, config)
    _STATE = _WorkerState(WorkerContext(config, transport))
    atexit.register(_STATE.ctx.cleanup)
    if config.heartbeat_interval_s > 0:
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(transport.heartbeat_dir(), config.heartbeat_interval_s),
            name="worker-heartbeat", daemon=True)
        beat.start()


def _attach_graph(task: Any, ctx: WorkerContext, seen: set) -> None:
    """Reattach the worker context to every dataset a task can reach.

    ``Dataset.__getstate__`` strips the driver context before pickling;
    this walk installs the worker's stand-in on the deserialized graph,
    lineage stubs included (they are leaves: the walk ends at every cut).
    Duck-typed on the task attributes (``_dataset`` for result tasks,
    ``_dependency`` for shuffle-map tasks, which write through
    ``ctx.shuffle_manager``) so custom task classes ship without
    registration.
    """

    def walk(dataset: Any) -> None:
        if dataset is None or id(dataset) in seen:
            return
        seen.add(id(dataset))
        dataset.ctx = ctx
        for dependency in dataset.dependencies:
            walk(dependency.parent)

    walk(getattr(task, "_dataset", None))
    dependency = getattr(task, "_dependency", None)
    if dependency is not None:
        walk(dependency.parent)
        ctx.shuffle_manager.register_shuffle(dependency.shuffle_id,
                                             dependency.parent.num_partitions)
        task._shuffle_manager = ctx.shuffle_manager


def _load_payload(state: _WorkerState, payload_path: str) -> Dict[str, Any]:
    payload = state.payloads.get(payload_path)
    if payload is not None:
        state.payloads.move_to_end(payload_path)
        return payload
    with open(payload_path, "rb") as handle:
        payload = serializer.loads(handle.read())
    state.ctx.block_store.seed(payload.get("blocks") or {})
    payload["shuffle_manager"] = state.ctx.shuffle_manager = \
        state.ctx.shuffle_store(payload["catalog"])
    seen: set = set()
    for task in payload["tasks"]:
        _attach_graph(task, state.ctx, seen)
    state.payloads[payload_path] = payload
    while len(state.payloads) > _PAYLOAD_CACHE_SIZE:
        state.payloads.popitem(last=False)
    return payload


def run_stage_task(payload_path: str, task_index: int,
                   attempt: int) -> Dict[str, Any]:
    """Run one task of a published stage payload; return a plain result dict.

    The dict is the cross-process task protocol: the
    :func:`~repro.engine.executor.run_attempt` outcome plus what only a
    worker has — ``(shuffle id, catalog)`` of the map output a successful
    map attempt wrote, the dirty cache blocks and the worker's pid.  Failed
    attempts still return their dirty blocks — on the thread backend a
    block cached before the failure stays cached too — but never their map
    output.
    """
    state = _STATE
    if state is None:
        raise RuntimeError("worker process was not initialized")
    payload = _load_payload(state, payload_path)
    task = payload["tasks"][task_index]
    ctx = state.ctx
    manager = ctx.shuffle_manager = payload["shuffle_manager"]
    ctx.faults.arm(f"{task.task_id}:{attempt}")
    task_context = TaskContext()
    outcome = run_attempt(task, attempt, ctx.faults, hard_crash=True,
                          task_context=task_context)
    # fetches this task survived (TCP transport retries) must not leak into
    # the next task
    task_context.fetch_retries += manager.drain_fetch_retries()
    dependency = getattr(task, "_dependency", None)
    if outcome["ok"]:
        outcome["counters"] = task_context.counters()
        if dependency is not None:
            outcome["map_output"] = (dependency.shuffle_id,
                                     manager.export_catalog(
                                         dependency.shuffle_id,
                                         [task.partition]))
    outcome["blocks"] = state.ctx.block_store.drain_dirty()
    outcome["worker"] = os.getpid()
    return outcome
