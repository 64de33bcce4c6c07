"""Worker-process runtime of the process execution backend.

Each worker process (forked by :class:`~repro.engine.executor.ProcessExecutor`)
holds one :class:`WorkerContext` — a stand-in for the driver's
``EngineContext`` exposing exactly the surface task graphs touch while
computing partitions: ``config``, a :class:`WorkerBlockStore`, a
:class:`WorkerShuffleClient`, a fresh
:class:`~repro.engine.memory.MemoryManager` and a per-process spill
directory.  The driver publishes one serialized *payload* per stage: the task
graphs cut at every complete shuffle, filled broadcast and live checkpoint
(the lineage behind those is a :class:`~repro.engine.dataset.LineageStub`),
the span catalog of exactly the shuffles the cut graphs read, the cached
blocks of the datasets they carry, and parallelised input as per-partition
spans.  Workers deserialize it once, reattach the worker context to every
dataset in the task graphs, and then answer
``run_stage_task(payload, index, attempt)`` calls with a plain result dict:
the outcome of :func:`~repro.engine.executor.run_attempt` — the attempt
body the thread backend runs too, seeded fault injection included — plus
the spans of any map output written (its buckets and its key sample),
dirty cache blocks and the worker's pid, so byte/spill/peak accounting
flows back across the process boundary and job metrics stay
backend-invariant.
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
from .memory import CODEC_NONE, MemoryManager, resolve_codec
from .metrics import TaskContext
from .retry import Faults
from .shuffle import ShuffleError, lost_map_output, write_buckets
from .storage import BlockStore
from .transport import LocalDirShuffleTransport, build_worker_transport

#: Deserialized stage payloads kept per worker; stages of one job arrive in
#: order, so a handful covers retries without unbounded growth.
_PAYLOAD_CACHE_SIZE = 4


class WorkerShuffleClient:
    """The worker's view of shuffle data: catalog reads, frame-file writes.

    Reads are driven by the *span catalog* the driver ships with each stage
    payload: for every shuffle the stage reads, the ``(span, estimated
    bytes)`` of each framed bucket.  Reads bring spans back through the
    transport and sum the write-side byte estimates, exactly like the
    driver's ShuffleManager, so read accounting is backend-invariant.
    Writes frame each bucket into a transport file and stash the spans for
    the task result to carry back to the driver.
    """

    def __init__(self, transport: LocalDirShuffleTransport,
                 codec: int = CODEC_NONE, faults: Optional[Faults] = None):
        self._transport = transport
        #: Frame codec id; must match the driver's resolved codec so the
        #: spans a worker writes carry the same measured byte estimates the
        #: thread backend would have recorded.
        self.codec = codec
        self._catalog: Dict[int, Dict[str, Any]] = {}
        self._last_map_output: Optional[Dict[str, Any]] = None
        #: The ``corrupt`` fail point: keyed per task attempt by
        #: :meth:`begin_task`, drawn at most once, on the next transport
        #: frame written.
        self.faults = faults or Faults()
        self._corrupt_key: Optional[str] = None

    def begin_task(self, task_id: str, attempt: int,
                   catalog: Dict[int, Dict[str, Any]]) -> None:
        """Install the task's span catalog; key its corruption decision.

        The catalog is the one the task's own stage payload carries and it
        *replaces* the previous task's: which spans a task reads never
        depends on what this worker happened to run before, and a long-lived
        worker holds one stage's catalog, not one entry per shuffle ever
        seen.  The corruption decision is keyed per attempt — a recomputed
        or retried attempt draws a fresh one, so an injected corruption is
        recoverable rather than repeating forever.
        """
        self._catalog = catalog
        self._corrupt_key = f"{task_id}:{attempt}"

    # -- catalog ------------------------------------------------------------

    def _entry(self, shuffle_id: int) -> Dict[str, Any]:
        entry = self._catalog.get(shuffle_id)
        if entry is None:
            raise ShuffleError(
                f"shuffle {shuffle_id} is not in this worker's span catalog "
                f"(read before all map outputs were written?)")
        return entry

    def _read(self, shuffle_id: int, reduce_partition: int,
              map_range: Optional[Tuple[int, int]]):
        """``(records, estimated bytes)`` of each catalogued bucket, in map
        order; a span that cannot be produced is a named fetch failure."""
        entry = self._entry(shuffle_id)
        for map_partition in entry["maps"]:
            if map_range is not None and \
                    not map_range[0] <= map_partition < map_range[1]:
                continue
            bucket = entry["buckets"].get((map_partition, reduce_partition))
            if bucket is not None:
                span, size = bucket
                with lost_map_output(shuffle_id, map_partition):
                    records = self._transport.read_span(span)
                yield records, size

    # -- reduce side --------------------------------------------------------

    def read_reduce_input(self, shuffle_id: int, reduce_partition: int,
                          map_range: Optional[Tuple[int, int]] = None
                          ) -> Tuple[List[Any], int]:
        """Return (records, estimated bytes) addressed to ``reduce_partition``."""
        records: List[Any] = []
        size = 0
        for bucket, bucket_size in self._read(shuffle_id, reduce_partition,
                                              map_range):
            records.extend(bucket)
            size += bucket_size
        return records, size

    def iter_reduce_input(self, shuffle_id: int, reduce_partition: int,
                          map_range: Optional[Tuple[int, int]] = None):
        """Stream ``(bucket records, estimated bytes)`` in map order."""
        return self._read(shuffle_id, reduce_partition, map_range)

    # -- map side -----------------------------------------------------------

    def write_map_output(self, shuffle_id: int, map_partition: int,
                         buckets: Dict[int, List[Any]],
                         task_context=None) -> int:
        """Frame one map task's buckets to a transport file; return est. bytes.

        The spans, and the span of the map's key sample, are kept on the
        client until :meth:`take_map_output` hands them to the task result.
        """
        spans, sample = write_buckets(
            self._transport.map_output_writer(shuffle_id, map_partition,
                                              self.codec),
            shuffle_id, map_partition, buckets, self._damage)
        self._last_map_output = {"shuffle_id": shuffle_id,
                                 "map_partition": map_partition,
                                 "spans": spans, "sample": sample}
        return sum(size for _, size in spans.values())

    def _damage(self, payload: bytes) -> bytes:
        """Draw this attempt's corruption decision, at most once."""
        key, self._corrupt_key = self._corrupt_key, None
        return payload if key is None else self.faults.damage(payload, key)

    def take_map_output(self) -> Optional[Dict[str, Any]]:
        """Pop the spans of the map output written since the last take."""
        output, self._last_map_output = self._last_map_output, None
        return output


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

    def __init__(self, config, transport: LocalDirShuffleTransport):
        self.config = config
        self.memory_manager = MemoryManager(config.shuffle_memory_bytes)
        self.block_store = WorkerBlockStore(config.memory_budget_bytes)
        self.shuffle_manager = WorkerShuffleClient(
            transport, resolve_codec(config.spill_codec), Faults.of(config))
        self._transport = transport
        self._spill_root: Optional[str] = None

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
    workers attach to the shared directory.  When heartbeats are configured the worker also
    starts its liveness thread here, before the first task runs.
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
    Duck-typed on the task attributes (``_dataset`` for result/skew-slice
    tasks, ``_dependency``/``_shuffle_manager`` for shuffle-map tasks) so
    custom task classes ship without registration.
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
    if hasattr(task, "_shuffle_manager"):
        task._shuffle_manager = ctx.shuffle_manager


def _load_payload(state: _WorkerState, payload_path: str) -> Dict[str, Any]:
    payload = state.payloads.get(payload_path)
    if payload is not None:
        state.payloads.move_to_end(payload_path)
        return payload
    with open(payload_path, "rb") as handle:
        payload = serializer.loads(handle.read())
    state.ctx.block_store.seed(payload.get("blocks") or {})
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
    worker has — the map-output spans of a successful attempt, the dirty
    cache blocks and the worker's pid.  Failed attempts still return their
    dirty blocks — on the thread backend a block cached before the failure
    stays cached too.
    """
    state = _STATE
    if state is None:
        raise RuntimeError("worker process was not initialized")
    payload = _load_payload(state, payload_path)
    task = payload["tasks"][task_index]
    client = state.ctx.shuffle_manager
    client.begin_task(task.task_id, attempt, payload["catalog"])
    task_context = TaskContext()
    outcome = run_attempt(task, attempt, client.faults, hard_crash=True,
                          task_context=task_context)
    # a failed attempt's partial spans are dropped; fetches this task
    # survived (TCP transport retries) must not leak into the next task
    map_output = client.take_map_output()
    task_context.fetch_retries += state.ctx._transport.drain_fetch_retries()
    if outcome["ok"]:
        outcome["counters"] = task_context.counters()
        outcome["map_output"] = map_output
    outcome["blocks"] = state.ctx.block_store.drain_dirty()
    outcome["worker"] = os.getpid()
    return outcome
