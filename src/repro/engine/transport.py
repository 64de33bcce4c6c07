"""Shuffle transport: how payloads and map output move between processes.

On the thread backend every task shares the driver's address space, so
shuffle buckets live in the :class:`~repro.engine.shuffle.ShuffleManager`'s
in-memory dict.  The process backend has no shared memory: stage payloads
(the task graphs cut to what the stage reads, the span catalog of the
shuffles it reads, caches included), parallelised input and shuffle map output
must cross the process boundary explicitly.  A :class:`ShuffleTransport`
owns that movement:

* the driver *publishes* one serialized payload per stage and hands workers
  an opaque token (a file path);
* a parallelised collection is framed into one *input* file the first time
  a stage ships it; payloads carry its per-partition spans, and both kinds
  of file are read where they lie (the shared directory), never fetched;
* workers write each map task's buckets through the frame store's one
  writer (:class:`~repro.engine.memory.SpillFile`) into per-shuffle files
  and report the :class:`~repro.engine.memory.Span` of each back with the
  task result, in a span catalog;
* reduce and ranged-skew reads bring spans back with
  :func:`~repro.engine.memory.load_span` — the very read spilled buckets
  use;
* the transport removes a shuffle's files when the driver forgets the
  shuffle, which also sweeps partial output of failed stages.

:class:`ShuffleTransport` is one directory shared by driver and workers;
every shuffle manager that holds one — the driver's and each worker's —
frames its map output into it.  :class:`TcpShuffleTransport`
(``EngineConfig.shuffle_transport = "tcp"``) layers the networked read path
on top: writes still land in the transport root, but span *reads* go
through the :mod:`~repro.engine.shuffle_server` fetch client — retried,
backed off, CRC-verified — exactly as a multi-node deployment would fetch
remote map output.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from .memory import Span, SpillFile, check_count, load_span
from .retry import RetryPolicy, policy


class ShuffleTransport:
    """Moves stage payloads and shuffle map output between processes.

    One directory of frame files, shared by the driver and its workers.
    The driver creates the root (under the engine context's spill directory)
    and each forked worker attaches to the same path.  File names carry the
    writer's pid and a per-process sequence number, so concurrent workers
    and task retries never collide: a retried map attempt writes a fresh
    file and the driver registers only the spans of the attempt that
    succeeded.
    """

    def __init__(self, root: str, durable: bool = False):
        self.root = root
        #: Durable transports root their frame files under the engine's
        #: ``checkpoint_dir``: shuffle spans must outlive the driver process
        #: for journal-based recovery, so :meth:`cleanup` sweeps only the
        #: ephemeral pieces (stage payloads, published inputs, worker
        #: scratch, heartbeats) and leaves the shuffle directories in place.
        self.durable = durable
        os.makedirs(root, exist_ok=True)
        self._seq = itertools.count()

    def _unique_name(self, prefix: str, suffix: str) -> str:
        return f"{prefix}-{os.getpid()}-{next(self._seq)}{suffix}"

    def publish_stage(self, payload: bytes) -> str:
        """Store one serialized stage payload; return a worker-readable token."""
        path = os.path.join(self.root, self._unique_name("stage", ".payload"))
        with open(path, "wb") as handle:
            handle.write(payload)
        return path

    def discard_stage(self, token: str) -> None:
        """Drop a published stage payload (idempotent)."""
        try:
            os.remove(token)
        except OSError:
            pass

    def shuffle_dir(self, shuffle_id: int) -> str:
        """Directory holding every frame file of one shuffle."""
        return os.path.join(self.root, f"shuffle-{shuffle_id}")

    def map_output_writer(self, shuffle_id: int, map_partition: int,
                          codec: int) -> SpillFile:
        """Open a frame writer for one map task's output of one shuffle."""
        directory = self.shuffle_dir(shuffle_id)
        os.makedirs(directory, exist_ok=True)
        name = self._unique_name(f"map-{map_partition}", ".data")
        return SpillFile(os.path.join(directory, name), codec)

    def input_writer(self, dataset_id: int) -> SpillFile:
        """Uncompressed: inputs are read where they lie, by processes on this
        machine, so a codec would only trade driver CPU for scratch disk."""
        directory = os.path.join(self.root, "inputs")
        os.makedirs(directory, exist_ok=True)
        name = self._unique_name(f"dataset-{dataset_id}", ".data")
        return SpillFile(os.path.join(directory, name))

    def read_span(self, span: Span) -> List[Any]:
        """Read one registered span's records back (a local file read)."""
        return load_span(span)

    def drain_fetch_retries(self) -> int:
        """Fetch retries accumulated since the last drain (0 when local)."""
        return 0

    def remove_shuffle(self, shuffle_id: int) -> None:
        """Delete every file of a shuffle, registered or partial (idempotent)."""
        shutil.rmtree(self.shuffle_dir(shuffle_id), ignore_errors=True)

    def worker_scratch_dir(self) -> str:
        """Fresh per-process scratch directory under the transport root.

        Worker processes put their spill directories here rather than in a
        free-standing temp dir: a worker that dies hard (``os._exit`` under
        crash injection, OOM kill) never runs its ``atexit`` sweeper, but a
        scratch dir inside the root is still reclaimed by the driver's
        :meth:`cleanup` — crashes cannot leak disk.
        """
        base = os.path.join(self.root, "scratch")
        os.makedirs(base, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"worker-{os.getpid()}-", dir=base)

    def heartbeat_dir(self) -> str:
        """Directory where pool workers drop liveness beats (mtime files)."""
        directory = os.path.join(self.root, "heartbeats")
        os.makedirs(directory, exist_ok=True)
        return directory

    def worker_spec(self) -> Dict[str, Any]:
        """Picklable recipe a forked worker rebuilds its transport from."""
        return {"mode": "local", "root": self.root}

    def cleanup(self) -> None:
        """Delete everything the transport owns (idempotent)."""
        if not self.durable:
            shutil.rmtree(self.root, ignore_errors=True)
            return
        # durable root: shuffle frame files must survive for recovery, but
        # everything process-scoped is garbage once the driver exits
        for scoped in ("scratch", "heartbeats", "inputs"):
            shutil.rmtree(os.path.join(self.root, scoped), ignore_errors=True)
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if name.startswith("stage-") and name.endswith(".payload"):
                try:
                    os.remove(os.path.join(self.root, name))
                except OSError:
                    pass


class TcpShuffleTransport(ShuffleTransport):
    """Networked transport: local writes, TCP span reads with retries.

    Map output is still written into the shared root (the server process
    exports exactly that directory), but every span *read* is a fetch
    through :class:`~repro.engine.shuffle_server.ShuffleFetchClient` —
    connect/read timeouts, bounded seeded retries, per-frame CRC checks.
    A span that falls outside the root (a worker-local spill file being
    re-read) silently takes the local path; only registered transport
    spans cross the wire.  This is the single-box stand-in for per-node
    shuffle services: the read path, failure modes, and metrics are the
    ones a real cluster would exercise.
    """

    def __init__(self, root: str, address: Tuple[str, int],
                 policy: Optional[RetryPolicy] = None, durable: bool = False):
        super().__init__(root, durable=durable)
        from .shuffle_server import ShuffleFetchClient
        self.address = (address[0], int(address[1]))
        self._client = ShuffleFetchClient(self.address, policy)

    def read_span(self, span: Span) -> List[Any]:
        absolute = os.path.abspath(span.path)
        root = os.path.abspath(self.root)
        if not absolute.startswith(root + os.sep):
            return load_span(span)
        relpath = os.path.relpath(absolute, root)
        records = self._client.fetch_records(relpath, span.offset,
                                             span.length)
        check_count(span, len(records))
        return records

    def drain_fetch_retries(self) -> int:
        return self._client.drain_retries()

    def worker_spec(self) -> Dict[str, Any]:
        return {"mode": "tcp", "root": self.root,
                "address": list(self.address)}


def build_worker_transport(spec: Dict[str, Any],
                           config: Any) -> ShuffleTransport:
    """Rebuild a transport inside a forked worker from its pickled spec.

    TCP workers get their own fetch client under the fetch ledger's
    policy, so worker-side reduce fetches retry and back off exactly like
    driver-side ones.
    """
    if spec.get("mode") == "tcp":
        return TcpShuffleTransport(spec["root"], tuple(spec["address"]),
                                   policy=policy(config, "fetch"))
    return ShuffleTransport(spec["root"])
