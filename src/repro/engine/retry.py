"""The failure table, the retry policy of each ledger, and worker health.

Every way a run can fail is declared once, in :data:`FAILURES`: what
detects it, which *ledger* it charges, how it recovers and which
:data:`~repro.engine.metrics.COUNTERS` entry it ticks.  There are four
ledgers:

* **attempt** — a task's retry budget (``max_task_retries``), kept by the
  stage driver (:meth:`~repro.engine.executor.Executor._charge`);
* **stage** — the stage's recovery budget (``max_stage_retries``): the
  scheduler recomputes lost map output and reruns the stage, and the
  process backend respawns a broken pool and resubmits what did not
  finish;
* **fetch** — one span fetch's budget (``fetch_max_retries``, backoff from
  ``fetch_backoff_s``), kept by the shuffle fetch client;
* **worker** — a worker process's strikes and heartbeat, kept by the
  :class:`NodeHealthTracker`; only a worker process's pid is ever charged.

A failed attempt that does not go to the stage ledger is retried within
its attempt budget.  :func:`policy` derives the :class:`RetryPolicy` of a
ledger from the knob table; binding the shuffle server's port has no knob,
so its budget is declared here too.

Jitter is *deterministic*: drawn from a seeded RNG keyed on ``(seed, retry
key, attempt)``, so identical runs sleep identical delays and tests can
assert exact schedules.  Decorrelation across callers comes from the key —
every fetch passes its own coordinates — not from wall-clock entropy.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Collection, Dict, List, NamedTuple,
                    Optional, Tuple, Type)

from ..errors import (CheckpointCorruptionError, ConfigurationError,
                      FetchFailedError, ShuffleCorruptionError)
from .metrics import COUNTER, Counter


class InjectedFailure(RuntimeError):
    """Raised by the fault injector to simulate a spurious task failure."""


class InjectedCrash(InjectedFailure):
    """An injected crash on a thread, which cannot lose its process."""


class Failure(NamedTuple):
    """One failure kind.

    ``detect`` holds the error types that signal it; it is empty for the
    two kinds a driver clock check finds (a deadline, a stale heartbeat).
    ``recover`` says what runs next.
    """

    detect: Tuple[Type[BaseException], ...]
    ledger: str
    recover: str
    counter: Counter


#: Every failure kind, by name.  A crash on a thread is retried; a worker
#: process that crashes breaks its pool instead.
FAILURES: Dict[str, Failure] = {
    "task_error": Failure((Exception,), "worker", "retry; strike the worker",
                          COUNTER.num_failed_attempts),
    "crash": Failure((InjectedCrash,), "attempt", "retry",
                     COUNTER.num_failed_attempts),
    "deadline": Failure((), "attempt", "abandon, retry",
                        COUNTER.timed_out_tasks),
    "fetch_error": Failure((OSError, ShuffleCorruptionError), "fetch",
                           "refetch with backoff", COUNTER.fetch_retries),
    "lost_output": Failure((FetchFailedError,), "stage",
                           "strike the producer; heal; rerun the stage",
                           COUNTER.lost_map_outputs),
    "checkpoint": Failure((CheckpointCorruptionError,), "stage",
                          "drop the checkpoint; rerun the job",
                          COUNTER.num_failed_attempts),
    "stale_heartbeat": Failure((), "worker",
                               "blacklist; recycle the pool; heal",
                               COUNTER.blacklisted_workers),
    "broken_pool": Failure((BrokenProcessPool,), "stage",
                           "fresh pool; resubmit the unfinished tasks",
                           COUNTER.stage_retries),
}


def attempt_failure(error: BaseException) -> Tuple[str, Dict[str, Any]]:
    """The kind of a failed attempt's ``error``, and its coordinates.

    Besides a task error, an attempt's own error can signal lost output, a
    rotten checkpoint or an injected crash.  The coordinates are the error's
    own fields: what a stage-ledger kind recovers from (the lost
    ``shuffle_id``/``map_partition``, the rotten checkpoint's
    ``dataset_id``/``partition``).
    """
    for kind in ("lost_output", "checkpoint", "crash"):
        if isinstance(error, FAILURES[kind].detect):
            return kind, dict(vars(error))
    return "task_error", {}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded exponential backoff.

    ``max_retries`` counts *re*-tries: ``run`` makes up to
    ``max_retries + 1`` attempts.  Retry ``n`` (0-based) sleeps
    ``backoff_s * multiplier**n``, capped at ``max_backoff_s`` and scaled
    by a deterministic jitter factor in ``[1 - jitter, 1 + jitter]``.
    ``backoff_s == 0`` retries immediately (the stage ledger).
    """

    max_retries: int = 3
    backoff_s: float = 0.0
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if self.max_backoff_s < 0:
            raise ConfigurationError("max_backoff_s must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Seeded backoff delay before retry ``attempt`` (0-based)."""
        if self.backoff_s <= 0:
            return 0.0
        delay = min(self.backoff_s * (self.multiplier ** attempt),
                    self.max_backoff_s)
        if self.jitter > 0:
            rng = random.Random(f"{self.seed}:retry:{key}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)

    def run(self, fn: Callable[[int], object], key: str = "",
            retry_on: Tuple[Type[BaseException], ...] = (Exception,),
            on_retry: Optional[Callable[[int, BaseException], None]] = None,
            sleep: Callable[[float], None] = time.sleep):
        """Call ``fn(attempt)`` until it succeeds or the budget is spent.

        Only exceptions in ``retry_on`` are retried; anything else — and
        the last ``retry_on`` error once ``max_retries`` is exhausted —
        propagates to the caller.  ``on_retry(attempt, error)`` runs before
        each backoff sleep (fetch clients count retries there; the
        scheduler recomputes lost lineage there — an exception it raises
        aborts the loop immediately, which is exactly what an unrecoverable
        loss should do).
        """
        for attempt in range(self.max_retries + 1):
            try:
                return fn(attempt)
            except retry_on as error:
                if attempt >= self.max_retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                delay = self.delay_s(attempt, key)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable: the loop returns or raises")


#: ``(max_retries, backoff_s)`` of each retry loop, read off the knobs.
_BUDGETS: Dict[str, Callable[[Any], Tuple[int, float]]] = {
    "attempt": lambda config: (config.max_task_retries, 0.0),
    "stage": lambda config: (config.max_stage_retries, 0.0),
    "fetch": lambda config: (config.fetch_max_retries, config.fetch_backoff_s),
    "bind": lambda config: (4, 0.05),
}


def policy(config: Any, ledger: str) -> RetryPolicy:
    """The :class:`RetryPolicy` of ``ledger`` (or ``"bind"``), seeded by
    ``config.seed``.  The stage ledger never backs off: the recompute
    itself is the wait."""
    retries, backoff_s = _BUDGETS[ledger](config)
    return RetryPolicy(max_retries=retries, backoff_s=backoff_s,
                       seed=config.seed)


class NodeHealthTracker:
    """The worker ledger: strikes, heartbeats, blacklist.

    Two signals feed it.  *Failure strikes*: the executor reports each
    task error of a worker process (and the scheduler each lost output,
    against the span's producer); ``blacklist_failure_threshold``
    consecutive strikes — a success resets the count — blacklist the
    worker.  *Heartbeats*: pool workers touch a per-pid file every
    ``heartbeat_interval_s``; a live pool worker's file stale beyond
    ``heartbeat_timeout_s`` blacklists it directly (the timeout already
    encodes several missed beats).  Blacklisted workers are removed from
    scheduling (the executor recycles its pool) and their map outputs are
    invalidated and recomputed by the scheduler, which drains
    :meth:`drain_new` between stages.  Every method is a no-op while its
    knob is off, and all are thread-safe.

    With ``blacklist_cooldown_s > 0`` a blacklisting is a sentence, not a
    verdict: once the cooldown elapses the worker is rehabilitated — it
    leaves the blacklist with a clean strike ledger and may be scheduled
    again.  A transient environmental glitch (disk-full, GC pause storms)
    thus cannot permanently shrink the pool, while a genuinely sick node
    that keeps failing simply earns its next sentence.  Expiry is checked
    lazily against the injected clock on every query, so tests can drive
    it with a fake clock.
    """

    def __init__(self, failure_threshold: int = 0,
                 heartbeat_timeout_s: float = 0.0,
                 heartbeat_dir: Optional[Callable[[], str]] = None,
                 clock: Callable[[], float] = time.time,
                 blacklist_cooldown_s: float = 0.0):
        self.failure_threshold = failure_threshold
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.blacklist_cooldown_s = blacklist_cooldown_s
        self._heartbeat_dir = heartbeat_dir
        self._clock = clock
        self._lock = threading.Lock()
        self._strikes: Dict[Any, int] = {}
        self._blacklist: set = set()
        self._new: List[Any] = []
        #: worker -> clock time at which its blacklisting expires.
        self._expiry: Dict[Any, float] = {}

    @property
    def strikes_enabled(self) -> bool:
        """True when repeated failures can blacklist a worker."""
        return self.failure_threshold > 0

    @property
    def watches_beats(self) -> bool:
        """True when heartbeat staleness is being monitored."""
        return self.heartbeat_timeout_s > 0 and self._heartbeat_dir is not None

    def _add_to_blacklist(self, worker: Any) -> bool:
        """Blacklist ``worker`` (lock held); True if newly added."""
        self._release_expired_locked()
        if worker in self._blacklist:
            return False
        self._blacklist.add(worker)
        self._new.append(worker)
        self._strikes.pop(worker, None)
        if self.blacklist_cooldown_s > 0:
            self._expiry[worker] = self._clock() + self.blacklist_cooldown_s
        return True

    def _release_expired_locked(self) -> None:
        """Rehabilitate workers whose cooldown elapsed (lock held)."""
        if not self._expiry:
            return
        now = self._clock()
        released = [worker for worker, expires_at in self._expiry.items()
                    if expires_at <= now]
        for worker in released:
            del self._expiry[worker]
            self._blacklist.discard(worker)
            # a rehabilitated worker starts with a clean ledger — stale
            # strikes from before the sentence must not instantly re-convict
            self._strikes.pop(worker, None)

    def record_failure(self, worker: Any) -> bool:
        """Count one strike against ``worker``; True if it got blacklisted."""
        if not self.strikes_enabled or worker is None:
            return False
        with self._lock:
            self._release_expired_locked()
            if worker in self._blacklist:
                return False
            self._strikes[worker] = self._strikes.get(worker, 0) + 1
            if self._strikes[worker] >= self.failure_threshold:
                return self._add_to_blacklist(worker)
        return False

    def record_success(self, worker: Any) -> None:
        """A completed task resets the worker's consecutive-failure count."""
        if self.strikes_enabled:
            with self._lock:
                self._strikes.pop(worker, None)

    def is_blacklisted(self, worker: Any) -> bool:
        with self._lock:
            self._release_expired_locked()
            return worker in self._blacklist

    @property
    def blacklisted(self) -> set:
        """Snapshot of every blacklisted worker identity."""
        with self._lock:
            self._release_expired_locked()
            return set(self._blacklist)

    def drain_new(self) -> List[Any]:
        """Workers blacklisted since the last drain (scheduler absorbs them)."""
        with self._lock:
            new, self._new = self._new, []
            return new

    def check_heartbeats(self, live: Optional[Collection[int]] = None
                         ) -> None:
        """Blacklist workers whose beat file went stale.

        ``live`` names the pids of the live pool: the beat file of any
        other pid belongs to a retired worker and is never stale.  ``None``
        checks every file in the directory.
        """
        if not self.watches_beats:
            return
        try:
            entries = list(os.scandir(self._heartbeat_dir()))
        except OSError:
            return
        now = self._clock()
        for entry in entries:
            try:
                pid = int(entry.name)
                mtime = entry.stat().st_mtime
            except (ValueError, OSError):
                continue
            if live is not None and pid not in live or \
                    now - mtime <= self.heartbeat_timeout_s:
                continue
            with self._lock:
                self._add_to_blacklist(pid)
