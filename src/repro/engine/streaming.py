"""Micro-batch stream processing on top of the batch engine.

Streaming campaigns (for instance the smart-meter anomaly-detection vertical)
are executed as a sequence of small batch jobs, exactly like Spark Streaming's
discretised streams: a stream source produces one batch of records per tick,
each batch becomes a dataset, and the registered transformation pipeline plus
output action run on it.  Sliding windows are supported by buffering previous
batches.  A tick's datasets are never read again, so once its outputs ran
every shuffle the tick registered (a cache's included) is removed, and so
is every input file the tick published for worker processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import StreamError
from .context import EngineContext
from .dataset import Dataset


class StreamSource:
    """Interface of a micro-batch stream source.

    Concrete sources (see :mod:`repro.data.sources`) generate or replay
    records.  ``next_batch`` returns the list of records of one batch, or
    ``None`` when the stream is exhausted.
    """

    name = "stream"

    def next_batch(self, batch_index: int) -> Optional[List[Any]]:
        """Return the records of batch ``batch_index`` or ``None`` at end of stream."""
        raise NotImplementedError


@dataclass
class BatchResult:
    """Outcome of processing one micro-batch."""

    batch_index: int
    num_input_records: int
    num_output_records: int
    processing_time_s: float
    outputs: List[Any] = field(default_factory=list)


@dataclass
class StreamRunReport:
    """Summary of a whole streaming run."""

    batches: List[BatchResult] = field(default_factory=list)

    @property
    def num_batches(self) -> int:
        """Number of batches processed."""
        return len(self.batches)

    @property
    def total_input_records(self) -> int:
        """Total records consumed from the source."""
        return sum(b.num_input_records for b in self.batches)

    @property
    def total_output_records(self) -> int:
        """Total records emitted by the output action."""
        return sum(b.num_output_records for b in self.batches)

    @property
    def mean_latency_s(self) -> float:
        """Mean per-batch processing latency in seconds."""
        if not self.batches:
            return 0.0
        return sum(b.processing_time_s for b in self.batches) / len(self.batches)

    @property
    def max_latency_s(self) -> float:
        """Worst per-batch processing latency in seconds."""
        if not self.batches:
            return 0.0
        return max(b.processing_time_s for b in self.batches)

    @property
    def throughput_records_per_s(self) -> float:
        """Input records per second of processing time."""
        total_time = sum(b.processing_time_s for b in self.batches)
        if total_time <= 0:
            return 0.0
        return self.total_input_records / total_time

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary summary for run comparison."""
        return {
            "num_batches": self.num_batches,
            "total_input_records": self.total_input_records,
            "total_output_records": self.total_output_records,
            "mean_latency_s": self.mean_latency_s,
            "max_latency_s": self.max_latency_s,
            "throughput_records_per_s": self.throughput_records_per_s,
        }


class DStream:
    """A discretised stream: a pipeline of dataset transformations per batch."""

    def __init__(self, streaming_context: "StreamingContext",
                 transform: Optional[Callable[[Dataset], Dataset]] = None,
                 window_batches: int = 1, slide_batches: int = 1):
        self._ssc = streaming_context
        self._transform = transform or (lambda dataset: dataset)
        self.window_batches = window_batches
        self.slide_batches = slide_batches

    # -- transformations --------------------------------------------------------

    def _chain(self, next_step: Callable[[Dataset], Dataset]) -> "DStream":
        previous = self._transform
        return DStream(self._ssc, lambda dataset: next_step(previous(dataset)),
                       self.window_batches, self.slide_batches)

    def map(self, func: Callable[[Any], Any]) -> "DStream":
        """Apply ``func`` to every record of every batch."""
        return self._chain(lambda dataset: dataset.map(func))

    def filter(self, predicate: Callable[[Any], bool]) -> "DStream":
        """Keep only records matching ``predicate``."""
        return self._chain(lambda dataset: dataset.filter(predicate))

    def flat_map(self, func: Callable[[Any], Iterable[Any]]) -> "DStream":
        """Apply ``func`` and flatten the results."""
        return self._chain(lambda dataset: dataset.flat_map(func))

    def reduce_by_key(self, func: Callable[[Any, Any], Any]) -> "DStream":
        """Per-batch ``reduce_by_key``."""
        return self._chain(lambda dataset: dataset.reduce_by_key(func))

    def transform(self, func: Callable[[Dataset], Dataset]) -> "DStream":
        """Apply an arbitrary dataset-to-dataset transformation per batch."""
        return self._chain(func)

    def window(self, window_batches: int, slide_batches: int = 1) -> "DStream":
        """Process a sliding window of the last ``window_batches`` batches."""
        if window_batches < 1 or slide_batches < 1:
            raise StreamError("window and slide must be at least one batch")
        return DStream(self._ssc, self._transform, window_batches, slide_batches)

    # -- output -------------------------------------------------------------------

    def foreach_batch(self, action: Callable[[int, Dataset], Any]) -> None:
        """Register the output action invoked once per (windowed) batch."""
        self._ssc._register_output(self, action)

    def collect_batches(self) -> None:
        """Convenience output action that collects each batch's records."""
        self.foreach_batch(lambda index, dataset: dataset.collect())


class StreamingContext:
    """Drives micro-batch execution of one stream source."""

    def __init__(self, engine: EngineContext, source: StreamSource,
                 batch_interval_s: float = 0.0, num_partitions: Optional[int] = None):
        if batch_interval_s < 0:
            raise StreamError("batch_interval_s must be >= 0")
        self.engine = engine
        self.source = source
        self.batch_interval_s = batch_interval_s
        self.num_partitions = num_partitions
        self._outputs: List[tuple] = []
        self._buffer: List[List[Any]] = []

    def stream(self) -> DStream:
        """Return the root stream of this context."""
        return DStream(self)

    def _register_output(self, stream: DStream, action: Callable[[int, Dataset], Any]) -> None:
        self._outputs.append((stream, action))

    def run(self, max_batches: int, realtime: bool = False) -> StreamRunReport:
        """Consume up to ``max_batches`` batches and run every registered output.

        When ``realtime`` is true the context sleeps to honour the configured
        batch interval, otherwise batches are processed back to back (the
        default, appropriate for tests and benchmarks).
        """
        if not self._outputs:
            raise StreamError("no output registered; call foreach_batch first")
        report = StreamRunReport()
        shuffles = self.engine.shuffle_manager
        for batch_index in range(max_batches):
            records = self.source.next_batch(batch_index)
            if records is None:
                break
            self._buffer.append(list(records))
            started = time.perf_counter()
            registered = set(shuffles.shuffle_ids())
            outputs: List[Any] = []
            inputs: List[Dataset] = []
            output_records = 0
            for stream, action in self._outputs:
                if batch_index % stream.slide_batches != 0:
                    continue
                window = self._buffer[-stream.window_batches:]
                windowed_records = [record for batch in window for record in batch]
                dataset = self.engine.parallelize(windowed_records,
                                                  self.num_partitions)
                inputs.append(dataset)
                transformed = stream._transform(dataset)
                result = action(batch_index, transformed)
                outputs.append(result)
                if isinstance(result, (list, tuple)):
                    output_records += len(result)
            for shuffle_id in shuffles.shuffle_ids():
                if shuffle_id not in registered:
                    # a durable transport's frames stay, as at stop()
                    shuffles.remove_shuffle(shuffle_id, spare_durable=True)
            for dataset in inputs:
                dataset.withdraw()
            elapsed = time.perf_counter() - started
            report.batches.append(BatchResult(
                batch_index=batch_index, num_input_records=len(records),
                num_output_records=output_records,
                processing_time_s=elapsed, outputs=outputs))
            # keep only what future windows can reference
            max_window = max(stream.window_batches for stream, _ in self._outputs)
            if len(self._buffer) > max_window:
                self._buffer = self._buffer[-max_window:]
            if realtime and self.batch_interval_s > elapsed:
                time.sleep(self.batch_interval_s - elapsed)
        return report
