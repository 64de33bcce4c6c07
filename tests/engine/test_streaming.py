"""Micro-batch streaming: windows, outputs, reports."""

from __future__ import annotations

import operator
import os

import pytest

from repro.config import EngineConfig
from repro.engine import EngineContext, serializer
from repro.engine.streaming import StreamingContext, StreamSource
from repro.errors import StreamError


class CountingSource(StreamSource):
    """Produces ``num_batches`` batches of consecutive integers."""

    def __init__(self, num_batches: int = 5, batch_size: int = 10):
        self.num_batches = num_batches
        self.batch_size = batch_size

    def next_batch(self, batch_index: int):
        if batch_index >= self.num_batches:
            return None
        start = batch_index * self.batch_size
        return list(range(start, start + self.batch_size))


class TestStreamingBasics:
    def test_processes_every_batch(self, engine):
        ssc = StreamingContext(engine, CountingSource(4, 5))
        collected = []
        ssc.stream().foreach_batch(lambda index, ds: collected.append(ds.collect()))
        report = ssc.run(max_batches=10)
        assert report.num_batches == 4
        assert collected[0] == [0, 1, 2, 3, 4]
        assert report.total_input_records == 20

    def test_stops_at_max_batches(self, engine):
        ssc = StreamingContext(engine, CountingSource(100, 3))
        ssc.stream().collect_batches()
        report = ssc.run(max_batches=5)
        assert report.num_batches == 5

    def test_map_filter_transformations_apply_per_batch(self, engine):
        ssc = StreamingContext(engine, CountingSource(3, 10))
        sums = []
        (ssc.stream()
         .map(lambda x: x * 2)
         .filter(lambda x: x % 4 == 0)
         .foreach_batch(lambda index, ds: sums.append(ds.sum())))
        ssc.run(max_batches=3)
        assert len(sums) == 3
        assert sums[0] == sum(x * 2 for x in range(10) if (x * 2) % 4 == 0)

    def test_reduce_by_key_per_batch(self, engine):
        ssc = StreamingContext(engine, CountingSource(2, 10))
        results = []
        (ssc.stream()
         .map(lambda x: (x % 2, 1))
         .reduce_by_key(lambda a, b: a + b)
         .foreach_batch(lambda index, ds: results.append(dict(ds.collect()))))
        ssc.run(max_batches=2)
        assert results[0] == {0: 5, 1: 5}

    def test_transform_hook(self, engine):
        ssc = StreamingContext(engine, CountingSource(2, 4))
        counts = []
        (ssc.stream()
         .transform(lambda ds: ds.distinct())
         .foreach_batch(lambda index, ds: counts.append(ds.count())))
        ssc.run(max_batches=2)
        assert counts == [4, 4]

    def test_run_without_output_raises(self, engine):
        ssc = StreamingContext(engine, CountingSource(2, 4))
        with pytest.raises(StreamError):
            ssc.run(max_batches=2)

    def test_exhausted_source_ends_run(self, engine):
        ssc = StreamingContext(engine, CountingSource(2, 4))
        ssc.stream().collect_batches()
        report = ssc.run(max_batches=10)
        assert report.num_batches == 2


class TestWindows:
    def test_window_accumulates_previous_batches(self, engine):
        ssc = StreamingContext(engine, CountingSource(4, 5))
        counts = []
        (ssc.stream()
         .window(window_batches=2)
         .foreach_batch(lambda index, ds: counts.append(ds.count())))
        ssc.run(max_batches=4)
        assert counts == [5, 10, 10, 10]

    def test_slide_skips_batches(self, engine):
        ssc = StreamingContext(engine, CountingSource(6, 2))
        invocations = []
        (ssc.stream()
         .window(window_batches=2, slide_batches=2)
         .foreach_batch(lambda index, ds: invocations.append(index)))
        ssc.run(max_batches=6)
        assert invocations == [0, 2, 4]

    def test_invalid_window_rejected(self, engine):
        ssc = StreamingContext(engine, CountingSource(2, 2))
        with pytest.raises(StreamError):
            ssc.stream().window(0)


class TestReports:
    def test_report_metrics_are_consistent(self, engine):
        ssc = StreamingContext(engine, CountingSource(3, 10))
        ssc.stream().collect_batches()
        report = ssc.run(max_batches=3)
        summary = report.as_dict()
        assert summary["num_batches"] == 3
        assert summary["total_input_records"] == 30
        assert summary["mean_latency_s"] > 0
        assert summary["max_latency_s"] >= summary["mean_latency_s"]
        assert summary["throughput_records_per_s"] > 0

    def test_empty_report(self):
        from repro.engine.streaming import StreamRunReport
        report = StreamRunReport()
        assert report.mean_latency_s == 0.0
        assert report.throughput_records_per_s == 0.0

    def test_negative_batch_interval_rejected(self, engine):
        with pytest.raises(StreamError):
            StreamingContext(engine, CountingSource(), batch_interval_s=-1)


class TestStreamingResources:
    @staticmethod
    def registered_after(ticks: int) -> int:
        """Shuffles still registered after ``ticks`` ticks of a reduce whose
        output is cached and read twice."""
        def output(index, dataset):
            cached = dataset.cache()
            return [cached.count(), len(cached.collect())]

        with EngineContext(EngineConfig(num_workers=2, seed=1)) as engine:
            ssc = StreamingContext(engine, CountingSource(ticks, 20))
            (ssc.stream()
             .map(lambda x: (x % 3, x))
             .reduce_by_key(operator.add)
             .foreach_batch(output))
            ssc.run(max_batches=ticks)
            return len(engine.shuffle_manager.shuffle_ids())

    def test_no_shuffle_of_a_finished_tick_stays_registered(self):
        assert self.registered_after(50) <= self.registered_after(1)

    @staticmethod
    def input_files_after(ticks: int) -> int:
        """Input files published for worker processes that are still on
        disk after ``ticks`` ticks of a reduce on the process backend."""
        config = EngineConfig(num_workers=2, seed=1,
                              executor_backend="process")
        with EngineContext(config) as engine:
            ssc = StreamingContext(engine, CountingSource(ticks, 20),
                                   num_partitions=4)
            (ssc.stream()
             .map(lambda x: (x % 3, x))
             .reduce_by_key(operator.add)
             .foreach_batch(lambda index, dataset: dataset.collect()))
            ssc.run(max_batches=ticks)
            inputs = os.path.join(engine._transport.root, "inputs")
            return len(os.listdir(inputs)) if os.path.isdir(inputs) else 0

    @pytest.mark.skipif(not serializer.supports_closures(),
                        reason="process-backend stages ship closures")
    def test_no_input_of_a_finished_tick_stays_published(self):
        assert self.input_files_after(30) <= self.input_files_after(1)
