"""Memory-bounded execution: spill-to-disk shuffle and external merge.

The contract under test everywhere: with ``shuffle_memory_bytes`` capped far
below the shuffle volume, every wide operator returns *identical* results
(same records, same order) and identical metrics — except the spill counters
— as the unbounded resident run, while actually spilling; and no spill file
survives ``EngineContext.stop()`` or a failed job.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine.context import EngineContext
from repro.engine.memory import (MemoryManager, SpillRun, dump_frames,
                                 iter_frames, load_frames)
from repro.engine.shuffle import ShuffleManager
from repro.errors import TaskError

#: Far below the shuffle volume of every pipeline below — even the heavily
#: map-side-combined ones — so the bucket spill path and the reduce-side
#: external merge both engage for all twelve wide operators.
TINY_CAP = 128


def capped_engine(batch_size: int = 1024, cap: int = TINY_CAP,
                  **overrides) -> EngineContext:
    """An engine whose shuffle memory is capped far below the data volume."""
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "batch_size": batch_size, "shuffle_memory_bytes": cap}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def resident_engine(batch_size: int = 1024, **overrides) -> EngineContext:
    """The same engine with the default unbounded (fully resident) shuffle."""
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "batch_size": batch_size, "shuffle_memory_bytes": 0}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


DATA = [(0 if i % 20 < 9 else i % 13, i) for i in range(800)]

PIPELINES = {
    "group_by_key": lambda ds, other: ds.group_by_key(4),
    "reduce_by_key": lambda ds, other: ds.reduce_by_key(lambda a, b: a + b, 4),
    "combine_by_key": lambda ds, other: ds.combine_by_key(
        lambda v: [v], lambda acc, v: acc + [v], lambda a, b: a + b, 4),
    "distinct": lambda ds, other: ds.distinct(4),
    "sort_by": lambda ds, other: ds.sort_by(lambda pair: pair[0], True, 4),
    "repartition": lambda ds, other: ds.repartition(4),
    "join": lambda ds, other: ds.join(other, 4),
    "left_outer_join": lambda ds, other: ds.left_outer_join(other, 4),
    "right_outer_join": lambda ds, other: ds.right_outer_join(other, 4),
    "full_outer_join": lambda ds, other: ds.full_outer_join(other, 4),
    "subtract_by_key": lambda ds, other: ds.subtract_by_key(other, 4),
    "cogroup": lambda ds, other: ds.cogroup(other, 4),
}

OTHER_SIDE = [(k, f"dim-{k}") for k in range(0, 26, 2)]

#: Metric keys that legitimately differ between bounded and resident runs.
_VOLATILE_KEYS = ("wall_clock_s", "total_task_time_s", "spills",
                  "spill_bytes", "peak_shuffle_bytes")


def run_pipeline(make_engine, pipeline_name: str, data, batch_size: int):
    """Run one pipeline twice (shuffle + reuse); return results and metrics."""
    build = PIPELINES[pipeline_name]
    with make_engine(batch_size=batch_size,
                     broadcast_threshold_bytes=0) as ctx:
        ds = build(ctx.parallelize(data, 4), ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()  # shuffle output (spilled or not) is reused
        summary = ctx.metrics.summary()
        read_bytes = sum(stage.shuffle_bytes_read
                         for job in ctx.metrics.jobs for stage in job.stages)
        comparable = {key: value for key, value in summary.items()
                      if key not in _VOLATILE_KEYS}
        comparable["shuffle_bytes_read"] = read_bytes
        return first, second, comparable, summary["spills"]


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_capped_matches_resident_exactly(pipeline_name, batch_size):
    """Capped and resident runs agree record-for-record and metric-for-metric."""
    capped_first, capped_second, capped_metrics, spills = run_pipeline(
        capped_engine, pipeline_name, DATA, batch_size)
    plain_first, plain_second, plain_metrics, none = run_pipeline(
        resident_engine, pipeline_name, DATA, batch_size)
    assert capped_first == plain_first
    assert capped_second == plain_second
    assert capped_metrics == plain_metrics
    assert spills > 0, "the tiny cap must actually force spilling"
    assert none == 0, "the unbounded engine must never spill"


@pytest.mark.parametrize("pipeline_name", ["group_by_key", "sort_by", "join"])
def test_capped_parity_with_skew_splitting(pipeline_name):
    """Spilled shuffles still serve skew-split sub-partition reads exactly."""
    overrides = {"skew_split_factor": 4, "skew_min_partition_bytes": 1}

    def capped(batch_size, **extra):
        return capped_engine(batch_size, **dict(overrides, **extra))

    def plain(batch_size, **extra):
        return resident_engine(batch_size, **dict(overrides, **extra))

    capped_first, capped_second, capped_metrics, spills = run_pipeline(
        capped, pipeline_name, DATA, 1024)
    plain_first, plain_second, plain_metrics, _ = run_pipeline(
        plain, pipeline_name, DATA, 1024)
    assert capped_first == plain_first
    assert capped_second == plain_second
    assert capped_metrics == plain_metrics
    assert spills > 0


def test_uncombined_aggregation_reduces_resident_but_correct():
    """Without slice semantics the external merge must stay out of the way."""
    rules = tuple(rule for rule in EngineConfig().optimizer_rules
                  if rule != "map_side_combine")
    capped_first, _, _, _ = run_pipeline(
        lambda batch_size, **kw: capped_engine(
            batch_size, optimizer_rules=rules, **kw),
        "reduce_by_key", DATA, 1024)
    plain_first, _, _, _ = run_pipeline(
        lambda batch_size, **kw: resident_engine(
            batch_size, optimizer_rules=rules, **kw),
        "reduce_by_key", DATA, 1024)
    assert capped_first == plain_first


def test_peak_residency_is_tracked_and_bounded():
    """A cap far below the shuffle volume slashes the tracked residency.

    The cap is derived from the measured resident peak; the capped run may
    overshoot the cap by in-flight map outputs and bounded merge partials
    (~1.5x the cap), but must land far below the resident high-water mark.
    """
    data = [(i % 29, "x" * 50) for i in range(20_000)]

    def peak(make_engine):
        with make_engine() as ctx:
            ds = ctx.parallelize(data, 8).group_by_key(8)
            ds.collect()
            return (ctx.memory_manager.peak_bytes,
                    ctx.metrics.jobs[-1].peak_shuffle_bytes,
                    ctx.metrics.jobs[-1].spills)

    resident_peak, _, no_spills = peak(resident_engine)
    cap = resident_peak // 4
    capped_peak, capped_job_peak, spills = peak(
        lambda: capped_engine(cap=cap))
    assert spills > 0 and no_spills == 0
    assert capped_job_peak > 0
    assert capped_peak <= resident_peak * 0.6
    # the job-level metric observes the same residency the manager tracks
    assert capped_job_peak <= capped_peak


# -- spill-file lifecycle ------------------------------------------------------


def spill_files(ctx) -> list:
    root = ctx._spill_root
    if root is None or not os.path.isdir(root):
        return []
    return sorted(os.listdir(root))


def test_no_spill_files_survive_stop():
    ctx = capped_engine()
    ds = ctx.parallelize(DATA, 4).group_by_key(4)
    ds.collect()
    root = ctx._spill_root
    assert root is not None and os.path.isdir(root)
    assert any(name.startswith("shuffle-") for name in spill_files(ctx))
    ctx.stop()
    assert not os.path.isdir(root)


def test_merge_runs_are_deleted_after_each_job():
    with capped_engine() as ctx:
        ds = ctx.parallelize(DATA, 4).sort_by(lambda pair: pair[0], True, 4)
        ds.collect()
        assert ctx.metrics.summary()["spills"] > 0
        # the shuffle's bucket spill file may live on (the shuffle is
        # reusable); every reduce-side run file must be gone already
        assert not any(name.startswith("run-") for name in spill_files(ctx))


def test_failed_job_discards_partial_spill_files():
    def explode(pair):
        if pair[1] == 799:  # last record of the last map partition
            raise ValueError("boom")
        return pair

    ctx = capped_engine(max_task_retries=0, num_workers=1)
    try:
        ds = ctx.parallelize(DATA, 4).map(explode).group_by_key(4)
        with pytest.raises(TaskError):
            ds.collect()
        # the incomplete shuffle (and its spill file) was discarded
        assert not any(name.startswith("shuffle-") for name in spill_files(ctx))
        assert not any(name.startswith("run-") for name in spill_files(ctx))
        root = ctx._spill_root
    finally:
        ctx.stop()
    assert root is None or not os.path.isdir(root)


def test_shuffle_spill_file_removed_with_shuffle(tmp_path):
    memory = MemoryManager(64)
    manager = ShuffleManager(memory_manager=memory,
                             spill_dir=lambda: str(tmp_path))
    manager.register_shuffle(7, 2)
    manager.write_map_output(7, 0, {0: [(1, "a")] * 50, 1: [(2, "b")] * 50})
    manager.write_map_output(7, 1, {0: [(1, "c")] * 50})
    assert manager.spill_stats()[0] > 0
    assert any(name.startswith("shuffle-7") for name in os.listdir(tmp_path))
    manager.remove_shuffle(7)
    assert not os.listdir(tmp_path)
    assert memory.used_bytes == 0


def test_external_merge_failure_leaves_no_runs_or_reservation():
    """A reduce that raises mid-merge must delete its runs and release its
    memory reservation (regression: the tail reduce used to sit outside the
    cleanup handler)."""
    with capped_engine(optimizer_rules=(), max_task_retries=0) as ctx:
        ds = ctx.parallelize(DATA, 4).group_by_key(4)
        ds.collect()  # the shuffle completes; reduce reads will spill runs

        def exploding(records):
            raise ValueError("reduce boom")

        ds._slice_reduce = exploding
        with pytest.raises(TaskError):
            ds.collect()
        assert not any(name.startswith("run-") for name in spill_files(ctx))
        # only the shuffle buckets' reservation survives the failed job
        assert ctx.memory_manager.used_bytes == \
            ctx.shuffle_manager.resident_bytes()


def test_unpicklable_records_fall_back_to_resident_execution():
    """Unpicklable records disable spilling but never break the job."""
    class Unpicklable:
        def __init__(self, value):
            self.value = value

        def __reduce__(self):
            raise TypeError("refuses to pickle")

    data = [(i % 3, Unpicklable(i)) for i in range(300)]
    with capped_engine() as ctx:
        grouped = (ctx.parallelize(data, 4).group_by_key(4)
                   .map_values(len).collect())
        assert sorted(grouped) == [(0, 100), (1, 100), (2, 100)]
        assert not spill_files(ctx)  # nothing could be spilled


# -- ShuffleManager spill behaviour -------------------------------------------


@pytest.fixture()
def paired_managers(tmp_path):
    """A capped manager (spilling into tmp_path) and a resident twin."""
    capped = ShuffleManager(memory_manager=MemoryManager(128),
                            spill_dir=lambda: str(tmp_path))
    resident = ShuffleManager()
    buckets = {
        0: {0: [(0, i) for i in range(200)], 1: [(1, i) for i in range(10)]},
        1: {0: [(0, -i) for i in range(150)], 2: [(2, i) for i in range(30)]},
        2: {1: [(1, i * 7) for i in range(90)]},
    }
    for manager in (capped, resident):
        manager.register_shuffle(3, 3)
        for map_partition, output in buckets.items():
            manager.write_map_output(3, map_partition, output)
    yield capped, resident
    capped.clear()
    resident.clear()


def test_spilled_reads_match_resident_reads(paired_managers):
    capped, resident = paired_managers
    assert capped.spill_stats()[0] > 0
    assert capped.resident_bytes() <= 128
    for partition in range(3):
        assert capped.read_reduce_input(3, partition) == \
            resident.read_reduce_input(3, partition)
        for map_range in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert capped.read_reduce_input(3, partition, map_range) == \
                resident.read_reduce_input(3, partition, map_range)


def test_iter_reduce_input_streams_the_full_read(paired_managers):
    capped, resident = paired_managers
    for partition in range(3):
        streamed: list = []
        size = 0
        for bucket, bucket_size in capped.iter_reduce_input(3, partition):
            streamed.extend(bucket)
            size += bucket_size
        assert (streamed, size) == resident.read_reduce_input(3, partition)


def test_sample_records_identical_after_spilling(paired_managers):
    capped, resident = paired_managers
    for size in (5, 50, 10_000):
        assert capped.sample_records([3], size) == \
            resident.sample_records([3], size)


def test_unpicklable_buckets_stay_resident(tmp_path):
    capped = ShuffleManager(memory_manager=MemoryManager(16),
                            spill_dir=lambda: str(tmp_path))
    capped.register_shuffle(1, 1)
    records = [(0, lambda: None)] * 40  # lambdas refuse to pickle
    capped.write_map_output(1, 0, {0: records})
    read, _ = capped.read_reduce_input(1, 0)
    assert len(read) == 40
    assert not os.listdir(tmp_path)
    capped.clear()


def test_overwritten_map_output_replaces_spilled_bucket(tmp_path):
    capped = ShuffleManager(memory_manager=MemoryManager(64),
                            spill_dir=lambda: str(tmp_path))
    capped.register_shuffle(1, 2)
    capped.write_map_output(1, 0, {0: [(0, i) for i in range(100)]})
    capped.write_map_output(1, 1, {0: [(9, 9)] * 80})  # forces 0's spill
    # a retried map task rewrites its buckets; the fresh copy must win
    capped.write_map_output(1, 0, {0: [("fresh", i) for i in range(5)]})
    records, _ = capped.read_reduce_input(1, 0)
    assert records[:5] == [("fresh", i) for i in range(5)]
    capped.clear()


# -- MemoryManager and spill-frame helpers ------------------------------------


class TestMemoryManager:
    def test_unbounded_by_default(self):
        manager = MemoryManager(0)
        assert not manager.bounded
        assert manager.task_run_budget(4) == 0

    def test_reservations_are_absolute_and_released(self):
        manager = MemoryManager(100)
        assert manager.reserve("a", 40) == 40
        assert manager.reserve("b", 30) == 70
        assert manager.reserve("a", 10) == 40  # replaced, not accumulated
        manager.release("b")
        assert manager.used_bytes == 10
        assert manager.peak_bytes == 70

    def test_reset_peak(self):
        manager = MemoryManager(100)
        manager.reserve("a", 80)
        manager.release("a")
        manager.reset_peak()
        assert manager.peak_bytes == 0

    def test_task_run_budget_splits_a_quarter_of_the_budget(self):
        manager = MemoryManager(1000)
        assert manager.task_run_budget(2) == 125
        assert manager.task_run_budget(1) == 250


class TestSpillFrames:
    def test_frames_round_trip(self, tmp_path):
        records = list(range(10_000))
        payload = dump_frames(records)
        path = tmp_path / "payload.bin"
        path.write_bytes(payload)
        assert load_frames(str(path), 0, len(payload)) == records
        frames = list(iter_frames(str(path), 0, len(payload)))
        assert len(frames) > 1  # actually framed, not one blob
        assert [r for frame in frames for r in frame] == records

    def test_spill_run_list_kind_streams(self, tmp_path):
        run = SpillRun.write(str(tmp_path), [3, 1, 2])
        assert run.kind == "list"
        assert list(run.iter_records()) == [3, 1, 2]
        run.delete()
        assert not os.path.exists(run.span.path)
        run.delete()  # idempotent

    def test_spill_run_dict_kind_rebuilds(self, tmp_path):
        run = SpillRun.write(str(tmp_path), {1: ["a"], 2: ["b", "c"]})
        assert run.kind == "dict"
        assert run.load_dict() == {1: ["a"], 2: ["b", "c"]}
        run.delete()


# -- property test: random workloads under a tiny cap --------------------------


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 1, 2, 3]),
                  st.integers(min_value=-50, max_value=50)),
        min_size=0, max_size=250),
    batch_size=st.sampled_from([1, 1024]),
    pipeline_name=st.sampled_from(
        ["group_by_key", "reduce_by_key", "distinct", "sort_by", "join"]),
)
def test_property_capped_parity(pairs, batch_size, pipeline_name):
    capped_first, capped_second, capped_metrics, _ = run_pipeline(
        capped_engine, pipeline_name, pairs, batch_size)
    plain_first, plain_second, plain_metrics, _ = run_pipeline(
        resident_engine, pipeline_name, pairs, batch_size)
    assert capped_first == plain_first
    assert capped_second == plain_second
    assert capped_metrics == plain_metrics
