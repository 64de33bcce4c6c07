"""What a process-backend stage payload contains — counts, not timings.

The contract under test: what crosses the process boundary is proportional
to what the stage *reads*.  A payload holds the task graphs cut at every
complete shuffle (a broadcast build, a live checkpoint and a complete cache
are ones), the span catalog of exactly the shuffles those graphs read, and parallelised
input as per-partition spans published once per context — so a stage's
payload size depends neither on the input size nor on how deep in a chain
it sits, a worker loads only the input partition its task computes, and a
long-lived worker holds one stage's span catalog rather than every catalog
it ever saw.
"""

from __future__ import annotations

import functools
import operator
import os

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine import worker as worker_runtime
from repro.engine.context import EngineContext
from repro.engine.dataset import LineageStub, TaskContext
from repro.engine.transport import ShuffleTransport
from repro.errors import PlanError

from payload_probe import recorded_payloads, shipped_graph

if not serializer.supports_closures():  # pragma: no cover - cloudpickle ships
    pytest.skip("shipping task closures to worker processes needs cloudpickle",
                allow_module_level=True)

ROUNDS = 8
KEYS = 97
PAYLOAD_LIMIT = 64 * 1024


def process_engine(**overrides) -> EngineContext:
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "executor_backend": "process"}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def rekey(pair):
    return ((pair[0] * 7 + 3) % KEYS, pair[1])


def chain(ctx, n: int, rounds: int = ROUNDS):
    dataset = ctx.parallelize(range(n), 8).map(lambda x: (x % KEYS, x))
    for _ in range(rounds):
        dataset = dataset.reduce_by_key(operator.add, 4).map(rekey)
    return dataset


def expected_chain(n: int, rounds: int = ROUNDS):
    pairs = [(x % KEYS, x) for x in range(n)]
    for _ in range(rounds):
        totals = {}
        for key, value in pairs:
            totals[key] = totals.get(key, 0) + value
        pairs = [rekey(pair) for pair in totals.items()]
    return sorted(pairs)


def run_chain(n: int, **overrides):
    with process_engine(**overrides) as ctx:
        with recorded_payloads(ctx) as payloads:
            result = sorted(chain(ctx, n).collect())
        return result, [len(data) for data in payloads], payloads


# -- payload size --------------------------------------------------------------


def test_payload_size_follows_what_the_stage_reads_not_the_input():
    small_result, small, _ = run_chain(5_000)
    large_result, large, payloads = run_chain(50_000)
    assert small_result == expected_chain(5_000)
    assert large_result == expected_chain(50_000)
    assert len(small) == len(large) == ROUNDS + 1
    for sizes in (small, large):
        assert all(size < PAYLOAD_LIMIT for size in sizes[1:]), sizes
        # stage k of a chain ships one catalog, not k
        assert max(sizes[1:]) <= 2 * min(sizes[1:]), sizes
    # ten times the input: no stage's payload (the first included, which
    # carries the input as spans) grows with it
    for few, many in zip(small, large):
        assert many <= 2 * few, (small, large)
    assert large[0] < PAYLOAD_LIMIT
    full, stubs = shipped_graph(payloads[0])
    (source,) = [ds for ds in full.values() if ds.name == "parallelize"]
    assert not stubs
    assert source._data is None
    assert [span[3] for span in source._spans] == [50_000 // 8] * 8


def test_the_stream_stage_payload_does_not_grow_with_the_build_side():
    """A broadcast build is a one-bucket shuffle: the stream stage ships
    the span catalog of its maps, never the build table."""
    def stream_payload(build_rows):
        with process_engine() as ctx:
            stream = ctx.parallelize(
                [(i % build_rows, i) for i in range(20_000)], 4)
            build = ctx.parallelize(
                [(k, f"dimension-{k:06d}") for k in range(build_rows)], 2)
            with recorded_payloads(ctx) as published:
                assert stream.join(build).count() == 20_000
            return len(published[-1])

    small, large = stream_payload(1_000), stream_payload(10_000)
    assert large < small + 512


def test_every_later_stage_ships_only_its_own_shuffle_read():
    _, _, payloads = run_chain(5_000)
    for data in payloads[1:]:
        payload = serializer.loads(data)
        full, stubs = shipped_graph(data)
        assert len(payload["catalog"]) == 1
        assert len(stubs) == 1
        assert not any(ds.name == "parallelize" for ds in full.values())


def test_each_input_partition_is_read_once_by_the_task_that_computes_it(
        tmp_path, monkeypatch):
    log = str(tmp_path / "reads.log")
    from repro.engine import dataset as dataset_module
    load_span = dataset_module.load_span

    def logging_load_span(span):
        if os.sep + "inputs" + os.sep in span.path:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {span.offset}\n")
        return load_span(span)

    # patched before the pool forks, so every worker inherits it
    monkeypatch.setattr(dataset_module, "load_span", logging_load_span)
    result, _, payloads = run_chain(5_000)
    assert result == expected_chain(5_000)
    (source,) = [ds for ds in shipped_graph(payloads[0])[0].values()
                 if ds.name == "parallelize"]
    with open(log) as handle:
        reads = [line.split() for line in handle]
    assert all(int(pid) != os.getpid() for pid, _ in reads)
    assert sorted(int(offset) for _, offset in reads) == \
        sorted(span[1] for span in source._spans)


def test_resumed_chain_ships_no_lineage(tmp_path):
    root = str(tmp_path / "durable")
    durable = {"shuffle_transport": "tcp", "checkpoint_dir": root}
    cold, cold_sizes, _ = run_chain(5_000, **durable)
    resumed, sizes, payloads = run_chain(5_000, recover_from=root, **durable)
    assert resumed == cold == expected_chain(5_000)
    # every shuffle is recovered complete: one stage runs, reading the last
    assert len(cold_sizes) == ROUNDS + 1
    assert len(sizes) == 1 and sizes[0] < PAYLOAD_LIMIT
    full, stubs = shipped_graph(payloads[0])
    assert len(stubs) == 1
    assert len(serializer.loads(payloads[0])["catalog"]) == 1
    assert not any(ds.name == "parallelize" for ds in full.values())


def test_published_input_is_swept_with_the_transport_root(tmp_path):
    root = str(tmp_path / "durable")
    ctx = process_engine(checkpoint_dir=root)
    try:
        assert ctx.parallelize(range(100), 4).map(lambda x: x + 1).sum() \
            == 5050
        inputs = os.path.join(root, "transport", "inputs")
        assert len(os.listdir(inputs)) == 1
    finally:
        ctx.stop()
    assert not os.path.exists(inputs)
    # shuffle frames of a durable root survive for recovery; inputs do not
    assert os.path.isdir(os.path.join(root, "transport"))


# -- caches --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def run_cached(n: int):
    """Cache ``n`` pairs, count them, then count a map over the cache.

    Returns the pickled size of each caching task's outcome, the sizes of
    the later job's stage payloads and the ``(full, stubs)`` graphs they
    ship.
    """
    with process_engine() as ctx:
        outcomes = []
        absorb = ctx.scheduler.executor._absorb

        def record(outcome, metrics):
            outcomes.append(len(serializer.dumps(outcome)))
            return absorb(outcome, metrics)

        ctx.scheduler.executor._absorb = record
        cached = ctx.parallelize(range(n), 4) \
            .map(lambda x: (x, str(x) * 3)).cache()
        assert cached.count() == n
        caching = tuple(outcomes)
        with recorded_payloads(ctx) as payloads:
            assert cached.map(lambda pair: pair[0]).count() == n
        return caching, [len(data) for data in payloads], \
            [shipped_graph(data) for data in payloads]


def test_a_later_stage_payload_does_not_grow_with_the_cached_data():
    _, small, _ = run_cached(1_000)
    _, large, _ = run_cached(20_000)
    assert len(small) == len(large) == 1
    assert large[0] < small[0] + 512


def test_no_caching_task_outcome_grows_with_the_cached_data():
    """A caching task reports the span catalog of what it cached, not the
    records."""
    small, _, _ = run_cached(1_000)
    large, _, _ = run_cached(20_000)
    assert len(small) == len(large) == 4
    assert max(large) < max(small) + 512


def test_a_fully_cached_parent_is_a_cut():
    _, _, graphs = run_cached(1_000)
    (full, stubs), = graphs
    (stub,) = stubs.values()
    assert isinstance(stub, LineageStub) and stub.is_cached
    # the map over the cache ships; the cached map and its input do not
    assert [ds.name for ds in full.values()] == ["map"]
    assert stub.id not in full


# -- the span catalog travels with its payload ---------------------------------


def _held_catalog(_records):
    """Shuffle ids registered with this worker's shuffle manager right now."""
    return [sorted(worker_runtime._STATE.ctx.shuffle_manager._expected_maps)]


def test_worker_catalog_holds_only_the_current_payloads_shuffles():
    with process_engine() as ctx:
        pairs = ctx.parallelize([(x % 5, x) for x in range(200)], 4)
        for _ in range(50):
            assert len(pairs.reduce_by_key(operator.add, 2).collect()) == 5
        latest = pairs.reduce_by_key(operator.add, 2)
        held = latest.map_partitions(_held_catalog).collect()
        # 51 shuffles have run on this context; each of the two result
        # tasks sees the one its stage reads (the lowered plan's id)
        assert len(held) == 2 and held[0] == held[1] and len(held[0]) == 1


# -- stubs ---------------------------------------------------------------------


def test_a_computed_stub_names_the_dataset_and_the_cut(tmp_path):
    with process_engine() as ctx:
        with recorded_payloads(ctx) as payloads:
            pairs = ctx.parallelize([(x % 5, x) for x in range(50)], 4)
            pairs.set_name("scores").reduce_by_key(operator.add, 2).collect()
        config = ctx.config
    task = serializer.loads(payloads[-1])["tasks"][0]
    worker_ctx = worker_runtime.WorkerContext(
        config, ShuffleTransport(str(tmp_path)))
    worker_runtime._attach_graph(task, worker_ctx, set())
    stub = task._dataset.dependencies[0].parent
    assert isinstance(stub, LineageStub)
    assert stub.ctx is worker_ctx and stub.num_partitions == 4
    for pull in (stub.iterator, stub.batch_iterator):
        with pytest.raises(PlanError) as excinfo:
            pull(0, TaskContext())
        assert "scores" in str(excinfo.value)
        assert f"id {pairs.id}" in str(excinfo.value)
        assert "cut from this stage's payload" in str(excinfo.value)
