"""The span catalog round trip: ``export_catalog`` then ``adopt_catalog``.

The contract under test: a catalog is everything a shuffle manager knows
about a shuffle's map output.  Adopted into a fresh manager — after a
pickle round trip, as it crosses the process boundary in a stage payload
or a worker's task result — it serves the same reduce reads, full,
ranged and streamed, and the same byte, record and key-sample statistics,
whether the exporting manager kept its buckets resident, spilled them
under a tiny memory budget, or framed them into a transport.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.memory import MemoryManager, Span
from repro.engine.shuffle import ShuffleManager
from repro.engine.transport import ShuffleTransport

SHUFFLE = 3
MAPS = 4
REDUCES = 3
MAP_RANGES = [None] + [(lo, hi) for lo in range(MAPS + 1)
                       for hi in range(lo, MAPS + 1)]


def _buckets(map_partition):
    """Map 2 writes no records; map 1 writes more than one key sample."""
    if map_partition == 2:
        return {}
    count = 900 if map_partition == 1 else 60
    buckets = {}
    for index in range(count):
        key = (index * 7 + map_partition) % 23
        buckets.setdefault(key % REDUCES, []).append(
            (key, f"m{map_partition}-{index}"))
    return buckets


def _resident(tmp_path):
    return ShuffleManager(codec="none")


def _spilled(tmp_path):
    return ShuffleManager(MemoryManager(256), spill_dir=lambda: str(tmp_path),
                          codec="zlib")


def _framed(tmp_path):
    return ShuffleManager(transport=ShuffleTransport(str(tmp_path / "t")),
                          codec="zlib")


def _observed(manager):
    reads = {(reduce_partition, map_range): (
                 manager.read_reduce_input(SHUFFLE, reduce_partition,
                                           map_range),
                 list(manager.iter_reduce_input(SHUFFLE, reduce_partition,
                                                map_range)))
             for reduce_partition in range(REDUCES)
             for map_range in MAP_RANGES}
    return {"reads": reads,
            "stats": manager.map_output_stats(SHUFFLE),
            "reduce_bytes": manager.reduce_partition_bytes(SHUFFLE),
            "samples": {size: manager.sample_records([SHUFFLE], size)
                        for size in (0, 1, 7, 100, 10_000)}}


@pytest.mark.parametrize("build", [_resident, _spilled, _framed])
def test_adopted_catalog_serves_what_the_exporter_served(tmp_path, build):
    exporter = build(tmp_path)
    exporter.register_shuffle(SHUFFLE, MAPS)
    for map_partition in range(MAPS):
        exporter.write_map_output(SHUFFLE, map_partition,
                                  _buckets(map_partition))
    catalog = exporter.export_catalog(SHUFFLE)
    sources = [source for source, _ in catalog["buckets"].values()]
    if build is _spilled:
        assert exporter.spill_stats()[0] > 0
        assert {type(source) for source in sources} == {list, Span}
    elif build is _framed:
        assert all(isinstance(source, Span) for source in sources)
    else:
        assert not any(isinstance(source, Span) for source in sources)
    assert catalog["maps"] == list(range(MAPS))

    adopter = ShuffleManager(codec="none")  # adopting registers the shuffle
    written = adopter.adopt_catalog(SHUFFLE,
                                    pickle.loads(pickle.dumps(catalog)))
    assert adopter.is_complete(SHUFFLE)
    assert written == exporter.bytes_written(SHUFFLE)
    assert _observed(adopter) == _observed(exporter)


def test_a_map_partition_export_lists_only_that_map(tmp_path):
    manager = _framed(tmp_path)
    manager.register_shuffle(SHUFFLE, MAPS)
    manager.write_map_output(SHUFFLE, 1, _buckets(1))
    manager.write_map_output(SHUFFLE, 2, _buckets(2))
    one = manager.export_catalog(SHUFFLE, [1])
    assert one["maps"] == [1] and list(one["samples"]) == [1]
    assert {key[0] for key in one["buckets"]} == {1}
    empty = manager.export_catalog(SHUFFLE, [2])
    assert empty == {"maps": [2], "buckets": {}, "samples": {}}
