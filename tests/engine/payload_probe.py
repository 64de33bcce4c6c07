"""Look inside the stage payloads a process-backend context publishes."""

from __future__ import annotations

import contextlib

from repro.engine import serializer
from repro.engine.dataset import LineageStub


@contextlib.contextmanager
def recorded_payloads(ctx):
    """The serialized stage payloads ``ctx`` publishes, in stage order."""
    published = []
    publish = ctx._transport.publish_stage

    def record(data):
        published.append(data)
        return publish(data)

    ctx._transport.publish_stage = record
    try:
        yield published
    finally:
        del ctx._transport.publish_stage


def shipped_graph(data: bytes):
    """``(full, stubs)``: ids → datasets a payload carries / has cut away."""
    full, stubs = {}, {}

    def walk(dataset):
        if isinstance(dataset, LineageStub):
            stubs[dataset.id] = dataset
            return
        if dataset.id in full:
            return
        full[dataset.id] = dataset
        for dependency in dataset.dependencies:
            walk(dependency.parent)

    for task in serializer.loads(data)["tasks"]:
        if getattr(task, "_dataset", None) is not None:
            walk(task._dataset)
        if getattr(task, "_dependency", None) is not None:
            walk(task._dependency.parent)
    return full, stubs
