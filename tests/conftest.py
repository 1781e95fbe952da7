"""Fixtures shared across the unit-test modules."""

import collections

import pytest

import repro.core.engine as engine_module
from repro.core.parallel import WorkerPool

#: Draw block, in scratch elements, while :func:`crossing` is active.
#: ``generate`` and ``score_topk`` cut one shard per block of work, so at
#: the real block every call on the suite's tiny graphs would be one shard
#: and run in the caller.  At 256 elements a 40-centre streaming
#: ``generate`` with 8 candidates (128 elements a row) cuts 20 shards and a
#: dense one over 25 nodes cuts 4.  Any block gives the same bits.
SMALL_DRAW_BLOCK = 2**8


@pytest.fixture
def crossing(monkeypatch):
    """Make pooled ``generate``/``score_topk`` calls cross the pool, and record it.

    Shrinks :data:`repro.core.engine.DRAW_BLOCK_ELEMENTS` to
    :data:`SMALL_DRAW_BLOCK` so the public calls cut several shards, and
    returns a counter of the pool runs that dispatched: ``crossing["shm",
    "generate"]`` counts the runs of ``generate`` shards on worker
    processes, ``crossing["thread", "topk"]`` those of ``score_topk``
    shards on threads.  A pooled test asserts its count, so a call that
    silently stays in the caller fails the test.
    """
    monkeypatch.setattr(engine_module, "DRAW_BLOCK_ELEMENTS", SMALL_DRAW_BLOCK)
    ran = collections.Counter()
    for rung, name in (("shm", "_run_on_processes"), ("thread", "_run_on_threads")):
        original = getattr(WorkerPool, name)

        def spy(self, engine, kind, tasks, _original=original, _rung=rung):
            ran[_rung, kind] += 1
            return _original(self, engine, kind, tasks)

        monkeypatch.setattr(WorkerPool, name, spy)
    return ran
