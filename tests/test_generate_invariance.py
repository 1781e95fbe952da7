"""Generation and score draws are keyed by row, so sharding never shows.

``generate`` and ``score_topk`` cut their centres into shards for speed.
Every draw -- candidate negatives, hub subsamples, padding, the
without-replacement race and the multi-edge repeats -- is keyed by the
call's word and the row's ``(u, t)``, so a row's output must not depend on
which other rows share its shard.  These tests cut the centres into
arbitrary shuffled parts -- single-row parts included -- run each part as
one task, merge, and demand byte equality with the public call, for the
dense decoder and for candidate sets whose row widths differ (a
``candidate_limit`` below some rows' distinct-target count), sequentially
and on two-worker thread and process pools.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import DETERMINISM_SETTINGS
from repro.core import TGAEGenerator, fast_config
from repro.core.engine import GenerateChunkTask, TopKChunkTask
from repro.core.parallel import WorkerPool, run_sharded
from repro.datasets import communication_network
from repro.rng import seed_sequence

#: Decoders: exact dense, candidate sets narrower than some rows' distinct
#: targets (rows of several widths in one shard), and ordinary candidates.
LIMITS = [0, 2, 8]
#: ``(workers, backend)``: the in-process loop and both pool backends.
DISPATCH = [(1, None), (2, "thread"), (2, "process")]
GENERATE_SEED = 5
K = 3


@pytest.fixture(scope="module")
def observed():
    return communication_network(20, 120, 4, seed=3)


@pytest.fixture(scope="module", params=LIMITS, ids=lambda limit: f"limit{limit}")
def fitted(request, observed):
    """``(engine, generate output, score_topk output)`` of one decoder."""
    config = fast_config(epochs=1, num_initial_nodes=8, candidate_limit=request.param)
    engine = TGAEGenerator(config).fit(observed).engine()
    return engine, engine.generate(np.random.default_rng(GENERATE_SEED)), engine.score_topk(K)


@pytest.fixture(scope="module")
def pools():
    opened = {backend: WorkerPool(2, backend=backend) for backend in ("thread", "process")}
    yield opened
    for pool in opened.values():
        pool.close()


def dispatch(engine, kind, tasks, mode, pools):
    workers, backend = mode
    if workers == 1:
        return run_sharded(engine, kind, tasks, workers=1)
    return run_sharded(engine, kind, tasks, workers=workers, pool=pools[backend])


@st.composite
def partitions(draw, size):
    """``range(size)`` shuffled and cut into consecutive parts."""
    order = np.asarray(draw(st.permutations(range(size))), dtype=np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=8)))
    return np.split(order, cuts)


def generate_word(seed):
    """The word :meth:`GenerationEngine.generate` draws from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return rng.integers(np.iinfo(np.uint64).max, dtype=np.uint64, endpoint=True)


def merged_generate(engine, parts, mode, pools):
    centers, degrees, distinct = engine.active_nodes()
    T = engine.graph.num_timestamps
    embeddings = engine.warm_rows(centers[:, 0] * T + centers[:, 1])
    word = generate_word(GENERATE_SEED)
    tasks = [
        GenerateChunkTask(
            index=i, centers=centers[part], degrees=degrees[part],
            distinct=distinct[part], word=word, embeddings=embeddings[part],
        )
        for i, part in enumerate(parts)
    ]
    results = dispatch(engine, "generate", tasks, mode, pools)
    src, dst, t = (np.concatenate([r[i] for r in results]) for i in range(3))
    # A row's edges are contiguous within its task; a stable sort by centre
    # restores the public call's centre order without reordering them.
    order = np.argsort(src * T + t, kind="stable")
    return src[order], dst[order], t[order]


def merged_topk(engine, parts, mode, pools):
    n, T = engine.graph.num_nodes, engine.graph.num_timestamps
    word = seed_sequence(engine.config.seed, "tgae", "score-topk").generate_state(
        1, np.uint64
    )[0]
    embeddings = engine.warm_rows(np.arange(n * T))
    # One task per part, its rows' timestamps mixed as they fall.
    tasks = [
        TopKChunkTask(
            index=i, centers=np.stack([part // T, part % T], axis=1), k=K, word=word,
            embeddings=embeddings[part],
        )
        for i, part in enumerate(parts)
    ]
    results = dispatch(engine, "topk", tasks, mode, pools)
    fields = [np.concatenate([r[i] for r in results]) for i in range(4)]
    order = np.argsort(fields[1] * n + fields[0], kind="stable")
    return [field[order] for field in fields]


@pytest.mark.parametrize("mode", DISPATCH, ids=lambda m: f"{m[0]}-{m[1]}")
@given(data=st.data())
@DETERMINISM_SETTINGS
def test_any_partition_matches_generate(fitted, pools, mode, data):
    engine, whole, _ = fitted
    parts = data.draw(partitions(engine.active_nodes()[0].shape[0]))
    src, dst, t = merged_generate(engine, parts, mode, pools)
    assert src.tobytes() == whole.src.tobytes()
    assert dst.tobytes() == whole.dst.tobytes()
    assert t.tobytes() == whole.t.tobytes()


@pytest.mark.parametrize("mode", DISPATCH, ids=lambda m: f"{m[0]}-{m[1]}")
@given(data=st.data())
@DETERMINISM_SETTINGS
def test_any_partition_matches_score_topk(fitted, pools, mode, data):
    engine, _, whole = fitted
    universe = engine.graph.num_nodes * engine.graph.num_timestamps
    parts = data.draw(partitions(universe))
    node, timestamp, target, score = merged_topk(engine, parts, mode, pools)
    assert node.tobytes() == whole.node.tobytes()
    assert timestamp.tobytes() == whole.timestamp.tobytes()
    assert target.tobytes() == whole.target.tobytes()
    assert score.tobytes() == whole.score.tobytes()


def test_each_row_alone_matches_generate(fitted, pools):
    engine, whole, _ = fitted
    size = engine.active_nodes()[0].shape[0]
    parts = np.split(np.arange(size)[::-1], size)
    src, dst, t = merged_generate(engine, parts, (1, None), pools)
    assert (src.tobytes(), dst.tobytes(), t.tobytes()) == (
        whole.src.tobytes(), whole.dst.tobytes(), whole.t.tobytes()
    )
