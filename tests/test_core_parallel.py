"""Sharded parallel generation: determinism, guards, and the RNG registry.

The contract under test: the generation engine's output is
**bit-identical for every worker count and backend**, because every draw is
keyed by its row under one word fixed before any dispatch
(``tests/test_generate_invariance.py`` extends this to any partition).  Alongside it, the degenerate-config guards (explicit
``ConfigError`` instead of the old silent ``max(..., 16)`` masking) and the
named-stream registry that replaced ``seed + constant`` derivations.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.engine as engine_module
from strategies import STANDARD_SETTINGS
from repro.core import GenerationEngine, TGAEGenerator, fast_config
from repro.core.engine import shard_rows
from repro.core.parallel import _engine_from_state, run_sharded
from repro.datasets import communication_network
from repro.errors import ConfigError
from repro.graph import TemporalGraph
from repro.rng import seed_sequence, spawn_streams, stream


def fingerprint(graph):
    triples = np.stack([graph.t, graph.src, graph.dst], axis=1)
    order = np.lexsort((graph.dst, graph.src, graph.t))
    return np.ascontiguousarray(triples[order]).tobytes()


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 150, 5, seed=17)


@pytest.fixture(scope="module")
def streaming_fitted(observed):
    config = fast_config(epochs=2, num_initial_nodes=12, candidate_limit=8)
    return TGAEGenerator(config).fit(observed)


@pytest.fixture(scope="module")
def dense_fitted(observed):
    return TGAEGenerator(fast_config(epochs=2, num_initial_nodes=12)).fit(observed)


class TestWorkerCountDeterminism:
    """workers=1 and workers=4 produce bit-identical graphs and triples."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_streaming_generate_bit_identical(self, streaming_fitted, seed, crossing):
        sequential = streaming_fitted.generate(seed=seed, workers=1)
        parallel = streaming_fitted.generate(seed=seed, workers=4)
        assert crossing["shm", "generate"] == 1
        assert fingerprint(sequential) == fingerprint(parallel)
        assert sequential == parallel

    @pytest.mark.parametrize("seed", [3, 11])
    def test_dense_generate_bit_identical(self, dense_fitted, seed, crossing):
        sequential = dense_fitted.generate(seed=seed, workers=1)
        parallel = dense_fitted.generate(seed=seed, workers=4)
        assert crossing["shm", "generate"] == 1
        assert fingerprint(sequential) == fingerprint(parallel)

    def test_thread_backend_matches_process_and_sequential(self, streaming_fitted, crossing):
        engine = streaming_fitted.engine()
        sequential = engine.generate(np.random.default_rng(5), workers=1)
        threaded = engine.generate(np.random.default_rng(5), workers=3, backend="thread")
        pooled = engine.generate(np.random.default_rng(5), workers=3, backend="process")
        assert crossing["thread", "generate"] == crossing["shm", "generate"] == 1
        assert fingerprint(sequential) == fingerprint(threaded) == fingerprint(pooled)

    def test_score_topk_triples_bit_identical(self, streaming_fitted, crossing):
        sequential = streaming_fitted.score_topk(3, workers=1)
        parallel = streaming_fitted.score_topk(3, workers=4)
        assert crossing["shm", "topk"] == 1
        for field in ("node", "timestamp", "target", "score"):
            assert np.array_equal(
                getattr(sequential, field), getattr(parallel, field)
            ), field

    def test_worker_count_does_not_leak_into_budgets(self, observed, streaming_fitted, crossing):
        generated = streaming_fitted.generate(seed=1, workers=4)
        assert crossing["shm", "generate"] == 1
        assert generated.num_edges == observed.num_edges
        assert np.all(generated.src != generated.dst)

    def test_config_level_workers_knob(self, observed, crossing):
        base = fast_config(epochs=2, num_initial_nodes=12, candidate_limit=8)
        seq = TGAEGenerator(base).fit(observed).generate(seed=2)
        par_cfg = dataclasses.replace(base, workers=2, parallel_backend="thread")
        par = TGAEGenerator(par_cfg).fit(observed).generate(seed=2)
        assert crossing["thread", "generate"] == 1
        assert fingerprint(seq) == fingerprint(par)


class TestChunkingGuards:
    """Degenerate dispatch configs fail loudly; empty shards are no-ops."""

    def test_config_rejects_bad_workers(self):
        with pytest.raises(ConfigError):
            fast_config(workers=0)

    def test_config_rejects_bad_backend(self):
        with pytest.raises(ConfigError):
            fast_config(parallel_backend="gpu")

    def test_engine_rejects_zero_workers_override(self, streaming_fitted):
        with pytest.raises(ConfigError):
            streaming_fitted.engine().generate(np.random.default_rng(0), workers=0)

    def test_run_sharded_rejects_unknown_backend(self, streaming_fitted):
        with pytest.raises(ConfigError):
            run_sharded(streaming_fitted.engine(), "generate", [], 2, backend="gpu")

    def test_empty_timestamp_list_is_noop(self, streaming_fitted):
        topk = streaming_fitted.engine().score_topk(3, timestamps=[])
        assert topk.nnz == 0

    def test_empty_center_shard_is_noop(self, streaming_fitted):
        from repro.core import GenerateChunkTask

        engine = streaming_fitted.engine()
        task = GenerateChunkTask(
            index=0,
            centers=np.empty((0, 2), dtype=np.int64),
            degrees=np.empty(0, dtype=np.int64),
            distinct=np.empty(0, dtype=np.int64),
            word=0,
        )
        src, dst, t = engine.generate_chunk(task)
        assert src.size == dst.size == t.size == 0


class TestShardRows:
    """``shard_rows`` cuts by work: one shard per draw block, sizes even."""

    @given(
        total=st.integers(0, 5000),
        width=st.integers(1, 4096),
        block=st.integers(1, 2**14),
    )
    @STANDARD_SETTINGS
    def test_count_and_sizes(self, total, width, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "DRAW_BLOCK_ELEMENTS", block)
            shards = shard_rows(total, width)
        work = total * width
        assert len(shards) == min(total, -(-work // block))
        sizes = [part.stop - part.start for part in shards]
        assert all(size >= 1 for size in sizes)
        assert not sizes or max(sizes) - min(sizes) <= 1
        assert all(size * width <= block + width or size == 1 for size in sizes)
        # Consecutive, covering every row once.
        assert [row for part in shards for row in range(total)[part]] == list(range(total))

    def test_one_block_is_one_shard(self):
        block = engine_module.DRAW_BLOCK_ELEMENTS
        assert shard_rows(block // 128, 128) == [slice(0, block // 128)]
        assert len(shard_rows(block // 128 + 1, 128)) == 2

    def test_n5000_dense_generate(self):
        """19,227 active rows of a 5000-wide race: 367 shards of 52-53 rows."""
        shards = shard_rows(19227, 5000)
        assert len(shards) == 367
        assert {part.stop - part.start for part in shards} == {52, 53}


class TestWorkerPayload:
    """Workers rebuild a bit-equal engine from a state dict and plain arrays."""

    def test_rebuilt_engine_matches_live_engine(self, streaming_fitted):
        engine = streaming_fitted.engine()
        graph = engine.graph
        # What a worker process sees: a graph rebuilt from the edge arrays
        # and the weights as a plain state dict.
        rebuilt = _engine_from_state(
            engine.config,
            TemporalGraph(
                graph.num_nodes, graph.src.copy(), graph.dst.copy(), graph.t.copy(),
                num_timestamps=graph.num_timestamps,
            ),
            engine.model.state_dict(),
            engine.model.encoder._external_features,
        )
        a = engine.generate(np.random.default_rng(7), workers=1)
        b = rebuilt.generate(np.random.default_rng(7), workers=1)
        assert fingerprint(a) == fingerprint(b)


class TestRngRegistry:
    """Named seed-sequence streams replace the colliding offset scheme."""

    def test_streams_are_reproducible(self):
        assert stream(0, "tgae", "trainer").random() == stream(0, "tgae", "trainer").random()

    def test_named_streams_do_not_collide_across_components(self):
        # The failure mode of the offset scheme: seed 23 + offset 0 == seed
        # 0 + offset 23.  Named streams keep the components apart.
        a = stream(0, "tgae", "score-topk")
        b = stream(23, "tgae", "generate")
        assert a.random() != b.random()

    def test_same_seed_different_components_differ(self):
        assert stream(5, "tgae", "trainer").random() != stream(5, "tgae", "generate").random()

    def test_integer_path_components(self):
        assert stream(1, "vgae", "snapshot", 3).random() != stream(
            1, "vgae", "snapshot", 4
        ).random()
        with pytest.raises(ValueError):
            seed_sequence(1, "vgae", -1)

    def test_large_integer_components_do_not_alias(self):
        # No lossy 32-bit truncation: 2**32 must not collapse onto 0.
        assert stream(1, "snapshot", 2**32).random() != stream(1, "snapshot", 0).random()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            seed_sequence(0)

    def test_spawned_children_are_order_independent(self):
        root = seed_sequence(9, "tgae", "score-topk")
        first = spawn_streams(root, 4)
        again = spawn_streams(seed_sequence(9, "tgae", "score-topk"), 4)
        for child_a, child_b in zip(first, again):
            assert np.random.default_rng(child_a).random() == np.random.default_rng(
                child_b
            ).random()

    def test_spawn_streams_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_streams(seed_sequence(0, "x"), -1)


class TestEngineSurface:
    def test_engine_type(self, streaming_fitted):
        assert isinstance(streaming_fitted.engine(), GenerationEngine)

    def test_generator_generate_workers_kwarg_checks_fit(self):
        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            TGAEGenerator(fast_config()).generate(seed=0, workers=2)
