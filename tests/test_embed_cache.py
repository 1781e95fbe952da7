"""Versioned inference embedding cache: hot path, invalidation, parity.

The cache's one contract is *bitwise transparency*: every public inference
output (``generate``, ``score_topk``, and the dense rows of
``dense_oracle.dense_score_rows``) is identical
with the cache on, off, cold, warm, incrementally invalidated, or served
handed to pooled workers.  These tests pin each face of that
contract plus the perf counters that prove the encoder was actually
skipped:

* the encode/decode model split composes to the plain forward, bit for bit;
* a warm repeat call does **zero** encoder work (``encoded_rows`` /
  ``encode_calls`` frozen) and still reproduces the cold output;
* a cold ``generate`` encodes exactly the active temporal nodes;
* after an observed-edge append with ``epochs=0`` exactly the dirty
  ego-neighbourhood rows are dropped -- surviving rows keep serving hits
  under the rebound graph token -- and the post-append outputs equal a
  cold-cache (and cache-off) twin;
* ``dirty_temporal_nodes`` is a sound superset of the rows whose
  embeddings actually moved;
* retraining flushes loudly through the weights token;
* pooled output -- process and thread workers, which only decode the
  rows the caller hands them -- equals the sequential cache-off path;
* a Hypothesis state machine interleaves fit/update/generate/score_topk
  against a cache-off twin and demands parity after every step.
"""

import copy
import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from dense_oracle import dense_score_rows
from strategies import STATE_MACHINE_SETTINGS
from repro.core import (
    EmbeddingCache,
    GenerationEngine,
    TGAEGenerator,
    dirty_temporal_nodes,
    fast_config,
    graph_token,
    weights_token,
)
from repro.core.parallel import shared_memory_supported
from repro.core.sampler import EgoGraphSampler
from repro.datasets import communication_network
from repro.graph import TemporalGraph


def graph_fingerprint(graph: TemporalGraph) -> str:
    triples = np.stack([graph.t, graph.src, graph.dst], axis=1)
    order = np.lexsort((graph.dst, graph.src, graph.t))
    return hashlib.sha256(np.ascontiguousarray(triples[order]).tobytes()).hexdigest()


def assert_topk_equal(a, b):
    assert np.array_equal(a.node, b.node)
    assert np.array_equal(a.timestamp, b.timestamp)
    assert np.array_equal(a.target, b.target)
    assert a.score.tobytes() == b.score.tobytes()


def active_keys(graph: TemporalGraph) -> np.ndarray:
    """Sorted universe keys ``u * T + t`` of the temporal nodes with an out-edge."""
    return np.unique(graph.src * np.int64(graph.num_timestamps) + graph.t)


def all_centers(graph: TemporalGraph) -> np.ndarray:
    """Every ``(u, t)`` pair of the universe, in key order."""
    keys = np.arange(graph.num_nodes * graph.num_timestamps, dtype=np.int64)
    T = graph.num_timestamps
    return np.stack([keys // T, keys % T], axis=1)


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 150, 5, seed=17)


def fit_twin(observed, embed_cache, **overrides):
    params = dict(epochs=3, num_initial_nodes=12, dtype="float64")
    params.update(overrides)
    return TGAEGenerator(
        fast_config(embed_cache=embed_cache, **params)
    ).fit(observed)


@pytest.fixture(scope="module")
def fitted_on(observed):
    return fit_twin(observed, embed_cache=True)


@pytest.fixture(scope="module")
def fitted_off(observed):
    return fit_twin(observed, embed_cache=False)


class TestModelSplit:
    """encode_inference + decode_from_embeddings == forward(sample=False)."""

    @pytest.mark.parametrize("packed", [True, False])
    def test_composition_is_bitwise_identical(self, observed, fitted_on, packed):
        model = fitted_on.model
        config = dataclasses.replace(fitted_on.config, packed_batches=packed)
        centers = np.array([[0, 1], [3, 2], [7, 0], [12, 4]], dtype=np.int64)
        batch = EgoGraphSampler(observed, config).inference_batch(centers)
        comp = batch.computation_batch(packed)

        full = model(comp, sample=False)
        emb = model.encode_inference(comp)
        split = model.decode_from_embeddings(emb, centers)
        assert full.logits.numpy().tobytes() == split.logits.numpy().tobytes()
        assert full.mu.numpy().tobytes() == split.mu.numpy().tobytes()

    def test_candidate_composition_is_bitwise_identical(self, observed, fitted_on):
        model = fitted_on.model
        centers = np.array([[1, 1], [5, 3]], dtype=np.int64)
        candidates = np.array([[0, 2, 4, 6], [1, 3, 5, 7]], dtype=np.int64)
        batch = EgoGraphSampler(observed, fitted_on.config).inference_batch(centers)
        comp = batch.computation_batch(True)

        full = model(comp, sample=False, candidates=candidates)
        emb = model.encode_inference(comp)
        split = model.decode_from_embeddings(emb, centers, candidates=candidates)
        assert full.logits.numpy().tobytes() == split.logits.numpy().tobytes()


class TestCacheParity:
    """Cache-on outputs equal cache-off outputs, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_generate_parity(self, fitted_on, fitted_off, seed):
        assert graph_fingerprint(fitted_on.generate(seed=seed)) == graph_fingerprint(
            fitted_off.generate(seed=seed)
        )

    def test_score_topk_parity(self, fitted_on, fitted_off):
        assert_topk_equal(fitted_on.score_topk(4), fitted_off.score_topk(4))

    def test_dense_rows_parity(self, observed, fitted_on, fitted_off):
        centers = all_centers(observed)[::7]
        rows_on = dense_score_rows(fitted_on.engine(), centers)
        rows_off = dense_score_rows(fitted_off.engine(), centers)
        assert rows_on.tobytes() == rows_off.tobytes()

    def test_cache_off_generator_reports_no_stats(self, fitted_off):
        fitted_off.generate(seed=0)
        assert fitted_off.cache_stats() is None
        assert fitted_off.engine().cache is None


class TestWarmPath:
    """A warm repeat call is decode-only: the counters prove it."""

    def test_warm_generate_skips_all_encoder_work(self, observed):
        generator = fit_twin(observed, embed_cache=True)
        cold = generator.generate(seed=0)
        after_cold = generator.cache_stats()
        assert after_cold["encode_calls"] > 0
        # A cold generate encodes exactly the active keys it asked for.
        assert after_cold["encoded_rows"] == active_keys(observed).size

        warm = generator.generate(seed=0)
        after_warm = generator.cache_stats()
        assert after_warm["encoded_rows"] == after_cold["encoded_rows"]
        assert after_warm["encode_calls"] == after_cold["encode_calls"]
        assert after_warm["hit_rows"] > after_cold["hit_rows"]
        assert graph_fingerprint(warm) == graph_fingerprint(cold)

    def test_warm_score_topk_skips_all_encoder_work(self, observed):
        generator = fit_twin(observed, embed_cache=True)
        first = generator.score_topk(3)
        after_first = generator.cache_stats()
        second = generator.score_topk(3)
        after_second = generator.cache_stats()
        assert after_second["encoded_rows"] == after_first["encoded_rows"]
        assert after_second["encode_calls"] == after_first["encode_calls"]
        assert after_second["hit_rows"] > after_first["hit_rows"]
        assert_topk_equal(first, second)

    def test_generate_then_score_share_rows(self, observed):
        generator = fit_twin(observed, embed_cache=True)
        generator.score_topk(3)  # warms every active row
        after_score = generator.cache_stats()
        generator.generate(seed=1)
        after_generate = generator.cache_stats()
        assert after_generate["encoded_rows"] == after_score["encoded_rows"]

    def test_engine_and_cache_persist_across_calls(self, observed):
        generator = fit_twin(observed, embed_cache=True)
        generator.generate(seed=0)
        engine = generator.engine()
        cache = engine.cache
        generator.generate(seed=1)
        assert generator.engine() is engine
        assert generator.engine().cache is cache


class TestIncrementalInvalidation:
    """Append with epochs=0: only dirty rows drop, outputs match cold."""

    @staticmethod
    def localized_append(observed, fraction=0.05):
        """~``fraction`` of the edge count, concentrated on two nodes."""
        k = max(1, int(fraction * observed.num_edges))
        src = np.zeros(k, dtype=np.int64)
        dst = np.ones(k, dtype=np.int64)
        t = np.zeros(k, dtype=np.int64)
        return src, dst, t

    def test_only_dirty_rows_invalidated(self, observed):
        generator = fit_twin(observed, embed_cache=True)
        generator.score_topk(3)  # fully warm the active universe
        cache = generator.engine().cache
        valid_before = cache.valid.copy()
        before = generator.cache_stats()

        src, dst, t = self.localized_append(observed)
        generator.update((src, dst, t), epochs=0)
        dirty = dirty_temporal_nodes(
            generator.observed, src, dst, t,
            radius=generator.config.radius,
            time_window=generator.config.time_window,
        )
        num_rows = observed.num_nodes * observed.num_timestamps
        assert 0 < dirty.size < num_rows, "append must dirty a strict subset"

        after = generator.cache_stats()
        assert after["invalidated_rows"] - before["invalidated_rows"] == int(
            valid_before[dirty].sum()
        )
        assert after["flushes"] == before["flushes"], "no full flush on append"
        # Exactly the dirty rows dropped; every clean row survived.
        assert not cache.valid[dirty].any()
        clean = np.setdiff1d(np.arange(num_rows), dirty)
        assert np.array_equal(cache.valid[clean], valid_before[clean])

    def test_post_append_output_matches_cold_and_off(self, observed):
        warm = fit_twin(observed, embed_cache=True)
        cold = fit_twin(observed, embed_cache=True)
        off = fit_twin(observed, embed_cache=False)
        warm.generate(seed=0)  # populate before the append

        src, dst, t = self.localized_append(observed)
        for generator in (warm, cold, off):
            generator.update((src, dst, t), epochs=0)

        fp_warm = graph_fingerprint(warm.generate(seed=0))
        assert fp_warm == graph_fingerprint(cold.generate(seed=0))
        assert fp_warm == graph_fingerprint(off.generate(seed=0))
        assert_topk_equal(warm.score_topk(3), off.score_topk(3))

    def test_surviving_rows_keep_serving_hits(self):
        # A sparser, larger universe than the module graph: the 2-hop
        # dirty neighbourhood of one appended edge must be a strict subset
        # of the universe for the partial-recompute assertion to have
        # teeth.
        observed = communication_network(60, 180, 5, seed=17)
        generator = fit_twin(observed, embed_cache=True, epochs=2,
                             num_initial_nodes=8)
        generator.score_topk(3)
        before = generator.cache_stats()

        src, dst, t = self.localized_append(observed)
        generator.update((src, dst, t), epochs=0)
        dirty = dirty_temporal_nodes(
            generator.observed, src, dst, t,
            radius=generator.config.radius,
            time_window=generator.config.time_window,
        )
        generator.score_topk(3)
        after = generator.cache_stats()
        # Re-encoded rows are bounded by the dirty set -- never the whole
        # universe again.
        reencoded = after["encoded_rows"] - before["encoded_rows"]
        assert reencoded <= dirty.size
        assert reencoded < observed.num_nodes * observed.num_timestamps
        assert after["hit_rows"] > before["hit_rows"]

    def test_newly_active_key_keeps_its_neighbours_cached(self):
        # radius=1: the ego walk dirties only the new edge's endpoints.  The
        # other active rows at the key's timestamp among the 32 node ids of
        # its block -- the encode group it shared before encodes became
        # row-invariant -- stay cached and serve hits, and the output still
        # equals a cold twin's.
        observed = communication_network(60, 180, 5, seed=17)
        warm = fit_twin(observed, embed_cache=True, radius=1)
        cold = fit_twin(observed, embed_cache=True, radius=1)
        warm.generate(seed=0)
        warm.score_topk(3)
        cache = warm.engine().cache
        assert cache.valid.all()

        T = observed.num_timestamps
        active = np.zeros(observed.num_nodes * T, dtype=bool)
        active[active_keys(observed)] = True

        def block_keys(key):
            u, t = divmod(key, T)
            nodes = np.arange(observed.num_nodes, dtype=np.int64)
            return nodes[nodes // 32 == u // 32] * T + t

        # The first inactive (u, t) whose block holds at least two active rows.
        key = next(
            key for key in np.flatnonzero(~active).tolist()
            if active[block_keys(key)].sum() >= 2
        )
        u, t = divmod(key, T)
        block = block_keys(key)
        v = int(block[active[block]][0] // T)  # one endpoint is itself active
        neighbours = block[active[block] & (block // T != v)]
        assert neighbours.size > 0

        new = (np.array([u]), np.array([v]), np.array([t]))
        warm.update(new, epochs=0)
        cold.update(new, epochs=0)
        dirty = dirty_temporal_nodes(
            warm.observed, *new, radius=1, time_window=warm.config.time_window
        )
        assert not np.isin(neighbours, dirty).any()
        assert cache.valid[neighbours].all(), "clean neighbours were dropped"
        before = warm.cache_stats()
        assert_topk_equal(warm.score_topk(3), cold.score_topk(3))
        assert graph_fingerprint(warm.generate(seed=0)) == graph_fingerprint(
            cold.generate(seed=0)
        )
        after = warm.cache_stats()
        assert after["encoded_rows"] - before["encoded_rows"] == dirty.size
        assert after["hit_rows"] - before["hit_rows"] >= 2 * neighbours.size

    def test_dirty_set_covers_all_changed_rows(self, observed):
        """Soundness: rows whose embeddings moved are inside the dirty set."""
        generator = fit_twin(observed, embed_cache=False)
        keys = np.arange(observed.num_nodes * observed.num_timestamps, dtype=np.int64)
        emb_before = generator.engine().warm_rows(keys)

        src, dst, t = self.localized_append(observed)
        generator.update((src, dst, t), epochs=0)
        dirty = dirty_temporal_nodes(
            generator.observed, src, dst, t,
            radius=generator.config.radius,
            time_window=generator.config.time_window,
        )
        emb_after = generator.engine().warm_rows(keys)
        changed = np.flatnonzero(np.any(emb_before != emb_after, axis=1))
        assert np.isin(changed, dirty).all(), (
            "dirty_temporal_nodes missed rows whose embeddings changed: "
            f"{np.setdiff1d(changed, dirty)}"
        )

    def test_retraining_flushes_via_weights_token(self, observed):
        generator = fit_twin(observed, embed_cache=True)
        off = fit_twin(observed, embed_cache=False)
        generator.generate(seed=0)
        before = generator.cache_stats()
        assert before["weight_flushes"] == 0

        generator.update(epochs=1)
        off.update(epochs=1)
        fp_on = graph_fingerprint(generator.generate(seed=0))
        after = generator.cache_stats()
        assert after["weight_flushes"] == before["weight_flushes"] + 1
        assert fp_on == graph_fingerprint(off.generate(seed=0))


class TestCacheUnit:
    """EmbeddingCache versioning semantics in isolation."""

    WT_A = "a" * 64
    WT_B = "b" * 64
    GT_A = "c" * 64
    GT_B = "d" * 64

    def test_ensure_binds_then_flushes_on_weight_change(self):
        cache = EmbeddingCache(8, 4, dtype=np.float64)
        assert not cache.tokens_set
        assert cache.ensure(self.WT_A, self.GT_A)
        cache.store(np.arange(8), np.ones((8, 4)))
        assert cache.ensure(self.WT_A, self.GT_A)  # re-ensure is a no-op
        assert cache.valid.all()

        assert cache.ensure(self.WT_B, self.GT_A)  # writable always rebinds
        assert not cache.valid.any()
        assert cache.stats["flushes"] == 1
        assert cache.stats["weight_flushes"] == 1
        assert cache.stats["graph_flushes"] == 0

    def test_invalidate_rows_rebinds_graph_token(self):
        cache = EmbeddingCache(8, 4, dtype=np.float64)
        cache.ensure(self.WT_A, self.GT_A)
        cache.store(np.arange(8), np.ones((8, 4)))
        dropped = cache.invalidate_rows(np.array([1, 3]), graph=self.GT_B)
        assert dropped == 2
        assert cache.ensure(self.WT_A, self.GT_B)  # rebound, not flushed
        assert cache.stats["flushes"] == 0
        assert int(cache.valid.sum()) == 6

    def test_tokens_match_shm_state_token(self, fitted_on, observed):
        from repro.core import parallel

        # The pool refreshes its parameter segment on the cache's own token.
        assert parallel.weights_token is weights_token
        model = copy.deepcopy(fitted_on.model)
        before = weights_token(model)
        param = next(p for _, p in model.named_parameters())
        param.data = param.data + 1.0
        assert weights_token(model) != before
        token = graph_token(observed, fitted_on.config, None)
        assert token != graph_token(
            observed, dataclasses.replace(fitted_on.config, radius=1), None
        )


class TestConfigAndCli:
    """The off switches: config field, env sweep, CLI flags."""

    def test_fast_config_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_EMBED_CACHE", "off")
        assert fast_config().embed_cache is False
        monkeypatch.setenv("REPRO_EMBED_CACHE", "on")
        assert fast_config().embed_cache is True
        monkeypatch.delenv("REPRO_EMBED_CACHE")
        assert fast_config().embed_cache is True

    def test_cli_flag_disables_cache(self):
        from repro.cli import _config_from, build_parser

        parser = build_parser()
        base = ["fit", "--dataset", "EMAIL", "--model", "m.npz"]
        args = parser.parse_args(base + ["--no-embed-cache"])
        assert _config_from(args).embed_cache is False
        args = parser.parse_args(base)
        assert _config_from(args).embed_cache is True

    def test_generate_command_has_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["generate", "--model", "m.npz", "--output", "o.txt", "--no-embed-cache"]
        )
        assert args.embed_cache is False


class TestSharedMemoryCache:
    """Pooled inference: workers decode the rows the caller hands them."""

    @pytest.mark.skipif(
        not shared_memory_supported(), reason="platform has no POSIX shared memory"
    )
    def test_pooled_score_topk_parity(self, observed, fitted_on, fitted_off):
        generator = fit_twin(observed, embed_cache=True, workers=2)
        with generator.worker_pool(workers=2) as pool:
            assert pool.rung == "shm"
            pooled_graph = generator.generate(seed=0, workers=2)
            pooled = generator.score_topk(4, workers=2)
            assert pool.health["degrades"] == []
        sequential = fitted_on.generate(seed=0, workers=1)
        assert graph_fingerprint(pooled_graph) == graph_fingerprint(sequential)
        assert graph_fingerprint(sequential) == graph_fingerprint(
            fitted_off.generate(seed=0, workers=1)
        )
        assert_topk_equal(pooled, fitted_on.score_topk(4, workers=1))
        assert_topk_equal(pooled, fitted_off.score_topk(4))

    @pytest.mark.parametrize(
        "backend, embed_cache", [("process", False), ("thread", True), ("thread", False)]
    )
    def test_pooled_equals_sequential_per_backend(
        self, observed, fitted_off, backend, embed_cache
    ):
        generator = fit_twin(observed, embed_cache=embed_cache)
        with generator.worker_pool(workers=2, backend=backend) as pool:
            pooled_graph = generator.generate(seed=1)
            pooled = generator.score_topk(3)
            assert pool.runs >= 2 and pool.health["degrades"] == []
        assert graph_fingerprint(pooled_graph) == graph_fingerprint(
            fitted_off.generate(seed=1, workers=1)
        )
        assert_topk_equal(pooled, fitted_off.score_topk(3, workers=1))


# ---------------------------------------------------------------------------
# Satellite (c): stateful parity between a cache-on and a cache-off twin.
# ---------------------------------------------------------------------------
_SM_GRAPH = communication_network(14, 60, 3, seed=5)
_SM_CONFIG = fast_config(
    epochs=2, num_initial_nodes=8, neighbor_threshold=4,
    embed_dim=8, hidden_dim=8, latent_dim=4, num_heads=1, time_dim=4,
    dtype="float64", seed=11,
)


@functools.lru_cache(maxsize=None)
def _sm_template():
    """One shared fitted pair; every machine run deep-copies it."""
    on = TGAEGenerator(dataclasses.replace(_SM_CONFIG, embed_cache=True))
    off = TGAEGenerator(dataclasses.replace(_SM_CONFIG, embed_cache=False))
    return on.fit(_SM_GRAPH), off.fit(_SM_GRAPH)


class CacheParityMachine(RuleBasedStateMachine):
    """Interleave the generator lifecycle; the twins may never disagree.

    ``self.on`` runs with the embedding cache, ``self.off`` without; every
    rule drives both through the same operation and asserts bitwise-equal
    outputs.  Appends use ``epochs=0`` (incremental invalidation),
    ``retrain_step`` moves the weights (token flush), ``refit`` rebuilds
    the model from scratch on the accumulated graph.
    """

    def __init__(self):
        super().__init__()
        template_on, template_off = _sm_template()
        self.on = copy.deepcopy(template_on)
        self.off = copy.deepcopy(template_off)

    @rule(seed=st.integers(0, 3))
    def generate_parity(self, seed):
        assert graph_fingerprint(self.on.generate(seed=seed)) == graph_fingerprint(
            self.off.generate(seed=seed)
        )

    @rule(k=st.integers(1, 4))
    def topk_parity(self, k):
        assert_topk_equal(self.on.score_topk(k), self.off.score_topk(k))

    @rule(
        edges=st.lists(
            st.tuples(
                st.integers(0, 13), st.integers(0, 13), st.integers(0, 2)
            ),
            min_size=1,
            max_size=3,
        )
    )
    def append_ingest(self, edges):
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        t = np.array([e[2] for e in edges], dtype=np.int64)
        self.on.update((src, dst, t), epochs=0)
        self.off.update((src, dst, t), epochs=0)

    @rule()
    def retrain_step(self):
        self.on.update(epochs=1)
        self.off.update(epochs=1)

    @rule()
    def refit(self):
        self.on.fit(self.on.observed)
        self.off.fit(self.off.observed)

    @invariant()
    def twins_share_the_world(self):
        assert graph_fingerprint(self.on.observed) == graph_fingerprint(
            self.off.observed
        )


CacheParityMachine.TestCase.settings = hyp_settings(
    STATE_MACHINE_SETTINGS, stateful_step_count=5,
)
TestCacheParityMachine = CacheParityMachine.TestCase
