"""Batched-vs-sequential equivalence of the ego-graph encoding pipeline.

The flat ego-parallel hot path (``pack_ego_batch`` + one ``TGAEEncoder``
forward) must be a pure vectorisation: same centre representations as
encoding each ego-graph on its own, same sampling distribution as the
per-row generation path, and a guarded degenerate-row fallback that can
never divide by zero or emit a forbidden index.
"""

import numpy as np
import pytest

from draw_oracle import sample_rows_without_replacement

from repro.core import EgoGraphSampler, TGAEEncoder, TGAEGenerator, TGAEModel, fast_config
from repro.errors import GraphFormatError
from repro.graph import EgoTile, TemporalGraph, ego_graph_batch, pack_ego_batch
from repro.graph.ego_graph import counter_hash


def toy_graph(num_nodes=15, num_edges=70, num_timestamps=5, seed=0):
    rng = np.random.default_rng(seed)
    return TemporalGraph(
        num_nodes,
        rng.integers(0, num_nodes, num_edges),
        rng.integers(0, num_nodes, num_edges),
        np.sort(rng.integers(0, num_timestamps, num_edges)),
        num_timestamps=num_timestamps,
    )


def sample_egos(graph, config, count=10, seed=1):
    sampler = EgoGraphSampler(graph, config, np.random.default_rng(seed))
    centers = sampler.sample_centers(count)
    egos = ego_graph_batch(
        graph,
        centers,
        radius=config.radius,
        threshold=config.neighbor_threshold,
        time_window=config.time_window,
        rng=np.random.default_rng(seed + 1),
    )
    return centers, egos


class TestPackEgoBatch:
    def test_structure(self):
        g = toy_graph()
        config = fast_config()
        centers, egos = sample_egos(g, config, count=8)
        packed = pack_ego_batch(egos)
        assert packed.radius == config.radius
        assert packed.tables == 8
        assert packed.num_centers == 8
        np.testing.assert_array_equal(packed.center_rows, np.arange(8))
        np.testing.assert_array_equal(packed.center_nodes, centers)
        for level in range(config.radius + 1):
            assert packed.nodes[level].ndim == 2 and packed.nodes[level].shape[1] == 2
        for level, edges in enumerate(packed.levels, start=1):
            assert edges.src.shape == edges.dst.shape == edges.delta_t.shape
            assert edges.src.max() < packed.nodes[level].shape[0]
            assert edges.dst.max() < packed.nodes[level - 1].shape[0]
            # Every level-(l-1) row is a target (its self-loop at least).
            np.testing.assert_array_equal(
                np.unique(edges.dst), np.arange(packed.nodes[level - 1].shape[0])
            )

    def test_matches_single_ego_bipartite_counts(self):
        g = toy_graph()
        config = fast_config()
        _, egos = sample_egos(g, config, count=6)
        packed = pack_ego_batch(egos)
        alone = [EgoTile.from_egos([ego]).packed(merge=True) for ego in egos]
        # The per-ego batch is each ego packed alone, stacked table by table.
        for level in range(config.radius + 1):
            np.testing.assert_array_equal(
                packed.nodes[level], np.concatenate([a.nodes[level] for a in alone])
            )
        for level in range(1, config.radius + 1):
            src_off = np.cumsum([0] + [a.nodes[level].shape[0] for a in alone])
            dst_off = np.cumsum([0] + [a.nodes[level - 1].shape[0] for a in alone])
            edges = packed.levels[level - 1]
            np.testing.assert_array_equal(edges.src, np.concatenate(
                [a.levels[level - 1].src + off for a, off in zip(alone, src_off)]))
            np.testing.assert_array_equal(edges.dst, np.concatenate(
                [a.levels[level - 1].dst + off for a, off in zip(alone, dst_off)]))
            np.testing.assert_array_equal(edges.delta_t, np.concatenate(
                [a.levels[level - 1].delta_t for a in alone]))

    def test_empty_batch_rejected(self):
        with pytest.raises(GraphFormatError):
            pack_ego_batch([])

    def test_mixed_radius_rejected(self):
        g = toy_graph()
        c1 = fast_config(radius=1)
        c2 = fast_config(radius=2)
        _, egos1 = sample_egos(g, c1, count=2)
        _, egos2 = sample_egos(g, c2, count=2)
        with pytest.raises(GraphFormatError):
            pack_ego_batch([egos1[0], egos2[0]])


class TestBatchedEncodingEquivalence:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_encode_batch_matches_per_node_encode(self, radius):
        g = toy_graph(seed=radius)
        config = fast_config(radius=radius)
        _, egos = sample_egos(g, config, count=12, seed=radius)
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        batched = encoder(pack_ego_batch(egos)).numpy()
        sequential = np.stack([encoder(pack_ego_batch([ego])).numpy()[0] for ego in egos])
        assert batched.shape == (12, config.hidden_dim)
        np.testing.assert_allclose(batched, sequential, atol=1e-9)

    def test_model_forward_matches_per_node_forward(self):
        g = toy_graph()
        config = fast_config()
        _, egos = sample_egos(g, config, count=6)
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        batched = model(pack_ego_batch(egos), sample=False).logits.numpy()
        sequential = np.stack(
            [model(pack_ego_batch([ego]), sample=False).logits.numpy()[0] for ego in egos]
        )
        np.testing.assert_allclose(batched, sequential, atol=1e-8)

    def test_gradients_flow_through_packed_path(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=6)
        sampler = EgoGraphSampler(g, config, np.random.default_rng(3))
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        batch = sampler.next_batch()
        out = model(batch.computation_batch(), sample=True)
        out.logits.sum().backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(np.isfinite(gr).all() for gr in grads)

    def test_training_batch_exposes_both_views(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=5)
        sampler = EgoGraphSampler(g, config, np.random.default_rng(5))
        batch = sampler.next_batch()
        packed, merged = batch.computation_batch(True), batch.computation_batch(False)
        assert packed.tables == packed.num_centers == 5
        assert merged.tables == 1 and merged.num_centers == 5
        np.testing.assert_array_equal(packed.center_nodes, batch.centers)
        np.testing.assert_array_equal(merged.center_nodes, batch.centers)


def keys(count, word=0):
    """``count`` distinct uint64 row keys under ``word``."""
    return counter_hash(word, np.arange(count))


class TestSamplingWithoutReplacement:
    def test_degenerate_row_all_mass_forbidden_falls_back_to_uniform(self):
        probs = np.tile(np.array([0.0, 0.0, 1.0]), (200, 1))
        draws = sample_rows_without_replacement(
            probs, np.full(200, 2), keys(200), forbid=np.full(200, 2)
        )
        for drawn in draws:
            assert 2 not in drawn  # the forbidden index never appears
            assert drawn.size == 2  # uniform fallback over {0, 1}
        counts = np.bincount(np.concatenate(draws), minlength=3)
        assert counts[0] == counts[1] == 200

    def test_degenerate_single_column_returns_empty(self):
        # Regression: all probability mass forbidden AND no allowed column
        # left -- previously divided by zero and could return the forbidden
        # index itself.
        drawn = sample_rows_without_replacement(
            np.array([[0.7]]), np.array([3]), keys(1), forbid=np.array([0])
        )[0]
        assert drawn.size == 0
        rows = sample_rows_without_replacement(
            np.array([[0.7], [0.3]]), np.array([2, 2]), keys(2), forbid=np.array([0, 0])
        )
        assert all(r.size == 0 for r in rows)

    def test_zero_mass_rows_fall_back_uniformly(self):
        rows = sample_rows_without_replacement(
            np.zeros((3, 4)), np.array([4, 2, 0]), keys(3, word=1)
        )
        assert sorted(rows[0].tolist()) == [0, 1, 2, 3]
        assert rows[1].size == 2
        assert rows[2].size == 0

    def test_batched_matches_sequential_distribution(self):
        # The batched race must reproduce the sequential per-row sampler's
        # edge multiset distributionally: same support, same marginal
        # inclusion frequencies within Monte-Carlo tolerance.
        probs = np.array([[0.5, 0.3, 0.15, 0.05], [0.05, 0.05, 0.45, 0.45]])
        counts = np.array([2, 2])
        trials = 3000
        freq_batched = np.zeros_like(probs)
        freq_sequential = np.zeros_like(probs)
        batched = sample_rows_without_replacement(
            np.tile(probs, (trials, 1)), np.tile(counts, trials), keys(2 * trials, word=7)
        )
        for i, drawn in enumerate(batched):
            freq_batched[i % 2, drawn] += 1
        sequential_keys = keys(2 * trials, word=8)
        for trial in range(trials):
            for row in range(probs.shape[0]):
                drawn = sample_rows_without_replacement(
                    probs[row][None, :], counts[row : row + 1],
                    sequential_keys[2 * trial + row : 2 * trial + row + 1],
                )[0]
                freq_sequential[row, drawn] += 1
        np.testing.assert_allclose(
            freq_batched / trials, freq_sequential / trials, atol=0.035
        )

    def test_forbid_respected_in_every_row(self):
        rng = np.random.default_rng(2)
        probs = rng.random((6, 8))
        forbid = np.array([0, 1, 2, 3, 4, 5])
        rows = sample_rows_without_replacement(
            probs, np.full(6, 5), keys(6, word=2), forbid=forbid
        )
        for row, drawn in enumerate(rows):
            assert forbid[row] not in drawn
            assert drawn.size == 5
            assert np.unique(drawn).size == drawn.size  # without replacement


class TestBatchedGeneration:
    def test_packed_and_merged_generation_reproduce_observed_budgets(self):
        # Generation reproduces the observed (src, t) out-degree budgets
        # regardless of encoder layout, so the generated edge multiset
        # matches the sequential path on everything the budgets determine.
        g = toy_graph(num_nodes=12, num_edges=60, num_timestamps=4, seed=9)
        packed_gen = TGAEGenerator(fast_config(epochs=2, num_initial_nodes=8))
        merged_gen = TGAEGenerator(
            fast_config(epochs=2, num_initial_nodes=8, packed_batches=False)
        )
        packed_graph = packed_gen.fit(g).generate(seed=0)
        merged_graph = merged_gen.fit(g).generate(seed=0)
        assert packed_graph.num_edges == g.num_edges
        assert merged_graph.num_edges == g.num_edges

        def src_time_multiset(graph):
            pairs, counts = np.unique(
                np.stack([graph.src, graph.t], axis=1), axis=0, return_counts=True
            )
            return {tuple(p): int(c) for p, c in zip(pairs, counts)}

        assert src_time_multiset(packed_graph) == src_time_multiset(merged_graph)
        # Self-loops are forbidden on both paths.
        assert (packed_graph.src != packed_graph.dst).all()

    def test_generation_deterministic_under_packed_path(self):
        g = toy_graph(num_nodes=10, num_edges=40, num_timestamps=3, seed=4)
        gen = TGAEGenerator(fast_config(epochs=2, num_initial_nodes=8)).fit(g)
        a = gen.generate(seed=5)
        b = gen.generate(seed=5)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)
        np.testing.assert_array_equal(a.t, b.t)
