"""Tests for ego-graph sampling (Alg. 1) and initial-node sampling (Eq. 2)."""

import numpy as np
import pytest

from repro.errors import ConfigError, GraphFormatError
from repro.graph import (
    TemporalGraph,
    ego_graph_batch,
    initial_node_probabilities,
    sample_ego_graph,
    sample_ego_tile,
    sample_initial_nodes,
)
from repro.graph.ego_graph import _first_seen, _group_starts, _pick_hashes, counter_hash


def star_graph(leaves=10):
    """Hub node 0 connected to `leaves` leaf nodes, all at t=0."""
    src = np.zeros(leaves, dtype=int)
    dst = np.arange(1, leaves + 1)
    return TemporalGraph(leaves + 1, src, dst, np.zeros(leaves, dtype=int), num_timestamps=2)


def hub_tile(leaves, threshold, keys=(0,)):
    """Radius-1 tiles centred on the hub of ``star_graph(leaves)``."""
    keys = np.asarray(keys, dtype=np.uint64)
    centers = np.zeros((keys.size, 2), dtype=np.int64)
    return sample_ego_tile(star_graph(leaves), centers, keys, radius=1,
                           threshold=threshold, time_window=1)


class TestNodeSampling:
    """``NodeSampling`` of Alg. 1, as the tile sampler applies it per parent."""

    def test_below_threshold_untouched(self):
        g = star_graph(3)
        ego = hub_tile(3, threshold=5).egos()[0]
        others, times = g.incident_events(0)
        np.testing.assert_array_equal(ego.layers[1], np.stack([others, times], axis=1))

    def test_truncates_to_threshold(self):
        ego = hub_tile(100, threshold=7).egos()[0]
        assert 1 <= ego.layers[1].shape[0] <= 7
        assert ego.edges[0].shape[0] == ego.layers[1].shape[0]

    def test_sampling_is_with_replacement(self):
        """Above-threshold sampling may repeat entries (as Alg. 1 specifies)."""
        tile = hub_tile(10, threshold=8, keys=np.arange(50))
        sizes = np.diff(tile.offsets[1])
        assert sizes.max() <= 8
        assert sizes.min() < 8

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            hub_tile(3, threshold=0)

    @pytest.mark.parametrize("hop", [1, 2, 3])
    def test_folded_pick_hashes_equal_the_three_word_hash(self, hop):
        """Folding ``(key, hop)`` per ego and the slot per parent keeps the chain."""
        rng = np.random.default_rng(hop)
        keys = rng.integers(0, 2**64, size=9, dtype=np.uint64)
        owner = np.sort(rng.integers(0, keys.size, size=40))
        slot = rng.integers(0, 1000, size=owner.size)
        threshold = 7
        want = counter_hash(keys[owner][:, None], hop, slot[:, None], np.arange(threshold))
        got = _pick_hashes(keys, hop, owner, slot, threshold)
        assert got.dtype == np.uint64
        assert got.tobytes() == want.tobytes()


def first_seen_by_argsort(keys):
    """``_first_seen`` as it was written before the composite sort: a stable argsort."""
    order = keys.argsort(kind="stable")
    starts = _group_starts(keys[order])
    first = order[starts]
    is_first = np.zeros(keys.size, dtype=bool)
    is_first[first] = True
    index = np.empty(keys.size, dtype=np.int64)
    index[order] = (is_first.cumsum() - 1)[first][starts.cumsum() - 1]
    return is_first.nonzero()[0], index


class TestFirstSeen:
    """``_first_seen`` sorts ``key * size + position`` unless that overflows int64."""

    @staticmethod
    def check(keys):
        rows, index = _first_seen(keys)
        want_rows, want_index = first_seen_by_argsort(keys)
        assert rows.dtype == want_rows.dtype and index.dtype == want_index.dtype
        assert rows.tobytes() == want_rows.tobytes()
        assert index.tobytes() == want_index.tobytes()
        np.testing.assert_array_equal(keys[rows][index], keys)

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_sort_equals_argsort(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 3000))
        keys = rng.integers(0, max(2, size // int(rng.integers(1, 8))), size=size)
        self.check(keys)

    @pytest.mark.parametrize("seed", range(5))
    def test_overflowing_composite_keeps_argsort(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 500))
        # Just past the largest key whose composite fits: the argsort branch.
        top = (np.iinfo(np.int64).max - size) // size + 1
        keys = rng.choice(np.array([0, 5, top, top + 7, np.iinfo(np.int64).max]), size=size)
        keys[0] = top
        self.check(keys)

    def test_largest_fitting_key_uses_composite(self):
        size = 64
        top = (np.iinfo(np.int64).max - size) // size
        keys = np.tile(np.array([top, 3, top - 1, 3]), size // 4)
        self.check(keys)

    def test_negative_keys_and_edge_sizes(self):
        self.check(np.array([-4, 2, -4, 0, 2]))
        self.check(np.array([7]))
        rows, index = _first_seen(np.array([], dtype=np.int64))
        assert rows.size == 0 and index.size == 0


class TestEgoGraph:
    def test_radius_and_layers(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=2, threshold=5, time_window=1,
                               rng=np.random.default_rng(0))
        assert ego.radius == 2
        assert len(ego.layers) == 3
        assert ego.layers[0].shape == (1, 2)

    def test_layer1_nodes_are_neighbors(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=1, threshold=100, time_window=1,
                               rng=np.random.default_rng(0))
        layer1_nodes = set(ego.layers[1][:, 0].tolist())
        assert layer1_nodes <= set(range(1, 11))
        assert len(layer1_nodes) == 10  # no truncation at threshold=100

    def test_threshold_bounds_layer_size(self):
        g = star_graph(leaves=50)
        ego = sample_ego_graph(g, (0, 0), radius=1, threshold=5, time_window=1,
                               rng=np.random.default_rng(0))
        assert ego.layers[1].shape[0] <= 5

    def test_edges_reference_valid_indices(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=2, threshold=5, time_window=1,
                               rng=np.random.default_rng(1))
        for level in range(1, ego.radius + 1):
            edges = ego.edges[level - 1]
            if edges.size == 0:
                continue
            assert edges[:, 0].max() < ego.layers[level].shape[0]
            assert edges[:, 1].max() < ego.layers[level - 1].shape[0]

    def test_chain_variant_threshold_one(self):
        """threshold=1 (TGAE-g) degenerates the ego-graph into a chain."""
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=3, threshold=1, time_window=1,
                               rng=np.random.default_rng(2))
        for layer in ego.layers[1:]:
            assert layer.shape[0] <= 1

    def test_invalid_radius(self):
        with pytest.raises(ConfigError):
            sample_ego_graph(star_graph(), (0, 0), radius=0, threshold=5, time_window=1,
                             rng=np.random.default_rng(0))

    @pytest.mark.parametrize("center", [(-1, 0), (0, 99), (11, 0), (0, -1), (0, 2)])
    def test_out_of_range_center_rejected(self, center):
        """A centre outside [0, n) x [0, T) is bad input, not an empty ego."""
        with pytest.raises(GraphFormatError, match="outside"):
            sample_ego_graph(star_graph(), center, radius=2, threshold=5,
                             time_window=1, rng=np.random.default_rng(0))

    def test_out_of_range_time_never_reads_real_events(self):
        """A wide window must not let t = T reach the events at t < T."""
        with pytest.raises(GraphFormatError):
            sample_ego_graph(star_graph(), (0, 2), radius=1, threshold=5,
                             time_window=5, rng=np.random.default_rng(0))

    def test_isolated_center_has_empty_layers(self):
        g = TemporalGraph(3, [0], [1], [0])
        ego = sample_ego_graph(g, (2, 0), radius=2, threshold=5, time_window=1,
                               rng=np.random.default_rng(0))
        assert ego.layers[1].shape[0] == 0
        assert ego.num_nodes == 1

    def test_all_nodes_concatenation(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=1, threshold=100, time_window=1,
                               rng=np.random.default_rng(0))
        assert ego.all_nodes().shape == (11, 2)


class TestInitialNodeSampling:
    def test_probabilities_sum_to_one(self):
        probs = initial_node_probabilities(star_graph())
        assert probs.sum() == pytest.approx(1.0)

    def test_degree_weighting_prefers_hub(self):
        g = star_graph()
        probs = initial_node_probabilities(g).reshape(g.num_nodes, g.num_timestamps)
        # Hub has degree 10, leaves degree 1, at t=0.
        assert probs[0, 0] == pytest.approx(10 / 20)
        assert probs[1, 0] == pytest.approx(1 / 20)

    def test_uniform_variant_over_active_nodes(self):
        g = star_graph()
        probs = initial_node_probabilities(g, uniform=True).reshape(
            g.num_nodes, g.num_timestamps
        )
        active = probs[probs > 0]
        assert np.allclose(active, active[0])
        assert probs[:, 1].sum() == 0  # nothing active at t=1

    def test_empty_graph_raises(self):
        g = TemporalGraph(3, [], [], [], num_timestamps=2)
        with pytest.raises(ConfigError):
            initial_node_probabilities(g)

    def test_sample_shape_and_ranges(self):
        g = star_graph()
        centers = sample_initial_nodes(g, 20, np.random.default_rng(0))
        assert centers.shape == (20, 2)
        assert centers[:, 0].max() < g.num_nodes
        assert centers[:, 1].max() < g.num_timestamps

    def test_hub_sampled_most_often(self):
        g = star_graph()
        centers = sample_initial_nodes(g, 500, np.random.default_rng(0))
        hub_frac = np.mean(centers[:, 0] == 0)
        assert hub_frac > 0.3  # expectation 0.5


class TestBatch:
    def test_batch_produces_one_ego_per_center(self):
        g = star_graph()
        centers = sample_initial_nodes(g, 5, np.random.default_rng(0))
        egos = ego_graph_batch(g, centers, radius=2, threshold=4, time_window=1,
                               rng=np.random.default_rng(1))
        assert len(egos) == 5
        for ego, center in zip(egos, centers):
            assert ego.center == (int(center[0]), int(center[1]))
