"""Tests for the merged k-bipartite computation graphs of Fig. 4.

The merged layout is ``EgoTile.packed(merge=True)``: every ego-graph of the
tile shares one table per level, so it is a packed batch of one table, and
a level's ``nodes`` and edges are that table's ``(node, time)`` rows and
edges.  The tests check the layout's structural invariants on them.
"""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import EgoTile, TemporalGraph, ego_graph_batch


def merged(egos):
    return EgoTile.from_egos(egos).packed(merge=True)


def sample_batch(num_centers=4, radius=2, seed=0):
    rng = np.random.default_rng(seed)
    g = TemporalGraph(
        8,
        [0, 1, 2, 3, 4, 5, 6, 0, 2, 4],
        [1, 2, 3, 4, 5, 6, 7, 3, 5, 7],
        [0, 0, 1, 1, 2, 2, 3, 1, 2, 3],
    )
    centers = np.array([[0, 0], [2, 1], [4, 2], [6, 3]])[:num_centers]
    egos = ego_graph_batch(g, centers, radius=radius, threshold=4, time_window=2, rng=rng)
    return g, egos, merged(egos)


def table(batch, level):
    """The ``(node, time)`` rows of the shared level table."""
    return batch.nodes[level]


def edges(batch, level):
    """``(src rows, dst rows, delta_t)`` of the edges into ``level - 1``."""
    lev = batch.levels[level - 1]
    return lev.src, lev.dst, lev.delta_t


class TestStructure:
    def test_radius_matches(self):
        _, egos, batch = sample_batch(radius=2)
        assert batch.radius == 2
        assert len(batch.nodes) == 3
        assert batch.tables == 1
        assert batch.num_centers == len(egos)

    def test_center_index_roundtrip(self):
        _, egos, batch = sample_batch()
        level0 = table(batch, 0)
        for i, ego in enumerate(egos):
            node = level0[batch.center_rows[i]]
            assert (int(node[0]), int(node[1])) == ego.center
        np.testing.assert_array_equal(batch.center_nodes, [ego.center for ego in egos])

    def test_centers_deduplicated(self):
        g = TemporalGraph(3, [0, 1], [1, 2], [0, 0])
        centers = np.array([[0, 0], [0, 0], [1, 0]])
        egos = ego_graph_batch(g, centers, radius=1, threshold=4, time_window=1,
                               rng=np.random.default_rng(0))
        batch = merged(egos)
        assert table(batch, 0).shape[0] == 2
        assert batch.num_centers == 3
        assert batch.center_rows[0] == batch.center_rows[1]

    def test_levels_are_nested(self):
        """Every level-(l-1) node must also appear in level l (self-loops)."""
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            upper = {tuple(row) for row in table(batch, level).tolist()}
            lower = {tuple(row) for row in table(batch, level - 1).tolist()}
            assert lower <= upper

    def test_level_nodes_unique(self):
        _, _, batch = sample_batch()
        for level in range(batch.radius + 1):
            rows = [tuple(r) for r in table(batch, level).tolist()]
            assert len(rows) == len(set(rows))

    def test_edges_reference_valid_indices(self):
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            src, dst, _ = edges(batch, level)
            assert src.max() < table(batch, level).shape[0]
            assert dst.max() < table(batch, level - 1).shape[0]

    def test_self_loops_present_for_every_target(self):
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            src, dst, _ = edges(batch, level)
            upper_nodes = table(batch, level)
            lower_nodes = table(batch, level - 1)
            targets_with_self = set()
            for s, d in zip(src.tolist(), dst.tolist()):
                if tuple(upper_nodes[s]) == tuple(lower_nodes[d]):
                    targets_with_self.add(d)
            assert targets_with_self == set(range(lower_nodes.shape[0]))

    def test_delta_t_matches_node_times(self):
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            src, dst, delta_t = edges(batch, level)
            t_src = table(batch, level)[src, 1]
            t_dst = table(batch, level - 1)[dst, 1]
            assert np.allclose(delta_t, (t_dst - t_src).astype(float))

    def test_single_ego_merge_equals_per_ego(self):
        _, egos, _ = sample_batch()
        for ego in egos:
            one, per_ego = merged([ego]), EgoTile.from_egos([ego]).packed()
            for x, y in zip(one.nodes, per_ego.nodes):
                np.testing.assert_array_equal(x, y)
            for la, lb in zip(one.levels, per_ego.levels):
                np.testing.assert_array_equal(la.src, lb.src)
                np.testing.assert_array_equal(la.dst, lb.dst)
                np.testing.assert_array_equal(la.delta_t, lb.delta_t)
            np.testing.assert_array_equal(one.center_rows, per_ego.center_rows)

    def test_empty_batch_raises(self):
        with pytest.raises(GraphFormatError):
            merged([])

    def test_mixed_radius_raises(self):
        g = TemporalGraph(3, [0, 1], [1, 2], [0, 0])
        rng = np.random.default_rng(0)
        e1 = ego_graph_batch(g, np.array([[0, 0]]), 1, 4, 1, rng)[0]
        e2 = ego_graph_batch(g, np.array([[1, 0]]), 2, 4, 1, rng)[0]
        with pytest.raises(GraphFormatError):
            merged([e1, e2])


class TestDeduplicationAcrossEgos:
    def test_shared_neighbors_stored_once(self):
        """Two centres sharing neighbourhoods must not duplicate level nodes."""
        g = TemporalGraph(3, [0, 1], [2, 2], [0, 0])  # both 0 and 1 point at 2
        centers = np.array([[0, 0], [1, 0]])
        egos = ego_graph_batch(g, centers, radius=1, threshold=4, time_window=1,
                               rng=np.random.default_rng(0))
        batch = merged(egos)
        level1 = {tuple(r) for r in table(batch, 1).tolist()}
        # (2, 0) appears in both ego-graphs but only once in the level table.
        count = sum(1 for r in table(batch, 1).tolist() if tuple(r) == (2, 0))
        assert count == 1
        assert (2, 0) in level1

    def test_sampled_edges_deduplicated(self):
        """Egos sharing a (child, parent) pair contribute one edge."""
        g = TemporalGraph(3, [0, 0], [1, 2], [0, 0])
        centers = np.array([[0, 0], [0, 0]])  # two identical ego-graphs
        egos = ego_graph_batch(g, centers, radius=2, threshold=4, time_window=1,
                               rng=np.random.default_rng(0))
        batch = merged(egos)
        for level in range(1, batch.radius + 1):
            src, dst, _ = edges(batch, level)
            pairs = list(zip(src.tolist(), dst.tolist()))
            assert len(pairs) == len(set(pairs))
        np.testing.assert_array_equal(
            [lev.src.size for lev in batch.levels],
            [lev.src.size for lev in merged(egos[:1]).levels],
        )
