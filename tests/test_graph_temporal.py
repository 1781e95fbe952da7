"""Tests for the TemporalGraph container (Definitions 1-2)."""

import numpy as np
import pytest

from dense_oracle import dense_temporal_adjacency
from repro.errors import GraphFormatError
from repro.graph import TemporalGraph, merge


def small_graph():
    #  edges: 0->1@0, 1->2@0, 2->0@1, 0->2@2, 1->0@2
    return TemporalGraph(3, [0, 1, 2, 0, 1], [1, 2, 0, 2, 0], [0, 0, 1, 2, 2])


class TestConstruction:
    def test_basic_properties(self):
        g = small_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 5
        assert g.num_timestamps == 3

    def test_infers_num_timestamps(self):
        g = TemporalGraph(2, [0], [1], [7])
        assert g.num_timestamps == 8

    def test_empty_graph(self):
        g = TemporalGraph(3, [], [], [], num_timestamps=4)
        assert g.num_edges == 0
        assert g.num_temporal_nodes == 0

    def test_mismatched_arrays_raise(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(3, [0, 1], [1], [0, 0])

    def test_out_of_range_node_raises(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(2, [0], [5], [0])

    def test_negative_timestamp_raises(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(2, [0], [1], [-1])

    def test_timestamp_beyond_t_raises(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(2, [0], [1], [5], num_timestamps=3)

    def test_nonpositive_nodes_raise(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(0, [], [], [])

    def test_equality(self):
        assert small_graph() == small_graph()
        other = TemporalGraph(3, [0], [1], [0])
        assert small_graph() != other

    def test_equality_order_independent(self):
        a = TemporalGraph(3, [0, 1], [1, 2], [0, 1])
        b = TemporalGraph(3, [1, 0], [2, 1], [1, 0])
        assert a == b


class TestSnapshots:
    def test_edges_at(self):
        g = small_graph()
        src, dst = g.edges_at(0)
        assert set(zip(src.tolist(), dst.tolist())) == {(0, 1), (1, 2)}

    def test_edges_until_accumulates(self):
        g = small_graph()
        src, _ = g.edges_until(1)
        assert src.size == 3

    def test_snapshots_iterator_covers_all_edges(self):
        g = small_graph()
        total = sum(src.size for _, src, _ in g.snapshots())
        assert total == g.num_edges

    def test_snapshots_yield_every_timestamp(self):
        g = small_graph()
        stamps = [t for t, _, _ in g.snapshots()]
        assert stamps == [0, 1, 2]


class TestDegrees:
    def test_temporal_degrees(self):
        g = small_graph()
        deg = g.temporal_degrees()
        assert deg.shape == (3, 3)
        # node 0 at t=0: one out-edge -> degree 1
        assert deg[0, 0] == 1
        # node 2 at t=1: out-edge 2->0 -> 1
        assert deg[2, 1] == 1
        assert deg.sum() == 2 * g.num_edges

    def test_static_degrees(self):
        g = small_graph()
        deg = g.static_degrees()
        assert deg.sum() == 2 * g.num_edges

    def test_num_temporal_nodes(self):
        g = small_graph()
        # occurrences: (0,0),(1,0),(2,0),(2,1),(0,1),(0,2),(2,2),(1,2)
        assert g.num_temporal_nodes == 8


class TestIncidence:
    def test_events_sorted_by_time(self):
        g = small_graph()
        _, times = g.incident_events(0)
        assert np.all(np.diff(times) >= 0)

    def test_events_count_both_directions(self):
        g = small_graph()
        others, _ = g.incident_events(0)
        assert others.size == 4  # 0->1@0, 2->0@1, 0->2@2, 1->0@2

    def test_isolated_node(self):
        g = TemporalGraph(4, [0], [1], [0])
        others, times = g.incident_events(3)
        assert others.size == 0


class TestTransformations:
    def test_copy_is_deep(self):
        g = small_graph()
        clone = g.copy()
        clone.src[0] = 2
        assert g.src[0] == 0

    def test_restricted_to(self):
        g = small_graph()
        sub = g.restricted_to(1)
        assert sub.num_edges == 3
        assert sub.num_timestamps == 2

    def test_deduplicated(self):
        g = TemporalGraph(2, [0, 0, 0], [1, 1, 1], [0, 0, 1])
        assert g.deduplicated().num_edges == 2

    def test_without_self_loops(self):
        g = TemporalGraph(2, [0, 1], [0, 0], [0, 0])
        assert g.without_self_loops().num_edges == 1

    def test_temporal_adjacency_dense(self):
        g = small_graph()
        adj = dense_temporal_adjacency(g)
        assert adj.shape == (3, 3, 3)
        assert adj[0, 0, 1] == 1
        assert adj[0, 1, 0] == 0  # directed
        assert adj.sum() == g.num_edges


def random_graph(num_nodes, num_edges, num_timestamps, seed):
    rng = np.random.default_rng(seed)
    return TemporalGraph(
        num_nodes,
        rng.integers(0, num_nodes, size=num_edges),
        rng.integers(0, num_nodes, size=num_edges),
        rng.integers(0, num_timestamps, size=num_edges),
        num_timestamps=num_timestamps,
    )


class TestSparseAdjacencyProvider:
    """The CSR providers must agree with the dense (T, n, n) reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjacency_at_matches_dense(self, seed):
        g = random_graph(12, 60, 4, seed)
        dense = dense_temporal_adjacency(g)
        for t in range(g.num_timestamps):
            sparse = g.adjacency_at(t).toarray()
            assert np.array_equal(sparse > 0, dense[t] > 0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_symmetric_adjacency_matches_dense(self, seed):
        g = random_graph(10, 40, 3, seed)
        dense = dense_temporal_adjacency(g)
        for t in range(g.num_timestamps):
            ref = np.maximum(dense[t], dense[t].T).astype(np.float64)
            np.fill_diagonal(ref, 0.0)
            sparse = g.adjacency_at(t, symmetric=True).toarray()
            assert np.array_equal(sparse > 0, ref > 0)

    def test_adjacency_at_is_cached(self):
        g = small_graph()
        assert g.snapshot_view(0) is g.snapshot_view(0)
        # The CSR itself is the shared object, not just the Snapshot.
        assert g.adjacency_at(0, symmetric=True) is g.adjacency_at(0, symmetric=True)

    def test_adjacency_at_empty_timestamp(self):
        g = TemporalGraph(4, [0], [1], [0], num_timestamps=3)
        assert g.adjacency_at(2).nnz == 0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_out_partner_groups_match_dict_of_sets(self, seed):
        g = random_graph(15, 80, 4, seed)
        offsets, partners = g.out_partner_groups()
        reference = {}
        for u, v in zip(g.src.tolist(), g.dst.tolist()):
            reference.setdefault(u, set()).add(v)
        assert offsets.shape == (g.num_nodes + 1,)
        for u in range(g.num_nodes):
            pool = partners[offsets[u] : offsets[u + 1]]
            assert sorted(pool.tolist()) == sorted(reference.get(u, set()))
            assert np.all(np.diff(pool) > 0)  # sorted + distinct

    def test_out_partner_groups_empty_graph(self):
        g = TemporalGraph(3, [], [], [], num_timestamps=2)
        offsets, partners = g.out_partner_groups()
        assert partners.size == 0
        assert np.array_equal(offsets, np.zeros(4, dtype=np.int64))


class TestMerge:
    def test_merge_unions_edges(self):
        a = TemporalGraph(3, [0], [1], [0])
        b = TemporalGraph(3, [1], [2], [1])
        merged = merge([a, b])
        assert merged.num_edges == 2
        assert merged.num_timestamps == 2

    def test_merge_empty_list_raises(self):
        with pytest.raises(GraphFormatError):
            merge([])

    def test_merge_takes_max_universe(self):
        a = TemporalGraph(2, [0], [1], [0])
        b = TemporalGraph(5, [4], [0], [0])
        assert merge([a, b]).num_nodes == 5
