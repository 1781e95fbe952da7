"""Tests for the first-order temporal neighbourhood oracle (Definition 3)."""

from ego_oracle import first_order_neighbors

from repro.graph import TemporalGraph


def chain_graph():
    # 0 -1@0- 1 -2@1- 2 -3@2- 3, plus 0->3 at t=5
    return TemporalGraph(
        4, [0, 1, 2, 0], [1, 2, 3, 3], [0, 1, 2, 5], num_timestamps=6
    )


class TestFirstOrder:
    def test_respects_time_window(self):
        g = chain_graph()
        neigh, times = first_order_neighbors(g, 0, 0, time_window=1)
        assert set(neigh.tolist()) == {1}
        neigh, _ = first_order_neighbors(g, 0, 0, time_window=5)
        assert set(neigh.tolist()) == {1, 3}

    def test_window_zero_exact_timestamp(self):
        g = chain_graph()
        neigh, times = first_order_neighbors(g, 1, 1, time_window=0)
        assert set(zip(neigh.tolist(), times.tolist())) == {(2, 1)}

    def test_counts_multi_edges(self):
        g = TemporalGraph(2, [0, 0], [1, 1], [0, 0])
        neigh, _ = first_order_neighbors(g, 0, 0, time_window=0)
        assert neigh.size == 2

    def test_isolated_node(self):
        g = TemporalGraph(3, [0], [1], [0])
        neigh, _ = first_order_neighbors(g, 2, 0, time_window=10)
        assert neigh.size == 0

    def test_direction_agnostic(self):
        g = TemporalGraph(2, [0], [1], [0])
        neigh_src, _ = first_order_neighbors(g, 0, 0, 0)
        neigh_dst, _ = first_order_neighbors(g, 1, 0, 0)
        assert neigh_src.tolist() == [1]
        assert neigh_dst.tolist() == [0]


class TestTemporalDegree:
    """Eq. 2's temporal degree is the size of the first-order neighbourhood."""

    def test_matches_first_order_count(self):
        g = chain_graph()
        neigh, _ = first_order_neighbors(g, 1, 1, time_window=1)
        assert neigh.size == 2  # edges 0-1@0 and 1-2@1

    def test_degree_weighted_by_window(self):
        g = chain_graph()
        assert first_order_neighbors(g, 0, 0, time_window=0)[0].size == 1
        assert first_order_neighbors(g, 0, 0, time_window=5)[0].size == 2
