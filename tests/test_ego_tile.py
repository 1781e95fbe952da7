"""The array-level tile sampler against the per-row oracles in ``ego_oracle``.

* **Exact equality** -- with no window over the threshold there are no
  random draws, and a tile equals the original per-row sampler and the
  padded per-row packer, padding dropped, in every array, shape, dtype and
  edge order.
* **Truncated parents** -- a parent over the threshold takes exactly
  ``threshold`` counter-keyed picks from its window multiset (the per-row
  ``counter_ego_graph`` reference), and the picks are uniform.
* **Purity** -- an ego-graph depends only on its key: a group sliced from
  a larger tile equals that group sampled alone.
* **Layouts** -- ``tile.packed(merge=True)`` is the merged layout of
  Fig. 4 as a short row-by-row definition builds it, and
  ``EgoTile.from_egos`` inverts ``egos()``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ego_oracle import counter_ego_graph, drop_padding, oracle_ego_graph, oracle_pack_ego_batch
from strategies import STANDARD_SETTINGS

from repro.core import EgoGraphSampler, fast_config
from repro.errors import GraphFormatError
from repro.graph import (
    EgoTile, PackedEgoBatch, PackedLevel, TemporalGraph, pack_ego_batch, sample_ego_tile,
)
from repro.graph.ego_graph import counter_hash

NO_TRUNCATION = 10**6


@st.composite
def tile_cases(draw, max_nodes=14, max_edges=60, max_t=6):
    n = draw(st.integers(2, max_nodes))
    m = draw(st.integers(0, max_edges))
    T = draw(st.integers(1, max_t))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    graph = TemporalGraph(
        n, rng.integers(0, n, m), rng.integers(0, n, m), rng.integers(0, T, m),
        num_timestamps=T,
    )
    batch = draw(st.integers(1, 6))
    centers = np.stack([rng.integers(0, n, batch), rng.integers(0, T, batch)], axis=1)
    keys = rng.integers(0, 2**63, batch).astype(np.uint64)
    return graph, centers, keys, draw(st.integers(1, 3)), draw(st.integers(0, 2))


def assert_egos_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.center == b.center
        for x, y in zip(a.layers + a.edges, b.layers + b.edges):
            assert x.shape == y.shape
            np.testing.assert_array_equal(x, y)


def assert_packed_equal(actual, expected):
    assert actual.tables == expected.tables
    assert len(actual.levels) == len(expected.levels)
    pairs = list(zip(actual.nodes, expected.nodes))
    for la, lb in zip(actual.levels, expected.levels):
        pairs += [(getattr(la, f.name), getattr(lb, f.name)) for f in dataclasses.fields(la)]
    pairs.append((actual.center_rows, expected.center_rows))
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape
        np.testing.assert_array_equal(x, y)


def fig4_layout(egos):
    """The merged k-bipartite graphs of Fig. 4, built row by row.

    Level 0's table is the sorted set of centres and level ``l``'s the
    sorted union of every ego's layer ``l`` with level ``l-1`` (nesting).
    The edges into level ``l-1`` are every ego's sampled ``(child,
    parent)`` pairs in ego and edge order, the first of each pair kept,
    then one self edge per level-``l-1`` row.
    """
    nodes = [{ego.center for ego in egos}]
    for level in range(1, egos[0].radius + 1):
        nodes.append(nodes[-1] | {tuple(row) for ego in egos
                                  for row in ego.layers[level].tolist()})
    tables = [sorted(level) for level in nodes]
    rows = [{node: row for row, node in enumerate(table)} for table in tables]
    levels = []
    for level in range(1, len(tables)):
        pairs = {}  # insertion-ordered: first occurrence kept
        for ego in egos:
            for child, parent in ego.edges[level - 1].tolist():
                pairs.setdefault((rows[level][tuple(ego.layers[level][child].tolist())],
                                  rows[level - 1][tuple(ego.layers[level - 1][parent].tolist())]))
        edges = list(pairs) + [(rows[level][node], row)
                               for row, node in enumerate(tables[level - 1])]
        src = np.array([s for s, _ in edges], dtype=np.int64)
        dst = np.array([d for _, d in edges], dtype=np.int64)
        delta_t = np.array([tables[level - 1][d][1] - tables[level][s][1] for s, d in edges],
                           dtype=np.float64)
        levels.append(PackedLevel(src=src, dst=dst, delta_t=delta_t))
    return PackedEgoBatch(
        nodes=[np.array(table, dtype=np.int64).reshape(-1, 2) for table in tables],
        levels=levels,
        center_rows=np.array([rows[0][ego.center] for ego in egos], dtype=np.int64),
        tables=1,
    )


class TestExactEquality:
    @given(tile_cases())
    @STANDARD_SETTINGS
    def test_untruncated_tile_matches_per_row_oracle(self, case):
        graph, centers, keys, radius, window = case
        tile = sample_ego_tile(graph, centers, keys, radius, NO_TRUNCATION, window)
        rng = np.random.default_rng(0)
        oracle = [
            oracle_ego_graph(graph, (int(u), int(t)), radius, NO_TRUNCATION, window, rng)
            for u, t in centers
        ]
        assert_egos_equal(tile.egos(), oracle)
        expected = drop_padding(oracle_pack_ego_batch(oracle))
        assert_packed_equal(tile.packed(), expected)
        assert_packed_equal(pack_ego_batch(oracle), expected)


class TestTruncatedParents:
    @given(tile_cases(), st.integers(1, 4))
    @STANDARD_SETTINGS
    def test_counter_keyed_draws_match_per_row_reference(self, case, threshold):
        graph, centers, keys, radius, window = case
        tile = sample_ego_tile(graph, centers, keys, radius, threshold, window)
        reference = [
            counter_ego_graph(graph, (int(u), int(t)), int(k), radius, threshold, window)
            for (u, t), k in zip(centers, keys)
        ]
        assert_egos_equal(tile.egos(), reference)
        assert_packed_equal(tile.packed(), drop_padding(oracle_pack_ego_batch(reference)))

    def test_picks_are_uniform_over_the_window(self):
        """threshold=1 keeps exactly the one pick, so layer 1 counts the draws."""
        leaves, draws = 10, 20000
        graph = TemporalGraph(
            leaves + 1, np.zeros(leaves, dtype=int), np.arange(1, leaves + 1),
            np.zeros(leaves, dtype=int),
        )
        keys = counter_hash(12345, np.arange(draws))
        tile = sample_ego_tile(graph, np.zeros((draws, 2), dtype=np.int64), keys,
                               radius=1, threshold=1, time_window=0)
        assert tile.nodes[1].shape == (draws, 2)
        freq = np.bincount(tile.nodes[1][:, 0], minlength=leaves + 1)[1:]
        expected = draws / leaves
        chi2 = float(((freq - expected) ** 2 / expected).sum())
        assert chi2 < 27.88  # chi-square, 9 degrees of freedom, p = 0.001

    def test_multiset_window_weights_repeated_events(self):
        """A neighbour with k events in the window is picked ~k times as often."""
        draws = 20000
        # Hub 0 meets node 1 three times and node 2 once at t = 0.
        graph = TemporalGraph(3, [0, 0, 0, 0], [1, 1, 1, 2], [0, 0, 0, 0])
        keys = counter_hash(7, np.arange(draws))
        tile = sample_ego_tile(graph, np.zeros((draws, 2), dtype=np.int64), keys,
                               radius=1, threshold=1, time_window=0)
        share = float(np.mean(tile.nodes[1][:, 0] == 1))
        assert abs(share - 0.75) < 0.02


class TestPurity:
    @given(tile_cases(), st.integers(1, 4), st.data())
    @STANDARD_SETTINGS
    def test_sliced_group_equals_group_sampled_alone(self, case, threshold, data):
        graph, centers, keys, radius, window = case
        full = sample_ego_tile(graph, centers, keys, radius, threshold, window).egos()
        lo = data.draw(st.integers(0, len(centers) - 1))
        hi = data.draw(st.integers(lo + 1, len(centers)))
        alone = sample_ego_tile(graph, centers[lo:hi], keys[lo:hi], radius, threshold, window)
        assert_egos_equal(alone.egos(), full[lo:hi])

    def test_inference_egos_depend_only_on_the_centre(self):
        rng = np.random.default_rng(3)
        graph = TemporalGraph(12, rng.integers(0, 12, 200), rng.integers(0, 12, 200),
                              rng.integers(0, 3, 200))
        sampler = EgoGraphSampler(graph, fast_config(neighbor_threshold=3))
        centers = np.stack([np.arange(12), np.full(12, 1)], axis=1)
        full = sampler.inference_batch(centers).tile.egos()
        part = sampler.inference_batch(centers[[7, 2, 9]]).tile.egos()
        assert_egos_equal(part, [full[7], full[2], full[9]])


class TestLayouts:
    @given(tile_cases(), st.one_of(st.just(NO_TRUNCATION), st.integers(1, 4)))
    @STANDARD_SETTINGS
    def test_merged_layout_matches_oracle_egos(self, case, threshold):
        graph, centers, keys, radius, window = case
        tile = sample_ego_tile(graph, centers, keys, radius, threshold, window)
        reference = [
            counter_ego_graph(graph, (int(u), int(t)), int(k), radius, threshold, window)
            for (u, t), k in zip(centers, keys)
        ]
        assert_packed_equal(tile.packed(merge=True), fig4_layout(reference))

    @given(tile_cases(), st.integers(1, 4))
    @STANDARD_SETTINGS
    def test_from_egos_inverts_egos(self, case, threshold):
        graph, centers, keys, radius, window = case
        tile = sample_ego_tile(graph, centers, keys, radius, threshold, window)
        again = EgoTile.from_egos(tile.egos())
        for x, y in zip(again.nodes + again.offsets + again.edges,
                        tile.nodes + tile.offsets + tile.edges):
            np.testing.assert_array_equal(x, y)

    def test_training_batch_views(self):
        rng = np.random.default_rng(5)
        graph = TemporalGraph(10, rng.integers(0, 10, 80), rng.integers(0, 10, 80),
                              rng.integers(0, 4, 80))
        sampler = EgoGraphSampler(graph, fast_config(), np.random.default_rng(1))
        batch = sampler.batch_for_centers(sampler.sample_centers(6))
        egos = batch.tile.egos()
        assert_packed_equal(batch.computation_batch(True), pack_ego_batch(egos))
        assert_packed_equal(batch.computation_batch(False), fig4_layout(egos))
        assert_packed_equal(batch.computation_batch(False),
                            EgoTile.from_egos(egos).packed(merge=True))

    def test_empty_tile_cannot_pack(self):
        graph = TemporalGraph(3, [0], [1], [0])
        tile = sample_ego_tile(graph, np.zeros((0, 2), dtype=np.int64),
                               np.zeros(0, dtype=np.uint64), 2, 5, 1)
        assert tile.egos() == []
        with pytest.raises(GraphFormatError):
            tile.packed()
