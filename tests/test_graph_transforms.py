"""Tests for the null-model transforms and the ``perturb_edges`` test helper."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perturb import perturb_edges
from strategies import SLOW_SETTINGS

from repro.errors import GraphFormatError
from repro.graph import (
    TemporalGraph,
    cumulative_snapshots,
    rewire_degree_preserving,
    shuffle_timestamps,
)
from repro.metrics import compute_all_statistics, triangle_count


def sample_graph(seed=0, n=20, m=120, T=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = (src + 1 + rng.integers(0, n - 1, m)) % n  # no self-loops
    t = rng.integers(0, T, m)
    return TemporalGraph(n, src, dst, t, num_timestamps=T)


def triangle_rich_graph():
    """Disjoint directed 3-cycles in one snapshot (a simple graph, so the
    degree-preserving rewiring null model should destroy the triangles)."""
    src, dst, t = [], [], []
    for base in range(0, 30, 3):
        a, b, c = base, base + 1, base + 2
        src += [a, b, c]
        dst += [b, c, a]
        t += [0] * 3
    return TemporalGraph(30, src, dst, t, num_timestamps=1)


class TestShuffleTimestamps:
    def test_static_structure_preserved(self):
        g = sample_graph()
        shuffled = shuffle_timestamps(g, seed=1)
        # Same multiset of (src, dst) pairs.
        key = lambda gr: sorted(zip(gr.src.tolist(), gr.dst.tolist()))
        assert key(shuffled) == key(g)

    def test_counts_preserved(self):
        g = sample_graph()
        shuffled = shuffle_timestamps(g, seed=1, preserve_counts=True)
        assert np.array_equal(
            np.bincount(shuffled.t, minlength=g.num_timestamps),
            np.bincount(g.t, minlength=g.num_timestamps),
        )

    def test_counts_not_preserved_mode(self):
        g = sample_graph()
        shuffled = shuffle_timestamps(g, seed=1, preserve_counts=False)
        assert shuffled.num_edges == g.num_edges
        assert shuffled.t.max() < g.num_timestamps

    def test_deterministic_under_seed(self):
        g = sample_graph()
        assert shuffle_timestamps(g, seed=7) == shuffle_timestamps(g, seed=7)

    def test_input_not_mutated(self):
        g = sample_graph()
        before = g.t.copy()
        shuffle_timestamps(g, seed=1)
        assert np.array_equal(g.t, before)


class TestRewiring:
    def test_degree_sequences_preserved_per_snapshot(self):
        g = sample_graph(m=200)
        rewired = rewire_degree_preserving(g, seed=2)
        for timestamp in range(g.num_timestamps):
            for attr in ("src", "dst"):
                obs = np.bincount(
                    getattr(g, attr)[g.t == timestamp], minlength=g.num_nodes
                )
                got = np.bincount(
                    getattr(rewired, attr)[rewired.t == timestamp],
                    minlength=g.num_nodes,
                )
                assert np.array_equal(obs, got), (timestamp, attr)

    def test_timestamps_unchanged(self):
        g = sample_graph()
        rewired = rewire_degree_preserving(g, seed=2)
        assert np.array_equal(np.sort(rewired.t), np.sort(g.t))

    def test_destroys_triangles(self):
        g = triangle_rich_graph()
        rewired = rewire_degree_preserving(g, seed=0, swaps_per_edge=5.0)
        obs_tri = triangle_count(cumulative_snapshots(g)[-1])
        new_tri = triangle_count(cumulative_snapshots(rewired)[-1])
        assert new_tri < obs_tri

    def test_no_new_self_loops(self):
        g = sample_graph(m=300)
        rewired = rewire_degree_preserving(g, seed=3)
        assert not np.any(rewired.src == rewired.dst)

    def test_negative_swaps_rejected(self):
        with pytest.raises(GraphFormatError):
            rewire_degree_preserving(sample_graph(), swaps_per_edge=-1.0)

    def test_zero_swaps_is_identity(self):
        g = sample_graph()
        assert rewire_degree_preserving(g, seed=0, swaps_per_edge=0.0) == g


class TestPerturbEdges:
    def test_zero_fraction_identity(self):
        g = sample_graph()
        assert perturb_edges(g, 0.0, seed=0) == g

    def test_full_fraction_changes_most_edges(self):
        g = sample_graph(m=200)
        noisy = perturb_edges(g, 1.0, seed=0)
        same = np.sum((noisy.src == g.src) & (noisy.dst == g.dst))
        assert same < g.num_edges * 0.2

    def test_timestamps_unchanged(self):
        g = sample_graph()
        noisy = perturb_edges(g, 0.5, seed=0)
        assert np.array_equal(noisy.t, g.t)

    def test_edge_count_unchanged(self):
        g = sample_graph()
        assert perturb_edges(g, 0.3, seed=1).num_edges == g.num_edges

    def test_no_self_loops_injected(self):
        g = sample_graph(m=400)
        noisy = perturb_edges(g, 1.0, seed=2)
        assert not np.any(noisy.src == noisy.dst)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(GraphFormatError):
            perturb_edges(sample_graph(), 1.5)
        with pytest.raises(GraphFormatError):
            perturb_edges(sample_graph(), -0.1)

    def test_metric_degrades_monotonically_on_average(self):
        """More noise -> larger statistic deviation (robustness-knob check)."""
        g = triangle_rich_graph()
        obs = compute_all_statistics(cumulative_snapshots(g)[-1])

        def deviation(fraction):
            total = 0.0
            for seed in range(3):
                noisy = perturb_edges(g, fraction, seed=seed)
                got = compute_all_statistics(cumulative_snapshots(noisy)[-1])
                total += sum(
                    abs(got[k] - obs[k]) / max(abs(obs[k]), 1.0) for k in obs
                )
            return total / 3

        assert deviation(0.8) > deviation(0.1)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def temporal_graphs(draw, max_nodes=10, max_edges=40, max_t=5):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    T = draw(st.integers(min_value=1, max_value=max_t))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    t = draw(st.lists(st.integers(0, T - 1), min_size=m, max_size=m))
    return TemporalGraph(n, src, dst, t, num_timestamps=T)


class TestProperties:
    @given(temporal_graphs(), st.integers(0, 2**16))
    @SLOW_SETTINGS
    def test_shuffle_preserves_edge_multiset(self, g, seed):
        shuffled = shuffle_timestamps(g, seed=seed)
        assert sorted(zip(shuffled.src.tolist(), shuffled.dst.tolist())) == sorted(
            zip(g.src.tolist(), g.dst.tolist())
        )
        assert np.array_equal(np.sort(shuffled.t), np.sort(g.t))

    @given(temporal_graphs(), st.integers(0, 2**16))
    @SLOW_SETTINGS
    def test_rewire_preserves_total_degrees(self, g, seed):
        rewired = rewire_degree_preserving(g, seed=seed)
        assert np.array_equal(
            np.bincount(rewired.src, minlength=g.num_nodes),
            np.bincount(g.src, minlength=g.num_nodes),
        )
        assert np.array_equal(
            np.bincount(rewired.dst, minlength=g.num_nodes),
            np.bincount(g.dst, minlength=g.num_nodes),
        )
