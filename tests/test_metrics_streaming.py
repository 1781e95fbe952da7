"""Streaming evaluation: bit-equal to the per-snapshot oracle, one pass by construction.

``streaming_evaluate`` (also exported as ``compare_graphs``) must return the
scores of the per-snapshot loop in ``eval_oracle``: the one-pass
``statistic_series`` must reproduce every per-snapshot statistic bit for
bit, and the errors must reduce in the same order, hence *exactly* equal
scores -- not approximately equal.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eval_oracle import reference_compare_graphs
from strategies import STANDARD_SETTINGS

from repro.datasets import communication_network
from repro.errors import GraphFormatError
from repro.graph import TemporalGraph, cumulative_snapshots
from repro.metrics import (
    STATISTIC_FUNCTIONS,
    compare_graphs,
    statistic_series,
    streaming_evaluate,
)


@pytest.fixture(scope="module")
def pair():
    observed = communication_network(40, 300, 6, seed=5)
    generated = communication_network(40, 300, 6, seed=9)
    return observed, generated


class TestStreamingEvaluateParity:
    """The headline contract: scores exactly equal the per-snapshot oracle."""

    def test_compare_graphs_is_streaming_evaluate(self):
        assert compare_graphs is streaming_evaluate

    @pytest.mark.parametrize("reduction", ["mean", "median"])
    def test_exact_equality_all_statistics(self, pair, reduction):
        observed, generated = pair
        dense = reference_compare_graphs(observed, generated, reduction=reduction)
        streamed = streaming_evaluate(observed, generated, reduction=reduction)
        assert dense == streamed  # bitwise: same floats, same keys

    def test_exact_equality_on_statistic_subset(self, pair):
        observed, generated = pair
        names = ["mean_degree", "triangle_count"]
        dense = reference_compare_graphs(observed, generated, statistics=names)
        streamed = streaming_evaluate(observed, generated, statistics=names)
        assert dense == streamed
        assert set(streamed) == set(names)

    def test_identical_graphs_score_zero(self, pair):
        observed, _ = pair
        scores = streaming_evaluate(observed, observed)
        assert set(scores) == set(STATISTIC_FUNCTIONS)
        assert all(value == 0.0 for value in scores.values())

    def test_second_seed_pair(self):
        observed = communication_network(30, 200, 4, seed=1)
        generated = communication_network(30, 200, 4, seed=2)
        assert reference_compare_graphs(observed, generated) == streaming_evaluate(
            observed, generated
        )


class TestStreamingEvaluateGuards:
    def test_rejects_unknown_statistic(self, pair):
        observed, generated = pair
        with pytest.raises(KeyError, match="nope"):
            streaming_evaluate(observed, generated, statistics=["nope"])

    def test_bare_string_is_one_statistic_name(self, pair):
        observed, generated = pair
        streamed = streaming_evaluate(observed, generated, statistics="lcc")
        dense = reference_compare_graphs(observed, generated, statistics="lcc")
        assert list(streamed) == ["lcc"]
        assert streamed == dense == streaming_evaluate(
            observed, generated, statistics=["lcc"]
        )

    def test_rejects_bad_reduction(self, pair):
        observed, generated = pair
        with pytest.raises(ValueError, match="reduction"):
            streaming_evaluate(observed, generated, reduction="max")

    def test_rejects_timestamp_mismatch(self):
        a = TemporalGraph(3, [0], [1], [0], num_timestamps=2)
        b = TemporalGraph(3, [0], [1], [0], num_timestamps=5)
        with pytest.raises(GraphFormatError):
            streaming_evaluate(a, b)

    def test_empty_graphs_score_zero(self):
        a = TemporalGraph(4, [], [], [], num_timestamps=3)
        b = TemporalGraph(4, [], [], [], num_timestamps=3)
        scores = streaming_evaluate(a, b)
        assert all(value == 0.0 for value in scores.values())


def _edge_graph(draw, num_t, max_nodes=9, max_edges=40):
    """A small graph where self-loops, repeated pairs (also at later
    timestamps), empty timestamps, isolated nodes and ``n=1`` are all likely."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(node, node, st.integers(0, num_t - 1)), max_size=max_edges)
    )
    src, dst, t = (list(column) for column in zip(*edges)) if edges else ([], [], [])
    return TemporalGraph(n, src, dst, t, num_timestamps=num_t)


@st.composite
def temporal_graphs(draw):
    return _edge_graph(draw, draw(st.integers(1, 6)))


@st.composite
def graph_pairs(draw):
    num_t = draw(st.integers(1, 6))
    return _edge_graph(draw, num_t), _edge_graph(draw, num_t)


@given(temporal_graphs())
@STANDARD_SETTINGS
def test_statistic_series_is_bitwise_the_per_snapshot_statistics(graph):
    series = statistic_series(graph)
    snapshots = cumulative_snapshots(graph)
    assert list(series) == list(STATISTIC_FUNCTIONS)
    for name, fn in STATISTIC_FUNCTIONS.items():
        expected = np.asarray([fn(s) for s in snapshots], dtype=np.float64)
        assert series[name].tobytes() == expected.tobytes(), name


@given(
    graph_pairs(),
    st.sampled_from(["mean", "median"]),
    st.lists(st.sampled_from(list(STATISTIC_FUNCTIONS)), min_size=1, unique=True),
)
@STANDARD_SETTINGS
def test_streaming_evaluate_equals_the_per_snapshot_oracle(pair, reduction, names):
    observed, generated = pair
    dense = reference_compare_graphs(
        observed, generated, statistics=names, reduction=reduction
    )
    streamed = streaming_evaluate(
        observed, generated, statistics=names, reduction=reduction
    )
    assert streamed == dense
    assert list(streamed) == names
