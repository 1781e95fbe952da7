"""Tests for continuous-timestamp binning."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import discretize_timestamps, from_continuous


class TestDiscretize:
    def test_equal_width_bins(self):
        times = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
        bins, boundaries = discretize_timestamps(times, 4, policy="equal_width")
        # Boundaries are [0, 2.5, 5, 7.5, 10]; values on a boundary open the
        # next bin, and the global maximum clips into the last bin.
        assert bins.tolist() == [0, 1, 2, 3, 3]
        assert boundaries.size == 5

    def test_bins_in_range(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(1e9, 2e9, 500)
        bins, _ = discretize_timestamps(times, 7)
        assert bins.min() >= 0
        assert bins.max() <= 6

    def test_equal_frequency_balances(self):
        rng = np.random.default_rng(1)
        # Heavy-tailed times: equal-width would leave most bins near-empty.
        times = rng.pareto(1.0, size=1000)
        bins, _ = discretize_timestamps(times, 5, policy="equal_frequency")
        counts = np.bincount(bins, minlength=5)
        assert counts.min() > 100  # ~200 each

    def test_equal_width_can_be_skewed(self):
        rng = np.random.default_rng(2)
        times = rng.pareto(1.0, size=1000)
        bins, _ = discretize_timestamps(times, 5, policy="equal_width")
        counts = np.bincount(bins, minlength=5)
        assert counts.max() > 800  # bulk lands in the first bin

    def test_constant_times_single_bin(self):
        bins, _ = discretize_timestamps(np.full(10, 42.0), 3)
        assert np.all(bins == 0)

    def test_monotone(self):
        """Later raw times never map to earlier bins."""
        times = np.sort(np.random.default_rng(3).uniform(0, 100, 200))
        bins, _ = discretize_timestamps(times, 10)
        assert np.all(np.diff(bins) >= 0)

    def test_errors(self):
        with pytest.raises(GraphFormatError):
            discretize_timestamps([], 3)
        with pytest.raises(GraphFormatError):
            discretize_timestamps([1.0], 0)
        with pytest.raises(GraphFormatError):
            discretize_timestamps([1.0], 3, policy="nope")


class TestFromContinuous:
    def test_builds_graph(self):
        g = from_continuous(4, [0, 1, 2], [1, 2, 3], [10.5, 20.1, 99.9], num_bins=3)
        assert g.num_timestamps == 3
        assert g.num_edges == 3
        assert g.t.tolist() == [0, 0, 2]

