"""The row-keyed generation draws have the distributions they claim.

Every generation draw is a counter hash of the row key, the stage and the
draw index (:mod:`repro.core.engine`), so these tests draw over many row
keys and compare the frequencies against exact probabilities with a
chi-square test at p = 0.001.  The keys are fixed, so each statistic is a
fixed number: the bounds hold or fail deterministically.
"""

import itertools

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from repro.core import TGAEGenerator, fast_config
from repro.core.engine import (
    _REPEAT,
    _keyed_uniforms,
    race_order,
    repeat_columns,
    sample_rows_without_replacement,
)
from repro.graph import TemporalGraph
from repro.graph.ego_graph import counter_hash

ROWS = 20000


def keys(count, word=0):
    return counter_hash(word, np.arange(count))


def chi_square(observed, expected):
    """``(statistic, p = 0.001 critical value)`` over the cells of ``expected``."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, float(chi2_dist.ppf(0.999, expected.size - 1))


def sample_repeats(weights, drawn, extra, row_keys):
    """Per-row reference for :func:`repeat_columns`: one searchsorted a row.

    Draw ``j`` of row ``i`` is the keyed uniform ``counter_hash(row_keys[i],
    stage, j)`` searched in the cumulative ``weights[i, drawn[i]]`` (uniform
    over ``drawn[i]`` when those are all zero).  Returns one array of
    columns per row.
    """
    repeat_rows = np.nonzero(extra)[0]
    uniforms = _keyed_uniforms(
        np.asarray(row_keys, dtype=np.uint64)[repeat_rows], _REPEAT,
        int(extra.max(initial=0)),
    )
    out = [np.array([], dtype=np.int64)] * len(drawn)
    for u, row in zip(uniforms, repeat_rows):
        cols = drawn[row]
        cum = np.cumsum(weights[row, cols], dtype=np.float64)
        if cum[-1] <= 0:
            cum = np.arange(1.0, cols.size + 1)
        picks = np.searchsorted(cum, u[: extra[row]] * cum[-1], side="right")
        out[row] = cols[np.minimum(picks, cols.size - 1)]
    return out


def repeats(weights, drawn, extra, row_keys):
    """:func:`repeat_columns` over per-row draws, as one array per row."""
    counts = np.array([cols.size for cols in drawn], dtype=np.int64)
    order = np.zeros((len(drawn), int(counts.max(initial=0))), dtype=np.int64)
    for row, cols in enumerate(drawn):
        order[row, : cols.size] = cols
    padded = repeat_columns(np.asarray(weights), order, counts, extra, row_keys)
    return [padded[row, :e] for row, e in enumerate(extra)]


def ordered_pair_probabilities(weights):
    """Exact law of the ordered first two draws without replacement."""
    p = np.asarray(weights, dtype=np.float64) / np.sum(weights)
    return {
        (i, j): p[i] * p[j] / (1.0 - p[i])
        for i, j in itertools.permutations(np.nonzero(p)[0].tolist(), 2)
    }


def ordered_pair_statistic(drawn, exact):
    counts = {pair: 0 for pair in exact}
    for cols in drawn:
        counts[tuple(cols.tolist())] += 1
    cells = sorted(exact)
    return chi_square([counts[c] for c in cells], [ROWS * exact[c] for c in cells])


class TestRace:
    WEIGHTS = np.array([0.1, 0.2, 0.3, 0.4, 0.0])

    def test_ordered_pairs_match_exact_without_replacement_law(self):
        drawn = sample_rows_without_replacement(
            np.tile(self.WEIGHTS, (ROWS, 1)), np.full(ROWS, 2), keys(ROWS, 1)
        )
        statistic, bound = ordered_pair_statistic(drawn, ordered_pair_probabilities(self.WEIGHTS))
        assert statistic < bound

    def test_unnormalised_weights_give_the_same_draws(self):
        probs = np.tile(self.WEIGHTS, (50, 1))
        a = sample_rows_without_replacement(probs, np.full(50, 3), keys(50))
        b = sample_rows_without_replacement(8 * probs, np.full(50, 3), keys(50))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_forbid_renormalises_over_the_rest(self):
        drawn = sample_rows_without_replacement(
            np.tile(self.WEIGHTS, (ROWS, 1)), np.full(ROWS, 2), keys(ROWS, 2),
            forbid=np.full(ROWS, 3),
        )
        exact = ordered_pair_probabilities(np.where(np.arange(5) == 3, 0.0, self.WEIGHTS))
        statistic, bound = ordered_pair_statistic(drawn, exact)
        assert statistic < bound

    def test_allowed_mask_renormalises_over_the_rest(self):
        allowed = np.array([True, False, True, True, True])
        drawn = sample_rows_without_replacement(
            np.tile(self.WEIGHTS, (ROWS, 1)), np.full(ROWS, 2), keys(ROWS, 3),
            allowed=np.tile(allowed, (ROWS, 1)),
        )
        exact = ordered_pair_probabilities(np.where(allowed, self.WEIGHTS, 0.0))
        statistic, bound = ordered_pair_statistic(drawn, exact)
        assert statistic < bound

    def test_degenerate_rows_are_uniform_over_usable_columns(self):
        allowed = np.array([True, True, False, True])
        drawn = sample_rows_without_replacement(
            np.zeros((ROWS, 4)), np.full(ROWS, 2), keys(ROWS, 4),
            allowed=np.tile(allowed, (ROWS, 1)),
        )
        exact = ordered_pair_probabilities(allowed.astype(np.float64))
        statistic, bound = ordered_pair_statistic(drawn, exact)
        assert statistic < bound

    def test_a_row_draw_ignores_the_other_rows(self):
        rng = np.random.default_rng(0)
        probs = rng.random((40, 30))
        row_keys = keys(40, 5)
        together = sample_rows_without_replacement(probs, np.arange(40) % 7, row_keys)
        for row in range(40):
            alone = sample_rows_without_replacement(
                probs[row : row + 1], np.array([row % 7]), row_keys[row : row + 1]
            )[0]
            assert np.array_equal(alone, together[row])


class TestRepeats:
    def test_repeats_are_proportional_to_weights(self):
        weights = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        drawn = [np.array([4, 2, 1, 3])]
        picks = repeats(weights, drawn, np.array([ROWS]), keys(1, 6))[0]
        counts = np.bincount(picks, minlength=5)
        assert counts[0] == 0
        statistic, bound = chi_square(counts[1:], ROWS * weights[0, 1:] / 10.0)
        assert statistic < bound

    def test_zero_weights_repeat_uniformly(self):
        picks = repeats(
            np.zeros((1, 3)), [np.array([2, 0])], np.array([ROWS]), keys(1, 7)
        )[0]
        counts = np.bincount(picks, minlength=3)
        assert counts[1] == 0
        statistic, bound = chi_square(counts[[0, 2]], [ROWS / 2, ROWS / 2])
        assert statistic < bound

    def test_rows_without_extra_get_no_repeats(self):
        out = repeats(
            np.ones((2, 3)), [np.array([0, 1]), np.array([], dtype=np.int64)],
            np.array([0, 0]), keys(2),
        )
        assert [r.size for r in out] == [0, 0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_per_row_oracle(self, dtype):
        # Mixed draw sizes, all-zero rows, rows without repeats and one row
        # wide enough to split the vectorised search into several blocks.
        rng = np.random.default_rng(3)
        rows, n = 300, 40
        weights = (rng.random((rows, n)) ** 4).astype(dtype)
        weights[::7] = 0
        weights[:, ::5] = 0
        row_keys = keys(rows, 12)
        order, counts = race_order(weights, rng.integers(0, 12, rows), row_keys)
        extra = np.where(counts > 0, rng.integers(0, 30, rows), 0)
        assert counts[1] > 0
        extra[1] = 8000
        padded = repeat_columns(weights, order, counts, extra, row_keys)
        drawn = sample_rows_without_replacement(weights, counts, row_keys)
        expected = sample_repeats(weights, drawn, extra, row_keys)
        assert padded.shape == (rows, extra.max())
        for row in range(rows):
            assert np.array_equal(padded[row, : extra[row]], expected[row])


class TestCandidateDraws:
    @pytest.fixture(scope="class")
    def engine(self):
        # Node 0 is a hub with 20 distinct partners; node 21 never sends.
        src = [0] * 20 + [1, 2, 22, 23]
        dst = list(range(1, 21)) + [2, 3, 0, 1]
        hub = TemporalGraph(25, src, dst, [0] * 24, num_timestamps=1)
        config = fast_config(epochs=1, num_initial_nodes=4, candidate_limit=5)
        return TGAEGenerator(config).fit(hub).engine()

    def test_negatives_are_uniform_over_the_universe(self, engine):
        centers = np.tile([21, 0], (ROWS // 5, 1))
        cand = engine.candidate_batch(centers, keys(ROWS // 5, 8))
        counts = np.bincount(cand.reshape(-1), minlength=25)
        statistic, bound = chi_square(counts, np.full(25, cand.size / 25))
        assert statistic < bound

    def test_hub_subsample_includes_every_partner_equally(self, engine):
        centers = np.tile([0, 0], (ROWS // 5, 1))
        cand = engine.candidate_batch(centers, keys(ROWS // 5, 9))
        assert all(np.unique(row).size == 5 for row in cand)
        assert np.isin(cand, np.arange(1, 21)).all()
        counts = np.bincount(cand.reshape(-1), minlength=21)[1:]
        # Inclusion counts are negatively correlated (5 distinct a row), so
        # the multinomial chi-square bound is conservative.
        statistic, bound = chi_square(counts, np.full(20, cand.size / 20))
        assert statistic < bound

    def test_padding_draws_distinct_fresh_ids(self, engine):
        # Node 21 has no partners and needs 12 distinct targets out of a
        # width-13 row: the pad stage tops it up with distinct ids.
        centers = np.tile([21, 0], (200, 1))
        cand, allowed = engine.candidates_with_mask(
            centers, keys(200, 10), min_distinct=np.full(200, 12)
        )
        assert cand.shape == (200, 13)
        assert (allowed.sum(axis=1) >= 12).all()
        for row, mask in zip(cand, allowed):
            assert np.unique(row[mask]).size == mask.sum()
            assert 21 not in row[mask]

    def test_rows_keep_their_own_width(self, engine):
        centers = np.array([[21, 0], [21, 0]])
        row_keys = keys(2, 11)
        wide, wide_allowed = engine.candidates_with_mask(
            centers, row_keys, min_distinct=np.array([12, 1])
        )
        narrow, narrow_allowed = engine.candidates_with_mask(
            centers[1:], row_keys[1:], min_distinct=np.array([1])
        )
        # The narrow row's live slots are the same in either call; the
        # trailing slots of the wide array hold its centre, never usable.
        assert np.array_equal(wide[1, :5], narrow[0])
        assert (wide[1, 5:] == 21).all() and not wide_allowed[1, 5:].any()
        assert np.array_equal(wide_allowed[1, :5], narrow_allowed[0])
