"""Downstream-utility evaluation: is the synthetic graph *useful*?

The paper's introduction motivates graph simulation with data-sharing
scenarios ("tackling the inaccessibility of the whole real-life graphs"):
a consumer receives the synthetic graph instead of the private real one and
trains their analysis on it.  The practical test of a generator, beyond
statistic matching, is therefore **train-on-synthetic / test-on-real**: fit
a simple temporal link predictor on the generated graph, evaluate it on the
real graph's final snapshot, and compare against the same predictor trained
on the real graph's history.

The predictor is deliberately simple and training-free (scored heuristics
over the cumulative training snapshot), so the comparison isolates the
*data* quality rather than model tuning:

* ``common_neighbors`` -- count of shared partners;
* ``adamic_adar`` -- degree-discounted shared partners;
* ``preferential_attachment`` -- degree product.

:func:`downstream_link_prediction_auc` returns the ROC-AUC of predicting the
held-out last-timestamp edges against sampled non-edges.  The utility gap
``auc(real-trained) - auc(synthetic-trained)`` is the headline number: a
perfect generator has gap 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..errors import GraphFormatError
from ..graph.snapshot import snapshot_at
from ..graph.temporal_graph import TemporalGraph

if TYPE_CHECKING:
    import scipy.sparse as sp


def _training_adjacency(graph: TemporalGraph, holdout_t: int) -> sp.csr_matrix:
    """Undirected binary adjacency of everything strictly before ``holdout_t``."""
    import scipy.sparse as sp

    mask = graph.t < holdout_t
    src, dst = graph.src[mask], graph.dst[mask]
    data = np.ones(src.size, dtype=np.float64)
    adj = sp.coo_matrix(
        (data, (src, dst)), shape=(graph.num_nodes, graph.num_nodes)
    ).tocsr()
    adj = adj.maximum(adj.T)
    adj.data = np.minimum(adj.data, 1.0)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def score_pairs(
    adj: sp.csr_matrix,
    pairs: np.ndarray,
    scorer: str = "common_neighbors",
) -> np.ndarray:
    """Heuristic link scores for an ``(k, 2)`` array of node pairs."""
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphFormatError(f"pairs must be (k, 2), got {pairs.shape}")
    degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
    if scorer == "common_neighbors":
        cn = adj[pairs[:, 0]].multiply(adj[pairs[:, 1]])
        return np.asarray(cn.sum(axis=1)).reshape(-1)
    if scorer == "adamic_adar":
        inv_log_deg = 1.0 / np.log(np.maximum(degrees, 2.0))
        weighted = adj.multiply(inv_log_deg[None, :]).tocsr()
        aa = adj[pairs[:, 0]].multiply(weighted[pairs[:, 1]])
        return np.asarray(aa.sum(axis=1)).reshape(-1)
    if scorer == "preferential_attachment":
        return degrees[pairs[:, 0]] * degrees[pairs[:, 1]]
    raise GraphFormatError(
        f"unknown scorer {scorer!r}; options: common_neighbors, adamic_adar, "
        f"preferential_attachment"
    )


def roc_auc(scores_pos: np.ndarray, scores_neg: np.ndarray) -> float:
    """Rank-based ROC-AUC (probability a positive outranks a negative).

    Ties contribute half, which is the Mann-Whitney convention.  Returns 0.5
    when either side is empty (no information).
    """
    pos = np.asarray(scores_pos, dtype=np.float64).reshape(-1)
    neg = np.asarray(scores_neg, dtype=np.float64).reshape(-1)
    if pos.size == 0 or neg.size == 0:
        return 0.5
    combined = np.concatenate([pos, neg])
    order = combined.argsort(kind="mergesort")
    ranks = np.empty_like(combined)
    # Average ranks for ties.
    sorted_vals = combined[order]
    rank_values = np.arange(1, combined.size + 1, dtype=np.float64)
    boundaries = np.concatenate(
        [[0], np.nonzero(np.diff(sorted_vals))[0] + 1, [combined.size]]
    )
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        rank_values[lo:hi] = rank_values[lo:hi].mean()
    ranks[order] = rank_values
    rank_sum_pos = ranks[: pos.size].sum()
    u_stat = rank_sum_pos - pos.size * (pos.size + 1) / 2.0
    return float(u_stat / (pos.size * neg.size))


def _holdout_positives(graph: TemporalGraph, holdout_t: int) -> np.ndarray:
    """Distinct undirected node pairs that gain an edge at ``holdout_t``."""
    snap = snapshot_at(graph, holdout_t)
    if snap.num_edges == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(snap.src, snap.dst)
    hi = np.maximum(snap.src, snap.dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs


def _sample_negatives(
    num_nodes: int,
    forbidden: set,
    count: int,
    rng: np.random.Generator,
    max_tries: int = 100,
) -> np.ndarray:
    """Sample ``count`` distinct non-edge pairs not in ``forbidden``."""
    out = []
    seen = set()
    for _ in range(max_tries):
        cand = rng.integers(0, num_nodes, size=(count * 2, 2))
        for u, v in cand:
            if u == v:
                continue
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if key in forbidden or key in seen:
                continue
            seen.add(key)
            out.append(key)
            if len(out) >= count:
                return np.array(out, dtype=np.int64)
    return (
        np.array(out, dtype=np.int64)
        if out
        else np.empty((0, 2), dtype=np.int64)
    )


def downstream_link_prediction_auc(
    train_graph: TemporalGraph,
    eval_graph: TemporalGraph,
    holdout_t: Optional[int] = None,
    scorer: str = "common_neighbors",
    negatives_per_positive: int = 1,
    seed: int = 0,
) -> float:
    """AUC of a heuristic link predictor trained on one graph, tested on another.

    Parameters
    ----------
    train_graph:
        Supplies the history (edges before ``holdout_t``) the predictor
        scores from -- pass the *synthetic* graph for the
        train-on-synthetic/test-on-real protocol, or the real graph for the
        oracle upper bound.
    eval_graph:
        Supplies the held-out positives: the (undirected, distinct) edges of
        its snapshot at ``holdout_t``.
    holdout_t:
        Timestamp to hold out; defaults to the last one.
    scorer:
        One of the heuristics of :func:`score_pairs`.
    negatives_per_positive:
        Negative sampling ratio.
    """
    if train_graph.num_nodes != eval_graph.num_nodes:
        raise GraphFormatError(
            f"train/eval graphs must share a node universe "
            f"({train_graph.num_nodes} vs {eval_graph.num_nodes})"
        )
    if holdout_t is None:
        holdout_t = eval_graph.num_timestamps - 1
    if not 0 < holdout_t < eval_graph.num_timestamps:
        raise GraphFormatError(
            f"holdout_t must be in (0, {eval_graph.num_timestamps}), got {holdout_t}"
        )
    rng = np.random.default_rng(seed)
    positives = _holdout_positives(eval_graph, holdout_t)
    if positives.size == 0:
        return 0.5
    adj = _training_adjacency(train_graph, holdout_t)
    known = set(
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v in zip(*adj.nonzero())
    )
    forbidden = known | set((int(a), int(b)) for a, b in positives)
    negatives = _sample_negatives(
        eval_graph.num_nodes,
        forbidden,
        positives.shape[0] * negatives_per_positive,
        rng,
    )
    if negatives.size == 0:
        return 0.5
    scores_pos = score_pairs(adj, positives, scorer=scorer)
    scores_neg = score_pairs(adj, negatives, scorer=scorer)
    return roc_auc(scores_pos, scores_neg)


def utility_report(
    observed: TemporalGraph,
    generated: TemporalGraph,
    holdout_t: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Train-on-real vs train-on-synthetic AUC for every scorer.

    Returns ``{scorer: {"real": auc, "synthetic": auc, "gap": real - synthetic}}``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for scorer in ("common_neighbors", "adamic_adar", "preferential_attachment"):
        real = downstream_link_prediction_auc(
            observed, observed, holdout_t=holdout_t, scorer=scorer, seed=seed
        )
        synthetic = downstream_link_prediction_auc(
            generated, observed, holdout_t=holdout_t, scorer=scorer, seed=seed
        )
        out[scorer] = {
            "real": real,
            "synthetic": synthetic,
            "gap": real - synthetic,
        }
    return out
