"""Training-batch construction: Alg. 1 sampling + Fig. 4 layout + targets.

One :class:`TrainingBatch` bundles everything a TGAE optimisation step needs:
the sampled ego-graphs of ``n_s`` degree-weighted centre nodes, laid out as
k-bipartite computation graphs on demand, and the observed adjacency rows
those centres must reconstruct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..graph.bipartite import PackedEgoBatch, pack_ego_batch
from ..graph.ego_graph import (
    EgoTile,
    counter_hash,
    ego_keys,
    sample_ego_graph,
    sample_ego_tile,
    sample_initial_nodes,
)
from ..graph.temporal_graph import TemporalGraph
from ..rng import seed_sequence, stream
from .config import TGAEConfig
from .loss import adjacency_target_rows

#: ``pack_ego_batch``, ``sample_ego_graph`` and ``stream`` are no longer
#: called here (the tile sampler replaced them); they stay importable from
#: this module as re-exports.
__all__ = [
    "EgoGraphSampler",
    "TrainingBatch",
    "pack_ego_batch",
    "sample_ego_graph",
    "stream",
]


@dataclass
class TrainingBatch:
    """One mini-batch: a sampled ego tile + reconstruction targets.

    The sampled ego-graphs are stored as one :class:`EgoTile`;
    :meth:`computation_batch` lays them out for the encoder.

    ``candidates`` is populated only in sampled-softmax mode
    (``config.candidate_limit > 0``): a ``(batch, C)`` array of node ids the
    decoder scores instead of the full universe.
    """

    centers: np.ndarray
    target_rows: List[np.ndarray]
    tile: EgoTile
    candidates: Optional[np.ndarray] = None

    def computation_batch(self, packed: bool = True) -> PackedEgoBatch:
        """One table per ego (``packed``) or the merged Fig. 4 layout."""
        return self.tile.packed(merge=not packed)


class EgoGraphSampler:
    """Stateful sampler producing :class:`TrainingBatch` objects.

    Parameters
    ----------
    graph:
        The observed temporal graph.
    config:
        TGAE hyper-parameters (radius, threshold, window, ``n_s`` and the
        TGAE-n uniform-sampling switch).
    rng:
        Random generator driving initial-node and *training* neighbour
        sampling.  May be ``None`` for inference-only samplers:
        :meth:`inference_batch` keys its truncation draws off the named
        ``(seed, "tgae", "infer-ego")`` stream and never consumes it.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        config: TGAEConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.rng = rng
        self._infer_word: Optional[np.ndarray] = None

    def sample_centers(self, count: int) -> np.ndarray:
        """Draw centre temporal nodes per Eq. 2 (or uniformly for TGAE-n)."""
        return sample_initial_nodes(
            self.graph,
            count,
            self.rng,
            uniform=self.config.uniform_initial_sampling,
        )

    def batch_for_centers(
        self, centers: np.ndarray, target_rows: Optional[List[np.ndarray]] = None
    ) -> TrainingBatch:
        """Build the training batch (ego-graphs + targets) for explicit centres.

        The computation graphs are laid out by
        :meth:`TrainingBatch.computation_batch` in the layout the caller
        consumes.  ``target_rows`` may carry
        precomputed adjacency rows for the centres (the sharded trainer
        computes them once for the whole epoch batch); ``None`` derives them
        here.

        All centres form one tile.  Ego ``i``'s truncation key hashes its
        index in ``centers`` into one word drawn from :attr:`rng`, so a
        shard's ego-graphs depend only on its seed-sequence child -- the
        property ``workers=N`` and resume bit-identity rest on.
        """
        tile = self._tile(centers, ego_keys(self.rng, centers.shape[0]))
        targets = (
            list(target_rows)
            if target_rows is not None
            else adjacency_target_rows(
                self.graph.src, self.graph.dst, self.graph.t, centers
            )
        )
        candidates = None
        if self.config.candidate_limit > 0:
            candidates = self.build_candidates(centers, targets)
        return TrainingBatch(
            centers=centers, target_rows=targets, tile=tile, candidates=candidates
        )

    def build_candidates(
        self, centers: np.ndarray, target_rows: List[np.ndarray]
    ) -> np.ndarray:
        """Per-centre candidate sets for sampled-softmax decoding.

        Each row holds the centre's observed (positive) targets followed by
        uniform negative samples, padded/truncated to ``candidate_limit``.
        Positives always survive truncation so the reconstruction signal is
        never dropped.
        """
        limit = self.config.candidate_limit
        n = self.graph.num_nodes
        out = np.empty((centers.shape[0], limit), dtype=np.int64)
        for row, targets in enumerate(target_rows):
            positives = np.unique(np.asarray(targets, dtype=np.int64))[:limit]
            fill = limit - positives.size
            negatives = self.rng.integers(0, n, size=fill) if fill > 0 else np.array(
                [], dtype=np.int64
            )
            out[row, : positives.size] = positives
            out[row, positives.size :] = negatives
        return out

    def inference_batch(self, centers: np.ndarray) -> TrainingBatch:
        """Ego-graph batch for explicit centres, without training targets.

        Generation and score inspection only need the computation graphs, so
        this skips the adjacency-row and training-candidate assembly that
        :meth:`batch_for_centers` performs (the generation engine builds its
        own inference candidate sets from the partner CSR).

        Unlike training sampling, truncation keys do not come from
        :attr:`rng` (which is not consumed): each centre's key hashes its
        ``(u, t)`` into one 64-bit word of the named ``(seed, "tgae",
        "infer-ego")`` stream, derived once per sampler (the engine builds
        one per :meth:`~repro.core.engine.GenerationEngine.warm_rows`
        call).  The inference ego-graph of a temporal node
        — and hence its encoder embedding — is then a pure function of
        ``(weights, graph, config)``, independent of which call, chunk or
        tile requested it.  That purity, with the row-invariant encoder
        products, is what the inference embedding cache
        (:mod:`repro.core.embed_cache`) rests on.  All centres form one
        tile; each must lie in
        ``[0, n) x [0, T)`` (:class:`~repro.errors.GraphFormatError`
        otherwise).
        """
        centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
        if self._infer_word is None:
            self._infer_word = seed_sequence(
                self.config.seed, "tgae", "infer-ego"
            ).generate_state(1, np.uint64)
        keys = counter_hash(self._infer_word, centers[:, 0], centers[:, 1])
        return TrainingBatch(centers=centers, target_rows=[], tile=self._tile(centers, keys))

    def _tile(self, centers: np.ndarray, keys: np.ndarray) -> EgoTile:
        config = self.config
        return sample_ego_tile(
            self.graph,
            centers,
            keys,
            radius=config.radius,
            threshold=config.neighbor_threshold,
            time_window=config.time_window,
        )

    def next_batch(self) -> TrainingBatch:
        """Sample a fresh training batch of ``n_s`` centres."""
        centers = self.sample_centers(self.config.num_initial_nodes)
        return self.batch_for_centers(centers)
