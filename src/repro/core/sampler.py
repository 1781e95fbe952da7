"""Training-batch construction: Alg. 1 sampling + Fig. 4 merging + targets.

One :class:`TrainingBatch` bundles everything a TGAE optimisation step needs:
the merged bipartite computation graphs for ``n_s`` degree-weighted centre
nodes and the observed adjacency rows those centres must reconstruct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..graph.bipartite import (
    BipartiteBatch,
    PackedEgoBatch,
    build_bipartite_batch,
    pack_ego_batch,
)
from ..graph.ego_graph import (
    EgoGraph,
    ego_graph_batch,
    sample_ego_graph,
    sample_initial_nodes,
)
from ..graph.temporal_graph import TemporalGraph
from ..rng import stream
from .config import TGAEConfig
from .loss import adjacency_target_rows


@dataclass
class TrainingBatch:
    """One mini-batch: sampled ego-graphs + reconstruction targets.

    The sampled ego-graphs are stored raw; the two computation-graph views
    are built lazily and cached on first access:

    * :attr:`bipartite` -- the merged/deduplicated k-bipartite layout of
      Fig. 4 (cross-ego node sharing).
    * :attr:`packed` -- the padded ego-parallel layout consumed by the
      vectorised batched hot path.

    ``candidates`` is populated only in sampled-softmax mode
    (``config.candidate_limit > 0``): a ``(batch, C)`` array of node ids the
    decoder scores instead of the full universe.
    """

    centers: np.ndarray
    target_rows: List[np.ndarray]
    egos: List[EgoGraph] = field(default_factory=list)
    candidates: Optional[np.ndarray] = None
    _bipartite: Optional[BipartiteBatch] = field(default=None, repr=False)
    _packed: Optional[PackedEgoBatch] = field(default=None, repr=False)

    @property
    def bipartite(self) -> BipartiteBatch:
        """Merged k-bipartite view (built on first access)."""
        if self._bipartite is None:
            self._bipartite = build_bipartite_batch(self.egos)
        return self._bipartite

    @property
    def packed(self) -> PackedEgoBatch:
        """Padded ego-parallel view (built on first access)."""
        if self._packed is None:
            self._packed = pack_ego_batch(self.egos)
        return self._packed

    def computation_batch(
        self, packed: bool = True
    ) -> Union[BipartiteBatch, PackedEgoBatch]:
        """The computation-graph view selected by ``packed``."""
        return self.packed if packed else self.bipartite


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
        :meth:`inference_batch` draws from named per-centre streams and
        never consumes it.
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

        The computation-graph views (merged bipartite / padded packed) are
        materialised lazily by :class:`TrainingBatch`, so callers only pay
        for the layout they actually consume.  ``target_rows`` may carry
        precomputed adjacency rows for the centres (the sharded trainer
        computes them once for the whole epoch batch); ``None`` derives them
        here.
        """
        egos = ego_graph_batch(
            self.graph,
            centers,
            radius=self.config.radius,
            threshold=self.config.neighbor_threshold,
            time_window=self.config.time_window,
            rng=self.rng,
        )
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
            centers=centers, target_rows=targets, egos=egos,
            candidates=candidates,
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

        Unlike training sampling, each centre's truncation draws come from
        its own *named* stream ``(seed, "tgae", "infer-ego", u, t)`` rather
        than from :attr:`rng` (which is not consumed): the inference
        ego-graph of a temporal node — and hence its encoder embedding —
        is a pure function of ``(weights, graph, config)``, independent of
        which call, chunk or batch requested it.  That purity is what the
        inference embedding cache (:mod:`repro.core.embed_cache`) and its
        canonical encode groups rest on.
        """
        centers = np.asarray(centers, dtype=np.int64)
        config = self.config
        egos = [
            sample_ego_graph(
                self.graph,
                (int(node), int(timestamp)),
                radius=config.radius,
                threshold=config.neighbor_threshold,
                time_window=config.time_window,
                rng=stream(config.seed, "tgae", "infer-ego", int(node), int(timestamp)),
            )
            for node, timestamp in centers
        ]
        return TrainingBatch(centers=centers, target_rows=[], egos=egos)

    def next_batch(self) -> TrainingBatch:
        """Sample a fresh training batch of ``n_s`` centres."""
        centers = self.sample_centers(self.config.num_initial_nodes)
        return self.batch_for_centers(centers)
