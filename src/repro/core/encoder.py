"""TGAE encoder: stacked temporal graph attention over bipartite batches.

Implements Sec. IV-C.  Node input features default to learned node-identity
embeddings plus a timestamp embedding; ``k`` TGAT layers then push messages
from the hop-``k`` periphery of the ego-graphs down to the centre
nodes through the k-bipartite computation graphs (Fig. 4), producing one
hidden vector ``h_{u^t}`` per centre temporal node (Eq. 3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, checkpoint, is_grad_enabled
from ..errors import ConfigError, ShapeError
from ..graph.bipartite import PackedEgoBatch
from ..nn import (
    Embedding,
    Linear,
    Module,
    ModuleList,
    TemporalGraphAttention,
    embedding_lookup,
)
from .config import TGAEConfig


def check_features(
    features: np.ndarray,
    num_nodes: int,
    num_timestamps: int,
    feature_dim: Optional[int] = None,
) -> None:
    """Raise :class:`~repro.errors.ShapeError` unless ``features`` fits the graph.

    A feature matrix is ``(num_nodes, d)`` (static) or ``(num_timestamps,
    num_nodes, d)`` (per snapshot) with ``d >= 1``; ``feature_dim`` pins
    ``d`` when given.
    """
    if features.ndim not in (2, 3) or features.shape[-1] == 0:
        raise ShapeError(
            f"features must be 2-D or 3-D with d >= 1 columns, got shape {features.shape}"
        )
    leading = (num_nodes,) if features.ndim == 2 else (num_timestamps, num_nodes)
    expected = leading + (features.shape[-1] if feature_dim is None else feature_dim,)
    if features.shape != expected:
        raise ShapeError(f"features shape {features.shape} != expected {expected}")


class TGAEEncoder(Module):
    """Encode centre temporal nodes of a :class:`PackedEgoBatch`.

    Parameters
    ----------
    num_nodes, num_timestamps:
        Size of the node universe / timestamp range of the observed graph;
        the encoder learns one identity embedding per node and per timestamp.
    config:
        Model hyper-parameters.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        num_nodes: int,
        num_timestamps: int,
        config: TGAEConfig,
        rng: Optional[np.random.Generator] = None,
        feature_dim: int = 0,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.config = config
        self.num_nodes = num_nodes
        self.num_timestamps = num_timestamps
        self.node_embedding = Embedding(num_nodes, config.embed_dim, rng=rng)
        self.time_embedding = Embedding(num_timestamps, config.embed_dim, rng=rng)
        self.input_proj = Linear(config.embed_dim, config.hidden_dim, rng=rng)
        # Optional external node features X (Sec. III: "topology structure
        # with/w.o. node features"); projected into the embedding space and
        # added to the identity features.
        self.feature_dim = feature_dim
        self.feature_proj = (
            Linear(feature_dim, config.embed_dim, rng=rng) if feature_dim > 0 else None
        )
        self._external_features: Optional[np.ndarray] = None
        self.layers = ModuleList(
            [
                TemporalGraphAttention(
                    in_features=config.hidden_dim,
                    out_features=config.hidden_dim,
                    num_heads=config.num_heads,
                    time_dim=config.time_dim,
                    rng=rng,
                    checkpoint=config.checkpoint_attention,
                )
                for _ in range(config.radius)
            ]
        )

    # ------------------------------------------------------------------
    def set_external_features(self, features: Optional[np.ndarray]) -> None:
        """Attach an external feature matrix.

        ``features`` is either ``(num_nodes, feature_dim)`` (static) or
        ``(num_timestamps, num_nodes, feature_dim)`` (the per-snapshot
        ``X^{(t)}`` of Alg. 1).
        """
        if features is None:
            self._external_features = None
            return
        if self.feature_proj is None:
            raise ConfigError("encoder was built without feature support (feature_dim=0)")
        features = np.asarray(features, dtype=self.config.np_dtype)
        check_features(features, self.num_nodes, self.num_timestamps, self.feature_dim)
        self._external_features = features

    def node_features(self, temporal_nodes: np.ndarray) -> Tensor:
        """Input features for ``(node_id, timestamp)`` rows (Sec. IV-B).

        The paper's default features are node identities; we add a timestamp
        embedding so occurrences of the same node at different times are
        distinguishable, which the snapshot-indexed feature matrix
        ``X^{(t)}`` of Alg. 1 provides in the original formulation.  When an
        external feature matrix is attached, its projection is added.

        ``temporal_nodes`` is ``(n, 2)``.
        """
        feat_w = self.feature_proj.weight if self.feature_proj is not None else None
        feat_b = self.feature_proj.bias if self.feature_proj is not None else None
        return self._features_impl(
            temporal_nodes,
            self.node_embedding.weight,
            self.time_embedding.weight,
            feat_w,
            feat_b,
        )

    # ------------------------------------------------------------------
    # Per-level input pipeline (checkpointable)
    # ------------------------------------------------------------------
    def _input_params(self) -> list:
        params = [
            self.node_embedding.weight,
            self.time_embedding.weight,
            self.input_proj.weight,
            self.input_proj.bias,
        ]
        if self.feature_proj is not None:
            params += [self.feature_proj.weight, self.feature_proj.bias]
        return params

    def _features_impl(
        self,
        temporal_nodes: np.ndarray,
        node_w: Tensor,
        time_w: Tensor,
        feat_w: Optional[Tensor] = None,
        feat_b: Optional[Tensor] = None,
    ) -> Tensor:
        """The Sec. IV-B feature computation on explicit parameter tensors.

        The single kernel behind both :meth:`node_features` (module
        parameters) and the checkpointed input pipeline (leaf copies), so
        the two can never drift apart.
        """
        ids = temporal_nodes[..., 0]
        times = temporal_nodes[..., 1]
        out = embedding_lookup(node_w, ids) + embedding_lookup(time_w, times)
        if self._external_features is not None and feat_w is not None:
            if self._external_features.ndim == 2:
                rows = self._external_features[ids]
            else:
                rows = self._external_features[times, ids]
            out = out + (Tensor(rows) @ feat_w + feat_b)
        return out

    def _input_impl(
        self,
        temporal_nodes: np.ndarray,
        node_w: Tensor,
        time_w: Tensor,
        proj_w: Tensor,
        proj_b: Tensor,
        feat_w: Optional[Tensor] = None,
        feat_b: Optional[Tensor] = None,
    ) -> Tensor:
        """``input_proj(node_features(...))`` as a pure function of its parameters."""
        out = self._features_impl(temporal_nodes, node_w, time_w, feat_w, feat_b)
        return out @ proj_w + proj_b

    def _level_input(self, temporal_nodes: np.ndarray) -> Tensor:
        """Projected input features of ``(u, t)`` rows (the batch's key table).

        With ``config.checkpoint_attention`` (and gradients recording), the
        whole pipeline -- two embedding gathers, the optional external
        feature projection, and ``input_proj`` -- becomes one
        recompute-in-backward unit, so only the final ``(rows, hidden)``
        tensor stays alive instead of the ~5 per-row intermediates.  Exact:
        same full-shape operations either way.
        """
        params = self._input_params()
        if (
            self.config.checkpoint_attention
            and is_grad_enabled()
            and any(p.requires_grad for p in params)
        ):
            return checkpoint(
                lambda *tensors: self._input_impl(temporal_nodes, *tensors), *params
            )
        return self._input_impl(temporal_nodes, *params)

    def _key_table(self, packed: PackedEgoBatch):
        """The batch's distinct ``(u, t)`` rows and each level's rows in them.

        Returns ``(key_nodes, rows)``: ``key_nodes`` is ``(K, 2)``, sorted,
        and ``packed.nodes[l][i]`` equals ``key_nodes[rows[l][i]]``.  Only
        the outermost level is deduplicated: by nesting, every inner table
        row is also an outermost row of its table, so the inner levels map
        by ``searchsorted``.
        """
        T = self.num_timestamps
        outer = packed.nodes[-1]
        distinct, outer_rows = np.unique(outer[:, 0] * T + outer[:, 1], return_inverse=True)
        rows = [distinct.searchsorted(inner[:, 0] * T + inner[:, 1]) for inner in packed.nodes[:-1]]
        return np.stack(np.divmod(distinct, T), axis=1), rows + [outer_rows]

    def forward(self, packed: PackedEgoBatch) -> Tensor:
        """Return hidden vectors for the centres, ``(num_centers, hidden)``.

        One TGAT layer is applied per bipartite level, from the outermost
        (hop ``k``) inward; level nesting guarantees every target also
        receives its own previous representation through its self-loop
        edge.  Each level's stacked tables and edges go to one flat layer
        call.  With one table per ego the result matches encoding each
        ego-graph on its own; the merged layout's shared table is read out
        at ``center_rows``.

        A row's input depends on its ``(u, t)`` alone, so the input
        pipeline runs once per distinct key of the batch
        (:meth:`_key_table`) and each level gathers its rows from that key
        table; the outermost layer takes the key table itself as its
        sources, so its per-head source projections also run once per key.
        Every product is row-invariant (:func:`~repro.autograd.row_matmul`),
        so the output is byte-equal to running the pipeline per row; the
        gradients differ from that only in summation order, as each key's
        rows are summed first (the backward of ``take_rows``).
        """
        radius = packed.radius
        key_nodes, rows = self._key_table(packed)
        current = key_input = self._level_input(key_nodes)
        for level in range(radius, 0, -1):
            edges = packed.levels[level - 1]
            current = self.layers[radius - level](
                h_src=current,
                h_dst=key_input.take_rows(rows[level - 1]),
                src_index=rows[radius][edges.src] if level == radius else edges.src,
                dst_index=edges.dst,
                delta_t=edges.delta_t,
            )
        if packed.tables == packed.num_centers:
            return current  # one table per ego: its level 0 is the centre
        return current.take_rows(packed.center_rows)
