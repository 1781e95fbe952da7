"""Configuration for the TGAE model family.

One frozen dataclass collects every hyper-parameter of the paper's Sec. IV,
including the switches that define the four ablation variants of Sec. IV-F.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..errors import ConfigError

#: Sentinel for "no neighbour truncation" (the TGAE-t ablation variant).
NO_TRUNCATION: int = 1_000_000_000


@dataclass(frozen=True)
class TGAEConfig:
    """Hyper-parameters of the Temporal Graph Auto-Encoder.

    Attributes
    ----------
    radius:
        Ego-graph radius ``k`` = number of stacked TGAT layers.
    neighbor_threshold:
        Truncation ``th`` of Alg. 1.  Values ``<= 2`` degenerate ego-graphs
        into temporal random walks (the TGAE-g variant); use
        :data:`NO_TRUNCATION` for the TGAE-t variant.
    time_window:
        Temporal window ``t_N`` of Definition 3.
    embed_dim:
        Width of the node-identity input embedding (the paper's default node
        features are node identities, Sec. IV-B).
    hidden_dim:
        Width ``d_att`` of the TGAT hidden representations.
    latent_dim:
        Width of the variational latent ``Z``.
    num_heads:
        Attention heads ``h_tga`` (Eq. 3).
    time_dim:
        Width of the sinusoidal time encoding inside each TGAT layer.
    num_initial_nodes:
        ``n_s`` -- centre nodes sampled per training step (also the parallel
        batch size ``b`` of the bipartite computation graphs).
    uniform_initial_sampling:
        Replace the Eq. 2 degree-weighted initial sampling with uniform
        sampling (the TGAE-n variant).
    probabilistic:
        When ``False``, use the non-probabilistic decoder of Eq. 8/9
        (the TGAE-p variant): no sigma head, no KL term.
    decode_neighbors:
        Also reconstruct the adjacency rows of first-order neighbours during
        training (depth-2 of the recursive decoding of Alg. 2).
    candidate_limit:
        When positive, the decoder scores only a *candidate set* of roughly
        this many nodes per centre (observed neighbours + uniform negatives)
        instead of the full node universe -- a sampled-softmax approximation
        that removes the O(n) decoder cost per row.  This implements the
        paper's future-work direction of scaling learning-based simulation
        to very large node universes.  ``0`` (default) keeps the exact dense
        decoder of Alg. 2.
    packed_batches:
        Selects the *training* encoder layout, the ``merge`` parameter of
        :meth:`repro.graph.EgoTile.packed` (``merge=not packed_batches``).
        When ``True`` (default), each ego-graph of a minibatch gets its own
        tables -- one vectorised forward per batch of temporal
        nodes, each ego-graph encoded independently exactly as in the
        per-node path.  When ``False``, all ego-graphs share one table per
        level: the merged k-bipartite layout of Fig. 4 (cross-ego node
        deduplication).  Inference (``generate``, ``score_topk``, dense
        score rows) always encodes one table per ego: the merged
        layout depends on the batch by design -- deduplication moves a
        radius-2 embedding by ~0.05 between partitions -- so a merged
        inference embedding would depend on which other keys shared its
        encode block, and cache-on would no longer equal cache-off.
    workers:
        Worker count for the sharded generation engine
        (:mod:`repro.core.parallel`).  ``1`` (default) runs shards as a
        plain sequential loop; higher values fan shards out over a pool.
        Output is bit-identical for every worker count because every
        generation draw is keyed by its row, never by its shard.
    parallel_backend:
        ``"process"`` (default; right for CPU-bound NumPy forwards) or
        ``"thread"``.  The process pool degrades to threads automatically
        where process pools are unavailable.
    train_shard_size:
        Centre rows per *training* shard: each epoch's ``n_s`` minibatch is
        partitioned into shards of this many ego-graphs, every shard owns a
        spawned seed-sequence child, and shards run forward+backward
        independently (on the worker pool when ``workers > 1``) before
        their gradients are merged in shard order into one Adam step.
        ``None`` (default) uses ``ceil(num_initial_nodes / 4)``.  The
        partitioning never depends on ``workers``, so training is
        bit-identical for every worker count and backend.
    max_shard_retries:
        How many times a persistent worker pool re-dispatches one shard
        that failed with a transient error (``OSError``, pickling) or a
        worker crash before degrading one rung down the dispatch ladder
        (shm -> thread -> sequential).  Retried shards are
        bit-identical -- shards are pure functions of (task, seed child,
        weights).  ``0`` disables in-rung retries.
    shard_timeout:
        Per-shard wall-clock budget in seconds for pooled dispatch;
        a shard still running past it is counted a straggler and
        re-dispatched (the abandoned original, should it finish, is
        bit-compared against its replacement).  ``None`` (default)
        disables timeouts.
    dtype:
        Floating-point policy for every model tensor: parameters,
        activations, losses, and the shared-memory parameter/feature
        segments.  ``"float32"`` (the production default) halves memory
        bandwidth on the attention/decoder hot paths and the shm dispatch
        footprint; ``"float64"`` is the golden/repro path whose outputs are
        pinned bit-exactly by the GOLDEN_DENSE fingerprints.  The two
        policies agree within tolerance (losses, generated-graph metrics,
        ``score_topk`` rankings -- see ``tests/test_dtype_equivalence.py``);
        integer index arrays and the engine's internal float64 sampling
        scratch are unaffected.
    embed_cache:
        Versioned inference embedding cache (default ``True``): encoder
        embeddings of temporal nodes are cached per ``(u, t)`` across
        ``generate``/``score_topk`` calls, keyed by weights/graph
        fingerprints, so repeat inference against an unchanged fitted
        model is decode-only.  Outputs are bitwise identical with the
        cache on or off (see :mod:`repro.core.embed_cache`); ``False``
        re-encodes every call (lower resident memory, no cross-call
        state).
    checkpoint_attention:
        Activation checkpointing for training: the TGAT layers free their
        per-edge activations (the O(batch * ego^2) tensors that dominate
        training peak memory) after the forward pass and recompute them
        in backward.  Exact -- loss trajectories and gradients are
        bit-identical to the plain path -- at a ~30% training-compute
        overhead.  Inference is unaffected.
    epochs, learning_rate, kl_weight, grad_clip:
        Optimisation settings for Eq. 7.
    seed:
        Seed controlling parameter init and sampling during training.
        Component streams are derived from it through the named
        seed-sequence registry (:mod:`repro.rng`), never by adding ad-hoc
        integer offsets.
    """

    radius: int = 2
    neighbor_threshold: int = 20
    time_window: int = 2
    embed_dim: int = 32
    hidden_dim: int = 32
    latent_dim: int = 16
    num_heads: int = 2
    time_dim: int = 8
    num_initial_nodes: int = 64
    uniform_initial_sampling: bool = False
    probabilistic: bool = True
    decode_neighbors: bool = True
    candidate_limit: int = 0
    packed_batches: bool = True
    workers: int = 1
    parallel_backend: str = "process"
    train_shard_size: Optional[int] = None
    max_shard_retries: int = 2
    shard_timeout: Optional[float] = None
    embed_cache: bool = True
    checkpoint_attention: bool = False
    dtype: str = "float32"
    epochs: int = 30
    learning_rate: float = 5e-3
    kl_weight: float = 1e-3
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")
        if self.neighbor_threshold < 1:
            raise ConfigError("neighbor_threshold must be >= 1")
        if self.time_window < 0:
            raise ConfigError("time_window must be >= 0")
        for field_name in ("embed_dim", "hidden_dim", "latent_dim", "num_heads",
                           "num_initial_nodes", "epochs"):
            if getattr(self, field_name) < 1:
                raise ConfigError(f"{field_name} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.kl_weight < 0:
            raise ConfigError("kl_weight must be non-negative")
        if self.candidate_limit < 0:
            raise ConfigError("candidate_limit must be >= 0 (0 = dense decoder)")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.train_shard_size is not None and self.train_shard_size < 1:
            raise ConfigError(
                f"train_shard_size must be >= 1 when set, got {self.train_shard_size}"
            )
        if self.max_shard_retries < 0:
            raise ConfigError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigError(
                f"shard_timeout must be positive when set, got {self.shard_timeout}"
            )
        if self.parallel_backend not in ("process", "thread"):
            raise ConfigError(
                "parallel_backend must be 'process' or 'thread', "
                f"got {self.parallel_backend!r}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The policy dtype as a ``numpy.dtype``."""
        return np.dtype(self.dtype)

    # Convenience constructors for the ablation variants (Sec. IV-F).
    def as_random_walk_variant(self) -> "TGAEConfig":
        """TGAE-g: chain-shaped ego-graphs (threshold below 2)."""
        return replace(self, neighbor_threshold=1)

    def as_no_truncation_variant(self) -> "TGAEConfig":
        """TGAE-t: disable neighbour truncation."""
        return replace(self, neighbor_threshold=NO_TRUNCATION)

    def as_uniform_sampling_variant(self) -> "TGAEConfig":
        """TGAE-n: uniform initial node sampling."""
        return replace(self, uniform_initial_sampling=True)

    def as_non_probabilistic_variant(self) -> "TGAEConfig":
        """TGAE-p: deterministic decoder, no KL."""
        return replace(self, probabilistic=False)


def fast_config(**overrides) -> TGAEConfig:
    """A small configuration suitable for tests and CI-scale benchmarks.

    Unlike :class:`TGAEConfig` (production default ``float32``), this test
    profile defaults to the ``float64`` golden path so the pinned fingerprint
    corpus stays bit-stable.  Set ``REPRO_DTYPE=float32`` to sweep the whole
    tier-1 suite under the production policy (a dedicated CI job does).
    """
    defaults = dict(
        radius=2,
        neighbor_threshold=10,
        time_window=2,
        embed_dim=16,
        hidden_dim=16,
        latent_dim=8,
        num_heads=2,
        time_dim=4,
        num_initial_nodes=32,
        epochs=8,
        learning_rate=1e-2,
        dtype=os.environ.get("REPRO_DTYPE", "float64"),
        # REPRO_EMBED_CACHE=off sweeps the tier-1 suite over the uncached
        # inference path (a dedicated CI matrix entry does), mirroring the
        # REPRO_DTYPE policy sweep.
        embed_cache=os.environ.get("REPRO_EMBED_CACHE", "on") != "off",
    )
    defaults.update(overrides)
    return TGAEConfig(**defaults)
