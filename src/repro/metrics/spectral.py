"""Spectral statistics for snapshot comparison.

Graph-generation papers since GraphRNN routinely complement count-based
statistics with spectral ones, because eigenvalue distributions summarise
global connectivity patterns that wedge/claw/triangle counts miss (community
structure, expansion, bipartiteness).  This module provides:

* the top-``k`` adjacency spectrum and the normalised-Laplacian spectrum of
  a snapshot (undirected simple view, as for Table III);
* the **spectral gap** (algebraic connectivity proxy);
* an **L1 spectral distance** between two snapshots' Laplacian spectra,
  usable as another ``f_avg``/``f_med`` comparison channel.

Dense eigendecompositions are avoided: spectra come from sparse Lanczos
(:func:`scipy.sparse.linalg.eigsh`) with a dense fallback for tiny or
ill-conditioned inputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graph.snapshot import Snapshot

if TYPE_CHECKING:
    import scipy.sparse as sp


def _symmetric_adjacency(snapshot: Snapshot) -> sp.csr_matrix:
    # The snapshot's cached undirected CSR is already float64; copy=False
    # keeps this a view of the shared provider rather than a rebuild.
    return snapshot.undirected_adjacency().astype(np.float64, copy=False)


def adjacency_spectrum(snapshot: Snapshot, k: int = 8) -> np.ndarray:
    """Largest-magnitude ``k`` adjacency eigenvalues, descending by value.

    Returns fewer than ``k`` values when the graph is smaller; an edgeless
    snapshot yields an empty array.
    """
    adj = _symmetric_adjacency(snapshot)
    if adj.nnz == 0:
        return np.empty(0, dtype=np.float64)
    n = adj.shape[0]
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return np.empty(0, dtype=np.float64)
    if n <= 64 or k_eff >= n - 1:
        values = np.linalg.eigvalsh(adj.toarray())
    else:
        import scipy.sparse.linalg as spla

        try:
            values = spla.eigsh(adj, k=k_eff, which="LM", return_eigenvectors=False)
        except (spla.ArpackNoConvergence, spla.ArpackError):
            values = np.linalg.eigvalsh(adj.toarray())
    values = np.sort(values)[::-1]
    return values[:k_eff]


def laplacian_spectrum(snapshot: Snapshot, k: int = 8) -> np.ndarray:
    """Smallest ``k`` eigenvalues of the symmetric normalised Laplacian.

    The normalised Laplacian ``L = I - D^{-1/2} A D^{-1/2}`` has spectrum in
    ``[0, 2]``; the multiplicity of eigenvalue 0 equals the number of
    connected components among active nodes.  Isolated (inactive) nodes are
    dropped first so the spectrum reflects the realised graph.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    adj = _symmetric_adjacency(snapshot)
    if adj.nnz == 0:
        return np.empty(0, dtype=np.float64)
    degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
    active = degrees > 0
    adj = adj[active][:, active]
    degrees = degrees[active]
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    norm = adj.multiply(d_inv_sqrt[:, None]).multiply(d_inv_sqrt[None, :])
    lap = sp.identity(adj.shape[0], format="csr") - norm.tocsr()
    n = lap.shape[0]
    k_eff = min(k, n)
    if n <= 64 or k_eff >= n - 1:
        values = np.linalg.eigvalsh(lap.toarray())
    else:
        try:
            values = spla.eigsh(lap, k=k_eff, which="SM", return_eigenvectors=False)
        except (spla.ArpackNoConvergence, spla.ArpackError):
            values = np.linalg.eigvalsh(lap.toarray())
    values = np.clip(np.sort(values), 0.0, 2.0)
    return values[:k_eff]


def spectral_gap(snapshot: Snapshot) -> float:
    """Second-smallest normalised-Laplacian eigenvalue (Fiedler value).

    Zero when the active subgraph is disconnected; larger values indicate
    better expansion.  Edgeless or single-edge-pair snapshots return 0.0.
    """
    spectrum = laplacian_spectrum(snapshot, k=2)
    if spectrum.size < 2:
        return 0.0
    return float(spectrum[1])


def spectral_distance(observed: Snapshot, generated: Snapshot, k: int = 8) -> float:
    """Mean absolute difference of the two snapshots' Laplacian spectra.

    Spectra are truncated/padded (with the neutral value 1.0, the spectrum
    mean of a random graph) to a common length ``k``.  Returns 0.0 when both
    snapshots are edgeless.
    """
    spec_obs = laplacian_spectrum(observed, k=k)
    spec_gen = laplacian_spectrum(generated, k=k)
    if spec_obs.size == 0 and spec_gen.size == 0:
        return 0.0
    padded_obs = np.full(k, 1.0)
    padded_gen = np.full(k, 1.0)
    padded_obs[: min(k, spec_obs.size)] = spec_obs[:k]
    padded_gen[: min(k, spec_gen.size)] = spec_gen[:k]
    return float(np.abs(padded_obs - padded_gen).mean())
