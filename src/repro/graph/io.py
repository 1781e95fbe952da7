"""Plain-text persistence for temporal graphs.

The on-disk format is the de-facto standard for public temporal network
datasets (SNAP et al.): one ``src dst timestamp`` triple per line, whitespace
separated, ``#``-prefixed comment lines ignored.  Loading re-indexes node ids
and timestamps to dense 0-based ranges, which is what every public loader for
these datasets does before modelling.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from .temporal_graph import TemporalGraph

PathLike = Union[str, "os.PathLike[str]"]


def save_edge_list(graph: TemporalGraph, path: PathLike, header: bool = True) -> None:
    """Write a temporal graph as a ``src dst t`` edge list."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(
                f"# temporal graph: n={graph.num_nodes} m={graph.num_edges} "
                f"T={graph.num_timestamps}\n"
            )
        for s, d, time in zip(graph.src.tolist(), graph.dst.tolist(), graph.t.tolist()):
            handle.write(f"{s} {d} {time}\n")


def load_edge_list(
    path: PathLike,
    num_nodes: Optional[int] = None,
    num_timestamps: Optional[int] = None,
    reindex: bool = True,
) -> TemporalGraph:
    """Read a ``src dst t`` edge list into a :class:`TemporalGraph`.

    Parameters
    ----------
    path:
        File of whitespace-separated triples; ``#`` lines are comments.
    num_nodes, num_timestamps:
        Optional explicit universe sizes (only valid with ``reindex=False``).
    reindex:
        Remap raw node ids to ``0..n-1`` and raw timestamps to dense
        ``0..T-1`` ranks (timestamps keep their order).
    """
    src_raw, dst_raw, t_raw = _read_triples(path)
    if src_raw.size == 0:
        raise GraphFormatError(f"no edges found in {path!s}")
    if reindex:
        node_ids, inverse = np.unique(np.concatenate([src_raw, dst_raw]), return_inverse=True)
        src = inverse[: src_raw.size]
        dst = inverse[src_raw.size :]
        times_unique, t = np.unique(t_raw, return_inverse=True)
        return TemporalGraph(
            node_ids.size, src, dst, t, num_timestamps=times_unique.size, validate=False
        )
    return TemporalGraph(
        num_nodes if num_nodes is not None else int(max(src_raw.max(), dst_raw.max())) + 1,
        src_raw,
        dst_raw,
        t_raw,
        num_timestamps=num_timestamps,
    )


#: Exclusive bound on the magnitude of an edge field (the int64 range).
_FIELD_LIMIT = 2**63


def _read_triples(path: PathLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    srcs, dsts, ts = [], [], []
    # Binary lines decoded one at a time, so a non-UTF-8 byte is reported
    # at its own line rather than wherever the decoder's read-ahead hit it.
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise GraphFormatError(f"{path!s}:{line_no}: line is not UTF-8 text") from exc
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 3:
                raise GraphFormatError(
                    f"{path!s}:{line_no}: expected 'src dst t', got {line!r}"
                )
            try:
                src, dst, t = (int(float(part)) for part in parts[:3])
                if max(abs(src), abs(dst), abs(t)) >= _FIELD_LIMIT:
                    raise OverflowError("field outside the int64 range")
            except (ValueError, OverflowError) as exc:
                raise GraphFormatError(
                    f"{path!s}:{line_no}: non-numeric or out-of-range field in {line!r}"
                ) from exc
            srcs.append(src)
            dsts.append(dst)
            ts.append(t)
    return (
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(ts, dtype=np.int64),
    )
