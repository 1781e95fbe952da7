"""Named deterministic RNG streams (a ``SeedSequence``-based registry).

Every component that needs randomness used to derive its generator with an
ad-hoc constant offset -- ``np.random.default_rng(seed + 23)`` and friends.
That scheme has two real failure modes:

* **collisions**: component A at ``seed=23`` with offset 0 consumes the very
  stream component B consumes at ``seed=0`` with offset 23, so two unrelated
  samplers silently share draws the moment seeds are reused across
  components (exactly what happens when one experiment seed configures the
  whole pipeline);
* **non-shardability**: an offset scheme gives one linear stream per
  component, so work split across workers either shares a stream (order
  dependent, non-deterministic under concurrency) or needs yet more ad-hoc
  offsets that can collide with sibling components.

This module replaces offsets with :class:`numpy.random.SeedSequence` spawn
keys.  A stream is addressed by the user seed plus a *path* of component
names (and optional integer indices); names are hashed to 32-bit words that
form the ``spawn_key``, so streams for different paths are statistically
independent for every seed, and a stream can be further
:meth:`~numpy.random.SeedSequence.spawn`-split into per-chunk children whose
draws do not depend on how many workers consume them.

Examples
--------
>>> from repro.rng import stream
>>> rng = stream(0, "tgae", "trainer")
>>> rng2 = stream(0, "tgae", "trainer")
>>> float(rng.random()) == float(rng2.random())
True
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

__all__ = ["seed_sequence", "stream", "spawn_streams"]

PathPart = Union[str, int, np.integer]


def _key_word(part: PathPart) -> int:
    """One spawn-key word per path component.

    Non-negative integers (chunk indices, timestamps) are used directly and
    unmodified -- ``SeedSequence`` splits arbitrarily large words itself, so
    no lossy truncation ever aliases two distinct components.  Strings are
    hashed with SHA-256 (stable across processes and Python versions,
    unlike the salted builtin ``hash``) down to 32 bits.
    """
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValueError(f"integer stream-path components must be >= 0, got {value}")
        return value
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def seed_sequence(seed: int, *path: PathPart) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of stream ``path`` under ``seed``.

    ``path`` must be non-empty: the bare user seed (empty path) is reserved
    for whatever the caller owning the seed does with it directly.
    """
    if not path:
        raise ValueError("a stream path of at least one component is required")
    return np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(_key_word(part) for part in path)
    )


def stream(seed: int, *path: PathPart) -> np.random.Generator:
    """A fresh :class:`~numpy.random.Generator` for stream ``path`` under ``seed``."""
    return np.random.default_rng(seed_sequence(seed, *path))


def spawn_streams(
    root: np.random.SeedSequence, count: int
) -> List[np.random.SeedSequence]:
    """``count`` child sequences of ``root``, one per independent work chunk.

    Children are derived purely from ``root`` and the child index, so the
    draws of chunk ``i`` are identical no matter how many workers the chunks
    are later distributed over -- the property the sharded trainer's
    bit-reproducibility rests on.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return list(root.spawn(count))
