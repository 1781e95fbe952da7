"""Per-row view of the generation race, kept as a test helper.

``sample_rows_without_replacement`` returns :func:`repro.core.engine.race_order`
as one array of drawn columns per row, the form the sampling tests compare
row by row (``race_order`` itself returns one padded ``(rows, max k)``
order).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.engine import race_order


def sample_rows_without_replacement(
    probs: np.ndarray,
    counts: np.ndarray,
    row_keys: np.ndarray,
    forbid: Optional[np.ndarray] = None,
    allowed: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """:func:`race_order` as one array of drawn columns per row."""
    order, counts = race_order(probs, counts, row_keys, forbid=forbid, allowed=allowed)
    return [order[i, :c] for i, c in enumerate(counts)]
