"""Installing merged per-shard gradients (data-parallel training).

The sharded trainer runs forward+backward per shard and merges the
resulting gradient dictionaries into the live model before one optimiser
step.  Merging (in :func:`repro.core.trainer.train_tgae`) is
a plain sum in *shard order*: because the shard partitioning never depends
on the worker count, the floating-point accumulation order -- and therefore
every Adam step -- is bit-identical no matter how many workers computed the
shards, or on which backend.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

import numpy as np

from ..nn.module import Parameter

__all__ = ["load_gradients"]


def load_gradients(
    named_parameters: Iterable[Tuple[str, Parameter]],
    grads: Mapping[str, np.ndarray],
) -> None:
    """Install merged gradients onto the live parameters.

    Parameters absent from ``grads`` get ``grad = None`` (the optimiser
    skips them), exactly as after an in-process backward pass.
    """
    for name, param in named_parameters:
        grad = grads.get(name)
        if grad is not None and grad.shape != param.data.shape:
            raise ValueError(
                f"gradient for {name!r} has shape {grad.shape}, "
                f"expected {param.data.shape}"
            )
        param.grad = grad
