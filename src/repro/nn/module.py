"""Module base class: parameter registration, traversal, and (de)serialisation.

A deliberately small re-creation of ``torch.nn.Module`` with the features the
repro actually uses: automatic discovery of :class:`Parameter` attributes and
sub-modules, ``train``/``eval`` mode flags, ``state_dict`` round-tripping, and
named parameter iteration for optimizers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autograd import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter.

    Floating input arrays keep their dtype (a ``float32`` parameter stays
    ``float32``); anything else converts to ``float64``.  The session dtype
    policy is applied by :meth:`Module.to_dtype` after construction, so
    initialiser RNG draws are identical under every policy; construction is
    therefore exempt from :func:`repro.autograd.dtype_audit` (the post-cast
    dtype is what the policy guarantees, and tests assert it directly).
    """

    _dtype_audit_exempt = True

    def __init__(self, data) -> None:
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = np.asarray(arr, dtype=np.float64)
        super().__init__(arr, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically by :meth:`parameters` and
    :meth:`named_parameters`.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs for this module tree."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module tree."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter of this module tree to ``dtype`` in place.

        The dtype-policy entry point: parameters are always *initialised* at
        float64 (so RNG draws never depend on the policy) and then cast once
        here.  Casting to the dtype a parameter already has is a no-op
        (``copy=False``), which keeps the float64 golden path bit-identical.
        """
        target = np.dtype(dtype)
        for param in self.parameters():
            param.data = param.data.astype(target, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(target, copy=False)
        return self

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Gradient utilities
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {value.shape} != expected {param.data.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
