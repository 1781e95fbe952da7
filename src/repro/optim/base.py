"""Optimizer base class with name-keyed, checkpointable state."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple, Union

import numpy as np

from ..errors import ConfigError
from ..nn.module import Parameter

ParameterLike = Union[Parameter, Tuple[str, Parameter]]


class Optimizer:
    """Holds parameters and applies gradient updates.

    Accepts either a plain iterable of :class:`Parameter` (legacy call
    sites, e.g. ``Adam(model.parameters(), ...)``) or an iterable of
    ``(name, parameter)`` pairs (``Adam(model.named_parameters(), ...)``).
    Named construction is what makes :meth:`state_dict` /
    :meth:`load_state_dict` round-trip across processes and checkpoints:
    per-parameter state (Adam's moments) is keyed by the dotted
    parameter name, not by list position, so a reloaded model with the same
    architecture restores the exact slot for every tensor.  Positional
    construction falls back to synthetic ``param.{i}`` names, which are
    stable only for an identical construction order.

    Subclasses implement :meth:`step` and register their per-parameter
    state slots via :meth:`_state_slots`; :meth:`zero_grad`, learning-rate
    handling and state (de)serialisation are shared.
    """

    def __init__(self, parameters: Iterable[ParameterLike], lr: float) -> None:
        entries = list(parameters)
        if entries and isinstance(entries[0], tuple):
            self.param_names: List[str] = [str(name) for name, _ in entries]
            self.parameters: List[Parameter] = [param for _, param in entries]
        else:
            self.parameters = list(entries)
            self.param_names = [f"param.{i}" for i in range(len(self.parameters))]
        if not self.parameters:
            raise ConfigError("optimizer received no parameters")
        if len(set(self.param_names)) != len(self.param_names):
            raise ConfigError("optimizer received duplicate parameter names")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0

    def named_parameters(self) -> Iterable[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs in registration order."""
        return zip(self.param_names, self.parameters)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one gradient update (subclass responsibility)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointable state
    # ------------------------------------------------------------------
    def _state_slots(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Per-parameter state arrays as ``{slot: {param_name: array}}``.

        Subclasses override to expose their internal buffers (e.g. Adam's
        first/second moments).  The returned arrays must be the *live*
        buffers: :meth:`load_state_dict` restores into them in place so the
        aliases held by :meth:`step` implementations stay valid.
        """
        return {}

    def state_dict(self) -> Dict[str, Any]:
        """Name-keyed snapshot of the optimizer state.

        Returns ``{"step": int, "slots": {slot: {param_name: array}}}`` with
        copied arrays, safe to mutate or persist.
        """
        return {
            "step": int(self.step_count),
            "slots": {
                slot: {name: array.copy() for name, array in per_param.items()}
                for slot, per_param in self._state_slots().items()
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (strict names/shapes).

        Arrays are cast to the dtype of the live buffers (mirroring
        ``Module.load_state_dict``'s param-dtype-wins policy) and copied in
        place.
        """
        slots = self._state_slots()
        stored_slots = state.get("slots", {})
        if set(stored_slots) != set(slots):
            raise ConfigError(
                f"optimizer state slots {sorted(stored_slots)} do not match "
                f"expected {sorted(slots)}"
            )
        for slot, per_param in slots.items():
            stored = stored_slots[slot]
            if set(stored) != set(per_param):
                missing = sorted(set(per_param) - set(stored))
                extra = sorted(set(stored) - set(per_param))
                raise ConfigError(
                    f"optimizer state for slot {slot!r} does not match the managed "
                    f"parameters (missing {missing}, unexpected {extra})"
                )
            for name, buffer in per_param.items():
                value = np.asarray(stored[name], dtype=buffer.dtype)
                if value.shape != buffer.shape:
                    raise ConfigError(
                        f"optimizer state {slot}:{name} has shape {value.shape}, "
                        f"expected {buffer.shape}"
                    )
                buffer[...] = value
        self.step_count = int(state["step"])
