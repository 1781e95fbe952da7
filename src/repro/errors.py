"""Typed exceptions used across the :mod:`repro` package.

Every user-facing error raised by the library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while still being able to discriminate on subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array or tensor had an incompatible shape."""


class GradientError(ReproError, RuntimeError):
    """Backward pass was invoked in an invalid state."""


class GraphFormatError(ReproError, ValueError):
    """A temporal graph input violated the expected format."""


class ConfigError(ReproError, ValueError):
    """A model or experiment configuration value was invalid."""


class DatasetError(ReproError, ValueError):
    """A dataset name or specification was not recognised."""


class GenerationError(ReproError, RuntimeError):
    """Graph generation could not be completed."""


class NotFittedError(ReproError, RuntimeError):
    """A generator was asked to sample before :meth:`fit` was called."""


class PoolError(ReproError, RuntimeError):
    """A worker pool was misused or exhausted every recovery rung.

    Raised when a closed :class:`~repro.core.parallel.WorkerPool` is asked
    to run work, or when a shard failed on every rung of the degradation
    ladder (shm -> threads -> sequential) -- i.e. only after the
    pool has genuinely nothing left to try.  Subclasses ``RuntimeError``
    so pre-typed callers keep working.
    """


class FaultInjected(ReproError, RuntimeError):
    """An armed :mod:`repro.faults` rule fired with this as its payload.

    The nemesis suite raises it for faults that must *not* be absorbed by
    retry/degrade machinery -- e.g. the simulated mid-fit kill that
    crash-safe checkpointing recovers from.
    """


class DegradeWarning(RuntimeWarning):
    """A worker pool stepped down one rung of its degradation ladder.

    Emitted once per step (shm -> threads -> sequential) with the
    pool id, the rung transition and the triggering error, so operators can
    ``warnings.filterwarnings`` on the category instead of string-matching
    stderr.  Subclasses ``RuntimeWarning``: existing filters keep matching.
    """
