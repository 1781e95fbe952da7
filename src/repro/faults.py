"""Deterministic fault injection for the parallel execution stack.

Production code cannot be trusted to survive worker crashes, stragglers,
shared-memory failures or mid-fit kills unless those faults can be *caused
on demand* -- deterministically, so a recovery bug reproduces on every run
instead of once a month in production.  This module is that switchboard:
a process-global registry of :class:`FaultRule` objects, armed either
programmatically (the :func:`inject` context manager, used by the nemesis
suite in ``tests/test_failure_injection.py``) or through the
``REPRO_FAULTS`` environment variable (used by the CI nemesis job, and
re-parsed on import so ``spawn``-started workers see the same rules).

Instrumented production code calls :func:`check` at named *sites*; when no
rule is armed the call is a single global-flag read, cheap enough to live
on hot paths (gated at <= 1.05x by ``benchmarks/bench_fault_overhead.py``).

Sites currently instrumented
----------------------------

``"shard"``
    Every chunk/shard execution, in whichever process/thread runs it
    (``index`` = the task's shard index, ``attempt`` = the dispatch
    attempt, 0 for the first).  The home of worker-crash, straggler-delay
    and transient-``OSError`` injection.
``"dispatch"``
    The parent-side entry of each :class:`~repro.core.parallel.WorkerPool`
    dispatch rung (shm / thread).  Raising here (e.g. a pickling
    failure) exercises the degradation ladder one rung at a time.
``"shm-create"`` / ``"shm-attach"``
    Shared-memory segment allocation (writer side) and attachment
    (reader side) -- simulated allocation / attach failures.
``"epoch"``
    The top of every :func:`~repro.core.trainer.train_tgae` epoch
    (``index`` = the lineage epoch number).  Raising
    :class:`~repro.errors.FaultInjected` here simulates a mid-fit kill
    for the crash-safe-checkpoint tests.

Determinism
-----------

A rule fires when its ``site`` matches and its optional ``index`` /
``attempt`` filters match; ``times`` bounds how often it fires *within one
process*.  Matching on ``attempt`` is what makes crash injection
exactly-once under retries even across forked workers (whose rule copies
keep independent counters): a rule pinned to ``attempt=0`` can never
re-fire on the re-dispatched shard, because the pool re-dispatches at
``attempt=1``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Type

from .errors import ConfigError, FaultInjected

__all__ = [
    "FaultRule",
    "active",
    "check",
    "clear",
    "fired",
    "inject",
    "install",
    "load_env",
]

#: Actions a rule can take when it fires.
ACTIONS = ("raise", "delay", "crash")

#: Exception types addressable from ``REPRO_FAULTS`` spec strings.
_EXC_BY_NAME: Dict[str, Type[BaseException]] = {
    "OSError": OSError,
    "FileNotFoundError": FileNotFoundError,
    "MemoryError": MemoryError,
    "PicklingError": pickle.PicklingError,
    "FaultInjected": FaultInjected,
}

#: Exit status of a ``crash``-action worker, distinctive in core dumps/logs.
CRASH_EXIT_CODE = 70


@dataclass
class FaultRule:
    """One armed fault: where it triggers, what it does, how often.

    ``index`` / ``attempt`` of ``None`` match anything; ``times`` of
    ``None`` never disarms.  Counters (``fired``) are per-process: a rule
    inherited by a forked worker counts its own firings.
    """

    site: str
    action: str = "raise"
    exc: Type[BaseException] = OSError
    message: str = "injected fault"
    index: Optional[int] = None
    attempt: Optional[int] = None
    times: Optional[int] = 1
    delay: float = 0.0
    #: How many times this rule has fired in this process.
    fired: int = 0
    #: PID of the process that armed the rule; ``crash`` only kills *other*
    #: processes (forked/spawned workers) -- in the arming process it raises
    #: instead, so a misconfigured rule can never take down the test runner.
    armed_pid: int = field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(
                f"fault action must be one of {ACTIONS}, got {self.action!r}"
            )

    def matches(self, site: str, index: Optional[int], attempt: Optional[int]) -> bool:
        """Whether this rule applies to a :func:`check` at the given site."""
        if self.site != site:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.index is not None and index != self.index:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def trigger(self) -> None:
        """Execute the rule's action (raise / sleep / kill this process)."""
        self.fired += 1
        if self.action == "delay":
            time.sleep(self.delay)
            return
        if self.action == "crash" and os.getpid() != self.armed_pid:
            os._exit(CRASH_EXIT_CODE)
        # "raise", or "crash" evaluated in the arming process itself.
        raise self.exc(f"{self.message} [site={self.site} fired={self.fired}]")


_RULES: List[FaultRule] = []
_LOCK = threading.Lock()
#: Fast-path flag: ``check`` returns immediately while this is ``False``.
_ARMED = False


def active() -> bool:
    """Whether any fault rule is currently armed in this process."""
    return _ARMED


def install(rule: FaultRule) -> FaultRule:
    """Arm ``rule`` in this process's registry; returns it for inspection."""
    global _ARMED
    with _LOCK:
        _RULES.append(rule)
        _ARMED = True
    return rule


def clear() -> None:
    """Disarm every rule (including env-installed ones)."""
    global _ARMED
    with _LOCK:
        _RULES.clear()
        _ARMED = False


def fired(site: str) -> int:
    """Total firings recorded against ``site`` in this process."""
    with _LOCK:
        return sum(rule.fired for rule in _RULES if rule.site == site)


@contextmanager
def inject(
    site: str,
    action: str = "raise",
    exc: Type[BaseException] = OSError,
    message: str = "injected fault",
    index: Optional[int] = None,
    attempt: Optional[int] = None,
    times: Optional[int] = 1,
    delay: float = 0.0,
) -> Iterator[FaultRule]:
    """Arm one fault rule for the duration of a ``with`` block.

    Yields the live :class:`FaultRule` so tests can assert on
    ``rule.fired``.  Rules are process-local; a pool forked *inside* the
    block inherits the rule (with its own counter).
    """
    rule = install(
        FaultRule(
            site=site,
            action=action,
            exc=exc,
            message=message,
            index=index,
            attempt=attempt,
            times=times,
            delay=delay,
        )
    )
    try:
        yield rule
    finally:
        global _ARMED
        with _LOCK:
            if rule in _RULES:
                _RULES.remove(rule)
            _ARMED = bool(_RULES)


def check(site: str, index: Optional[int] = None, attempt: Optional[int] = None) -> None:
    """Fire the first armed rule matching this site; no-op when disarmed.

    The disarmed path is one module-global read -- cheap enough for
    per-shard call sites (benchmark-gated).
    """
    if not _ARMED:
        return
    with _LOCK:
        rule = next(
            (r for r in _RULES if r.matches(site, index, attempt)), None
        )
    if rule is not None:
        rule.trigger()


def _parse_rule(spec: str) -> FaultRule:
    """Parse one ``site:action[:key=value]...`` rule of a ``REPRO_FAULTS`` spec."""
    parts = [part.strip() for part in spec.split(":") if part.strip()]
    if not parts:
        raise ConfigError(f"empty fault rule in REPRO_FAULTS spec {spec!r}")
    site = parts[0]
    action = parts[1] if len(parts) > 1 else "raise"
    kwargs: Dict[str, object] = {}
    for item in parts[2:]:
        if "=" not in item:
            raise ConfigError(
                f"fault rule option {item!r} must be key=value (rule {spec!r})"
            )
        key, value = item.split("=", 1)
        if key in ("index", "attempt", "times"):
            kwargs[key] = None if value == "none" else int(value)
        elif key == "delay":
            kwargs[key] = float(value)
        elif key == "exc":
            if value not in _EXC_BY_NAME:
                known = ", ".join(sorted(_EXC_BY_NAME))
                raise ConfigError(
                    f"unknown fault exception {value!r}; known: {known}"
                )
            kwargs[key] = _EXC_BY_NAME[value]
        elif key == "message":
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown fault rule option {key!r} (rule {spec!r})")
    return FaultRule(site=site, action=action, **kwargs)


def load_env(value: Optional[str] = None) -> int:
    """Install rules from a ``REPRO_FAULTS`` spec; returns how many.

    The spec is ``;``-separated rules of ``site:action[:key=value]...``,
    e.g. ``"shard:raise:exc=OSError:index=1:times=1;dispatch:delay:delay=0.1"``.
    The bare enablement values ``1`` / ``on`` / ``true`` arm the layer
    without installing rules -- the CI nemesis job uses this to exercise
    the armed-but-quiet ``check`` path while tests drive :func:`inject`.
    """
    spec = value if value is not None else os.environ.get("REPRO_FAULTS", "")
    spec = spec.strip()
    if not spec:
        return 0
    if spec.lower() in ("1", "on", "true"):
        global _ARMED
        _ARMED = True
        return 0
    count = 0
    for part in spec.split(";"):
        part = part.strip()
        if part:
            install(_parse_rule(part))
            count += 1
    return count


# Spawn-started workers import this module fresh: re-parsing the env var
# here is what propagates CI-armed faults across every start method.
load_env()
