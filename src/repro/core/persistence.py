"""Save / load trained TGAE generators.

Serialisation uses a single ``.npz`` archive holding every model parameter
plus the configuration and graph-universe metadata, so a trained generator
can be shipped to (and re-used by) a consumer that never sees the observed
graph -- the privacy-preserving deployment scenario that motivates graph
simulation in the first place.

Format v2 additionally carries the training lineage -- name-keyed optimizer
state slots, the epoch counter, the trainer RNG position and the cumulative
loss curves -- so a loaded generator can resume or warm-start training
(``fit --resume`` / :meth:`TGAEGenerator.update`) bit-identically to a run
that was never interrupted.  v1 archives (weights only) still load; they
just resume with a cold optimizer and a fresh RNG lineage.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
import zipfile
import zlib
from typing import Optional, Union

import numpy as np

from ..errors import ConfigError, NotFittedError
from ..graph.temporal_graph import TemporalGraph
from .config import TGAEConfig
from .generator import TGAEGenerator
from .model import TGAEModel
from .trainer import TrainingState

PathLike = Union[str, "os.PathLike[str]"]

_META_KEY = "__meta__"
_FORMAT_VERSION = 2
#: Every format this loader understands; the writer always emits the newest.
_SUPPORTED_FORMATS = (1, 2)


def save_generator(generator: TGAEGenerator, path: PathLike) -> None:
    """Serialise a fitted :class:`TGAEGenerator` to ``path`` (``.npz``).

    The observed graph's edges are stored as well (they are needed by the
    Sec. IV-G generation procedure, which re-samples ego-graphs from the
    observed structure and reproduces its per-temporal-node edge budget).
    When the generator carries a training lineage (``generator.train_state``)
    the archive additionally records the optimizer slots, epoch counter and
    trainer RNG position -- the format-v2 resume payload.

    The write is *atomic*: the archive is assembled in a same-directory
    temp file and moved into place with ``os.replace``, so a crash or kill
    mid-save (the crash-safe-training scenario of ``checkpoint_every``)
    can never leave a torn or half-written checkpoint at ``path`` -- the
    previous complete checkpoint, if any, survives intact.
    """
    if generator.model is None or not generator.is_fitted:
        raise NotFittedError("cannot save an unfitted generator")
    observed = generator.observed
    train_state: Optional[TrainingState] = getattr(generator, "train_state", None)
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(generator.config),
        "num_nodes": observed.num_nodes,
        "num_timestamps": observed.num_timestamps,
        "name": generator.name,
        "train_state": None,
    }
    arrays = {f"param:{k}": v for k, v in generator.model.state_dict().items()}
    arrays["graph:src"] = observed.src
    arrays["graph:dst"] = observed.dst
    arrays["graph:t"] = observed.t
    if train_state is not None:
        slots = train_state.optimizer.get("slots", {})
        meta["train_state"] = {
            "epoch": int(train_state.epoch),
            "rng_entropy": int(train_state.rng_entropy),
            "rng_spawn_key": [int(word) for word in train_state.rng_spawn_key],
            "optimizer_step": int(train_state.optimizer.get("step", 0)),
            "optimizer_slots": sorted(slots),
        }
        for slot, per_param in slots.items():
            for name, array in per_param.items():
                arrays[f"optim:{slot}:{name}"] = array
        arrays["train:losses"] = np.asarray(train_state.losses, dtype=np.float64)
        arrays["train:grad_norms"] = np.asarray(train_state.grad_norms, dtype=np.float64)
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    # Replicate np.savez's name handling (it appends ".npz" to bare paths),
    # then write-to-temp + rename so the final name only ever holds a
    # complete archive.
    target = os.fspath(path)
    if not target.endswith(".npz"):
        target += ".npz"
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def save_training_checkpoint(
    path: PathLike,
    model: TGAEModel,
    graph: TemporalGraph,
    config: TGAEConfig,
    state: TrainingState,
) -> None:
    """Atomically checkpoint an in-flight training run as a full generator.

    Used by ``train_tgae(checkpoint_every=...)``: wraps the live model,
    observed graph and lineage ``state`` in a generator shell and writes a
    normal format-v2 archive, so recovery is just :func:`load_generator`
    followed by a ``resume_from`` run -- no separate checkpoint format to
    maintain or migrate.
    """
    shell = TGAEGenerator(config)
    shell.model = model
    shell._observed = graph
    shell.train_state = state
    save_generator(shell, path)


def load_generator(path: PathLike, dtype: Optional[str] = None) -> TGAEGenerator:
    """Restore a generator previously written by :func:`save_generator`.

    The checkpoint records its dtype policy (in the stored config) and the
    parameter arrays are stored at that dtype; loading keeps the stored
    policy by default.  ``dtype`` requests an *explicit* cast to another
    policy (``"float32"``/``"float64"``) -- the config and every parameter
    are converted together, so a loaded model never silently mixes
    precisions.  Checkpoints from before the dtype policy existed carry no
    ``dtype`` field; their policy is inferred from the stored arrays
    (historically always float64).  A checkpoint whose arrays disagree with
    its recorded policy is rejected with :class:`ConfigError`.

    Format-v2 archives restore the training lineage onto
    ``generator.train_state`` (optimizer moments, epoch counter, RNG
    position), enabling bit-identical resume; v1 archives load weights-only
    with ``train_state=None`` -- a subsequent ``update``/resume then
    warm-starts the weights but runs a cold optimizer on a fresh RNG
    lineage.  Config keys unknown to this version are dropped with a
    ``RuntimeWarning``.  A truncated or corrupt archive, or one missing a
    member, raises :class:`ConfigError`.
    """
    try:
        return _read_generator(path, dtype)
    except ConfigError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError) as exc:
        raise ConfigError(
            f"{path!s} is not a readable TGAE generator archive "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _read_generator(path: PathLike, dtype: Optional[str]) -> TGAEGenerator:
    """The body of :func:`load_generator`, before archive errors are typed."""
    with np.load(path, allow_pickle=False) as archive:
        if _META_KEY not in archive:
            raise ConfigError(f"{path!s} is not a saved TGAE generator")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
        version = meta.get("format_version")
        if version not in _SUPPORTED_FORMATS:
            supported = ", ".join(str(v) for v in _SUPPORTED_FORMATS)
            raise ConfigError(
                f"unsupported format version {version!r}; "
                f"supported versions: {supported}"
            )
        state = {
            key[len("param:"):]: archive[key]
            for key in archive.files
            if key.startswith("param:")
        }
        cfg_dict = dict(meta["config"])
        known_keys = {f.name for f in dataclasses.fields(TGAEConfig)}
        unknown_keys = sorted(set(cfg_dict) - known_keys)
        if unknown_keys:
            # Forward compatibility: a newer writer may have added config
            # fields this version does not know.  Dropping them (loudly) is
            # strictly better than refusing to load the weights.
            warnings.warn(
                f"checkpoint {path!s} carries unknown config keys "
                f"{unknown_keys} (written by a newer version?); ignoring them",
                RuntimeWarning,
                stacklevel=2,
            )
            cfg_dict = {k: v for k, v in cfg_dict.items() if k in known_keys}
        if "dtype" not in cfg_dict:
            # Pre-policy checkpoint: the stored arrays *are* the policy.
            stored_dtypes = sorted({str(arr.dtype) for arr in state.values()})
            cfg_dict["dtype"] = stored_dtypes[0] if len(stored_dtypes) == 1 else "float64"
        config = TGAEConfig(**cfg_dict)
        mixed = sorted(
            name for name, arr in state.items() if arr.dtype != config.np_dtype
        )
        if mixed:
            raise ConfigError(
                f"checkpoint records dtype={config.dtype!r} but parameters "
                f"{mixed} are stored at a different precision; refusing to "
                "mix silently"
            )
        if dtype is not None:
            try:
                requested = np.dtype(dtype).name
            except TypeError as exc:
                raise ConfigError(f"invalid dtype {dtype!r}") from exc
            # Explicit cross-policy cast: config and parameters move together
            # (TGAEConfig validation rejects anything but float32/float64).
            config = dataclasses.replace(config, dtype=requested)
        generator = TGAEGenerator(config)
        generator.name = meta.get("name", "TGAE")
        observed = TemporalGraph(
            meta["num_nodes"],
            archive["graph:src"],
            archive["graph:dst"],
            archive["graph:t"],
            num_timestamps=meta["num_timestamps"],
            validate=False,
        )
        model = TGAEModel(meta["num_nodes"], meta["num_timestamps"], config)
        model.load_state_dict(state)
        model.eval()
        train_state: Optional[TrainingState] = None
        state_meta = meta.get("train_state")
        if state_meta is not None:
            slots = {
                slot: {
                    key[len(f"optim:{slot}:"):]: archive[key]
                    for key in archive.files
                    if key.startswith(f"optim:{slot}:")
                }
                for slot in state_meta["optimizer_slots"]
            }
            train_state = TrainingState(
                epoch=int(state_meta["epoch"]),
                optimizer={
                    "step": int(state_meta["optimizer_step"]),
                    "slots": slots,
                },
                rng_entropy=int(state_meta["rng_entropy"]),
                rng_spawn_key=tuple(int(word) for word in state_meta["rng_spawn_key"]),
                losses=[float(x) for x in archive["train:losses"]],
                grad_norms=[float(x) for x in archive["train:grad_norms"]],
            )
    generator._observed = observed
    generator.model = model
    generator.train_state = train_state
    return generator
