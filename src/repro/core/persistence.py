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
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigError, NotFittedError
from ..graph.temporal_graph import TemporalGraph
from .config import TGAEConfig
from .encoder import check_features
from .generator import TGAEGenerator
from .model import TGAEModel
from .trainer import TrainingState

PathLike = Union[str, "os.PathLike[str]"]

_META_KEY = "__meta__"
#: The external node features a generator was fitted with, if any.
_FEATURES_KEY = "features:node"
_FORMAT_VERSION = 2
#: Every format this loader understands; the writer always emits the newest.
_SUPPORTED_FORMATS = (1, 2)
#: Config fields earlier versions saved and this one removed on purpose:
#: dropped on load without the unknown-key warning.
_RETIRED_CONFIG_KEYS = frozenset({"shm_dispatch", "chunk_size"})


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
    features = generator.model.encoder._external_features
    if features is not None:
        arrays[_FEATURES_KEY] = features
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
    ``RuntimeWarning``; retired keys (``_RETIRED_CONFIG_KEYS``) are dropped
    silently.  External node features (the ``features:node`` member) are
    restored onto the encoder.  A truncated or corrupt archive, one missing
    a member, one whose metadata or config is not a JSON object, one whose
    graph arrays are not 1-D integer arrays or fall outside its recorded
    universe, one whose features do not fit that universe or its dtype
    policy, one with a mistyped config or metadata value (a count that is
    not an ``int`` is never truncated), one whose recorded counts or config
    sizes do not give its stored parameter shapes (checked before the model
    is built, so a huge recorded size allocates nothing), or one with a NaN
    or infinite parameter raises :class:`ConfigError`.
    """
    try:
        return _read_generator(path, dtype)
    except ConfigError:
        raise
    except (
        zipfile.BadZipFile, zlib.error, EOFError, KeyError, TypeError, ValueError,
        # zipfile's answers to a damaged header: an unknown compression
        # method or zip version, or an entry flagged as encrypted.
        NotImplementedError, RuntimeError,
    ) as exc:
        raise ConfigError(
            f"{path!s} is not a readable TGAE generator archive "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _meta_int(value, name: str, path: PathLike) -> int:
    """``value`` if it is an ``int`` (and not a ``bool``), else :class:`ConfigError`."""
    if type(value) is not int:
        raise ConfigError(
            f"checkpoint {path!s} records {name}={value!r}; expected an integer"
        )
    return value


def _parameter_shapes(
    num_nodes: int, num_timestamps: int, config: TGAEConfig, feature_dim: int
) -> Dict[str, Tuple[int, ...]]:
    """The parameter shapes of ``TGAEModel(num_nodes, num_timestamps, config)``.

    Worked out without allocating anything, so the loader can check an
    archive's recorded sizes against its stored parameters before it
    builds the model.
    """
    embed, hidden, latent = config.embed_dim, config.hidden_dim, config.latent_dim
    heads, time_dim = config.num_heads, config.time_dim
    head = max(hidden // heads, 1)
    shapes = {
        "encoder.node_embedding.weight": (num_nodes, embed),
        "encoder.time_embedding.weight": (num_timestamps, embed),
        "encoder.input_proj.weight": (embed, hidden),
        "encoder.input_proj.bias": (hidden,),
    }
    if feature_dim:
        shapes["encoder.feature_proj.weight"] = (feature_dim, embed)
        shapes["encoder.feature_proj.bias"] = (embed,)
    for index in range(config.radius):
        layer = f"encoder.layers.items.{index}."
        shapes.update({
            layer + "w_src": (heads, hidden, head),
            layer + "w_dst": (heads, hidden, head),
            layer + "attn_src": (heads, head),
            layer + "attn_dst": (heads, head),
            layer + "w_out": (heads * head, hidden),
            layer + "bias": (hidden,),
        })
        if time_dim > 0:
            shapes.update({
                layer + "time_encoding.frequency": (time_dim,),
                layer + "time_encoding.phase": (time_dim,),
                layer + "w_time": (heads, time_dim, head),
            })
    for mlp in ("mlp_mu", "mlp_sigma") if config.probabilistic else ("mlp_mu",):
        for index, (fan_in, fan_out) in enumerate([(embed, hidden), (hidden, latent)]):
            shapes[f"decoder.{mlp}.linears.items.{index}.weight"] = (fan_in, fan_out)
            shapes[f"decoder.{mlp}.linears.items.{index}.bias"] = (fan_out,)
    shapes["decoder.latent_proj"] = (latent, hidden)
    shapes["decoder.w_dec"] = (hidden, num_nodes)
    shapes["decoder.b_dec"] = (num_nodes,)
    return shapes


def _read_generator(path: PathLike, dtype: Optional[str]) -> TGAEGenerator:
    """The body of :func:`load_generator`, before archive errors are typed."""
    # ``np.load(path)`` leaves its file open when the zip reader rejects it.
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
        if _META_KEY not in archive:
            raise ConfigError(f"{path!s} is not a saved TGAE generator")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
        if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
            raise ConfigError(
                f"{path!s} carries malformed metadata: expected a JSON object "
                "with a 'config' object"
            )
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
        cfg_dict = {
            k: v for k, v in meta["config"].items() if k not in _RETIRED_CONFIG_KEYS
        }
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
        try:
            config = TGAEConfig(**cfg_dict)
        except TypeError as exc:
            raise ConfigError(
                f"checkpoint {path!s} carries a mistyped config value ({exc})"
            ) from exc
        features = archive[_FEATURES_KEY] if _FEATURES_KEY in archive.files else None
        # The features member follows the parameters' dtype and finiteness rules.
        arrays = state if features is None else {**state, _FEATURES_KEY: features}
        mixed = sorted(
            name for name, arr in arrays.items() if arr.dtype != config.np_dtype
        )
        if mixed:
            raise ConfigError(
                f"checkpoint records dtype={config.dtype!r} but members "
                f"{mixed} are stored at a different precision; refusing to "
                "mix silently"
            )
        non_finite = sorted(
            name for name, arr in arrays.items() if not np.isfinite(arr).all()
        )
        if non_finite:
            raise ConfigError(
                f"checkpoint {path!s} has non-finite values in {non_finite}"
            )
        num_nodes = _meta_int(meta.get("num_nodes"), "num_nodes", path)
        num_timestamps = _meta_int(meta.get("num_timestamps"), "num_timestamps", path)
        if features is not None:
            check_features(features, num_nodes, num_timestamps)
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
        edges = []
        for member in ("src", "dst", "t"):
            array = archive[f"graph:{member}"]
            if array.ndim != 1 or array.dtype.kind not in "iu":
                raise ConfigError(
                    f"checkpoint {path!s} stores graph:{member} as "
                    f"{array.dtype}{array.shape}; expected a 1-D integer array"
                )
            edges.append(array)
        observed = TemporalGraph(num_nodes, *edges, num_timestamps=num_timestamps)
        feature_dim = features.shape[-1] if features is not None else 0
        if config.radius > len(state):
            # Every layer stores parameters; a damaged radius is never enumerated.
            wrong = ["encoder.layers"]
        else:
            expected = _parameter_shapes(num_nodes, num_timestamps, config, feature_dim)
            wrong = sorted(
                name for name in set(state) | set(expected)
                if name not in state or state[name].shape != expected.get(name)
            )
        if wrong:
            raise ConfigError(
                f"checkpoint {path!s} records sizes (num_nodes={num_nodes}, "
                f"num_timestamps={num_timestamps} and its config) that its "
                f"stored parameters {wrong[:3]} do not have"
            )
        model = TGAEModel(num_nodes, num_timestamps, config, feature_dim=feature_dim)
        model.load_state_dict(state)
        model.encoder.set_external_features(features)
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
                epoch=_meta_int(state_meta["epoch"], "epoch", path),
                optimizer={
                    "step": _meta_int(state_meta["optimizer_step"], "optimizer_step", path),
                    "slots": slots,
                },
                rng_entropy=_meta_int(state_meta["rng_entropy"], "rng_entropy", path),
                rng_spawn_key=tuple(
                    _meta_int(word, "rng_spawn_key", path)
                    for word in state_meta["rng_spawn_key"]
                ),
                losses=[float(x) for x in archive["train:losses"]],
                grad_norms=[float(x) for x in archive["train:grad_norms"]],
            )
    generator._observed = observed
    generator.model = model
    generator.train_state = train_state
    return generator
