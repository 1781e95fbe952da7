"""Tests for TGAE generator save/load round-trips."""

import dataclasses
import gc
import json
import warnings

import numpy as np
import pytest

from repro.core import TGAEGenerator, fast_config, load_generator, save_generator
from repro.datasets import communication_network
from repro.errors import ConfigError, NotFittedError


@pytest.fixture(scope="module")
def observed():
    return communication_network(20, 100, 4, seed=2)


@pytest.fixture(scope="module")
def fitted(observed):
    return TGAEGenerator(fast_config(epochs=3, num_initial_nodes=16)).fit(observed)


class TestRoundTrip:
    def test_identical_generation_after_reload(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        restored = load_generator(path)
        assert restored.generate(seed=7) == fitted.generate(seed=7)

    def test_parameters_preserved(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        restored = load_generator(path)
        original_state = fitted.model.state_dict()
        restored_state = restored.model.state_dict()
        assert set(original_state) == set(restored_state)
        for key in original_state:
            assert np.allclose(original_state[key], restored_state[key])

    def test_config_preserved(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        restored = load_generator(path)
        assert restored.config == fitted.config

    def test_observed_graph_preserved(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        restored = load_generator(path)
        assert restored.observed == fitted.observed


@pytest.fixture(scope="module")
def featured(observed):
    features = np.random.default_rng(4).standard_normal((observed.num_nodes, 3))
    return TGAEGenerator(fast_config(epochs=2, num_initial_nodes=8)).fit(
        observed, node_features=features
    )


def assert_same_edges(a, b):
    for column in ("src", "dst", "t"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column), err_msg=column)


class TestNodeFeatures:
    def test_round_trip_generates_byte_equal(self, featured, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(featured, path)
        restored = load_generator(path)
        assert restored._node_features.dtype == featured._node_features.dtype
        np.testing.assert_array_equal(restored._node_features, featured._node_features)
        assert_same_edges(restored.generate(seed=0), featured.generate(seed=0))

    def test_checkpoint_of_per_snapshot_features_loads(self, observed, tmp_path):
        shape = (observed.num_timestamps, observed.num_nodes, 2)
        features = np.random.default_rng(5).standard_normal(shape)
        path = tmp_path / "ckpt.npz"
        generator = TGAEGenerator(fast_config(epochs=2, num_initial_nodes=8)).fit(
            observed, node_features=features, checkpoint_every=2, checkpoint_path=path
        )
        restored = load_generator(path)
        assert_same_edges(restored.generate(seed=0), generator.generate(seed=0))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda f: f[:-1],
            lambda f: f[..., None],
            lambda f: f.astype(np.float16),
            lambda f: f.astype(np.int64),
            lambda f: np.where(np.arange(f.size).reshape(f.shape) == 0, np.nan, f),
        ],
        ids=["short", "4-d", "float16", "int", "nan"],
    )
    def test_load_bad_features_member_raises(self, featured, tmp_path, edit):
        path = tmp_path / "model.npz"
        save_generator(featured, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["features:node"] = edit(arrays["features:node"])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError, match="features"):
            load_generator(path)


def _write_meta(src_path, out_path, meta):
    """Copy a saved archive with ``meta`` (any JSON value) as its metadata."""
    with np.load(src_path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(out_path, **arrays)


def _rewrite_meta(src_path, out_path, mutate):
    """Copy a saved archive, applying ``mutate`` to its JSON metadata."""
    with np.load(src_path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
    mutate(meta)
    _write_meta(src_path, out_path, meta)


class TestDtypePolicy:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_preserves_policy(self, observed, tmp_path, dtype):
        config = fast_config(epochs=2, num_initial_nodes=8, dtype=dtype)
        gen = TGAEGenerator(config).fit(observed)
        path = tmp_path / "model.npz"
        save_generator(gen, path)
        with np.load(path, allow_pickle=False) as archive:
            stored = {
                key: archive[key].dtype
                for key in archive.files
                if key.startswith("param:")
            }
        assert all(d == np.dtype(dtype) for d in stored.values())
        restored = load_generator(path)
        assert restored.config.dtype == dtype
        for name, param in restored.model.named_parameters():
            assert param.data.dtype == np.dtype(dtype), name
        assert restored.generate(seed=5) == gen.generate(seed=5)

    def test_explicit_cast_on_load(self, observed, tmp_path):
        gen = TGAEGenerator(
            fast_config(epochs=2, num_initial_nodes=8, dtype="float64")
        ).fit(observed)
        path = tmp_path / "model.npz"
        save_generator(gen, path)
        restored = load_generator(path, dtype="float32")
        assert restored.config.dtype == "float32"
        source = gen.model.state_dict()
        for name, param in restored.model.named_parameters():
            assert param.data.dtype == np.float32
            assert np.array_equal(param.data, source[name].astype(np.float32)), name
        # The rest of the config survives the cast untouched.
        assert dataclasses.replace(restored.config, dtype="float64") == gen.config

    def test_invalid_cast_dtype_raises(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        with pytest.raises(ConfigError):
            load_generator(path, dtype="float16")
        with pytest.raises(ConfigError):
            load_generator(path, dtype="not-a-dtype")

    def test_recorded_policy_array_mismatch_raises(self, observed, tmp_path):
        gen = TGAEGenerator(
            fast_config(epochs=2, num_initial_nodes=8, dtype="float64")
        ).fit(observed)
        src = tmp_path / "model.npz"
        bad = tmp_path / "mismatch.npz"
        save_generator(gen, src)

        def lie_about_dtype(meta):
            meta["config"]["dtype"] = "float32"

        _rewrite_meta(src, bad, lie_about_dtype)
        with pytest.raises(ConfigError, match="refusing to mix"):
            load_generator(bad)

    def test_pre_policy_checkpoint_infers_dtype(self, observed, tmp_path):
        """Archives written before the dtype field existed load at the dtype
        of their stored arrays (historically float64)."""
        gen = TGAEGenerator(
            fast_config(epochs=2, num_initial_nodes=8, dtype="float64")
        ).fit(observed)
        src = tmp_path / "model.npz"
        legacy = tmp_path / "legacy.npz"
        save_generator(gen, src)

        def drop_dtype(meta):
            meta["config"].pop("dtype")

        _rewrite_meta(src, legacy, drop_dtype)
        restored = load_generator(legacy)
        assert restored.config.dtype == "float64"
        assert restored.generate(seed=5) == gen.generate(seed=5)


class TestErrors:
    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_generator(TGAEGenerator(fast_config()), tmp_path / "x.npz")

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ConfigError):
            load_generator(path)

    @pytest.mark.parametrize("keep", ["half", 100])
    def test_load_truncated_archive_raises(self, fitted, tmp_path, keep):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2 if keep == "half" else keep])
        with pytest.raises(ConfigError, match="not a readable"):
            load_generator(path)

    @pytest.mark.parametrize("content", [b"PK\x03\x04garbage", b"not a zip archive"])
    def test_damaged_archive_leaves_no_file_open(self, tmp_path, content):
        path = tmp_path / "model.npz"
        path.write_bytes(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ConfigError):
                load_generator(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_load_missing_member_raises(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        del arrays["graph:src"]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError, match="graph:src"):
            load_generator(path)

    @pytest.mark.parametrize(
        "member,bound",
        [("src", "num_nodes"), ("dst", "num_nodes"), ("t", "num_timestamps")],
    )
    def test_load_out_of_universe_graph_raises(self, fitted, tmp_path, member, bound):
        # A tampered archive whose edges leave the recorded universe must
        # fail at load, not as a bare IndexError inside the first generate.
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays[f"graph:{member}"] = arrays[f"graph:{member}"] + getattr(
            fitted.observed, bound
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError, match=f"{member} values must lie"):
            load_generator(path)

    def test_load_mistyped_config_value_raises(self, fitted, tmp_path):
        src = tmp_path / "model.npz"
        bad = tmp_path / "mistyped.npz"
        save_generator(fitted, src)

        def mistype_radius(meta):
            meta["config"]["radius"] = "two"

        _rewrite_meta(src, bad, mistype_radius)
        with pytest.raises(ConfigError, match="mistyped.npz"):
            load_generator(bad)


    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(num_nodes=30.5),
            lambda meta: meta.update(num_nodes=None),
            lambda meta: meta["train_state"].update(epoch=[1]),
            lambda meta: meta["train_state"].update(optimizer_slots=5),
            lambda meta: meta["train_state"].update(rng_spawn_key=None),
            lambda meta: meta.update(train_state=[1, 2]),
            # Non-integral counts were once truncated by int(): 1.5 loaded as 1.
            lambda meta: meta["train_state"].update(epoch=1.5),
            lambda meta: meta["train_state"].update(epoch=2.0),
            lambda meta: meta["train_state"].update(epoch=True),
            lambda meta: meta["train_state"].update(optimizer_step=2.7),
            lambda meta: meta["train_state"].update(optimizer_step=False),
            lambda meta: meta["train_state"].update(rng_entropy=1.5),
            lambda meta: meta["train_state"]["rng_spawn_key"].append(0.5),
            lambda meta: meta["train_state"]["rng_spawn_key"].append(True),
            lambda meta: meta.update(num_timestamps=4.0),
        ],
        ids=["float-nodes", "null-nodes", "list-epoch", "int-slots", "null-spawn-key",
             "list-train-state", "float-epoch", "integral-float-epoch", "bool-epoch",
             "float-step", "bool-step", "float-entropy", "float-spawn-word",
             "bool-spawn-word", "float-stamps"],
    )
    def test_load_mistyped_metadata_value_raises(self, fitted, tmp_path, edit):
        # Only typed errors may escape the loader: a raw TypeError from deep
        # inside the restore is a ConfigError naming the archive.
        src = tmp_path / "model.npz"
        bad = tmp_path / "mistyped.npz"
        save_generator(fitted, src)
        _rewrite_meta(src, bad, edit)
        with pytest.raises(ConfigError, match="mistyped.npz"):
            load_generator(bad)

    @pytest.mark.parametrize(
        "edit",
        [lambda src: src + 0.5, lambda src: src.reshape(-1, 2)],
        ids=["float", "2-d"],
    )
    def test_load_non_integer_or_non_flat_edges_raises(self, fitted, tmp_path, edit):
        # A float or 2-D edge array once loaded silently, cast or flattened
        # into some other graph.
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["graph:src"] = edit(arrays["graph:src"])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError, match="graph:src"):
            load_generator(path)

    def test_load_list_meta_raises(self, fitted, tmp_path):
        src = tmp_path / "model.npz"
        bad = tmp_path / "listmeta.npz"
        save_generator(fitted, src)
        _write_meta(src, bad, [1, 2, 3])
        with pytest.raises(ConfigError, match="listmeta.npz"):
            load_generator(bad)

    def test_load_list_config_raises(self, fitted, tmp_path):
        src = tmp_path / "model.npz"
        bad = tmp_path / "listconfig.npz"
        save_generator(fitted, src)

        def listify_config(meta):
            meta["config"] = list(meta["config"].items())

        _rewrite_meta(src, bad, listify_config)
        with pytest.raises(ConfigError, match="listconfig.npz"):
            load_generator(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_load_non_finite_parameter_raises(self, fitted, tmp_path, value):
        # A poisoned weight must fail at load, not as a misleading
        # "generation produced no edges" in the first generate.
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        name = sorted(key for key in arrays if key.startswith("param:"))[0]
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError, match=name[len("param:"):]):
            load_generator(path)


class TestRecordedSizes:
    """Recorded counts and dimensions are checked before the model is sized."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(num_nodes=2**40),
            lambda meta: meta.update(num_timestamps=2**40),
            lambda meta: meta["config"].update(hidden_dim=2**40),
            lambda meta: meta["config"].update(embed_dim=2**40),
            lambda meta: meta["config"].update(latent_dim=2**40),
            lambda meta: meta["config"].update(num_heads=2**40),
            lambda meta: meta["config"].update(time_dim=2**40),
            lambda meta: meta.update(num_nodes=meta["num_nodes"] + 1),
            lambda meta: meta["config"].update(radius=1000),
            lambda meta: meta["config"].update(probabilistic=False),
        ],
        ids=["huge-nodes", "huge-stamps", "huge-hidden", "huge-embed", "huge-latent",
             "huge-heads", "huge-time-dim", "one-more-node", "deep-radius",
             "no-sigma-head"],
    )
    def test_size_not_matching_stored_parameters_raises(self, fitted, tmp_path, edit):
        # A damaged size once sized the model first: 2**40 nodes asked numpy
        # for 128 TiB and raised its own MemoryError.
        src = tmp_path / "model.npz"
        bad = tmp_path / "resized.npz"
        save_generator(fitted, src)
        _rewrite_meta(src, bad, edit)
        with pytest.raises(ConfigError, match="resized.npz"):
            load_generator(bad)

    @pytest.mark.parametrize(
        "overrides, feature_dim",
        [
            ({}, 0),
            ({"radius": 1, "time_dim": 0}, 0),
            ({"radius": 3, "embed_dim": 5, "hidden_dim": 16, "latent_dim": 3,
              "num_heads": 3}, 4),
            ({"hidden_dim": 2, "num_heads": 4, "probabilistic": False}, 0),
        ],
    )
    def test_shape_table_matches_model(self, overrides, feature_dim):
        from repro.core import TGAEModel
        from repro.core.persistence import _parameter_shapes

        config = fast_config(**overrides)
        model = TGAEModel(7, 3, config, feature_dim=feature_dim)
        assert _parameter_shapes(7, 3, config, feature_dim) == {
            name: param.data.shape for name, param in model.named_parameters()
        }


class TestConfigKeys:
    def test_retired_key_loads_silently(self, fitted, tmp_path):
        # Archives written while TGAEConfig still had ``shm_dispatch`` carry
        # it; the retired key is dropped without the unknown-key warning.
        src = tmp_path / "model.npz"
        legacy = tmp_path / "legacy.npz"
        save_generator(fitted, src)

        def add_retired_key(meta):
            meta["config"]["shm_dispatch"] = False

        _rewrite_meta(src, legacy, add_retired_key)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = load_generator(legacy)
        assert restored.config == fitted.config
        assert restored.generate(seed=7) == fitted.generate(seed=7)

    def test_retired_chunk_size_loads_silently(self, fitted, tmp_path):
        # ``chunk_size`` once set the generation shard size, which shaped the
        # draws; keyed draws retired it, so an archive carrying it loads
        # quietly and generates what an archive without it generates.
        src = tmp_path / "model.npz"
        legacy = tmp_path / "legacy.npz"
        save_generator(fitted, src)

        def add_chunk_size(meta):
            meta["config"]["chunk_size"] = 32

        _rewrite_meta(src, legacy, add_chunk_size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = load_generator(legacy)
        assert restored.config == load_generator(src).config
        assert restored.generate(seed=7) == load_generator(src).generate(seed=7)

    def test_unknown_key_still_warns(self, fitted, tmp_path):
        src = tmp_path / "model.npz"
        newer = tmp_path / "newer.npz"
        save_generator(fitted, src)

        def add_unknown_key(meta):
            meta["config"]["from_a_newer_version"] = 1

        _rewrite_meta(src, newer, add_unknown_key)
        with pytest.warns(RuntimeWarning, match="from_a_newer_version"):
            restored = load_generator(newer)
        assert restored.config == fitted.config
