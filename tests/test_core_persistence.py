"""Tests for TGAE generator save/load round-trips."""

import dataclasses
import json

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


def _rewrite_meta(src_path, out_path, mutate):
    """Copy a saved archive, applying ``mutate`` to its JSON metadata."""
    with np.load(src_path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode("utf-8"))
    mutate(meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(out_path, **arrays)


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

    def test_load_missing_member_raises(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        del arrays["graph:src"]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError, match="graph:src"):
            load_generator(path)
