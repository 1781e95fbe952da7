"""Shared-memory shard dispatch: the store, bit-identity, and teardown.

Three contracts under test, matching the PR's headline guarantees:

* :class:`~repro.core.parallel.SharedArrayStore` is a correct one-writer /
  N-reader array segment: aligned layout, zero-copy read-only attachment,
  in-place updates visible to attached readers, layout changes rejected.
* Shared-memory dispatch changes *how bytes move*, never the result:
  training and generation through an shm pool are bit-identical to
  ``workers=1`` and to the pickled-payload path, across seeds and backends.
* Segments never outlive their pool: explicit close, trainer teardown, a
  ``KeyboardInterrupt`` mid-epoch, and forked children all leave zero
  leaked segments (a forked child must *not* unlink its parent's).
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.core import TGAEGenerator, TGAEModel, WorkerPool, fast_config, train_tgae
from repro.core.parallel import (
    SharedArrayStore,
    attach_shared_arrays,
    shared_memory_supported,
)
from repro.datasets import communication_network

pytestmark = pytest.mark.skipif(
    not shared_memory_supported(), reason="platform has no POSIX shared memory"
)


def attachable(segment_name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=segment_name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 160, 5, seed=11)


def train_run(observed, workers=1, seed=3, pool=None, **overrides):
    params = dict(
        epochs=2, num_initial_nodes=16, candidate_limit=8, train_shard_size=4
    )
    params.update(overrides)
    config = fast_config(seed=seed, **params)
    model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
    history = train_tgae(model, observed, config, workers=workers, pool=pool)
    return history, model.state_dict()


def assert_same_run(run_a, run_b):
    history_a, state_a = run_a
    history_b, state_b = run_b
    assert history_a.losses == history_b.losses
    assert history_a.grad_norms == history_b.grad_norms
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


class TestSharedArrayStore:
    """The one-writer/N-reader segment primitive."""

    @staticmethod
    def sample_arrays():
        return {
            "floats": np.arange(12, dtype=np.float64).reshape(3, 4),
            "ints": np.array([5, -1, 7], dtype=np.int64),
            "small": np.array([[True, False]], dtype=np.bool_),
            "empty": np.empty(0, dtype=np.int32),
        }

    def test_roundtrip_preserves_values_dtypes_shapes(self):
        arrays = self.sample_arrays()
        store = SharedArrayStore(arrays)
        try:
            shm, views = attach_shared_arrays(store.handle)
            try:
                assert set(views) == set(arrays)
                for key, original in arrays.items():
                    assert views[key].dtype == original.dtype
                    assert views[key].shape == original.shape
                    assert np.array_equal(views[key], original)
            finally:
                del views
                shm.close()
        finally:
            store.close()

    def test_layout_is_aligned(self):
        store = SharedArrayStore(self.sample_arrays())
        try:
            for spec in store.handle.specs:
                assert spec.offset % 64 == 0
        finally:
            store.close()

    def test_attached_views_are_read_only(self):
        store = SharedArrayStore({"x": np.ones(3)})
        try:
            shm, views = attach_shared_arrays(store.handle)
            try:
                with pytest.raises(ValueError):
                    views["x"][0] = 2.0
            finally:
                del views
                shm.close()
        finally:
            store.close()

    def test_update_in_place_is_visible_to_attached_reader(self):
        store = SharedArrayStore({"x": np.zeros(4)})
        try:
            shm, views = attach_shared_arrays(store.handle)
            try:
                store.update({"x": np.array([1.0, 2.0, 3.0, 4.0])})
                assert np.array_equal(views["x"], [1.0, 2.0, 3.0, 4.0])
            finally:
                del views
                shm.close()
        finally:
            store.close()

    def test_update_rejects_layout_changes(self):
        store = SharedArrayStore({"x": np.zeros(4)})
        try:
            with pytest.raises(ValueError):
                store.update({"x": np.zeros(5)})
            with pytest.raises(ValueError):
                store.update({"x": np.zeros(4, dtype=np.float32)})
            with pytest.raises(KeyError):
                store.update({"unknown": np.zeros(4)})
        finally:
            store.close()

    def test_close_unlinks_and_is_idempotent(self):
        store = SharedArrayStore({"x": np.ones(2)})
        name = store.handle.segment
        assert attachable(name)
        store.close()
        assert store.closed
        assert not attachable(name)
        store.close()  # second close is a no-op, never a BufferError

    def test_update_after_close_raises(self):
        store = SharedArrayStore({"x": np.ones(2)})
        store.close()
        with pytest.raises(RuntimeError):
            store.update({"x": np.zeros(2)})

    def test_forked_child_close_does_not_unlink(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        store = SharedArrayStore({"x": np.ones(2)})
        try:
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(target=store.close)
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            # The child closed its mapping but must not have unlinked the
            # parent's segment: the owner-pid guard.
            assert attachable(store.handle.segment)
        finally:
            store.close()
        assert not attachable(store.handle.segment)


class TestShmDispatchBitIdentity:
    """Shm dispatch vs pickled dispatch vs sequential: one trajectory."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_training_matches_sequential_across_seeds(self, observed, seed):
        sequential = train_run(observed, workers=1, seed=seed)
        with WorkerPool(2, backend="process", shm_dispatch=True) as pool:
            assert pool.shm_active
            pooled = train_run(observed, workers=2, seed=seed, pool=pool)
            assert pool.shm_segments()  # segments actually published
        assert_same_run(sequential, pooled)

    def test_shm_and_pickle_dispatch_agree(self, observed):
        with WorkerPool(2, backend="process", shm_dispatch=True) as shm_pool:
            shm_run = train_run(observed, workers=2, pool=shm_pool)
        with WorkerPool(2, backend="process", shm_dispatch=False) as pickle_pool:
            assert not pickle_pool.shm_active
            pickle_run = train_run(observed, workers=2, pool=pickle_pool)
        assert_same_run(shm_run, pickle_run)

    def test_thread_backend_ignores_shm_and_matches(self, observed):
        sequential = train_run(observed, workers=1)
        with WorkerPool(3, backend="thread", shm_dispatch=True) as pool:
            assert not pool.shm_active  # threads share memory natively
            threaded = train_run(observed, workers=3, pool=pool)
            assert pool.shm_segments() == ()
        assert_same_run(sequential, threaded)

    def test_needs_inline_state_matrix(self):
        with WorkerPool(2, backend="process", shm_dispatch=True) as pool:
            assert pool.needs_inline_state is (not pool.shm_active)
        with WorkerPool(2, backend="process", shm_dispatch=False) as pool:
            assert pool.needs_inline_state is True
        with WorkerPool(2, backend="thread") as pool:
            assert pool.needs_inline_state is False

    def test_generation_through_shm_pool_bit_identical(self, observed):
        config = fast_config(
            epochs=2, num_initial_nodes=12, candidate_limit=8, seed=5
        )
        fitted = TGAEGenerator(config).fit(observed)
        baseline_a = fitted.generate(seed=1, workers=1)
        baseline_b = fitted.generate(seed=2, workers=1)
        with fitted.worker_pool(workers=2) as pool:
            assert pool.shm_active
            first = fitted.generate(seed=1)
            second = fitted.generate(seed=2)
        assert first == baseline_a
        assert second == baseline_b

    def test_weight_change_updates_segment_without_republish(self, observed):
        config = fast_config(
            epochs=1, num_initial_nodes=12, candidate_limit=8, seed=5
        )
        fitted = TGAEGenerator(config).fit(observed)
        pool = WorkerPool(2, backend="process", shm_dispatch=True, track_dispatch=True)
        with pool:
            engine = fitted.engine()
            engine.generate(np.random.default_rng(1), pool=pool)
            assert pool.dispatch_stats["payload_publishes"] == 1
            segments = pool.shm_segments()
            # Same weights again: neither republish nor in-place update.
            engine.generate(np.random.default_rng(2), pool=pool)
            assert pool.dispatch_stats["payload_publishes"] == 1
            assert pool.dispatch_stats["param_updates"] == 0
            # A weight-only change (same shapes) must ride the in-place
            # update path: same segments, same executor, fresh version.
            for _, param in fitted.model.named_parameters():
                param.data = param.data + 0.01
            baseline = engine.generate(np.random.default_rng(3), workers=1)
            refreshed = engine.generate(np.random.default_rng(3), pool=pool)
            assert pool.dispatch_stats["payload_publishes"] == 1
            assert pool.dispatch_stats["param_updates"] == 1
            assert pool.shm_segments() == segments
            assert refreshed == baseline

    def test_fit_generate_score_topk_share_one_executor(self, observed):
        """Switching from training to inference never rebuilds the workers."""
        config = fast_config(
            epochs=2, num_initial_nodes=12, candidate_limit=8, seed=5,
            embed_cache=True,
        )
        generator = TGAEGenerator(config)
        with generator.worker_pool(workers=2) as pool:
            pool.track_dispatch = True
            generator.fit(observed)
            assert pool.dispatch_stats["payload_publishes"] == 1
            executor = pool._executor
            generator.generate(seed=1)
            generator.score_topk(3)
            assert pool.dispatch_stats["payload_publishes"] == 1
            assert pool._executor is executor
            assert pool.runs >= 3

    def test_dispatch_bytes_are_model_size_independent(self, observed):
        """Task messages carry indices + a version, never the weights."""
        import pickle

        seqs = np.random.SeedSequence(0).spawn(4)
        with WorkerPool(2, backend="process", shm_dispatch=True) as pool:
            train_run(observed, workers=2, pool=pool)
        # The shm trainer leaves task.state=None, so a task pickles to a
        # small constant regardless of parameter count.
        from repro.core.trainer import TrainShardTask

        task = TrainShardTask(
            index=0,
            centers=np.zeros((4, 2), dtype=np.int64),
            target_rows=(np.zeros(3, dtype=np.int64),) * 4,
            recon_scale=1.0,
            kl_scale=1.0,
            seed_seq=seqs[0],
            state=None,
        )
        assert len(pickle.dumps(task)) < 4096


class TestDtypePolicyShm:
    """The shm store under the session dtype policy: segments are packed at
    the policy dtype (float32 halves the parameter segment) and dispatch
    stays bit-identical under either policy."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reattach_round_trip_per_dtype(self, dtype):
        arrays = {
            "w": np.arange(20, dtype=dtype).reshape(4, 5),
            "b": np.ones(3, dtype=dtype),
        }
        store = SharedArrayStore(arrays)
        try:
            shm, views = attach_shared_arrays(store.handle)
            try:
                for key, original in arrays.items():
                    assert views[key].dtype == np.dtype(dtype)
                    assert np.array_equal(views[key], original)
            finally:
                del views
                shm.close()
        finally:
            store.close()

    def test_float32_param_segment_roughly_half(self, observed):
        sizes = {}
        for dtype in ("float32", "float64"):
            config = fast_config(dtype=dtype)
            model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
            store = SharedArrayStore(model.state_dict())
            try:
                sizes[dtype] = store.handle.nbytes
            finally:
                store.close()
        ratio = sizes["float32"] / sizes["float64"]
        # Exactly half the payload; per-array 64-byte alignment padding can
        # nudge the segment total slightly above 0.5.
        assert 0.49 <= ratio <= 0.6, sizes

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_shm_training_bit_identical_per_dtype(self, observed, dtype):
        sequential = train_run(observed, workers=1, dtype=dtype)
        with WorkerPool(2, backend="process", shm_dispatch=True) as pool:
            assert pool.shm_active
            pooled = train_run(observed, workers=2, dtype=dtype, pool=pool)
        assert_same_run(sequential, pooled)


class TestShmTeardown:
    """Segments never outlive the pool, whatever kills it."""

    def test_close_unlinks_segments(self, observed):
        pool = WorkerPool(2, backend="process", shm_dispatch=True)
        train_run(observed, workers=2, pool=pool)
        segments = pool.shm_segments()
        assert segments
        pool.close()
        assert pool.shm_segments() == ()
        for name in segments:
            assert not attachable(name)
        pool.close()  # idempotent (atexit may race an explicit close)

    def test_trainer_owned_pool_unlinks_on_completion(self, observed, monkeypatch):
        import repro.core.trainer as trainer_mod

        created = []
        original_pool = trainer_mod.WorkerPool

        def recording_pool(*args, **kwargs):
            pool = original_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(trainer_mod, "WorkerPool", recording_pool)
        train_run(observed, workers=2)
        assert len(created) == 1
        assert created[0].closed
        assert created[0].shm_segments() == ()

    def test_keyboard_interrupt_mid_epoch_unlinks_segments(
        self, observed, monkeypatch
    ):
        import repro.core.trainer as trainer_mod

        created = []
        segments_seen = []
        original_pool = trainer_mod.WorkerPool

        def recording_pool(*args, **kwargs):
            pool = original_pool(*args, **kwargs)
            created.append(pool)
            return pool

        calls = {"n": 0}

        def interrupting_clip(parameters, max_norm):
            calls["n"] += 1
            segments_seen.extend(created[0].shm_segments())
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            from repro.optim.clip import clip_grad_norm

            return clip_grad_norm(parameters, max_norm)

        monkeypatch.setattr(trainer_mod, "WorkerPool", recording_pool)
        monkeypatch.setattr(trainer_mod, "clip_grad_norm", interrupting_clip)
        with pytest.raises(KeyboardInterrupt):
            train_run(observed, workers=2, epochs=3)
        assert segments_seen  # shm was live mid-training
        assert created[0].closed
        for name in set(segments_seen):
            assert not attachable(name)

    def test_degrade_ladder_releases_segments(self, observed):
        """When the shm rung dies, its segments die with it -- step by step.

        A persistent dispatch-side fault walks the pool down the full
        ladder: the shm rung's segments are unlinked at the first step,
        the process backend is abandoned at the second, and the final run
        on the thread rung still reproduces the exact trajectory.
        """
        from repro import faults

        pool = WorkerPool(2, backend="process", shm_dispatch=True)
        try:
            train_run(observed, workers=2, pool=pool, epochs=1)
            segments = pool.shm_segments()
            assert segments
            with faults.inject("dispatch", exc=OSError, times=2):
                with pytest.warns(RuntimeWarning, match="degrading"):
                    degraded = train_run(observed, workers=2, pool=pool, epochs=1)
            assert pool.health["degrades"] == ["shm->pickle", "pickle->thread"]
            assert pool.backend == "thread"
            assert pool.shm_segments() == ()
            for name in segments:
                assert not attachable(name)
            # ... and the thread retry still produced the exact trajectory.
            assert_same_run(degraded, train_run(observed, workers=1, epochs=1))
        finally:
            pool.close()

    def test_close_from_forked_child_leaves_parent_pool_alone(self, observed):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        pool = WorkerPool(2, backend="process", shm_dispatch=True)
        try:
            train_run(observed, workers=2, pool=pool, epochs=1)
            segments = pool.shm_segments()
            assert segments
            ctx = multiprocessing.get_context("fork")
            # A forked child running the pool's atexit-style close must not
            # unlink the parent's live segments.
            child = ctx.Process(target=pool.close)
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            for name in segments:
                assert attachable(name)
            # The parent pool still works after the child's no-op close.
            rerun = train_run(observed, workers=2, pool=pool, epochs=1)
            assert_same_run(rerun, train_run(observed, workers=1, epochs=1))
        finally:
            pool.close()
        for name in segments:
            assert not attachable(name)


class TestShmConfigWiring:
    """The config flag reaches pools built by the generator and trainer."""

    def test_generator_pool_inherits_config_flag(self, observed):
        config = fast_config(
            epochs=1, num_initial_nodes=12, candidate_limit=8,
            shm_dispatch=False,
        )
        fitted = TGAEGenerator(config).fit(observed)
        with fitted.worker_pool(workers=2) as pool:
            assert pool.shm_dispatch is False
            assert not pool.shm_active

    def test_config_roundtrips_through_persistence(self, observed, tmp_path):
        from repro.core import load_generator, save_generator

        config = fast_config(
            epochs=1, num_initial_nodes=12, candidate_limit=8,
            shm_dispatch=False,
        )
        fitted = TGAEGenerator(config).fit(observed)
        path = tmp_path / "model.npz"
        save_generator(fitted, path)
        loaded = load_generator(path)
        assert loaded.config.shm_dispatch is False
        assert fitted.generate(seed=3) == loaded.generate(seed=3)
