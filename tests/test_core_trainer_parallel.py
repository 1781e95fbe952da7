"""Data-parallel sharded training, checkpointed attention, persistent pools.

Three contracts under test, matching the PR's headline guarantees:

* ``train_tgae(workers=N)`` is **bit-identical** to ``workers=1`` for any
  ``N`` and backend: shard partitioning and per-shard seed-sequence children
  never depend on who executes the shards, and gradients merge in shard
  order.
* ``checkpoint_attention`` (recompute-in-backward) changes peak memory, not
  a single bit of the loss/gradient trajectory or the final weights.
* :class:`~repro.core.parallel.WorkerPool` persists across calls -- the same
  pool serves repeated ``generate()`` draws and whole training runs -- and
  shuts down cleanly.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, checkpoint, segment_softmax
from repro.core import (
    TGAEGenerator,
    TGAEModel,
    WorkerPool,
    fast_config,
    train_tgae,
)
from repro.datasets import communication_network
from repro.errors import ConfigError
from repro.nn import TemporalGraphAttention


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 160, 5, seed=11)


def train_run(observed, workers=1, backend="process", seed=3, **overrides):
    params = dict(
        epochs=3, num_initial_nodes=16, candidate_limit=8, train_shard_size=4
    )
    params.update(overrides)
    config = fast_config(seed=seed, **params)
    model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
    history = train_tgae(model, observed, config, workers=workers, backend=backend)
    return history, model.state_dict()


def assert_same_run(run_a, run_b):
    history_a, state_a = run_a
    history_b, state_b = run_b
    assert history_a.losses == history_b.losses
    assert history_a.grad_norms == history_b.grad_norms
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


class TestShardedTrainingDeterminism:
    """workers=1 and workers=4 produce bit-identical training trajectories."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_workers_1_vs_4_bit_identical(self, observed, seed, backend):
        assert_same_run(
            train_run(observed, workers=1, seed=seed),
            train_run(observed, workers=4, backend=backend, seed=seed),
        )

    def test_dense_decoder_path_bit_identical(self, observed):
        assert_same_run(
            train_run(observed, workers=1, candidate_limit=0),
            train_run(observed, workers=3, candidate_limit=0),
        )

    def test_different_seeds_differ(self, observed):
        history_a, _ = train_run(observed, seed=3)
        history_b, _ = train_run(observed, seed=4)
        assert history_a.losses != history_b.losses

    def test_single_shard_config_still_works(self, observed):
        history, _ = train_run(observed, workers=2, train_shard_size=16)
        assert len(history.losses) == 3

    def test_generation_after_parallel_training_matches(self, observed):
        config = fast_config(
            epochs=2, num_initial_nodes=16, candidate_limit=8,
            train_shard_size=4, seed=5,
        )
        seq = TGAEGenerator(config).fit(observed).generate(seed=9)
        import dataclasses

        par_config = dataclasses.replace(config, workers=3)
        par = TGAEGenerator(par_config).fit(observed).generate(seed=9)
        assert seq == par


class TestTrainingHistoryDiagnostics:
    def test_epoch_seconds_always_recorded(self, observed):
        history, _ = train_run(observed)
        assert len(history.epoch_seconds) == 3
        assert all(seconds >= 0 for seconds in history.epoch_seconds)
        assert history.total_seconds == pytest.approx(sum(history.epoch_seconds))

    def test_peak_memory_tracked_on_request(self, observed):
        config = fast_config(
            epochs=2, num_initial_nodes=8, candidate_limit=8, seed=1
        )
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        history = train_tgae(model, observed, config, track_memory=True)
        assert len(history.peak_memory_bytes) == 2
        assert history.peak_memory > 0

    def test_peak_memory_zero_without_tracking(self, observed):
        history, _ = train_run(observed)
        assert history.peak_memory == 0
        assert history.peak_memory_bytes == [0, 0, 0]


class TestTrainerGuards:
    def test_rejects_bad_workers(self, observed):
        config = fast_config(epochs=1)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        with pytest.raises(ConfigError):
            train_tgae(model, observed, config, workers=0)

    def test_rejects_bad_backend(self, observed):
        config = fast_config(epochs=1)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        with pytest.raises(ConfigError):
            train_tgae(model, observed, config, backend="gpu")

    def test_config_rejects_bad_train_shard_size(self):
        with pytest.raises(ConfigError):
            fast_config(train_shard_size=0)

    def test_model_back_in_eval_mode_when_epoch_raises(self, observed, monkeypatch):
        from repro.optim import Adam

        config = fast_config(epochs=4, num_initial_nodes=8, seed=2)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        calls = {"n": 0}
        original = Adam.step

        def failing_step(self):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("injected optimiser failure")
            return original(self)

        monkeypatch.setattr(Adam, "step", failing_step)
        with pytest.raises(RuntimeError, match="injected"):
            train_tgae(model, observed, config)
        # The try/finally restored inference mode despite the mid-epoch raise.
        assert model.training is False

    def test_internal_pool_torn_down_when_epoch_raises(self, observed, monkeypatch):
        import repro.core.trainer as trainer_mod

        created = []
        original_pool = trainer_mod.WorkerPool

        def recording_pool(*args, **kwargs):
            pool = original_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(trainer_mod, "WorkerPool", recording_pool)
        from repro.optim import Adam

        def failing_step(self):
            raise RuntimeError("injected")

        monkeypatch.setattr(Adam, "step", failing_step)
        config = fast_config(
            epochs=2, num_initial_nodes=8, train_shard_size=4, seed=2
        )
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        with pytest.raises(RuntimeError, match="injected"):
            train_tgae(model, observed, config, workers=2, backend="thread")
        assert len(created) == 1
        assert created[0].closed

    def test_caller_owned_pool_survives_training(self, observed):
        config = fast_config(
            epochs=2, num_initial_nodes=8, train_shard_size=4, seed=2
        )
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        with WorkerPool(2, backend="thread") as pool:
            train_tgae(model, observed, config, workers=2, pool=pool)
            assert not pool.closed
            assert pool.runs == 2  # one dispatch per epoch
        assert pool.closed


class TestCheckpointedTraining:
    """Recompute-in-backward must not change the trajectory by one bit."""

    def test_bit_identical_loss_trajectory(self, observed):
        assert_same_run(
            train_run(observed, checkpoint_attention=False),
            train_run(observed, checkpoint_attention=True),
        )

    def test_bit_identical_under_workers(self, observed):
        assert_same_run(
            train_run(observed, workers=1, checkpoint_attention=True),
            train_run(observed, workers=4, checkpoint_attention=True),
        )

    def test_generation_identical_after_checkpointed_training(self, observed):
        import dataclasses

        config = fast_config(
            epochs=2, num_initial_nodes=12, candidate_limit=8, seed=6
        )
        plain = TGAEGenerator(config).fit(observed).generate(seed=4)
        ckpt_config = dataclasses.replace(config, checkpoint_attention=True)
        ckpt = TGAEGenerator(ckpt_config).fit(observed).generate(seed=4)
        assert plain == ckpt


class TestCheckpointPrimitive:
    """The autograd checkpoint op: exact values, exact gradients."""

    def test_forward_and_gradients_match_plain_bitwise(self):
        rng = np.random.default_rng(0)
        x_data = rng.standard_normal((7, 5))
        w_data = rng.standard_normal((5, 3))

        def compute(x, w):
            return ((x @ w).tanh() * 2.0).sum(axis=0)

        x_plain = Tensor(x_data, requires_grad=True)
        w_plain = Tensor(w_data, requires_grad=True)
        out_plain = compute(x_plain, w_plain)
        out_plain.sum().backward()

        x_ckpt = Tensor(x_data, requires_grad=True)
        w_ckpt = Tensor(w_data, requires_grad=True)
        out_ckpt = checkpoint(compute, x_ckpt, w_ckpt)
        out_ckpt.sum().backward()

        assert np.array_equal(out_plain.data, out_ckpt.data)
        assert np.array_equal(x_plain.grad, x_ckpt.grad)
        assert np.array_equal(w_plain.grad, w_ckpt.grad)

    def test_checkpoint_against_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        assert check_gradients(
            lambda t: checkpoint(lambda u: (u * u).sigmoid().sum(axis=-1), t), [x]
        )

    def test_checkpoint_under_no_grad_is_plain(self):
        from repro.autograd import no_grad

        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = checkpoint(lambda t: t * 3.0, x)
        assert not out.requires_grad

    def test_segment_softmax_checkpoint_bitwise(self):
        rng = np.random.default_rng(2)
        scores_data = rng.standard_normal(10)
        ids = rng.integers(0, 4, size=10)

        plain_in = Tensor(scores_data, requires_grad=True)
        plain_out = segment_softmax(plain_in, ids, 4)
        (plain_out * np.arange(10)).sum().backward()

        ckpt_in = Tensor(scores_data, requires_grad=True)
        ckpt_out = segment_softmax(ckpt_in, ids, 4, checkpoint=True)
        (ckpt_out * np.arange(10)).sum().backward()

        assert np.array_equal(plain_out.data, ckpt_out.data)
        assert np.array_equal(plain_in.grad, ckpt_in.grad)

    def test_segment_softmax_checkpoint_against_finite_differences(self):
        rng = np.random.default_rng(3)
        scores = Tensor(rng.standard_normal(8), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 2, 2, 2, 3])
        assert check_gradients(
            lambda s: segment_softmax(s, ids, 4, checkpoint=True), [scores]
        )


class TestCheckpointedAttention:
    """The TGAT layer's recompute mode: grad_check exactness + bit parity."""

    @staticmethod
    def _layer_pair():
        rng = np.random.default_rng(4)
        plain = TemporalGraphAttention(
            6, 6, num_heads=2, time_dim=4, rng=np.random.default_rng(4)
        )
        ckpt = TemporalGraphAttention(
            6, 6, num_heads=2, time_dim=4, rng=np.random.default_rng(4),
            checkpoint=True,
        )
        src_index = np.array([0, 1, 2, 2, 3])
        dst_index = np.array([0, 0, 1, 2, 2])
        delta_t = np.array([0.0, 1.0, 0.5, 2.0, 0.0])
        h_src = rng.standard_normal((4, 6))
        h_dst = rng.standard_normal((3, 6))
        return plain, ckpt, h_src, h_dst, src_index, dst_index, delta_t

    def test_checkpointed_matches_plain_bitwise(self):
        plain, ckpt, h_src, h_dst, src_index, dst_index, delta_t = self._layer_pair()

        def run(layer):
            hs = Tensor(h_src, requires_grad=True)
            hd = Tensor(h_dst, requires_grad=True)
            out = layer(hs, hd, src_index, dst_index, delta_t=delta_t)
            out.sum().backward()
            grads = {
                name: param.grad for name, param in layer.named_parameters()
                if param.grad is not None
            }
            return out.data, hs.grad, hd.grad, grads

        out_p, hs_p, hd_p, grads_p = run(plain)
        out_c, hs_c, hd_c, grads_c = run(ckpt)
        assert np.array_equal(out_p, out_c)
        assert np.array_equal(hs_p, hs_c)
        assert np.array_equal(hd_p, hd_c)
        assert set(grads_p) == set(grads_c)
        for name in grads_p:
            assert np.array_equal(grads_p[name], grads_c[name]), name

    def test_checkpointed_attention_against_finite_differences(self):
        _, ckpt, h_src, h_dst, src_index, dst_index, delta_t = self._layer_pair()
        hs = Tensor(h_src, requires_grad=True)
        hd = Tensor(h_dst, requires_grad=True)
        assert check_gradients(
            lambda a, b: ckpt(a, b, src_index, dst_index, delta_t=delta_t),
            [hs, hd],
        )

    def test_inference_path_unchanged(self):
        from repro.autograd import no_grad

        plain, ckpt, h_src, h_dst, src_index, dst_index, delta_t = self._layer_pair()
        with no_grad():
            out_p = plain(Tensor(h_src), Tensor(h_dst), src_index, dst_index, delta_t=delta_t)
            out_c = ckpt(Tensor(h_src), Tensor(h_dst), src_index, dst_index, delta_t=delta_t)
        assert np.array_equal(out_p.data, out_c.data)


class TestPersistentPool:
    """One pool outlives many calls; shutdown is explicit and clean."""

    @pytest.fixture(scope="class")
    def fitted(self, observed):
        config = fast_config(epochs=2, num_initial_nodes=12, candidate_limit=8)
        return TGAEGenerator(config).fit(observed)

    def test_pool_reused_across_generate_calls(self, fitted):
        baseline_a = fitted.generate(seed=1, workers=1)
        baseline_b = fitted.generate(seed=2, workers=1)
        with fitted.worker_pool(workers=2, backend="thread") as pool:
            first = fitted.generate(seed=1)
            second = fitted.generate(seed=2)
            assert fitted.worker_pool(workers=2, backend="thread") is pool
            assert pool.runs == 2
            assert not pool.closed
        assert pool.closed
        assert first == baseline_a
        assert second == baseline_b

    def test_process_pool_reused_and_bit_identical(self, fitted):
        baseline = fitted.generate(seed=5, workers=1)
        with WorkerPool(2, backend="process") as pool:
            engine = fitted.engine()
            first = engine.generate(np.random.default_rng(5), pool=pool)
            second = engine.generate(np.random.default_rng(5), pool=pool)
            assert pool.runs == 2
        assert first == baseline
        assert second == baseline

    def test_score_topk_through_pool(self, fitted):
        sequential = fitted.score_topk(3, workers=1)
        with fitted.worker_pool(workers=2, backend="thread"):
            pooled = fitted.score_topk(3)
        for field in ("node", "timestamp", "target", "score"):
            assert np.array_equal(
                getattr(sequential, field), getattr(pooled, field)
            ), field

    def test_closed_pool_rejects_runs(self):
        pool = WorkerPool(2, backend="thread")
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run(None, "generate", [])
        pool.close()  # idempotent

    def test_generator_close_pool(self, fitted):
        pool = fitted.worker_pool(workers=2, backend="thread")
        fitted.close_pool()
        assert pool.closed
        # generate() falls back to the pool-less path afterwards.
        graph = fitted.generate(seed=3, workers=1)
        assert graph.num_edges == fitted.observed.num_edges

    def test_pool_validates_arguments(self):
        with pytest.raises(ConfigError):
            WorkerPool(0)
        with pytest.raises(ConfigError):
            WorkerPool(2, backend="gpu")

    def test_training_through_explicit_pool_matches_sequential(self, observed):
        sequential = train_run(observed, workers=1, seed=13)
        config = fast_config(
            epochs=3, num_initial_nodes=16, candidate_limit=8,
            train_shard_size=4, seed=13,
        )
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        with WorkerPool(2, backend="process") as pool:
            history = train_tgae(model, observed, config, workers=2, pool=pool)
            assert pool.runs == 3  # one per epoch, same pool throughout
        assert_same_run(sequential, (history, model.state_dict()))
