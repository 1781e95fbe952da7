"""Tests for the optimizer base, Adam, and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import tensor
from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.optim import Adam, clip_grad_norm


def quadratic_loss(param: Parameter):
    """f(x) = sum((x - 3)^2), minimised at x = 3."""
    diff = param - tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


def run_steps(optimizer, param, steps):
    for _ in range(steps):
        loss = quadratic_loss(param)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return quadratic_loss(param).item()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        final = run_steps(Adam([param], lr=0.2), param, 150)
        assert final < 1e-4

    def test_bias_correction_first_step(self):
        """First Adam step should move by ~lr regardless of gradient scale."""
        param = Parameter(np.zeros(1))
        opt = Adam([param], lr=0.1)
        loss = quadratic_loss(param)
        loss.backward()
        opt.step()
        assert abs(abs(param.data[0]) - 0.1) < 1e-3

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.ones(2))
        Adam([param], lr=0.1).step()  # no backward happened
        assert np.allclose(param.data, 1.0)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.ones(1))], lr=-0.1)

    def test_invalid_betas(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.999))

    def test_weight_decay(self):
        # Equilibrium of 2(x - 3) + 0.5 x = 0 is x = 2.4, below the
        # undecayed optimum of 3.
        param = Parameter(np.full(2, 10.0))
        opt = Adam([param], lr=0.1, weight_decay=0.5)
        run_steps(opt, param, 400)
        assert np.allclose(param.data, 2.4, atol=0.3)


class TestOptimizerState:
    """Name-keyed state_dict/load_state_dict round-trips (checkpoint format v2)."""

    def _trained_adam(self, steps=5):
        param = Parameter(np.zeros(3))
        opt = Adam([("w", param)], lr=0.1)
        run_steps(opt, param, steps)
        return param, opt

    def test_roundtrip_continues_trajectory_bit_identically(self):
        ref_param = Parameter(np.zeros(3))
        ref_opt = Adam([("w", ref_param)], lr=0.1)
        run_steps(ref_opt, ref_param, 10)

        param, opt = self._trained_adam(steps=5)
        snapshot = opt.state_dict()
        resumed = Adam([("w", param)], lr=0.1)
        resumed.load_state_dict(snapshot)
        run_steps(resumed, param, 5)

        np.testing.assert_array_equal(param.data, ref_param.data)
        assert resumed.step_count == ref_opt.step_count == 10

    def test_state_dict_keys_and_copies(self):
        param, opt = self._trained_adam()
        state = opt.state_dict()
        assert state["step"] == 5
        assert set(state["slots"]) == {"m", "v"}
        assert set(state["slots"]["m"]) == {"w"}
        # returned arrays are copies: mutating them must not touch the optimizer
        state["slots"]["m"]["w"][:] = 99.0
        assert not np.any(opt.state_dict()["slots"]["m"]["w"] == 99.0)

    def test_positional_parameters_get_synthetic_names(self):
        opt = Adam([Parameter(np.zeros(2)), Parameter(np.zeros(3))], lr=0.1)
        assert set(opt.state_dict()["slots"]["m"]) == {"param.0", "param.1"}

    def test_rejects_name_mismatch(self):
        _, opt = self._trained_adam()
        snapshot = opt.state_dict()
        other = Adam([("different", Parameter(np.zeros(3)))], lr=0.1)
        with pytest.raises(ConfigError, match="missing.*different.*unexpected.*w"):
            other.load_state_dict(snapshot)

    def test_rejects_shape_mismatch(self):
        _, opt = self._trained_adam()
        snapshot = opt.state_dict()
        other = Adam([("w", Parameter(np.zeros(7)))], lr=0.1)
        with pytest.raises(ConfigError, match="shape"):
            other.load_state_dict(snapshot)

    def test_rejects_slot_mismatch(self):
        _, opt = self._trained_adam()
        snapshot = opt.state_dict()
        snapshot["slots"]["velocity"] = snapshot["slots"].pop("v")
        with pytest.raises(ConfigError, match="slots"):
            opt.load_state_dict(snapshot)

    def test_load_casts_to_live_buffer_dtype(self):
        _, opt = self._trained_adam()
        snapshot = opt.state_dict()
        snapshot["slots"]["m"]["w"] = snapshot["slots"]["m"]["w"].astype(np.float32)
        opt.load_state_dict(snapshot)
        assert opt._m["w"].dtype == np.float64

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Adam([("w", Parameter(np.zeros(1))), ("w", Parameter(np.zeros(1)))], lr=0.1)


class TestClip:
    def test_returns_norm(self):
        param = Parameter(np.zeros(3))
        param.grad = np.array([3.0, 4.0, 0.0])
        norm = clip_grad_norm([param], max_norm=100.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(param.grad, [3.0, 4.0, 0.0])  # below threshold: untouched

    def test_clips_above_threshold(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([30.0, 40.0])
        clip_grad_norm([param], max_norm=5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(5.0)

    def test_no_grads_is_zero(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0

