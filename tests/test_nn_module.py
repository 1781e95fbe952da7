"""Tests for Module: parameter discovery, modes, state_dict round-trips."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, ModuleList, Parameter


class _Custom(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.linear = Linear(3, 4, rng=rng)
        self.free = Parameter(np.zeros(5))
        self.children_list = ModuleList([Linear(2, 2, rng=rng), Linear(2, 2, rng=rng)])

    def forward(self, x):
        return self.linear(x)


class TestParameterDiscovery:
    def test_finds_direct_parameters(self):
        m = _Custom()
        names = dict(m.named_parameters())
        assert "free" in names
        assert "linear.weight" in names
        assert "linear.bias" in names

    def test_finds_parameters_in_module_lists(self):
        names = dict(_Custom().named_parameters())
        assert "children_list.items.0.weight" in names
        assert "children_list.items.1.weight" in names

    def test_parameters_all_require_grad(self):
        assert all(p.requires_grad for p in _Custom().parameters())

    def test_num_parameters(self):
        m = _Custom()
        expected = 3 * 4 + 4 + 5 + 2 * (2 * 2 + 2)
        assert m.num_parameters() == expected


class TestModes:
    def test_train_eval_recursive(self):
        m = _Custom()
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())


class TestStateDict:
    def test_roundtrip(self):
        m1 = _Custom()
        m2 = _Custom()
        # Perturb m1, load into m2, outputs must match.
        for p in m1.parameters():
            p.data = p.data + 1.0
        m2.load_state_dict(m1.state_dict())
        from repro.autograd import tensor

        x = tensor(np.random.default_rng(1).standard_normal((2, 3)))
        assert np.allclose(m1(x).numpy(), m2(x).numpy())

    def test_state_dict_is_copy(self):
        m = _Custom()
        state = m.state_dict()
        state["free"][:] = 99.0
        assert not np.allclose(m.free.data, 99.0)

    def test_missing_key_raises(self):
        m = _Custom()
        state = m.state_dict()
        del state["free"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_unexpected_key_raises(self):
        m = _Custom()
        state = m.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = _Custom()
        state = m.state_dict()
        state["free"] = np.zeros(99)
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestZeroGrad:
    def test_clears_all_gradients(self):
        m = MLP([2, 3, 1], rng=np.random.default_rng(0))
        from repro.autograd import tensor

        m(tensor(np.ones((4, 2)))).sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())
