"""Tests for the temporal graph attention layer (Eqs. 3-5) and time encoding."""

import numpy as np
import pytest

from repro.autograd import check_gradients, tensor
from repro.errors import ConfigError, ShapeError
from repro.nn import TemporalGraphAttention, TimeEncoding


def make_layer(**kwargs):
    defaults = dict(
        in_features=6, out_features=4, num_heads=2, time_dim=4,
        rng=np.random.default_rng(0),
    )
    defaults.update(kwargs)
    return TemporalGraphAttention(**defaults)


class TestTimeEncoding:
    def test_shape(self):
        enc = TimeEncoding(8, rng=np.random.default_rng(0))
        assert enc(np.array([0.0, 1.0, 5.0])).shape == (3, 8)

    def test_bounded(self):
        enc = TimeEncoding(8, rng=np.random.default_rng(0))
        out = enc(np.linspace(-100, 100, 50)).numpy()
        assert np.all(np.abs(out) <= 1.0 + 1e-9)

    def test_zero_offset_is_cos_phase(self):
        enc = TimeEncoding(4, rng=np.random.default_rng(0))
        out = enc(np.array([0.0])).numpy()
        expected = np.cos(enc.phase.data)
        assert np.allclose(out[0], expected)

    def test_distinguishes_offsets(self):
        enc = TimeEncoding(8, rng=np.random.default_rng(0))
        a = enc(np.array([0.0])).numpy()
        b = enc(np.array([3.0])).numpy()
        assert not np.allclose(a, b)

    def test_invalid_dim(self):
        with pytest.raises(ConfigError):
            TimeEncoding(0)

    def test_gradients_flow_to_frequency(self):
        enc = TimeEncoding(4, rng=np.random.default_rng(0))
        enc(np.array([1.0, 2.0])).sum().backward()
        assert enc.frequency.grad is not None


class TestTemporalGraphAttention:
    def test_output_shape(self):
        layer = make_layer()
        h_src = tensor(np.random.default_rng(1).standard_normal((5, 6)))
        h_dst = tensor(np.random.default_rng(2).standard_normal((3, 6)))
        src = np.array([0, 1, 2, 3, 4])
        dst = np.array([0, 0, 1, 2, 2])
        out = layer(h_src, h_dst, src, dst, delta_t=np.zeros(5))
        assert out.shape == (3, 4)

    def test_no_edges_returns_bias_only(self):
        layer = make_layer()
        h_src = tensor(np.zeros((0, 6)))
        h_dst = tensor(np.zeros((2, 6)))
        out = layer(h_src, h_dst, np.array([], dtype=int), np.array([], dtype=int))
        assert out.shape == (2, 4)
        assert np.allclose(out.numpy(), layer.bias.data)

    def test_mismatched_index_lengths_raise(self):
        layer = make_layer()
        with pytest.raises(ShapeError):
            layer(
                tensor(np.zeros((2, 6))),
                tensor(np.zeros((2, 6))),
                np.array([0]),
                np.array([0, 1]),
            )

    def test_batched_3d_inputs_raise(self):
        layer = make_layer()
        with pytest.raises(ShapeError):
            layer(tensor(np.zeros((1, 2, 6))), tensor(np.zeros((1, 2, 6))),
                  np.array([[0]]), np.array([[1]]))

    def test_isolated_target_gets_bias(self):
        """A target with no incoming edges must receive only the bias."""
        layer = make_layer()
        h_src = tensor(np.random.default_rng(3).standard_normal((2, 6)))
        h_dst = tensor(np.random.default_rng(4).standard_normal((3, 6)))
        out = layer(h_src, h_dst, np.array([0, 1]), np.array([0, 0]), np.zeros(2))
        assert np.allclose(out.numpy()[1], layer.bias.data)
        assert np.allclose(out.numpy()[2], layer.bias.data)

    def test_permutation_equivariance_over_targets(self):
        """Permuting target rows (and edges accordingly) permutes outputs."""
        layer = make_layer()
        rng = np.random.default_rng(5)
        h_src = tensor(rng.standard_normal((4, 6)))
        h_dst_data = rng.standard_normal((3, 6))
        src = np.array([0, 1, 2, 3])
        dst = np.array([0, 1, 2, 0])
        dt = np.array([0.0, 1.0, 2.0, 0.5])
        out = layer(tensor(h_src.numpy()), tensor(h_dst_data), src, dst, dt).numpy()
        perm = np.array([2, 0, 1])  # new_pos[old] mapping: row i -> perm position
        inv = np.argsort(perm)
        out_perm = layer(
            tensor(h_src.numpy()), tensor(h_dst_data[perm]), src, inv[dst], dt
        ).numpy()
        assert np.allclose(out_perm, out[perm], atol=1e-10)

    def test_time_offset_changes_output(self):
        layer = make_layer()
        rng = np.random.default_rng(6)
        h_src = tensor(rng.standard_normal((3, 6)))
        h_dst = tensor(rng.standard_normal((2, 6)))
        src = np.array([0, 1, 2])
        dst = np.array([0, 0, 1])
        a = layer(h_src, h_dst, src, dst, np.zeros(3)).numpy()
        b = layer(h_src, h_dst, src, dst, np.array([5.0, 1.0, 2.0])).numpy()
        assert not np.allclose(a, b)

    def test_no_time_encoding_when_dim_zero(self):
        layer = make_layer(time_dim=0)
        assert layer.time_encoding is None
        h_src = tensor(np.random.default_rng(7).standard_normal((2, 6)))
        h_dst = tensor(np.random.default_rng(8).standard_normal((1, 6)))
        out = layer(h_src, h_dst, np.array([0, 1]), np.array([0, 0]), np.zeros(2))
        assert out.shape == (1, 4)

    def test_gradients_reach_all_parameters(self):
        layer = make_layer()
        h_src = tensor(np.random.default_rng(9).standard_normal((4, 6)), requires_grad=True)
        h_dst = tensor(np.random.default_rng(10).standard_normal((2, 6)), requires_grad=True)
        out = layer(h_src, h_dst, np.array([0, 1, 2, 3]), np.array([0, 0, 1, 1]), np.ones(4))
        out.sum().backward()
        assert h_src.grad is not None and np.abs(h_src.grad).sum() > 0
        for name, param in layer.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"

    def test_attention_is_convex_combination(self):
        """With identical sources, the output equals the single-source case."""
        layer = make_layer(time_dim=0)
        rng = np.random.default_rng(11)
        row = rng.standard_normal(6)
        h_dst = tensor(rng.standard_normal((1, 6)))
        single = layer(
            tensor(row[None, :]), h_dst, np.array([0]), np.array([0])
        ).numpy()
        triple = layer(
            tensor(np.tile(row, (3, 1))), h_dst, np.array([0, 1, 2]), np.array([0, 0, 0])
        ).numpy()
        assert np.allclose(single, triple, atol=1e-10)

    def test_invalid_heads(self):
        with pytest.raises(ConfigError):
            make_layer(num_heads=0)


def _flat_graph(rng, n_src, n_dst, n_edges, dtype=np.float64):
    """A random flat bipartite graph: features, edge lists and time offsets."""
    return (
        rng.standard_normal((n_src, 6)).astype(dtype),
        rng.standard_normal((n_dst, 6)).astype(dtype),
        rng.integers(0, n_src, size=n_edges),
        rng.integers(0, n_dst, size=n_edges),
        rng.integers(0, 5, size=n_edges).astype(float),
    )


def _block_diagonal(rng, graphs):
    """One flat graph holding ``graphs`` side by side, edges interleaved.

    Each graph's rows are offset past the earlier graphs' rows; the edge
    lists are merged in a random order that keeps every graph's own edges
    in their given order.
    """
    h_src = np.concatenate([g[0] for g in graphs])
    h_dst = np.concatenate([g[1] for g in graphs])
    src_off = np.cumsum([0] + [g[0].shape[0] for g in graphs])
    dst_off = np.cumsum([0] + [g[1].shape[0] for g in graphs])
    owner = rng.permutation(np.repeat(np.arange(len(graphs)), [g[2].size for g in graphs]))
    src = np.empty(owner.size, dtype=np.int64)
    dst = np.empty(owner.size, dtype=np.int64)
    dt = np.empty(owner.size)
    for b, graph in enumerate(graphs):
        at = owner == b  # positions, in order, of graph b's edges
        src[at], dst[at], dt[at] = graph[2] + src_off[b], graph[3] + dst_off[b], graph[4]
    return h_src, h_dst, src, dst, dt, dst_off


class TestKernelInvariance:
    """A target's output bits depend only on its own edges, in order."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_ignore_other_egos(self, dtype):
        layer = make_layer().to_dtype(dtype)
        rng = np.random.default_rng(12)
        ego = _flat_graph(rng, 5, 3, 7, dtype)
        base = layer(*map(tensor, ego[:2]), *ego[2:]).numpy()
        # The ego between two others of other sizes, all edges interleaved.
        graphs = [_flat_graph(rng, 9, 4, 10, dtype), ego, _flat_graph(rng, 2, 6, 6, dtype)]
        h_src, h_dst, src, dst, dt, dst_off = _block_diagonal(rng, graphs)
        block = layer(tensor(h_src), tensor(h_dst), src, dst, dt).numpy()
        assert block[dst_off[1] : dst_off[2]].tobytes() == base.tobytes()

    def test_interleaving_targets_keeps_bytes(self):
        layer = make_layer()
        rng = np.random.default_rng(13)
        h_src = tensor(rng.standard_normal((8, 6)))
        h_dst = tensor(rng.standard_normal((3, 6)))
        src = rng.integers(0, 8, size=12)
        dst = np.repeat([0, 1, 2], 4)
        dt = rng.integers(0, 6, size=12).astype(float)
        grouped = layer(h_src, h_dst, src, dst, dt).numpy()
        # Round-robin over the targets; each target's own edges stay in order.
        perm = np.arange(12).reshape(3, 4).T.reshape(-1)
        mixed = layer(h_src, h_dst, src[perm], dst[perm], dt[perm]).numpy()
        assert mixed.tobytes() == grouped.tobytes()

    def test_target_without_edges_outputs_bias(self):
        layer = make_layer()
        rng = np.random.default_rng(14)
        ego = _flat_graph(rng, 4, 3, 5)
        ego[3][:] = [0, 0, 1, 0, 1]  # target 2 gets nothing
        edgeless = _flat_graph(rng, 4, 3, 0)  # nor does any target of this ego
        h_src, h_dst, src, dst, dt, _ = _block_diagonal(rng, [ego, edgeless])
        out = layer(tensor(h_src), tensor(h_dst), src, dst, dt).numpy()
        assert np.array_equal(out[2], layer.bias.data)
        assert np.array_equal(out[3:], np.broadcast_to(layer.bias.data, (3, 4)))

    def test_empty_edge_list(self):
        layer = make_layer()
        rng = np.random.default_rng(15)
        out = layer(
            tensor(rng.standard_normal((4, 6))), tensor(rng.standard_normal((3, 6))),
            np.array([], dtype=int), np.array([], dtype=int), np.array([]),
        ).numpy()
        assert np.array_equal(out, np.broadcast_to(layer.bias.data, (3, 4)))

    def test_block_forward_finite_differences(self):
        layer = make_layer(rng=np.random.default_rng(16))
        rng = np.random.default_rng(17)
        graphs = [_flat_graph(rng, 4, 3, count) for count in (6, 2, 4)]
        h_src, h_dst, src, dst, dt, _ = _block_diagonal(rng, graphs)
        weight = rng.standard_normal((h_dst.shape[0], 4))

        def fn(hs, hd, *params):
            return (layer(hs, hd, src, dst, dt) * tensor(weight)).sum()

        inputs = [tensor(h_src, requires_grad=True), tensor(h_dst, requires_grad=True)]
        inputs += list(layer.parameters())
        assert check_gradients(fn, inputs, atol=1e-6, rtol=1e-5)
