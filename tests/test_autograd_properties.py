"""Property-based tests (hypothesis) certifying the autograd substrate.

Every primitive used by the models is checked against finite differences on
randomly generated shapes and values, plus algebraic invariants that must
hold for arbitrary inputs.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from attention_oracle import segment_softmax
from strategies import QUICK_SETTINGS

from repro.autograd import check_gradients, log_softmax, softmax, tensor



def arrays(min_dim=1, max_dim=6, lo=-3.0, hi=3.0):
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )


@given(arrays(), arrays())
@QUICK_SETTINGS
def test_add_commutative(a, b):
    n = min(len(a), len(b))
    x, y = tensor(a[:n]), tensor(b[:n])
    assert np.allclose((x + y).numpy(), (y + x).numpy())


@given(arrays(), arrays(), arrays())
@QUICK_SETTINGS
def test_mul_distributes_over_add(a, b, c):
    n = min(len(a), len(b), len(c))
    x, y, z = tensor(a[:n]), tensor(b[:n]), tensor(c[:n])
    left = (x * (y + z)).numpy()
    right = (x * y + x * z).numpy()
    assert np.allclose(left, right, atol=1e-9)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_matmul_gradients_random_shapes(rows, inner, seed):
    rng = np.random.default_rng(seed)
    a = tensor(rng.standard_normal((rows, inner)), requires_grad=True)
    b = tensor(rng.standard_normal((inner, 3)), requires_grad=True)
    assert check_gradients(lambda x, y: x @ y, [a, b])


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_softmax_is_distribution(cols, seed):
    rng = np.random.default_rng(seed)
    out = softmax(tensor(rng.standard_normal((3, cols)))).numpy()
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_softmax_gradcheck_random(cols, seed):
    rng = np.random.default_rng(seed)
    x = tensor(rng.standard_normal((2, cols)), requires_grad=True)
    assert check_gradients(lambda t: softmax(t), [x])


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_log_softmax_upper_bound(cols, seed):
    rng = np.random.default_rng(seed)
    out = log_softmax(tensor(rng.standard_normal((3, cols)))).numpy()
    assert np.all(out <= 1e-12)


@given(st.integers(1, 4), st.integers(2, 8), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_segment_softmax_partition_of_unity(num_segments, num_edges, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_segments, size=num_edges)
    out = segment_softmax(tensor(rng.standard_normal(num_edges)), ids, num_segments).numpy()
    for segment in range(num_segments):
        mask = ids == segment
        if mask.any():
            assert np.isclose(out[mask].sum(), 1.0)


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
@QUICK_SETTINGS
def test_sum_reduction_gradients(seed, axis_count):
    rng = np.random.default_rng(seed)
    x = tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones((3, 4)))


@given(st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_take_rows_then_segment_sum_roundtrip(seed):
    """segment_sum(take_rows(x, idx), idx) counts row multiplicity."""
    rng = np.random.default_rng(seed)
    x = tensor(rng.standard_normal((4, 2)))
    idx = rng.integers(0, 4, size=6)
    gathered = x.take_rows(idx)
    scattered = gathered.segment_sum(idx, 4).numpy()
    counts = np.bincount(idx, minlength=4).astype(float)
    assert np.allclose(scattered, x.numpy() * counts[:, None])


@given(st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_exp_log_inverse(seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.1, 5.0, size=6)
    x = tensor(data)
    assert np.allclose(x.log().exp().numpy(), data)


@given(st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_reshape_preserves_sum_and_grad(seed):
    rng = np.random.default_rng(seed)
    x = tensor(rng.standard_normal(12), requires_grad=True)
    y = x.reshape(3, 4)
    assert np.isclose(y.sum().item(), x.numpy().sum())
    y.sum().backward()
    assert np.allclose(x.grad, np.ones(12))


@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_cross_entropy_gradcheck(classes, rows, seed):
    from repro.autograd import cross_entropy_with_logits

    rng = np.random.default_rng(seed)
    logits = tensor(rng.standard_normal((rows, classes)), requires_grad=True)
    targets = rng.integers(0, classes, size=rows)
    assert check_gradients(
        lambda x: cross_entropy_with_logits(x, targets), [logits]
    )


@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_binary_cross_entropy_gradcheck(n, seed):
    from repro.autograd import binary_cross_entropy_with_logits

    rng = np.random.default_rng(seed)
    logits = tensor(rng.standard_normal(n), requires_grad=True)
    targets = rng.integers(0, 2, size=n).astype(np.float64)
    assert check_gradients(
        lambda x: binary_cross_entropy_with_logits(x, targets), [logits]
    )


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@QUICK_SETTINGS
def test_kl_standard_normal_gradcheck_and_nonnegative(n, seed):
    from repro.autograd import kl_standard_normal

    rng = np.random.default_rng(seed)
    mu = tensor(rng.standard_normal((2, n)), requires_grad=True)
    log_sigma = tensor(rng.standard_normal((2, n)) * 0.3, requires_grad=True)
    assert check_gradients(lambda m, s: kl_standard_normal(m, s), [mu, log_sigma])
    value = float(kl_standard_normal(mu, log_sigma).numpy())
    assert value >= -1e-9  # KL divergence is non-negative
