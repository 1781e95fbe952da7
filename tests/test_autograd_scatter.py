"""``scatter_add_rows`` is bitwise ``np.add.at`` into zeros.

The helper flattens a row scatter into 1-D ``np.add.at`` calls in chunks of
``SCATTER_CHUNK_ELEMENTS``; every output element must still receive the
same additions in the same order, so the result is compared byte for byte
with the row scatter, never with a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strategies import STANDARD_SETTINGS
from repro.autograd import scatter_add_rows
from repro.autograd.tensor import SCATTER_CHUNK_ELEMENTS

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

DTYPES = (np.float32, np.float64)

TRAILING = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 6)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
)


def reference(index, values, rows, dtype):
    out = np.zeros((rows,) + values.shape[1:], dtype=dtype)
    np.add.at(out, index, values)
    return out


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def scatters(draw):
    """``(index, values, rows, dtype)`` of a row scatter-add.

    Either a short case whose every index and value Hypothesis picks --
    duplicate, unsorted and negative indices, empty index, untouched rows,
    ``-0.0``, ``±inf`` and subnormals -- or a seeded one long enough to span
    several flat chunks, with rare ``-0.0``/``±inf`` values mixed in.
    """
    dtype = draw(st.sampled_from(DTYPES))
    trailing = draw(TRAILING)
    rows = draw(st.integers(1, 12))
    if draw(st.booleans()):
        index = np.array(
            draw(st.lists(st.integers(-rows, rows - 1), max_size=24)), dtype=np.int64
        )
        values = draw(
            arrays(dtype, (index.size,) + trailing, elements=st.floats(width=32, allow_nan=False))
        )
        return index, values, rows, dtype
    chunk_edges = max(1, SCATTER_CHUNK_ELEMENTS // math.prod(trailing))
    edges = draw(st.integers(1, 3)) * chunk_edges + draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = rng.integers(-rows, rows, edges)
    values = rng.standard_normal((edges,) + trailing).astype(dtype)
    special = rng.random(values.shape) < 1e-3
    values[special] = rng.choice(np.array([-0.0, np.inf, -np.inf], dtype=dtype), special.sum())
    return index, values, rows, dtype


@given(case=scatters())
@STANDARD_SETTINGS
def test_scatter_add_rows_is_bitwise_add_at(case):
    assert_bitwise(scatter_add_rows(*case), reference(*case))


@pytest.mark.parametrize("dtype", DTYPES)
def test_signed_zeros_and_untouched_rows(dtype):
    index = np.array([3, 3, -1, 0], dtype=np.int64)
    values = np.array([[-0.0, np.inf], [-0.0, -np.inf], [-0.0, 1.0], [2.0, -0.0]], dtype=dtype)
    got = scatter_add_rows(index, values, 6, dtype)
    assert_bitwise(got, reference(index, values, 6, dtype))
    assert not np.signbit(got[1:3]).any()  # untouched rows keep +0.0


@pytest.mark.parametrize("dtype", DTYPES)
def test_broadcast_values_and_empty_index(dtype):
    index = np.array([1, 0, 1], dtype=np.int64)
    values = np.broadcast_to(np.arange(4, dtype=dtype), (3, 4))
    assert_bitwise(scatter_add_rows(index, values, 2, dtype), reference(index, values, 2, dtype))
    empty = np.zeros((0, 4), dtype=dtype)
    assert_bitwise(
        scatter_add_rows(np.zeros(0, np.int64), empty, 3, dtype),
        reference(np.zeros(0, np.int64), empty, 3, dtype),
    )


@pytest.mark.parametrize("trailing", [(), (3,), (2, 2), (0,)])
@pytest.mark.parametrize("bad", [5, -6, 10**6])
def test_out_of_range_index_raises_index_error(trailing, bad):
    index = np.array([0, bad, 1], dtype=np.int64)
    values = np.ones((3,) + trailing)
    with pytest.raises(IndexError):
        reference(index, values, 5, np.float64)
    with pytest.raises(IndexError):
        scatter_add_rows(index, values, 5, np.float64)
