"""Inference embeddings are a pure function of (weights, graph, config, key).

The embedding cache and the engine encode misses in fixed row blocks, so a
key's embedding must not depend on which other keys share its encode.
These tests split the whole ``u * T + t`` key universe into arbitrary
shuffled parts -- single-row parts included -- and demand that every
part's packed encode equals the whole-universe encode byte for byte, for
both dtypes, radius 1-3 and time encoding on and off.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import DETERMINISM_SETTINGS
from repro.core import TGAEGenerator, fast_config
from repro.core.sampler import EgoGraphSampler
from repro.datasets import communication_network

MATRIX = list(itertools.product(["float32", "float64"], [1, 2, 3], [4, 0]))


@pytest.fixture(scope="module")
def observed():
    return communication_network(16, 60, 4, seed=3)


@pytest.fixture(scope="module", params=MATRIX, ids=lambda p: "-".join(map(str, p)))
def encoder(request, observed):
    """``(encode, whole)``: a part encoder and the whole-universe rows."""
    dtype, radius, time_dim = request.param
    config = fast_config(
        epochs=1, num_initial_nodes=8, dtype=dtype, radius=radius, time_dim=time_dim,
        neighbor_threshold=3,
    )
    generator = TGAEGenerator(config).fit(observed)
    sampler = EgoGraphSampler(observed, config)
    T = observed.num_timestamps

    def encode(keys: np.ndarray) -> np.ndarray:
        centers = np.stack([keys // T, keys % T], axis=1)
        return generator.model.encode_inference(sampler.inference_batch(centers).tile.packed())

    universe = np.arange(observed.num_nodes * T, dtype=np.int64)
    return encode, encode(universe)


@st.composite
def partitions(draw, size):
    """A shuffled key universe ``range(size)`` cut into consecutive parts."""
    order = np.asarray(draw(st.permutations(range(size))), dtype=np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=6)))
    return np.split(order, cuts)


@given(data=st.data())
@DETERMINISM_SETTINGS
def test_any_partition_matches_whole_encode(encoder, data):
    encode, whole = encoder
    for part in data.draw(partitions(whole.shape[0])):
        assert encode(part).tobytes() == whole[part].tobytes()


def test_each_key_alone_matches_whole_encode(encoder):
    encode, whole = encoder
    for key in range(whole.shape[0]):
        part = np.array([key], dtype=np.int64)
        assert encode(part).tobytes() == whole[part].tobytes()
