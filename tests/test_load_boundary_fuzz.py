"""Fuzzing the load boundary: corrupt inputs raise only ``repro.errors`` types.

A saved generator archive (``load_generator``) and a text edge list
(``load_edge_list``) are the two inputs the library reads from disk.  Each
test here starts from a valid file, damages it, and loads the result: the
load may succeed, or fail with a :class:`repro.errors.ReproError` subclass,
but no ``zipfile``, ``json``, ``KeyError``, ``TypeError`` or NumPy error may
escape.

Archive damage: truncation, byte flips, dropped members, reshaped or
retyped arrays, and edits to the ``__meta__`` JSON (a key deleted or given a
value of another type, or the whole member replaced).  Integer values put
into the metadata range from small to huge: the loader checks every
recorded count and dimension against the stored parameter shapes before it
sizes the model, so a huge recorded size allocates nothing.

Edge-list damage: truncation, byte flips and inserted lines of odd tokens,
read with and without reindexing (the ``fit --input``, ``evaluate`` and
``update --edges`` readings).
"""

import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import SLOW_SETTINGS

from repro.core import TGAEGenerator, fast_config, load_generator, save_generator
from repro.datasets import communication_network
from repro.errors import ReproError
from repro.graph import load_edge_list, save_edge_list

META = "__meta__"


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A saved generator with node features and a training lineage."""
    observed = communication_network(12, 40, 3, seed=5)
    features = np.random.default_rng(1).standard_normal((observed.num_nodes, 2))
    generator = TGAEGenerator(fast_config(epochs=1, num_initial_nodes=4)).fit(
        observed, node_features=features
    )
    path = tmp_path_factory.mktemp("archive") / "model.npz"
    save_generator(generator, path)
    raw = path.read_bytes()
    with np.load(io.BytesIO(raw), allow_pickle=False) as members:
        arrays = {name: members[name] for name in members.files}
    return raw, arrays


@pytest.fixture(scope="module")
def edge_list(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "graph.txt"
    save_edge_list(communication_network(10, 30, 4, seed=6), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def load_archive(raw, workdir):
    """Load ``raw`` as a generator archive; only ``ReproError`` may escape."""
    path = workdir / "mutated.npz"
    path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            load_generator(path)
        except ReproError:
            pass


def pack(arrays):
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def flip(raw, flips):
    data = bytearray(raw)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    return bytes(data)


byte_flips = st.lists(
    st.tuples(st.integers(0, 2**31), st.integers(1, 255)), min_size=1, max_size=8
)

RETYPES = ["int8", "int32", "uint64", "float16", "float32", "float64", "complex64", "bool", "U3"]


def reshaped(array, how):
    """``array`` with another shape, dtype or contents."""
    if how == "2-d":
        return array.reshape(1, -1)
    if how == "column":
        return array.reshape(-1, 1)
    if how == "scalar":
        return np.asarray(array.reshape(-1)[:1].sum())
    if how == "empty":
        return array.reshape(-1)[:0]
    if how == "nan":
        return np.full(array.shape, np.nan)
    if how == "negative":
        return -np.abs(array.astype(np.int64)) - 1
    return array.astype(how)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([2**31, 2**40, 2**63 - 1, 2**63, 2**64, 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from([[], {}]),
    lambda inner: (
        st.lists(inner, min_size=1, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, min_size=1, max_size=3)
    ),
    max_leaves=6,
)


def meta_paths(node, prefix=()):
    """Every key path into a JSON document, the root's keys included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(meta_paths(child, prefix + (key,)))
    return paths


class TestArchive:
    def test_intact_archive_loads(self, archive, workdir):
        path = workdir / "intact.npz"
        path.write_bytes(archive[0])
        assert load_generator(path).train_state is not None

    @given(data=st.data())
    @SLOW_SETTINGS
    def test_truncated(self, archive, workdir, data):
        raw = archive[0]
        load_archive(raw[: data.draw(st.integers(0, len(raw) - 1))], workdir)

    @given(flips=byte_flips)
    @SLOW_SETTINGS
    def test_flipped_bytes(self, archive, workdir, flips):
        load_archive(flip(archive[0], flips), workdir)

    @given(data=st.data())
    @SLOW_SETTINGS
    def test_dropped_members(self, archive, workdir, data):
        arrays = archive[1]
        dropped = data.draw(st.sets(st.sampled_from(sorted(arrays)), min_size=1, max_size=3))
        load_archive(pack({k: v for k, v in arrays.items() if k not in dropped}), workdir)

    @given(data=st.data())
    @SLOW_SETTINGS
    def test_reshaped_or_retyped_member(self, archive, workdir, data):
        arrays = dict(archive[1])
        name = data.draw(st.sampled_from(sorted(arrays)))
        how = data.draw(
            st.sampled_from(["2-d", "column", "scalar", "empty", "nan", "negative"] + RETYPES)
        )
        arrays[name] = reshaped(arrays[name], how)
        load_archive(pack(arrays), workdir)

    @given(data=st.data())
    @SLOW_SETTINGS
    def test_mutated_meta(self, archive, workdir, data):
        arrays = dict(archive[1])
        meta = json.loads(arrays[META].tobytes().decode("utf-8"))
        path = data.draw(st.sampled_from(meta_paths(meta)))
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
        arrays[META] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        load_archive(pack(arrays), workdir)

    @given(
        replacement=st.binary(max_size=40)
        | json_values.map(lambda value: json.dumps(value).encode("utf-8"))
    )
    @SLOW_SETTINGS
    def test_replaced_meta(self, archive, workdir, replacement):
        arrays = dict(archive[1])
        arrays[META] = np.frombuffer(replacement, dtype=np.uint8)
        load_archive(pack(arrays), workdir)


TOKENS = [
    "0", "1", "7", "-1", "1.5", "1e400", "-1e400", "nan", "inf", "-inf", "0x10", "1_0",
    "9223372036854775808", "-9223372036854775809", "abc", "#", "%", ",", "\t", "\x00",
]

lines = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)


def read_edges(raw, workdir):
    """Read ``raw`` as each reader of the CLI does; only ``ReproError`` may escape."""
    path = workdir / "mutated.txt"
    path.write_bytes(raw)
    readings = (
        {},
        {"reindex": False},
        {"reindex": False, "num_timestamps": 4},
        {"reindex": False, "num_nodes": 10, "num_timestamps": 4},
    )
    for kwargs in readings:
        try:
            load_edge_list(path, **kwargs)
        except ReproError:
            pass


class TestEdgeList:
    @given(data=st.data())
    @SLOW_SETTINGS
    def test_truncated(self, edge_list, workdir, data):
        read_edges(edge_list[: data.draw(st.integers(0, len(edge_list)))], workdir)

    @given(flips=byte_flips)
    @SLOW_SETTINGS
    def test_flipped_bytes(self, edge_list, workdir, flips):
        read_edges(flip(edge_list, flips), workdir)

    @given(data=st.data(), inserted=st.lists(lines, min_size=1, max_size=4))
    @SLOW_SETTINGS
    def test_inserted_lines(self, edge_list, workdir, data, inserted):
        rows = edge_list.decode("utf-8").splitlines()
        for line in inserted:
            rows.insert(data.draw(st.integers(0, len(rows))), line)
        read_edges("\n".join(rows).encode("utf-8"), workdir)
