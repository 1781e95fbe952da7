"""Failure injection: bad input rejected loudly, injected faults survived.

Two layers of defence are pinned here.  The *validation* classes check that
a downstream user's first mistake -- wrong dataset name, malformed file,
negative hyper-parameter -- raises the typed error documented in
:mod:`repro.errors` (never a bare ``IndexError`` three layers deep).

The *nemesis* classes drive :mod:`repro.faults` against the live dispatch
stack and pin the fault-model invariant of ``docs/ARCHITECTURE.md``: any
injected fault either recovers **bit-identically** (retried shard, rebuilt
executor, re-dispatched straggler, resumed checkpoint) or fails loudly with
a typed error -- and in every case the pool's shared-memory segments are
reaped.  A Hypothesis state machine interleaves fault arming with
``fit``/``update``/``generate`` to catch ordering bugs no directed test
enumerates.
"""

import copy
import glob
import pickle
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from strategies import STATE_MACHINE_SETTINGS

from repro import faults
from repro.core import (
    TGAEConfig,
    TGAEGenerator,
    TGAEModel,
    WorkerPool,
    fast_config,
    load_generator,
    train_tgae,
)
from repro.core.engine import shard_rows
from repro.core.parallel import LADDER, SharedArrayStore, shared_memory_supported
from repro.datasets import communication_network, load_dataset
from repro.errors import (
    ConfigError,
    DatasetError,
    DegradeWarning,
    FaultInjected,
    GraphFormatError,
    NotFittedError,
    PoolError,
    ReproError,
    ShapeError,
)
from repro.faults import FaultRule
from repro.graph import TemporalGraph, load_edge_list, load_event_stream
from repro.metrics import compare_graphs, mmd_squared


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No test may leak an armed fault rule into its neighbours.

    ``load_env`` re-arms a bare ``REPRO_FAULTS=on`` enablement afterwards
    so the CI nemesis job keeps its armed-but-quiet ``check`` path through
    the whole session.
    """
    yield
    faults.clear()
    faults.load_env()


# ---------------------------------------------------------------------------
# Input validation: every public entry point rejects bad input loudly.
# ---------------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0},
            {"radius": -3},
            {"neighbor_threshold": 0},
            {"time_window": -1},
            {"epochs": 0},
            {"num_initial_nodes": 0},
            {"hidden_dim": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"kl_weight": -0.5},
            {"candidate_limit": -1},
            {"max_shard_retries": -1},
            {"shard_timeout": 0.0},
            {"shard_timeout": -2.5},
        ],
    )
    def test_bad_hyperparameter_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TGAEConfig(**kwargs)

    def test_error_message_names_value(self):
        with pytest.raises(ConfigError, match="radius"):
            TGAEConfig(radius=0)

    def test_fast_config_forwards_validation(self):
        with pytest.raises(ConfigError):
            fast_config(epochs=-5)


class TestDatasetErrors:
    def test_unknown_dataset_name(self):
        with pytest.raises(DatasetError, match="NOPE"):
            load_dataset("NOPE")

    def test_unknown_scale(self):
        with pytest.raises(DatasetError, match="galactic"):
            load_dataset("DBLP", scale="galactic")

    def test_dataset_error_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            load_dataset("NOPE")


class TestGraphFormatErrors:
    def test_mismatched_edge_arrays(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(3, [0, 1], [1], [0, 0])

    def test_node_id_out_of_range(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(3, [0, 5], [1, 2], [0, 0])

    def test_timestamp_out_of_range(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(3, [0, 1], [1, 2], [0, 9], num_timestamps=2)

    def test_nonpositive_universe(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph(0, [], [], [])

    def test_comparison_timestamp_mismatch(self):
        a = TemporalGraph(3, [0], [1], [0], num_timestamps=2)
        b = TemporalGraph(3, [0], [1], [0], num_timestamps=5)
        with pytest.raises(GraphFormatError):
            compare_graphs(a, b)


class TestFileErrors:
    def test_missing_edge_list(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_edge_list(tmp_path / "missing.txt")

    def test_garbage_edge_list(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("this is not an edge list\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_garbage_event_stream(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("1 2\n")
        with pytest.raises(GraphFormatError):
            load_event_stream(path)

    def test_load_generator_from_non_model(self, tmp_path):
        path = tmp_path / "not_a_model.npz"
        np.savez(path, junk=np.arange(3))
        with pytest.raises(ConfigError):
            load_generator(path)


class TestLifecycleErrors:
    def test_generate_before_fit(self):
        with pytest.raises(NotFittedError):
            TGAEGenerator(fast_config(epochs=1)).generate()

    def test_observed_before_fit(self):
        with pytest.raises(NotFittedError):
            _ = TGAEGenerator(fast_config(epochs=1)).observed

    def test_fit_on_empty_graph_then_generate_fails_loudly(self):
        empty = TemporalGraph(4, [], [], [], num_timestamps=2)
        generator = TGAEGenerator(
            fast_config(epochs=1, num_initial_nodes=2)
        )
        # Either fit or generate must raise a typed library error -- an
        # edgeless graph cannot seed ego-graph sampling.
        with pytest.raises(ReproError):
            generator.fit(empty)
            generator.generate(seed=0)


class TestMetricShapeErrors:
    def test_mmd_distribution_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mmd_squared(np.ones((2, 3)), np.ones((2, 4)))

    def test_mmd_empty_side(self):
        with pytest.raises(ShapeError):
            mmd_squared(np.ones((0, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Nemesis shared fixtures
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 160, 5, seed=11)


def _nemesis_config(**overrides):
    defaults = dict(
        epochs=2, num_initial_nodes=16, candidate_limit=8,
        train_shard_size=4, seed=3,
    )
    defaults.update(overrides)
    return fast_config(**defaults)


def _train(observed, config, pool=None, workers=1):
    """One full training run; returns ``(losses, final state_dict)``."""
    model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
    history = train_tgae(model, observed, config, workers=workers, pool=pool)
    return history.losses, model.state_dict()


def _assert_same_run(a, b):
    losses_a, state_a = a
    losses_b, state_b = b
    assert losses_a == losses_b
    assert sorted(state_a) == sorted(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


def _attachable(segment_name):
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=segment_name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def _require_shm():
    if not shared_memory_supported():
        pytest.skip("platform has no POSIX shared memory")


# ---------------------------------------------------------------------------
# The fault registry itself
# ---------------------------------------------------------------------------
class TestFaultRegistry:
    def test_check_is_a_noop_while_disarmed(self):
        faults.clear()  # drop any REPRO_FAULTS arming (nemesis CI job)
        assert not faults.active()
        faults.check("shard", index=0, attempt=0)  # must not raise

    def test_inject_scopes_arming_to_the_block(self):
        faults.clear()
        with faults.inject("shard", exc=OSError):
            assert faults.active()
        assert not faults.active()

    def test_site_index_and_attempt_pins(self):
        with faults.inject("shard", exc=OSError, index=2, attempt=0) as rule:
            faults.check("dispatch")                      # wrong site
            faults.check("shard", index=1, attempt=0)     # wrong index
            faults.check("shard", index=2, attempt=1)     # wrong attempt
            assert rule.fired == 0
            with pytest.raises(OSError, match="injected fault"):
                faults.check("shard", index=2, attempt=0)
            assert rule.fired == 1

    def test_times_bounds_firings(self):
        with faults.inject("dispatch", exc=OSError, times=2) as rule:
            for _ in range(2):
                with pytest.raises(OSError):
                    faults.check("dispatch")
            faults.check("dispatch")  # exhausted: no-op
            assert rule.fired == 2

    def test_delay_action_sleeps(self):
        with faults.inject("shard", action="delay", delay=0.05):
            start = time.perf_counter()
            faults.check("shard", index=0, attempt=0)
            assert time.perf_counter() - start >= 0.04

    def test_crash_in_arming_process_raises_instead_of_exiting(self):
        # The guard that keeps a misconfigured crash rule from taking down
        # the test runner: in the arming process it degrades to a raise.
        with faults.inject("shard", action="crash", exc=OSError):
            with pytest.raises(OSError):
                faults.check("shard", index=0, attempt=0)

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError, match="explode"):
            FaultRule(site="shard", action="explode")

    def test_env_spec_round_trip(self):
        installed = faults.load_env(
            "shard:raise:exc=PicklingError:index=1:times=2;"
            "dispatch:delay:delay=0.01"
        )
        assert installed == 2
        assert faults.active()
        with pytest.raises(pickle.PicklingError):
            faults.check("shard", index=1, attempt=0)
        faults.check("dispatch")  # delay rule: returns after sleeping
        faults.clear()
        assert not faults.active()

    def test_env_bare_enablement_arms_without_rules(self):
        assert faults.load_env("on") == 0
        assert faults.active()
        faults.check("shard", index=0, attempt=0)  # armed but quiet
        faults.clear()

    @pytest.mark.parametrize(
        "spec",
        [
            "shard:raise:exc=NoSuchError",
            "shard:raise:badoption",
            "shard:raise:frequency=2",
            "shard:explode",
        ],
    )
    def test_env_bad_spec_rejected(self, spec):
        with pytest.raises(ConfigError):
            faults.load_env(spec)


# ---------------------------------------------------------------------------
# In-rung shard retry
# ---------------------------------------------------------------------------
class TestShardRetry:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_transient_shard_error_retried_bit_identically(
        self, observed, backend
    ):
        if backend == "process":
            _require_shm()
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend=backend)
        try:
            with faults.inject(
                "shard", exc=OSError, index=1, attempt=0
            ) as rule:
                run = _train(observed, config, pool=pool, workers=2)
                assert rule.fired >= (1 if backend == "thread" else 0)
            _assert_same_run(run, baseline)
            assert pool.health["retries"] >= 1
            assert pool.health["degrades"] == []
        finally:
            pool.close()

    def test_pickling_failure_retried(self, observed):
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend="thread")
        try:
            with faults.inject(
                "shard", exc=pickle.PicklingError, index=0, attempt=0
            ):
                run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.health["retries"] >= 1
        finally:
            pool.close()

    def test_exhausted_sequential_rung_raises_pool_error(self, observed):
        # The bottom of the ladder: a shard that keeps failing after the
        # thread rung degraded to sequential has nothing left to degrade
        # to and must fail loudly with a typed error, never hang.
        config = _nemesis_config()
        pool = WorkerPool(2, backend="thread")
        try:
            with faults.inject("shard", exc=OSError, times=None):
                with pytest.warns(DegradeWarning, match="thread->sequential"):
                    with pytest.raises(PoolError, match="sequential rung"):
                        _train(observed, config, pool=pool, workers=2)
            assert pool.health["degrades"] == ["thread->sequential"]
        finally:
            pool.close()

    def test_mid_epoch_degrade_counts_earlier_shards_once(self, observed):
        # Shards 0-2 of the first epoch finish on the thread rung before
        # shard 3 exhausts its retries; the sequential rung re-runs the whole
        # list, so the earlier shards' gradients are folded exactly once.
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend="thread", max_shard_retries=1)
        try:
            with faults.inject("shard", exc=OSError, index=3, times=2):
                with pytest.warns(DegradeWarning, match="thread->sequential"):
                    run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.health["degrades"] == ["thread->sequential"]
        finally:
            pool.close()

    def test_one_worker_pool_retries_transient_shard_error(self, observed):
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(1)
        try:
            with faults.inject("shard", exc=OSError, index=1, attempt=0):
                run = _train(observed, config, pool=pool)
            _assert_same_run(run, baseline)
            assert pool.health["retries"] == 1
            assert pool.health["degrades"] == []
        finally:
            pool.close()

    def test_one_worker_pool_persistent_error_keeps_its_rung(self, observed):
        # A one-worker pool runs every call on the sequential rung; running
        # out of retries there raises without moving the pool's own rung.
        config = _nemesis_config()
        pool = WorkerPool(1)
        rung = pool.rung
        try:
            with faults.inject("shard", exc=OSError, times=None):
                with pytest.raises(PoolError, match="sequential rung"):
                    _train(observed, config, pool=pool)
            assert pool.rung == rung
            assert pool.health["degrades"] == []
        finally:
            pool.close()

    def test_persistent_shard_fault_walks_ladder_then_fails_loudly(
        self, observed
    ):
        # A shard that fails on *every* rung exhausts the whole ladder:
        # two DegradeWarnings, then a typed PoolError -- never a hang,
        # never a silent wrong answer -- with every segment reaped.
        _require_shm()
        config = _nemesis_config()
        pool = WorkerPool(2, backend="process")
        try:
            with faults.inject("shard", exc=OSError, times=None):
                with pytest.warns(DegradeWarning):
                    with pytest.raises(PoolError):
                        _train(observed, config, pool=pool, workers=2)
            assert pool.health["degrades"] == ["shm->thread", "thread->sequential"]
            assert pool.rung == "sequential"
            assert pool.shm_segments() == ()
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Worker crashes
# ---------------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_worker_crash_rebuilds_executor_bit_identically(self, observed):
        _require_shm()
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend="process")
        try:
            with faults.inject("shard", action="crash", index=1, attempt=0):
                run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.health["worker_crashes"] >= 1
            # Recovery happened *within* the shm rung: the executor was
            # rebuilt against the surviving segments, no degrade taken.
            assert pool.health["degrades"] == []
            assert pool.backend == "process"
            assert pool.rung == "shm"
            segments = pool.shm_segments()
            assert segments
        finally:
            pool.close()
        for name in segments:
            assert not _attachable(name)

    def test_crash_while_submitting_rebuilds_in_rung(self):
        # A worker can die while the parent is still submitting the rest of
        # the dispatch, so submit() itself raises BrokenProcessPool off the
        # poisoned executor.  That is the same recoverable incident as a
        # crash surfaced through a future: rebuild + re-dispatch everything
        # at the next attempt number, never a degradation-ladder step.
        pool = WorkerPool(2, backend="thread")
        try:
            calls = {"submits": 0, "rebuilds": 0}

            def submit(task, attempt):
                calls["submits"] += 1
                if calls["submits"] == 2:
                    raise BrokenProcessPool("worker died mid-submission")
                return (task, attempt)

            def rebuild():
                calls["rebuilds"] += 1

            attempts = [0, 0, 0]
            futures = pool._submit_all(["a", "b", "c"], attempts, submit, rebuild)
            assert calls["rebuilds"] == 1
            assert attempts == [1, 1, 1]
            assert futures == [("a", 1), ("b", 1), ("c", 1)]
            assert pool.health["worker_crashes"] == 1
            assert pool.health["degrades"] == []
        finally:
            pool.close()

    def test_crash_exhaustion_walks_ladder_then_fails_loudly(self, observed):
        # A worker that crashes on *every* attempt of one shard: the shm
        # rung's rebuild budget runs out, every lower rung re-fails in turn
        # (the rule is inherited by each fresh fork, and raises in the
        # arming process on the thread/sequential rungs), and the pool ends
        # with a typed PoolError and zero live segments -- never a hang.
        _require_shm()
        config = _nemesis_config(epochs=1)
        pool = WorkerPool(2, backend="process", max_shard_retries=1)
        try:
            with faults.inject(
                "shard", action="crash", exc=OSError, index=0, times=None
            ):
                with pytest.warns(DegradeWarning):
                    with pytest.raises(PoolError):
                        _train(observed, config, pool=pool, workers=2)
            assert pool.health["degrades"] == ["shm->thread", "thread->sequential"]
            assert pool.health["worker_crashes"] >= 2
            assert pool.shm_segments() == ()
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Stragglers
# ---------------------------------------------------------------------------
class TestStragglerRedispatch:
    def test_straggler_redispatched_bit_identically(self, observed):
        _require_shm()
        config = _nemesis_config(epochs=1)
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend="process", shard_timeout=0.5)
        try:
            with faults.inject(
                "shard", action="delay", delay=2.0, index=1, attempt=0
            ):
                run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.health["timeouts"] >= 1
            assert pool.health["redispatches"] >= 1
            assert pool.health["degrades"] == []
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    def test_ladder_constant_is_ordered(self):
        assert LADDER == ("shm", "thread", "sequential")

    def test_full_ladder_walk_stays_bit_identical(self, observed):
        _require_shm()
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend="process")
        try:
            with faults.inject("dispatch", exc=OSError, times=2):
                with pytest.warns(DegradeWarning) as caught:
                    run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.health["degrades"] == ["shm->thread", "thread->sequential"]
            assert pool.rung == "sequential"
            degrade_messages = [
                str(w.message) for w in caught
                if isinstance(w.message, DegradeWarning)
            ]
            assert len(degrade_messages) == 2
            assert all("degrading" in m for m in degrade_messages)
            assert pool.shm_segments() == ()
        finally:
            pool.close()

    def test_shm_allocation_failure_degrades_to_thread(self, observed):
        _require_shm()
        config = _nemesis_config()
        baseline = _train(observed, config)
        pool = WorkerPool(2, backend="process")
        try:
            with faults.inject("shm-create", exc=OSError, times=1):
                with pytest.warns(DegradeWarning, match="shm->thread"):
                    run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.health["degrades"] == ["shm->thread"]
            assert pool.shm_segments() == ()
        finally:
            pool.close()

    def test_process_pool_without_shared_memory_starts_on_threads(
        self, observed, monkeypatch
    ):
        # No /dev/shm means no process-pool semaphores either: the pool
        # starts on the thread rung, silently, and stays bit-identical.
        import repro.core.parallel as parallel_mod

        config = _nemesis_config(epochs=1)
        baseline = _train(observed, config)
        monkeypatch.setattr(parallel_mod, "shared_memory_supported", lambda: False)
        pool = WorkerPool(2, backend="process")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradeWarning)
                run = _train(observed, config, pool=pool, workers=2)
            _assert_same_run(run, baseline)
            assert pool.rung == "thread"
            assert pool.requested_backend == "process"
            assert pool.health["degrades"] == []
            assert pool.health["publishes"] == 0
        finally:
            pool.close()

    def test_degrade_resets_weight_version_counter(self, observed):
        # Satellite invariant: losing the shm rung bumps the parameter
        # version, so a hypothetical re-promote could never mistake newly
        # published segments for an already-loaded version and skip a
        # weight reload.
        _require_shm()
        config = _nemesis_config(epochs=1)
        pool = WorkerPool(2, backend="process")
        try:
            _train(observed, config, pool=pool, workers=2)
            version_before = pool._param_version
            assert version_before > 0
            with faults.inject("dispatch", exc=OSError, times=1):
                with pytest.warns(DegradeWarning):
                    _train(observed, config, pool=pool, workers=2)
            assert pool._param_version > version_before
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Crash-safe training: checkpoint_every + resume
# ---------------------------------------------------------------------------
class TestCrashSafeCheckpoint:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_mid_fit_kill_resumes_bit_identically(
        self, observed, tmp_path, dtype
    ):
        config = _nemesis_config(epochs=4, dtype=dtype)
        baseline = TGAEGenerator(config).fit(observed)
        path = tmp_path / "ckpt.npz"

        interrupted = TGAEGenerator(config)
        with faults.inject("epoch", exc=FaultInjected, index=2):
            with pytest.raises(FaultInjected):
                interrupted.fit(
                    observed, checkpoint_every=1, checkpoint_path=path
                )
        # The atomic writer may never leave a torn temp file behind.
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []
        assert path.exists()

        restored = load_generator(path)
        assert restored.train_state is not None
        assert restored.train_state.epoch == 2
        restored.update(epochs=2)

        assert restored.train_state.epoch == baseline.train_state.epoch
        assert restored.train_state.losses == baseline.train_state.losses
        base_state = baseline.model.state_dict()
        resumed_state = restored.model.state_dict()
        for name in base_state:
            assert np.array_equal(base_state[name], resumed_state[name]), name
        # Generated graphs after recovery are bit-identical too.
        a = baseline.generate(seed=9)
        b = restored.generate(seed=9)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.t, b.t)

    def test_kill_during_pooled_fit_resumes_bit_identically(
        self, observed, tmp_path
    ):
        # Same recovery contract with the shard work fanned over a live
        # process pool: the checkpoint captures exactly the pre-kill
        # lineage, independent of dispatch backend.
        _require_shm()
        config = _nemesis_config(epochs=4, workers=2)
        baseline = TGAEGenerator(config).fit(observed)
        baseline.close_pool()
        path = tmp_path / "ckpt.npz"

        interrupted = TGAEGenerator(config)
        try:
            with faults.inject("epoch", exc=FaultInjected, index=3):
                with pytest.raises(FaultInjected):
                    interrupted.fit(
                        observed, checkpoint_every=1, checkpoint_path=path
                    )
        finally:
            interrupted.close_pool()

        restored = load_generator(path)
        assert restored.train_state.epoch == 3
        try:
            restored.update(epochs=1)
        finally:
            restored.close_pool()
        base_state = baseline.model.state_dict()
        resumed_state = restored.model.state_dict()
        for name in base_state:
            assert np.array_equal(base_state[name], resumed_state[name]), name

    def test_kill_before_first_checkpoint_leaves_nothing(
        self, observed, tmp_path
    ):
        config = _nemesis_config(epochs=4)
        path = tmp_path / "ckpt.npz"
        with faults.inject("epoch", exc=FaultInjected, index=0):
            with pytest.raises(FaultInjected):
                TGAEGenerator(config).fit(
                    observed, checkpoint_every=1, checkpoint_path=path
                )
        assert not path.exists()
        assert glob.glob(str(tmp_path / "*")) == []

    def test_checkpoint_knobs_validated_together(self, observed, tmp_path):
        config = _nemesis_config(epochs=2)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        with pytest.raises(ConfigError, match="together"):
            train_tgae(model, observed, config, checkpoint_every=1)
        with pytest.raises(ConfigError, match="together"):
            train_tgae(
                model, observed, config, checkpoint_path=tmp_path / "x.npz"
            )
        with pytest.raises(ConfigError, match="checkpoint_every"):
            train_tgae(
                model, observed, config,
                checkpoint_every=0, checkpoint_path=tmp_path / "x.npz",
            )

    def test_autosave_cadence_respected(self, observed, tmp_path):
        config = _nemesis_config(epochs=4)
        path = tmp_path / "ckpt.npz"
        generator = TGAEGenerator(config)
        generator.fit(observed, checkpoint_every=3, checkpoint_path=path)
        # Only epoch 3 hit the cadence; the checkpoint must hold that
        # lineage point, not the final one.
        assert load_generator(path).train_state.epoch == 3


# ---------------------------------------------------------------------------
# Idempotent teardown
# ---------------------------------------------------------------------------
class TestIdempotentTeardown:
    def test_pool_close_is_idempotent(self, observed):
        config = _nemesis_config(epochs=1)
        pool = WorkerPool(2, backend="thread")
        _train(observed, config, pool=pool, workers=2)
        pool.close()
        pool.close()        # double close: no-op
        pool.__del__()      # del after close: no-op
        assert pool.closed
        with pytest.raises(PoolError, match="shut down"):
            pool.run(None, "train", [None, None])

    def test_unused_pool_close_and_del(self):
        pool = WorkerPool(2, backend="process")
        pool.close()
        pool.close()
        pool.__del__()

    def test_store_close_is_idempotent(self):
        _require_shm()
        store = SharedArrayStore({"a": np.arange(4, dtype=np.float64)})
        name = store.handle.segment
        assert _attachable(name)
        store.close()
        assert not _attachable(name)
        store.close()       # double close: no-op
        store.__del__()     # del after close: no-op
        assert store.closed

    def test_failed_store_construction_leaves_nothing(self):
        _require_shm()
        with faults.inject("shm-create", exc=OSError):
            with pytest.raises(OSError):
                SharedArrayStore({"a": np.arange(4, dtype=np.float64)})
        # The half-built store was collected without AttributeError noise
        # and no segment exists for it (construction failed before unlink
        # bookkeeping) -- nothing to assert beyond "no crash, no leak".


# ---------------------------------------------------------------------------
# Shared-memory leak freedom under every fault
# ---------------------------------------------------------------------------
class TestLeakFreedom:
    FAULTS = [
        pytest.param("shard", dict(exc=OSError, index=1, attempt=0),
                     id="shard-oserror"),
        pytest.param("shard", dict(action="crash", index=1, attempt=0),
                     id="worker-crash"),
        pytest.param("shard", dict(action="delay", delay=1.5, index=1,
                                   attempt=0), id="straggler"),
        pytest.param("dispatch", dict(exc=OSError, times=2),
                     id="dispatch-degrades"),
        pytest.param("shm-create", dict(exc=OSError), id="shm-alloc"),
    ]

    @pytest.mark.parametrize("site,kwargs", FAULTS)
    def test_no_segment_survives_teardown(self, observed, site, kwargs):
        _require_shm()
        config = _nemesis_config(epochs=1)
        pool = WorkerPool(
            2, backend="process",
            shard_timeout=0.5 if kwargs.get("action") == "delay" else None,
        )
        seen = set()
        try:
            _train(observed, config, pool=pool, workers=2)
            seen.update(pool.shm_segments())
            assert seen
            with faults.inject(site, **kwargs):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegradeWarning)
                    _train(observed, config, pool=pool, workers=2)
            seen.update(pool.shm_segments())
        finally:
            pool.close()
        for name in seen:
            assert not _attachable(name), name


# ---------------------------------------------------------------------------
# Nemesis state machine: faults interleaved with fit / update / generate
# ---------------------------------------------------------------------------
_TINY_GRAPH = communication_network(12, 40, 3, seed=7)
_TINY_CONFIG = fast_config(
    epochs=1, num_initial_nodes=4, train_shard_size=2, radius=1,
    embed_dim=8, hidden_dim=8, latent_dim=4, num_heads=1, time_dim=4,
    candidate_limit=6, workers=2, parallel_backend="thread", seed=13,
)


class NemesisMachine(RuleBasedStateMachine):
    """Interleave fault arming with the generator's full public lifecycle.

    Invariants: a fault either recovers transparently (retry / degrade --
    ``update`` and ``generate`` still succeed, generation stays
    deterministic) or surfaces as the typed injected exception
    (``FaultInjected`` from the epoch site); the pool only ever degrades
    *down* the ladder; teardown leaks nothing.  Thread backend keeps each
    step cheap enough for the state-machine settings tier on one core.
    """

    def __init__(self):
        super().__init__()
        faults.clear()
        self.generator = TGAEGenerator(copy.deepcopy(_TINY_CONFIG))
        self.pool = self.generator.worker_pool()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradeWarning)
            self.generator.fit(_TINY_GRAPH)
        engine = self.generator.engine()
        rows = engine.active_nodes()[0].shape[0]
        assert len(shard_rows(rows, engine._decode_width())) > 1  # generates cross

    # -- fault arming ---------------------------------------------------
    @rule(
        index=st.integers(0, 3),
        exc=st.sampled_from([OSError, pickle.PicklingError]),
    )
    def arm_shard_fault(self, index, exc):
        faults.install(FaultRule(site="shard", exc=exc, index=index, times=1))

    @rule()
    def arm_dispatch_fault(self):
        faults.install(FaultRule(site="dispatch", exc=OSError, times=1))

    @rule()
    def arm_epoch_fault(self):
        faults.install(FaultRule(site="epoch", exc=FaultInjected, times=1))

    @rule()
    def clear_faults(self):
        faults.clear()

    # -- lifecycle operations -------------------------------------------
    @rule()
    def update_one_epoch(self):
        epoch_before = self.generator.train_state.epoch
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradeWarning)
                self.generator.update(epochs=1)
        except (FaultInjected, PoolError):
            # A simulated mid-fit kill, or enough piled-up shard rules to
            # exhaust every rung: either way the failure is loud and the
            # lineage is exactly where it was, never half-advanced.
            assert self.generator.train_state.epoch == epoch_before
        else:
            assert self.generator.train_state.epoch == epoch_before + 1

    @rule(seed=st.integers(0, 5))
    def generate_is_deterministic(self, seed):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradeWarning)
                first = self.generator.generate(seed=seed)
                second = self.generator.generate(seed=seed)
        except PoolError:
            return  # every rung exhausted by armed rules: loud, not wrong
        assert np.array_equal(first.src, second.src)
        assert np.array_equal(first.dst, second.dst)
        assert np.array_equal(first.t, second.t)

    @precondition(lambda self: not faults.active())
    @rule()
    def quiet_operations_never_degrade_further(self):
        rungs_before = list(self.pool.health["degrades"])
        self.generator.generate(seed=0)
        assert self.pool.health["degrades"] == rungs_before

    # -- invariants ------------------------------------------------------
    @invariant()
    def ladder_only_moves_down(self):
        degrades = self.pool.health["degrades"]
        steps = [tuple(step.split("->")) for step in degrades]
        for src_rung, dst_rung in steps:
            assert LADDER.index(dst_rung) == LADDER.index(src_rung) + 1

    @invariant()
    def pool_stays_usable_until_teardown(self):
        assert not self.pool.closed

    def teardown(self):
        faults.clear()
        segments = self.pool.shm_segments()
        self.generator.close_pool()
        for name in segments:
            assert not _attachable(name)


NemesisMachine.TestCase.settings = hyp_settings(
    STATE_MACHINE_SETTINGS, stateful_step_count=8,
)
# ``crossing`` cuts the machine's generates into several shards, so they
# run (and meet their faults) on the pool's rung instead of in the caller.
TestNemesisMachine = pytest.mark.usefixtures("crossing")(NemesisMachine.TestCase)
