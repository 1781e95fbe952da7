"""Tests for external node-feature support (Sec. III: with/w.o. features)."""

import numpy as np
import pytest

from repro import faults
from repro.core import TGAEGenerator, TGAEModel, fast_config
from repro.datasets import communication_network
from repro.errors import ConfigError, NotFittedError, ShapeError


@pytest.fixture(scope="module")
def observed():
    return communication_network(15, 80, 4, seed=13)


CONFIG = fast_config(epochs=2, num_initial_nodes=8)


class TestStaticFeatures:
    def test_fit_with_static_features(self, observed):
        features = np.random.default_rng(0).standard_normal((observed.num_nodes, 5))
        generator = TGAEGenerator(CONFIG).fit(observed, node_features=features)
        generated = generator.generate(seed=0)
        assert generated.num_edges == observed.num_edges

    def test_features_change_encoding(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG,
                          feature_dim=5)
        nodes = np.array([[0, 0], [1, 1]])
        baseline = model.encoder.node_features(nodes).numpy()
        features = np.random.default_rng(1).standard_normal((observed.num_nodes, 5))
        model.encoder.set_external_features(features)
        augmented = model.encoder.node_features(nodes).numpy()
        assert not np.allclose(baseline, augmented)

    def test_clearing_features(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG,
                          feature_dim=5)
        features = np.random.default_rng(1).standard_normal((observed.num_nodes, 5))
        model.encoder.set_external_features(features)
        model.encoder.set_external_features(None)
        nodes = np.array([[0, 0]])
        baseline = TGAEModel(
            observed.num_nodes, observed.num_timestamps, CONFIG, feature_dim=5
        ).encoder.node_features(nodes).numpy()
        assert np.allclose(model.encoder.node_features(nodes).numpy(), baseline)


class TestTemporalFeatures:
    def test_fit_with_per_snapshot_features(self, observed):
        features = np.random.default_rng(2).standard_normal(
            (observed.num_timestamps, observed.num_nodes, 3)
        )
        generator = TGAEGenerator(CONFIG).fit(observed, node_features=features)
        assert generator.generate(seed=0).num_edges == observed.num_edges

    def test_time_indexed_lookup(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG,
                          feature_dim=2)
        features = np.zeros((observed.num_timestamps, observed.num_nodes, 2))
        features[1, 3] = [100.0, 100.0]
        model.encoder.set_external_features(features)
        at_t0 = model.encoder.node_features(np.array([[3, 0]])).numpy()
        at_t1 = model.encoder.node_features(np.array([[3, 1]])).numpy()
        assert not np.allclose(at_t0, at_t1)


class TestValidation:
    def test_wrong_shape_raises(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG,
                          feature_dim=5)
        with pytest.raises(ValueError):
            model.encoder.set_external_features(np.zeros((3, 5)))

    def test_wrong_rank_raises(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG,
                          feature_dim=5)
        with pytest.raises(ValueError):
            model.encoder.set_external_features(np.zeros(5))

    def test_features_without_support_raise(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG)
        with pytest.raises(ValueError):
            model.encoder.set_external_features(
                np.zeros((observed.num_nodes, 5))
            )

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (2, 15, 5, 1)])
    def test_failed_fit_leaves_generator_unfitted(self, observed, shape):
        generator = TGAEGenerator(CONFIG)
        with pytest.raises(ShapeError):
            generator.fit(observed, node_features=np.zeros(shape))
        assert not generator.is_fitted
        assert generator.model is None
        with pytest.raises(NotFittedError):
            generator.generate(seed=0)

    def test_fit_that_raises_in_training_leaves_generator_unfitted(self, observed):
        generator = TGAEGenerator(CONFIG)
        with faults.inject("epoch", exc=OSError, index=1):
            with pytest.raises(OSError):
                generator.fit(observed)
        assert not generator.is_fitted
        assert generator.model is None
        assert generator.history is None
        assert generator.train_state is None
        with pytest.raises(NotFittedError):
            generator.generate(seed=0)

    def test_refit_that_raises_in_training_keeps_previous_fit(self, observed):
        generator = TGAEGenerator(CONFIG).fit(observed)
        model, history, state = generator.model, generator.history, generator.train_state
        before = generator.generate(seed=0)
        other = communication_network(15, 60, 4, seed=14)
        with faults.inject("epoch", exc=OSError, index=1):
            with pytest.raises(OSError):
                generator.fit(other)
        assert generator.observed is observed
        assert generator.model is model
        assert generator.history is history
        assert generator.train_state is state
        assert generator.generate(seed=0) == before

    def test_update_that_raises_in_training_keeps_previous_state(self, observed):
        generator = TGAEGenerator(CONFIG).fit(observed)
        weights = generator.model.state_dict()
        history, state = generator.history, generator.train_state
        before = generator.generate(seed=0)
        edges = ([0, 1], [2, 3], [1, 2])
        # Epoch index 3 is the update's second epoch: one epoch has stepped.
        with faults.inject("epoch", exc=OSError, index=3):
            with pytest.raises(OSError):
                generator.update(edges, epochs=2)
        assert generator.observed is observed
        assert generator.history is history
        assert generator.train_state is state
        for name, array in generator.model.state_dict().items():
            np.testing.assert_array_equal(array, weights[name], err_msg=name)
        assert generator.generate(seed=0) == before
        # A retry lands exactly where an update that never failed lands.
        generator.update(edges, epochs=2)
        clean = TGAEGenerator(CONFIG).fit(observed).update(edges, epochs=2)
        assert generator.train_state.epoch == 4
        assert generator.history.losses == clean.history.losses
        assert generator.generate(seed=0) == clean.generate(seed=0)

    def test_wrong_shape_is_a_shape_error(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG,
                          feature_dim=5)
        with pytest.raises(ShapeError):
            model.encoder.set_external_features(np.zeros((3, 5)))
        with pytest.raises(ShapeError):
            model.encoder.set_external_features(np.zeros(5))

    def test_features_without_support_are_a_config_error(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, CONFIG)
        with pytest.raises(ConfigError):
            model.encoder.set_external_features(np.zeros((observed.num_nodes, 5)))
