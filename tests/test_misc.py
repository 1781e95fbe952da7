"""Coverage for small cross-cutting pieces: errors, base class, helpers."""

import pytest

from repro import (
    ConfigError,
    DatasetError,
    GenerationError,
    GradientError,
    GraphFormatError,
    NotFittedError,
    ReproError,
    ShapeError,
    TemporalGraph,
    TemporalGraphGenerator,
)
from repro.bench import default_tgae_config
from repro.datasets import communication_network


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ShapeError, GradientError, GraphFormatError, ConfigError,
         DatasetError, GenerationError, NotFittedError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_shape_error_is_value_error(self):
        assert issubclass(ShapeError, ValueError)

    def test_gradient_error_is_runtime_error(self):
        assert issubclass(GradientError, RuntimeError)


class TestGeneratorBase:
    class _Dummy(TemporalGraphGenerator):
        name = "Dummy"

        def _fit(self, graph):
            self.fitted_on = graph

        def _generate(self, seed):
            return self.observed.copy()

    def test_fit_returns_self(self):
        g = communication_network(10, 40, 3, seed=0)
        dummy = self._Dummy()
        assert dummy.fit(g) is dummy
        assert dummy.is_fitted

    def test_observed_property_guard(self):
        with pytest.raises(NotFittedError):
            _ = self._Dummy().observed

    def test_repr_reflects_state(self):
        dummy = self._Dummy()
        assert "fitted=False" in repr(dummy)
        dummy.fit(communication_network(10, 40, 3, seed=0))
        assert "fitted=True" in repr(dummy)


class TestHarnessDefaults:
    def test_default_config_scales_with_edges(self):
        small = communication_network(10, 50, 3, seed=0)
        big = communication_network(40, 2000, 6, seed=0)
        assert default_tgae_config(big).epochs >= default_tgae_config(small).epochs

    def test_default_config_valid(self):
        g = communication_network(10, 50, 3, seed=0)
        config = default_tgae_config(g)
        assert config.epochs >= 1
        assert config.num_initial_nodes >= 1


class TestPackageSurface:
    def test_version_string(self):
        import repro

        assert repro.__version__

    def test_temporal_graph_reexported(self):
        assert TemporalGraph is not None

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
