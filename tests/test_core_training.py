"""Integration tests: TGAE training, generation, and the ablation variants."""

import numpy as np
import pytest

from dense_oracle import score_matrix
from repro.core import (
    TGAEGenerator,
    TGAEModel,
    fast_config,
    train_tgae,
)
from repro.core.variants import VARIANTS
from repro.datasets import communication_network
from repro.errors import NotFittedError


@pytest.fixture(scope="module")
def observed():
    return communication_network(30, 200, 6, seed=5)


@pytest.fixture(scope="module")
def fitted(observed):
    config = fast_config(epochs=12, num_initial_nodes=24)
    return TGAEGenerator(config).fit(observed)


class TestTraining:
    def test_loss_decreases(self, observed):
        config = fast_config(epochs=25, num_initial_nodes=24, learning_rate=1e-2)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        history = train_tgae(model, observed, config)
        first = np.mean(history.losses[:5])
        last = np.mean(history.losses[-5:])
        assert last < first

    def test_history_lengths(self, observed):
        config = fast_config(epochs=4)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        history = train_tgae(model, observed, config)
        assert len(history.losses) == 4
        assert len(history.grad_norms) == 4
        assert history.final_loss == history.losses[-1]

    def test_losses_finite(self, observed):
        config = fast_config(epochs=6)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        history = train_tgae(model, observed, config)
        assert np.all(np.isfinite(history.losses))

    def test_model_in_eval_mode_after_training(self, observed):
        config = fast_config(epochs=2)
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, config)
        train_tgae(model, observed, config)
        assert not model.training


class TestGeneration:
    def test_edge_budget_matched(self, fitted, observed):
        generated = fitted.generate(seed=0)
        assert generated.num_edges == observed.num_edges

    def test_same_universe(self, fitted, observed):
        generated = fitted.generate(seed=0)
        assert generated.num_nodes == observed.num_nodes
        assert generated.num_timestamps == observed.num_timestamps
        assert generated.src.max() < observed.num_nodes
        assert generated.t.max() < observed.num_timestamps

    def test_no_self_loops(self, fitted):
        generated = fitted.generate(seed=1)
        assert np.all(generated.src != generated.dst)

    def test_per_temporal_node_out_degrees_match(self, fitted, observed):
        """Generation reproduces the observed out-degree of every (u, t)."""
        generated = fitted.generate(seed=2)
        obs = np.zeros((observed.num_nodes, observed.num_timestamps), dtype=int)
        gen = np.zeros_like(obs)
        np.add.at(obs, (observed.src, observed.t), 1)
        np.add.at(gen, (generated.src, generated.t), 1)
        # Out-degree can fall short only when a row lacks enough distinct
        # candidates; on this graph it should match everywhere.
        assert np.array_equal(obs, gen)

    def test_seeds_give_different_graphs(self, fitted):
        a = fitted.generate(seed=0)
        b = fitted.generate(seed=99)
        assert a != b

    def test_same_seed_reproducible(self, fitted):
        assert fitted.generate(seed=5) == fitted.generate(seed=5)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            TGAEGenerator(fast_config()).generate()

    def test_distinct_target_counts_match_observed(self, fitted, observed):
        """Per (u, t) the generator draws exactly as many *distinct* targets
        as the observed row had; extra edge budget becomes multi-edges."""
        generated = fitted.generate(seed=3)

        def distinct_triples(graph):
            return np.unique(
                np.stack([graph.src, graph.t, graph.dst], axis=1), axis=0
            ).shape[0]

        assert distinct_triples(generated) == distinct_triples(observed)


class TestVariants:
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_variant_end_to_end(self, observed, name):
        config = fast_config(epochs=3, num_initial_nodes=16)
        generator = VARIANTS[name](config)
        generator.fit(observed)
        generated = generator.generate(seed=0)
        assert generated.num_edges == observed.num_edges
        assert generator.name == name

    def test_variant_configs_differ(self):
        config = fast_config()
        g = VARIANTS["TGAE-g"](config)
        t = VARIANTS["TGAE-t"](config)
        n = VARIANTS["TGAE-n"](config)
        p = VARIANTS["TGAE-p"](config)
        assert g.config.neighbor_threshold == 1
        assert t.config.neighbor_threshold > 10**6
        assert n.config.uniform_initial_sampling
        assert not p.config.probabilistic


class TestScoreMatrix:
    def test_rows_are_distributions(self, observed):
        config = fast_config(epochs=2, num_initial_nodes=16)
        generator = TGAEGenerator(config).fit(observed)
        scores = score_matrix(generator, timestamps=[0])
        assert scores.shape == (observed.num_nodes, 1, observed.num_nodes)
        assert np.allclose(scores[:, 0, :].sum(axis=1), 1.0)
