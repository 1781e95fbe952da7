"""Tests for the sampled-softmax (candidate-set) decoder -- the scalability
extension implementing the paper's future-work direction."""

import dataclasses

import numpy as np
import pytest

from repro.autograd import tensor
from repro.core import EgoGraphSampler, TGAEGenerator, TGAEModel, fast_config
from repro.core.loss import candidate_reconstruction_loss, tgae_loss
from repro.datasets import communication_network
from repro.errors import ConfigError, ShapeError
from repro.graph import validate_generated


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 150, 5, seed=17)


SPARSE = fast_config(epochs=3, num_initial_nodes=12, candidate_limit=8)


class TestConfig:
    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigError):
            fast_config(candidate_limit=-1)

    def test_default_is_dense(self):
        assert fast_config().candidate_limit == 0


class TestSampler:
    def test_candidate_shape(self, observed):
        sampler = EgoGraphSampler(observed, SPARSE, np.random.default_rng(0))
        batch = sampler.next_batch()
        assert batch.candidates is not None
        assert batch.candidates.shape == (SPARSE.num_initial_nodes, 8)
        assert batch.candidates.max() < observed.num_nodes

    def test_positives_always_included(self, observed):
        sampler = EgoGraphSampler(observed, SPARSE, np.random.default_rng(1))
        batch = sampler.next_batch()
        for row, targets in enumerate(batch.target_rows):
            for target in np.unique(targets)[:8]:
                assert target in batch.candidates[row]

    def test_dense_mode_has_no_candidates(self, observed):
        dense = dataclasses.replace(SPARSE, candidate_limit=0)
        sampler = EgoGraphSampler(observed, dense, np.random.default_rng(2))
        assert sampler.next_batch().candidates is None


class TestDecoder:
    def test_candidate_logits_shape(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, SPARSE)
        sampler = EgoGraphSampler(observed, SPARSE, np.random.default_rng(3))
        batch = sampler.next_batch()
        decoded = model(batch.computation_batch(packed=False), sample=False,
                        candidates=batch.candidates)
        assert decoded.logits.shape == batch.candidates.shape

    def test_candidate_logits_match_dense_columns(self, observed):
        """Sparse logits must equal the corresponding dense logit columns."""
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, SPARSE)
        sampler = EgoGraphSampler(observed, SPARSE, np.random.default_rng(4))
        batch = sampler.next_batch()
        merged = batch.computation_batch(packed=False)
        dense = model(merged, sample=False).logits.numpy()
        sparse = model(merged, sample=False, candidates=batch.candidates).logits.numpy()
        for row in range(batch.candidates.shape[0]):
            assert np.allclose(sparse[row], dense[row][batch.candidates[row]])

    def test_loss_gradients_flow(self, observed):
        model = TGAEModel(observed.num_nodes, observed.num_timestamps, SPARSE)
        sampler = EgoGraphSampler(observed, SPARSE, np.random.default_rng(5))
        batch = sampler.next_batch()
        decoded = model(batch.computation_batch(packed=False), sample=True,
                        candidates=batch.candidates)
        loss = tgae_loss(decoded, batch.target_rows, kl_weight=1e-3,
                         candidates=batch.candidates)
        loss.backward()
        assert model.decoder.w_dec.grad is not None
        # Only candidate columns receive gradient.
        touched = np.unique(batch.candidates.reshape(-1))
        grad_cols = np.abs(model.decoder.w_dec.grad).sum(axis=0)
        untouched = np.setdiff1d(np.arange(observed.num_nodes), touched)
        assert np.allclose(grad_cols[untouched], 0.0)


class TestCandidateLoss:
    def test_perfect_prediction(self):
        logits = tensor(np.array([[50.0, 0.0, 0.0]]))
        candidates = np.array([[7, 3, 4]])
        loss = candidate_reconstruction_loss(logits, candidates, [np.array([7])])
        assert loss.item() < 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            candidate_reconstruction_loss(
                tensor(np.zeros((2, 3))), np.zeros((2, 4), dtype=int),
                [np.array([0]), np.array([1])],
            )

    def test_empty_targets_zero(self):
        loss = candidate_reconstruction_loss(
            tensor(np.zeros((1, 3))), np.array([[0, 1, 2]]), [np.array([])]
        )
        assert loss.item() == 0.0


class TestEndToEnd:
    def test_sparse_generator_valid(self, observed):
        generator = TGAEGenerator(SPARSE).fit(observed)
        generated = generator.generate(seed=0)
        report = validate_generated(observed, generated)
        assert report.ok, str(report)

    def test_sparse_training_loss_finite(self, observed):
        generator = TGAEGenerator(SPARSE).fit(observed)
        assert np.all(np.isfinite(generator.history.losses))

    def test_generation_prefers_partners(self, observed):
        """With candidate pools built from history, most generated edges
        should land on historical partners rather than random negatives."""
        config = dataclasses.replace(SPARSE, epochs=20)
        generator = TGAEGenerator(config).fit(observed)
        generated = generator.generate(seed=1)
        partners = set(zip(observed.src.tolist(), observed.dst.tolist()))
        hits = sum(
            1 for u, v in zip(generated.src.tolist(), generated.dst.tolist())
            if (u, v) in partners
        )
        assert hits / generated.num_edges > 0.3