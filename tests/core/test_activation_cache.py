"""The shared activation cache must be transparent and must actually hit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY, Config
from repro.core import (
    ActivationCache,
    NoiseTrainer,
    ShredderLoss,
    ShredderPipeline,
    SplitInferenceModel,
    clear_activation_cache,
    get_activation_cache,
)
from repro.errors import ConfigurationError
from repro.models import build_model
from repro.nn import Tensor, TensorDataset, no_grad
from tests.helpers import randomise_batch_norms


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_activation_cache()
    yield
    clear_activation_cache()


class TestActivationCache:
    def test_returns_identical_arrays(self, lenet_bundle):
        split = SplitInferenceModel(lenet_bundle.model)
        cache = ActivationCache()
        acts, labels = cache.get_or_compute(split, lenet_bundle.test_set)
        direct_acts, direct_labels = split.materialize_activations(
            lenet_bundle.test_set
        )
        np.testing.assert_array_equal(acts, direct_acts)
        np.testing.assert_array_equal(labels, direct_labels)

    def test_hit_returns_same_objects(self, lenet_bundle):
        split = SplitInferenceModel(lenet_bundle.model)
        cache = ActivationCache()
        first = cache.get_or_compute(split, lenet_bundle.test_set)
        second = cache.get_or_compute(split, lenet_bundle.test_set)
        assert first[0] is second[0] and first[1] is second[1]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_hits_across_split_instances_of_same_model(self, lenet_bundle):
        cache = ActivationCache()
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model), lenet_bundle.test_set
        )
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model), lenet_bundle.test_set
        )
        assert cache.stats.hits == 1

    def test_different_cut_misses(self, lenet_bundle):
        cache = ActivationCache()
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv1"), lenet_bundle.test_set
        )
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv2"), lenet_bundle.test_set
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_weight_mutation_invalidates(self, lenet_bundle):
        split = SplitInferenceModel(lenet_bundle.model)
        cache = ActivationCache()
        stale_acts, _ = cache.get_or_compute(split, lenet_bundle.test_set)
        param = lenet_bundle.model.parameters()[0]
        original = param.data.copy()
        try:
            param.data += 0.5
            fresh_acts, _ = cache.get_or_compute(split, lenet_bundle.test_set)
            assert cache.stats.misses == 2
            assert not np.array_equal(stale_acts, fresh_acts)
        finally:
            param.data[...] = original

    def test_lru_eviction(self, lenet_bundle):
        cache = ActivationCache(max_entries=1)
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv1"), lenet_bundle.test_set
        )
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv2"), lenet_bundle.test_set
        )
        assert len(cache) == 1 and cache.stats.evictions == 1
        # The conv1 entry was evicted, so asking again is a miss.
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv1"), lenet_bundle.test_set
        )
        assert cache.stats.misses == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ActivationCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            ActivationCache(max_bytes=0)

    def test_byte_budget_evicts_lru(self, lenet_bundle):
        cache = ActivationCache(max_entries=8, max_bytes=1)
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv1"), lenet_bundle.test_set
        )
        # A single oversized entry is kept, but adding a second evicts
        # the older one to respect the budget.
        assert len(cache) == 1
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model, "conv2"), lenet_bundle.test_set
        )
        assert len(cache) == 1 and cache.stats.evictions == 1

    def test_clear(self, lenet_bundle):
        cache = ActivationCache()
        cache.get_or_compute(
            SplitInferenceModel(lenet_bundle.model), lenet_bundle.test_set
        )
        cache.clear()
        assert len(cache) == 0


class TestGlobalCacheIntegration:
    def test_trainers_share_materialisation(self, lenet_bundle):
        split = SplitInferenceModel(lenet_bundle.model)
        kwargs = dict(loss=ShredderLoss(1e-3), rng=np.random.default_rng(0))
        first = NoiseTrainer(
            split, lenet_bundle.train_set, lenet_bundle.test_set, **kwargs
        )
        baseline = get_activation_cache().stats.hits
        second = NoiseTrainer(
            SplitInferenceModel(lenet_bundle.model),
            lenet_bundle.train_set,
            lenet_bundle.test_set,
            **kwargs,
        )
        assert get_activation_cache().stats.hits == baseline + 2
        assert second.train_activations is first.train_activations
        np.testing.assert_array_equal(second.eval_labels, first.eval_labels)

    def test_batch_norm_update_reaches_new_trainer(self):
        # The activation cache misses on the changed statistics; the
        # executor it materialises through must then not reuse the program
        # lowered with the old BatchNorm constants.
        rng = np.random.default_rng(5)
        model = build_model("cifar", rng, width=0.5).eval()
        randomise_batch_norms(model.net, rng)
        images = rng.normal(size=(8, *model.input_shape)).astype(np.float32)
        data = TensorDataset(images, np.arange(8) % 10)
        split = SplitInferenceModel(model)
        kwargs = dict(loss=ShredderLoss(1e-3), rng=np.random.default_rng(0))
        before = NoiseTrainer(split, data, data, **kwargs).train_activations
        model.train()
        with no_grad():
            model(Tensor(2.0 * images + 1.0))  # BN statistics move in place
        after = NoiseTrainer(split, data, data, **kwargs).train_activations
        with no_grad():
            expected = split.local(Tensor(images)).numpy()
        np.testing.assert_allclose(after, expected, atol=2e-4, rtol=2e-4)
        assert np.abs(after - before).max() > 0.1

    def test_pipelines_share_materialisation(self, lenet_bundle):
        config = Config(scale=TINY)
        ShredderPipeline(lenet_bundle, config=config)
        before = get_activation_cache().stats.hits
        ShredderPipeline(lenet_bundle, config=config)
        assert get_activation_cache().stats.hits == before + 2
