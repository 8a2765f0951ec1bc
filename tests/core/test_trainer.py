"""Tests for the noise trainer — the paper's core algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConstantLambda,
    DecayOnTarget,
    MultiNoiseTensor,
    NoiseTensor,
    NoiseTrainer,
    ShredderLoss,
    SplitInferenceModel,
)
from repro.errors import TrainingError
from tests.helpers import (
    mixed_flag_trainer,
    random_data_trainer,
    requires_grad_flags,
)


@pytest.fixture()
def trainer(lenet_bundle):
    split = SplitInferenceModel(lenet_bundle.model)
    return NoiseTrainer(
        split,
        lenet_bundle.train_set,
        lenet_bundle.test_set,
        loss=ShredderLoss(1e-3),
        lr=1e-2,
        batch_size=32,
        eval_every=25,
        rng=np.random.default_rng(0),
    )


def fresh_noise(trainer, scale=1.0, seed=0):
    return NoiseTensor.from_laplace(
        trainer.split.activation_shape, np.random.default_rng(seed), scale=scale
    )


class TestTrainingDynamics:
    def test_accuracy_recovers_during_training(self, trainer):
        result = trainer.train(fresh_noise(trainer, scale=2.0), iterations=150)
        assert result.history.accuracies[-1] > result.history.accuracies[0] + 0.1

    def test_cross_entropy_decreases(self, trainer):
        result = trainer.train(fresh_noise(trainer, scale=2.0), iterations=150)
        first = np.mean(result.history.cross_entropies[:10])
        last = np.mean(result.history.cross_entropies[-10:])
        assert last < first

    def test_lambda_zero_baseline_loses_privacy(self, trainer):
        # Figure 4 (black lines): regular (privacy-agnostic) training drives
        # in vivo privacy *down* as cross entropy is minimised.
        trainer.schedule = ConstantLambda(0.0)
        result = trainer.train(fresh_noise(trainer, scale=2.0), iterations=200)
        assert result.history.in_vivo_privacies[-1] < result.history.in_vivo_privacies[0]

    def test_large_lambda_grows_privacy(self, trainer):
        # Figure 4 (orange lines): Shredder's loss pushes in vivo privacy up.
        trainer.schedule = ConstantLambda(5e-2)
        result = trainer.train(fresh_noise(trainer, scale=0.5), iterations=200)
        assert result.history.in_vivo_privacies[-1] > result.history.in_vivo_privacies[0]

    def test_decay_on_target_stabilises_privacy(self, trainer):
        trainer.schedule = DecayOnTarget(base=5e-2, target=0.6, decay=0.3)
        result = trainer.train(fresh_noise(trainer, scale=0.5), iterations=250)
        history = result.history
        # λ starts at its base and is decayed once privacy reaches the
        # target; training ran under a clone, so the trainer's schedule
        # is untouched.
        reached = next(
            step
            for step, privacy in enumerate(history.in_vivo_privacies)
            if privacy >= 0.6
        )
        assert history.lambdas[:reached] == [5e-2] * reached
        assert history.lambdas[reached] < 5e-2
        assert history.lambdas[-1] < 5e-2
        assert trainer.schedule.reached_at_step is None

    def test_epochs_accounting(self, trainer):
        result = trainer.train(fresh_noise(trainer), iterations=100)
        expected = 100 * trainer.batch_size / len(trainer.train_labels)
        assert result.epochs == pytest.approx(expected)

    def test_history_lengths(self, trainer):
        result = trainer.train(fresh_noise(trainer), iterations=60)
        h = result.history
        assert len(h.iterations) == len(h.losses) == len(h.in_vivo_privacies) == 60
        assert len(h.accuracies) == len(h.accuracy_iterations)
        assert h.accuracy_iterations[-1] == 59

    def test_result_noise_is_a_copy(self, trainer):
        noise = fresh_noise(trainer)
        result = trainer.train(noise, iterations=10)
        noise.data[...] = 0.0
        assert np.abs(result.noise).sum() > 0


class TestValidation:
    def test_zero_iterations_rejected(self, trainer):
        with pytest.raises(TrainingError):
            trainer.train(fresh_noise(trainer), iterations=0)

    def test_wrong_noise_shape_rejected(self, trainer):
        bad = NoiseTensor.from_array(np.zeros((3, 2, 2), dtype=np.float32))
        with pytest.raises(TrainingError):
            trainer.train(bad, iterations=10)

    def test_signal_power_positive(self, trainer):
        assert trainer.signal_power > 0

    def test_backbone_left_frozen(self, trainer, lenet_bundle):
        trainer.train(fresh_noise(trainer), iterations=20)
        assert all(not p.requires_grad for p in lenet_bundle.model.parameters())

    def test_weights_unchanged_by_noise_training(self, trainer, lenet_bundle):
        before = {
            name: param.numpy().copy()
            for name, param in lenet_bundle.model.named_parameters()
        }
        trainer.train(fresh_noise(trainer), iterations=30)
        for name, param in lenet_bundle.model.named_parameters():
            np.testing.assert_array_equal(param.numpy(), before[name]), name


class TestGradientFreeTraining:
    """``train`` computes no weight gradients and leaves every parameter's
    ``requires_grad`` as it found it."""

    def test_no_parameter_gradients_and_flags_restored(self):
        trainer = mixed_flag_trainer()
        model = trainer.split.model
        flags = requires_grad_flags(model)
        assert any(flags) and not all(flags)
        trainer.train(fresh_noise(trainer), iterations=6)
        assert all(parameter.grad is None for parameter in model.parameters())
        assert requires_grad_flags(model) == flags

    def test_flags_restored_when_training_raises(self):
        trainer = mixed_flag_trainer()
        model = trainer.split.model
        flags = requires_grad_flags(model)
        bad = NoiseTensor.from_array(np.zeros((3, 2, 2), dtype=np.float32))
        with pytest.raises(TrainingError):
            trainer.train(bad, iterations=6)
        assert requires_grad_flags(model) == flags
        diverging = NoiseTensor.from_array(
            np.full(trainer.split.activation_shape, np.nan, dtype=np.float32)
        )
        with pytest.raises(TrainingError, match="diverged"):
            trainer.train(diverging, iterations=6)
        assert requires_grad_flags(model) == flags

    def test_noise_matches_a_model_frozen_beforehand(self):
        trainer = mixed_flag_trainer()
        learned = trainer.train(fresh_noise(trainer), iterations=6).noise
        frozen = mixed_flag_trainer()
        frozen.split.model.freeze()
        expected = frozen.train(fresh_noise(frozen), iterations=6).noise
        np.testing.assert_array_equal(learned, expected)


class TestEvalModeDuringTraining:
    """``train`` and ``train_many`` run the backbone in eval mode and give
    the model its own training flag back.  cifar's remote half holds a
    Dropout after its first Linear, alexnet's one before it."""

    @staticmethod
    def _learn(trainer, method, noise):
        if method == "train":
            return [trainer.train(NoiseTensor(noise[:1]), 4).noise]
        return [r.noise for r in trainer.train_many(MultiNoiseTensor(noise), 4)]

    @pytest.mark.parametrize("method", ["train", "train_many"])
    @pytest.mark.parametrize("network", ["cifar", "alexnet"])
    def test_training_mode_model_learns_as_in_eval_mode(self, network, method):
        reference = random_data_trainer(network)
        shape = reference.split.activation_shape
        noise = np.random.default_rng(7).laplace(size=(3, *shape)).astype(np.float32)
        expected = self._learn(reference, method, noise)
        trainer = random_data_trainer(network)
        model = trainer.split.model.train()
        learned = self._learn(trainer, method, noise)
        assert model.training
        assert all(module.training for _, module in model.named_modules())
        for ours, theirs in zip(learned, expected):
            np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize("method", ["train", "train_many"])
    def test_training_flag_restored_when_training_raises(self, method):
        trainer = random_data_trainer("cifar")
        model = trainer.split.model.train()
        diverging = np.full((2, *trainer.split.activation_shape), np.nan, np.float32)
        with pytest.raises(TrainingError, match="diverged"):
            self._learn(trainer, method, diverging)
        assert all(module.training for _, module in model.named_modules())


class TestStreamingEvalSubset:
    def _make_trainer(self, lenet_bundle, eval_subset):
        split = SplitInferenceModel(lenet_bundle.model)
        return NoiseTrainer(
            split,
            lenet_bundle.train_set,
            lenet_bundle.test_set,
            loss=ShredderLoss(1e-3),
            lr=1e-2,
            batch_size=32,
            eval_every=10,
            rng=np.random.default_rng(0),
            eval_subset=eval_subset,
            eval_rng=np.random.default_rng(42),
        )

    def test_trained_noise_identical_to_full_eval_run(self, lenet_bundle):
        """Subset probing must not perturb training (it only reads)."""
        full = self._make_trainer(lenet_bundle, None).train(
            fresh_noise(self._make_trainer(lenet_bundle, None)), 40
        )
        subset = self._make_trainer(lenet_bundle, 16).train(
            fresh_noise(self._make_trainer(lenet_bundle, 16)), 40
        )
        np.testing.assert_array_equal(full.noise, subset.noise)

    def test_final_accuracy_is_full_set(self, lenet_bundle):
        trainer_full = self._make_trainer(lenet_bundle, None)
        trainer_sub = self._make_trainer(lenet_bundle, 8)
        result_full = trainer_full.train(fresh_noise(trainer_full), 21)
        result_sub = trainer_sub.train(fresh_noise(trainer_sub), 21)
        assert result_sub.final_accuracy == result_full.final_accuracy

    def test_probe_schedule_unchanged(self, lenet_bundle):
        trainer = self._make_trainer(lenet_bundle, 8)
        result = trainer.train(fresh_noise(trainer), 25)
        assert result.history.accuracy_iterations == [0, 10, 20, 24]
        assert len(result.history.accuracies) == 4

    def test_subset_probes_rotate_through_eval_set(self, lenet_bundle):
        from repro.core.trainer import _StreamingEvalPlan

        n = 96
        plan = _StreamingEvalPlan(n, 8, np.random.default_rng(0))
        seen = set()
        for _ in range(n // 8):
            window = plan.indices()
            assert len(window) == 8
            seen.update(window.tolist())
        # One full rotation covers the whole eval set exactly once.
        assert len(seen) == n

    def test_train_many_matches_sequential_with_subset(self, lenet_bundle):
        trainer = self._make_trainer(lenet_bundle, 12)
        noises = [fresh_noise(trainer, seed=i) for i in range(3)]
        results = trainer.train_many(noises, 15)
        assert len(results) == 3
        for result in results:
            assert len(result.history.accuracies) == len(
                result.history.accuracy_iterations
            )

    def test_invalid_subset_rejected(self, lenet_bundle):
        trainer = self._make_trainer(lenet_bundle, 0)
        with pytest.raises(TrainingError):
            trainer.train(fresh_noise(trainer), 11)
