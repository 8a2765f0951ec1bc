"""Batched multi-member noise training must match sequential training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY, Config
from repro.core import (
    ConstantLambda,
    DecayOnTarget,
    MultiNoiseTensor,
    NoiseTensor,
    NoiseTrainer,
    ShredderLoss,
    ShredderPipeline,
    SplitInferenceModel,
    in_vivo_privacy_members,
    noise_variance,
    noise_variance_members,
)
from repro.errors import ConfigurationError, TrainingError
from repro.nn import Tensor
from repro.nn import functional as F
from tests.helpers import mixed_flag_trainer, requires_grad_flags
from tests.oracles import collect_reference, train_reference


def make_trainer(bundle, **kwargs):
    split = SplitInferenceModel(bundle.model)
    defaults = dict(
        loss=ShredderLoss(1e-3),
        lr=1e-2,
        batch_size=32,
        eval_every=25,
    )
    defaults.update(kwargs)
    return NoiseTrainer(split, bundle.train_set, bundle.test_set, **defaults)


def fresh_noises(trainer, m, scale=1.0):
    return [
        NoiseTensor.from_laplace(
            trainer.split.activation_shape, np.random.default_rng(seed), scale=scale
        )
        for seed in range(m)
    ]


class TestMultiNoiseTensor:
    def test_from_members_stacks(self):
        members = [
            NoiseTensor.from_array(np.full((2, 3, 3), float(i), dtype=np.float32))
            for i in range(4)
        ]
        bank = MultiNoiseTensor.from_members(members)
        assert bank.n_members == 4
        assert bank.activation_shape == (2, 3, 3)
        for i in range(4):
            np.testing.assert_array_equal(bank.member(i), members[i].data)

    def test_members_iterates_with_batch_dim(self):
        bank = MultiNoiseTensor(np.zeros((3, 2, 2), dtype=np.float32))
        shapes = [member.shape for member in bank.members()]
        assert shapes == [(1, 2, 2)] * 3

    def test_mismatched_shapes_rejected(self):
        members = [
            NoiseTensor.from_array(np.zeros((2, 2), dtype=np.float32)),
            NoiseTensor.from_array(np.zeros((3, 2), dtype=np.float32)),
        ]
        with pytest.raises(ConfigurationError):
            MultiNoiseTensor.from_members(members)

    def test_from_laplace_uses_per_member_rngs(self):
        rngs = [np.random.default_rng(s) for s in (0, 0, 1)]
        bank = MultiNoiseTensor.from_laplace(3, (4, 2, 2), rngs)
        np.testing.assert_array_equal(bank.member(0), bank.member(1))
        assert not np.array_equal(bank.member(0), bank.member(2))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiNoiseTensor.from_members([])


class TestPerMemberReductions:
    def test_noise_variance_members_matches_scalar(self, rng):
        bank = rng.normal(size=(5, 3, 4, 4)).astype(np.float32)
        per_member = noise_variance_members(bank)
        for i in range(5):
            assert per_member[i] == pytest.approx(noise_variance(bank[i]), rel=1e-12)

    def test_in_vivo_members_matches_scalar(self, rng):
        bank = rng.normal(size=(3, 2, 2, 2)).astype(np.float32)
        per_member = in_vivo_privacy_members(2.5, bank)
        for i in range(3):
            assert per_member[i] == pytest.approx(
                noise_variance(bank[i]) / 2.5, rel=1e-12
            )

    @pytest.mark.parametrize("variant", ["l1", "inverse_variance"])
    def test_loss_many_matches_individual_calls(self, rng, variant):
        m, b, classes = 3, 16, 10
        logits_data = rng.normal(size=(m * b, classes)).astype(np.float32)
        targets = rng.integers(0, classes, size=m * b)
        bank_data = rng.normal(size=(m, 4, 2, 2)).astype(np.float32)
        lambdas = [1e-2, 5e-3, 0.0]

        bank = MultiNoiseTensor(bank_data.copy())
        logits = Tensor(logits_data.reshape(m, b, classes).copy(), requires_grad=True)
        loss = ShredderLoss(1e-2, variant=variant)
        total, cross_entropies, privacy, sign = loss.many_arrays(
            logits, targets.reshape(m, b), bank, lambdas
        )
        total.backward()

        for i in range(m):
            single_noise = NoiseTensor(bank_data[i : i + 1].copy())
            single_logits = Tensor(
                logits_data[i * b : (i + 1) * b].copy(), requires_grad=True
            )
            single_total, single_parts = ShredderLoss(lambdas[i], variant)(
                single_logits, targets[i * b : (i + 1) * b], single_noise
            )
            single_total.backward()
            assert cross_entropies[i] == pytest.approx(
                single_parts.cross_entropy, rel=1e-6
            )
            assert privacy[i] == pytest.approx(single_parts.privacy_term, rel=1e-5)
            member_total = cross_entropies[i] + sign * lambdas[i] * privacy[i]
            assert member_total == pytest.approx(single_parts.total, rel=1e-5)
            np.testing.assert_allclose(
                bank.grad[i], single_noise.grad[0], rtol=1e-5, atol=1e-7
            )
            np.testing.assert_allclose(
                logits.grad[i], single_logits.grad, rtol=1e-5, atol=1e-8
            )

    def test_loss_many_lambda_count_mismatch(self, rng):
        bank = MultiNoiseTensor(np.zeros((2, 2, 2), dtype=np.float32))
        logits = Tensor(
            rng.normal(size=(2, 2, 3)).astype(np.float32), requires_grad=True
        )
        with pytest.raises(ConfigurationError):
            ShredderLoss(1e-3).many_arrays(
                logits, np.zeros((2, 2), dtype=int), bank, [1e-3]
            )

    def test_many_arrays_rejects_member_flattened_logits(self, rng):
        bank = MultiNoiseTensor(np.zeros((2, 2, 2), dtype=np.float32))
        logits = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        with pytest.raises(ConfigurationError):
            ShredderLoss(1e-3).many_arrays(
                logits, np.zeros(4, dtype=int), bank, [1e-3, 1e-3]
            )

    def test_many_arrays_cross_entropy_matches_scalar(self, rng):
        # many_arrays' fused group-mean CE against the reference scalar
        # cross_entropy, member by member.
        m, b = 3, 4
        logits_data = rng.normal(size=(m * b, 5)).astype(np.float32)
        targets = rng.integers(0, 5, size=m * b)
        bank = MultiNoiseTensor(np.zeros((m, 2, 2), dtype=np.float32))
        _, ce, _, _ = ShredderLoss(0.0).many_arrays(
            Tensor(logits_data.reshape(m, b, 5), requires_grad=True),
            targets.reshape(m, b),
            bank,
            [0.0] * m,
        )
        for g in range(m):
            single = F.cross_entropy(
                Tensor(logits_data[g * b : (g + 1) * b]), targets[g * b : (g + 1) * b]
            )
            assert float(ce[g]) == pytest.approx(single.item(), rel=1e-6)


class TestTrainManyParity:
    def test_matches_sequential_training(self, lenet_bundle):
        m, iterations = 3, 40
        seq_trainer = make_trainer(lenet_bundle, rng=np.random.default_rng(42))
        sequential = [
            train_reference(seq_trainer, noise, iterations)
            for noise in fresh_noises(seq_trainer, m, scale=1.5)
        ]
        bat_trainer = make_trainer(lenet_bundle, rng=np.random.default_rng(42))
        batched = bat_trainer.train_many(
            fresh_noises(bat_trainer, m, scale=1.5), iterations
        )
        assert len(batched) == m
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(bat.noise, seq.noise, atol=1e-5)
            assert bat.final_in_vivo_privacy == pytest.approx(
                seq.final_in_vivo_privacy, rel=1e-4
            )
            assert bat.final_accuracy == pytest.approx(seq.final_accuracy, abs=0.03)
            assert bat.epochs == pytest.approx(seq.epochs)
            np.testing.assert_allclose(
                bat.history.cross_entropies,
                seq.history.cross_entropies,
                rtol=1e-3,
                atol=1e-4,
            )
            assert bat.history.accuracy_iterations == seq.history.accuracy_iterations

    def test_accepts_prebuilt_bank(self, lenet_bundle):
        trainer = make_trainer(lenet_bundle, rng=np.random.default_rng(0))
        bank = MultiNoiseTensor.from_members(fresh_noises(trainer, 2))
        results = trainer.train_many(bank, 10)
        assert len(results) == 2
        for result in results:
            assert result.noise.shape == (1, *trainer.split.activation_shape)

    def test_history_lengths(self, lenet_bundle):
        trainer = make_trainer(lenet_bundle, rng=np.random.default_rng(1))
        results = trainer.train_many(fresh_noises(trainer, 2), 30)
        for result in results:
            h = result.history
            assert len(h.iterations) == len(h.losses) == len(h.lambdas) == 30
            assert len(h.accuracies) == len(h.accuracy_iterations)
            assert h.accuracy_iterations[-1] == 29

    def test_per_member_decay_schedules_are_independent(self, lenet_bundle):
        # One member starts far above the decay target, the other far
        # below; with per-member clones only the first sees λ decayed
        # immediately.
        trainer = make_trainer(
            lenet_bundle,
            schedule=DecayOnTarget(base=5e-2, target=0.5, decay=0.5),
            rng=np.random.default_rng(2),
        )
        loud = NoiseTensor.from_laplace(
            trainer.split.activation_shape, np.random.default_rng(0), scale=5.0
        )
        quiet = NoiseTensor.from_laplace(
            trainer.split.activation_shape, np.random.default_rng(1), scale=0.05
        )
        results = trainer.train_many([loud, quiet], 5)
        assert results[0].history.lambdas[0] < 5e-2
        assert results[1].history.lambdas[0] == pytest.approx(5e-2)

    def test_zero_iterations_rejected(self, lenet_bundle):
        trainer = make_trainer(lenet_bundle)
        with pytest.raises(TrainingError):
            trainer.train_many(fresh_noises(trainer, 2), 0)

    def test_empty_members_rejected(self, lenet_bundle):
        trainer = make_trainer(lenet_bundle)
        with pytest.raises(TrainingError):
            trainer.train_many([], 10)

    def test_wrong_shape_rejected(self, lenet_bundle):
        trainer = make_trainer(lenet_bundle)
        bad = MultiNoiseTensor(np.zeros((2, 3, 2, 2), dtype=np.float32))
        with pytest.raises(TrainingError):
            trainer.train_many(bad, 10)

    def test_weights_untouched(self, lenet_bundle):
        trainer = make_trainer(lenet_bundle, rng=np.random.default_rng(3))
        before = {
            name: param.numpy().copy()
            for name, param in lenet_bundle.model.named_parameters()
        }
        trainer.train_many(fresh_noises(trainer, 2), 15)
        for name, param in lenet_bundle.model.named_parameters():
            np.testing.assert_array_equal(param.numpy(), before[name])


class TestGradientFreeTrainMany:
    """``train_many`` computes no weight gradients and leaves every
    parameter's ``requires_grad`` as it found it."""

    def test_no_parameter_gradients_and_flags_restored(self):
        trainer = mixed_flag_trainer()
        model = trainer.split.model
        flags = requires_grad_flags(model)
        assert any(flags) and not all(flags)
        trainer.train_many(fresh_noises(trainer, 2), 6)
        assert all(parameter.grad is None for parameter in model.parameters())
        assert requires_grad_flags(model) == flags

    def test_flags_restored_when_training_raises(self):
        trainer = mixed_flag_trainer()
        model = trainer.split.model
        flags = requires_grad_flags(model)
        with pytest.raises(TrainingError):
            trainer.train_many(MultiNoiseTensor(np.zeros((2, 3, 2, 2))), 6)
        assert requires_grad_flags(model) == flags
        diverging = MultiNoiseTensor(
            np.full((2, *trainer.split.activation_shape), np.nan)
        )
        with pytest.raises(TrainingError, match="diverged"):
            trainer.train_many(diverging, 6)
        assert requires_grad_flags(model) == flags

    def test_noise_matches_a_model_frozen_beforehand(self):
        trainer = mixed_flag_trainer()
        learned = trainer.train_many(fresh_noises(trainer, 2), 6)
        frozen = mixed_flag_trainer()
        frozen.split.model.freeze()
        expected = frozen.train_many(fresh_noises(frozen, 2), 6)
        for ours, reference in zip(learned, expected):
            np.testing.assert_array_equal(ours.noise, reference.noise)


class TestPipelineCollectBatched:
    @pytest.fixture()
    def pipeline(self, lenet_bundle):
        return ShredderPipeline(
            lenet_bundle, lambda_coeff=1e-3, init_scale=1.0, config=Config(scale=TINY)
        )

    def test_batched_matches_sequential_collect(self, lenet_bundle):
        config = Config(scale=TINY)
        seq_pipe = ShredderPipeline(
            lenet_bundle, lambda_coeff=1e-3, init_scale=1.0, config=config
        )
        sequential = collect_reference(seq_pipe, 3, iterations=40)
        bat_pipe = ShredderPipeline(
            lenet_bundle, lambda_coeff=1e-3, init_scale=1.0, config=config
        )
        batched = bat_pipe.collect(3, iterations=40)
        assert len(batched) == len(sequential) == 3
        for seq, bat in zip(sequential.samples, batched.samples):
            np.testing.assert_allclose(bat.tensor, seq.tensor, atol=1e-5)
            assert bat.in_vivo_privacy == pytest.approx(seq.in_vivo_privacy, rel=1e-4)

    def test_members_equal_train_noise_exactly(self, lenet_bundle):
        # Member i of a collection is train_noise(seed_tag=i) on a pipeline
        # whose batch RNG has served members 0..i-1 first, bit for bit.
        def make_pipe():
            return ShredderPipeline(
                lenet_bundle,
                lambda_coeff=5e-2,
                init_scale=0.5,
                schedule=DecayOnTarget(base=5e-2, target=0.3, decay=0.5),
                config=Config(scale=TINY),
            )

        collection = make_pipe().collect(3, iterations=30)
        alone = make_pipe()
        for index, sample in enumerate(collection.samples):
            result = alone.train_noise(30, seed_tag=index)
            np.testing.assert_array_equal(sample.tensor, result.noise[0])
            assert sample.in_vivo_privacy == result.final_in_vivo_privacy
            assert sample.accuracy == result.final_accuracy

    def test_members_differ(self, pipeline):
        collection = pipeline.collect(3, iterations=20)
        tensors = [s.tensor for s in collection.samples]
        assert not np.array_equal(tensors[0], tensors[1])
        assert not np.array_equal(tensors[1], tensors[2])

    def test_decay_schedule_parity_between_modes(self, lenet_bundle):
        # Stateful schedules must behave identically in both collect
        # modes: every member gets its own clone, so one member reaching
        # the decay target cannot decay λ for the others.
        config = Config(scale=TINY)

        def make_pipe():
            return ShredderPipeline(
                lenet_bundle,
                lambda_coeff=5e-2,
                init_scale=0.5,
                schedule=DecayOnTarget(base=5e-2, target=0.3, decay=0.5),
                config=config,
            )

        sequential = collect_reference(make_pipe(), 2, iterations=30)
        batched = make_pipe().collect(2, iterations=30)
        for seq, bat in zip(sequential.samples, batched.samples):
            np.testing.assert_allclose(bat.tensor, seq.tensor, atol=1e-5)

    def test_collect_leaves_shared_schedule_untouched(self, lenet_bundle):
        schedule = DecayOnTarget(base=5e-2, target=0.3, decay=0.5)
        pipe = ShredderPipeline(
            lenet_bundle,
            lambda_coeff=5e-2,
            init_scale=0.5,
            schedule=schedule,
            config=Config(scale=TINY),
        )
        pipe.collect(2, iterations=10)
        assert pipe.trainer.schedule is schedule
        assert schedule.reached_at_step is None

    def test_single_member_collection(self, pipeline):
        collection = pipeline.collect(1, iterations=15)
        assert len(collection) == 1


class TestMultiAccuracyEval:
    def test_matches_single_member_eval(self, lenet_bundle, rng):
        trainer = make_trainer(lenet_bundle)
        bank = rng.laplace(
            0, 0.5, size=(3, *trainer.split.activation_shape)
        ).astype(np.float32)
        multi = trainer.split.accuracy_from_activations_multi(
            trainer.eval_activations, trainer.eval_labels, bank
        )
        for i in range(3):
            single = trainer.split.accuracy_from_activations(
                trainer.eval_activations, trainer.eval_labels, bank[i][None]
            )
            assert multi[i] == pytest.approx(single, abs=1e-9)

    def test_shape_mismatch_rejected(self, lenet_bundle):
        from repro.errors import ModelError

        trainer = make_trainer(lenet_bundle)
        with pytest.raises(ModelError):
            trainer.split.accuracy_from_activations_multi(
                trainer.eval_activations,
                trainer.eval_labels,
                np.zeros((2, 1, 1, 1), dtype=np.float32),
            )
