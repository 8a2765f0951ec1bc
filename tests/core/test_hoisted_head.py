"""The noise-training step with the remote half's first Linear hoisted out.

``_HoistedRemote`` computes ``pre = W a + b`` once per call and steps on
``pre[rows] + W n``; the plain step (:func:`tests.oracles.plain_step_reference`)
pushes each member's noisy rows ``a + n`` through the whole remote half
on their own.  A member's step, and so its whole training run, does not
depend on how many members train beside it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MultiNoiseTensor,
    NoiseTensor,
    NoiseTrainer,
    ShredderLoss,
    SplitInferenceModel,
)
from repro.core.trainer import _HoistedRemote
from repro.models import build_model
from repro.nn import Linear, TensorDataset
from tests.helpers import randomise_batch_norms
from tests.oracles import plain_step_reference

BACKBONES = ("lenet", "svhn", "cifar", "alexnet")
#: The cuts whose remote half starts ``Flatten[, Dropout], Linear``; the
#: remote half of every other cut starts with a ``Conv2d``.
LINEAR_HEAD_CUTS = {
    ("lenet", "conv2"),
    ("svhn", "conv6"),
    ("cifar", "conv4"),
    ("alexnet", "conv4"),
}
CUTS = [
    (name, cut)
    for name in BACKBONES
    for cut in build_model(name, np.random.default_rng(0), width=0.5).cut_names()
]


@pytest.fixture(scope="module")
def backbones():
    """Frozen eval-mode width-0.5 backbones with random BN statistics."""
    models = {}
    for seed, name in enumerate(BACKBONES):
        model = build_model(name, np.random.default_rng(seed), width=0.5)
        randomise_batch_norms(model.net, np.random.default_rng(100 + seed))
        models[name] = model.eval().freeze()
    return models


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("name, cut", CUTS)
def test_step_matches_plain_step(backbones, name, cut, members):
    split = SplitInferenceModel(backbones[name], cut)
    shape = split.activation_shape
    rng = np.random.default_rng(members)
    activations = rng.standard_normal((20, *shape)).astype(np.float32)
    indices = rng.integers(0, 20, size=(members, 6))
    noise = rng.laplace(size=(members, *shape)).astype(np.float32)
    classes = split.model.num_classes
    seed_grad = rng.standard_normal((members, 6, classes)).astype(np.float32)

    hoisted = MultiNoiseTensor(noise.copy())
    logits = _HoistedRemote(split.remote, activations)(indices, hoisted)
    logits.backward(seed_grad)
    plain = MultiNoiseTensor(noise.copy())
    expected = plain_step_reference(split.remote, activations, indices, plain)
    expected.backward(seed_grad)

    if (name, cut) in LINEAR_HEAD_CUTS:
        pairs = ((logits.data, expected.data), (hoisted.grad, plain.grad))
        for ours, theirs in pairs:
            assert np.abs(ours - theirs).max() <= 1e-5 * np.abs(theirs).max()
    else:
        np.testing.assert_array_equal(logits.data, expected.data)
        np.testing.assert_array_equal(hoisted.grad, plain.grad)


def test_in_place_head_update_reaches_next_call():
    rng = np.random.default_rng(0)
    split = SplitInferenceModel(build_model("cifar", rng, width=0.5).eval())
    images = rng.standard_normal((40, *split.model.input_shape)).astype(np.float32)
    labels = rng.integers(0, 10, size=40)
    noise = rng.laplace(size=(3, *split.activation_shape)).astype(np.float32)

    def trainer():
        return NoiseTrainer(
            split,
            TensorDataset(images[:24], labels[:24]),
            TensorDataset(images[24:], labels[24:]),
            loss=ShredderLoss(1e-3),
            batch_size=8,
            rng=np.random.default_rng(1),
        )

    def learn(on):
        return [r.noise for r in on.train_many(MultiNoiseTensor(noise.copy()), 4)]

    updated = trainer()
    learn(updated)
    head = split.remote["fc0"]
    head.weight.data *= 1.5
    head.bias.data *= 1.5
    learned = learn(updated)
    fresh = trainer()
    # Repeat the first call so both draw their batches from one RNG state.
    learn(fresh)
    for ours, theirs in zip(learned, learn(fresh)):
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("name, cut", sorted(LINEAR_HEAD_CUTS))
def test_member_projection_does_not_depend_on_bank_size(backbones, name, cut):
    """A member's projected rows (and its gradient) from a 16-member bank
    equal its rows computed alone, bit for bit, as ``train_many`` must
    match ``train``."""
    split = SplitInferenceModel(backbones[name], cut)
    remote = split.remote
    head_end = 1 + next(
        index for index, module in enumerate(remote) if isinstance(module, Linear)
    )
    rng = np.random.default_rng(5)
    activations = rng.standard_normal((20, *split.activation_shape)).astype(np.float32)
    indices = rng.integers(0, 20, size=(16, 6))
    bank = rng.laplace(size=(16, *split.activation_shape)).astype(np.float32)
    hoisted = _HoistedRemote(remote.slice(0, head_end), activations)
    noise = MultiNoiseTensor(bank.copy())
    rows = hoisted(indices, noise)
    seed_grad = rng.standard_normal(rows.shape).astype(np.float32)
    rows.backward(seed_grad)
    rows = rows.data
    for member in range(16):
        alone = MultiNoiseTensor(bank[member : member + 1].copy())
        ours = hoisted(indices[member : member + 1], alone)
        ours.backward(seed_grad[member : member + 1])
        np.testing.assert_array_equal(ours.data[0], rows[member])
        np.testing.assert_array_equal(alone.grad, noise.grad[member : member + 1])


@pytest.mark.parametrize("name, cut", CUTS)
def test_train_many_member_does_not_depend_on_bank_size(backbones, name, cut):
    """Member 0 of a 5-member ``train_many`` equals ``train`` (a one-member
    run) from the same noise and batch stream, in its noise and in every
    history column, bit for bit."""
    model = backbones[name]
    rng = np.random.default_rng(9)
    images = rng.standard_normal((40, *model.input_shape)).astype(np.float32)
    labels = rng.integers(0, 10, size=40)
    split = SplitInferenceModel(model, cut)
    bank = rng.laplace(size=(5, *split.activation_shape)).astype(np.float32)

    def trainer():
        return NoiseTrainer(
            split,
            TensorDataset(images[:24], labels[:24]),
            TensorDataset(images[24:], labels[24:]),
            loss=ShredderLoss(1e-2),
            batch_size=8,
            eval_every=3,
            rng=np.random.default_rng(3),
        )

    alone = trainer().train(NoiseTensor(bank[:1]), 7)
    beside = trainer().train_many(MultiNoiseTensor(bank), 7)[0]
    np.testing.assert_array_equal(beside.noise, alone.noise)
    for column, values in vars(alone.history).items():
        assert getattr(beside.history, column) == values, column
    assert beside.final_in_vivo_privacy == alone.final_in_vivo_privacy
