"""The trainable noise tensor — Shredder's only learnable object.

Paper §2.1/§2.4: the noise ``n`` has the same (per-sample) shape as the
activation at the cutting point, is initialised from a Laplace distribution
``Laplace(mu, b)`` whose parameters are hyper-parameters, and is trained by
gradient descent while the network weights stay frozen.

:class:`MultiNoiseTensor` packs the M independent members of a §2.5 noise
collection into one ``(M, *activation_shape)`` parameter so a single
forward/backward over a member-stacked batch trains all of them at once
(see :meth:`repro.core.trainer.NoiseTrainer.train_many`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import init as nn_init
from repro.nn.module import Parameter


class NoiseTensor(Parameter):
    """Additive noise parameter with shape ``(1, *activation_shape)``.

    The leading singleton dimension broadcasts the same noise tensor over a
    batch of activations; the autograd engine sums the incoming gradient
    over the batch, which is exactly the mini-batch gradient of the loss
    with respect to the shared noise.  The tensor owns a float32 copy of
    ``data``: training updates it in place, never the caller's array.
    """

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.array(data, dtype=np.float32), name="shredder_noise")

    @classmethod
    def from_laplace(
        cls,
        activation_shape: tuple[int, ...],
        rng: np.random.Generator,
        loc: float = 0.0,
        scale: float = 1.0,
    ) -> "NoiseTensor":
        """Laplace(mu=loc, b=scale) initialisation (paper §2.4).

        Args:
            activation_shape: Per-sample activation shape (no batch dim),
                e.g. ``(C, H, W)``.
            rng: Initialisation randomness.
            loc: Location parameter ``mu``.
            scale: Scale parameter ``b`` — the knob controlling initial
                in-vivo privacy.
        """
        if any(dim <= 0 for dim in activation_shape):
            raise ConfigurationError(
                f"invalid activation shape {activation_shape}"
            )
        data = nn_init.laplace(
            (1, *activation_shape), rng, loc=loc, scale=scale
        )
        return cls(data)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "NoiseTensor":
        """Wrap a previously trained noise tensor (adds the batch dim
        when given a per-sample array)."""
        array = np.asarray(array)
        if array.ndim >= 1 and array.shape[0] != 1:
            array = array[None]
        return cls(array)

    @property
    def per_sample(self) -> np.ndarray:
        """The noise with the broadcast dimension stripped."""
        return self.data[0]

    def magnitude_l1(self) -> float:
        """``Σ|n_i|`` — the quantity the Eq. 3 regulariser grows."""
        return float(np.abs(self.data).sum())

    def variance(self) -> float:
        """``σ²(n)`` — population variance over the noise elements."""
        return float(self.data.var())


class MultiNoiseTensor(Parameter):
    """A bank of M independent noise members, shape ``(M, *activation_shape)``.

    Each slice along the leading axis is one §2.5 collection member.  The
    members never mix: the batched training loop adds member ``m`` only to
    member ``m``'s slice of the activation batch, and the loss sums
    per-member terms, so the gradient landing on each slice is exactly the
    gradient an independently trained :class:`NoiseTensor` would receive.
    Adam's elementwise state then evolves every slice identically to M
    sequential runs.  Like :class:`NoiseTensor`, the bank owns a float32
    copy of ``data``.
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.array(data, dtype=np.float32)
        if data.ndim < 2:
            raise ConfigurationError(
                f"expected (M, *activation_shape) data, got shape {data.shape}"
            )
        super().__init__(data, name="shredder_noise_bank")

    @classmethod
    def from_members(cls, members: Sequence[NoiseTensor]) -> "MultiNoiseTensor":
        """Stack individually initialised :class:`NoiseTensor`s into a bank."""
        if not members:
            raise ConfigurationError("need at least one noise member")
        shapes = {member.per_sample.shape for member in members}
        if len(shapes) != 1:
            raise ConfigurationError(
                f"members must share one activation shape, got {sorted(map(str, shapes))}"
            )
        # The constructor's copy stacks the members.
        return cls([member.per_sample for member in members])

    @classmethod
    def from_laplace(
        cls,
        n_members: int,
        activation_shape: tuple[int, ...],
        rngs: Sequence[np.random.Generator],
        loc: float = 0.0,
        scale: float = 1.0,
    ) -> "MultiNoiseTensor":
        """Laplace-initialise M members from per-member RNG streams."""
        if n_members < 1:
            raise ConfigurationError(f"need at least one member, got {n_members}")
        if len(rngs) != n_members:
            raise ConfigurationError(
                f"need one rng per member: {n_members} members, {len(rngs)} rngs"
            )
        return cls.from_members(
            [
                NoiseTensor.from_laplace(activation_shape, rng, loc=loc, scale=scale)
                for rng in rngs
            ]
        )

    @property
    def n_members(self) -> int:
        return self.data.shape[0]

    @property
    def activation_shape(self) -> tuple[int, ...]:
        return self.data.shape[1:]

    def member(self, index: int) -> np.ndarray:
        """Member ``index`` with the broadcast batch dim restored."""
        return self.data[index][None]

    def members(self) -> Iterator[np.ndarray]:
        """Iterate members as ``(1, *activation_shape)`` arrays."""
        for index in range(self.n_members):
            yield self.member(index)
