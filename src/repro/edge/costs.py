"""Analytic computation / communication cost model (paper §3.4).

Figure 6 plots ``Computation × Communication`` per candidate cutting point:
computation is the cumulative multiply-accumulate (MAC) count of all layers
the edge device must run, and communication is the byte size of the
activation tensor shipped to the cloud.  Both are derived exactly from the
layer geometry — no measurement needed.

The serving runtime adds a **batch-size axis**: a micro-batch of ``B``
requests ships one batched frame, so the per-frame header is amortised
``B``-fold and (optionally) the payload shrinks to the quantiser's bytes
per element.  :func:`batched_cut_costs` evaluates the same Figure 6 product
at a given batch size; per-sample MACs are unchanged by batching (compute
scales linearly), so the batch axis moves only the communication term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.models.base import SplittableModel
from repro.nn import Tensor, no_grad
from repro.nn.module import Module

BYTES_PER_ELEMENT = 4  # float32 activations on the wire


def layer_macs(module: Module, input_shape: tuple[int, ...], output_shape: tuple[int, ...]) -> int:
    """Multiply-accumulate count of one layer for a single sample.

    Priced by lowering the layer through the executor IR
    (:func:`repro.edge.ir.lower_module`) and reading
    :attr:`~repro.edge.ir.IROp.macs` — the same per-op cost the lowered
    serving schedules carry, so the planner and the executors can never
    disagree about what a layer costs.  Convolutions dominate; linear
    layers count ``in × out``; pooling, normalisation and elementwise
    layers (anything the IR prices at zero or cannot lower) count zero
    MACs — their cost is negligible next to the convs, and the paper's
    cost model is MAC-based.
    """
    from repro.edge.ir import lower_module

    op = lower_module(module, tuple(input_shape[1:]))
    return op.macs if op is not None else 0


@dataclass(frozen=True)
class LayerCost:
    """Cost profile of one layer in the flattened network.

    Attributes:
        name: Layer name inside the model's Sequential.
        macs: Per-sample multiply-accumulates of this layer.
        output_shape: Per-sample shape of the layer output.
    """

    name: str
    macs: int
    output_shape: tuple[int, ...]

    @property
    def output_elements(self) -> int:
        """Per-sample elements of the layer output."""
        return int(np.prod(self.output_shape))

    @property
    def output_bytes(self) -> int:
        """Per-sample bytes if this output were communicated."""
        return self.output_elements * BYTES_PER_ELEMENT


def profile_network(model: SplittableModel) -> list[LayerCost]:
    """Per-layer cost profile via a single dry run."""
    was_training = model.training
    model.eval()
    costs: list[LayerCost] = []
    try:
        with no_grad():
            x = Tensor(np.zeros((1, *model.input_shape), dtype=np.float32))
            for name in model.net.layer_names():
                module = model.net[name]
                input_shape = x.shape
                x = module(x)
                costs.append(
                    LayerCost(
                        name=name,
                        macs=layer_macs(module, input_shape, x.shape),
                        output_shape=x.shape[1:],
                    )
                )
    finally:
        model.train(was_training)
    return costs


@dataclass(frozen=True)
class CutCost:
    """Edge-side cost of choosing one cutting point.

    Attributes:
        cut: Cut-point name.
        conv_index: Conv ordinal of the cut (for figure labelling).
        kilomacs: Cumulative edge computation, in kMACs.
        megabytes: Communicated activation size, in MB.
        product: ``kilomacs × megabytes`` — Figure 6's x-axis.
    """

    cut: str
    conv_index: int
    kilomacs: float
    megabytes: float
    product: float


def cut_costs(model: SplittableModel) -> list[CutCost]:
    """The Figure 6 cost model: one entry per candidate cutting point."""
    return [cost for cost, _boundary in _priced_cuts(model)]


def _priced_cuts(model: SplittableModel) -> list[tuple[CutCost, LayerCost]]:
    """Each cutting point's cost with its boundary layer's profile, all
    from one dry run."""
    profile = profile_network(model)
    results: list[tuple[CutCost, LayerCost]] = []
    for cut in model.cut_names():
        point = model.cut_point(cut)
        total_macs = sum(cost.macs for cost in profile[: point.end_index + 1])
        boundary = profile[point.end_index]
        kilomacs = total_macs / 1e3
        megabytes = boundary.output_bytes / 1e6
        results.append((
            CutCost(
                cut=cut,
                conv_index=point.conv_index,
                kilomacs=kilomacs,
                megabytes=megabytes,
                product=kilomacs * megabytes,
            ),
            boundary,
        ))
    return results


def cut_cost(model: SplittableModel, cut: str) -> CutCost:
    """Cost of a single cutting point."""
    for cost in cut_costs(model):
        if cost.cut == cut:
            return cost
    raise ModelError(f"{model.model_name} has no cut point {cut!r}")


@dataclass(frozen=True)
class BatchedCutCost:
    """Per-sample cost of a cutting point when requests are micro-batched.

    Attributes:
        cut: Cut-point name.
        conv_index: Conv ordinal of the cut.
        batch_size: Requests stacked per wire frame.
        kilomacs: Per-sample edge computation (flat in the batch size).
        wire_bytes: Per-sample wire bytes: payload plus the batched frame
            header amortised across the micro-batch.
        megabytes: ``wire_bytes`` in MB.
        product: ``kilomacs × megabytes`` — Figure 6's axis at this batch
            size.
    """

    cut: str
    conv_index: int
    batch_size: int
    kilomacs: float
    wire_bytes: float
    megabytes: float
    product: float


def batched_cut_costs(
    model: SplittableModel,
    batch_size: int = 1,
    bytes_per_element: float = BYTES_PER_ELEMENT,
) -> list[BatchedCutCost]:
    """The Figure 6 cost model evaluated on the batched wire.

    Args:
        model: The backbone under consideration.
        batch_size: Requests per micro-batch (>= 1).
        bytes_per_element: Payload width — ``BYTES_PER_ELEMENT`` for float32
            frames, or :attr:`QuantizationParams.bytes_per_element
            <repro.edge.quantization.QuantizationParams.bytes_per_element>`
            for a quantised wire.
    """
    from repro.edge.protocol import batch_frame_overhead

    if batch_size < 1:
        raise ModelError(f"batch size must be >= 1, got {batch_size}")
    if bytes_per_element <= 0:
        raise ModelError(f"bytes per element must be positive, got {bytes_per_element}")
    results: list[BatchedCutCost] = []
    for base, boundary in _priced_cuts(model):
        payload = boundary.output_elements * bytes_per_element
        # Stacked activation frames are (rows, C, H, W) or (rows, F): the
        # header rank is the boundary activation's rank with the batch
        # dimension included, exactly what the wire frame declares.
        overhead = batch_frame_overhead(
            batch_size,
            ndim=1 + len(boundary.output_shape),
            quantized=bytes_per_element < BYTES_PER_ELEMENT,
        )
        wire_bytes = payload + overhead / batch_size
        megabytes = wire_bytes / 1e6
        results.append(
            BatchedCutCost(
                cut=base.cut,
                conv_index=base.conv_index,
                batch_size=batch_size,
                kilomacs=base.kilomacs,
                wire_bytes=wire_bytes,
                megabytes=megabytes,
                product=base.kilomacs * megabytes,
            )
        )
    return results


def batched_cut_cost(
    model: SplittableModel,
    cut: str,
    batch_size: int = 1,
    bytes_per_element: float = BYTES_PER_ELEMENT,
) -> BatchedCutCost:
    """Batched-wire cost of a single cutting point."""
    for cost in batched_cut_costs(model, batch_size, bytes_per_element):
        if cost.cut == cut:
            return cost
    raise ModelError(f"{model.model_name} has no cut point {cut!r}")
