"""Cutting-point selection (paper §3.4) and serving-window planning.

Layer choice "is mostly an interplay of communication and computation of
the edge device": deeper cuts start from lower MI (more private) but cost
more edge compute, while communication depends non-monotonically on layer
output sizes.  The planner reproduces the paper's reasoning: Figure 6 plots
``Computation × Communication`` against ex-vivo privacy per cut, and the
chosen point is the one offering the most privacy among Pareto-reasonable
costs (SVHN: conv6 — cheapest *and* most private; LeNet: conv2 — a one
percent cost increase "worth the gained privacy level").

The serving runtime extends the same cost model with a batch-size axis,
and :func:`plan_batch_window` closes the loop for deadline-aware serving:
given a target latency SLO and an arrival rate, it walks the batched wire
costs to the largest batching window whose worst-case request latency
(window fill wait + wire transfer + stacked compute) still meets the SLO —
the window the engine should be deployed with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edge.channel import Channel
from repro.edge.costs import (
    BYTES_PER_ELEMENT,
    BatchedCutCost,
    CutCost,
    batched_cut_cost,
    batched_cut_costs,
    cut_costs,
)
from repro.edge.protocol import batch_frame_overhead
from repro.errors import ConfigurationError, ModelError
from repro.models.base import SplittableModel


@dataclass(frozen=True)
class CutCandidate:
    """One cutting point with its cost and measured privacy.

    Attributes:
        cut: Cut-point name.
        cost: The §3.4 cost model entry (kMAC, MB, product) — a
            :class:`~repro.edge.costs.BatchedCutCost` when the planner was
            given a serving batch size.
        ex_vivo_privacy: Measured ``1/MI`` at this cut.
    """

    cut: str
    cost: CutCost | BatchedCutCost
    ex_vivo_privacy: float


class CuttingPointPlanner:
    """Ranks cutting points by the paper's cost/privacy trade-off.

    Args:
        model: The backbone under consideration.
        privacy_by_cut: ``{cut_name: ex vivo privacy}`` measurements (from
            :func:`repro.privacy.metrics.estimate_leakage` at each cut).
        batch_size: Serving micro-batch size; above 1 the communication
            term uses the batched wire (amortised frame header), which can
            shift the Pareto frontier for small activations.
        bytes_per_element: Wire bytes per activation element (e.g. a
            quantised payload); only consulted with the batched cost model.
    """

    def __init__(
        self,
        model: SplittableModel,
        privacy_by_cut: dict[str, float],
        batch_size: int = 1,
        bytes_per_element: float = BYTES_PER_ELEMENT,
    ) -> None:
        if batch_size == 1 and bytes_per_element == BYTES_PER_ELEMENT:
            costs: dict[str, CutCost | BatchedCutCost] = {
                cost.cut: cost for cost in cut_costs(model)
            }
        else:
            costs = {
                cost.cut: cost
                for cost in batched_cut_costs(model, batch_size, bytes_per_element)
            }
        missing = set(privacy_by_cut) - set(costs)
        if missing:
            raise ModelError(f"unknown cuts in privacy map: {sorted(missing)}")
        if not privacy_by_cut:
            raise ModelError("privacy_by_cut must not be empty")
        self.candidates = [
            CutCandidate(cut=cut, cost=costs[cut], ex_vivo_privacy=privacy)
            for cut, privacy in privacy_by_cut.items()
        ]

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def pareto_frontier(self) -> list[CutCandidate]:
        """Candidates not dominated in (lower cost, higher privacy)."""
        frontier = []
        for candidate in self.candidates:
            dominated = any(
                other.cost.product <= candidate.cost.product
                and other.ex_vivo_privacy >= candidate.ex_vivo_privacy
                and (
                    other.cost.product < candidate.cost.product
                    or other.ex_vivo_privacy > candidate.ex_vivo_privacy
                )
                for other in self.candidates
            )
            if not dominated:
                frontier.append(candidate)
        return sorted(frontier, key=lambda c: c.cost.product)

    def recommend(self, cost_budget: float | None = None) -> CutCandidate:
        """The paper's choice: most private Pareto point within budget.

        Args:
            cost_budget: Optional upper bound on the cost product
                (kMAC × MB); ``None`` means unconstrained, in which case the
                most private frontier point wins (ties broken by cost).
        """
        frontier = self.pareto_frontier()
        if cost_budget is not None:
            affordable = [c for c in frontier if c.cost.product <= cost_budget]
            if not affordable:
                raise ModelError(
                    f"no cutting point fits the cost budget {cost_budget}"
                )
            frontier = affordable
        return max(frontier, key=lambda c: (c.ex_vivo_privacy, -c.cost.product))

    def ranked(self) -> list[CutCandidate]:
        """All candidates, most attractive (private, then cheap) first."""
        return sorted(
            self.candidates,
            key=lambda c: (-c.ex_vivo_privacy, c.cost.product),
        )


# ----------------------------------------------------------------------
# Serving-window planning (deadline-aware batching)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowPlan:
    """A batching window sized against a latency SLO.

    Attributes:
        cut: Cut-point the plan was evaluated at.
        window: Recommended ``batch_window`` (requests per micro-batch).
        feasible: Whether even this window meets the SLO; ``False`` means
            the SLO is unreachable at this cut/link and ``window`` is the
            latency-minimal fallback of 1.
        predicted_latency_seconds: Worst-case request latency at the
            recommended window (head-of-window fill wait + up/downlink
            transfer + stacked compute).
        fill_wait_seconds: The window-fill component of that latency.
        wire_seconds: The transfer component (uplink + downlink frames).
        compute_seconds: The stacked remote-compute component.
        per_request_wire_bytes: Uplink frame bytes amortised per request.
    """

    cut: str
    window: int
    feasible: bool
    predicted_latency_seconds: float
    fill_wait_seconds: float
    wire_seconds: float
    compute_seconds: float
    per_request_wire_bytes: float


def predict_window_latency(
    model: SplittableModel,
    cut: str,
    window: int,
    *,
    arrival_rate_rps: float,
    service_seconds_per_sample: float,
    channel: Channel | None = None,
    bytes_per_element: float = BYTES_PER_ELEMENT,
    n_classes: int = 10,
) -> tuple[float, float, float, float]:
    """Worst-case latency components of one batching window.

    The head request of a window waits for ``window - 1`` later arrivals
    (``(window-1)/rate`` at the given Poisson rate), then the whole stack
    pays one uplink frame, one stacked remote pass, and one downlink frame.

    Returns:
        ``(total, fill_wait, wire, compute)`` in seconds.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if arrival_rate_rps <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive, got {arrival_rate_rps}"
        )
    if service_seconds_per_sample < 0:
        raise ConfigurationError(
            f"per-sample service seconds must be >= 0, got "
            f"{service_seconds_per_sample}"
        )
    batched = batched_cut_cost(model, cut, window, bytes_per_element)
    fill_wait = (window - 1) / arrival_rate_rps
    wire = window_wire_seconds(batched, channel, n_classes)
    compute = window * service_seconds_per_sample
    return fill_wait + wire + compute, fill_wait, wire, compute


def window_wire_seconds(
    cost: BatchedCutCost, channel: Channel | None = None, n_classes: int = 10
) -> float:
    """Wire seconds of one full window of ``cost.batch_size`` requests: one
    uplink frame of the stacked activations and one downlink frame of
    their logits (the wire term of :func:`predict_window_latency`)."""
    window = cost.batch_size
    channel = channel or Channel()
    uplink_bytes = cost.wire_bytes * window  # whole frame, header included
    downlink_bytes = window * n_classes * BYTES_PER_ELEMENT + batch_frame_overhead(
        window, ndim=2
    )
    return channel.transfer_seconds(int(uplink_bytes)) + channel.transfer_seconds(
        int(downlink_bytes)
    )


def plan_batch_window(
    model: SplittableModel,
    cut: str,
    *,
    target_slo_seconds: float,
    arrival_rate_rps: float,
    service_seconds_per_sample: float,
    channel: Channel | None = None,
    bytes_per_element: float = BYTES_PER_ELEMENT,
    max_window: int = 64,
    n_classes: int = 10,
) -> WindowPlan:
    """The largest batching window that still meets a latency SLO.

    Larger windows amortise the frame header further and raise occupancy
    (throughput), but make the head request wait longer — so under this
    cost model the worst-case latency is non-decreasing in the window and
    the SLO-optimal choice is the largest window that still fits.  When
    even a window of 1 misses the target, the plan falls back to 1 and is
    marked infeasible.

    Args:
        model / cut: The split backbone and cutting point being served.
        target_slo_seconds: The latency SLO to size against.
        arrival_rate_rps: Expected request arrival rate.
        service_seconds_per_sample: Measured (or estimated) remote compute
            seconds per stacked sample.
        channel: Link model for transfer times (default: fast clean link).
        bytes_per_element: Wire bytes per activation element (quantised
            payloads shrink this).
        max_window: Upper bound on the considered window.
        n_classes: Logit width (sizes the downlink frame).
    """
    if target_slo_seconds <= 0:
        raise ConfigurationError(
            f"target SLO must be positive, got {target_slo_seconds}"
        )
    if max_window < 1:
        raise ConfigurationError(f"max window must be >= 1, got {max_window}")
    if cut not in model.cut_names():
        raise ModelError(f"{model.model_name} has no cut point {cut!r}")

    def components(window: int) -> tuple[float, float, float, float]:
        return predict_window_latency(
            model,
            cut,
            window,
            arrival_rate_rps=arrival_rate_rps,
            service_seconds_per_sample=service_seconds_per_sample,
            channel=channel,
            bytes_per_element=bytes_per_element,
            n_classes=n_classes,
        )

    best: tuple[int, tuple[float, float, float, float]] | None = None
    for window in range(1, max_window + 1):
        latency = components(window)
        if latency[0] <= target_slo_seconds:
            best = (window, latency)
        else:
            break  # latency is non-decreasing in the window: no point on

    feasible = best is not None
    window, latency = best if best is not None else (1, components(1))
    batched = batched_cut_cost(model, cut, window, bytes_per_element)
    return WindowPlan(
        cut=cut,
        window=window,
        feasible=feasible,
        predicted_latency_seconds=latency[0],
        fill_wait_seconds=latency[1],
        wire_seconds=latency[2],
        compute_seconds=latency[3],
        per_request_wire_bytes=batched.wire_bytes,
    )

