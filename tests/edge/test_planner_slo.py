"""SLO-aware batching-window planning and planner invariants.

Golden-value and invariant tests for the cost model's batch axis feeding
the serving plane (:class:`repro.serve.ControlPlane`): :func:`repro.edge.plan_batch_window` must pick the
largest window meeting the target SLO under its own latency model, and
:class:`repro.edge.CuttingPointPlanner` recommendations must never violate
the cost model's invariants (frontier membership, budget, dominance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edge import (
    BYTES_PER_ELEMENT,
    Channel,
    CuttingPointPlanner,
    batch_frame_overhead,
    batched_cut_cost,
    cut_cost,
    plan_batch_window,
    predict_window_latency,
)
from repro.errors import ConfigurationError, ModelError
from repro.models import build_model

RATE = 1000.0  # requests per second
SERVICE = 1e-4  # seconds per stacked sample


@pytest.fixture(scope="module")
def lenet():
    return build_model("lenet", np.random.default_rng(0), width=0.5).eval()


@pytest.fixture(scope="module")
def svhn():
    return build_model("svhn", np.random.default_rng(0), width=0.5).eval()


def _latency(model, cut, window, **overrides):
    kwargs = dict(
        arrival_rate_rps=RATE, service_seconds_per_sample=SERVICE
    )
    kwargs.update(overrides)
    return predict_window_latency(model, cut, window, **kwargs)


class TestPredictedLatency:
    def test_golden_components_at_window_one(self, lenet):
        cut = lenet.last_conv_cut()
        channel = Channel(bandwidth_mbps=100.0, latency_ms=10.0)
        total, fill, wire, compute = _latency(
            lenet, cut, 1, channel=channel
        )
        assert fill == 0.0
        assert compute == SERVICE
        payload = cut_cost(lenet, cut).megabytes * 1e6
        uplink = payload + batch_frame_overhead(1, ndim=4)
        downlink = 10 * BYTES_PER_ELEMENT + batch_frame_overhead(1, ndim=2)
        expected_wire = channel.transfer_seconds(
            int(uplink)
        ) + channel.transfer_seconds(int(downlink))
        assert wire == pytest.approx(expected_wire)
        assert total == pytest.approx(fill + wire + compute)

    def test_fill_wait_is_window_minus_one_arrivals(self, lenet):
        cut = lenet.last_conv_cut()
        for window in (1, 2, 8, 32):
            _, fill, _, _ = _latency(lenet, cut, window)
            assert fill == pytest.approx((window - 1) / RATE)

    @pytest.mark.parametrize("cut_index", [0, -1])
    def test_latency_monotone_in_window(self, svhn, cut_index):
        """The planner's maximality argument rests on this: worst-case
        latency never improves as the window grows."""
        cut = svhn.cut_names()[cut_index]
        totals = [_latency(svhn, cut, w)[0] for w in range(1, 33)]
        assert all(a <= b + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_invalid_arguments(self, lenet):
        cut = lenet.last_conv_cut()
        with pytest.raises(ConfigurationError):
            _latency(lenet, cut, 0)
        with pytest.raises(ConfigurationError):
            _latency(lenet, cut, 1, arrival_rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            _latency(lenet, cut, 1, service_seconds_per_sample=-1.0)


class TestPlanBatchWindow:
    def _plan(self, model, cut, slo, **overrides):
        kwargs = dict(
            target_slo_seconds=slo,
            arrival_rate_rps=RATE,
            service_seconds_per_sample=SERVICE,
        )
        kwargs.update(overrides)
        return plan_batch_window(model, cut, **kwargs)

    def test_plan_meets_slo_and_is_maximal(self, lenet):
        cut = lenet.last_conv_cut()
        slo = 0.020
        channel = Channel(bandwidth_mbps=100.0, latency_ms=1.0)
        plan = self._plan(lenet, cut, slo, channel=channel)
        assert plan.feasible
        assert plan.predicted_latency_seconds <= slo
        assert 1 < plan.window < 64  # the SLO binds strictly inside range
        beyond = _latency(lenet, cut, plan.window + 1, channel=channel)[0]
        assert beyond > slo

    def test_loose_slo_hits_max_window(self, lenet):
        plan = self._plan(lenet, lenet.last_conv_cut(), 10.0, max_window=16)
        assert plan.feasible
        assert plan.window == 16

    def test_impossible_slo_falls_back_to_one(self, lenet):
        plan = self._plan(lenet, lenet.last_conv_cut(), 1e-9)
        assert not plan.feasible
        assert plan.window == 1
        assert plan.predicted_latency_seconds > 1e-9

    def test_per_request_wire_bytes_amortised(self, lenet):
        """The plan's wire bytes must match the batched cost model at the
        chosen window — the header amortisation the planner trades
        against latency."""
        cut = lenet.last_conv_cut()
        plan = self._plan(lenet, cut, 0.050)
        expected = batched_cut_cost(lenet, cut, batch_size=plan.window)
        assert plan.per_request_wire_bytes == pytest.approx(
            expected.wire_bytes
        )
        smaller = batched_cut_cost(
            lenet, cut, batch_size=max(1, plan.window - 1)
        )
        if plan.window > 1:
            assert plan.per_request_wire_bytes < smaller.wire_bytes

    def test_quantised_wire_allows_larger_windows_on_slow_links(self, lenet):
        """On a bandwidth-bound link a smaller payload buys window room."""
        cut = lenet.last_conv_cut()
        slow = Channel(bandwidth_mbps=1.0, latency_ms=1.0)
        fp32 = self._plan(lenet, cut, 0.5, channel=slow)
        quant = self._plan(
            lenet, cut, 0.5, channel=slow, bytes_per_element=1.0
        )
        assert quant.window >= fp32.window
        assert quant.per_request_wire_bytes < fp32.per_request_wire_bytes

    def test_invalid_arguments(self, lenet):
        cut = lenet.last_conv_cut()
        with pytest.raises(ConfigurationError):
            self._plan(lenet, cut, 0.0)
        with pytest.raises(ConfigurationError):
            self._plan(lenet, cut, 0.1, max_window=0)
        with pytest.raises(ModelError):
            self._plan(lenet, "conv99", 0.1)


class TestPlannerInvariants:
    """The cutting-point recommendation must obey the cost model's own
    rules, on the plain and the batched axis alike."""

    def _planner(self, model, batch_size=1):
        rng = np.random.default_rng(1)
        privacy = {
            cut: float(rng.uniform(0.05, 0.5)) for cut in model.cut_names()
        }
        return CuttingPointPlanner(model, privacy, batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    def test_recommendation_is_on_the_frontier(self, svhn, batch_size):
        planner = self._planner(svhn, batch_size)
        frontier = planner.pareto_frontier()
        choice = planner.recommend()
        assert choice in frontier
        # Nothing dominates the choice.
        for other in planner.candidates:
            assert not (
                other.cost.product <= choice.cost.product
                and other.ex_vivo_privacy >= choice.ex_vivo_privacy
                and (
                    other.cost.product < choice.cost.product
                    or other.ex_vivo_privacy > choice.ex_vivo_privacy
                )
            )

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_budget_is_respected(self, svhn, batch_size):
        planner = self._planner(svhn, batch_size)
        products = sorted(c.cost.product for c in planner.candidates)
        budget = products[len(products) // 2]
        choice = planner.recommend(cost_budget=budget)
        assert choice.cost.product <= budget
        with pytest.raises(ModelError):
            planner.recommend(cost_budget=products[0] / 2)

    def test_frontier_is_sorted_and_non_dominated(self, svhn):
        frontier = self._planner(svhn, 8).pareto_frontier()
        products = [c.cost.product for c in frontier]
        assert products == sorted(products)
        # Along the frontier, more cost must buy more privacy.
        privacies = [c.ex_vivo_privacy for c in frontier]
        assert privacies == sorted(privacies)
