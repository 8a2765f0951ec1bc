"""The benches' timing helper and gate tables (``benchmarks/``)."""

from __future__ import annotations

import json
import math
import statistics

from benchmarks import bench_hotpaths, bench_serving, harness
from benchmarks.harness import Gate


class FakeClock:
    """A clock that moves only when the code under test moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMeasure:
    # Seconds per call on the fake clock: the warm-up, then three samples.
    # Powers of two sum exactly, so at the smoke minimum of 0.05 s a
    # 1/32 s call takes 2 calls a sample, 1/64 s takes 4 and 1/8 s one.
    PER_CALL = {"a": (1.0, 1 / 32, 1 / 64, 1 / 8), "b": (2.0, 1 / 8, 1 / 32, 1 / 64)}
    CALLS = {"a": [2, 4, 1], "b": [1, 2, 4]}

    def run(self):
        clock, order = FakeClock(), []

        def leg(name):
            costs = iter([self.PER_CALL[name][0]] + [
                cost for cost, calls in zip(self.PER_CALL[name][1:], self.CALLS[name])
                for _ in range(calls)])

            def build(stack):
                clock.now += 100.0  # building is off the clock
                # So is closing.
                stack.callback(setattr, clock, "now", clock.now + 1000.0)

                def call():
                    order.append(name)
                    clock.now += next(costs)
                    return len(order)
                return call
            return build

        legs = harness.measure({"a": leg("a"), "b": leg("b")}, clock=clock, smoke=True)
        return legs, order

    def test_samples_reach_the_minimum_and_report_median_iqr_and_count(self):
        legs, _ = self.run()
        for name, leg in legs.items():
            per_call = list(self.PER_CALL[name][1:])
            assert leg.calls == self.CALLS[name]
            assert leg.per_call_s == per_call
            assert all(
                calls * cost >= harness.MIN_SAMPLE_S[True]
                for calls, cost in zip(leg.calls, per_call)
            )
            q1, _, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
            summary = leg.summary(requests=64)
            assert summary["median_s"] == statistics.median(per_call)
            assert summary["iqr_s"] == q3 - q1
            assert summary["samples"] == harness.REPEATS[True] == 3
            assert summary["requests_per_second"] == 64 / statistics.median(per_call)

    def test_leg_order_flips_every_round_and_the_first_output_is_kept(self):
        legs, order = self.run()
        assert order[:2] == ["a", "b"]  # the warm-ups
        # Round 1 runs a then b, round 2 b then a, round 3 a then b.
        assert "".join(order[2:]) == "aa" "b" "bb" "aaaa" "a" "bbbb"
        assert legs["a"].first == 1 and legs["b"].first == 2


class TestGate:
    gate = Gate("g", "part", lambda s: s["value"], 2.0, 1.0, lambda s: {"ok": s["ok"]})

    def verdict(self, value, ok, smoke):
        return self.gate.verdict({"part": {"value": value, "ok": ok}}, smoke)

    def test_smoke_selects_the_smoke_threshold(self):
        assert self.gate.threshold(smoke=False) == 2.0
        assert self.gate.threshold(smoke=True) == 1.0
        assert not self.verdict(1.5, True, smoke=False)["pass"]
        assert self.verdict(1.5, True, smoke=True)["pass"]

    def test_a_failed_check_fails_the_gate(self):
        assert self.verdict(3.0, False, smoke=False) == {
            "value": 3.0, "threshold": 2.0, "checks": {"ok": False}, "pass": False}

    def test_a_measurement_that_could_not_run_passes_on_its_checks(self):
        assert self.verdict(None, True, smoke=False)["pass"]

    def test_report_merges_sections_and_gates(self, tmp_path):
        path = tmp_path / "report.json"
        harness.write_report(path, "one", {"x": 1}, {"g1": {"pass": True}},
                             smoke=True, scale="tiny")
        harness.write_report(path, "two", {"y": 2}, {"g2": {"pass": False}},
                             smoke=False, scale="small")
        report = json.loads(path.read_text())
        assert (report["x"], report["y"]) == (1, 2)
        assert set(report["gates"]) == {"g1", "g2"}
        assert report["meta"]["one"]["smoke"] and not report["meta"]["two"]["smoke"]
        for key in ("cpu_model", "nproc", "isa", "compiler_version",
                    "march_native_defines", "blas_threads", "ir_rewrites",
                    "fastexec_variant"):
            assert key in report["meta"]


def test_gate_tables_declare_every_gate_at_its_thresholds():
    serving = {gate.name: (gate.full, gate.smoke) for gate in bench_serving.GATES}
    assert serving == {
        "bitwise parity": (None, None),
        "acceptance": (1.5, math.nextafter(1.0, math.inf)),
        "kernel_backend": (2.0, 1.0),
        "executor_ir": (1.15, 1.0),
        "executor_int8w": (1.2, 1.0),
        "serving_slo": (None, None),
        "serving_multiworker": (1.5, 1.5),
        "serving_multimodel": (0.9, 0.9),
        "serving_chaos": (0.95, 0.75),
        "serving_sharded": (2.0, 1.0),
        "privacy_mixing": (0.5, 0.5),
    }
    hotpaths = {gate.name: (gate.full, gate.smoke) for gate in bench_hotpaths.GATES}
    assert hotpaths == {"ksg": (10.0, None), "collect": (2.5, None)}
