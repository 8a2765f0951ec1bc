"""Inputs are pure functions of the seed, and every output check fails on
a corrupted result.  Workloads run here at toy sizes."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS, BulkHeavy, LearnCifar, StreamLenet

ROOT = Path(__file__).resolve().parents[2]


class TinyBulk(BulkHeavy):
    backbones = ("svhn",)
    clients = 2
    window = 2
    pool = 4
    probe = 8
    picks = 8


class TinyLearn(LearnCifar):
    train_rows = 64
    held_rows = 48
    members = 2
    iterations = 3
    batch = 16
    eval_every = 2
    replicates = 2


class TestInputsArePureInTheSeed:
    def test_stream_trace_and_images(self):
        first = StreamLenet().inputs(7, 0.1)
        again = StreamLenet().inputs(7, 0.1)
        other = StreamLenet().inputs(8, 0.1)
        assert first[0] == again[0]
        np.testing.assert_array_equal(first[1], again[1])
        np.testing.assert_array_equal(first[2], again[2])
        assert first[0] != other[0]
        assert not np.array_equal(first[1], other[1])

    def test_bulk_pools_and_picks(self):
        first = BulkHeavy().inputs(7, 0, (3, 8, 8))
        again = BulkHeavy().inputs(7, 0, (3, 8, 8))
        other = BulkHeavy().inputs(7, 1, (3, 8, 8))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(first[0], other[0])

    def test_learn_images_and_backbone(self):
        first, again = TinyLearn().setup(7), TinyLearn().setup(7)
        np.testing.assert_array_equal(first.held_images, again.held_images)
        for a, b in zip(first.split.model.parameters(), again.split.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(first.held_images, TinyLearn().setup(8).held_images)


@pytest.fixture(scope="module")
def stream_run():
    workload = StreamLenet()
    state = workload.setup(3)
    workload.prepare(state, 0.04)
    outcome = workload.measure(state, 0.04)
    workload.close(state)
    return workload, state, outcome


@pytest.fixture(scope="module")
def bulk_run():
    workload = TinyBulk()
    state = workload.setup(3)
    outcome = workload.measure(state, 0.2)
    workload.close(state)
    return workload, state, outcome


@pytest.fixture(scope="module")
def learn_run():
    workload = TinyLearn()
    state = workload.setup(3)
    return workload, state, workload.measure(state, 0.0)


class TestStreamChecks:
    def test_clean_run_passes(self, stream_run):
        workload, state, outcome = stream_run
        assert outcome.failed == 0 and outcome.attempted == len(state.trace)
        assert workload.check(state, outcome) == []

    def test_one_flipped_logit_fails(self, stream_run):
        workload, state, outcome = stream_run
        corrupted = copy.deepcopy(outcome)
        corrupted.data["outputs"][len(state.trace) // 2, 0] += 1e-6
        assert any("oracle" in p for p in workload.check(state, corrupted))

    def test_duplicate_delivery_fails(self, stream_run):
        workload, state, outcome = stream_run
        corrupted = copy.deepcopy(outcome)
        corrupted.data["deliveries"][0] = 2
        assert any("exactly once" in p for p in workload.check(state, corrupted))


class TestBulkChecks:
    def test_clean_run_passes(self, bulk_run):
        workload, state, outcome = bulk_run
        assert outcome.failed == 0 and outcome.attempted > 0
        assert workload.check(state, outcome) == []

    def test_wrong_argmax_fails(self, bulk_run):
        workload, state, outcome = bulk_run
        corrupted = copy.deepcopy(outcome)
        corrupted.data["served"] = [
            (tenant, pick, top + 1, finite) for tenant, pick, top, finite in outcome.data["served"]
        ]
        assert any("agreement" in p for p in workload.check(state, corrupted))

    def test_non_finite_logits_fail(self, bulk_run):
        workload, state, outcome = bulk_run
        corrupted = copy.deepcopy(outcome)
        tenant, pick, top, _ = corrupted.data["served"][0]
        corrupted.data["served"][0] = (tenant, pick, top, False)
        assert any("non-finite" in p for p in workload.check(state, corrupted))

    def test_lost_request_fails(self, bulk_run):
        workload, state, outcome = bulk_run
        corrupted = copy.deepcopy(outcome)
        corrupted.data["undelivered"] = 1
        assert any("exactly once" in p for p in workload.check(state, corrupted))


class TestLearnChecks:
    def test_clean_run_passes(self, learn_run):
        workload, state, outcome = learn_run
        assert outcome.attempted == 1 and outcome.failed == 0
        assert workload.check(state, outcome) == []

    def test_member_drift_fails(self, learn_run):
        workload, state, outcome = learn_run
        corrupted = copy.deepcopy(outcome)
        corrupted.data["jobs"][0].noise0 = corrupted.data["jobs"][0].noise0 + 1e-4
        assert any("sequential" in p for p in workload.check(state, corrupted))

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, float("inf")])
    def test_invalid_estimate_fails(self, learn_run, bad):
        workload, state, outcome = learn_run
        corrupted = copy.deepcopy(outcome)
        corrupted.data["jobs"][0].estimates[1] = bad
        assert any("invalid MI" in p for p in workload.check(state, corrupted))

    def test_inverted_interval_fails(self, learn_run):
        workload, state, outcome = learn_run
        corrupted = copy.deepcopy(outcome)
        point, low, high = corrupted.data["jobs"][0].intervals[0]
        corrupted.data["jobs"][0].intervals[0] = (point, high + 1.0, high)
        assert any("inverted" in p for p in workload.check(state, corrupted))


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    per_layer = {**PER_LAYER, **{f"trace.overhead.{n}": "x" for n in END_TO_END}}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
