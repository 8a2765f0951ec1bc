"""Span arithmetic, cross-thread linking, and wrap/restore of the tracer."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from perfbench.layers import (
    PER_LAYER,
    learning_layers,
    learning_points,
    serving_layers,
    serving_points,
)
from perfbench.trace import (
    Tracer,
    WrapPoint,
    load_spans,
    self_times,
    spans_from_records,
    write_spans,
)

MAIN, WORKER = 1, 2


def spans_of(records):
    return spans_from_records(records, MAIN)


def by_name(spans, values):
    return {spans.names[spans.name[row]]: float(values[row]) for row in range(len(spans))}


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = spans_of([
            (0, "outer", 0.0, 10.0, MAIN, -1, None),
            (1, "a", 1.0, 3.0, MAIN, 0, None),
            (2, "b", 5.0, 6.0, MAIN, 0, None),
            (3, "grandchild", 1.5, 2.5, MAIN, 1, None),
        ])
        own = by_name(spans, self_times(spans))
        assert own["outer"] == pytest.approx(7.0)
        assert own["a"] == pytest.approx(1.0)
        assert own["grandchild"] == pytest.approx(1.0)
        assert own["b"] == pytest.approx(1.0)

    def test_overlapping_children_count_their_union(self):
        spans = spans_of([
            (0, "outer", 0.0, 10.0, MAIN, -1, None),
            (1, "a", 1.0, 4.0, MAIN, 0, None),
            (2, "b", 2.0, 5.0, MAIN, 0, None),
            (3, "c", 9.0, 12.0, MAIN, 0, None),  # clipped to the parent
        ])
        assert by_name(spans, self_times(spans))["outer"] == pytest.approx(10.0 - 4.0 - 1.0)

    def test_spans_on_other_threads_never_reduce_self_time(self):
        spans = spans_of([
            (0, "dispatch", 0.0, 10.0, MAIN, -1, None),
            (1, "worker", 2.0, 8.0, WORKER, -1, None),
        ])
        own = by_name(spans, self_times(spans))
        assert own["dispatch"] == pytest.approx(10.0)
        assert own["worker"] == pytest.approx(6.0)

    def test_parent_ids_become_rows_sorted_by_start(self):
        spans = spans_of([
            (5, "child", 2.0, 3.0, MAIN, 9, None),
            (9, "parent", 1.0, 4.0, MAIN, -1, None),
        ])
        assert spans.names[spans.name[0]] == "parent"
        assert list(spans.parent) == [-1, 0]
        assert list(spans.thread) == [0, 0]


def one_request_trace():
    """One request through the plane: submitted at 0, dispatched inside
    the first pump, served on the worker, delivered by the second pump."""
    ids = (0,)
    return [
        (0, "serve.controlplane.submit", 0.0, 1.0, MAIN, -1, ("lenet", 0)),
        (1, "serve.controlplane.pump", 2.0, 10.0, MAIN, -1, ()),
        (2, "serve.scheduler.next_batch", 2.0, 3.0, MAIN, 1, 1),
        (3, "edge.device.forward_batch", 3.0, 5.0, MAIN, 1, ("lenet", ids, 1)),
        (4, "edge.executor.call", 3.5, 4.5, MAIN, 3, 1),
        (5, "core.sampler.sample", 3.0, 3.5, MAIN, 3, 1),
        (6, "edge.protocol.encode_activation_batch", 5.0, 6.0, MAIN, 1, (ids, 300)),
        (7, "edge.channel.transmit", 7.0, 7.5, WORKER, -1, "lenet"),
        (8, "edge.protocol.decode_activation_batch", 7.5, 8.0, WORKER, -1, (ids, 300)),
        (9, "edge.device.predict_batch", 8.0, 9.0, WORKER, -1, ("lenet", ids, 1)),
        (10, "edge.executor.call", 8.0, 8.5, WORKER, 9, 1),
        (11, "edge.protocol.encode_prediction_batch", 9.0, 9.2, WORKER, -1, (ids, 60)),
        (12, "edge.channel.transmit", 9.2, 9.3, WORKER, -1, "lenet"),
        (13, "edge.protocol.decode_prediction_batch", 9.3, 9.5, WORKER, -1, (ids, 60)),
        (14, "serve.controlplane.pump", 11.0, 12.0, MAIN, -1, (("lenet", 0),)),
        (15, "serve.controlplane.register", -5.0, -4.0, MAIN, -1, "lenet"),
    ]


class TestServingLayers:
    def test_one_request_decomposes(self):
        layers = serving_layers(spans_of(one_request_trace()), 0.0, 20.0)
        assert layers["serve.controlplane.submit_us"] == pytest.approx(1e6)
        # Pump self time: (8 - 1 - 2 - 1) + 1 seconds for one request.
        assert layers["serve.controlplane.pump_self_us_per_req"] == pytest.approx(5e6)
        assert layers["serve.controlplane.dispatcher_busy_share"] == pytest.approx(10 / 20)
        worker_busy = 0.5 + 0.5 + 1.0 + 0.2 + 0.1 + 0.2
        assert layers["serve.controlplane.worker_busy_share"] == pytest.approx(worker_busy / 20)
        # Linked across threads through the request ids the spans carry.
        assert layers["serve.controlplane.worker_wait_p50_ms"] == pytest.approx(1e3)
        assert layers["serve.controlplane.collect_wait_p50_ms"] == pytest.approx(2.5e3)
        assert layers["serve.scheduler.queue_wait_p50_ms"] == pytest.approx(3e3)
        assert layers["serve.scheduler.batch_occupancy"] == 1
        assert layers["edge.executor.edge_us_per_row.lenet"] == pytest.approx(1e6)
        assert layers["edge.executor.cloud_us_per_row.lenet"] == pytest.approx(0.5e6)
        assert layers["edge.executor.edge_us_per_row.svhn"] == 0
        assert layers["edge.executor.calls_per_batch"] == 2
        assert layers["core.sampler.sample_us_per_req"] == pytest.approx(0.5e6)
        assert layers["edge.protocol.codec_us_per_req"] == pytest.approx((1 + 0.5 + 0.2 + 0.2) * 1e6)
        assert layers["edge.protocol.uplink_bytes_per_req"] == 300
        assert layers["edge.protocol.downlink_bytes_per_req"] == 60
        assert layers["setup.register_s"] == pytest.approx(1.0)

    def test_links_need_matching_deployment(self):
        records = one_request_trace()
        records[7] = (7, "edge.channel.transmit", 7.0, 7.5, WORKER, -1, "svhn")
        layers = serving_layers(spans_of(records), 0.0, 20.0)
        assert layers["serve.controlplane.worker_wait_p50_ms"] == 0

    def test_every_metric_name_is_declared(self):
        layers = serving_layers(spans_of(one_request_trace()), 0.0, 20.0)
        assert set(layers) <= set(PER_LAYER)


class TestLearningLayers:
    def test_per_step_and_per_job(self):
        spans = spans_of([
            (0, "core.trainer.init", 0.0, 2.0, MAIN, -1, 100),
            (1, "nn.sequential.call", 0.5, 1.5, MAIN, 0, None),
            (2, "core.trainer.train_many", 2.0, 6.0, MAIN, -1, 2),
            (3, "nn.sequential.call", 2.0, 2.5, MAIN, 2, None),
            (4, "nn.sequential.call", 2.1, 2.2, MAIN, 3, None),  # nested: not a step
            (5, "nn.tensor.backward", 2.5, 3.5, MAIN, 2, None),
            (6, "nn.adam.step", 3.5, 3.7, MAIN, 2, None),
            (7, "nn.sequential.call", 4.0, 4.5, MAIN, 2, None),
            (8, "core.split.accuracy_multi", 5.0, 6.0, MAIN, 2, None),
            (9, "privacy.estimate_leakage", 6.0, 7.0, MAIN, -1, None),
            (10, "privacy.pca_fit_transform", 6.0, 6.5, MAIN, 9, None),
            (11, "privacy.ksg", 6.5, 7.0, MAIN, 9, None),
        ])
        layers = learning_layers(spans, jobs=1)
        assert layers["core.trainer.materialise_s"] == pytest.approx(2.0)
        assert layers["nn.local_forward_us_per_row"] == pytest.approx(2e4)
        assert layers["core.trainer.step_ms"] == pytest.approx(2e3)
        assert layers["nn.remote_forward_ms"] == pytest.approx(0.5e3)
        assert layers["nn.backward_ms"] == pytest.approx(0.5e3)
        assert layers["nn.adam_step_ms"] == pytest.approx(0.1e3)
        assert layers["core.trainer.probe_s"] == pytest.approx(1.0)
        assert layers["privacy.pca_s"] == pytest.approx(0.5)
        assert layers["privacy.ksg_s"] == pytest.approx(0.5)
        assert layers["privacy.estimates"] == 1
        assert set(layers) <= set(PER_LAYER)


class Probe:
    def method(self, x):
        return x + 1


class Child(Probe):
    pass


class TestTracer:
    def test_records_and_restores_own_and_inherited_attributes(self):
        original = Probe.method
        tracer = Tracer([
            WrapPoint("probe", Probe, "method", lambda a, k, r: r),
            WrapPoint("child", Child, "method"),
        ])
        with tracer:
            assert Child().method(1) == 2
            assert Probe().method(2) == 3
        assert Probe.method is original
        assert "method" not in vars(Child)
        spans = tracer.spans()
        assert sorted(spans.names) == ["child", "probe"]
        child_row = int(np.flatnonzero(spans.name == spans.names.index("child"))[0])
        probe_rows = spans.rows("probe")
        # Child.method wraps the (wrapped) inherited Probe.method.
        assert spans.parent[probe_rows[0]] == child_row
        assert sorted(spans.attrs[r] for r in probe_rows) == [2, 3]

    def test_threads_get_their_own_stack(self):
        tracer = Tracer([WrapPoint("probe", Probe, "method")])
        with tracer:
            worker = threading.Thread(target=Probe().method, args=(0,))
            worker.start()
            worker.join(timeout=10)
            Probe().method(0)
        assert not worker.is_alive()
        spans = tracer.spans()
        assert sorted(spans.thread.tolist()) == [0, 1]
        assert list(spans.parent) == [-1, -1]

    def test_exceptions_still_close_the_span(self):
        def fail(self, x):
            raise ValueError(x)

        class Failing:
            method = fail

        tracer = Tracer([WrapPoint("fail", Failing, "method", lambda a, k, r: "unused")])
        with tracer, pytest.raises(ValueError):
            Failing().method(1)
        spans = tracer.spans()
        assert len(spans) == 1 and spans.attrs[0] is None
        assert Failing.method is fail

    @pytest.mark.parametrize("points", ["serving", "learning"])
    def test_uninstall_restores_every_wrapped_function(self, points):
        wraps = serving_points({}) if points == "serving" else learning_points()
        before = [(p.owner, p.attr, p.attr in vars(p.owner), getattr(p.owner, p.attr)) for p in wraps]
        tracer = Tracer(wraps)
        with tracer:
            for owner, attr, _, original in before:
                assert getattr(owner, attr) is not original
        for owner, attr, own, original in before:
            assert getattr(owner, attr) is original
            assert (attr in vars(owner)) == own

    def test_write_and_load_round_trip(self, tmp_path):
        tracer = Tracer([WrapPoint("probe", Probe, "method", lambda a, k, r: (r, [1, 2]))])
        with tracer:
            Probe().method(4)
        path = write_spans(tmp_path / "t.npz", tracer.spans(), {"workload": "probe"})
        spans, meta = load_spans(path)
        assert meta == {"workload": "probe"}
        assert spans.names == ["probe"] and spans.attrs == [[5, [1, 2]]]
        assert spans.end[0] >= spans.start[0]
