"""The benchmark's serving trace points stay on the serving path.

perfbench derives its per-layer serving metrics from spans recorded at
the wrap points of :func:`perfbench.layers.serving_points`: a method of a
serving class, or a module attribute in the namespace that calls it (the
codec functions as :mod:`repro.serve.controlplane` sees them).  A
refactor that moves a wrapped call off the path — say, the codec calls
out of :mod:`repro.serve.controlplane` — would silently zero a per-layer
metric.  This test installs every point, serves a short stream through a
one-deployment plane with noise and an 8-bit uplink, and asserts that
each point recorded a span.  Points that share a metric name (the
sampler's single-request and multi-request draws) are installed under
names of their own, so each must fire.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from perfbench.layers import serving_points
from perfbench.trace import Tracer
from repro.core import NoiseCollection, SplitInferenceModel
from repro.edge import calibrate
from repro.serve import ControlPlane


def test_every_serving_point_records_a_span(lenet_bundle):
    model = lenet_bundle.model
    split = SplitInferenceModel(model)
    images = lenet_bundle.test_set.images
    noise = NoiseCollection(split.activation_shape)
    rng = np.random.default_rng(3)
    for _ in range(4):
        noise.add(
            rng.laplace(0, 0.05, size=split.activation_shape).astype(np.float32),
            accuracy=0.0,
            in_vivo_privacy=0.0,
        )
    quantization = calibrate(split.activations(images[:32]), bits=8)
    points = [
        replace(point, name=f"{point.name}/{point.attr}")
        for point in serving_points({})
    ]
    assert len({point.name for point in points}) == 16
    with Tracer(points) as tracer:
        with ControlPlane(workers=1) as plane:
            plane.register(
                "lenet", model, split.cut, noise=noise,
                rng=np.random.default_rng(0), quantization=quantization,
                batch_window=4,
            )
            # A lone request first (a one-request micro-batch), then a
            # backlog that fills whole windows.
            handles = [plane.submit(images[:1], session_id="user-0")]
            delivered = plane.pump(flush=True)
            handles += [
                plane.submit(images[i : i + 1], session_id=f"user-{i % 3}")
                for i in range(1, 10)
            ]
            delivered += plane.pump(flush=True) + plane.drain()
            assert sorted(delivered) == sorted(handles)
            for handle in handles:
                assert plane.result(handle).shape == (1, 10)
    fired = set(tracer.spans().names)
    missing = sorted({point.name for point in points} - fired)
    assert not missing, f"trace points that recorded no span: {missing}"
