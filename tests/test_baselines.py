"""The Chamfer baseline's projection into its budget."""

import math

import numpy as np
import pytest

from advfield import baselines, simulator
from advfield.geometry import box_contains_many
from advfield.victim import SegNetMini

DESK_SENSOR = simulator.SensorSpec(channels=20, elevation_min=math.radians(-15.0),
                                   elevation_max=math.radians(4.0),
                                   azimuth_resolution=math.radians(0.7))


def test_the_chamfer_projection_rescales_into_the_budget(monkeypatch):
    # each step moves points by STEP = 0.05, past eps = psi = 0.02, so every
    # projection rescales both the offsets and the intensity shifts
    scene = simulator.generate_scene(0, "normal", None, DESK_SENSOR)
    cloud = scene.cloud
    box = [sb.box for sb in scene.boxes if sb.class_id == simulator.CAR][3]
    idx = np.flatnonzero(box_contains_many(box, cloud.xyz))
    assert len(idx) == 11
    model = SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(5)
    calls = []
    chamfer = baselines.chamfer_distance

    def counting(x, y):
        calls.append(chamfer(x, y))
        return calls[-1]

    monkeypatch.setattr(baselines, "chamfer_distance", counting)
    eps = psi = 0.02
    out = baselines.chamfer_attack(cloud, box, model, eps=eps, psi=psi, iters=3)
    # per iteration, one distance above eps that is rescaled, then one check below it
    assert len(calls) == 6 and all(c > eps for c in calls[::2])
    assert chamfer(out.xyz[idx], cloud.xyz[idx]) <= eps
    # the rescale pins the mean to psi; tau + s - tau rounds in the last bits
    mean_shift = np.abs(out.intensity[idx] - cloud.intensity[idx]).mean()
    assert mean_shift == pytest.approx(psi, rel=0, abs=1e-12)
    outside = np.setdiff1d(np.arange(cloud.n), idx)
    assert np.array_equal(out.xyz[outside], cloud.xyz[outside])
