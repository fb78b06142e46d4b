"""Hand-written gradients against central finite differences.

Clouds are built so that no point crosses a voxel, anchor-cell or ground-clip
boundary within the finite-difference step: there the features are smooth,
and the analytic input gradients must match to rounding.
"""

import numpy as np

from advfield.attack import (detection_logit_grad, loss_detection, loss_targeted,
                             loss_untargeted, targeted_logit_grad,
                             untargeted_logit_grad)
from advfield.cloudio import PointCloud
from advfield.victim import DetHeadMini, SegNetMini

H = 1e-6


def central_difference(f, x: np.ndarray) -> np.ndarray:
    """d f / d x for a scalar function of an array, one entry at a time."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        keep = x[i]
        x[i] = keep + H
        up = f(x)
        x[i] = keep - H
        down = f(x)
        x[i] = keep
        grad[i] = (up - down) / (2.0 * H)
    return grad


def cell_cloud(rng, cells, size: float, per_cell: int, z_low: float, z_high: float):
    """Points within the middle half of each given grid cell, z in [z_low, z_high]."""
    corners = np.repeat(np.asarray(cells, dtype=float) * size, per_cell, axis=0)
    xy = corners + size * rng.uniform(0.25, 0.75, size=(len(corners), 2))
    z = rng.uniform(z_low, z_high, size=len(corners))
    n = len(corners)
    return PointCloud(np.column_stack([xy, z]), rng.uniform(0.2, 0.8, n),
                      np.zeros(n, np.int32), np.zeros(n, np.int32))


def softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestSegNetBackwardInputs:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        model = SegNetMini(5, hidden=16)
        model.init_random(3)
        # z stays inside one 0.5 m voxel layer: [0.125, 0.375]
        cloud = cell_cloud(rng, [(0, 0), (0, 1), (3, -2)], 0.5, 4, 0.125, 0.375)
        weights = rng.normal(size=(cloud.n, 5))

        def objective(xyz=cloud.xyz, tau=cloud.intensity):
            probs, _ = model.forward(PointCloud(xyz, tau, cloud.semantic, cloud.instance))
            return float((weights * probs).sum())

        probs, tape = model.forward(cloud)
        dlogits = probs * (weights - (weights * probs).sum(axis=1, keepdims=True))
        dpos, dtau = model.backward_inputs(tape, dlogits)

        xyz, tau = cloud.xyz.copy(), cloud.intensity.copy()
        numeric_pos = central_difference(lambda x: objective(xyz=x), xyz)
        numeric_tau = central_difference(lambda t: objective(tau=t), tau)
        scale = np.abs(dpos).max()
        assert scale > 1e-3
        np.testing.assert_allclose(dpos, numeric_pos, rtol=0, atol=1e-7 * scale)
        np.testing.assert_allclose(dtau, numeric_tau, rtol=0,
                                   atol=1e-7 * np.abs(dtau).max())


class TestDetHeadBackwardInputs:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        model = DetHeadMini(area=8.0, stride=2.0, hidden=16)
        model.init_random(4)
        # well above GROUND_CLIP = 0.25, in cells that share anchor neighborhoods
        cloud = cell_cloud(rng, [(0, 0), (1, 0), (-2, 1), (2, -3)], 2.0, 5, 0.5, 1.5)
        weights = rng.normal(size=(model.n_anchors, DetHeadMini.N_OUTPUTS))

        def objective(xyz):
            _, outputs, _ = model.forward(
                PointCloud(xyz, cloud.intensity, cloud.semantic, cloud.instance))
            return float((weights * outputs).sum())

        _, _, tape = model.forward(cloud)
        assert np.all(tape.point_cell >= 0)
        dpos = model.backward_inputs(tape, weights)
        numeric = central_difference(objective, cloud.xyz.copy())
        scale = np.abs(dpos).max()
        assert scale > 1e-3
        np.testing.assert_allclose(dpos, numeric, rtol=0, atol=1e-7 * scale)


class TestAttackLossGradients:
    def test_detection(self):
        rng = np.random.default_rng(33)
        logits = rng.normal(size=7)
        ious = rng.uniform(0.0, 1.0, size=7)
        analytic = detection_logit_grad(sigmoid(logits), ious)
        numeric = central_difference(lambda z: loss_detection(sigmoid(z), ious), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_untargeted(self):
        rng = np.random.default_rng(34)
        logits = rng.normal(size=(9, 4))
        labels = rng.integers(0, 4, size=9)
        analytic = untargeted_logit_grad(softmax(logits), labels)
        numeric = central_difference(lambda z: loss_untargeted(softmax(z), labels), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_targeted(self):
        rng = np.random.default_rng(35)
        logits = rng.normal(size=(9, 4))
        rows = np.array([0, 3, 4, 8])
        analytic = targeted_logit_grad(softmax(logits), rows, 2)
        numeric = central_difference(lambda z: loss_targeted(softmax(z), rows, 2), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)
