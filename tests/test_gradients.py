"""Hand-written gradients against central finite differences.

Clouds are built so that no point crosses a voxel, anchor-cell or ground-clip
boundary within the finite-difference step: there the features are smooth,
and the analytic input gradients must match to rounding. The MLP's parameter
gradients are checked the same way.
"""

import numpy as np

from advfield.attack import (PROB_FLOOR, detection_objective, targeted_objective,
                             untargeted_objective)
from advfield.cloudio import PointCloud
from advfield.geometry import OrientedBox
from advfield.victim import DetHeadMini, SegNetMini, _Mlp
from anchor_fold import fold_onto_rows

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
        model = SegNetMini(5)
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
        model = DetHeadMini()
        model.init_random(4)
        # well above GROUND_CLIP = 0.25, in cells that share anchor neighborhoods
        cloud = cell_cloud(rng, [(0, 0), (1, 0), (-2, 1), (2, -3)], 2.0, 5, 0.5, 1.5)
        weights = rng.normal(size=(model.n_anchors, DetHeadMini.N_OUTPUTS))

        def objective(xyz):
            _, outputs, tape = model.forward(
                PointCloud(xyz, cloud.intensity, cloud.semantic, cloud.instance))
            return float((weights * outputs[tape.anchor_row]).sum())

        _, _, tape = model.forward(cloud)
        assert np.all(tape.point_cell >= 0)
        dpos = model.backward_inputs(tape, fold_onto_rows(tape, weights))
        numeric = central_difference(objective, cloud.xyz.copy())
        scale = np.abs(dpos).max()
        assert scale > 1e-3
        np.testing.assert_allclose(dpos, numeric, rtol=0, atol=1e-7 * scale)


class TestDetHeadLoss:
    def test_matches_finite_differences_with_empty_positive_anchors(self):
        rng = np.random.default_rng(36)
        model = DetHeadMini()
        model.init_random(5)
        model.mlp.params["b3"][:] = rng.normal(size=DetHeadMini.N_OUTPUTS)
        cloud = cell_cloud(rng, [(0, 0), (1, 0), (2, -3)], 2.0, 5, 0.5, 1.5)
        _, outputs, tape = model.forward(cloud)
        boxes = [OrientedBox(np.array([1.7, 0.9, 0.8]), 1.8, 1.6, 4.6, 0.4),
                 # far from every point: its positive anchors share the zero row
                 OrientedBox(np.array([-5.0, 5.5, 0.7]), 1.9, 1.5, 4.2, -1.1)]
        anchors, _ = model.box_targets(boxes)
        rows = tape.anchor_row[anchors]
        assert np.count_nonzero(rows == 0) >= 2 and np.count_nonzero(rows) >= 2

        loss, d_outputs = model.loss(outputs, tape, boxes)
        numeric = central_difference(lambda o: model.loss(o, tape, boxes)[0], outputs.copy())
        # the zero row carries the empty anchors' BCE and their regression
        assert d_outputs[0, 0] != 0.0 and np.all(d_outputs[0, 1:] != 0.0)
        assert np.isfinite(loss)
        np.testing.assert_allclose(d_outputs, numeric, rtol=0,
                                   atol=1e-7 * np.abs(d_outputs).max())


class TestMlpParameterGradients:
    def test_match_finite_differences(self):
        rng = np.random.default_rng(37)
        mlp = _Mlp(4, 6, 3)
        mlp.init_random(6)
        for name in ("b1", "b2", "b3"):  # nonzero biases, so every tanh slope differs
            mlp.params[name][:] = rng.normal(scale=0.5, size=mlp.params[name].shape)
        x = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 3))

        _, tape = mlp.forward(x)
        _, grads = mlp.backward(tape, weights)
        assert list(grads) == ["W3", "b3", "W2", "b2", "W1", "b1"]
        for name, param in mlp.params.items():
            numeric = central_difference(lambda _: float((weights * mlp.forward(x)[0]).sum()),
                                         param)
            scale = np.abs(grads[name]).max()
            assert scale > 1e-3, name
            np.testing.assert_allclose(grads[name], numeric, rtol=0, atol=1e-7 * scale,
                                       err_msg=name)


class TestAttackLossGradients:
    def test_detection(self):
        rng = np.random.default_rng(33)
        logits = rng.normal(size=7)
        ious = rng.uniform(0.0, 1.0, size=7)
        analytic = detection_objective(sigmoid(logits), ious)[1]
        numeric = central_difference(lambda z: detection_objective(sigmoid(z), ious)[0],
                                     logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_untargeted(self):
        rng = np.random.default_rng(34)
        logits = rng.normal(size=(9, 4))
        labels = rng.integers(0, 4, size=9)
        analytic = untargeted_objective(softmax(logits), labels)[1]
        numeric = central_difference(
            lambda z: untargeted_objective(softmax(z), labels)[0].sum(), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_targeted(self):
        rng = np.random.default_rng(35)
        logits = rng.normal(size=(9, 4))
        # rows 0, 3, 4 and 8 hold the adversarial class 1; the target is 2
        labels = np.array([1, 0, 2, 1, 1, 3, 0, 2, 1])
        analytic = targeted_objective(softmax(logits), labels, 1, 2)[1]
        numeric = central_difference(
            lambda z: targeted_objective(softmax(z), labels, 1, 2)[0].sum(), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)


class TestProbabilityFloor:
    """A row whose scored probability is at or below PROB_FLOOR has the loss
    of PROB_FLOOR and a zero logit gradient."""

    # rows 0 and 1 score class 1 at and below the floor, rows 2 and 3 above it
    PROBS = np.array([[0.5, PROB_FLOOR, 0.5 - PROB_FLOOR],
                      [0.6, 0.25 * PROB_FLOOR, 0.4 - 0.25 * PROB_FLOOR],
                      [0.2, 0.3, 0.5],
                      [0.1, 0.7, 0.2]])

    def test_untargeted(self):
        losses, grad = untargeted_objective(self.PROBS, np.array([1, 1, 1, 2]))
        assert losses[0] == losses[1] == np.log(PROB_FLOOR)
        assert np.all(grad[:2] == 0.0)
        np.testing.assert_array_equal(losses[2:], np.log([0.3, 0.2]))
        np.testing.assert_array_equal(grad[2], [-0.2, 0.7, -0.5])
        assert np.all(grad[2:] != 0.0)

    def test_targeted(self):
        # class 0 is adversarial in rows 0, 1 and 3; row 2 is not counted
        losses, grad = targeted_objective(self.PROBS, np.array([0, 0, 2, 0]), 0, 1)
        assert losses[0] == losses[1] == -np.log(PROB_FLOOR)
        assert losses[2] == 0.0 and np.all(grad[2] == 0.0)
        assert np.all(grad[:2] == 0.0)
        assert losses[3] == -np.log(0.7)
        np.testing.assert_array_equal(grad[3], [0.1, 0.7 - 1.0, 0.2])
        # a zero gradient entry is +0.0, never -0.0
        assert not np.signbit(grad[:3]).any()
