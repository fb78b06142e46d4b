"""The standard global augmentation, the shared trainer loop, and the detector's
fixed anchor grid: box decoding and the proposal rule."""

import math
from collections import Counter

import numpy as np
import pytest

from advfield.cloudio import PointCloud
from advfield.geometry import OrientedBox, box_contains_many
from advfield.simulator import CANONICAL_CAR_DIMS
from advfield.victim import (SEG_POINTS_PER_SCENE, DetHeadMini, SegNetMini, standard_augment,
                             train_det, train_seg)


def test_boxes_move_with_their_points():
    rng = np.random.default_rng(5)
    cloud = PointCloud.unlabeled(rng.uniform(-12.0, 12.0, size=(4000, 3)),
                                 rng.uniform(0.0, 1.0, size=4000))
    boxes = [OrientedBox(rng.uniform(-8.0, 8.0, size=3), *rng.uniform(1.0, 5.0, size=3),
                         rng.uniform(-math.pi, math.pi)) for _ in range(5)]
    flips = set()
    for seed in range(8):
        moved, moved_boxes = standard_augment(cloud, boxes, np.random.default_rng(seed))
        # the same draw order as standard_augment: angle, then flip
        replay = np.random.default_rng(seed)
        replay.uniform(-math.pi, math.pi)
        flips.add(bool(replay.random() < 0.5))
        assert len(moved_boxes) == len(boxes)
        for box, moved_box in zip(boxes, moved_boxes):
            before = box_contains_many(box, cloud.xyz)
            assert before.any()
            assert np.array_equal(box_contains_many(moved_box, moved.xyz), before)
    assert flips == {False, True}


def test_no_boxes_moves_only_the_cloud():
    cloud = PointCloud.unlabeled([[1.0, 2.0, 0.5]], [0.3])
    moved, boxes = standard_augment(cloud, (), np.random.default_rng(0))
    assert boxes == []
    assert math.isclose(np.linalg.norm(moved.xyz[0, :2]), math.hypot(1.0, 2.0))
    assert moved.xyz[0, 2] == 0.5


def tiny_scenes(count=3):
    """``count`` clouds of one car on scattered ground, with the car boxes."""
    rng = np.random.default_rng(4)
    clouds, boxes = [], []
    for _ in range(count):
        box = OrientedBox(np.array([rng.uniform(5.0, 15.0), rng.uniform(-5.0, 5.0), 0.8]),
                          1.8, 1.6, 4.6, rng.uniform(-math.pi, math.pi))
        car = box.to_world((rng.random((80, 3)) - 0.5) * 0.9 * [4.6, 1.8, 1.6])
        ground = np.column_stack([rng.uniform(-20.0, 20.0, (200, 2)), np.zeros(200)])
        clouds.append(PointCloud(np.vstack([car, ground]), rng.uniform(0.0, 1.0, 280),
                                 [1] * 80 + [0] * 200, [1] * 80 + [0] * 200))
        boxes.append([box])
    return clouds, boxes


def train(kind, clouds, boxes, hook):
    if kind == "seg":
        return train_seg(clouds, 5, epochs=2, lr=0.01, seed=7, hook=hook)
    return train_det(clouds, boxes, epochs=2, lr=0.01, seed=7, hook=hook)


@pytest.mark.parametrize("kind", ["seg", "det"])
def test_trainers_are_deterministic_and_hook_each_scene_once_per_epoch(kind):
    clouds, boxes = tiny_scenes()
    calls = []

    def hook(index, cloud, rng):
        assert cloud is clouds[index]  # the hook sees the scene's own cloud
        calls.append(index)
        return cloud

    first = train(kind, clouds, boxes, hook)
    assert Counter(calls) == {0: 2, 1: 2, 2: 2}
    second = train(kind, clouds, boxes, None)
    assert first.mlp.params.keys() == second.mlp.params.keys()
    for name, value in first.mlp.params.items():
        assert np.array_equal(value, second.mlp.params[name]), name


def test_train_seg_draws_a_class_balanced_subsample_of_a_large_cloud(monkeypatch):
    # two clouds of twice the per-step budget; class 1 holds 50 points of each
    rng = np.random.default_rng(9)
    n, rare = 2 * SEG_POINTS_PER_SCENE, 50
    labels = [1] * rare + [0] * (n - rare)
    clouds = [PointCloud(rng.uniform(-20.0, 20.0, (n, 3)), rng.uniform(0.0, 1.0, n),
                         labels, np.zeros(n)) for _ in range(2)]
    steps = []
    forward = SegNetMini.forward

    def recording(self, cloud, rows=None):
        steps.append((cloud.semantic, rows))
        return forward(self, cloud, rows)

    monkeypatch.setattr(SegNetMini, "forward", recording)
    first = train_seg(clouds, 5, epochs=2, lr=0.01, seed=7)
    second = train_seg(clouds, 5, epochs=2, lr=0.01, seed=7)
    assert len(steps) == 2 * 2 * 2  # runs x epochs x clouds
    for semantic, rows in steps:
        assert len(np.unique(rows)) == len(rows) == SEG_POINTS_PER_SCENE
        # a uniform draw would give class 1 about its cloud share, 50 / n
        assert np.mean(semantic[rows] == 1) > 1.5 * rare / n
    for name, value in first.mlp.params.items():
        assert value.tobytes() == second.mlp.params[name].tobytes(), name


def test_predict_on_an_empty_cloud_is_an_empty_int32_array():
    model = SegNetMini(5)
    model.init_random(0)
    pred = model.predict(PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0)))
    assert pred.dtype == np.int32 and pred.shape == (0,)


@pytest.mark.parametrize("kind", ["seg", "det"])
def test_trainers_refuse_a_non_finite_loss(kind):
    clouds, boxes = tiny_scenes()
    # an infinite step size wrecks the parameters on the first Adam step
    with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
        if kind == "seg":
            train_seg(clouds, 5, epochs=2, lr=math.inf, seed=7)
        else:
            train_det(clouds, boxes, epochs=2, lr=math.inf, seed=7)
    assert str(err.value) == "non-finite training loss at epoch 0, scene 1"


def test_decoding_a_subset_matches_the_full_grid():
    model = DetHeadMini()
    full = np.random.default_rng(8).normal(size=(model.n_anchors, DetHeadMini.N_OUTPUTS))
    every = model.decode_boxes(np.arange(model.n_anchors), full)
    subset = np.array([4095, 7, 2080, 7, 0, 1234])
    for anchor, box in zip(subset, model.decode_boxes(subset, full)):
        ref = every[anchor]
        assert np.array_equal(box.center, ref.center)
        assert (box.width, box.height, box.length, box.yaw) == (
            ref.width, ref.height, ref.length, ref.yaw)


def test_zero_residuals_decode_to_the_canonical_car_facing_along_the_bearing():
    model = DetHeadMini()
    anchors = np.array([0, 63, 2080, 4032, 4095])
    boxes = model.decode_boxes(anchors, np.zeros((model.n_anchors, DetHeadMini.N_OUTPUTS)))
    for anchor, box in zip(anchors, boxes):
        ix, iy = divmod(int(anchor), model.cells_per_axis)
        center = [(ix + 0.5) * model.stride - model.area,
                  (iy + 0.5) * model.stride - model.area, CANONICAL_CAR_DIMS[1] / 2.0]
        assert np.array_equal(box.center, center)
        assert (box.width, box.height, box.length) == CANONICAL_CAR_DIMS
        assert box.yaw == model.bearings[anchor]
        assert math.isclose(box.yaw, math.atan2(center[1], center[0]), abs_tol=1e-15)


def test_proposals_leave_out_empty_anchors_however_high_they_score():
    model = DetHeadMini()
    model.init_random(0)
    model.mlp.params["b3"][0] = 10.0
    points = [[10.5, 10.5, 1.0], [-20.3, 5.1, 0.8], [30.0, -30.0, 0.1]]  # last: ground
    scores, _, tape = model.forward(PointCloud.unlabeled(points, [0.5] * 3))
    assert np.all(scores > DetHeadMini.PROPOSAL_SCORE)
    k = model.cells_per_axis
    occupied = set()
    for x, y, _ in points[:2]:
        ix, iy = int((x + model.area) // model.stride), int((y + model.area) // model.stride)
        occupied |= {(ix + di) * k + iy + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)}
    assert model.proposals(scores, tape).tolist() == sorted(occupied)
