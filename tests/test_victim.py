"""The standard global augmentation and the hook contract of both trainers."""

import math
from collections import Counter

import numpy as np
import pytest

from advfield.cloudio import PointCloud
from advfield.geometry import OrientedBox, box_contains_many
from advfield.victim import standard_augment, train_det, train_seg


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
