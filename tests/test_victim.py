"""The standard global augmentation shared by both trainers."""

import math

import numpy as np

from advfield.cloudio import PointCloud
from advfield.geometry import OrientedBox, box_contains_many
from advfield.victim import standard_augment


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
