import math

import numpy as np
import pytest

from advfield.geometry import (OrientedBox, bearing, box_contains_many, iou_3d,
                               rot_z, wrap_2pi, wrap_pi)


def box_contains(box: OrientedBox, point) -> bool:
    """Scalar oracle of box_contains_many: the point, in the box frame, within the extents."""
    local = box.to_local(np.asarray(point, dtype=float).reshape(1, 3))[0]
    return bool(np.all(np.abs(local) <= box.half_extents))


class TestOrientedBox:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            OrientedBox(np.zeros(3), 0.0, 1.0, 1.0, 0.0)

    def test_yaw_wrapped_to_half_open_interval(self):
        box = OrientedBox(np.zeros(3), 1, 1, 1, math.pi)
        assert -math.pi <= box.yaw < math.pi

    def test_contains_center(self):
        box = OrientedBox([1, 2, 3], 1.0, 2.0, 3.0, 0.7)
        assert box_contains(box, [1, 2, 3])

    def test_corner_epsilon_outside(self):
        box = OrientedBox(np.zeros(3), 2.0, 2.0, 2.0, 0.0)
        assert box_contains(box, [1.0, 1.0, 1.0])
        assert not box_contains(box, [1.0 + 1e-9, 1.0, 1.0])

    def test_membership_matches_rotation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            box = OrientedBox(rng.normal(size=3), *rng.uniform(0.5, 3.0, 3),
                              rng.uniform(-math.pi, math.pi))
            p = rng.normal(scale=2.0, size=3)
            # oracle: explicit inverse rotation then axis-aligned comparison
            c, s = math.cos(-box.yaw), math.sin(-box.yaw)
            rel = p - box.center
            local = np.array([c * rel[0] - s * rel[1],
                              s * rel[0] + c * rel[1], rel[2]])
            expected = (abs(local[0]) <= box.length / 2
                        and abs(local[1]) <= box.width / 2
                        and abs(local[2]) <= box.height / 2)
            assert box_contains(box, p) == expected

    def test_vectorized_membership_agrees(self):
        rng = np.random.default_rng(4)
        box = OrientedBox([0, 1, 0], 1.5, 1.0, 3.0, 0.4)
        pts = rng.normal(scale=1.5, size=(500, 3))
        mask = box_contains_many(box, pts)
        assert mask.tolist() == [box_contains(box, p) for p in pts]


class TestIou3d:
    def test_identical_boxes(self):
        box = OrientedBox([1, 2, 0.5], 1.8, 1.6, 4.6, 0.3)
        assert iou_3d(box, box) == 1.0
        rng = np.random.default_rng(22)
        for _ in range(500):
            box = OrientedBox(rng.normal(scale=10.0, size=3), *rng.uniform(0.1, 6.0, 3),
                              rng.uniform(-math.pi, math.pi))
            assert iou_3d(box, box) == 1.0, box

    def test_disjoint_boxes(self):
        a = OrientedBox(np.zeros(3), 1, 1, 1, 0.0)
        b = OrientedBox([10, 0, 0], 1, 1, 1, 0.4)
        assert iou_3d(a, b) == 0.0

    @pytest.mark.parametrize("offset, yaw", [((1.2, 0.0), 0.0), ((0.0, 1.0), 0.0),
                                             ((0.0, -1.2), math.pi), ((1.1, 0.2), 0.7)])
    def test_disjoint_boxes_of_equal_yaw_inside_each_others_reach(self, offset, yaw):
        # the centers lie closer than the circumscribing circles' reach (sqrt 2),
        # so only the per-axis overlap, zero or negative, rejects the pair
        a = OrientedBox(np.zeros(3), 1, 1, 1, yaw)
        center = rot_z(yaw) @ np.array([*offset, 0.0])
        assert np.hypot(*offset) < math.sqrt(2.0)
        assert iou_3d(a, OrientedBox(center, 1, 1, 1, yaw)) == 0.0

    def test_unit_cubes_half_offset(self):
        a = OrientedBox(np.zeros(3), 1, 1, 1, 0.0)
        b = OrientedBox([0.5, 0, 0], 1, 1, 1, 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_equal_yaw_exact_after_rotation(self):
        a = OrientedBox(np.zeros(3), 1, 1, 1, 0.9)
        offset = rot_z(0.9) @ np.array([0.5, 0.0, 0.0])
        b = OrientedBox(offset, 1, 1, 1, 0.9)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_square_against_its_45_degree_turn(self):
        # the overlap is a regular octagon of area 8 (sqrt 2 - 1), so IoU = 1/sqrt 2
        a = OrientedBox(np.zeros(3), 2, 1, 2, 0.0)
        b = OrientedBox(np.zeros(3), 2, 1, 2, math.pi / 4)
        assert iou_3d(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_half_turn_is_the_same_box(self):
        box = OrientedBox([1, 2, 0.5], 1.8, 1.6, 4.6, 0.3)
        assert iou_3d(box, OrientedBox(box.center, 1.8, 1.6, 4.6, 0.3 + math.pi)) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = OrientedBox(rng.normal(scale=0.5, size=3), *rng.uniform(0.8, 2.5, 3),
                            rng.uniform(-math.pi, math.pi))
            b = OrientedBox(rng.normal(scale=0.5, size=3), *rng.uniform(0.8, 2.5, 3),
                            rng.uniform(-math.pi, math.pi))
            assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-12)

    def test_tiny_yaw_gap_tracks_exact(self):
        a = OrientedBox(np.zeros(3), 1, 1, 1, 0.0)
        b = OrientedBox([0.5, 0, 0], 1, 1, 1, 1e-6)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 6:
            a = OrientedBox(rng.normal(scale=0.4, size=3), *rng.uniform(0.8, 2.5, 3),
                            rng.uniform(-math.pi, math.pi))
            b = OrientedBox(rng.normal(scale=0.4, size=3), *rng.uniform(0.8, 2.5, 3),
                            rng.uniform(-math.pi, math.pi))
            exact = iou_3d(a, b)
            if exact < 0.05:
                continue
            assert exact == pytest.approx(monte_carlo_iou(a, b, rng), abs=3e-3)
            checked += 1


def monte_carlo_iou(a, b, rng, samples=1_000_000):
    """Sampled IoU oracle: the share of uniform points in a that b contains."""
    local = (rng.random((samples, 3)) - 0.5) * (2.0 * a.half_extents)
    inside = np.count_nonzero(box_contains_many(b, a.to_world(local)))
    inter = inside / samples * a.volume
    return inter / (a.volume + b.volume - inter)


class TestBearing:
    def test_plus_x_axis(self):
        assert bearing([1.0, 0.0, 5.0], [0, 0, 0]) == 0.0

    def test_plus_y_axis(self):
        assert bearing([0.0, 1.0, -2.0], [0, 0, 0]) == pytest.approx(math.pi / 2)

    def test_third_quadrant_hand_check(self):
        assert bearing([-1.0, -1.0, 0.3], [0, 0, 0]) == pytest.approx(5 * math.pi / 4)

    def test_degenerate_vertical(self):
        with pytest.raises(ValueError):
            bearing([0.0, 1e-12, 4.0], [0, 0, 0])

    def test_rotation_shifts_bearing(self):
        rng = np.random.default_rng(6)
        sensor = np.array([0.5, -0.2, 1.7])
        for _ in range(300):
            p = sensor + rng.normal(size=3) * [5, 5, 1] + [3, 0, 0]
            if math.hypot(*(p - sensor)[:2]) < 1e-6:
                continue
            delta = rng.uniform(0, 2 * math.pi)
            rotated = rot_z(delta) @ (p - sensor) + sensor
            got = bearing(rotated, sensor)
            expected = wrap_2pi(bearing(p, sensor) + delta)
            assert math.isclose(got, expected, abs_tol=1e-9) or \
                math.isclose(abs(got - expected), 2 * math.pi, abs_tol=1e-9)


def test_wrap_helpers():
    assert wrap_pi(math.pi) == pytest.approx(-math.pi)
    assert wrap_2pi(-0.1) == pytest.approx(2 * math.pi - 0.1)
    assert float(wrap_2pi(2 * math.pi)) in (0.0, pytest.approx(0.0))
