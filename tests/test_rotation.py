import math

import numpy as np
import pytest

from advfield.cloudio import PointCloud
from advfield.geometry import OrientedBox, rot_z
from advfield.rotation import (axis_aligned_box_of_instance, group_of, group_of_axis_aligned,
                               reference_angle, slice_of)

SENSOR = np.array([0.0, 0.0, 1.7])
TWELVE = 12


def forward_box(bearing_angle, yaw, rng_range=20.0):
    center = np.array([rng_range * math.cos(bearing_angle),
                       rng_range * math.sin(bearing_angle), 0.8])
    return OrientedBox(center, 1.8, 1.6, 4.6, yaw)


class TestScheme:
    def test_reference_angles(self):
        assert reference_angle(1, TWELVE) == 0.0
        assert reference_angle(4, TWELVE) == pytest.approx(math.pi / 2)

    def test_slices_partition_circle(self):
        angles = np.linspace(0, 2 * math.pi, 3600, endpoint=False)
        groups = np.array([slice_of(a, TWELVE) for a in angles])
        assert set(groups) == set(range(1, 13))
        counts = np.bincount(groups)[1:]
        assert counts.min() == counts.max() == 300

    def test_boundary_goes_to_higher_group(self):
        half = math.pi / TWELVE
        assert slice_of(reference_angle(3, TWELVE) + half, TWELVE) == 4
        assert slice_of(reference_angle(3, TWELVE) + half - 1e-9, TWELVE) == 3
        # every boundary of the axis-aligned bank (6), the default scheme (12)
        # and the doubled scheme that axis-aligned grouping of 12 groups uses
        for groups in (6, TWELVE, 24):
            half = math.pi / groups
            for g in range(1, groups + 1):
                boundary = reference_angle(g, groups) + half
                assert slice_of(boundary, groups) == g % groups + 1, (groups, g)
                assert slice_of(boundary - 1e-9, groups) == g, (groups, g)

    def test_single_group_scheme(self):
        assert all(slice_of(a, 1) == 1 for a in np.linspace(0, 6.28, 50))


class TestGroupOf:
    def test_forward_facing_at_reference_angles(self):
        for g in range(1, 13):
            box = forward_box(reference_angle(g, TWELVE), yaw=0.0)
            assert group_of(box, SENSOR, TWELVE) == g

    def test_clock_position_one_pointing_left(self):
        # the reference diagram is drawn with its clock numbering running
        # clockwise; mirrored into this frame, "pointing left" is yaw -pi/2
        box = forward_box(reference_angle(1, TWELVE), yaw=-math.pi / 2)
        assert group_of(box, SENSOR, TWELVE) == 4

    def test_clock_position_ten_rotated_twenty_degrees(self):
        # clockwise rotation in the diagram maps to positive yaw here
        box = forward_box(reference_angle(10, TWELVE), yaw=math.radians(20.0))
        assert group_of(box, SENSOR, TWELVE) == 9

    def test_global_rotation_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            bearing_angle = rng.uniform(0, 2 * math.pi)
            yaw = rng.uniform(-math.pi, math.pi)
            delta = rng.uniform(0, 2 * math.pi)
            box = forward_box(bearing_angle, yaw, rng_range=rng.uniform(5, 50))
            rotated = OrientedBox(rot_z(delta) @ box.center, box.width,
                                  box.height, box.length, box.yaw + delta)
            assert group_of(box, SENSOR * [0, 0, 1], TWELVE) == \
                group_of(rotated, SENSOR * [0, 0, 1], TWELVE)

    def test_sensor_offset_uses_relative_bearing(self):
        sensor = np.array([5.0, 5.0, 1.7])
        box = OrientedBox([5.0 + 10.0, 5.0, 0.8], 1.8, 1.6, 4.6, 0.0)
        assert group_of(box, sensor, TWELVE) == 1


class TestAxisAlignedGrouping:
    def test_opposite_bearings_fold_together(self):
        a = forward_box(0.3, 0.0)
        b = forward_box(0.3 + math.pi, 0.0)
        assert group_of_axis_aligned(a, SENSOR, 6) == group_of_axis_aligned(b, SENSOR, 6)

    def test_folded_equals_oriented_group_mod_six(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            bearing_angle = rng.uniform(0, 2 * math.pi)
            yaw = rng.uniform(-math.pi, math.pi)
            box = forward_box(bearing_angle, yaw, rng_range=rng.uniform(5, 50))
            oriented = group_of(box, SENSOR, TWELVE)
            folded = group_of_axis_aligned(box, SENSOR, 6)
            assert folded == (oriented - 1) % 6 + 1


class TestInstanceBoxes:
    def _instance_cloud(self, rng, yaw=0.0, n=300):
        local = (rng.random((n, 3)) - 0.5) * [4.0, 1.6, 1.4]
        world = local @ rot_z(yaw).T + [12.0, 3.0, 0.8]
        xyz = np.vstack([world, rng.normal(size=(40, 3)) * 30 + [40, -20, 1]])
        instance = np.concatenate([np.ones(n, np.int32), np.zeros(40, np.int32)])
        return PointCloud(xyz, np.full(len(xyz), 0.4),
                          np.ones(len(xyz), np.int32), instance)

    def test_contains_every_instance_point(self):
        rng = np.random.default_rng(3)
        cloud = self._instance_cloud(rng)
        box = axis_aligned_box_of_instance(cloud, 1, step=0.2)
        from advfield.geometry import box_contains_many

        points = cloud.xyz[cloud.instance == 1]
        assert box_contains_many(box, points).all()

    def test_rotated_instance_still_contained(self):
        rng = np.random.default_rng(4)
        cloud = self._instance_cloud(rng, yaw=0.8)
        box = axis_aligned_box_of_instance(cloud, 1, step=0.2)
        from advfield.geometry import box_contains_many

        points = cloud.xyz[cloud.instance == 1]
        assert box_contains_many(box, points).all()
        assert box.yaw in (0.0, pytest.approx(math.pi / 2))

    def test_volume_conservative_for_covering_instances(self):
        # for instances whose points span the whole object, the axis-aligned
        # hull is at least as large as the tight oriented box of those points
        # (one-sided sensor visibility voids this, so sample full coverage)
        rng = np.random.default_rng(5)
        for _ in range(100):
            yaw = rng.uniform(-math.pi, math.pi)
            dims = rng.uniform(0.9, 1.1, 3) * np.array([1.8, 1.6, 4.6])
            local = (rng.random((400, 3)) - 0.5) * [dims[2], dims[0], dims[1]]
            world = local @ rot_z(yaw).T + [10.0, 5.0, dims[1] / 2]
            cloud = PointCloud(world, np.full(400, 0.5),
                               np.ones(400, np.int32), np.ones(400, np.int32))
            aab = axis_aligned_box_of_instance(cloud, 1, step=0.2)
            tight = float(np.prod(local.max(axis=0) - local.min(axis=0)))
            assert aab.volume >= tight

    def test_too_few_points_skipped(self):
        cloud = PointCloud(np.zeros((2, 3)), [0.1, 0.2], [1, 1], [1, 1])
        assert axis_aligned_box_of_instance(cloud, 1, 0.2) is None
