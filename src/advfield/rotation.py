"""Sensor-relative rotation grouping of objects.

Every object is assigned to one of G angular slices based on how the sensor
sees it: the slice of (bearing - yaw) mod 2*pi, which is the position an
equivalent forward-facing object with the same incidence angle would occupy.
Slices are centered on the reference angles beta_g = (g-1) * 2*pi/G and
half-open on the upper side, so boundary angles resolve deterministically.

Axis-aligned boxes carry no heading sign, only an orientation modulo pi
(from the longer horizontal side). They are grouped on a 2G-slice scheme and
opposite slice pairs (g, g+G) fold onto g, giving G usable fields.

:func:`target_boxes` is the one place that picks the boxes a bank deforms and
their groups, for fitting, augmented training and evaluation alike.
``field.plan_targets`` plans all of them for fitting and evaluation;
augmented training plans only the one box it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudio import PointCloud
from .geometry import OrientedBox, bearing, box_contains_many, wrap_2pi

# bias, in slice widths, that lifts a boundary angle into the upper slice
SLICE_BOUNDARY_BIAS = 1e-12

# where target boxes come from: ground-truth scene boxes, or world-axis-aligned
# boxes around labeled instances (heading known only modulo pi)
BOX_MODES = ("gt", "axis-aligned")


@dataclass(frozen=True)
class GroupScheme:
    """G angular slices of width 2*pi/G centered on beta_g = (g-1)*2*pi/G."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("group count must be >= 1")

    @property
    def slice_width(self) -> float:
        return 2.0 * math.pi / self.count

    def reference_angle(self, group: int) -> float:
        """beta_g for a 1-based group index."""
        if not 1 <= group <= self.count:
            raise ValueError(f"group must be in 1..{self.count}")
        return (group - 1) * self.slice_width

    def slice_of(self, angle: float) -> int:
        """1-based index of the half-open slice [beta_g - w/2, beta_g + w/2).

        The quotient ``shifted / width`` at a boundary beta_g + w/2 can round
        to just under the integer g, which a bare floor would send to the
        lower slice. ``SLICE_BOUNDARY_BIAS`` (in slice widths) lifts it back,
        as ``field.lattice_counts`` does for exact-ratio extents. It is far
        below any angle offset the grouping resolves: an angle 1e-9 rad under
        a boundary still falls in the lower slice for every G up to 360.
        """
        width = self.slice_width
        shifted = wrap_2pi(float(angle) + width / 2.0)
        index = math.floor(shifted / width + SLICE_BOUNDARY_BIAS)
        return index % self.count + 1


def group_of(box: OrientedBox, sensor, scheme: GroupScheme) -> int:
    """Rotation group of an oriented object as seen from ``sensor``."""
    return scheme.slice_of(bearing(box.center, sensor) - box.yaw)


def fold_opposite(group: int, count: int) -> int:
    """Fold slice indices of a 2*count scheme so g and g+count coincide."""
    return (group - 1) % count + 1


def group_of_axis_aligned(box: OrientedBox, sensor, scheme: GroupScheme) -> int:
    """Group for an axis-aligned box whose yaw is only known modulo pi.

    The box is scored on the doubled (2G-slice) scheme with its yaw reduced
    mod pi, then opposite slices are folded together.
    """
    doubled = GroupScheme(2 * scheme.count)
    theta = bearing(box.center, sensor) - math.fmod(box.yaw, math.pi)
    return fold_opposite(doubled.slice_of(theta), scheme.count)


def axis_aligned_box_of_instance(cloud: PointCloud, instance_id: int,
                                 step: float) -> OrientedBox | None:
    """World-axis-aligned bounding box of an instance, None if under 3 points.

    Extents are inflated by step/2 per side so boundary points have lattice
    roots on their interior side. The yaw encodes the pseudo orientation: the
    long horizontal side becomes the box length (yaw 0 or pi/2).
    """
    points = cloud.xyz[cloud.instance == instance_id]
    if len(points) < 3:
        return None
    low = points.min(axis=0) - step / 2.0
    high = points.max(axis=0) + step / 2.0
    center = (low + high) / 2.0
    ex, ey, ez = high - low
    if ex >= ey:
        return OrientedBox(center, width=ey, height=ez, length=ex, yaw=0.0)
    return OrientedBox(center, width=ex, height=ez, length=ey, yaw=math.pi / 2.0)


def target_boxes(scene, class_id: int, box_mode: str, scheme: GroupScheme,
                 step: float) -> list:
    """The ``(box, group)`` pairs a bank of ``class_id`` deforms in ``scene``.

    With ``box_mode="gt"`` the candidates are the scene's boxes of the class,
    in scene order, grouped by :func:`group_of`. With ``"axis-aligned"`` they
    are :func:`axis_aligned_box_of_instance` boxes (padded by the lattice
    ``step``) of the class's instances in ascending id order, grouped by
    :func:`group_of_axis_aligned`. Only boxes holding at least one point of
    the class are kept.
    """
    cloud = scene.cloud
    of_class = cloud.semantic == class_id
    if box_mode == "gt":
        boxes = [sb.box for sb in scene.boxes if sb.class_id == class_id]
        group_fn = group_of
    elif box_mode == "axis-aligned":
        ids = np.unique(cloud.instance[of_class])
        boxes = [axis_aligned_box_of_instance(cloud, int(i), step) for i in ids[ids > 0]]
        boxes = [box for box in boxes if box is not None]
        group_fn = group_of_axis_aligned
    else:
        raise ValueError(f"box mode must be one of {BOX_MODES}, got {box_mode!r}")
    sensor = scene.sensor.origin
    members = cloud.xyz[of_class]
    return [(box, group_fn(box, sensor, scheme)) for box in boxes
            if np.any(box_contains_many(box, members))]
