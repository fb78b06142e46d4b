"""Exact 3D primitives: yaw-oriented boxes, box membership and overlap, angles.

All angles are in radians; degrees exist only at the CLI boundary. Boxes are
yaw-only (no pitch/roll): ``length`` runs along the local x axis, ``width``
along local y, ``height`` along local z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "OrientedBox",
    "wrap_2pi",
    "wrap_pi",
    "rot_z",
    "box_contains_many",
    "iou_3d",
    "bearing",
]


def wrap_2pi(angle):
    """Wrap an angle (scalar or array) to [0, 2*pi)."""
    return np.mod(angle, TWO_PI)


def wrap_pi(angle):
    """Wrap an angle (scalar or array) to [-pi, pi)."""
    return np.mod(np.asarray(angle) + math.pi, TWO_PI) - math.pi


def rot_z(angle: float) -> np.ndarray:
    """3x3 rotation about +z, counter-clockwise seen from above."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _as_vec3(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must have finite components, got {v}")
    return v


@dataclass(frozen=True)
class OrientedBox:
    """Yaw-oriented box: center, width (y), height (z), length (x), yaw."""

    center: np.ndarray
    width: float
    height: float
    length: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center, "center"))
        for name in ("width", "height", "length"):
            value = float(getattr(self, name))
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"box {name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        yaw = float(self.yaw)
        if not math.isfinite(yaw):
            raise ValueError("box yaw must be finite")
        object.__setattr__(self, "yaw", float(wrap_pi(yaw)))

    @property
    def volume(self) -> float:
        """length * width * height, multiplied in ``half_extents`` order.

        The order matches the product of per-axis overlaps in ``iou_3d``, so
        a box intersected with itself gives exactly its volume: float
        products taken in another order can differ in the last bit.
        """
        return self.length * self.width * self.height

    @property
    def half_extents(self) -> np.ndarray:
        """Half sizes along the local (x, y, z) = (length, width, height) axes."""
        return np.array([self.length / 2.0, self.width / 2.0, self.height / 2.0])

    def to_local(self, points: np.ndarray) -> np.ndarray:
        """Express world points (n, 3) in the box frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.center) @ rot_z(self.yaw)

    def to_world(self, points: np.ndarray) -> np.ndarray:
        """Express box-local points (n, 3) in the world frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ rot_z(self.yaw).T + self.center


def box_contains_many(box: OrientedBox, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an (n, 3) array of world points."""
    local = box.to_local(points)
    return np.all(np.abs(local) <= box.half_extents, axis=1)


def _clip_half_plane(polygon: list, nx: float, ny: float, limit: float) -> list:
    """Sutherland-Hodgman step: the part of a convex polygon where n . p <= limit."""
    out = []
    px, py = polygon[-1]
    prev = nx * px + ny * py - limit
    for x, y in polygon:
        cur = nx * x + ny * y - limit
        if (prev > 0.0) != (cur > 0.0):
            t = prev / (prev - cur)
            out.append((px + t * (x - px), py + t * (y - py)))
        if cur <= 0.0:
            out.append((x, y))
        px, py, prev = x, y, cur
    return out


def iou_3d(a: OrientedBox, b: OrientedBox) -> float:
    """Exact volume intersection-over-union of two yaw-oriented boxes.

    Yaw-only boxes intersect in a vertical prism, so the intersection is the
    bird's-eye-view (BEV) overlap area times the z overlap. Pairs are
    rejected early when their z ranges or the BEV circles circumscribing
    their footprints do not overlap. When the yaws agree modulo pi, b's
    extents are axis-aligned in a's frame and the per-axis overlaps are
    multiplied in ``volume`` order, so ``iou_3d(box, box)`` is exactly 1.0.
    Otherwise b's footprint, expressed in a's frame, is clipped against a's
    four edges (Sutherland-Hodgman) and the shoelace formula gives the area.
    """
    ax, ay, az = a.center.tolist()
    bx, by, bz = b.center.tolist()
    dz = bz - az
    oz = min(a.height / 2.0, dz + b.height / 2.0) - max(-a.height / 2.0, dz - b.height / 2.0)
    if oz <= 0.0:
        return 0.0
    dx, dy = bx - ax, by - ay
    reach = 0.5 * (math.hypot(a.length, a.width) + math.hypot(b.length, b.width))
    if dx * dx + dy * dy >= reach * reach:
        return 0.0

    c, s = math.cos(a.yaw), math.sin(a.yaw)
    lx, ly = dx * c + dy * s, dy * c - dx * s  # b's center in a's frame
    hla, hwa = a.length / 2.0, a.width / 2.0
    hlb, hwb = b.length / 2.0, b.width / 2.0
    turn = b.yaw - a.yaw
    if min(turn % math.pi, -turn % math.pi) < 1e-12:
        ox = min(hla, lx + hlb) - max(-hla, lx - hlb)
        oy = min(hwa, ly + hwb) - max(-hwa, ly - hwb)
        if ox <= 0.0 or oy <= 0.0:
            return 0.0
        inter = ox * oy * oz
    else:
        cr, sr = math.cos(turn), math.sin(turn)
        polygon = [(lx + cr * u - sr * v, ly + sr * u + cr * v)
                   for u, v in ((hlb, hwb), (-hlb, hwb), (-hlb, -hwb), (hlb, -hwb))]
        for nx, ny, limit in ((1.0, 0.0, hla), (-1.0, 0.0, hla),
                              (0.0, 1.0, hwa), (0.0, -1.0, hwa)):
            polygon = _clip_half_plane(polygon, nx, ny, limit)
            if len(polygon) < 3:
                return 0.0
        area = 0.0
        px, py = polygon[-1]
        for x, y in polygon:
            area += px * y - x * py
            px, py = x, y
        inter = 0.5 * abs(area) * oz
    union = a.volume + b.volume - inter
    return min(inter / union, 1.0)


def bearing(point, sensor) -> float:
    """Horizontal angle of (point - sensor), counter-clockwise from +x, in [0, 2*pi).

    Raises ValueError when the point sits on the sensor's vertical axis
    (horizontal distance below 1e-9), where the angle is undefined.
    """
    delta = _as_vec3(point, "point") - _as_vec3(sensor, "sensor")
    if math.hypot(delta[0], delta[1]) < 1e-9:
        raise ValueError("bearing undefined: point on the sensor's vertical axis")
    return float(wrap_2pi(math.atan2(delta[1], delta[0])))
