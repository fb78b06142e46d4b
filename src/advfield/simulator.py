"""Deterministic LiDAR ray caster over analytic primitives.

Scenes contain a ground plane plus cars (box body + wedge cabin), persons
(cylinder + head sphere), buildings (slabs), and vegetation (rough spheres).
Three domains share layouts and differ only in car shapes: ``normal`` jitters
the canonical car slightly, ``rare`` re-proportions it strongly, ``damaged``
adds inward dents. Every returned point lies exactly on its ray; occlusion
keeps the nearest return per ray.

Per-ray background visibility is decided against each car's domain-maximal
hull rather than its actual shape, so scenes generated from the same seed
under different domains have bit-identical non-car points. Rays blocked by
the maximal hull but missed by the actual car yield no return.

Each object is intersected only with the rays that can reach it: those whose
azimuth lies in the sector that its bounding cylinder subtends at the sensor,
and whose elevation lies in the band that the same cylinder, cut to the
object's vertical extent, subtends. For a car at the default sensor that is
25 % of the rays at 5 m, 7 % at 10 m and under 2 % from 20 m on. The culling
is exact: every primitive lies inside the vertical cylinder around its box
centre whose radius is the larger of the box footprint's half-diagonal and
the class's own bound (a car's maximal hull, a person's head sphere), and
within the heights of its box (for a car, of its box and its maximal hull).
A ray whose azimuth lies outside the sector, or whose elevation lies outside
the band, cannot meet that cylinder; no channel points beyond the zenith or
the nadir, so a ray's azimuth is the bearing of every point it reaches. A
1e-6 rad margin on both covers the rounding of the ray grid. All per-object
arithmetic (distances, normals, dents, reflectivity, the maximal hull) runs
on the kept rays only, and each object updates one nearest-hit record per ray
where it is strictly nearer. The random draws do not depend on the culling:
every ``noise_rng`` draw, the roughness jitter included, stays one value per
ray, so the noise streams, and with them the pairing of domains, are those of
casting every ray.

A :class:`Scene` holds what :func:`write_scene` stores and :func:`load_scene`
reads back: the sensor, the cloud and the boxes. The generation state (object
specs, seed, domain) goes straight from :func:`generate_scene` into
:func:`raycast` and is not kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from . import cloudio
from .cloudio import PointCloud
from .geometry import OrientedBox, rot_z, wrap_pi

CLASS_NAMES = ("ground", "car", "person", "building", "vegetation")

CAR = CLASS_NAMES.index("car")
GROUND = CLASS_NAMES.index("ground")

CANONICAL_CAR_DIMS = (1.8, 1.6, 4.6)     # (w, h, l)
CANONICAL_PERSON_DIMS = (0.54, 1.7, 0.66)
_MAX_CAR_FACTOR = 1.45                   # covers rare scaling (<= 1.4) with margin
# (w, h, l) of the domain-maximal car hull, which holds every domain's car
_MAX_HULL_DIMS = tuple(d * _MAX_CAR_FACTOR for d in CANONICAL_CAR_DIMS)
# a person's head sphere radius, as a share of the box height
_HEAD_RADIUS = 0.13
# widens every object's azimuth sector and elevation band (rad) and, where
# the sensor may lie inside the object's bounding circle, that circle (m); far
# above the rounding of a ray's azimuth and elevation
_CULL_MARGIN = 1e-6

# range noise is squashed smoothly into (-0.009, 0.009) so every point stays
# within 1 cm of its surface; tanh keeps distinct draws distinct (no ties)
_NOISE_CLIP = 0.009

# clean class bands are separable, so an unaugmented model can lean on
# intensity; dented cars scatter brighter and leave the car band, which is
# the out-of-domain shift the intensity-attacking augmentation covers.
# dark asphalt sits below the car band.
_BASE_REFLECTIVITY = {
    "ground": (0.03, 0.10),
    "car": (0.14, 0.28),
    "person": (0.52, 0.64),
    "building": (0.68, 0.84),
    "vegetation": (0.36, 0.48),
}


# the most rays (channels x azimuth columns) a sensor may cast, about 139 times
# the default sensor's 32 x 900; ray_directions holds 3 floats per ray
MAX_RAYS = 4_000_000

# the largest origin height and max range (m) a sensor may have; the ray
# caster squares distances, which overflow beyond about 1e154 m
MAX_RANGE = 10_000.0


@dataclass(frozen=True)
class SensorSpec:
    """Spinning-LiDAR description; angles in radians."""

    origin_height: float = 1.7
    channels: int = 32
    elevation_min: float = math.radians(-25.0)
    elevation_max: float = math.radians(3.0)
    azimuth_resolution: float = math.radians(0.4)
    max_range: float = 80.0
    range_noise: float = 0.01

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{spec.name} {value!r} is not a finite number")
        # a channel past the zenith or the nadir points back across the sensor,
        # against the azimuth its ray is culled by
        for name in ("elevation_min", "elevation_max"):
            if abs(getattr(self, name)) > math.pi / 2.0:
                raise ValueError(f"{name} {getattr(self, name)!r} rad is outside "
                                 "[-pi/2, pi/2]")
        if self.channels < 2:
            raise ValueError("need at least 2 elevation channels")
        if self.azimuth_resolution <= 0:
            raise ValueError("azimuth resolution must be positive")
        # azimuths() rounds this to the column count: 0 at or below 0.5
        if not 0.5 < 2.0 * math.pi / self.azimuth_resolution < math.inf:
            raise ValueError(f"azimuth resolution {self.azimuth_resolution} rad leaves no "
                             "ray column in a turn, or no finite count of them")
        rays = self.channels * round(2.0 * math.pi / self.azimuth_resolution)
        if rays > MAX_RAYS:
            raise ValueError(f"the sensor casts {rays} rays a turn ({self.channels} channels), "
                             f"more than the {MAX_RAYS} allowed")
        if self.max_range <= 0:
            raise ValueError("max range must be positive")
        if self.origin_height <= 0:
            raise ValueError("origin height must be positive")
        if self.range_noise < 0:
            raise ValueError(f"range_noise {self.range_noise!r} m is negative")
        for name in ("origin_height", "max_range"):
            if getattr(self, name) > MAX_RANGE:
                raise ValueError(f"{name} {getattr(self, name)!r} m is above the "
                                 f"{MAX_RANGE:g} m allowed")

    @property
    def origin(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.origin_height])

    def azimuths(self) -> np.ndarray:
        """The azimuth of every ray column, in [0, 2 pi)."""
        n_az = int(round(2.0 * math.pi / self.azimuth_resolution))
        return np.arange(n_az) * self.azimuth_resolution

    def elevations(self) -> np.ndarray:
        """The elevation of every channel, from ``elevation_min`` to ``elevation_max``."""
        return np.linspace(self.elevation_min, self.elevation_max, self.channels)

    @functools.lru_cache(maxsize=8)
    def ray_directions(self) -> np.ndarray:
        """Unit directions, channel-major over (channel, azimuth), shape (R, 3).

        Computed once per sensor (equal sensors share it); the array is
        read-only.
        """
        az, el = np.meshgrid(self.azimuths(), self.elevations())
        cos_el = np.cos(el)
        dirs = np.stack([cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)], axis=-1)
        dirs = dirs.reshape(-1, 3)
        dirs.flags.writeable = False
        return dirs


@dataclass
class Dent:
    center: np.ndarray  # local-frame point on the car surface
    radius: float
    depth: float


@dataclass
class ObjectSpec:
    class_id: int
    box: OrientedBox          # ground-truth bounding box, center z = h/2 over ground
    instance: int
    reflectivity: float
    dents: list = dc_field(default_factory=list)
    roughness: float = 0.0    # extra inward range jitter (vegetation)


@dataclass
class SceneBox:
    """One object's class and box, as a ``.boxes`` row stores them."""

    class_id: int
    box: OrientedBox


@dataclass
class Scene:
    """One labeled sweep, exactly what :func:`write_scene` stores."""

    sensor: SensorSpec
    cloud: PointCloud
    boxes: list  # SceneBox per object


# ---------------------------------------------------------------------------
# analytic primitives (local frames, vectorized over rays)
# ---------------------------------------------------------------------------

def _polytope_raycast(origin, dirs, normals, offsets):
    """Entry/exit distances and entry normals for a convex polytope.

    The polytope is the set {p : normals @ p <= offsets}. Returns
    ``(t_in, t_out, n_in)`` with inf distances where the ray misses.
    """
    denom = dirs @ normals.T                      # (R, K)
    num = offsets[None, :] - origin @ normals.T   # (K,) broadcast to (R, K)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_planes = num / denom
    lower = np.where(denom < 0, t_planes, -np.inf)
    upper = np.where(denom > 0, t_planes, np.inf)
    # a parallel ray outside any halfspace never enters
    outside_parallel = np.any((np.abs(denom) < 1e-15) & (num < 0), axis=1)

    entry_plane = np.argmax(lower, axis=1)
    t_in = np.maximum(lower.max(axis=1), 0.0)
    t_out = upper.min(axis=1)
    miss = (t_in > t_out) | outside_parallel
    t_in = np.where(miss, np.inf, t_in)
    t_out = np.where(miss, np.inf, t_out)
    return t_in, t_out, normals[entry_plane]


def _box_halfspaces(w, h, l, z0=None):
    """Axis-aligned halfspaces for a box; z spans [z0, z0+h] (default centered)."""
    z0 = -h / 2.0 if z0 is None else z0
    normals = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=float)
    offsets = np.array([l / 2.0, l / 2.0, w / 2.0, w / 2.0, z0 + h, -z0])
    return normals, offsets


def _sphere_raycast(origin, dirs, center, radius):
    oc = origin - center
    b = dirs @ oc
    c = oc @ oc - radius * radius
    disc = b * b - c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_in = np.where(hit, -b - sq, np.inf)
    t_out = np.where(hit, -b + sq, np.inf)
    valid = hit & (t_out > 0)
    t_in = np.where(valid, np.maximum(t_in, 0.0), np.inf)
    t_out = np.where(valid, t_out, np.inf)
    points = origin + np.where(np.isfinite(t_in), t_in, 0.0)[:, None] * dirs
    normals = np.where(np.isfinite(t_in)[:, None], points - center, 0.0)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.divide(normals, np.maximum(norms, 1e-12))
    return t_in, t_out, normals


def _cylinder_raycast(origin, dirs, radius, z0, z1):
    """Vertical cylinder around the local z axis between z0 and z1."""
    ox, oy, oz = origin
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    b = ox * dx + oy * dy
    c = ox * ox + oy * oy - radius * radius
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        quadratic = (disc >= 0) & (a > 1e-15)
        t_side_in = np.where(quadratic, (-b - sq) / np.maximum(a, 1e-300), np.inf)
        t_side_out = np.where(quadratic, (-b + sq) / np.maximum(a, 1e-300), -np.inf)
        vertical = a <= 1e-15
        inside_r = c <= 0
        t_side_in = np.where(vertical, np.where(inside_r, -np.inf, np.inf), t_side_in)
        t_side_out = np.where(vertical, np.where(inside_r, np.inf, -np.inf), t_side_out)

        sloped = np.abs(dz) > 1e-15
        dz_safe = np.where(sloped, dz, 1.0)
        t_cap_lo = (z0 - oz) / dz_safe
        t_cap_hi = (z1 - oz) / dz_safe
    cap_in = np.where(dz > 0, t_cap_lo, t_cap_hi)
    cap_out = np.where(dz > 0, t_cap_hi, t_cap_lo)
    inside_z = (oz >= z0) & (oz <= z1)
    cap_in = np.where(sloped, cap_in, np.where(inside_z, -np.inf, np.inf))
    cap_out = np.where(sloped, cap_out, np.where(inside_z, np.inf, -np.inf))

    t_in = np.maximum(t_side_in, cap_in)
    t_out = np.minimum(t_side_out, cap_out)
    miss = ~np.isfinite(t_in) | (t_in > t_out) | (t_out <= 0)
    t_in = np.where(miss, np.inf, np.maximum(t_in, 0.0))
    t_out = np.where(miss, np.inf, t_out)

    points = origin + np.where(np.isfinite(t_in), t_in, 0.0)[:, None] * dirs
    side_hit = np.isfinite(t_in) & (t_in == t_side_in)
    normals = np.zeros_like(dirs)
    radial = points[:, :2]
    rad_norm = np.linalg.norm(radial, axis=1, keepdims=True)
    normals[:, :2] = np.where(side_hit[:, None], radial / np.maximum(rad_norm, 1e-12), 0.0)
    normals[:, 2] = np.where(side_hit, 0.0, np.where(dirs[:, 2] > 0, -1.0, 1.0))
    return t_in, t_out, normals


def _car_halfspaces(w, h, l):
    """Body box and cabin wedge halfspaces in the car's local frame."""
    body_h = 0.55 * h
    body = _box_halfspaces(w, body_h, l, z0=-h / 2.0)

    cab_w = 0.88 * w
    cab_len = 0.55 * l
    cab_center = -0.08 * l
    zb = -h / 2.0 + body_h
    x_front = cab_center + cab_len / 2.0
    x_rear = cab_center - cab_len / 2.0
    cab_h = h - body_h
    x_top_front = x_front - 0.45 * cab_h  # windshield rake
    normals = [
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
        [cab_h, 0, x_front - x_top_front],
    ]
    offsets = [
        x_front, -x_rear, cab_w / 2.0, cab_w / 2.0, h / 2.0, -zb,
        x_front * cab_h + zb * (x_front - x_top_front),
    ]
    cabin = (np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float))
    return body, cabin


def _object_surface_raycast(obj: ObjectSpec, origin: np.ndarray, dirs: np.ndarray):
    """Hit distance, exit distance, and world normals against one object."""
    box = obj.box
    rot = rot_z(box.yaw)
    local_origin = (origin - box.center) @ rot
    local_dirs = dirs @ rot

    name = CLASS_NAMES[obj.class_id]
    if name == "car":
        body, cabin = _car_halfspaces(box.width, box.height, box.length)
        tb_in, tb_out, nb = _polytope_raycast(local_origin, local_dirs, *body)
        tc_in, tc_out, nc = _polytope_raycast(local_origin, local_dirs, *cabin)
        use_body = tb_in <= tc_in
        t_in = np.where(use_body, tb_in, tc_in)
        t_out = np.where(use_body, tb_out, tc_out)
        normals = np.where(use_body[:, None], nb, nc)
    elif name == "person":
        r = 0.4 * min(box.width, box.length)
        head_r = _HEAD_RADIUS * box.height
        z_top = box.height / 2.0
        t1_in, t1_out, n1 = _cylinder_raycast(
            local_origin, local_dirs, r, -z_top, z_top - 2 * head_r)
        center = np.array([0.0, 0.0, z_top - head_r])
        t2_in, t2_out, n2 = _sphere_raycast(local_origin, local_dirs, center, head_r)
        use_cyl = t1_in <= t2_in
        t_in = np.where(use_cyl, t1_in, t2_in)
        t_out = np.where(use_cyl, t1_out, t2_out)
        normals = np.where(use_cyl[:, None], n1, n2)
    elif name == "building":
        t_in, t_out, normals = _polytope_raycast(
            local_origin, local_dirs, *_box_halfspaces(box.width, box.height, box.length))
    elif name == "vegetation":
        radius = min(box.width, box.height, box.length) / 2.0
        t_in, t_out, normals = _sphere_raycast(
            local_origin, local_dirs, np.zeros(3), radius)
    else:
        raise ValueError(f"no surface model for class {name!r}")
    return t_in, t_out, normals @ rot.T


def _max_hull_entry(obj: ObjectSpec, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Entry distance into the car's domain-maximal hull (same in all domains)."""
    w, h, l = _MAX_HULL_DIMS
    rot = rot_z(obj.box.yaw)
    footprint = np.array([obj.box.center[0], obj.box.center[1], h / 2.0])
    local_origin = (origin - footprint) @ rot
    local_dirs = dirs @ rot
    t_in, _, _ = _polytope_raycast(local_origin, local_dirs, *_box_halfspaces(w, h, l))
    return t_in


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def _sample_car_dims(shape_rng: np.random.Generator, domain: str):
    w0, h0, l0 = CANONICAL_CAR_DIMS
    if domain == "rare":
        factors = np.where(shape_rng.random(3) < 0.5,
                           shape_rng.uniform(0.7, 0.8, 3),
                           shape_rng.uniform(1.25, 1.4, 3))
    elif domain in ("normal", "damaged"):
        factors = shape_rng.uniform(0.95, 1.05, 3)
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return w0 * factors[0], h0 * factors[1], l0 * factors[2]


def _sample_dents(shape_rng: np.random.Generator, dims) -> list:
    w, h, l = dims
    dents = []
    for _ in range(int(shape_rng.integers(1, 4))):
        face = shape_rng.integers(0, 4)
        u, v = shape_rng.random(2)
        if face == 0:    # front
            center = np.array([l / 2.0, (u - 0.5) * w, (v - 0.5) * h])
        elif face == 1:  # rear
            center = np.array([-l / 2.0, (u - 0.5) * w, (v - 0.5) * h])
        elif face == 2:  # left
            center = np.array([(u - 0.5) * l, w / 2.0, (v - 0.5) * h])
        else:            # right
            center = np.array([(u - 0.5) * l, -w / 2.0, (v - 0.5) * h])
        dents.append(Dent(center=center,
                          radius=float(shape_rng.uniform(0.9, 1.8)),
                          depth=float(shape_rng.uniform(0.1, 0.3))))
    return dents


def _horizontal_clearance(class_id: int, box_w: float, box_h: float, box_l: float) -> float:
    """Radius of the vertical cylinder around the box centre that holds the object.

    It is the box footprint's half-diagonal, raised for a car to its maximal
    hull's, which every domain casts, and for a person to its head sphere's.
    """
    hull_w, _, hull_l = _MAX_HULL_DIMS
    own = {"car": math.hypot(hull_w, hull_l) / 2.0,
           "person": _HEAD_RADIUS * box_h}.get(CLASS_NAMES[class_id], 0.0)
    return max(math.hypot(box_w, box_l) / 2.0, own)


def _vertical_extent(obj: ObjectSpec) -> tuple:
    """The lowest and highest height (m) of the object.

    It is the box's z-range, which holds every primitive; a car's also spans
    its maximal hull's [0, H], so that a car box lifted off the ground keeps
    the rays that meet its hull.
    """
    z_lo = obj.box.center[2] - obj.box.height / 2.0
    z_hi = obj.box.center[2] + obj.box.height / 2.0
    if obj.class_id == CAR:
        return min(z_lo, 0.0), max(z_hi, _MAX_HULL_DIMS[1])
    return z_lo, z_hi


def generate_scene(seed: int, domain: str = "normal", n_objects: int | None = None,
                   sensor: SensorSpec = SensorSpec()) -> Scene:
    """Build and raycast one scene; bit-identical for identical arguments.

    Layout (poses, non-car shapes, reflectivities, object count) depends only
    on the seed; the domain influences nothing but car shapes, so scenes from
    one seed pair across domains. An object that finds no room is left out,
    so ``scene.boxes`` may hold fewer than ``n_objects`` boxes.
    """
    seed = int(seed)
    layout_rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    domain_code = {"normal": 0, "rare": 1, "damaged": 2}[domain]
    shape_rng = np.random.default_rng(np.random.SeedSequence([seed, 13, domain_code]))

    if n_objects is None:
        n_objects = int(layout_rng.integers(4, 8))
    if n_objects < 1:
        raise ValueError("a scene needs at least one object")

    objects = []
    placed = []  # (x, y, clearance)

    def try_place(clearance, r_min=5.0, r_max=60.0):
        for _ in range(100):
            rng_range = layout_rng.uniform(r_min, r_max)
            angle = layout_rng.uniform(0.0, 2.0 * math.pi)
            x, y = rng_range * math.cos(angle), rng_range * math.sin(angle)
            ok = all(math.hypot(x - px, y - py) >= clearance + pc + 1.0
                     for px, py, pc in placed)
            if ok:
                placed.append((x, y, clearance))
                return x, y
        return None

    kinds = ["car"]
    kinds += list(layout_rng.choice(["car", "person", "building", "vegetation"],
                                    size=n_objects - 1, p=[0.4, 0.25, 0.15, 0.2]))
    for index, kind in enumerate(kinds):
        class_id = CLASS_NAMES.index(kind)
        yaw = float(layout_rng.uniform(-math.pi, math.pi))
        reflectivity = float(layout_rng.uniform(*_BASE_REFLECTIVITY[kind]))
        if kind == "car":
            # layout draws stay domain-independent; dims come from shape_rng
            spot = try_place(_horizontal_clearance(class_id, 0, 0, 0))
            w, h, l = _sample_car_dims(shape_rng, domain)
            dents = _sample_dents(shape_rng, (w, h, l)) if domain == "damaged" else []
            roughness = 0.0
        elif kind == "person":
            w0, h0, l0 = CANONICAL_PERSON_DIMS
            factor = float(layout_rng.uniform(0.9, 1.1))
            w, h, l = w0 * factor, h0 * factor, l0 * factor
            spot = try_place(_horizontal_clearance(class_id, w, h, l))
            dents, roughness = [], 0.0
        elif kind == "building":
            w = float(layout_rng.uniform(4.0, 10.0))
            l = float(layout_rng.uniform(6.0, 16.0))
            h = float(layout_rng.uniform(3.0, 8.0))
            spot = try_place(_horizontal_clearance(class_id, w, h, l), r_min=12.0)
            dents, roughness = [], 0.0
        else:
            # tree crown: sphere lifted clear of car height
            r = float(layout_rng.uniform(0.8, 1.6))
            w = h = l = 2.0 * r
            crown_lift = float(layout_rng.uniform(2.0, 3.0))
            spot = try_place(_horizontal_clearance(class_id, w, h, l))
            dents, roughness = [], float(layout_rng.uniform(0.05, 0.2))
        if spot is None:  # no room: the scene holds fewer objects
            continue
        x, y = spot
        center_z = h / 2.0 + (crown_lift if kind == "vegetation" else 0.0)
        box = OrientedBox(np.array([x, y, center_z]), w, h, l, yaw)
        objects.append(ObjectSpec(class_id=class_id, box=box,
                                  instance=len(objects) + 1,
                                  reflectivity=reflectivity,
                                  dents=dents, roughness=roughness))

    return Scene(sensor=sensor, cloud=raycast(objects, sensor, seed),
                 boxes=[SceneBox(o.class_id, o.box) for o in objects])


def _sector_rays(obj: ObjectSpec, sensor: SensorSpec) -> np.ndarray:
    """Indices of the rays that can reach ``obj``, ascending.

    A ray is kept when its azimuth lies in the sector that the object's
    bounding cylinder (:func:`_horizontal_clearance`, radius r, horizontal
    distance d) subtends at the sensor, and its channel's elevation lies in
    the band that the cylinder, cut to the object's vertical extent
    [z_lo, z_hi] (:func:`_vertical_extent`, heights taken from the sensor),
    subtends. A point at horizontal distance in [d - r, d + r] and height z
    is seen at elevation atan2(z, distance), so the band runs from
    atan2(z_lo, d - r if z_lo < 0 else d + r) to
    atan2(z_hi, d - r if z_hi > 0 else d + r). Sector and band are widened by
    ``_CULL_MARGIN``. An object whose cylinder holds the sensor takes every ray.
    """
    azimuth = sensor.azimuths()
    n_az = len(azimuth)
    radius = _horizontal_clearance(obj.class_id, obj.box.width, obj.box.height,
                                   obj.box.length)
    dx, dy = obj.box.center[:2] - sensor.origin[:2]
    distance = math.hypot(dx, dy)
    if distance <= radius + _CULL_MARGIN:
        return np.arange(sensor.channels * n_az)
    half_width = math.asin(radius / distance) + _CULL_MARGIN
    offset = wrap_pi(azimuth - math.atan2(dy, dx))
    columns = np.flatnonzero(np.abs(offset) <= half_width)
    near, far = distance - radius, distance + radius
    z_lo, z_hi = (z - sensor.origin_height for z in _vertical_extent(obj))
    e_lo = math.atan2(z_lo, near if z_lo < 0 else far) - _CULL_MARGIN
    e_hi = math.atan2(z_hi, near if z_hi > 0 else far) + _CULL_MARGIN
    elevation = sensor.elevations()
    channels = np.flatnonzero((elevation >= e_lo) & (elevation <= e_hi))
    return (channels[:, None] * n_az + columns).ravel()


def raycast(objects: list, sensor: SensorSpec, seed: int) -> PointCloud:
    """Cast all sensor rays at ``objects`` (ObjectSpecs) and the ground.

    The nearest hit per ray wins and is range-noised along the ray; ``seed``
    seeds the noise.

    Each object is intersected only with the rays of its azimuth sector and
    elevation band (:func:`_sector_rays`), and its distances, normals, dents,
    reflectivity and maximal-hull entry are computed on those rays alone.
    This is exact: the object, and a car's maximal hull, lie inside the
    vertical cylinder and the heights that define sector and band, and a ray
    outside either cannot meet them. One nearest-hit record per ray (distance,
    incidence cosine, reflectivity, class, instance) starts from the ground
    plane, and an object replaces a ray's entry only where it is strictly
    nearer, so of equally near surfaces the ground or the earlier object
    wins. Every ``noise_rng`` draw, the roughness jitter included, stays one
    value per ray, so the random streams, and with them the pairing of
    domains, are those of casting every ray at every object. The returned
    ``xyz`` is built in place from the kept directions, each element the same
    product and sum as ``origin + t * direction``.
    """
    origin = sensor.origin
    dirs = sensor.ray_directions()
    n_rays = len(dirs)
    noise_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 17]))

    # the nearest-hit record, starting from the ground plane z = 0
    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        t_best = np.where(dz < -1e-12, -origin[2] / dz, np.inf)
    cos_best = np.abs(dz)
    refl_best = np.full(n_rays, 0.07)
    semantic = np.full(n_rays, GROUND, dtype=np.int32)
    instance = np.zeros(n_rays, dtype=np.int32)

    car_block = np.full(n_rays, np.inf)
    for obj in objects:
        rays = _sector_rays(obj, sensor)
        sector_dirs = dirs[rays]
        t_in, t_out, normals = _object_surface_raycast(obj, origin, sector_dirs)
        hit = np.isfinite(t_in)
        t_safe = np.where(hit, t_in, 0.0)
        room = np.maximum(np.where(hit, t_out, 0.0) - t_safe - 0.011, 0.0)
        reflectivity = np.full(len(rays), obj.reflectivity)
        if obj.class_id == CAR:
            if obj.dents:
                points_local = (origin + t_safe[:, None] * sector_dirs - obj.box.center) \
                    @ rot_z(obj.box.yaw)
                extra = np.zeros(len(rays))
                dent_weight = np.zeros(len(rays))
                for dent in obj.dents:
                    dist = np.linalg.norm(points_local - dent.center, axis=1)
                    profile = np.cos(0.5 * math.pi * np.minimum(dist / dent.radius, 1.0))
                    bump = profile * profile * (dist < dent.radius)
                    extra += dent.depth * bump
                    dent_weight += bump
                t_in = np.where(hit, t_in + np.minimum(extra, room), t_in)
                # crumpled paint scatters back brighter than the smooth hull
                reflectivity = reflectivity * (1.0 + 0.9 * np.minimum(dent_weight, 1.0))
            car_block[rays] = np.minimum(car_block[rays],
                                         _max_hull_entry(obj, origin, sector_dirs))
        elif obj.roughness > 0.0:
            # one draw per ray keeps the stream independent of the sector
            jitter = noise_rng.random(n_rays)[rays] * obj.roughness
            t_in = np.where(hit, t_in + np.minimum(jitter, room), t_in)
        nearer = t_in < t_best[rays]
        won = rays[nearer]
        t_best[won] = t_in[nearer]
        cos_best[won] = np.abs(np.einsum("rc,rc->r", sector_dirs[nearer], normals[nearer]))
        refl_best[won] = reflectivity[nearer]
        semantic[won] = obj.class_id
        instance[won] = obj.instance

    in_range = np.isfinite(t_best) & (t_best <= sensor.max_range) & (t_best > 0.1)
    blocked = (car_block < t_best) & (semantic != CAR)
    keep = in_range & ~blocked

    # one draw per ray regardless of hits, so paired scenes share noise
    range_noise = _NOISE_CLIP * np.tanh(
        noise_rng.normal(0.0, sensor.range_noise, n_rays) / _NOISE_CLIP)
    t_final = (t_best + range_noise)[keep]
    falloff = 1.0 / (1.0 + (t_final / 120.0) ** 2)
    intensity = np.clip(refl_best[keep] * (1.0 + 0.2 * cos_best[keep]) * falloff, 0.0, 1.0)

    xyz = dirs.take(np.flatnonzero(keep), axis=0)
    xyz *= t_final[:, None]
    xyz += origin
    return PointCloud(
        xyz=xyz,
        intensity=intensity,
        semantic=semantic[keep],
        instance=instance[keep],
    )


def make_splits(base_seed: int, sizes, sensor: SensorSpec, n_objects: int | None) -> dict:
    """Generate the four desk splits as {name: [Scene, ...]}.

    Integer seed ranges of train and val are disjoint; the two OOD splits
    reuse val's integers with another domain so each OOD scene pairs with the
    val scene sharing its layout (identical non-car points).
    """
    n_train, n_val, n_rare, n_damaged = sizes
    if max(n_rare, n_damaged) > n_val:
        raise ValueError("ood splits cannot outnumber their paired clean split")
    train = [generate_scene(base_seed + i, "normal", n_objects, sensor)
             for i in range(n_train)]
    val_base = base_seed + 100_000
    val = [generate_scene(val_base + i, "normal", n_objects, sensor)
           for i in range(n_val)]
    rare = [generate_scene(val_base + i, "rare", n_objects, sensor)
            for i in range(n_rare)]
    damaged = [generate_scene(val_base + i, "damaged", n_objects, sensor)
               for i in range(n_damaged)]
    return {"train": train, "val": val, "ood-rare": rare, "ood-damaged": damaged}


# ---------------------------------------------------------------------------
# on-disk scene layout
# ---------------------------------------------------------------------------

def write_scene(scene: Scene, directory, index: int) -> None:
    stem = Path(directory) / f"{index:06d}"
    cloudio.write_cloud(scene.cloud, stem.with_suffix(".bin"))
    cloudio.write_labels(stem.with_suffix(".label"), scene.cloud.semantic,
                         scene.cloud.instance)
    rows = []
    for sb in scene.boxes:
        b = sb.box
        # repr of a Python float round-trips exactly; numpy scalars print as
        # np.float64(...), which float() cannot parse back
        values = (*b.center, b.width, b.height, b.length, b.yaw)
        rows.append(" ".join([CLASS_NAMES[sb.class_id], *(repr(float(x)) for x in values)]))
    cloudio.write_lines(stem.with_suffix(".boxes"), rows)


# sensor.cfg's keys and value types: SensorSpec's fields, each default of its
# field's type. Angles stay in radians: a degree round trip can drift by an ulp.
_SENSOR_KEYS = {f.name: type(f.default) for f in fields(SensorSpec)}


def write_sensor_config(sensor: SensorSpec, directory) -> None:
    config = {key: repr(kind(getattr(sensor, key))) for key, kind in _SENSOR_KEYS.items()}
    config["classes"] = ",".join(CLASS_NAMES)
    cloudio.write_config(config, Path(directory) / "sensor.cfg")


def read_sensor_config(directory) -> SensorSpec:
    path = Path(directory) / "sensor.cfg"
    config = cloudio.read_config(path)
    try:
        if config["classes"] != ",".join(CLASS_NAMES):
            raise ValueError(f"classes {config['classes']} are not this build's "
                             f"{','.join(CLASS_NAMES)}")
        return SensorSpec(**{key: kind(config[key]) for key, kind in _SENSOR_KEYS.items()})
    except KeyError as err:
        raise cloudio.FormatError(f"{path}: missing key {err}") from None
    except ValueError as err:
        raise cloudio.FormatError(f"{path}: {err}") from None


def load_scene(directory, index: int, sensor: SensorSpec) -> Scene:
    stem = Path(directory) / f"{index:06d}"
    cloud = cloudio.read_labeled_cloud(stem.with_suffix(".bin"), stem.with_suffix(".label"))
    if cloud.n and cloud.semantic.max() >= len(CLASS_NAMES):
        raise cloudio.FormatError(f"{stem.with_suffix('.label')}: semantic id "
                                  f"{cloud.semantic.max()} is not a class of this build "
                                  f"(0 to {len(CLASS_NAMES) - 1})")
    boxes = []
    path = stem.with_suffix(".boxes")
    for lineno, line in enumerate(cloudio.read_lines(path), 1):
        words = line.split()
        if not words:
            continue
        if len(words) != 8:
            raise cloudio.FormatError(f"{path}:{lineno}: expected 8 fields 'class cx cy cz w h "
                                      f"l yaw', got {len(words)}")
        if words[0] not in CLASS_NAMES:
            raise cloudio.FormatError(f"{path}:{lineno}: class {words[0]!r} is not one of "
                                      f"this build's {','.join(CLASS_NAMES)}")
        try:
            cx, cy, cz, w, h, l, yaw = map(float, words[1:])
            box = OrientedBox(np.array([cx, cy, cz]), w, h, l, yaw)
        except ValueError as err:
            raise cloudio.FormatError(f"{path}:{lineno}: {err}") from None
        boxes.append(SceneBox(CLASS_NAMES.index(words[0]), box))
    return Scene(sensor=sensor, cloud=cloud, boxes=boxes)


def write_split(scenes, directory, sensor: SensorSpec) -> None:
    """Write ``scenes``, all cast by ``sensor``, as the split directory that
    :func:`load_split` reads: ``sensor.cfg``, then scene ``i`` as
    ``<i>.bin``, ``<i>.label`` and ``<i>.boxes`` with ``i`` in six digits."""
    write_sensor_config(sensor, directory)
    for index, scene in enumerate(scenes):
        write_scene(scene, directory, index)


def load_split(directory) -> list:
    """Every scene of a split directory; FormatError if it holds none."""
    directory = Path(directory)
    sensor = read_sensor_config(directory)
    indices = sorted(int(p.stem) for p in directory.glob("*.bin"))
    if not indices:
        raise cloudio.FormatError(f"{directory}: the split holds no scene")
    return [load_scene(directory, i, sensor) for i in indices]
