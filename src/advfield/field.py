"""Learnable displacement lattices and their constrained application.

A vector field is a regular lattice of 4-component vectors (x, y, z shift in
meters plus an intensity shift) living in the local frame of a reference box.
Applying a field to an object anchors the lattice to the object's box (roots
scale, vectors only rotate), assigns every point inside the box to its k
nearest roots with inverse-distance weights, and moves each point strictly
along its sensor view ray by the projected weighted vector sum. Intensity
shifts are weighted the same way and the result is clipped to [0, 1].

The nearest-root search uses the lattice structure: each point maps back to
a continuous lattice index per axis, and only a window of min(2k, n) indices
around it on each axis can hold its k nearest roots. The window search gives
the same roots, order and weights as a search over all roots; see
:func:`plan_deformation` for why.

:func:`plan_targets` plans every target that ``rotation.target_boxes`` picks
for a bank, and :func:`deform_targets` applies one variant to those plans;
fitting and evaluation both go through this pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cloudio import PointCloud
from .geometry import OrientedBox, box_contains_many, rot_z
from .rotation import BOX_MODES, GroupScheme, target_boxes

# Points closer than this to a root are hard-assigned to it (weight 1),
# avoiding the 1/d blow-up.
COINCIDENT_EPS = 1e-9


@dataclass
class VectorField:
    """Learnable displacement vectors on the lattice of ``dims`` and ``step``."""

    dims: tuple          # reference box (w0, h0, l0) in meters
    step: float          # lattice step t in meters
    vectors: np.ndarray  # (m, 4) x/y/z shift in meters + intensity shift
    group: int = 1       # rotation group g, 1-based
    variant: int = 1     # variant n, 1-based
    roots: np.ndarray = dc_field(init=False, repr=False)  # (m, 3), from dims and step

    def __post_init__(self):
        self.dims = tuple(float(d) for d in self.dims)
        self.step = float(self.step)
        self.roots = lattice_roots(self.dims, self.step)
        self.vectors = np.asarray(self.vectors, dtype=float).reshape(-1, 4)
        if len(self.vectors) != len(self.roots):
            raise ValueError(f"need {len(self.roots)} vectors, one per root")

    @property
    def size(self) -> int:
        return len(self.roots)

    def copy(self) -> "VectorField":
        return VectorField(self.dims, self.step, self.vectors.copy(),
                           self.group, self.variant)


@dataclass
class FieldBank:
    """All G x N vector fields for one class, sharing dims and step."""

    class_id: int
    class_name: str
    groups: int                     # G
    variants: int                   # N
    seed: int                       # seed of the initial vectors, see make_bank
    fields: list = dc_field(default_factory=list)
    eps: float = 0.3
    psi: float = 0.3
    boxes: str = "gt"               # box mode it was fitted with, see target_boxes

    def __post_init__(self):
        if self.boxes not in BOX_MODES:
            raise ValueError(f"box mode must be one of {BOX_MODES}, got {self.boxes!r}")
        if self.groups < 1 or self.variants < 1:
            raise ValueError(f"bank needs G, N >= 1, got G={self.groups}, N={self.variants}")
        if len(self.fields) != self.groups * self.variants:
            raise ValueError(
                f"bank needs G*N = {self.groups * self.variants} fields, got {len(self.fields)}"
            )
        seen = {(f.group, f.variant) for f in self.fields}
        if len(seen) != len(self.fields):
            raise ValueError("bank has duplicate (group, variant) slots")
        ref = self.fields[0]
        for f in self.fields:
            if f.dims != ref.dims or f.step != ref.step:
                raise ValueError("all fields in a bank must share dims and step")

    @property
    def dims(self) -> tuple:
        return self.fields[0].dims

    @property
    def step(self) -> float:
        return self.fields[0].step

    def field(self, group: int, variant: int) -> VectorField:
        for f in self.fields:
            if f.group == group and f.variant == variant:
                return f
        raise KeyError(f"no field for group {group}, variant {variant}")


@dataclass
class DeformationPlan:
    """Frozen point-to-root assignment for one (cloud, box) pair.

    Computed once from the clean cloud; during optimization only the vectors
    change, so the point shift stays linear in the vector components.
    """

    point_idx: np.ndarray     # (a,) indices of affected points in the cloud
    neighbor_idx: np.ndarray  # (a, k) root indices, nearest first
    weights: np.ndarray       # (a, k) nonnegative, rows sum to 1
    rays: np.ndarray          # (a, 3) unit directions sensor -> point
    yaw: float                # box yaw used to anchor the field

    @property
    def n_affected(self) -> int:
        return len(self.point_idx)


def lattice_counts(dims, step: float) -> tuple:
    """Cells per local axis (x=length, y=width, z=height): floor(extent / step)."""
    w, h, l = (float(d) for d in dims)
    step = float(step)
    if step <= 0.0 or min(w, h, l) <= 0.0:
        raise ValueError("dims and step must be positive")
    if step > min(w, h, l):
        raise ValueError(f"step {step} exceeds smallest box extent {min(w, h, l)}")
    # the tiny bias keeps exact-ratio extents (e.g. 4.6 / 0.2) from
    # truncating one cell short under binary rounding
    count = lambda extent: int(math.floor(extent / step + 1e-9))
    return count(l), count(w), count(h)


def lattice_roots(dims, step: float) -> np.ndarray:
    """Cell centers of the lattice, shape (m, 3), in the box-local frame.

    ``dims`` is (w0, h0, l0); the grid has floor(extent/step) cells per axis
    and is centered in the box, so roots sit symmetric about the box center.
    """
    nx, ny, nz = lattice_counts(dims, step)
    axes = [(np.arange(n) + 0.5 - n / 2.0) * step for n in (nx, ny, nz)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def build_lattice(dims, step: float, group: int = 1, variant: int = 1) -> VectorField:
    """Zero-initialized field on the lattice of ``dims`` and ``step``."""
    nx, ny, nz = lattice_counts(dims, step)
    return VectorField(dims=dims, step=step, vectors=np.zeros((nx * ny * nz, 4)),
                       group=group, variant=variant)


def init_random(field: VectorField, seed) -> None:
    """Draw every component from U(-0.01, 0.01), in place, deterministic per seed."""
    rng = np.random.default_rng(seed)
    field.vectors[:] = rng.uniform(-0.01, 0.01, size=field.vectors.shape)


def make_bank(class_id: int, class_name: str, dims, step: float, groups: int,
              variants: int, seed: int, eps: float = 0.3, psi: float = 0.3,
              boxes: str = "gt") -> FieldBank:
    """Build a randomly initialized G x N bank sharing one lattice geometry.

    Slot (g, n) draws its vectors from its own stream of ``seed``, which the
    bank records, so the same call rebuilds the initial vectors of any bank.
    """
    seed = int(seed)
    fields = []
    for group in range(1, groups + 1):
        for variant in range(1, variants + 1):
            fld = build_lattice(dims, step, group=group, variant=variant)
            init_random(fld, np.random.SeedSequence([seed, 29, group, variant]))
            fields.append(fld)
    return FieldBank(class_id=class_id, class_name=class_name, groups=groups,
                     variants=variants, seed=seed, fields=fields, eps=eps, psi=psi,
                     boxes=boxes)


def anchor(field: VectorField, box: OrientedBox) -> np.ndarray:
    """World-frame root positions of the field anchored to ``box``.

    Roots scale per axis to fit the box, then rotate by the box yaw and
    translate to its center. Vectors are anchored separately (rotation only,
    no scaling) by :func:`anchored_vectors`.
    """
    return (field.roots * _anchor_scale(field, box)) @ rot_z(box.yaw).T + box.center


def _anchor_scale(field: VectorField, box: OrientedBox) -> np.ndarray:
    """Per local axis (x, y, z): box extent over the field's reference extent."""
    w0, h0, l0 = field.dims
    return np.array([box.length / l0, box.width / w0, box.height / h0])


def anchored_vectors(field: VectorField, yaw: float) -> np.ndarray:
    """Spatial vector components rotated into the world frame, shape (m, 3)."""
    return field.vectors[:, :3] @ rot_z(yaw).T


def _window_candidates(points: np.ndarray, box: OrientedBox, field: VectorField,
                       k: int) -> np.ndarray:
    """Flat ids of the lattice window that holds each point's k nearest roots.

    Per axis the window is ``min(2k, n)`` consecutive indices around the
    point's continuous lattice index, clipped into the lattice. Returns an
    (a, c) array whose rows ascend, since ids follow the "ij" meshgrid order.
    """
    counts = np.array(lattice_counts(field.dims, field.step))
    # inverse of anchor: world -> box frame -> continuous lattice index
    local = (points - box.center) @ rot_z(box.yaw)
    t = local / (field.step * _anchor_scale(field, box)) + counts / 2.0 - 0.5
    widths = np.minimum(2 * k, counts)
    starts = np.clip(np.floor(t).astype(np.int64) - (k - 1), 0, counts - widths)
    ix, iy, iz = (starts[:, axis, None] + np.arange(widths[axis]) for axis in range(3))
    ny, nz = counts[1], counts[2]
    cand = (ix[:, :, None, None] * ny + iy[:, None, :, None]) * nz + iz[:, None, None, :]
    return cand.reshape(len(points), -1)


def plan_deformation(cloud: PointCloud, box: OrientedBox, field: VectorField,
                     sensor, k: int) -> DeformationPlan:
    """Assign every point inside ``box`` to its k nearest anchored roots.

    Weights are 1/d normalized; a point within 1e-9 of a root is assigned
    entirely to that root (lowest index wins ties). Rays point from the
    sensor to each point and must be well defined (no point at the sensor).

    The search looks only at a window of at most (2k)^3 roots per point (see
    :func:`_window_candidates`), and it finds exactly the roots and weights
    of a search over all roots. On each axis a root outside the window lies
    at least one scaled lattice step farther from the point than k window
    roots that share its other two indices, so it cannot be among the k
    nearest. Float rounding, in the distances or in the lattice index that
    places the window, is many orders of magnitude below that margin.
    Candidate ids ascend, so the stable sort still lets the lowest index win
    ties, and the distances use the same expression as a dense search.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sensor = np.asarray(sensor, dtype=float).reshape(3)
    inside = np.flatnonzero(box_contains_many(box, cloud.xyz))
    k_eff = min(int(k), field.size)

    points = cloud.xyz[inside]
    deltas = points - sensor
    norms = np.linalg.norm(deltas, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("point coincides with the sensor; ray undefined")
    rays = deltas / norms[:, None]

    if len(inside) == 0:
        return DeformationPlan(inside, np.zeros((0, k_eff), dtype=np.int64),
                               np.zeros((0, k_eff)), rays, box.yaw)

    roots = anchor(field, box)
    cand = _window_candidates(points, box, field, k_eff)
    dist = np.linalg.norm(points[:, None, :] - roots[cand], axis=2)
    # stable argsort keeps the lower root index first among exact ties
    order = np.argsort(dist, axis=1, kind="stable")[:, :k_eff]
    d = np.take_along_axis(dist, order, axis=1)
    nearest = np.take_along_axis(cand, order, axis=1)

    weights = np.empty_like(d)
    coincident = d[:, 0] < COINCIDENT_EPS
    safe = ~coincident
    if np.any(safe):
        inv = 1.0 / d[safe]
        weights[safe] = inv / inv.sum(axis=1, keepdims=True)
    if np.any(coincident):
        weights[coincident] = 0.0
        weights[coincident, 0] = 1.0

    return DeformationPlan(inside, nearest, weights, rays, box.yaw)


def _weighted_world_vectors(plan: DeformationPlan, field: VectorField):
    """Per affected point: weighted world-frame spatial vector and intensity shift."""
    world = anchored_vectors(field, plan.yaw)
    vsum = np.einsum("ak,akc->ac", plan.weights, world[plan.neighbor_idx])
    tau_sum = np.einsum("ak,ak->a", plan.weights, field.vectors[plan.neighbor_idx, 3])
    return vsum, tau_sum


def deform(cloud: PointCloud, plan: DeformationPlan, field: VectorField) -> PointCloud:
    """Apply the field to the planned points; everything else is untouched.

    Each point moves along its own view ray by the ray projection of its
    weighted vector sum; its intensity moves by the weighted intensity shift
    and is clipped back to [0, 1]. Labels never change.
    """
    out = cloud.copy()
    if plan.n_affected == 0:
        return out
    vsum, tau_sum = _weighted_world_vectors(plan, field)
    along = np.einsum("ac,ac->a", vsum, plan.rays)
    out.xyz[plan.point_idx] += along[:, None] * plan.rays
    out.intensity[plan.point_idx] = np.clip(
        cloud.intensity[plan.point_idx] + tau_sum, 0.0, 1.0
    )
    return out


def plan_targets(scene, bank: FieldBank, k: int) -> list:
    """``(group, plan)`` for every target of ``bank`` in ``scene``.

    Targets and groups come from ``rotation.target_boxes`` with the bank's
    class and its box mode ``bank.boxes``. Plans are made on the clean cloud,
    so fitting and evaluation deform the same points with the same weights.
    """
    targets = target_boxes(scene, bank.class_id, bank.boxes, GroupScheme(bank.groups),
                           bank.step)
    return [(group, plan_deformation(scene.cloud, box, bank.fields[0],
                                     scene.sensor.origin, k))
            for box, group in targets]


def deform_targets(cloud: PointCloud, plans, bank: FieldBank, variant: int) -> PointCloud:
    """Deform every ``(group, plan)`` target with its group's field of ``variant``."""
    for group, plan in plans:
        cloud = deform(cloud, plan, bank.field(group, variant))
    return cloud


def clamp_field(field: VectorField, eps: float, psi: float) -> None:
    """Clip spatial components to [-eps, eps] and the intensity shift to [-psi, psi]."""
    if eps <= 0.0 or psi <= 0.0:
        raise ValueError("eps and psi must be positive")
    np.clip(field.vectors[:, :3], -eps, eps, out=field.vectors[:, :3])
    np.clip(field.vectors[:, 3], -psi, psi, out=field.vectors[:, 3])


class ShiftJacobian:
    """Linear map from field vector components to planned point outputs.

    The displacement of point i w.r.t. the world-frame vector at root j is
    w_ij * u_i u_i^T (zero for non-neighbors); intensity shifts pass through
    with weight w_ij wherever the [0, 1] clip is inactive. Gradients are
    returned in the field-local frame that the optimizer updates.
    """

    def __init__(self, plan: DeformationPlan):
        self.plan = plan
        self._rot = rot_z(plan.yaw)

    def tau_clip_active(self, cloud: PointCloud, field: VectorField) -> np.ndarray:
        """True where the intensity clip saturates for the planned points."""
        plan = self.plan
        _, tau_sum = _weighted_world_vectors(plan, field)
        raw = cloud.intensity[plan.point_idx] + tau_sum
        return (raw < 0.0) | (raw > 1.0)

    def vector_gradient(self, d_positions: np.ndarray, d_intensity: np.ndarray,
                        field_size: int, clip_active=None) -> np.ndarray:
        """Accumulate per-point upstream gradients into an (m, 4) field gradient.

        ``d_positions`` is (a, 3) w.r.t. deformed positions of the affected
        points, ``d_intensity`` (a,) w.r.t. their clipped intensities.
        """
        plan = self.plan
        grad = np.zeros((field_size, 4))
        if plan.n_affected == 0:
            return grad
        along = np.einsum("ac,ac->a", np.asarray(d_positions, dtype=float), plan.rays)
        # world-frame gradient per (point, neighbor): w_ij * (u . dL/dp') * u
        contrib = plan.weights[:, :, None] * (along[:, None, None] * plan.rays[:, None, :])
        np.add.at(grad[:, :3], plan.neighbor_idx, contrib)
        grad[:, :3] = grad[:, :3] @ self._rot  # back to the field-local frame

        d_tau = np.asarray(d_intensity, dtype=float).copy()
        if clip_active is not None:
            d_tau = np.where(np.asarray(clip_active, dtype=bool), 0.0, d_tau)
        np.add.at(grad[:, 3], plan.neighbor_idx, plan.weights * d_tau[:, None])
        return grad
