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

A :class:`FieldBank` holds the G x N fields of one class as one (G, N, m, 4)
array on one lattice; its fields are views of it that share one roots array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cloudio import PointCloud
from .geometry import OrientedBox, box_contains_many, rot_z
from .rotation import BOX_MODES, target_boxes
from .simulator import CLASS_NAMES

# Points closer than this to a root are hard-assigned to it (weight 1),
# avoiding the 1/d blow-up.
COINCIDENT_EPS = 1e-9
INIT_BOUND = 0.01  # bound of the initial vector components, see init_random
MAX_BANK_VALUES = 1 << 25  # values (G x N x m x 4) of a bank: 70 default car banks


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

    @property
    def size(self) -> int:
        return len(self.roots)


@dataclass
class FieldBank:
    """All G x N vector fields for one class, on one lattice of dims and step.

    G and N are the shape of ``vectors``. ``fields`` are VectorField views in
    (g, n) order, sharing one read-only roots array: ``field(g, n).vectors``
    is ``vectors[g - 1, n - 1]``, so updating a field updates the bank.
    """

    class_id: int
    class_name: str
    dims: tuple                     # reference box (w0, h0, l0) in meters
    step: float                     # lattice step t in meters
    vectors: np.ndarray             # (G, N, m, 4), slot (g, n) at [g - 1, n - 1]
    seed: int                       # seed of the initial vectors, see make_bank
    eps: float = 0.3
    psi: float = 0.3
    boxes: str = "gt"               # box mode it was fitted with, see target_boxes
    fields: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        if (self.class_id, self.class_name) not in enumerate(CLASS_NAMES):
            raise ValueError(f"class ({self.class_id}, {self.class_name!r}) is not one of "
                             f"this build's {','.join(CLASS_NAMES)}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is not an integer >= 0")
        check_budget(self.eps, self.psi)
        if self.boxes not in BOX_MODES:
            raise ValueError(f"box mode must be one of {BOX_MODES}, got {self.boxes!r}")
        self.dims = tuple(float(d) for d in self.dims)
        self.step = float(self.step)
        self.vectors = np.asarray(self.vectors, dtype=float)
        m = math.prod(lattice_counts(self.dims, self.step))  # one vector row per lattice root
        if self.vectors.shape[2:] != (m, 4):  # so 4 dimensions
            raise ValueError(f"array vectors has shape {self.vectors.shape}, "
                             f"expected (G, N, {m}, 4)")
        _check_bank_size(self.groups, self.variants)
        self.fields = [VectorField(self.dims, self.step, self.vectors[g, n], g + 1, n + 1)
                       for g, n in np.ndindex(self.groups, self.variants)]

    @property
    def groups(self) -> int:
        return self.vectors.shape[0]

    @property
    def variants(self) -> int:
        return self.vectors.shape[1]

    def field(self, group: int, variant: int) -> VectorField:
        if not (1 <= group <= self.groups and 1 <= variant <= self.variants):
            raise KeyError(f"no field for group {group}, variant {variant}")
        return self.fields[(group - 1) * self.variants + variant - 1]

    def clamp(self) -> None:
        """Clip spatial components to [-eps, eps] and intensity shifts to [-psi, psi]."""
        tau = self.vectors[..., 3].copy()  # a whole-array clip is 7x faster than [..., :3]
        np.clip(self.vectors, -self.eps, self.eps, out=self.vectors)
        np.clip(tau, -self.psi, self.psi, out=self.vectors[..., 3])


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
    if not all(math.isfinite(x) for x in (w, h, l, step, max(w, h, l) / step)):
        raise ValueError(f"dims {(w, h, l)} and step {step} need a finite cell count")
    # the tiny bias keeps exact-ratio extents (e.g. 4.6 / 0.2) from
    # truncating one cell short under binary rounding
    count = lambda extent: int(math.floor(extent / step + 1e-9))
    return count(l), count(w), count(h)


@functools.lru_cache(maxsize=8)
def lattice_roots(dims: tuple, step: float) -> np.ndarray:
    """Cell centers of the lattice, shape (m, 3), in the box-local frame.

    ``dims`` is (w0, h0, l0); the grid has floor(extent/step) cells per axis
    and is centered in the box, so roots sit symmetric about the box center.
    Computed once per (dims, step), which every field of a bank shares; the
    array is read-only.
    """
    nx, ny, nz = lattice_counts(dims, step)
    axes = [(np.arange(n) + 0.5 - n / 2.0) * step for n in (nx, ny, nz)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    roots = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    roots.flags.writeable = False
    return roots


def build_lattice(dims, step: float, group: int = 1, variant: int = 1) -> VectorField:
    """Zero-initialized field on the lattice of ``dims`` and ``step``."""
    nx, ny, nz = lattice_counts(dims, step)
    return VectorField(dims=dims, step=step, vectors=np.zeros((nx * ny * nz, 4)),
                       group=group, variant=variant)


def init_random(field: VectorField, seed) -> None:
    """Draw every component from U(-INIT_BOUND, INIT_BOUND), in place, per seed."""
    rng = np.random.default_rng(seed)
    field.vectors[:] = rng.uniform(-INIT_BOUND, INIT_BOUND, size=field.vectors.shape)


def _check_bank_size(groups: int, variants: int) -> None:
    if groups < 1 or variants < 1:
        raise ValueError(f"bank needs G, N >= 1, got G={groups}, N={variants}")


def make_bank(class_id: int, class_name: str, dims, step: float, groups: int,
              variants: int, seed: int, eps: float = 0.3, psi: float = 0.3,
              boxes: str = "gt") -> FieldBank:
    """Build a randomly initialized G x N bank sharing one lattice geometry.

    Slot (g, n) draws its vectors from its own stream of ``seed``, which the
    bank records, so the same call rebuilds the initial vectors of any bank.
    A budget below INIT_BOUND clamps the draw.
    """
    _check_bank_size(groups, variants)
    shape = (groups, variants, math.prod(lattice_counts(dims, step)), 4)
    if math.prod(shape) > MAX_BANK_VALUES:
        raise ValueError(f"a bank of shape {shape} holds more than {MAX_BANK_VALUES} values")
    vectors = np.empty(shape)
    bank = FieldBank(class_id, class_name, dims, step, vectors, int(seed), eps, psi, boxes)
    for fld in bank.fields:
        init_random(fld, np.random.SeedSequence([bank.seed, 29, fld.group, fld.variant]))
    if min(bank.eps, bank.psi) < INIT_BOUND:  # else the clamp would change nothing
        bank.clamp()
    return bank


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
    return cand.reshape(len(points), math.prod(widths))


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

    roots = anchor(field, box)
    cand = _window_candidates(points, box, field, k_eff)
    dist = np.linalg.norm(points[:, None, :] - roots[cand], axis=2)
    # stable argsort keeps the lower root index first among exact ties
    order = np.argsort(dist, axis=1, kind="stable")[:, :k_eff]
    d = np.take_along_axis(dist, order, axis=1)
    nearest = np.take_along_axis(cand, order, axis=1)

    # rows away from every root hold no d below the floor, so it changes none
    # of their weights; coincident rows are then made one-hot
    inv = 1.0 / np.maximum(d, COINCIDENT_EPS)
    weights = inv / inv.sum(axis=1, keepdims=True)
    coincident = d[:, 0] < COINCIDENT_EPS
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
    targets = target_boxes(scene, bank.class_id, bank.boxes, bank.groups, bank.step)
    return [(group, plan_deformation(scene.cloud, box, bank.fields[0],
                                     scene.sensor.origin, k))
            for box, group in targets]


def deform_targets(cloud: PointCloud, plans, bank: FieldBank, variant: int) -> PointCloud:
    """Deform every ``(group, plan)`` target with its group's field of ``variant``."""
    for group, plan in plans:
        cloud = deform(cloud, plan, bank.field(group, variant))
    return cloud


def check_budget(eps: float, psi: float) -> None:
    """Raise ValueError unless the budgets eps and psi are finite and positive."""
    if not (0.0 < eps < math.inf and 0.0 < psi < math.inf):
        raise ValueError(f"eps and psi must be finite and positive, got {eps} and {psi}")


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
        roots = plan.neighbor_idx.ravel()
        along = np.einsum("ac,ac->a", np.asarray(d_positions, dtype=float), plan.rays)
        # world-frame gradient per (point, neighbor): w_ij * (u . dL/dp') * u
        contrib = plan.weights[:, :, None] * (along[:, None, None] * plan.rays[:, None, :])
        for axis in range(3):
            grad[:, axis] = np.bincount(roots, weights=contrib[:, :, axis].ravel(),
                                        minlength=field_size)
        grad[:, :3] = grad[:, :3] @ self._rot  # back to the field-local frame

        d_tau = np.asarray(d_intensity, dtype=float).copy()
        if clip_active is not None:
            d_tau = np.where(np.asarray(clip_active, dtype=bool), 0.0, d_tau)
        grad[:, 3] = np.bincount(roots, weights=(plan.weights * d_tau[:, None]).ravel(),
                                 minlength=field_size)
        return grad
