"""Sample-specific reference attacks: free per-point PGD, a Chamfer-regularized
variant, and critical-point removal / generation built on top of the former.

These deliberately skip the ray and smoothness constraints of the field
attack; they are fitted per object on the very clouds they are evaluated on,
which is what makes them strong and poorly transferable. None of them ever
touches a point outside the target object's box.

Both attacks run one PGD loop on the untargeted loss of the whole scene
(:func:`attack.untargeted_objective`). Each step moves every attacked point
by the fixed step size ``STEP`` (0.05) along its normalized spatial
gradient, plus an optional penalty gradient; moves each intensity offset by
``STEP`` against the sign of its gradient, which is zero where the raw
intensity already sits at a clip bound of [0, 1]; and then projects the
offsets back into the attack's budget. No caller sets another step size.

Each call runs the victim once over the whole cloud it is given, without
rows and so without a tape, for the clean loss of every row. Every step
after that runs it over the rows of the voxels that the attacked points
occupy before or after moving; every other row keeps its loss in the given
cloud, since the victim is frozen, so the loss still covers every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attack import touched_loss_and_grads, untargeted_objective
from .cloudio import PointCloud
from .field import check_budget
from .geometry import OrientedBox, box_contains_many

# the step of every PGD iteration, in meters and in intensity units
STEP = 0.05


def chamfer_distance(x: np.ndarray, y: np.ndarray) -> float:
    """One-sided mean nearest-neighbor distance from each point of x to y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0:
        raise ValueError("chamfer distance needs a nonempty source set")
    dists = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    return float(dists.min(axis=1).mean())


@dataclass
class _L2Result:
    cloud: PointCloud
    object_idx: np.ndarray   # cloud indices of the attacked points
    offsets: np.ndarray      # (a, 3) final spatial offsets


def _apply_offsets(cloud: PointCloud, idx, offsets, tau_shift) -> PointCloud:
    out = cloud.copy()
    out.xyz[idx] = cloud.xyz[idx] + offsets
    out.intensity[idx] = np.clip(cloud.intensity[idx] + tau_shift, 0.0, 1.0)
    return out


def _normalized_rows(g: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / np.maximum(norms, 1e-12)


def _pgd(cloud: PointCloud, idx, victim, iters: int, project, penalty=None) -> tuple:
    """The spatial and intensity offsets of the points ``idx`` after PGD.

    ``penalty(offsets)``, if given, is added to the spatial gradient of the
    loss; ``project(offsets, tau_shift)`` pulls both back into the budget in
    place after every step. With no point to move, the offsets stay empty and
    the victim never runs.
    """
    offsets = np.zeros((len(idx), 3))
    tau_shift = np.zeros(len(idx))
    if len(idx) == 0:
        return offsets, tau_shift
    clean_losses = untargeted_objective(victim.forward(cloud)[0], cloud.semantic)[0]
    for _ in range(iters):
        attacked = _apply_offsets(cloud, idx, offsets, tau_shift)
        loss, dpos, dtau = touched_loss_and_grads(victim, cloud, clean_losses, attacked, idx,
                                                  untargeted_objective)
        if not math.isfinite(loss):
            raise RuntimeError("victim produced a non-finite baseline loss")
        if penalty is not None:
            dpos = dpos + penalty(offsets)
        offsets -= STEP * _normalized_rows(dpos)
        raw_tau = cloud.intensity[idx] + tau_shift
        g_tau = np.where((raw_tau <= 0.0) | (raw_tau >= 1.0), 0.0, dtau)
        tau_shift -= STEP * np.sign(g_tau)
        project(offsets, tau_shift)
    return offsets, tau_shift


def _l2_attack(cloud: PointCloud, box: OrientedBox, victim, eps: float, psi: float,
               iters: int, active=None) -> _L2Result:
    """Per-point PGD with each spatial offset in the eps ball and each
    intensity offset in [-psi, psi].

    ``active`` optionally restricts which of the object's points may move
    (used by the generation baseline).
    """
    check_budget(eps, psi)
    idx = (np.flatnonzero(box_contains_many(box, cloud.xyz)) if active is None
           else np.asarray(active))

    def project(offsets, tau_shift):
        norms = np.linalg.norm(offsets, axis=1, keepdims=True)
        offsets *= np.minimum(1.0, eps / np.maximum(norms, 1e-12))
        np.clip(tau_shift, -psi, psi, out=tau_shift)

    offsets, tau_shift = _pgd(cloud, idx, victim, iters, project)
    return _L2Result(_apply_offsets(cloud, idx, offsets, tau_shift), idx, offsets)


def iterative_gradient_l2(cloud: PointCloud, box: OrientedBox, victim,
                          eps: float = 0.3, psi: float = 0.3, iters: int = 10) -> PointCloud:
    """Free per-point attack with an L2 ball per point (no ray constraint)."""
    return _l2_attack(cloud, box, victim, eps, psi, iters).cloud


def chamfer_attack(cloud: PointCloud, box: OrientedBox, victim, lam: float = 0.1,
                   eps: float = 0.3, psi: float = 0.3, iters: int = 10) -> PointCloud:
    """Per-point attack regularized by the Chamfer distance to the object.

    Minimizes loss + lam * C(deformed, original) over the object points; the
    overall Chamfer distance (not single offsets) is kept below eps by
    uniformly rescaling the offsets, so a few points may move far while the
    average stays small. The mean absolute intensity offset is kept below
    psi the same way.
    """
    check_budget(eps, psi)
    idx = np.flatnonzero(box_contains_many(box, cloud.xyz))
    original = cloud.xyz[idx]

    def penalty(offsets):
        moved = original + offsets
        dists = np.linalg.norm(moved[:, None, :] - original[None, :, :], axis=2)
        gap = moved - original[dists.argmin(axis=1)]
        gap_norm = np.linalg.norm(gap, axis=1, keepdims=True)
        # subgradient of the mean nearest distance; zero at unmoved points
        d_chamfer = np.where(gap_norm > 1e-12, gap / np.maximum(gap_norm, 1e-12), 0.0)
        d_chamfer /= len(idx)
        return lam * d_chamfer

    def project(offsets, tau_shift):
        for _ in range(20):
            c = chamfer_distance(original + offsets, original)
            if c <= eps:
                break
            offsets *= (eps / c) * 0.999
        mean_tau = np.abs(tau_shift).mean()
        if mean_tau > psi:
            tau_shift *= psi / mean_tau

    offsets, tau_shift = _pgd(cloud, idx, victim, iters, project, penalty)
    return _apply_offsets(cloud, idx, offsets, tau_shift)


def critical_points(cloud: PointCloud, box: OrientedBox, victim, eps: float = 0.3,
                    psi: float = 0.3, iters: int = 10) -> np.ndarray:
    """Cloud indices of the ceil(10%) object points the L2 attack moves furthest."""
    result = _l2_attack(cloud, box, victim, eps, psi, iters)
    count = math.ceil(0.1 * len(result.object_idx))
    magnitudes = np.linalg.norm(result.offsets, axis=1)
    top = np.argsort(-magnitudes, kind="stable")[:count]
    return result.object_idx[top]


def adversarial_removal(cloud: PointCloud, box: OrientedBox, victim,
                        eps: float = 0.3, psi: float = 0.3, iters: int = 10) -> PointCloud:
    """Delete the critical points (positions, intensities, and labels)."""
    drop = critical_points(cloud, box, victim, eps, psi, iters)
    keep = np.setdiff1d(np.arange(cloud.n), drop)
    return PointCloud(cloud.xyz[keep], cloud.intensity[keep],
                      cloud.semantic[keep], cloud.instance[keep])


def adversarial_generation(cloud: PointCloud, box: OrientedBox, victim,
                           eps: float = 0.3, psi: float = 0.3, iters: int = 10) -> PointCloud:
    """Append copies of the critical points and attack only the copies.

    The original points are left bit-identical; the appended points start at
    the critical locations and then move under the L2 attack. A box holding
    no point appends none, and the victim never runs.
    """
    source = critical_points(cloud, box, victim, eps, psi, iters)
    grown = PointCloud(
        np.concatenate([cloud.xyz, cloud.xyz[source]]),
        np.concatenate([cloud.intensity, cloud.intensity[source]]),
        np.concatenate([cloud.semantic, cloud.semantic[source]]),
        np.concatenate([cloud.instance, cloud.instance[source]]),
    )
    added = np.arange(cloud.n, grown.n)
    return _l2_attack(grown, box, victim, eps, psi, iters, active=added).cloud
