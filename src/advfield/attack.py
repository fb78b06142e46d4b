"""Projected-gradient learning of field banks against a frozen victim.

Three objectives are supported: suppressing overlap-weighted detection
confidence, pushing per-point predictions off the true class anywhere
(untargeted), and pulling the perturbed class's predictions onto a chosen
target class. Gradients flow victim -> point shifts -> vector components;
after every Adam step the fields are clamped back into their feasible set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import FieldBank, ShiftJacobian, clamp_field, deform_targets, plan_targets
from .geometry import iou_3d
from .victim import Adam, DetHeadMini, SegNetMini

PROB_FLOOR = 1e-12
BATCH_SCENES = 4  # scenes whose gradients accumulate before each Adam step

MODES = ("detection", "seg-untargeted", "seg-targeted")


@dataclass
class AttackConfig:
    mode: str
    adversarial_class: int
    target_class: int | None = None
    eps: float = 0.3
    psi: float = 0.3
    lr: float = 0.01
    iterations: int = 50
    k: int = 2
    seed: int = 0
    box_drop: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.eps <= 0 or self.psi <= 0:
            raise ValueError("eps and psi must be positive")
        if self.mode == "seg-targeted":
            if self.target_class is None:
                raise ValueError("targeted mode needs a target class")
            if self.target_class == self.adversarial_class:
                raise ValueError("target class must differ from the adversarial class")
        if not 0.0 <= self.box_drop < 1.0:
            raise ValueError("box drop fraction must be in [0, 1)")


@dataclass
class AttackTrace:
    losses: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# losses (values and logit gradients)
# ---------------------------------------------------------------------------

def loss_detection(scores, ious) -> float:
    """Sum of -iou * log(1 - s) over relevant proposals; zero without overlap."""
    scores = np.asarray(scores, dtype=float)
    ious = np.asarray(ious, dtype=float)
    return float(-(ious * np.log(np.maximum(1.0 - scores, PROB_FLOOR))).sum())


def detection_logit_grad(scores, ious) -> np.ndarray:
    """d loss / d confidence-logit; the overlap weight is treated as constant."""
    return np.asarray(ious, dtype=float) * np.asarray(scores, dtype=float)


def loss_untargeted(probs, labels) -> float:
    """Log-probability of the true class summed over the scene (minimized).

    This is the negated cross-entropy: zero for perfect confidence, more
    negative for a healthier model, so minimizing it degrades predictions
    on every point.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    picked = probs[np.arange(len(labels)), labels]
    return float(np.log(np.maximum(picked, PROB_FLOOR)).sum())


def untargeted_logit_grad(probs, labels) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    rows = np.arange(len(labels))
    grad = np.zeros_like(probs)
    picked = probs[rows, labels]
    live = picked > PROB_FLOOR  # clamped rows contribute no gradient
    rows = rows[live]
    grad[rows] = -probs[rows]
    grad[rows, labels[rows]] += 1.0
    return grad


def loss_targeted(probs, rows, target_class: int) -> float:
    """Negated log-probability of the target class on the perturbed class's points."""
    rows = np.asarray(rows)
    if rows.size == 0:
        warnings.warn("targeted loss: no points of the adversarial class in scene")
        return 0.0
    probs = np.asarray(probs, dtype=float)
    picked = probs[rows, target_class]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).sum())


def targeted_logit_grad(probs, rows, target_class: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    rows = np.asarray(rows)
    grad = np.zeros_like(probs)
    if rows.size == 0:
        return grad
    live = probs[rows, target_class] > PROB_FLOOR
    rows = rows[live]
    grad[rows] = probs[rows]
    grad[rows, target_class] -= 1.0
    return grad


# ---------------------------------------------------------------------------
# box selection
# ---------------------------------------------------------------------------

def drop_boxes(boxes, fraction: float, seed) -> list:
    """Deterministic box subsample emulating imperfect box sources.

    round(fraction * count) boxes are dropped uniformly at random; order is
    preserved.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    kept = list(boxes)
    n_drop = int(round(fraction * len(kept)))
    if n_drop == 0:
        return kept
    rng = np.random.default_rng(seed)
    dropped = set(rng.choice(len(kept), size=n_drop, replace=False).tolist())
    return [b for i, b in enumerate(kept) if i not in dropped]


# ---------------------------------------------------------------------------
# bank fitting
# ---------------------------------------------------------------------------

@dataclass
class _SceneWork:
    scene: object
    variant: int
    plans: list  # (group, DeformationPlan)


def _prepare(scenes, bank: FieldBank, cfg: AttackConfig):
    work = []
    usage = {(f.group, f.variant): 0 for f in bank.fields}
    for idx, scene in enumerate(scenes):
        variant = idx % bank.variants + 1
        plans = drop_boxes(plan_targets(scene, bank, cfg.k), cfg.box_drop,
                           np.random.SeedSequence([cfg.seed, 23, idx]))
        for group, _ in plans:
            usage[(group, variant)] += 1
        work.append(_SceneWork(scene, variant, plans))
    unused = sorted(slot for slot, count in usage.items() if count == 0)
    if unused:
        warnings.warn(
            f"{len(unused)} field slots have no target objects; "
            f"risk of overfit for (group, variant) in {unused[:8]}"
        )
    return work


def _scene_loss_and_input_grads(cloud, work: _SceneWork, victim, cfg: AttackConfig):
    scene = work.scene
    if cfg.mode == "detection":
        scores, full, tape = victim.forward(cloud)
        relevant = victim.proposals(scores, tape)
        gt = [sb.box for sb in scene.boxes if sb.class_id == cfg.adversarial_class]
        if len(relevant) == 0 or not gt:
            return 0.0, np.zeros((cloud.n, 3)), np.zeros(cloud.n)
        proposals = victim.decode_boxes(relevant, full)
        ious = np.array([max(iou_3d(p, g) for g in gt) for p in proposals])
        loss = loss_detection(scores[relevant], ious)
        d_full = np.zeros_like(full)
        d_full[relevant, 0] = detection_logit_grad(scores[relevant], ious)
        dpos = victim.backward_inputs(tape, d_full)
        return loss, dpos, np.zeros(cloud.n)

    probs, tape = victim.forward(cloud)
    labels = scene.cloud.semantic
    if cfg.mode == "seg-untargeted":
        loss = loss_untargeted(probs, labels)
        dlogits = untargeted_logit_grad(probs, labels)
    else:
        rows = np.flatnonzero(labels == cfg.adversarial_class)
        loss = loss_targeted(probs, rows, cfg.target_class)
        dlogits = targeted_logit_grad(probs, rows, cfg.target_class)
    dpos, dtau = victim.backward_inputs(tape, dlogits)
    return loss, dpos, dtau


def fit_bank(bank: FieldBank, scenes, victim, cfg: AttackConfig) -> tuple:
    """Optimize all bank fields over the dataset; returns (bank, trace).

    The attack's class must be the bank's. Point-to-root plans
    (``field.plan_targets``) are computed once from the clean clouds and
    frozen.
    Scene index mod N picks the variant each scene trains, keeping variants
    independent. Gradients accumulate over small scene batches before each
    per-field Adam step; fields are clamped after every step.
    """
    if isinstance(victim, SegNetMini) and cfg.mode == "detection":
        raise ValueError("detection mode needs a detection head")
    if isinstance(victim, DetHeadMini) and cfg.mode != "detection":
        raise ValueError("segmentation modes need a segmentation victim")
    if cfg.adversarial_class != bank.class_id:
        raise ValueError(f"the attack's class {cfg.adversarial_class} is not the "
                         f"bank's class {bank.class_id}")

    work = _prepare(scenes, bank, cfg)
    optimizers = {(f.group, f.variant): Adam(cfg.lr) for f in bank.fields}
    trace = AttackTrace()

    for _ in range(cfg.iterations):
        total_loss = 0.0
        for start in range(0, len(work), BATCH_SCENES):
            batch = work[start:start + BATCH_SCENES]
            grads = {}
            for item in batch:
                if not item.plans:
                    continue
                cloud = deform_targets(item.scene.cloud, item.plans, bank, item.variant)
                loss, dpos, dtau = _scene_loss_and_input_grads(cloud, item, victim, cfg)
                if not math.isfinite(loss):
                    raise RuntimeError("victim produced a non-finite attack loss")
                total_loss += loss
                for group, plan in item.plans:
                    fld = bank.field(group, item.variant)
                    jac = ShiftJacobian(plan)
                    clip = jac.tau_clip_active(item.scene.cloud, fld)
                    slot = (group, item.variant)
                    grads.setdefault(slot, np.zeros_like(fld.vectors))
                    grads[slot] += jac.vector_gradient(
                        dpos[plan.point_idx], dtau[plan.point_idx],
                        fld.size, clip_active=clip,
                    )
            for slot, grad in sorted(grads.items()):
                fld = bank.field(*slot)
                optimizers[slot].step({"v": fld.vectors}, {"v": grad})
                clamp_field(fld, cfg.eps, cfg.psi)
        trace.losses.append(total_loss)
    return bank, trace
