"""Projected-gradient learning of field banks against a frozen victim.

Each attack mode has one objective function, which returns a loss and the
gradient of that loss in the victim's logits: :func:`detection_objective`
suppresses overlap-weighted detection confidence, :func:`untargeted_objective`
pushes per-point predictions off the true class anywhere, and
:func:`targeted_objective` pulls the perturbed class's predictions onto a
chosen target class. The two segmentation objectives take the victim's
per-point probabilities and labels and return one loss per row, so that
:func:`touched_loss_and_grads` can keep the clean loss of every row the
deformation leaves alone. Gradients flow victim -> point shifts -> vector
components. One Adam, keyed by slot, steps the whole bank, and after every
step the bank is clamped back into its own budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import FieldBank, ShiftJacobian, check_budget, deform_targets, plan_targets
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
        check_budget(self.eps, self.psi)
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
    # (group, variant) of every field slot that no scene's target trains;
    # such a slot keeps its initial vectors
    unused_slots: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# objectives: losses and their logit gradients
# ---------------------------------------------------------------------------

def detection_objective(scores, ious) -> tuple:
    """Loss sum(-iou * log(1 - s)) over relevant proposals, zero without
    overlap, and its gradient in the confidence logits; the overlap weight is
    treated as constant."""
    scores = np.asarray(scores, dtype=float)
    ious = np.asarray(ious, dtype=float)
    return float(-(ious * np.log(np.maximum(1.0 - scores, PROB_FLOOR))).sum()), ious * scores


def _floored_log_prob(probs, classes) -> tuple:
    """Per row: log of the probability of ``classes[row]`` floored at
    PROB_FLOOR, and its logit gradient, zero on floored rows."""
    rows = np.arange(len(classes))
    picked = probs[rows, classes]
    grad = np.zeros_like(probs)
    live = rows[picked > PROB_FLOOR]
    grad[live] = -probs[live]
    grad[live, classes[live]] += 1.0
    return np.log(np.maximum(picked, PROB_FLOOR)), grad


def untargeted_objective(probs, labels) -> tuple:
    """Per row: the floored log-probability of the true class; and its
    logit gradient.

    Its sum over the scene is the untargeted loss (minimized). It is the
    negated cross-entropy: zero for perfect confidence, more negative for a
    healthier model, so minimizing it degrades predictions on every point.
    """
    return _floored_log_prob(np.asarray(probs, dtype=float), np.asarray(labels))


def targeted_objective(probs, labels, adversarial_class: int, target_class: int) -> tuple:
    """Per row of ``adversarial_class``: the negated floored log-probability
    of ``target_class``; zero loss and gradient on every other row."""
    labels = np.asarray(labels)
    log_prob, grad = _floored_log_prob(np.asarray(probs, dtype=float),
                                       np.full(len(labels), target_class))
    counted = labels == adversarial_class
    # 0.0 - grad, not -grad: a zero entry stays +0.0
    return (np.where(counted, -log_prob, 0.0),
            np.where(counted[:, None], 0.0 - grad, 0.0))


# ---------------------------------------------------------------------------
# box selection
# ---------------------------------------------------------------------------

def drop_boxes(boxes, fraction: float, seed) -> list:
    """Deterministic box subsample emulating imperfect box sources.

    round(fraction * count) boxes, for a fraction in [0, 1) as AttackConfig
    checks, are dropped uniformly at random; order is preserved.
    """
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
    moved: np.ndarray  # increasing union of the plans' points
    gt: list  # OrientedBoxes of the attack's class
    clean_losses: np.ndarray | None = None  # per-row clean losses, segmentation only


def _prepare(scenes, bank: FieldBank, cfg: AttackConfig):
    """Per-scene plans and boxes, and the sorted (group, variant) slots that none uses."""
    work = []
    usage = np.zeros((bank.groups, bank.variants), dtype=np.int64)
    for idx, scene in enumerate(scenes):
        variant = idx % bank.variants + 1
        plans = drop_boxes(plan_targets(scene, bank, cfg.k), cfg.box_drop,
                           np.random.SeedSequence([cfg.seed, 23, idx]))
        for group, _ in plans:
            usage[group - 1, variant - 1] += 1
        moved = np.unique(np.concatenate([np.zeros(0, np.int64)]
                                         + [plan.point_idx for _, plan in plans]))
        gt = [sb.box for sb in scene.boxes if sb.class_id == cfg.adversarial_class]
        work.append(_SceneWork(scene, variant, plans, moved, gt))
    return work, [(g + 1, n + 1) for g, n in np.argwhere(usage == 0).tolist()]


def _detection_loss_and_input_grads(cloud, work: _SceneWork, victim):
    """Scene loss and the input gradients of ``work.moved`` in detection mode."""
    scores, outputs, tape = victim.forward(cloud)
    relevant = victim.proposals(scores, tape)
    no_tau = np.zeros(len(work.moved))
    if len(relevant) == 0 or not work.gt:
        return 0.0, np.zeros((len(work.moved), 3)), no_tau
    proposals = victim.decode_boxes(relevant, outputs, tape)
    ious = np.array([max(iou_3d(p, g) for g in work.gt) for p in proposals])
    rows = tape.anchor_row[relevant]  # each proposal has a row of its own
    d_outputs = np.zeros_like(outputs)
    loss, d_outputs[rows, 0] = detection_objective(scores[rows], ious)
    dpos = victim.backward_inputs(tape, d_outputs)
    return loss, dpos[work.moved], no_tau


def touched_loss_and_grads(victim, clean, clean_losses, deformed, moved, objective):
    """Loss of ``deformed`` and the input gradients of its points ``moved``.

    ``deformed`` is ``clean`` with only the points ``moved`` changed, and
    ``objective(probs, labels)`` is a segmentation objective: for (r, C)
    probabilities and r labels it returns the r per-row losses and their
    (r, C) logit gradient. The segmenter runs on the voxels that ``moved``
    occupies in either cloud. Every other row's loss is its entry of
    ``clean_losses``, its loss in ``clean``, since the victim is frozen.
    """
    rows = victim.touched_rows(clean, deformed, moved)
    probs, tape = victim.forward(deformed, rows=rows)
    losses, dlogits = objective(probs, clean.semantic[rows])
    dpos, dtau = victim.backward_inputs(tape, dlogits)
    at = np.searchsorted(rows, moved)
    return float(np.delete(clean_losses, rows).sum() + losses.sum()), dpos[at], dtau[at]


def fit_bank(bank: FieldBank, scenes, victim, cfg: AttackConfig) -> tuple:
    """Optimize all bank fields over the dataset; returns (bank, trace).

    The attack's class must be the bank's. Point-to-root plans
    (``field.plan_targets``) are computed once from the clean clouds and
    frozen.
    Scene index mod N picks the variant each scene trains, keeping variants
    independent. Gradients accumulate over small scene batches; one Adam, keyed
    by slot, then steps the slots the batch trained, and the bank is clamped.

    In the segmentation modes the victim runs, once per scene, on the clean
    cloud; each iteration then runs it only on the voxels that the planned
    points occupy before or after the deformation. Every other row keeps its
    clean loss, so ``trace.losses`` still sums the loss of every row.
    """
    if isinstance(victim, SegNetMini) and cfg.mode == "detection":
        raise ValueError("detection mode needs a detection head")
    if isinstance(victim, DetHeadMini) and cfg.mode != "detection":
        raise ValueError("segmentation modes need a segmentation victim")
    if cfg.adversarial_class != bank.class_id:
        raise ValueError(f"the attack's class {cfg.adversarial_class} is not the "
                         f"bank's class {bank.class_id}")
    if (cfg.eps, cfg.psi) != (bank.eps, bank.psi):
        # the bank records its budget; its vectors must be clamped to that one
        raise ValueError(f"the attack's budget (eps, psi) = ({cfg.eps}, {cfg.psi}) is "
                         f"not the bank's ({bank.eps}, {bank.psi})")

    work, unused_slots = _prepare(scenes, bank, cfg)
    if cfg.mode == "detection":
        scene_loss = functools.partial(_detection_loss_and_input_grads, victim=victim)
    else:
        objective = (untargeted_objective if cfg.mode == "seg-untargeted" else
                     functools.partial(targeted_objective,
                                       adversarial_class=cfg.adversarial_class,
                                       target_class=cfg.target_class))
        for item in work:
            if item.plans:
                cloud = item.scene.cloud
                item.clean_losses = objective(victim.forward(cloud)[0], cloud.semantic)[0]

        def scene_loss(cloud, item):
            return touched_loss_and_grads(victim, item.scene.cloud, item.clean_losses, cloud,
                                          item.moved, objective)

    adam = Adam(cfg.lr)
    trace = AttackTrace(unused_slots=unused_slots)
    for _ in range(cfg.iterations):
        total_loss = 0.0
        for start in range(0, len(work), BATCH_SCENES):
            grads = {}
            for item in work[start:start + BATCH_SCENES]:
                if not item.plans:
                    continue
                cloud = deform_targets(item.scene.cloud, item.plans, bank, item.variant)
                loss, dpos, dtau = scene_loss(cloud, item)
                if not math.isfinite(loss):
                    raise RuntimeError("victim produced a non-finite attack loss")
                total_loss += loss
                # a zero intensity gradient (the detector ignores intensity) needs no clip mask
                tau_grad = bool(dtau.any())
                for group, plan in item.plans:
                    fld = bank.field(group, item.variant)
                    jac = ShiftJacobian(plan)
                    clip = jac.tau_clip_active(item.scene.cloud, fld) if tau_grad else None
                    slot = (group, item.variant)
                    at = np.searchsorted(item.moved, plan.point_idx)
                    grads.setdefault(slot, np.zeros_like(fld.vectors))
                    grads[slot] += jac.vector_gradient(
                        dpos[at], dtau[at], fld.size, clip_active=clip,
                    )
            adam.step({(g, n): bank.vectors[g - 1, n - 1] for g, n in grads}, grads)
            bank.clamp()
        trace.losses.append(total_loss)
    return bank, trace
