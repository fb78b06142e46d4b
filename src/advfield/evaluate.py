"""Augmented retraining plus every reported metric.

Covers: single-object adversarial augmentation during training, per-class and
mean IoU, average precision, attack success rate, distance-binned IoU, the
intensity-robustness transform suite, and the field-activity analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloudio import PointCloud
from .field import (FieldBank, anchor, anchored_vectors, deform, deform_targets,
                    make_bank, plan_deformation, plan_targets)
from .geometry import OrientedBox, iou_3d
from .rotation import GroupScheme, target_boxes
from .simulator import Scene, SensorSpec
from .victim import train_det, train_seg


# ---------------------------------------------------------------------------
# adversarial augmentation
# ---------------------------------------------------------------------------

def augment_scene(scene: Scene, bank: FieldBank, rng: np.random.Generator,
                  k: int = 2) -> PointCloud:
    """Deform exactly one eligible object with a uniformly chosen variant.

    Eligible objects and their groups come from ``rotation.target_boxes``
    with the bank's class and its box mode ``bank.boxes``: boxes of that
    class holding at least one of its points. The rng draws the box first,
    then the variant, and only the drawn box is planned. Without any
    eligible box, the cloud is returned untouched and
    ``augment_scene.skipped`` is incremented. Labels, point count, and every
    point outside the chosen box are never modified.
    """
    cloud = scene.cloud
    eligible = target_boxes(scene, bank.class_id, bank.boxes, GroupScheme(bank.groups),
                            bank.step)
    if not eligible:
        augment_scene.skipped += 1
        return cloud
    box, group = eligible[int(rng.integers(len(eligible)))]
    variant = int(rng.integers(1, bank.variants + 1))
    plan = plan_deformation(cloud, box, bank.fields[0], scene.sensor.origin, k)
    return deform(cloud, plan, bank.field(group, variant))


augment_scene.skipped = 0


def deform_all_objects(scene: Scene, bank: FieldBank, k: int = 2) -> PointCloud:
    """Deform every target of the bank (``field.plan_targets``) with variant 1."""
    return deform_targets(scene.cloud, plan_targets(scene, bank, k), bank, 1)


def _augment_hook(scenes, bank: FieldBank | None, k: int = 2):
    if bank is None:
        return None

    def hook(index: int, cloud: PointCloud, rng: np.random.Generator) -> PointCloud:
        # the trainers hand the hook their input cloud, scenes[index].cloud
        return augment_scene(scenes[index], bank, rng, k=k)

    return hook


def train_augmented(scenes, bank: FieldBank | None, n_classes: int, epochs: int,
                    lr: float, seed, k: int = 2):
    """Segmentation training with per-scene adversarial augmentation.

    Identical to the plain trainer apart from the deformation hook, which is
    applied before the standard global augmentation; a None bank reproduces
    baseline training bit for bit.
    """
    clouds = [s.cloud for s in scenes]
    return train_seg(clouds, n_classes, epochs, lr, seed,
                     hook=_augment_hook(scenes, bank, k=k))


def train_augmented_det(scenes, bank: FieldBank | None, class_id: int, epochs: int,
                        lr: float, seed, k: int = 2):
    """Detection-head twin of :func:`train_augmented`."""
    clouds = [s.cloud for s in scenes]
    boxes = [[sb.box for sb in s.boxes if sb.class_id == class_id] for s in scenes]
    return train_det(clouds, boxes, epochs, lr, seed,
                     hook=_augment_hook(scenes, bank, k=k))


# ---------------------------------------------------------------------------
# segmentation metrics
# ---------------------------------------------------------------------------

def confusion_matrix(pred, labels, n_classes: int) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    joint = labels * n_classes + pred
    counts = np.bincount(joint, minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes)


@dataclass
class IouResult:
    iou: np.ndarray    # (C,) per-class IoU, 0 where undefined
    valid: np.ndarray  # (C,) False where the union was empty

    @property
    def mean(self) -> float:
        """Mean over classes with nonempty union (flagged by ``valid``)."""
        if not self.valid.any():
            return math.nan
        return float(self.iou[self.valid].mean())

    def of(self, class_id: int) -> float:
        return float(self.iou[class_id])


def iou_from_confusion(matrix: np.ndarray) -> IouResult:
    tp = np.diag(matrix).astype(float)
    union = matrix.sum(axis=0) + matrix.sum(axis=1) - np.diag(matrix)
    valid = union > 0
    iou = np.zeros(len(matrix))
    iou[valid] = tp[valid] / union[valid]
    return IouResult(iou, valid)


def miou_over_scenes(victim, scenes, n_classes: int) -> IouResult:
    total = np.zeros((n_classes, n_classes), dtype=np.int64)
    for scene in scenes:
        cloud = scene.cloud if isinstance(scene, Scene) else scene
        pred = victim.predict(cloud)
        total += confusion_matrix(pred, cloud.semantic, n_classes)
    return iou_from_confusion(total)


# range bins of distance_binned_iou: DISTANCE_BINS bins of DISTANCE_BIN_M
# meters each, the last one open-ended
DISTANCE_BINS = 8
DISTANCE_BIN_M = 10


def distance_binned_iou(pred, labels, xyz, sensor_origin, n_classes: int):
    """Per-class IoU computed independently inside 3D-range bins.

    Returns ``(ious, valid)`` of shape (DISTANCE_BINS, C); bins partition the
    points so their confusion matrices sum to the global one.
    """
    xyz = np.asarray(xyz, dtype=float)
    ranges = np.linalg.norm(xyz - np.asarray(sensor_origin, dtype=float), axis=1)
    bins = np.minimum((ranges / DISTANCE_BIN_M).astype(np.int64), DISTANCE_BINS - 1)
    ious = np.zeros((DISTANCE_BINS, n_classes))
    valid = np.zeros((DISTANCE_BINS, n_classes), dtype=bool)
    for b in range(DISTANCE_BINS):
        rows = bins == b
        result = iou_from_confusion(
            confusion_matrix(np.asarray(pred)[rows], np.asarray(labels)[rows], n_classes)
        )
        ious[b] = result.iou
        valid[b] = result.valid
    return ious, valid


# ---------------------------------------------------------------------------
# detection metrics
# ---------------------------------------------------------------------------

@dataclass
class Detection:
    scene: int
    score: float
    box: OrientedBox


@dataclass
class GroundTruth:
    scene: int
    box: OrientedBox


def _match_matrix(detections, ground_truths, iou_thr: float):
    """Greedy confidence-ordered matching; one detection per ground truth."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    by_scene = {}
    for j, gt in enumerate(ground_truths):
        by_scene.setdefault(gt.scene, []).append(j)
    taken = np.zeros(len(ground_truths), dtype=bool)
    is_tp = np.zeros(len(detections), dtype=bool)
    for i in order:
        det = detections[i]
        best, best_iou = -1, iou_thr
        for j in by_scene.get(det.scene, ()):
            if taken[j]:
                continue
            overlap = iou_3d(det.box, ground_truths[j].box)
            if overlap > best_iou:
                best, best_iou = j, overlap
        if best >= 0:
            taken[best] = True
            is_tp[i] = True
    return order, is_tp


def average_precision(detections, ground_truths, iou_thr: float = 0.7) -> float:
    """Area under the precision envelope over recall (no point sampling)."""
    if not ground_truths:
        return 0.0
    if not detections:
        return 0.0
    order, is_tp = _match_matrix(detections, ground_truths, iou_thr)
    tp = np.cumsum(is_tp[order])
    fp = np.cumsum(~is_tp[order])
    recall = tp / len(ground_truths)
    precision = tp / np.maximum(tp + fp, 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev) * envelope).sum())


def detected_mask(detections, ground_truths, iou_thr: float) -> np.ndarray:
    """Per ground truth: True if some detection overlaps it above the threshold."""
    hit = np.zeros(len(ground_truths), dtype=bool)
    by_scene = {}
    for i, det in enumerate(detections):
        by_scene.setdefault(det.scene, []).append(i)
    for j, gt in enumerate(ground_truths):
        for i in by_scene.get(gt.scene, ()):
            if iou_3d(detections[i].box, gt.box) > iou_thr:
                hit[j] = True
                break
    return hit


def attack_success_rate(clean_detections, attacked_detections, ground_truths,
                        iou_thr: float = 0.7) -> float:
    """Percentage of clean-detected objects lost after the attack."""
    clean = detected_mask(clean_detections, ground_truths, iou_thr)
    if not clean.any():
        return 0.0
    attacked = detected_mask(attacked_detections, ground_truths, iou_thr)
    lost = clean & ~attacked
    return 100.0 * float(lost.sum()) / float(clean.sum())


# the center distance within which a lower-scoring proposal is suppressed
NMS_RADIUS = 2.5


def collect_detections(victim, scenes, class_id: int | None = None, transform=None):
    """Run the detector over scenes -> (detections, ground truths).

    The proposals are the anchors that ``DetHeadMini.proposals`` keeps,
    reduced by center-distance NMS: within each scene, any proposal whose
    center lies within ``NMS_RADIUS`` of a higher-scoring kept proposal is
    dropped.
    """
    detections, gts = [], []
    for index, scene in enumerate(scenes):
        cloud = scene.cloud if transform is None else transform(index, scene)
        scores, full, tape = victim.forward(cloud)
        keep = victim.proposals(scores, tape)
        boxes = victim.decode_boxes(keep, full)
        order = np.argsort(-scores[keep], kind="stable")
        chosen = []
        for rank in order:
            box = boxes[rank]
            if all(np.linalg.norm(box.center[:2] - kept.center[:2]) > NMS_RADIUS
                   for kept in chosen):
                chosen.append(box)
                detections.append(Detection(index, float(scores[keep[rank]]), box))
        for sb in scene.boxes:
            if class_id is None or sb.class_id == class_id:
                gts.append(GroundTruth(index, sb.box))
    return detections, gts


# ---------------------------------------------------------------------------
# intensity robustness suite
# ---------------------------------------------------------------------------

def _t_none(tau, rng):
    return tau


def _t_zero(tau, rng):
    return np.zeros_like(tau)


def _t_gauss(tau, rng):
    return tau + rng.normal(0.0, 0.3, size=tau.shape)


def _t_uniform_replace(tau, rng):
    return rng.uniform(0.0, 1.0, size=tau.shape)


def _t_uniform_up(tau, rng):
    return tau + rng.uniform(0.0, 0.3, size=tau.shape)


def _t_uniform_sym(tau, rng):
    return tau + rng.uniform(-0.3, 0.3, size=tau.shape)


def _t_shift(tau, rng):
    # one scalar per cloud, sign drawn uniformly
    return tau + (0.3 if rng.random() < 0.5 else -0.3)


INTENSITY_TRANSFORMS = {
    "none": _t_none,
    "zero": _t_zero,
    "gauss_std_0.3": _t_gauss,
    "uniform_0_1": _t_uniform_replace,
    "uniform_noise_0_0.3": _t_uniform_up,
    "uniform_noise_pm_0.3": _t_uniform_sym,
    "shift_pm_0.3": _t_shift,
}


def apply_intensity_transform(cloud: PointCloud, name: str,
                              rng: np.random.Generator) -> PointCloud:
    """Transform intensities only, then clip to [0, 1]; positions untouched."""
    out = cloud.copy()
    out.intensity = np.clip(INTENSITY_TRANSFORMS[name](cloud.intensity, rng), 0.0, 1.0)
    return out


def intensity_suite(victim, scenes, n_classes: int, seed: int = 0) -> dict:
    """mIoU (and per-class IoU) of the victim under each intensity transform."""
    table = {}
    for t_index, name in enumerate(INTENSITY_TRANSFORMS):
        total = np.zeros((n_classes, n_classes), dtype=np.int64)
        for s_index, scene in enumerate(scenes):
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), 31, t_index, s_index]))
            cloud = apply_intensity_transform(scene.cloud, name, rng)
            total += confusion_matrix(victim.predict(cloud), cloud.semantic, n_classes)
        table[name] = iou_from_confusion(total)
    return table


# ---------------------------------------------------------------------------
# field activity analysis
# ---------------------------------------------------------------------------

_FACES = ("front", "rear", "left", "right")


def _face_of(roots: np.ndarray) -> np.ndarray:
    x, y = roots[:, 0], roots[:, 1]
    lengthwise = np.abs(x) >= np.abs(y)
    face = np.where(lengthwise, np.where(x >= 0, 0, 1), np.where(y >= 0, 2, 3))
    return face


# range at which analyze_fields places each field's reference box
REFERENCE_RANGE = 15.0


def analyze_fields(bank: FieldBank) -> list:
    """Per-field activity statistics against the bank's initial vectors.

    A vector is active when its spatial magnitude exceeds the magnitude it
    was initialized with, which ``make_bank`` rebuilds from ``bank.seed``.
    Active vectors are projected on the ray from the default sensor through
    their anchored root, with the box ``REFERENCE_RANGE`` meters out at the
    field's reference bearing, and tallied toward (negative projection) or
    away from the sensor, per box face region.
    """
    origin = SensorSpec().origin
    scheme = GroupScheme(bank.groups)
    w0, h0, l0 = bank.dims
    start = make_bank(bank.class_id, bank.class_name, bank.dims, bank.step, bank.groups,
                      bank.variants, bank.seed)
    stats = []
    for fld in bank.fields:
        initial = start.field(fld.group, fld.variant).vectors
        init_norm = np.linalg.norm(initial[:, :3], axis=1)
        norm = np.linalg.norm(fld.vectors[:, :3], axis=1)
        active = norm > init_norm

        beta = scheme.reference_angle(fld.group)
        center = np.array([REFERENCE_RANGE * math.cos(beta),
                           REFERENCE_RANGE * math.sin(beta), h0 / 2.0])
        box = OrientedBox(center, w0, h0, l0, 0.0)
        roots_world = anchor(fld, box)
        rays = roots_world - origin
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        signed = np.einsum("mc,mc->m", anchored_vectors(fld, box.yaw), rays)
        toward = active & (signed < 0)
        away = active & (signed > 0)

        face = _face_of(fld.roots)
        entry = {
            "group": fld.group,
            "variant": fld.variant,
            "active": int(active.sum()),
            "toward": int(toward.sum()),
            "away": int(away.sum()),
        }
        for code, name in enumerate(_FACES):
            rows = face == code
            entry[f"net_toward_{name}"] = int(toward[rows].sum()) - int(away[rows].sum())
        stats.append(entry)
    return stats


def write_field_stats_csv(stats: list, path) -> None:
    if not stats:
        Path(path).write_text("", encoding="utf-8")
        return
    keys = list(stats[0].keys())
    lines = [",".join(keys)]
    lines += [",".join(str(entry[k]) for k in keys) for entry in stats]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
