"""Frozen attackable targets: a per-point segmenter and an anchor-grid detector.

Both heads are small tanh MLPs over order-invariant neighborhood statistics,
with reverse-mode gradients written out by hand for parameters and, crucially,
for the raw inputs (positions and intensities) so that projected-gradient
attacks can differentiate straight through them. Neighborhoods come from
uniform-grid binning; bin membership is piecewise constant, so the input
gradients are exact almost everywhere.

A segmenter point's features depend only on the points of its own voxel. So
when a few points move, only the voxels they occupy before or after moving
change their features, and ``SegNetMini.touched_rows`` names the rows of
those voxels. A tape over whole voxels gives the exact input gradients of
the loss over its rows: every point that feeds a row's voxel statistics is
itself a row. The attacks run the MLP on those rows alone and keep the clean
cloud's loss for every other row.

The detector builds its fixed anchor grid (centers, bearings, view-frame
rotations) once, and ``DetHeadMini.proposals`` is the one proposal rule of
attack and evaluation. ``train_seg`` and ``train_det`` share one loop,
``_train``, and supply only their seed streams and a per-scene step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudio import FormatError, PointCloud, read_arrays, write_arrays
from .geometry import OrientedBox, rot_z, wrap_pi
from .simulator import CANONICAL_CAR_DIMS

CKPT_MAGIC = "advfield-ckpt"
CKPT_VERSION = 2

# fixed feature normalization; changing these changes the architecture
_REL_SCALE = 2.0     # relative offsets, +-0.5 m -> +-1
_Z_SCALE = 0.3       # absolute height, buildings ~10 m -> ~3
_COUNT_SCALE = 0.4   # log1p(point count)

_KEY_SHIFT = 1 << 19
_KEY_BITS = 20


def _grid_keys(xyz: np.ndarray, cell: float) -> np.ndarray:
    """Collapse integer voxel coordinates into one sortable int64 key."""
    ids = np.floor(xyz / cell).astype(np.int64) + _KEY_SHIFT
    if ids.size and (ids.min() < 0 or ids.max() >= (1 << _KEY_BITS)):
        raise ValueError("point coordinates exceed the supported grid range")
    return (ids[:, 0] << (2 * _KEY_BITS)) | (ids[:, 1] << _KEY_BITS) | ids[:, 2]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _Mlp:
    """Two tanh hidden layers and a linear output, all float64."""

    def __init__(self, n_in: int, hidden: int, n_out: int):
        self.shapes = {
            "W1": (n_in, hidden), "b1": (hidden,),
            "W2": (hidden, hidden), "b2": (hidden,),
            "W3": (hidden, n_out), "b3": (n_out,),
        }
        self.params = {k: np.zeros(s) for k, s in self.shapes.items()}

    def init_random(self, seed) -> None:
        rng = np.random.default_rng(seed)
        for key, shape in self.shapes.items():
            if key.startswith("W"):
                fan_in = shape[0]
                self.params[key] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)
            else:
                self.params[key] = np.zeros(shape)

    def load(self, params: dict) -> None:
        """Take ``params`` as the parameters; names and shapes must match ``shapes``."""
        for name in sorted(set(params) | set(self.shapes)):
            got = np.shape(params[name]) if name in params else None
            if got != self.shapes.get(name):
                raise FormatError(f"parameter {name} has shape {got}, "
                                  f"expected {self.shapes.get(name)}")
        self.params = {k: np.asarray(params[k], dtype=float) for k in self.shapes}

    def forward(self, x: np.ndarray):
        p = self.params
        a1 = np.tanh(x @ p["W1"] + p["b1"])
        a2 = np.tanh(a1 @ p["W2"] + p["b2"])
        logits = a2 @ p["W3"] + p["b3"]
        return logits, (x, a1, a2)

    def backward(self, tape, dlogits: np.ndarray):
        """Returns (d_input, param_grads)."""
        x, a1, a2 = tape
        p = self.params
        grads = {"W3": a2.T @ dlogits, "b3": dlogits.sum(axis=0)}
        da2 = dlogits @ p["W3"].T
        dz2 = da2 * (1.0 - a2 * a2)
        grads["W2"] = a1.T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ p["W2"].T
        dz1 = da1 * (1.0 - a1 * a1)
        grads["W1"] = x.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        dx = dz1 @ p["W1"].T
        return dx, grads


# ---------------------------------------------------------------------------
# segmentation head
# ---------------------------------------------------------------------------

@dataclass
class SegTape:
    """Activations of one forward pass, consumed by the backward passes."""

    cloud: PointCloud
    inverse: np.ndarray       # (n,) voxel index per point
    counts: np.ndarray        # (nv,) points per voxel
    mlp_tape: tuple
    rows: np.ndarray | None = None  # the cloud rows the MLP ran on; None for all


class SegNetMini:
    """Per-point semantic segmenter over local grid-neighborhood features.

    Features per point: offset to the centroid of its grid cell (cell size =
    ``radius``), height above ground, intensity, log point count of the cell,
    and the cell's mean intensity.
    """

    N_FEATURES = 7

    def __init__(self, n_classes: int, hidden: int = 64, radius: float = 0.5):
        self.n_classes = int(n_classes)
        self.hidden = int(hidden)
        self.radius = float(radius)
        self.mlp = _Mlp(self.N_FEATURES, self.hidden, self.n_classes)

    def init_random(self, seed) -> None:
        self.mlp.init_random(seed)

    def _features(self, cloud: PointCloud):
        keys = _grid_keys(cloud.xyz, self.radius)
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        nv = len(counts)
        sums = np.zeros((nv, 3))
        np.add.at(sums, inverse, cloud.xyz)
        centroids = sums / counts[:, None]
        tau_sums = np.zeros(nv)
        np.add.at(tau_sums, inverse, cloud.intensity)
        mean_tau = tau_sums / counts

        feats = np.empty((cloud.n, self.N_FEATURES))
        feats[:, 0:3] = (cloud.xyz - centroids[inverse]) * _REL_SCALE
        feats[:, 3] = cloud.xyz[:, 2] * _Z_SCALE
        feats[:, 4] = cloud.intensity
        feats[:, 5] = np.log1p(counts[inverse]) * _COUNT_SCALE
        feats[:, 6] = mean_tau[inverse]
        return feats, inverse, counts

    def touched_rows(self, before: PointCloud, after: PointCloud, moved) -> np.ndarray:
        """Increasing rows of ``after`` in every voxel that a ``moved`` point
        occupies in ``before`` or in ``after``; both clouds hold the same points.

        Each such voxel comes whole. Every other voxel holds the same unmoved
        points in both clouds, so its rows keep their features, and their
        losses, from ``before``.
        """
        keys = _grid_keys(after.xyz, self.radius)
        moved_keys = np.concatenate([_grid_keys(before.xyz[moved], self.radius),
                                     keys[moved]])
        return np.flatnonzero(np.isin(keys, moved_keys))

    def forward(self, cloud: PointCloud, rows: np.ndarray | None = None):
        """Per-point class probabilities; rows restricts the MLP to a subset.

        Neighborhood statistics always come from the full cloud. Returns
        ``(probs, tape)``; with ``rows`` given, probs has one row per entry.
        Rows that hold whole voxels, such as those of :meth:`touched_rows`,
        give a tape that :meth:`backward_inputs` accepts.
        """
        if cloud.n == 0:
            empty = np.zeros((0, self.n_classes))
            return empty, SegTape(cloud, np.zeros(0, np.int64), np.zeros(0, np.int64),
                                  (empty, empty, empty))
        feats, inverse, counts = self._features(cloud)
        if rows is not None:
            feats = feats[rows]
        logits, mlp_tape = self.mlp.forward(feats)
        return _softmax(logits), SegTape(cloud, inverse, counts, mlp_tape, rows)

    def backward_inputs(self, tape: SegTape, dlogits: np.ndarray):
        """Exact gradients w.r.t. (x, y, z) and intensity of the tape's rows.

        ``dlogits`` holds one row per tape row, and so do the returned
        ``(dpos, dtau)``. A point's gradient sums the feature gradients of the
        points of its voxel, so a row-restricted tape must hold whole voxels
        (rows in increasing order): then every term of those sums is a row of
        the tape, and the result is the exact gradient of the loss over the
        tape's rows. Raises ValueError on rows that split a voxel.
        """
        cloud = tape.cloud
        if cloud.n == 0:
            return np.zeros((0, 3)), np.zeros(0)
        inverse = tape.inverse
        if tape.rows is not None:
            inverse = inverse[tape.rows]
            held = np.bincount(inverse, minlength=len(tape.counts))
            split = (held > 0) & (held != tape.counts)
            if np.any(np.diff(tape.rows) <= 0) or split.any():
                raise ValueError("input gradients need increasing rows that hold "
                                 "whole voxels")
        dfeat, _ = self.mlp.backward(tape.mlp_tape, dlogits)

        nv = len(tape.counts)
        rel_sums = np.zeros((nv, 3))
        np.add.at(rel_sums, inverse, dfeat[:, 0:3])
        rel_means = rel_sums / tape.counts[:, None]
        dpos = (dfeat[:, 0:3] - rel_means[inverse]) * _REL_SCALE
        dpos[:, 2] += dfeat[:, 3] * _Z_SCALE

        mtau_sums = np.zeros(nv)
        np.add.at(mtau_sums, inverse, dfeat[:, 6])
        dtau = dfeat[:, 4] + (mtau_sums / tape.counts)[inverse]
        return dpos, dtau

    def predict(self, cloud: PointCloud) -> np.ndarray:
        probs, _ = self.forward(cloud)
        return probs.argmax(axis=1).astype(np.int32)

    def state(self) -> dict:
        meta = {"kind": "seg", "n_classes": self.n_classes, "hidden": self.hidden,
                "radius": self.radius}
        return meta, self.mlp.params

    @classmethod
    def from_state(cls, meta: dict, params: dict) -> "SegNetMini":
        model = cls(int(meta["n_classes"]), int(meta["hidden"]), float(meta["radius"]))
        model.mlp.load(params)
        return model


# ---------------------------------------------------------------------------
# detection head
# ---------------------------------------------------------------------------

@dataclass
class DetTape:
    cloud: PointCloud
    point_cell: np.ndarray     # (n,) flat cell index per point, -1 off-grid
    neighbor_counts: np.ndarray  # (A,) 3x3-neighborhood point count per anchor
    means: np.ndarray          # (A, 3) neighborhood mean positions
    mlp_tape: tuple


class DetHeadMini:
    """Single-class detector over a ground-plane anchor grid.

    One axis-aligned anchor per 2 m cell at the canonical car size. Each
    anchor pools first and second point moments over its 3x3 cell
    neighborhood (integral-image box sums, so the receptive field spans a
    whole car); an MLP maps them to a confidence logit and box residuals
    (center offsets, log-size scales, doubled-angle yaw). Intensity is not
    used by this head.

    The grid is built once: ``centers``, their ``bearings`` phi from the
    sensor, and cos/sin of phi and 2 phi (``cos_p``, ``sin_p``, ``cos2``,
    ``sin2``), which rotate into each anchor's view frame.
    """

    N_FEATURES = 8
    N_OUTPUTS = 9  # score, dx, dy, dz, dlog w, dlog h, dlog l, sin 2a, cos 2a
    GROUND_CLIP = 0.25  # points at or below this height are not pooled
    PROPOSAL_SCORE = 0.1  # confidences at or below this are no proposal

    def __init__(self, area: float = 64.0, stride: float = 2.0, hidden: int = 32):
        self.area = float(area)     # grid covers [-area, area) in x and y
        self.stride = float(stride)
        self.hidden = int(hidden)
        self.cells_per_axis = int(round(2 * self.area / self.stride))
        self.mlp = _Mlp(self.N_FEATURES, self.hidden, self.N_OUTPUTS)
        ix, iy = np.divmod(np.arange(self.n_anchors), self.cells_per_axis)
        half_height = np.full(self.n_anchors, CANONICAL_CAR_DIMS[1] / 2.0)
        self.centers = np.column_stack([(ix + 0.5) * self.stride - self.area,
                                        (iy + 0.5) * self.stride - self.area, half_height])
        self.bearings = np.arctan2(self.centers[:, 1], self.centers[:, 0])
        self.cos_p, self.sin_p = np.cos(self.bearings), np.sin(self.bearings)
        self.cos2, self.sin2 = np.cos(2 * self.bearings), np.sin(2 * self.bearings)

    @property
    def n_anchors(self) -> int:
        return self.cells_per_axis ** 2

    def init_random(self, seed) -> None:
        self.mlp.init_random(seed)
        # confident-negative prior: empty anchors start well under relevance
        self.mlp.params["b3"][0] = -3.0

    def _box_sum(self, grid: np.ndarray) -> np.ndarray:
        """3x3 neighborhood sums of a (K, K) per-cell grid."""
        padded = np.pad(grid, 1)
        integral = np.pad(padded.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
        k = self.cells_per_axis
        # neighborhood of cell (i, j) spans padded rows i..i+2, cols j..j+2
        return (integral[3:3 + k, 3:3 + k] - integral[:k, 3:3 + k]
                - integral[3:3 + k, :k] + integral[:k, :k])

    def _pool(self, cloud: PointCloud):
        k = self.cells_per_axis
        ij = np.floor((cloud.xyz[:, :2] + self.area) / self.stride).astype(np.int64)
        valid = np.all((ij >= 0) & (ij < k), axis=1)
        valid &= cloud.xyz[:, 2] > self.GROUND_CLIP  # ground returns carry no box cue
        point_cell = np.where(valid, ij[:, 0] * k + ij[:, 1], -1)

        moments = np.zeros((7, k * k))
        rows = np.flatnonzero(valid)
        if rows.size:
            x, y, z = cloud.xyz[rows, 0], cloud.xyz[rows, 1], cloud.xyz[rows, 2]
            cells = point_cell[rows]
            for channel, values in enumerate(
                    (np.ones_like(x), x, y, z, x * x, y * y, x * y)):
                np.add.at(moments[channel], cells, values)
        sums = np.stack([self._box_sum(m.reshape(k, k)).ravel() for m in moments])

        count = sums[0]
        safe = np.maximum(count, 1.0)
        means = sums[1:4].T / safe[:, None]
        # moments are expressed in each anchor's view frame (x radial from
        # the sensor, y tangential): the offset between a car's visible side
        # and its true center, and its yaw, only make sense relative to the
        # viewing direction
        cos_p, sin_p, cos2, sin2 = self.cos_p, self.sin_p, self.cos2, self.sin2
        off_x = means[:, 0] - self.centers[:, 0]
        off_y = means[:, 1] - self.centers[:, 1]
        var_x = sums[4] / safe - means[:, 0] ** 2
        var_y = sums[5] / safe - means[:, 1] ** 2
        cov2 = 2.0 * (sums[6] / safe - means[:, 0] * means[:, 1])
        dvar = var_x - var_y

        feats = np.zeros((k * k, self.N_FEATURES))
        feats[:, 0] = np.log1p(count) * _COUNT_SCALE
        feats[:, 1] = cos_p * off_x + sin_p * off_y       # radial offset
        feats[:, 2] = -sin_p * off_x + cos_p * off_y      # tangential offset
        feats[:, 3] = means[:, 2] * _Z_SCALE
        feats[:, 4] = var_x + var_y                        # rotation invariant
        feats[:, 5] = cos2 * dvar + sin2 * cov2            # doubled-angle pair,
        feats[:, 6] = -sin2 * dvar + cos2 * cov2           # view frame
        own = np.zeros(k * k)
        if rows.size:
            np.add.at(own, point_cell[rows], 1.0)
        feats[:, 7] = np.log1p(own) * _COUNT_SCALE  # own-cell occupancy
        empty = count == 0
        feats[empty] = 0.0
        return feats, point_cell, count, means

    def forward(self, cloud: PointCloud):
        """Scores and raw outputs for every anchor -> (scores, outputs, tape)."""
        feats, point_cell, counts, means = self._pool(cloud)
        outputs, mlp_tape = self.mlp.forward(feats)
        scores = _sigmoid(outputs[:, 0])
        tape = DetTape(cloud, point_cell, counts, means, mlp_tape)
        return scores, outputs, tape

    def proposals(self, scores: np.ndarray, tape: DetTape) -> np.ndarray:
        """Anchors scoring above ``PROPOSAL_SCORE`` that pooled any point; an
        empty anchor's score is the prior alone, however high."""
        return np.flatnonzero((scores > self.PROPOSAL_SCORE) & (tape.neighbor_counts > 0))

    def decode_boxes(self, anchors: np.ndarray, full_outputs: np.ndarray) -> list:
        """OrientedBoxes of ``anchors`` from their view-frame residuals."""
        anchors = np.asarray(anchors, dtype=np.int64)
        res = full_outputs[anchors, 1:]
        cos_p, sin_p = self.cos_p[anchors], self.sin_p[anchors]
        dx = self.stride * (cos_p * res[:, 0] - sin_p * res[:, 1])
        dy = self.stride * (sin_p * res[:, 0] + cos_p * res[:, 1])
        center = self.centers[anchors] + np.column_stack([dx, dy, res[:, 2]])
        w0, h0, l0 = CANONICAL_CAR_DIMS
        sizes = np.column_stack([
            w0 * np.exp(np.clip(res[:, 3], -2, 2)),
            h0 * np.exp(np.clip(res[:, 4], -2, 2)),
            l0 * np.exp(np.clip(res[:, 5], -2, 2)),
        ])
        yaw = wrap_pi(self.bearings[anchors] + np.arctan2(res[:, 6], res[:, 7]) / 2.0)
        return [
            OrientedBox(center[i], sizes[i, 0], sizes[i, 1], sizes[i, 2], float(yaw[i]))
            for i in range(len(anchors))
        ]

    def backward_inputs(self, tape: DetTape, d_outputs: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. point positions; the detector ignores intensity."""
        cloud = tape.cloud
        dpos = np.zeros((cloud.n, 3))
        rows = np.flatnonzero(tape.point_cell >= 0)
        if rows.size == 0:
            return dpos
        dfeat, _ = self.mlp.backward(tape.mlp_tape, d_outputs)

        k = self.cells_per_axis
        cells = tape.point_cell[rows]
        ci, cj = np.divmod(cells, k)
        x, y = cloud.xyz[rows, 0], cloud.xyz[rows, 1]
        # a point in cell c feeds the 9 anchors whose neighborhood covers c
        cos_p, sin_p, cos2, sin2 = self.cos_p, self.sin_p, self.cos2, self.sin2
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ai, aj = ci + di, cj + dj
                ok = (ai >= 0) & (ai < k) & (aj >= 0) & (aj < k)
                a = ai[ok] * k + aj[ok]
                inv = 1.0 / np.maximum(tape.neighbor_counts[a], 1.0)
                sub = rows[ok]
                # undo the per-anchor view rotation of offsets and moments
                d_off_x = cos_p[a] * dfeat[a, 1] - sin_p[a] * dfeat[a, 2]
                d_off_y = sin_p[a] * dfeat[a, 1] + cos_p[a] * dfeat[a, 2]
                d_dvar = cos2[a] * dfeat[a, 5] - sin2[a] * dfeat[a, 6]
                d_cov2 = sin2[a] * dfeat[a, 5] + cos2[a] * dfeat[a, 6]
                cx = 2.0 * (x[ok] - tape.means[a, 0])
                cy = 2.0 * (y[ok] - tape.means[a, 1])
                gx = d_off_x + (dfeat[a, 4] + d_dvar) * cx + d_cov2 * cy
                gy = d_off_y + (dfeat[a, 4] - d_dvar) * cy + d_cov2 * cx
                gz = dfeat[a, 3] * _Z_SCALE
                np.add.at(dpos[:, 0], sub, gx * inv)
                np.add.at(dpos[:, 1], sub, gy * inv)
                np.add.at(dpos[:, 2], sub, gz * inv)
        return dpos

    def state(self) -> dict:
        meta = {"kind": "det", "area": self.area, "stride": self.stride,
                "hidden": self.hidden}
        return meta, self.mlp.params

    @classmethod
    def from_state(cls, meta: dict, params: dict) -> "DetHeadMini":
        model = cls(float(meta["area"]), float(meta["stride"]), int(meta["hidden"]))
        model.mlp.load(params)
        return model


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class Adam:
    """Plain Adam over a dict of arrays."""

    def __init__(self, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, grad in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(params[key])
                self.v[key] = np.zeros_like(params[key])
            self.m[key] = b1 * self.m[key] + (1 - b1) * grad
            self.v[key] = b2 * self.v[key] + (1 - b2) * grad * grad
            m_hat = self.m[key] / (1 - b1 ** self.t)
            v_hat = self.v[key] / (1 - b2 ** self.t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def class_weights(scenes, n_classes: int) -> np.ndarray:
    """Inverse-sqrt-frequency weights, mean 1 over the classes present."""
    counts = np.zeros(n_classes)
    for cloud in scenes:
        counts += np.bincount(cloud.semantic, minlength=n_classes)
    weights = np.where(counts > 0, 1.0 / np.sqrt(counts + 1.0), 0.0)
    present = weights > 0
    if present.any():
        weights[present] *= present.sum() / weights[present].sum()
    return weights


def standard_augment(cloud: PointCloud, boxes, rng: np.random.Generator):
    """Global yaw rotation in (-pi, pi] about the sensor axis plus a random y flip.

    Returns the moved cloud and ``boxes`` (OrientedBoxes) moved by the same
    draw. The rng draws the angle first, then the flip.
    """
    angle = rng.uniform(-math.pi, math.pi)
    flip = rng.random() < 0.5
    out = cloud.copy()
    out.xyz = out.xyz @ rot_z(angle).T
    if flip:
        out.xyz[:, 1] *= -1.0
    moved = []
    for box in boxes:
        center = rot_z(angle) @ box.center
        yaw = box.yaw + angle
        if flip:
            center = center * np.array([1.0, -1.0, 1.0])
            yaw = -yaw
        moved.append(OrientedBox(center, box.width, box.height, box.length,
                                 float(wrap_pi(yaw))))
    return out, moved


def _train(model, streams, scenes, boxes_per_scene, epochs: int, lr: float, seed,
           hook, step):
    """Adam over shuffled scenes, each hooked, augmented and scored by ``step``.

    ``streams`` picks the SeedSequence streams of ``seed`` that initialize
    the model and draw everything else. ``step(cloud, boxes, rng)`` returns
    ``(loss, tape, d_outputs)``, or None to skip the scene. Raises
    RuntimeError on a non-finite loss.
    """
    model.init_random(np.random.SeedSequence([_seed_int(seed), streams[0]]))
    rng = np.random.default_rng(np.random.SeedSequence([_seed_int(seed), streams[1]]))
    optim = Adam(lr)
    order = np.arange(len(scenes))
    for epoch in range(epochs):
        # step decay settles the per-scene Adam updates near the end
        optim.lr = lr * (0.25 if epoch >= (3 * epochs) // 4 else 1.0)
        rng.shuffle(order)
        for scene_idx in order:
            cloud = scenes[scene_idx]
            if hook is not None:
                cloud = hook(int(scene_idx), cloud, rng)
            cloud, boxes = standard_augment(cloud, boxes_per_scene[scene_idx], rng)
            scored = step(cloud, boxes, rng)
            if scored is None:
                continue
            loss, tape, d_outputs = scored
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, scene {scene_idx}"
                )
            _, grads = model.mlp.backward(tape.mlp_tape, d_outputs)
            optim.step(model.mlp.params, grads)
    return model


# points train_seg samples, class-balanced, per scene step
SEG_POINTS_PER_SCENE = 1536


def train_seg(scenes, n_classes: int, epochs: int, lr: float, seed,
              hook=None) -> SegNetMini:
    """Train a SegNetMini with Adam on weighted cross-entropy.

    ``scenes`` is a list of labeled PointClouds. ``hook(index, cloud, rng)``
    may return a replacement cloud and runs before the standard global
    augmentation, once per scene per epoch. Deterministic for a fixed seed.
    Raises RuntimeError on non-finite loss.
    """
    model = SegNetMini(n_classes)
    weights = class_weights(scenes, n_classes)

    def step(cloud, _, rng):
        n = cloud.n
        if n == 0:
            return None
        if n > SEG_POINTS_PER_SCENE:
            # class-balanced subsample: rare classes keep their gradient share
            p = weights[cloud.semantic]
            total = p.sum()
            if total <= 0:
                return None
            rows = rng.choice(n, size=SEG_POINTS_PER_SCENE, replace=False, p=p / total)
        else:
            rows = np.arange(n)
        probs, tape = model.forward(cloud, rows=rows)
        labels = cloud.semantic[rows]
        w = np.sqrt(weights[labels])
        denom = w.sum()
        if denom <= 0:
            return None
        picked = probs[np.arange(len(rows)), labels]
        loss = float(-(w * np.log(np.maximum(picked, 1e-12))).sum() / denom)
        dlogits = probs.copy()
        dlogits[np.arange(len(rows)), labels] -= 1.0
        dlogits *= (w / denom)[:, None]
        return loss, tape, dlogits

    return _train(model, (1, 2), scenes, [()] * len(scenes), epochs, lr, seed, hook, step)


def train_det(scenes, boxes_per_scene, epochs: int, lr: float, seed,
              hook=None) -> DetHeadMini:
    """Train the detector on (cloud, car boxes) pairs.

    ``boxes_per_scene[i]`` lists the ground-truth OrientedBox targets of
    scene i. Positive anchors are the cells whose center falls inside a box
    footprint, plus the cell nearest to each box center. ``hook`` works as in
    :func:`train_seg`; it moves points, never boxes.
    """
    model = DetHeadMini()
    centers = model.centers
    w0, h0, l0 = CANONICAL_CAR_DIMS

    def step(cloud, gt, _):
        scores, full, tape = model.forward(cloud)
        targets = np.zeros(model.n_anchors)
        reg_targets = {}
        for box in gt:
            local = (centers[:, :2] - box.center[:2]) @ rot_z(box.yaw)[:2, :2]
            inside = np.all(
                np.abs(local) <= np.array([box.length / 2, box.width / 2]), axis=1
            )
            dist = np.linalg.norm(centers[:, :2] - box.center[:2], axis=1)
            pos = np.flatnonzero(inside | (dist < 2.0))
            pos = np.union1d(pos, [int(np.argmin(dist))])
            targets[pos] = 1.0
            for a in pos:
                ac = centers[a]
                # math.atan2, not the stored bearings: they differ in the last
                # bit on some anchors, which would change every trained detector
                phi = math.atan2(ac[1], ac[0])
                dx, dy = box.center[0] - ac[0], box.center[1] - ac[1]
                reg_targets[int(a)] = np.array([
                    (math.cos(phi) * dx + math.sin(phi) * dy) / model.stride,
                    (-math.sin(phi) * dx + math.cos(phi) * dy) / model.stride,
                    box.center[2] - ac[2],
                    math.log(box.width / w0),
                    math.log(box.height / h0),
                    math.log(box.length / l0),
                    math.sin(2 * (box.yaw - phi)),
                    math.cos(2 * (box.yaw - phi)),
                ])

        # confidence BCE balanced three ways: positives, occupied
        # negatives (the hard ones), and empty anchors
        occupied = tape.neighbor_counts > 0
        pos_mask = targets > 0
        hard_neg = occupied & ~pos_mask
        n_pos = max(pos_mask.sum(), 1)
        n_hard = max(hard_neg.sum(), 1)
        n_empty = max((~occupied & ~pos_mask).sum(), 1)
        w_anchor = np.where(pos_mask, 0.5 / n_pos,
                            np.where(hard_neg, 0.35 / n_hard, 0.15 / n_empty))
        d_full = np.zeros_like(full)
        d_full[:, 0] = w_anchor * (scores - targets)
        loss = float(-(w_anchor * (targets * np.log(np.maximum(scores, 1e-12))
                     + (1 - targets) * np.log(np.maximum(1 - scores, 1e-12)))).sum())
        if reg_targets:
            idx = np.fromiter(reg_targets.keys(), dtype=np.int64)
            tgt = np.stack([reg_targets[int(a)] for a in idx])
            diff = full[idx, 1:] - tgt
            loss += float(0.5 * (diff * diff).sum() / len(idx))
            d_full[idx, 1:] += diff / len(idx)
        return loss, tape, d_full

    return _train(model, (3, 4), scenes, boxes_per_scene, epochs, lr, seed, hook, step)


def _seed_int(seed) -> int:
    return int(seed) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# checkpoints: the versioned array format of cloudio, with the head's state()
# meta as header and one array per MLP parameter
# ---------------------------------------------------------------------------

_HEADS = {"seg": SegNetMini, "det": DetHeadMini}


def save_checkpoint(model, path) -> None:
    meta, params = model.state()
    write_arrays(path, CKPT_MAGIC, CKPT_VERSION, meta, params)


def load_checkpoint(path):
    meta, params = read_arrays(path, CKPT_MAGIC, CKPT_VERSION)
    head = _HEADS.get(meta.get("kind"))
    if head is None:
        raise FormatError(f"{path}: unknown checkpoint kind {meta.get('kind')!r}, "
                          f"expected one of {sorted(_HEADS)}")
    try:
        return head.from_state(meta, params)
    except KeyError as err:
        raise FormatError(f"{path}: missing header key {err}") from err
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
