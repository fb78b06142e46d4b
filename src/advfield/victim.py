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

Each head's forward pass and input gradient share one aggregation: the
segmenter's voxel mean, its own adjoint, and the detector's table of
(nonempty cell, occupied anchor) pairs, summed per anchor and per cell.

A pass allocates only what it returns and computes only what its caller
reads. The MLP writes bias adds, ``tanh`` and the ``tanh`` slope into arrays
it has just allocated, so no (rows x hidden) temporary is thrown away, and
input gradients skip the parameter gradients. Tapes are fresh per call and
no workspace outlives a call: a caller may keep one pass's outputs and tape
while it runs the next (the attacks keep the clean cloud's losses), and the
CLI's ``eval`` runs one model's passes in a thread pool, one thread per CPU.

The detector runs its MLP once per distinct anchor row, and every pass works
on those rows alone. Every empty anchor pools all-zero features, so the empty
anchors share one zero row, and each occupied anchor has its own (a desk
scene occupies about 100 of the 4,096 anchors). An anchor-to-row map on the
tape reads an anchor's outputs from its row. Proposals are occupied anchors,
so the attack's gradient lands on their own rows; the training loss stands
the zero row for every empty anchor in closed form. In exact arithmetic this
is the all-anchor pass; in floating point, outputs and input gradients are
within 1e-12 relative of it, and trained parameters within 1e-10, because
BLAS may round a product over fewer rows differently.

Each head has one fixed architecture, the victim that fields are fitted
against and that augmented training rebuilds: 0.5 m voxels and a 64-wide MLP
for the segmenter, 64 x 64 anchors of 2 m and a 32-wide MLP for the detector.
A checkpoint header holds only the kind; a segmenter has one output per
class of ``simulator.CLASS_NAMES``, and ``save_checkpoint`` refuses one
that does not.

The detector builds its fixed anchor grid (centers, bearings, view-frame
rotations) once. That one bearing table serves pooling, training targets,
box decoding and the input gradient's adjoint, so targets are encoded in
the frame they are decoded in. ``DetHeadMini.proposals`` is the one proposal
rule of attack and evaluation. ``DetHeadMini.box_targets`` builds the training
targets of a box list, testing each box only against the anchors it can
reach. ``train_seg`` and ``train_det`` share one loop, ``_train``, and
supply only their seed streams and a per-scene step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudio import FormatError, PointCloud, read_arrays, write_arrays
from .geometry import OrientedBox, rot_z, wrap_pi
from .simulator import CANONICAL_CAR_DIMS, CLASS_NAMES

CKPT_MAGIC = "advfield-ckpt"
CKPT_VERSION = 5

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
    probs = logits - logits.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _Mlp:
    """Two tanh hidden layers and a linear output, all float64.

    Every pass allocates only what it hands on: ``forward`` writes each bias
    add and ``tanh`` into the product it just allocated, and the backward
    chain rule writes ``1 - a * a`` into one buffer and multiplies it into
    the incoming gradient in place. The tape, ``(x, a1, a2)``, is fresh per
    call and no workspace outlives a call: a caller may keep one pass's
    outputs and tape while it runs the next, and threads may run passes of
    one model concurrently. ``backward`` and ``backward_inputs`` share one
    chain rule, ``_deltas``.
    """

    def __init__(self, n_in: int, hidden: int, n_out: int):
        self.shapes = {
            "W1": (n_in, hidden), "b1": (hidden,),
            "W2": (hidden, hidden), "b2": (hidden,),
            "W3": (hidden, n_out), "b3": (n_out,),
        }
        self.params = {}  # from init_random, or from load once the shapes match

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
        a1 = x @ p["W1"]
        a1 += p["b1"]
        np.tanh(a1, out=a1)
        a2 = a1 @ p["W2"]
        a2 += p["b2"]
        np.tanh(a2, out=a2)
        logits = a2 @ p["W3"]
        logits += p["b3"]
        return logits, (x, a1, a2)

    def _deltas(self, tape, dlogits: np.ndarray):
        """The chain rule from the logits down: yields the gradient of each
        layer's pre-activation, layer 3 first, then the input gradient."""
        p = self.params
        dz = dlogits
        for layer in (3, 2):
            yield dz
            a = tape[layer - 1]
            dz = dz @ p[f"W{layer}"].T
            slope = a * a
            np.subtract(1.0, slope, out=slope)
            dz *= slope
        yield dz
        yield dz @ p["W1"].T

    def backward(self, tape, dlogits: np.ndarray):
        """Returns (d_input, param_grads)."""
        deltas = self._deltas(tape, dlogits)
        grads = {}
        for layer in (3, 2, 1):
            dz = next(deltas)
            grads[f"W{layer}"] = tape[layer - 1].T @ dz
            grads[f"b{layer}"] = dz.sum(axis=0)
        return next(deltas), grads

    def backward_inputs(self, tape, dlogits: np.ndarray) -> np.ndarray:
        """The d_input of :meth:`backward`, without the parameter gradients."""
        for dx in self._deltas(tape, dlogits):
            pass  # each layer's dz is dropped once the next one is formed
        return dx


# ---------------------------------------------------------------------------
# segmentation head
# ---------------------------------------------------------------------------

def _voxel_means(values: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row of ``values``, the column means over the rows of its voxel
    (``inverse`` per row, ``counts`` per voxel); symmetric, so its own adjoint."""
    sums = np.column_stack([np.bincount(inverse, weights=column, minlength=len(counts))
                            for column in values.T])
    return (sums / counts[:, None])[inverse]


@dataclass
class SegTape:
    """Activations of one forward pass, consumed by the backward passes."""

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
    radius = 0.5  # voxel edge, m
    hidden = 64

    def __init__(self, n_classes: int):
        self.n_classes = int(n_classes)
        self.mlp = _Mlp(self.N_FEATURES, self.hidden, self.n_classes)

    def init_random(self, seed) -> None:
        self.mlp.init_random(seed)

    def _features(self, cloud: PointCloud):
        keys = _grid_keys(cloud.xyz, self.radius)
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        means = _voxel_means(np.column_stack([cloud.xyz, cloud.intensity]), inverse, counts)

        feats = np.empty((cloud.n, self.N_FEATURES))
        feats[:, 0:3] = (cloud.xyz - means[:, 0:3]) * _REL_SCALE
        feats[:, 3] = cloud.xyz[:, 2] * _Z_SCALE
        feats[:, 4] = cloud.intensity
        feats[:, 5] = np.log1p(counts[inverse]) * _COUNT_SCALE
        feats[:, 6] = means[:, 3]
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
        feats, inverse, counts = self._features(cloud)
        if rows is not None:
            feats = feats[rows]
        logits, mlp_tape = self.mlp.forward(feats)
        return _softmax(logits), SegTape(inverse, counts, mlp_tape, rows)

    def backward_inputs(self, tape: SegTape, dlogits: np.ndarray):
        """Exact gradients w.r.t. (x, y, z) and intensity of the tape's rows.

        ``dlogits`` holds one row per tape row, and so do the returned
        ``(dpos, dtau)``. A point's gradient sums the feature gradients of the
        points of its voxel, so a row-restricted tape must hold whole voxels
        (rows in increasing order): then every term of those sums is a row of
        the tape, and the result is the exact gradient of the loss over the
        tape's rows. Raises ValueError on rows that split a voxel.
        """
        inverse = tape.inverse
        if tape.rows is not None:
            inverse = inverse[tape.rows]
            held = np.bincount(inverse, minlength=len(tape.counts))
            split = (held > 0) & (held != tape.counts)
            if np.any(np.diff(tape.rows) <= 0) or split.any():
                raise ValueError("input gradients need increasing rows that hold "
                                 "whole voxels")
        dfeat = self.mlp.backward_inputs(tape.mlp_tape, dlogits)
        means = _voxel_means(dfeat[:, [0, 1, 2, 6]], inverse, tape.counts)
        dpos = (dfeat[:, 0:3] - means[:, 0:3]) * _REL_SCALE
        dpos[:, 2] += dfeat[:, 3] * _Z_SCALE
        dtau = dfeat[:, 4] + means[:, 3]
        return dpos, dtau

    def predict(self, cloud: PointCloud) -> np.ndarray:
        probs, _ = self.forward(cloud)
        return probs.argmax(axis=1).astype(np.int32)

    def state(self) -> tuple:
        if self.n_classes != len(CLASS_NAMES):  # else no checkpoint could be read back
            raise ValueError(f"a checkpoint holds a segmenter of this build's "
                             f"{len(CLASS_NAMES)} classes, not {self.n_classes}")
        return {"kind": "seg"}, self.mlp.params

    @classmethod
    def from_state(cls, meta: dict, params: dict) -> "SegNetMini":
        model = cls(len(CLASS_NAMES))
        model.mlp.load(params)
        return model


# ---------------------------------------------------------------------------
# detection head
# ---------------------------------------------------------------------------

def _pair_sums(index: np.ndarray, weights, size: int) -> np.ndarray:
    """One ``np.bincount`` of ``index`` per row of ``weights`` -> (rows, size)
    float64, also when empty; each bin adds its weights in input order."""
    return np.array([np.bincount(index, weights=w, minlength=size) for w in weights], dtype=float)


def _neighbor_table(cells: np.ndarray, k: int):
    """The pairs (nonempty cell, in-grid anchor of the cell's 3x3
    neighborhood) of the increasing flat ``cells`` of a k x k grid, in
    increasing cell order -> (anchors, pairs): the pairs' distinct anchors,
    increasing, and per pair its index into ``cells`` and into ``anchors``.
    Summing over ``pairs[1]`` adds each anchor's cells in increasing order."""
    ci, cj = np.divmod(cells[:, None, None], k)
    ai, aj = ci + np.arange(-1, 2)[:, None], cj + np.arange(-1, 2)
    inside = (ai >= 0) & (ai < k) & (aj >= 0) & (aj < k)  # (C, 3, 3), row-major
    anchors, pair_anchor = np.unique((ai * k + aj)[inside], return_inverse=True)
    return anchors, np.stack([np.nonzero(inside)[0], pair_anchor])


@dataclass
class DetTape:
    """One detector pass. The MLP ran once per distinct anchor row: row 0 is
    the shared all-zero row of the empty anchors, rows 1.. the occupied
    anchors in anchor order. ``anchor_row`` maps each anchor to its row of
    ``mlp_tape``; the occupied rows keep their pooled statistics."""

    cloud: PointCloud
    point_cell: np.ndarray     # (n,) flat cell index per point, -1 off-grid
    neighbor_counts: np.ndarray  # (R - 1,) 3x3-neighborhood point count per occupied row
    means: np.ndarray          # (R - 1, 3) neighborhood mean positions per occupied row
    mlp_tape: tuple
    anchor_row: np.ndarray     # (A,) row of mlp_tape per anchor
    cells: np.ndarray          # (C,) nonempty cells, increasing
    pairs: np.ndarray          # (2, P) _neighbor_table: index into cells, row - 1


class DetHeadMini:
    """Single-class detector over a ground-plane anchor grid.

    One axis-aligned anchor per 2 m cell of [-64 m, 64 m) squared at the
    canonical car size. Each anchor pools first and second point moments
    over its 3x3 cell neighborhood, so the receptive field spans a whole
    car; an MLP maps them to a confidence logit and box residuals (center
    offsets, log-size scales, doubled-angle yaw). Intensity is not used by
    this head. A pass pools through its ``_neighbor_table``: the forward sums
    the nonempty cells' moments per anchor, the input gradient the occupied
    anchors' coefficients per cell.

    The MLP runs on the distinct anchor rows alone: row 0, the all-zero
    features of every empty anchor, then one row per occupied anchor. Every
    pass returns and takes one value per row, read per anchor through
    ``DetTape.anchor_row``.

    The grid is built once: ``centers``, their ``bearings`` phi from the
    sensor, and cos/sin of phi and 2 phi (``cos_p``, ``sin_p``, ``cos2``,
    ``sin2``), which rotate into each anchor's view frame. Pooling, targets,
    decoding and the adjoint all read this one table.
    """

    N_FEATURES = 8
    N_OUTPUTS = 9  # score, dx, dy, dz, dlog w, dlog h, dlog l, sin 2a, cos 2a
    GROUND_CLIP = 0.25  # points at or below this height are not pooled
    PROPOSAL_SCORE = 0.1  # confidences at or below this are no proposal
    area = 64.0  # the grid covers [-area, area) in x and y, m
    stride = 2.0  # anchor cell edge, m
    cells_per_axis = round(2 * area / stride)
    n_anchors = cells_per_axis ** 2
    hidden = 32

    def __init__(self):
        self.mlp = _Mlp(self.N_FEATURES, self.hidden, self.N_OUTPUTS)
        ix, iy = np.divmod(np.arange(self.n_anchors), self.cells_per_axis)
        half_height = np.full(self.n_anchors, CANONICAL_CAR_DIMS[1] / 2.0)
        self.centers = np.column_stack([(ix + 0.5) * self.stride - self.area,
                                        (iy + 0.5) * self.stride - self.area, half_height])
        # math, not numpy: np.arctan2, np.cos and np.sin may round differently,
        # and every trained detector depends on this table bit for bit
        bearings = [math.atan2(y, x) for x, y in self.centers[:, :2].tolist()]
        self.bearings = np.array(bearings)
        self.cos_p = np.array([math.cos(phi) for phi in bearings])
        self.sin_p = np.array([math.sin(phi) for phi in bearings])
        self.cos2, self.sin2 = np.cos(2 * self.bearings), np.sin(2 * self.bearings)

    def init_random(self, seed) -> None:
        self.mlp.init_random(seed)
        # confident-negative prior: empty anchors start well under relevance
        self.mlp.params["b3"][0] = -3.0

    def _pool(self, cloud: PointCloud):
        k = self.cells_per_axis
        above = np.flatnonzero(cloud.xyz[:, 2] > self.GROUND_CLIP)  # ground carries no box cue
        i, j = np.floor((cloud.xyz[above, :2] + self.area) / self.stride).astype(np.int64).T
        inside = (i >= 0) & (i < k) & (j >= 0) & (j < k)
        pooled, flat = above[inside], i[inside] * k + j[inside]
        point_cell = np.full(cloud.n, -1, dtype=np.int64)
        point_cell[pooled] = flat

        x, y, z = cloud.xyz[pooled].T
        cells, slot = np.unique(flat, return_inverse=True)
        occupied, pairs = _neighbor_table(cells, k)
        moments = _pair_sums(slot, (np.ones_like(x), x, y, z, x * x, y * y, x * y), len(cells))
        sums = _pair_sums(pairs[1], moments[:, pairs[0]], len(occupied))

        # row 0 is every empty anchor's zero row, rows 1.. the occupied anchors
        anchor_row = np.zeros(k * k, dtype=np.int64)
        anchor_row[occupied] = np.arange(1, len(occupied) + 1)
        n = sums[0]
        means = sums[1:4].T / n[:, None]

        # moments are expressed in each anchor's view frame (x radial from
        # the sensor, y tangential): the offset between a car's visible side
        # and its true center, and its yaw, only make sense relative to the
        # viewing direction
        cos_p, sin_p = self.cos_p[occupied], self.sin_p[occupied]
        cos2, sin2 = self.cos2[occupied], self.sin2[occupied]
        mean_x, mean_y, mean_z = means.T
        off_x = mean_x - self.centers[occupied, 0]
        off_y = mean_y - self.centers[occupied, 1]
        var_x = sums[4] / n - mean_x ** 2
        var_y = sums[5] / n - mean_y ** 2
        cov2 = 2.0 * (sums[6] / n - mean_x * mean_y)
        dvar = var_x - var_y

        feats = np.zeros((len(occupied) + 1, self.N_FEATURES))
        rows = feats[1:]
        rows[:, 0] = np.log1p(n) * _COUNT_SCALE
        rows[:, 1] = cos_p * off_x + sin_p * off_y       # radial offset
        rows[:, 2] = -sin_p * off_x + cos_p * off_y      # tangential offset
        rows[:, 3] = mean_z * _Z_SCALE
        rows[:, 4] = var_x + var_y                        # rotation invariant
        rows[:, 5] = cos2 * dvar + sin2 * cov2            # doubled-angle pair,
        rows[:, 6] = -sin2 * dvar + cos2 * cov2           # view frame
        # own-cell occupancy; an anchor whose cell is empty keeps log1p(0) = 0
        rows[np.searchsorted(occupied, cells), 7] = np.log1p(moments[0]) * _COUNT_SCALE
        return feats, anchor_row, point_cell, n, means, cells, pairs

    def forward(self, cloud: PointCloud):
        """Scores and raw outputs of the distinct anchor rows -> (scores, outputs, tape).

        Anchor a's score and outputs are row ``tape.anchor_row[a]``'s, within
        1e-12 relative of running the MLP on all anchors: BLAS may round a
        product over fewer rows differently.
        """
        feats, anchor_row, point_cell, counts, means, cells, pairs = self._pool(cloud)
        outputs, mlp_tape = self.mlp.forward(feats)
        tape = DetTape(cloud, point_cell, counts, means, mlp_tape, anchor_row, cells, pairs)
        return _sigmoid(outputs[:, 0]), outputs, tape

    def proposals(self, scores: np.ndarray, tape: DetTape) -> np.ndarray:
        """Occupied anchors whose row scores above ``PROPOSAL_SCORE``; the
        empty anchors' zero row scores the prior alone, however high."""
        return np.flatnonzero(tape.anchor_row)[scores[1:] > self.PROPOSAL_SCORE]

    def decode_boxes(self, anchors: np.ndarray, outputs: np.ndarray, tape: DetTape) -> list:
        """OrientedBoxes of ``anchors`` from the view-frame residuals of their rows."""
        anchors = np.asarray(anchors, dtype=np.int64)
        res = outputs[tape.anchor_row[anchors], 1:]
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

    def _cells_within(self, center: float, reach: float) -> np.ndarray:
        """Grid indices along one axis of the cells that meet
        [center - reach, center + reach], clamped to the grid; never empty,
        and always holding the cell nearest to ``center``."""
        last = self.cells_per_axis - 1
        lo, hi = ((center + side + self.area) / self.stride for side in (-reach, reach))
        return np.arange(min(max(math.floor(lo), 0), last),
                         min(max(math.floor(hi), 0), last) + 1)

    def box_targets(self, boxes):
        """Regression targets of ``boxes`` -> (anchors, targets).

        ``anchors`` are the positive anchors, in increasing order. An anchor
        is positive for a box when its center falls inside the box footprint
        or lies less than 2 m from the box center, and the anchor nearest to
        the box center always is (the first in anchor order on a tie).
        ``targets[i]`` holds the regression target of ``anchors[i]`` for the
        output columns 1..8; where boxes share a positive anchor, the later
        box's target wins.

        A positive anchor lies within max(half-diagonal, 2 m) of its box
        center, so each box is tested only against the anchors of the cells
        within that reach. Their tests, and the targets, are the all-anchor
        tests and per-anchor targets bit for bit.
        """
        if not boxes:
            return np.zeros(0, dtype=np.int64), np.zeros((0, self.N_OUTPUTS - 1))
        k, centers = self.cells_per_axis, self.centers
        positives = []
        for box in boxes:
            reach = max(math.hypot(box.length, box.width) / 2.0, 2.0)
            window = (self._cells_within(box.center[0], reach)[:, None] * k
                      + self._cells_within(box.center[1], reach)).ravel()  # anchor order
            offsets = centers[window, :2] - box.center[:2]
            local = offsets @ rot_z(box.yaw)[:2, :2]
            near = np.all(np.abs(local) <= np.array([box.length / 2, box.width / 2]), axis=1)
            dist = np.linalg.norm(offsets, axis=1)
            near |= dist < 2.0
            near[np.argmin(dist)] = True
            positives.append(window[near])
        anchors = np.concatenate(positives)
        owner = np.repeat(np.arange(len(boxes)), [len(p) for p in positives])
        box_centers = np.array([box.center for box in boxes])[owner]
        yaw = np.array([box.yaw for box in boxes])[owner]
        w0, h0, l0 = CANONICAL_CAR_DIMS
        log_sizes = np.array([[math.log(box.width / w0), math.log(box.height / h0),
                               math.log(box.length / l0)] for box in boxes])[owner]

        phi, cos_p, sin_p = self.bearings[anchors], self.cos_p[anchors], self.sin_p[anchors]
        dx = box_centers[:, 0] - centers[anchors, 0]
        dy = box_centers[:, 1] - centers[anchors, 1]
        angle = (2 * (yaw - phi)).tolist()
        targets = np.empty((len(anchors), self.N_OUTPUTS - 1))
        targets[:, 0] = (cos_p * dx + sin_p * dy) / self.stride
        targets[:, 1] = (-sin_p * dx + cos_p * dy) / self.stride
        targets[:, 2] = box_centers[:, 2] - centers[anchors, 2]
        targets[:, 3:6] = log_sizes
        # math, not numpy: np.sin and np.cos may round differently
        targets[:, 6] = [math.sin(a) for a in angle]
        targets[:, 7] = [math.cos(a) for a in angle]

        # the last occurrence of each anchor is its latest box's target
        last = len(anchors) - 1 - np.unique(anchors[::-1], return_index=True)[1]
        return anchors[last], targets[last]

    def loss(self, outputs: np.ndarray, tape: DetTape, boxes) -> tuple:
        """Training loss of one pass's row ``outputs`` against ``boxes``, and
        its gradient in them -> (loss, d_outputs).

        The confidence BCE gives the positive anchors 0.5 of weight in all,
        the occupied (hard) negatives 0.35 and the empty negatives 0.15; the
        regression adds half the mean squared residual of the positives. The
        zero row stands for every empty anchor: with W+ and W- the summed
        weights of its positive and negative anchors, its BCE is
        -W+ log s0 - W- log(1 - s0) and its logit gradient s0 (W+ + W-) - W+.
        """
        anchors, targets = self.box_targets(boxes)
        rows = tape.anchor_row[anchors]  # 0 for an empty positive anchor
        # per row, its positive and negative anchors, then their summed weights
        positive = np.bincount(rows, minlength=len(outputs)).astype(float)
        negative = 1.0 - positive
        negative[0] = self.n_anchors - (len(outputs) - 1) - positive[0]
        positive *= 0.5 / max(len(anchors), 1)
        negative[1:] *= 0.35 / max(negative[1:].sum(), 1.0)
        negative[0] *= 0.15 / max(negative[0], 1.0)

        scores = _sigmoid(outputs[:, 0])
        d_outputs = np.zeros_like(outputs)
        d_outputs[:, 0] = positive * (scores - 1.0) + negative * scores
        loss = -float((positive * np.log(np.maximum(scores, 1e-12))
                       + negative * np.log(np.maximum(1.0 - scores, 1e-12))).sum())
        if len(anchors):
            diff = outputs[rows, 1:] - targets
            loss += float(0.5 * (diff * diff).sum() / len(anchors))
            np.add.at(d_outputs[:, 1:], rows, diff / len(anchors))
        return loss, d_outputs

    def backward_inputs(self, tape: DetTape, d_outputs: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. point positions of one output gradient per row of
        the tape; the detector ignores intensity.

        The zero row pools no point, and an all-zero ``d_outputs`` gives exact
        zeros. The result is within 1e-12 relative of the all-anchor
        backward: BLAS may round a product over fewer rows differently.
        """
        dfeat = self.mlp.backward_inputs(tape.mlp_tape, d_outputs)
        return self._pool_adjoint(tape, dfeat[1:])

    def _pool_adjoint(self, tape: DetTape, dfeat: np.ndarray) -> np.ndarray:
        """Point-position gradient of the occupied rows' feature gradients ``dfeat``.

        Under one anchor, a pooled point's gradient is affine in its (x, y).
        An anchor's neighborhood holds a cell exactly when the cell's
        neighborhood holds the anchor; so the neighbor table, read backwards,
        sums each nonempty cell's coefficients over its anchors, and each
        pooled point takes its cell's.
        """
        occupied = np.flatnonzero(tape.anchor_row)
        # undo the per-anchor view rotation of offsets and moments
        cos_p, sin_p = self.cos_p[occupied], self.sin_p[occupied]
        cos2, sin2 = self.cos2[occupied], self.sin2[occupied]
        d_off_x = cos_p * dfeat[:, 1] - sin_p * dfeat[:, 2]
        d_off_y = sin_p * dfeat[:, 1] + cos_p * dfeat[:, 2]
        d_dvar = cos2 * dfeat[:, 5] - sin2 * dfeat[:, 6]
        d_cov2 = sin2 * dfeat[:, 5] + cos2 * dfeat[:, 6]
        # d var_x / d x = 2 (x - mean x) / count, and alike for var_y and cov2
        xx = 2.0 * (dfeat[:, 4] + d_dvar)
        yy = 2.0 * (dfeat[:, 4] - d_dvar)
        xy = 2.0 * d_cov2
        mean_x, mean_y = tape.means[:, 0], tape.means[:, 1]
        coefficients = np.stack([d_off_x - xx * mean_x - xy * mean_y,
                                 d_off_y - yy * mean_y - xy * mean_x,
                                 dfeat[:, 3] * _Z_SCALE, xx, yy, xy])
        coefficients *= 1.0 / tape.neighbor_counts
        pairs, pooled = tape.pairs, tape.point_cell >= 0
        per_cell = _pair_sums(pairs[0], coefficients[:, pairs[1]], len(tape.cells))
        slot = np.searchsorted(tape.cells, tape.point_cell[pooled])
        gx, gy, gz, gxx, gyy, gxy = per_cell[:, slot]
        x, y = tape.cloud.xyz[pooled, 0], tape.cloud.xyz[pooled, 1]
        dpos = np.zeros((tape.cloud.n, 3))
        dpos[pooled] = np.column_stack([gx + gxx * x + gxy * y, gy + gyy * y + gxy * x, gz])
        return dpos

    def state(self) -> tuple:
        return {"kind": "det"}, self.mlp.params

    @classmethod
    def from_state(cls, meta: dict, params: dict) -> "DetHeadMini":
        model = cls()
        model.mlp.load(params)
        return model


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class Adam:
    """Plain Adam over a dict of arrays; each key counts its own steps."""

    BETAS, EPS = (0.9, 0.999), 1e-8

    def __init__(self, lr: float):
        self.lr = float(lr)
        self.m, self.v, self.t = {}, {}, {}

    def step(self, params: dict, grads: dict) -> None:
        b1, b2 = self.BETAS
        for key, grad in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(params[key])
                self.v[key] = np.zeros_like(params[key])
            t = self.t[key] = self.t.get(key, 0) + 1
            self.m[key] = b1 * self.m[key] + (1 - b1) * grad
            self.v[key] = b2 * self.v[key] + (1 - b2) * grad * grad
            m_hat = self.m[key] / (1 - b1 ** t)
            v_hat = self.v[key] / (1 - b2 ** t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


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

    Returns the moved cloud, with arrays of its own, and ``boxes`` moved by
    the same draw. The rng draws the angle first, then the flip.
    """
    angle = rng.uniform(-math.pi, math.pi)
    flip = rng.random() < 0.5
    rotation = rot_z(angle)
    xyz = cloud.xyz @ rotation.T
    if flip:
        xyz[:, 1] *= -1.0
    out = PointCloud(xyz, cloud.intensity.copy(), cloud.semantic.copy(), cloud.instance.copy())
    moved = []
    for box in boxes:
        center = rotation @ box.center
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
    ``(loss, mlp_tape, dlogits)``, with one ``dlogits`` row per row of the
    MLP tape, or None to skip the scene. Raises RuntimeError on a non-finite
    loss.
    """
    model.init_random(np.random.SeedSequence([int(seed), streams[0]]))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), streams[1]]))
    optim = Adam(lr)
    order = np.arange(len(scenes))
    for epoch in range(epochs):
        # step decay settles the per-scene Adam updates near the end
        optim.lr = lr * (0.25 if epoch >= (3 * epochs) // 4 else 1.0)
        rng.shuffle(order)
        for scene_idx in order:
            cloud = scenes[scene_idx]
            if hook is not None:
                cloud = hook(int(scene_idx), cloud)
            cloud, boxes = standard_augment(cloud, boxes_per_scene[scene_idx], rng)
            scored = step(cloud, boxes, rng)
            if scored is None:
                continue
            loss, mlp_tape, dlogits = scored
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, scene {scene_idx}"
                )
            _, grads = model.mlp.backward(mlp_tape, dlogits)
            optim.step(model.mlp.params, grads)
    return model


# points train_seg samples, class-balanced, per scene step
SEG_POINTS_PER_SCENE = 1536


def train_seg(scenes, n_classes: int, epochs: int, lr: float, seed,
              hook=None) -> SegNetMini:
    """Train a SegNetMini with Adam on weighted cross-entropy.

    ``scenes`` is a list of labeled PointClouds. ``hook(index, cloud)`` may
    return a replacement cloud and runs before the standard global
    augmentation, once per scene per epoch, drawing nothing from the
    trainer's streams. Deterministic for a fixed seed. Raises RuntimeError
    on non-finite loss.
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
            rows = rng.choice(n, size=SEG_POINTS_PER_SCENE, replace=False, p=p / p.sum())
        else:
            rows = np.arange(n)
        probs, tape = model.forward(cloud, rows=rows)
        labels = cloud.semantic[rows]
        w = np.sqrt(weights[labels])
        denom = w.sum()
        picked = probs[np.arange(len(rows)), labels]
        loss = float(-(w * np.log(np.maximum(picked, 1e-12))).sum() / denom)
        dlogits = probs.copy()
        dlogits[np.arange(len(rows)), labels] -= 1.0
        dlogits *= (w / denom)[:, None]
        return loss, tape.mlp_tape, dlogits

    return _train(model, (1, 2), scenes, [()] * len(scenes), epochs, lr, seed, hook, step)


def train_det(scenes, boxes_per_scene, epochs: int, lr: float, seed,
              hook=None) -> DetHeadMini:
    """Train the detector on (cloud, car boxes) pairs.

    ``boxes_per_scene[i]`` lists the ground-truth OrientedBox targets of
    scene i. Each step takes :meth:`DetHeadMini.loss` over the pass's
    distinct rows, within 1e-10 relative, in the trained parameters, of the
    same loss taken anchor by anchor. ``hook`` works as in
    :func:`train_seg`; it moves points, never boxes.
    """
    model = DetHeadMini()

    def step(cloud, boxes, _):
        _, outputs, tape = model.forward(cloud)
        loss, d_outputs = model.loss(outputs, tape, boxes)
        return loss, tape.mlp_tape, d_outputs

    return _train(model, (3, 4), scenes, boxes_per_scene, epochs, lr, seed, hook, step)


# ---------------------------------------------------------------------------
# checkpoints: the versioned array format of cloudio, with the head's state()
# meta (``kind``) as header and one array per MLP parameter
# ---------------------------------------------------------------------------

_HEADS = {"seg": SegNetMini, "det": DetHeadMini}


def save_checkpoint(model, path) -> None:
    meta, params = model.state()
    write_arrays(path, CKPT_MAGIC, CKPT_VERSION, meta, params)


def load_checkpoint(path):
    meta, params = read_arrays(path, CKPT_MAGIC, CKPT_VERSION)
    try:
        if meta["kind"] not in _HEADS:
            raise ValueError(f"unknown checkpoint kind {meta['kind']!r}, "
                             f"expected one of {sorted(_HEADS)}")
        return _HEADS[meta["kind"]].from_state(meta, params)
    except KeyError as err:
        raise FormatError(f"{path}: missing header key {err}") from err
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
