"""The standard global augmentation, the shared trainer loop, the detector's
fixed anchor grid (box decoding and the proposal rule), each head's one
aggregation operator against a scatter oracle, the in-place MLP passes and
input gradients against their expression-form oracles, the detector's
distinct-row passes and training against the MLP run on every anchor, its
windowed training targets against the per-anchor loop over every anchor, the
segmenter's whole-cloud passes and row-keyed features against its passes
over rows, its softmax against the expression form, and the detector's
training on clipped clouds against the whole."""

import math
from collections import Counter

import numpy as np
import pytest

from advfield import simulator
from advfield.cloudio import PointCloud
from advfield.geometry import OrientedBox, box_contains_many, rot_z
from advfield.simulator import CANONICAL_CAR_DIMS
from advfield.evaluate import deform_all_objects
from advfield.field import make_bank
from advfield.victim import (_COUNT_SCALE, _REL_SCALE, _Z_SCALE, PREDICT_BLOCK,
                             SEG_POINTS_PER_SCENE, DetHeadMini, DetTape, SegNetMini, _Mlp,
                             _grid_keys, _neighbor_table, _pair_sums, _softmax, _train,
                             standard_augment, train_det, train_seg)
from anchor_fold import fold_onto_rows


def test_boxes_move_with_their_points():
    rng = np.random.default_rng(5)
    cloud = PointCloud.unlabeled(rng.uniform(-12.0, 12.0, size=(4000, 3)),
                                 rng.uniform(0.0, 1.0, size=4000))
    boxes = [OrientedBox(rng.uniform(-8.0, 8.0, size=3), *rng.uniform(1.0, 5.0, size=3),
                         rng.uniform(-math.pi, math.pi)) for _ in range(5)]
    flips = set()
    for seed in range(8):
        moved, moved_boxes = standard_augment(cloud, boxes, np.random.default_rng(seed))
        # the same draw order as standard_augment: angle, then flip
        replay = np.random.default_rng(seed)
        replay.uniform(-math.pi, math.pi)
        flips.add(bool(replay.random() < 0.5))
        assert len(moved_boxes) == len(boxes)
        for box, moved_box in zip(boxes, moved_boxes):
            before = box_contains_many(box, cloud.xyz)
            assert before.any()
            assert np.array_equal(box_contains_many(moved_box, moved.xyz), before)
    assert flips == {False, True}


def test_no_boxes_moves_only_the_cloud():
    cloud = PointCloud.unlabeled([[1.0, 2.0, 0.5]], [0.3])
    moved, boxes = standard_augment(cloud, (), np.random.default_rng(0))
    assert boxes == []
    assert math.isclose(np.linalg.norm(moved.xyz[0, :2]), math.hypot(1.0, 2.0))
    assert moved.xyz[0, 2] == 0.5
    # the moved cloud shares no array with the input
    for name in ("xyz", "intensity", "semantic", "instance"):
        assert not np.shares_memory(getattr(moved, name), getattr(cloud, name)), name


def tiny_scenes(count=3):
    """``count`` clouds of one car on scattered ground, with the car boxes."""
    rng = np.random.default_rng(4)
    clouds, boxes = [], []
    for _ in range(count):
        box = OrientedBox(np.array([rng.uniform(5.0, 15.0), rng.uniform(-5.0, 5.0), 0.8]),
                          1.8, 1.6, 4.6, rng.uniform(-math.pi, math.pi))
        car = box.to_world((rng.random((80, 3)) - 0.5) * 0.9 * [4.6, 1.8, 1.6])
        ground = np.column_stack([rng.uniform(-20.0, 20.0, (200, 2)), np.zeros(200)])
        clouds.append(PointCloud(np.vstack([car, ground]), rng.uniform(0.0, 1.0, 280),
                                 [1] * 80 + [0] * 200, [1] * 80 + [0] * 200))
        boxes.append([box])
    return clouds, boxes


def train(kind, clouds, boxes, hook):
    if kind == "seg":
        return train_seg(clouds, 5, epochs=2, lr=0.01, seed=7, hook=hook)
    return train_det(clouds, boxes, epochs=2, lr=0.01, seed=7, hook=hook)


@pytest.mark.parametrize("kind", ["seg", "det"])
def test_trainers_are_deterministic_and_hook_each_scene_once_per_epoch(kind):
    clouds, boxes = tiny_scenes()
    calls = []

    def hook(index, cloud):
        assert cloud is clouds[index]  # the hook sees the scene's own cloud
        calls.append(index)
        return cloud

    first = train(kind, clouds, boxes, hook)
    assert Counter(calls) == {0: 2, 1: 2, 2: 2}
    second = train(kind, clouds, boxes, None)
    assert first.mlp.params.keys() == second.mlp.params.keys()
    for name, value in first.mlp.params.items():
        assert np.array_equal(value, second.mlp.params[name]), name


def test_train_seg_draws_a_class_balanced_subsample_of_a_large_cloud(monkeypatch):
    # two clouds of twice the per-step budget; class 1 holds 50 points of each
    rng = np.random.default_rng(9)
    n, rare = 2 * SEG_POINTS_PER_SCENE, 50
    labels = [1] * rare + [0] * (n - rare)
    clouds = [PointCloud(rng.uniform(-20.0, 20.0, (n, 3)), rng.uniform(0.0, 1.0, n),
                         labels, np.zeros(n)) for _ in range(2)]
    steps = []
    forward = SegNetMini.forward

    def recording(self, cloud, rows=None):
        steps.append((cloud.semantic, rows))
        return forward(self, cloud, rows)

    monkeypatch.setattr(SegNetMini, "forward", recording)
    first = train_seg(clouds, 5, epochs=2, lr=0.01, seed=7)
    second = train_seg(clouds, 5, epochs=2, lr=0.01, seed=7)
    assert len(steps) == 2 * 2 * 2  # runs x epochs x clouds
    for semantic, rows in steps:
        assert len(np.unique(rows)) == len(rows) == SEG_POINTS_PER_SCENE
        # a uniform draw would give class 1 about its cloud share, 50 / n
        assert np.mean(semantic[rows] == 1) > 1.5 * rare / n
    for name, value in first.mlp.params.items():
        assert value.tobytes() == second.mlp.params[name].tobytes(), name


def test_seeds_equal_in_their_low_32_bits_train_different_parameters():
    clouds = tiny_scenes(1)[0]
    first, second = (train_seg(clouds, 5, epochs=1, lr=0.01, seed=seed) for seed in (0, 2 ** 32))
    for name, value in first.mlp.params.items():
        assert not np.array_equal(value, second.mlp.params[name]), name


@pytest.mark.parametrize("scenes", [0, 3])
def test_train_seg_skips_an_empty_cloud(scenes):
    # without the skip, the empty cloud's loss would be 0 / 0
    clouds = tiny_scenes(scenes)[0] + [PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0))]
    model = train_seg(clouds, 5, epochs=2, lr=0.01, seed=7)
    for name, value in model.mlp.params.items():
        assert np.all(np.isfinite(value)), name


def test_predict_on_an_empty_cloud_is_an_empty_int32_array():
    model = SegNetMini(5)
    model.init_random(0)
    pred = model.predict(PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0)))
    assert pred.dtype == np.int32 and pred.shape == (0,)


@pytest.mark.parametrize("kind", ["seg", "det"])
def test_trainers_refuse_a_non_finite_loss(kind):
    clouds, boxes = tiny_scenes()
    # an infinite step size wrecks the parameters on the first Adam step
    with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
        if kind == "seg":
            train_seg(clouds, 5, epochs=2, lr=math.inf, seed=7)
        else:
            train_det(clouds, boxes, epochs=2, lr=math.inf, seed=7)
    assert str(err.value) == "non-finite training loss at epoch 0, scene 1"


def test_decoding_a_subset_matches_the_full_grid():
    model = DetHeadMini()
    model.init_random(0)
    _, _, tape = model.forward(cloud_without_empty_anchors(model))
    outputs = np.random.default_rng(8).normal(size=(model.n_anchors + 1,
                                                    DetHeadMini.N_OUTPUTS))
    every = model.decode_boxes(np.arange(model.n_anchors), outputs, tape)
    subset = np.array([4095, 7, 2080, 7, 0, 1234])
    for anchor, box in zip(subset, model.decode_boxes(subset, outputs, tape)):
        ref = every[anchor]
        assert np.array_equal(box.center, ref.center)
        assert (box.width, box.height, box.length, box.yaw) == (
            ref.width, ref.height, ref.length, ref.yaw)


def test_zero_residuals_decode_to_the_canonical_car_facing_along_the_bearing():
    model = DetHeadMini()
    model.init_random(0)
    _, outputs, tape = model.forward(cloud_without_empty_anchors(model))
    anchors = np.array([0, 63, 2080, 4032, 4095])
    boxes = model.decode_boxes(anchors, np.zeros_like(outputs), tape)
    for anchor, box in zip(anchors, boxes):
        ix, iy = divmod(int(anchor), model.cells_per_axis)
        center = [(ix + 0.5) * model.stride - model.area,
                  (iy + 0.5) * model.stride - model.area, CANONICAL_CAR_DIMS[1] / 2.0]
        assert np.array_equal(box.center, center)
        assert (box.width, box.height, box.length) == CANONICAL_CAR_DIMS
        assert box.yaw == model.bearings[anchor]
        assert math.isclose(box.yaw, math.atan2(center[1], center[0]), abs_tol=1e-15)


def test_proposals_leave_out_empty_anchors_however_high_they_score():
    model = DetHeadMini()
    model.init_random(0)
    model.mlp.params["b3"][0] = 10.0
    points = [[10.5, 10.5, 1.0], [-20.3, 5.1, 0.8], [30.0, -30.0, 0.1]]  # last: ground
    scores, _, tape = model.forward(PointCloud.unlabeled(points, [0.5] * 3))
    assert np.all(scores > DetHeadMini.PROPOSAL_SCORE)
    k = model.cells_per_axis
    occupied = set()
    for x, y, _ in points[:2]:
        ix, iy = int((x + model.area) // model.stride), int((y + model.area) // model.stride)
        occupied |= {(ix + di) * k + iy + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)}
    assert model.proposals(scores, tape).tolist() == sorted(occupied)


# ---------------------------------------------------------------------------
# one aggregation operator per head, against the scatters it replaced
# ---------------------------------------------------------------------------

DESK_SENSOR = simulator.SensorSpec(channels=20, elevation_min=math.radians(-15.0),
                                   elevation_max=math.radians(4.0),
                                   azimuth_resolution=math.radians(0.7))


@pytest.fixture(scope="module")
def desk_clouds():
    return [simulator.generate_scene(seed, domain, None, DESK_SENSOR).cloud
            for seed, domain in ((0, "normal"), (1, "rare"), (2, "damaged"))]


def scatter_box_sum(grid, k):
    """3x3 neighborhood sums of one (K, K) grid: from 0.0, each cell adds its
    neighbor cells in increasing flat order."""
    padded = np.pad(grid, 1)
    sums = np.zeros((k, k))
    for di in range(3):
        for dj in range(3):
            sums += padded[di:di + k, dj:dj + k]
    return sums


def loop_neighbor_table(model, point_cell):
    """The neighbor table, cell by cell and neighbor by neighbor -> (cells,
    pairs), as ``_neighbor_table`` gives them."""
    k = model.cells_per_axis
    cells = sorted(set(point_cell[point_cell >= 0].tolist()))
    pairs = [(slot, ai * k + aj) for slot, cell in enumerate(cells)
             for ai in range(cell // k - 1, cell // k + 2)
             for aj in range(cell % k - 1, cell % k + 2) if 0 <= ai < k and 0 <= aj < k]
    row = {anchor: r for r, anchor in enumerate(sorted({anchor for _, anchor in pairs}))}
    pairs = [(slot, row[anchor]) for slot, anchor in pairs]
    return np.array(cells, dtype=np.int64), np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def scatter_pool(model, cloud):
    """The detector's features, moment by moment through np.add.at -> (feats,
    point_cell, count, means, cells, pairs); the last two from the loop."""
    k = model.cells_per_axis
    ij = np.floor((cloud.xyz[:, :2] + model.area) / model.stride).astype(np.int64)
    valid = np.all((ij >= 0) & (ij < k), axis=1) & (cloud.xyz[:, 2] > model.GROUND_CLIP)
    point_cell = np.where(valid, ij[:, 0] * k + ij[:, 1], -1)
    rows = np.flatnonzero(valid)
    x, y, z = cloud.xyz[rows, 0], cloud.xyz[rows, 1], cloud.xyz[rows, 2]
    moments = np.zeros((7, k * k))
    for channel, values in enumerate((np.ones_like(x), x, y, z, x * x, y * y, x * y)):
        np.add.at(moments[channel], point_cell[rows], values)
    sums = np.stack([scatter_box_sum(m.reshape(k, k), k).ravel() for m in moments])
    count = sums[0]
    safe = np.maximum(count, 1.0)
    means = sums[1:4].T / safe[:, None]
    off_x = means[:, 0] - model.centers[:, 0]
    off_y = means[:, 1] - model.centers[:, 1]
    var_x = sums[4] / safe - means[:, 0] ** 2
    var_y = sums[5] / safe - means[:, 1] ** 2
    cov2 = 2.0 * (sums[6] / safe - means[:, 0] * means[:, 1])
    dvar = var_x - var_y
    feats = np.zeros((k * k, model.N_FEATURES))
    feats[:, 0] = np.log1p(count) * _COUNT_SCALE
    feats[:, 1] = model.cos_p * off_x + model.sin_p * off_y
    feats[:, 2] = -model.sin_p * off_x + model.cos_p * off_y
    feats[:, 3] = means[:, 2] * _Z_SCALE
    feats[:, 4] = var_x + var_y
    feats[:, 5] = model.cos2 * dvar + model.sin2 * cov2
    feats[:, 6] = -model.sin2 * dvar + model.cos2 * cov2
    own = np.zeros(k * k)
    np.add.at(own, point_cell[rows], 1.0)
    feats[:, 7] = np.log1p(own) * _COUNT_SCALE
    feats[count == 0] = 0.0
    return (feats, point_cell, count, means) + loop_neighbor_table(model, point_cell)


def all_row_forward(model, cloud):
    """The detector's forward with the MLP on every anchor's row of the
    scatter features -> (scores, outputs, tape); its ``anchor_row`` is the
    identity, and its table that of the loop, over the occupied anchors."""
    feats, point_cell, count, means, cells, pairs = scatter_pool(model, cloud)
    outputs, mlp_tape = model.mlp.forward(feats)
    tape = DetTape(cloud, point_cell, count, means, mlp_tape, np.arange(model.n_anchors),
                   cells, pairs)
    return 1.0 / (1.0 + np.exp(-outputs[:, 0])), outputs, tape


def neighborhood_loop_gradient(model, tape, d_outputs):
    """The detector's input gradient, one 3x3 neighbor offset at a time,
    from the all-row tape of :func:`all_row_forward`."""
    dpos = np.zeros((tape.cloud.n, 3))
    dfeat, _ = model.mlp.backward(tape.mlp_tape, d_outputs)
    k = model.cells_per_axis
    rows = np.flatnonzero(tape.point_cell >= 0)
    ci, cj = np.divmod(tape.point_cell[rows], k)
    x, y = tape.cloud.xyz[rows, 0], tape.cloud.xyz[rows, 1]
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ai, aj = ci + di, cj + dj
            ok = (ai >= 0) & (ai < k) & (aj >= 0) & (aj < k)
            a = ai[ok] * k + aj[ok]
            inv = 1.0 / np.maximum(tape.neighbor_counts[a], 1.0)
            d_off_x = model.cos_p[a] * dfeat[a, 1] - model.sin_p[a] * dfeat[a, 2]
            d_off_y = model.sin_p[a] * dfeat[a, 1] + model.cos_p[a] * dfeat[a, 2]
            d_dvar = model.cos2[a] * dfeat[a, 5] - model.sin2[a] * dfeat[a, 6]
            d_cov2 = model.sin2[a] * dfeat[a, 5] + model.cos2[a] * dfeat[a, 6]
            cx = 2.0 * (x[ok] - tape.means[a, 0])
            cy = 2.0 * (y[ok] - tape.means[a, 1])
            gx = d_off_x + (dfeat[a, 4] + d_dvar) * cx + d_cov2 * cy
            gy = d_off_y + (dfeat[a, 4] - d_dvar) * cy + d_cov2 * cx
            np.add.at(dpos[:, 0], rows[ok], gx * inv)
            np.add.at(dpos[:, 1], rows[ok], gy * inv)
            np.add.at(dpos[:, 2], rows[ok], dfeat[a, 3] * _Z_SCALE * inv)
    return dpos


def test_the_detector_pools_what_the_scatter_oracle_pools(desk_clouds):
    model = DetHeadMini()
    for cloud in desk_clouds + [PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0))]:
        feats, anchor_row, *rest = model._pool(cloud)
        want_feats, want_point_cell, want_counts, want_means, *table = scatter_pool(model, cloud)
        # row 0 is the empty anchors' zero row, then one row per occupied anchor
        occupied = np.flatnonzero(want_counts > 0)
        assert np.array_equal(anchor_row[occupied], np.arange(1, len(occupied) + 1))
        assert len(feats) == len(occupied) + 1 and np.all(feats[0] == 0.0)
        assert feats[anchor_row].tobytes() == want_feats.tobytes()
        # the tape keeps the neighborhood statistics of the occupied rows
        # and the neighbor table
        want = (want_point_cell, want_counts[occupied], want_means[occupied], *table)
        assert len(rest) == len(want)
        for got, want in zip(rest, want):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_the_detector_input_gradient_matches_the_neighborhood_loop(desk_clouds):
    model = DetHeadMini()
    model.init_random(2)
    for seed, cloud in enumerate(desk_clouds):
        _, _, tape = model.forward(cloud)
        assert (tape.point_cell >= 0).sum() > 100
        d_outputs = np.random.default_rng(seed).normal(size=(model.n_anchors,
                                                             DetHeadMini.N_OUTPUTS))
        got = model.backward_inputs(tape, fold_onto_rows(tape, d_outputs))
        want = neighborhood_loop_gradient(model, all_row_forward(model, cloud)[2], d_outputs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())
        assert np.all(got[tape.point_cell < 0] == 0.0)


def test_the_neighbor_table_sums_are_adjoint_and_match_the_direct_sums():
    model = DetHeadMini()
    k = model.cells_per_axis
    rng = np.random.default_rng(11)
    for _ in range(5):
        nonempty = rng.random((k, k)) < 0.05
        # the border and corner cells, whose neighborhoods leave the grid
        for edge in (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1]):
            nonempty[edge] = True
        cells = np.flatnonzero(nonempty)
        anchors, pairs = _neighbor_table(cells, k)
        want_cells, want_pairs = loop_neighbor_table(model, cells)
        assert np.array_equal(cells, want_cells) and np.array_equal(pairs, want_pairs)
        moments = rng.normal(size=(7, len(cells)))
        coefficients = rng.normal(size=(7, len(anchors)))
        scattered = _pair_sums(pairs[1], moments[:, pairs[0]], len(anchors))
        gathered = _pair_sums(pairs[0], coefficients[:, pairs[1]], len(cells))
        np.testing.assert_allclose(np.sum(scattered * coefficients, axis=1),
                                   np.sum(moments * gathered, axis=1), rtol=1e-12)
        # both sums add their terms in increasing cell or anchor order, as
        # the direct sums over the dense grid do
        for values, got, at, read in ((moments, scattered, cells, anchors),
                                      (coefficients, gathered, anchors, cells)):
            grids = np.zeros((7, k * k))
            grids[:, at] = values
            want = np.stack([scatter_box_sum(grid.reshape(k, k), k).ravel() for grid in grids])
            assert got.tobytes() == want[:, read].tobytes()


def test_the_detector_passes_an_empty_an_all_ground_and_a_corner_cloud():
    model = DetHeadMini()
    model.init_random(2)
    model.mlp.params["b3"][0] = 0.0
    low, high = -model.area + 0.5, model.area - 0.5
    corners = [[low, low, 1.0], [low, high, 1.0], [high, low, 1.0], [high, high, 1.0]]
    ground = [[3.0, 1.0, 0.0], [-5.0, 3.0, model.GROUND_CLIP]]
    off_grid = [[model.area, 0.0, 1.0], [0.0, -model.area - 0.5, 1.0], [90.0, 90.0, 2.0]]
    # each corner cell's neighborhood holds 4 anchors
    for points, n_occupied in (([], 0), (ground, 0), (corners + ground + off_grid, 16)):
        cloud = PointCloud.unlabeled(np.reshape(points, (-1, 3)), np.full(len(points), 0.5))
        scores, outputs, tape = model.forward(cloud)
        assert len(scores) == len(outputs) == n_occupied + 1
        assert np.count_nonzero(tape.anchor_row) == n_occupied
        assert tape.neighbor_counts.shape == (n_occupied,)
        assert tape.means.shape == (n_occupied, 3)
        for array in (scores, outputs, tape.neighbor_counts, tape.means, *tape.mlp_tape):
            assert array.dtype == np.float64
        assert np.all(tape.mlp_tape[0][0] == 0.0)  # the empty anchors' zero row
        assert tape.cells.dtype == tape.pairs.dtype == np.int64
        want_scores, want_outputs, oracle = all_row_forward(model, cloud)
        assert_within(scores[tape.anchor_row], want_scores, 1e-12)
        assert_within(outputs[tape.anchor_row], want_outputs, 1e-12)
        d_outputs = np.random.default_rng(3).normal(size=(model.n_anchors, model.N_OUTPUTS))
        dpos = model.backward_inputs(tape, fold_onto_rows(tape, d_outputs))
        assert dpos.dtype == np.float64 and dpos.shape == (cloud.n, 3)
        assert np.all(dpos[tape.point_cell < 0] == 0.0)
        assert_within(dpos, all_anchor_gradient(model, oracle, d_outputs), 1e-12)
        assert np.count_nonzero(np.any(dpos != 0.0, axis=1)) == min(n_occupied, 4)


def two_pass_variance_features(model, cloud):
    """The pooled variance features (columns 4-6) of every occupied anchor,
    in long double: the neighborhood means first, then the mean squared
    deviations from them -> (occupied anchors, (R - 1, 3) features)."""
    k, ld = model.cells_per_axis, np.longdouble
    ij = np.floor((cloud.xyz[:, :2] + model.area) / model.stride).astype(np.int64)
    pooled = np.flatnonzero(np.all((ij >= 0) & (ij < k), axis=1)
                            & (cloud.xyz[:, 2] > model.GROUND_CLIP))
    points, anchors = [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ai, aj = ij[pooled, 0] + di, ij[pooled, 1] + dj
            inside = (ai >= 0) & (ai < k) & (aj >= 0) & (aj < k)
            points.append(pooled[inside])
            anchors.append(ai[inside] * k + aj[inside])
    points = np.concatenate(points)
    occupied, row = np.unique(np.concatenate(anchors), return_inverse=True)

    def mean(values):
        sums = np.zeros(len(occupied), dtype=ld)
        np.add.at(sums, row, values)
        return sums / np.bincount(row).astype(ld)

    x, y = cloud.xyz[points, 0].astype(ld), cloud.xyz[points, 1].astype(ld)
    dx, dy = x - mean(x)[row], y - mean(y)[row]
    var_x, var_y, cov2 = mean(dx * dx), mean(dy * dy), 2 * mean(dx * dy)
    cos2, sin2 = model.cos2[occupied].astype(ld), model.sin2[occupied].astype(ld)
    dvar = var_x - var_y
    return occupied, np.column_stack([var_x + var_y, cos2 * dvar + sin2 * cov2,
                                      -sin2 * dvar + cos2 * cov2])


# the desk clouds' worst error is 6.4e-13 with direct neighborhood sums;
# prefix sums over the whole grid (integral images) reach 1.2e-11
VARIANCE_FEATURE_ERROR = 2e-12


def test_the_pooled_variance_features_are_within_2e12_of_a_two_pass_oracle(desk_clouds):
    model = DetHeadMini()
    for cloud in desk_clouds:
        feats, anchor_row, *_ = model._pool(cloud)
        occupied, want = two_pass_variance_features(model, cloud)
        assert np.array_equal(np.flatnonzero(anchor_row), occupied)
        error = np.abs(feats[1:, 4:7].astype(np.longdouble) - want)
        assert error.max() <= VARIANCE_FEATURE_ERROR


def scatter_voxel_features(model, cloud):
    """The segmenter's features, voxel sums through np.add.at."""
    keys = np.floor(cloud.xyz / model.radius).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, cloud.xyz)
    tau_sums = np.zeros(len(counts))
    np.add.at(tau_sums, inverse, cloud.intensity)
    feats = np.empty((cloud.n, model.N_FEATURES))
    feats[:, 0:3] = (cloud.xyz - (sums / counts[:, None])[inverse]) * _REL_SCALE
    feats[:, 3] = cloud.xyz[:, 2] * _Z_SCALE
    feats[:, 4] = cloud.intensity
    feats[:, 5] = np.log1p(counts[inverse]) * _COUNT_SCALE
    feats[:, 6] = (tau_sums / counts)[inverse]
    return feats


def scatter_voxel_gradient(model, tape, dlogits):
    """The segmenter's input gradient, voxel sums through np.add.at."""
    inverse = tape.inverse  # the voxel of each tape row
    dfeat, _ = model.mlp.backward(tape.mlp_tape, dlogits)
    rel_sums = np.zeros((len(tape.counts), 3))
    np.add.at(rel_sums, inverse, dfeat[:, 0:3])
    dpos = (dfeat[:, 0:3] - (rel_sums / tape.counts[:, None])[inverse]) * _REL_SCALE
    dpos[:, 2] += dfeat[:, 3] * _Z_SCALE
    tau_sums = np.zeros(len(tape.counts))
    np.add.at(tau_sums, inverse, dfeat[:, 6])
    return dpos, dfeat[:, 4] + (tau_sums / tape.counts)[inverse]


def test_the_segmenter_matches_the_scatter_oracle_on_full_and_touched_tapes(desk_clouds):
    model = SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(6)
    for seed, cloud in enumerate(desk_clouds):
        rng = np.random.default_rng(seed)
        feats, _, _ = model._features(cloud)
        assert feats.tobytes() == scatter_voxel_features(model, cloud).tobytes()
        moved = rng.choice(cloud.n, size=20, replace=False)
        after = cloud.copy()
        after.xyz[moved] += rng.uniform(-0.3, 0.3, size=(20, 3))
        touched = model.touched_rows(cloud, after, moved)
        assert 20 <= len(touched) < cloud.n
        for rows in (np.arange(after.n), touched):
            probs, tape = model.forward(after, rows=rows)
            dlogits = rng.normal(size=probs.shape)
            got = model.backward_inputs(tape, dlogits)
            want = scatter_voxel_gradient(model, tape, dlogits)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def test_segmenter_input_gradients_of_an_empty_cloud_are_empty():
    model = SegNetMini(5)
    model.init_random(0)
    cloud = PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0))
    probs, tape = model.forward(cloud)
    assert probs.shape == (0, 5) and tape is None
    probs, tape = model.forward(cloud, np.arange(0))
    assert probs.shape == (0, 5)
    dpos, dtau = model.backward_inputs(tape, np.zeros((0, 5)))
    assert dpos.shape == (0, 3) and dtau.shape == (0,)


# ---------------------------------------------------------------------------
# the whole-cloud passes and the row-keyed features against passes over rows
# ---------------------------------------------------------------------------

def assert_predict_is_the_forward_argmax(model, cloud):
    """``predict`` is the argmax of a pass over every row, and a pass without
    rows gives the probabilities of a pass over rows bit for bit: over every
    row, over the rows that 20 moved points touch (in the moved cloud), and
    over a random subset of up to ``SEG_POINTS_PER_SCENE`` rows in draw
    order, as ``train_seg`` draws them."""
    every = np.arange(cloud.n)
    pred = model.predict(cloud)
    want = model.forward(cloud, every)[0].argmax(axis=1).astype(np.int32)
    assert pred.dtype == np.int32
    assert pred.tobytes() == want.tobytes()
    rng = np.random.default_rng(cloud.n)
    moved = rng.choice(cloud.n, size=min(20, cloud.n), replace=False)
    after = cloud.copy()
    after.xyz[moved] += rng.uniform(-0.3, 0.3, size=(len(moved), 3))
    subset = rng.choice(cloud.n, size=min(SEG_POINTS_PER_SCENE, cloud.n), replace=False)
    for source, rows in ((cloud, every), (after, model.touched_rows(cloud, after, moved)),
                         (cloud, subset)):
        probs, tape = model.forward(source)
        assert tape is None
        assert probs[rows].tobytes() == model.forward(source, rows)[0].tobytes()


def test_predict_is_the_forward_argmax_on_desk_val_ood_and_deformed_scenes():
    model = SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(6)
    bank = make_bank(simulator.CLASS_NAMES.index("car"), "car", CANONICAL_CAR_DIMS, 0.2,
                     6, 1, seed=0)
    bank.vectors[...] = np.random.default_rng(3).uniform(-0.3, 0.3, bank.vectors.shape)
    for seed, domain in ((0, "normal"), (1, "normal"), (2, "rare"), (3, "damaged")):
        scene = simulator.generate_scene(seed, domain, None, DESK_SENSOR)
        deformed = deform_all_objects(scene, bank)
        if domain == "normal":
            assert not np.array_equal(deformed.xyz, scene.cloud.xyz)
        for cloud in (scene.cloud, deformed):
            assert cloud.n > 2 * PREDICT_BLOCK
            assert_predict_is_the_forward_argmax(model, cloud)


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1027])
def test_predict_is_the_forward_argmax_at_block_edges(n):
    model = SegNetMini(5)
    model.init_random(1)
    rng = np.random.default_rng(n)
    # about 4 points per voxel, so the features vary within a voxel too
    cloud = PointCloud.unlabeled(rng.uniform(-2.0, 2.0, size=(n, 3)), rng.uniform(0.0, 1.0, n))
    assert_predict_is_the_forward_argmax(model, cloud)


@pytest.mark.parametrize("gap", [0, 1])
def test_predict_breaks_ties_as_the_forward_argmax(gap):
    model = SegNetMini(5)
    model.init_random(2)
    params = model.mlp.params
    # classes 1 and 3 score 0.1 on every point, far above the others, and
    # class 3 ``gap`` ulps more: the softmax's exp loses one ulp at 0.1, so
    # the probabilities tie either way and the lower class wins
    params["W3"][:, [1, 3]] = 0.0
    params["b3"][:] = -50.0
    params["b3"][1] = 0.1
    params["b3"][3] = 0.1 + gap * np.spacing(0.1)
    cloud = PointCloud.unlabeled(np.random.default_rng(0).uniform(-3.0, 3.0, size=(700, 3)),
                                 np.full(700, 0.5))
    probs, _ = model.forward(cloud)
    assert np.array_equal(probs[:, 1], probs[:, 3])
    assert_predict_is_the_forward_argmax(model, cloud)
    assert np.all(model.predict(cloud) == 1)


def test_a_block_pass_of_the_mlp_is_the_rows_of_the_full_pass(desk_clouds):
    model = SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(6)
    for cloud in desk_clouds:
        feats, _, _ = model._features(cloud)
        logits, tape = model.mlp.forward(feats)
        for block in np.array_split(np.arange(cloud.n), -(-cloud.n // PREDICT_BLOCK)):
            block_logits, block_tape = model.mlp.forward(feats[block])
            assert block_logits.tobytes() == logits[block].tobytes()
            for got, want in zip(block_tape, tape):
                assert got.tobytes() == want[block].tobytes()


def assert_row_voxels_are_the_full_voxels(rows, inverse, counts, full_inverse, full_counts):
    """A row pass's voxels are the full pass's voxels of its rows: each
    holds a row, two rows share a voxel exactly when they do in the full
    pass, and each voxel counts the points of the whole cloud."""
    assert inverse.shape == (len(rows),)
    want = full_inverse[rows]
    # sharing agrees both ways when the (row voxel, full voxel) pairs are
    # one to one
    pairs = len(np.unique(np.column_stack([inverse, want]), axis=0))
    assert pairs == len(np.unique(inverse)) == len(np.unique(want)) == len(counts)
    assert np.array_equal(counts[inverse], full_counts[want])


def test_the_features_of_rows_are_those_rows_of_the_full_features(desk_clouds):
    model = SegNetMini(len(simulator.CLASS_NAMES))
    for seed, cloud in enumerate(desk_clouds):
        rng = np.random.default_rng(seed)
        full, inverse, counts = model._features(cloud)
        moved = rng.choice(cloud.n, size=20, replace=False)
        after = cloud.copy()
        after.xyz[moved] += rng.uniform(-0.3, 0.3, size=(20, 3))
        after_full = model._features(after)[0]
        cases = [(cloud, full, np.sort(rng.choice(cloud.n, size=n, replace=False)))
                 for n in (0, 1, 500)]
        cases += [(cloud, full, np.arange(cloud.n)),
                  (after, after_full, model.touched_rows(cloud, after, moved))]
        for source, source_full, rows in cases:
            feats, got_inverse, got_counts = model._features(source, rows)
            assert feats.shape == (len(rows), model.N_FEATURES)
            assert feats.tobytes() == source_full[rows].tobytes()
            _, full_inverse, full_counts = (model._features(source) if source is after
                                            else (None, inverse, counts))
            assert_row_voxels_are_the_full_voxels(rows, got_inverse, got_counts,
                                                  full_inverse, full_counts)


def test_touched_rows_and_row_features_on_edge_inputs():
    model = SegNetMini(5)
    # voxels of 0.5 m: three points in one, two in the next, one alone
    cloud = PointCloud.unlabeled([[0.1, 0.1, 0.1], [0.2, 0.3, 0.1], [0.4, 0.2, 0.3],
                                  [0.6, 0.1, 0.1], [0.9, 0.4, 0.2], [2.1, 2.1, 0.1]],
                                 [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    after = cloud.copy()
    after.xyz[1] = [3.3, -1.2, 0.4]  # into a voxel that held no point before
    keys = _grid_keys(after.xyz, model.radius)
    cases = [(after, np.zeros(0, np.int64)), (after, np.array([1])),
             (after, np.array([0, 1, 5])), (cloud, np.arange(cloud.n))]
    for source, moved in cases:
        got = model.touched_rows(cloud, source, moved)
        rule = np.isin(keys if source is after else _grid_keys(cloud.xyz, model.radius),
                       np.concatenate([_grid_keys(cloud.xyz[moved], model.radius),
                                       _grid_keys(source.xyz[moved], model.radius)]))
        assert got.dtype == np.int64 and got.tobytes() == np.flatnonzero(rule).tobytes()
    assert model.touched_rows(cloud, after, np.array([1])).tolist() == [0, 1, 2]
    for source in (cloud, after):
        full, full_inverse, full_counts = model._features(source)
        # no row; one row; a lone point; rows whose voxels hold other points
        for rows in ([], [1], [5], [0, 3], [4, 2], [2, 0, 4, 1]):
            rows = np.array(rows, dtype=np.int64)
            feats, inverse, counts = model._features(source, rows)
            assert feats.shape == (len(rows), model.N_FEATURES)
            assert feats.tobytes() == full[rows].tobytes()
            assert_row_voxels_are_the_full_voxels(rows, inverse, counts, full_inverse,
                                                  full_counts)


# ---------------------------------------------------------------------------
# the in-place MLP passes against their expression form
# ---------------------------------------------------------------------------

def expression_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_the_softmax_is_bit_equal_to_its_expression_form():
    rng = np.random.default_rng(4)
    cases = [rng.normal(scale=5.0, size=(700, 5)), rng.normal(size=(3, 1))]
    # the row maximum in each column in turn, once well clear and once tied
    for top in range(5):
        logits = rng.normal(size=(5, 5))
        logits[:, top] = 10.0
        tied = logits.copy()
        tied[:, (top + 2) % 5] = 10.0
        cases += [logits, tied]
    cases.append(np.full((4, 5), 0.25))  # every column tied
    # a maximum of +0.0 or -0.0, alone or tied with the other zero
    cases.append(np.array([[0.0, -1.0, -2.0, -3.0, -4.0], [-1.0, -0.0, -2.0, -3.0, -4.0],
                           [-0.0, -1.0, 0.0, -3.0, -4.0], [-5.0, 0.0, -0.0, -3.0, -0.0]]))
    cases.append(np.zeros((0, 5)))
    for logits in cases:
        kept = logits.copy()
        got = _softmax(logits)
        assert got.shape == logits.shape and got.dtype == np.float64
        assert got.tobytes() == expression_softmax(logits).tobytes()
        assert logits.tobytes() == kept.tobytes()  # the input is left alone

def oracle_forward(mlp, x):
    """``_Mlp.forward`` in expression form: every operation into a new array."""
    p = mlp.params
    a1 = np.tanh(x @ p["W1"] + p["b1"])
    a2 = np.tanh(a1 @ p["W2"] + p["b2"])
    logits = a2 @ p["W3"] + p["b3"]
    return logits, (x, a1, a2)


def oracle_backward(mlp, tape, dlogits):
    """``_Mlp.backward`` in expression form."""
    x, a1, a2 = tape
    p = mlp.params
    grads = {"W3": a2.T @ dlogits, "b3": dlogits.sum(axis=0)}
    da2 = dlogits @ p["W3"].T
    dz2 = da2 * (1.0 - a2 * a2)
    grads["W2"] = a1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ p["W2"].T
    dz1 = da1 * (1.0 - a1 * a1)
    grads["W1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return dz1 @ p["W1"].T, grads


def random_mlp(seed):
    mlp = _Mlp(SegNetMini.N_FEATURES, 64, 8)
    mlp.init_random(seed)
    rng = np.random.default_rng(seed)
    for name in ("b1", "b2", "b3"):
        mlp.params[name] = rng.normal(size=mlp.shapes[name])
    return mlp


# 7,000 rows: each (rows x 64) activation is larger than glibc's default
# mmap threshold
@pytest.mark.parametrize("rows", [7000, 0])
def test_the_mlp_passes_are_bit_equal_to_the_expression_oracle(rows):
    mlp = random_mlp(1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(rows, SegNetMini.N_FEATURES))
    dlogits = rng.normal(size=(rows, 8))
    x_before, dlogits_before = x.copy(), dlogits.copy()

    logits, tape = mlp.forward(x)
    want_logits, want_tape = oracle_forward(mlp, x)
    assert x.tobytes() == x_before.tobytes()
    assert logits.tobytes() == want_logits.tobytes()
    assert tape[0] is x
    for got, want in zip(tape, want_tape):
        assert got.tobytes() == want.tobytes()

    tape_before = [a.copy() for a in tape]
    dx, grads = mlp.backward(tape, dlogits)
    want_dx, want_grads = oracle_backward(mlp, want_tape, dlogits)
    assert dx.shape == (rows, SegNetMini.N_FEATURES)
    assert dx.tobytes() == want_dx.tobytes()
    assert grads.keys() == want_grads.keys() == mlp.shapes.keys()
    for name, grad in grads.items():
        assert grad.tobytes() == want_grads[name].tobytes(), name
    assert mlp.backward_inputs(tape, dlogits).tobytes() == want_dx.tobytes()
    assert dlogits.tobytes() == dlogits_before.tobytes()
    for got, before in zip(tape, tape_before):
        assert got.tobytes() == before.tobytes()


def test_each_pass_returns_arrays_of_its_own():
    mlp = random_mlp(3)
    x = np.random.default_rng(4).normal(size=(500, SegNetMini.N_FEATURES))
    first_logits, first = mlp.forward(x)
    second_logits, second = mlp.forward(x)
    ours = [first_logits, *first[1:]]
    for a in ours:
        for b in (second_logits, *second[1:]):
            assert not np.shares_memory(a, b)
    dlogits = np.ones_like(first_logits)
    first_dx, first_grads = mlp.backward(first, dlogits)
    second_dx, second_grads = mlp.backward(second, dlogits)
    second_inputs = mlp.backward_inputs(second, dlogits)
    for a in (first_dx, *first_grads.values()):
        for b in (second_dx, second_inputs, *second_grads.values()):
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind", ["seg", "det"])
def test_trained_parameters_are_bit_equal_to_the_expression_oracle(kind, monkeypatch):
    clouds, boxes = tiny_scenes()
    model = train(kind, clouds, boxes, None)
    monkeypatch.setattr(_Mlp, "forward", oracle_forward)
    monkeypatch.setattr(_Mlp, "backward", oracle_backward)
    oracle = train(kind, clouds, boxes, None)
    for name, value in model.mlp.params.items():
        assert value.tobytes() == oracle.mlp.params[name].tobytes(), name


def test_the_segmenter_input_gradient_is_the_dx_of_the_full_backward(desk_clouds):
    model = SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(6)
    for seed, cloud in enumerate(desk_clouds):
        rng = np.random.default_rng(seed)
        moved = rng.choice(cloud.n, size=20, replace=False)
        after = cloud.copy()
        after.xyz[moved] += rng.uniform(-0.3, 0.3, size=(20, 3))
        for rows in (np.arange(after.n), model.touched_rows(cloud, after, moved)):
            probs, tape = model.forward(after, rows=rows)
            dlogits = rng.normal(size=probs.shape)
            want, _ = model.mlp.backward(tape.mlp_tape, dlogits)
            got = model.mlp.backward_inputs(tape.mlp_tape, dlogits)
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the detector's distinct-row passes against the all-row oracle
# ---------------------------------------------------------------------------

def all_anchor_gradient(model, tape, d_outputs):
    """The detector's input gradient with the MLP backward over every anchor,
    from the all-row tape of :func:`all_row_forward`; the pooling adjoint
    takes the occupied anchors' feature gradients, as an empty anchor
    reaches no point."""
    dfeat, _ = model.mlp.backward(tape.mlp_tape, d_outputs)
    occupied = np.flatnonzero(tape.neighbor_counts > 0)
    anchor_row = np.zeros(model.n_anchors, dtype=np.int64)
    anchor_row[occupied] = np.arange(1, len(occupied) + 1)
    rows = DetTape(tape.cloud, tape.point_cell, tape.neighbor_counts[occupied],
                   tape.means[occupied], None, anchor_row, tape.cells, tape.pairs)
    return model._pool_adjoint(rows, dfeat[occupied])


def assert_within(got, want, relative):
    """Every entry of ``got`` within ``relative`` times the largest of ``want``."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= relative * np.abs(want).max(initial=0.0)


def cloud_without_empty_anchors(model):
    """One point above ground in every anchor cell."""
    centers = model.centers.copy()
    centers[:, 2] = 1.0
    return PointCloud.unlabeled(centers, np.full(model.n_anchors, 0.5))


def detector_clouds(desk_clouds, model):
    """The desk clouds, a cloud with no occupied anchor and one with no empty one."""
    return desk_clouds + [PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0)),
                          cloud_without_empty_anchors(model)]


def test_the_detector_forward_is_within_1e12_of_the_all_row_oracle(desk_clouds):
    model = DetHeadMini()
    model.init_random(2)
    # with b1 = 0 the zero row's hidden activations would be exact zeros
    model.mlp.params["b1"][:] = np.random.default_rng(1).normal(size=model.hidden)
    occupied_counts = []
    for cloud in detector_clouds(desk_clouds, model):
        scores, outputs, tape = model.forward(cloud)
        want_scores, want_outputs, _ = all_row_forward(model, cloud)
        occupied = np.count_nonzero(tape.anchor_row)
        occupied_counts.append(occupied)
        assert len(tape.mlp_tape[0]) == len(scores) == len(outputs) == occupied + 1
        assert_within(scores[tape.anchor_row], want_scores, 1e-12)
        assert_within(outputs[tape.anchor_row], want_outputs, 1e-12)
    assert occupied_counts[-2:] == [0, model.n_anchors]


def test_the_detector_input_gradient_is_within_1e12_of_the_all_anchor_backward(desk_clouds):
    model = DetHeadMini()
    model.init_random(2)
    model.mlp.params["b3"][0] = 0.0  # scores near 1/2: every occupied anchor proposes
    for seed, cloud in enumerate(detector_clouds(desk_clouds, model)):
        rng = np.random.default_rng(seed)
        scores, _, tape = model.forward(cloud)
        oracle = all_row_forward(model, cloud)[2]
        proposals = model.proposals(scores, tape)
        # the attack's shape: a confidence gradient on the proposal rows alone
        attack = np.zeros((model.n_anchors, DetHeadMini.N_OUTPUTS))
        attack[proposals, 0] = rng.normal(size=len(proposals))
        dense = rng.normal(size=attack.shape)
        for d_outputs in (attack, dense):
            got = model.backward_inputs(tape, fold_onto_rows(tape, d_outputs))
            want = all_anchor_gradient(model, oracle, d_outputs)
            assert_within(got, want, 1e-12)
            assert (np.abs(want).max(initial=0.0) > 0) == (len(proposals) > 0)


def all_anchor_train_det(clouds, boxes):
    """``train("det", ...)`` with the MLP on every anchor's row and the
    training step taken anchor by anchor over the loop targets."""
    model = DetHeadMini()

    def step(cloud, gt, _):
        scores, full, tape = all_row_forward(model, cloud)
        targets, anchors, rows = loop_box_targets(model, gt)

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
        if len(anchors):
            diff = full[anchors, 1:] - rows
            loss += float(0.5 * (diff * diff).sum() / len(anchors))
            d_full[anchors, 1:] += diff / len(anchors)
        # the all-row tape has one row per anchor: no fold
        return loss, tape.mlp_tape, d_full

    return _train(model, (3, 4), clouds, boxes, 2, 0.01, 7, None, step)


def test_train_det_is_within_1e10_of_the_all_row_training_oracle():
    clouds, boxes = tiny_scenes()
    model = train("det", clouds, boxes, None)
    oracle = all_anchor_train_det(clouds, boxes)
    for name, value in model.mlp.params.items():
        assert_within(value, oracle.mlp.params[name], 1e-10)


def test_a_zero_detector_output_gradient_gives_exact_zeros(desk_clouds):
    model = DetHeadMini()
    model.init_random(2)
    for cloud in detector_clouds(desk_clouds, model):
        _, outputs, tape = model.forward(cloud)
        dpos = model.backward_inputs(tape, np.zeros_like(outputs))
        assert dpos.shape == (cloud.n, 3)
        assert np.all(dpos == 0.0)
    _, outputs, tape = model.forward(desk_clouds[0])
    rng = np.random.default_rng(0)
    assert np.any(model.backward_inputs(tape, rng.normal(size=outputs.shape)) != 0)


# ---------------------------------------------------------------------------
# the detector's training targets against the per-anchor loop
# ---------------------------------------------------------------------------

def loop_box_targets(model, boxes):
    """The training targets, each box tested against every anchor and each
    regression row built anchor by anchor -> (confidence, anchors, rows),
    anchors in the order they were first positive."""
    centers = model.centers
    w0, h0, l0 = CANONICAL_CAR_DIMS
    targets = np.zeros(model.n_anchors)
    reg_targets = {}
    for box in boxes:
        local = (centers[:, :2] - box.center[:2]) @ rot_z(box.yaw)[:2, :2]
        inside = np.all(np.abs(local) <= np.array([box.length / 2, box.width / 2]), axis=1)
        dist = np.linalg.norm(centers[:, :2] - box.center[:2], axis=1)
        pos = np.union1d(np.flatnonzero(inside | (dist < 2.0)), [int(np.argmin(dist))])
        targets[pos] = 1.0
        for a in pos:
            ac = centers[a]
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
    anchors = np.fromiter(reg_targets, dtype=np.int64)
    rows = np.stack(list(reg_targets.values())) if reg_targets else np.zeros((0, 8))
    return targets, anchors, rows


def assert_targets_match_the_loop(model, boxes):
    got_anchors, got_rows = model.box_targets(boxes)
    want_targets, want_anchors, want_rows = loop_box_targets(model, boxes)
    order = np.argsort(want_anchors)
    assert np.flatnonzero(want_targets).tobytes() == got_anchors.tobytes()
    assert np.all(want_targets[got_anchors] == 1.0)
    assert got_anchors.dtype == np.int64
    assert got_anchors.tobytes() == want_anchors[order].tobytes()
    assert got_rows.shape == (len(got_anchors), 8)
    assert got_rows.tobytes() == want_rows[order].tobytes()
    return got_anchors, got_rows


def test_box_targets_are_bit_equal_to_the_loop_on_desk_boxes():
    model = DetHeadMini()
    rng = np.random.default_rng(12)
    positives = 0
    for seed in range(4):
        scene = simulator.generate_scene(seed, "normal", None, DESK_SENSOR)
        boxes = [sb.box for sb in scene.boxes]
        # as in training: boxes turned and flipped with their clouds
        _, moved = standard_augment(PointCloud.unlabeled(np.zeros((0, 3)), np.zeros(0)),
                                    boxes, rng)
        for case in (boxes, moved, moved[:1]):
            positives += len(assert_targets_match_the_loop(model, case)[0])
    assert positives > 50
    assert_targets_match_the_loop(model, [])


def test_box_targets_clamp_the_window_at_the_grid_edge():
    model = DetHeadMini()
    edge = model.area
    boxes = [
        OrientedBox(np.array([edge - 0.7, -edge + 0.4, 0.8]), 1.8, 1.6, 4.6, 0.6),
        OrientedBox(np.array([-edge + 1.0, 3.0, 0.8]), 2.0, 1.5, 5.5, -2.0),
        # outside the grid: only the nearest anchor, an equal-distance tie
        # between two anchors that goes to the first in anchor order
        OrientedBox(np.array([edge + 6.0, 0.0, 0.8]), 1.8, 1.6, 4.6, 0.0),
        OrientedBox(np.array([-edge - 20.0, -edge - 20.0, 0.8]), 1.8, 1.6, 4.6, 1.0),
    ]
    for box in boxes[:2]:
        assert_targets_match_the_loop(model, [box])
    # y = 0 lies halfway between the anchor rows k/2 - 1 and k/2
    k = model.cells_per_axis
    assert assert_targets_match_the_loop(model, boxes[2:3])[0].tolist() == [k * k - k // 2 - 1]
    assert assert_targets_match_the_loop(model, boxes[3:])[0].tolist() == [0]
    assert_targets_match_the_loop(model, boxes)


def test_where_boxes_share_an_anchor_the_later_box_row_wins():
    model = DetHeadMini()
    first = OrientedBox(np.array([10.3, 4.1, 0.8]), 1.8, 1.6, 4.6, 0.3)
    second = OrientedBox(np.array([11.2, 4.6, 0.9]), 1.9, 1.5, 4.2, 2.1)
    anchors, rows = assert_targets_match_the_loop(model, [first, second])
    first_anchors, first_rows = model.box_targets([first])
    second_anchors, second_rows = model.box_targets([second])
    shared = np.intersect1d(first_anchors, second_anchors)
    assert len(shared) > 0
    for anchor in shared:
        row = rows[anchors == anchor]
        assert np.array_equal(row, second_rows[second_anchors == anchor])
        assert not np.array_equal(row, first_rows[first_anchors == anchor])
    assert_targets_match_the_loop(model, [second, first])


def test_train_det_is_bit_equal_to_a_training_on_the_loop_targets(monkeypatch):
    clouds, boxes = tiny_scenes()
    model = train("det", clouds, boxes, None)
    monkeypatch.setattr(DetHeadMini, "box_targets",
                        lambda model, gt: loop_box_targets(model, gt)[1:])
    oracle = train("det", clouds, boxes, None)
    for name, value in model.mlp.params.items():
        assert value.tobytes() == oracle.mlp.params[name].tobytes(), name


# ---------------------------------------------------------------------------
# the detector trains on the points above GROUND_CLIP
# ---------------------------------------------------------------------------

def test_the_detector_pass_of_the_clipped_cloud_is_the_pass_of_the_whole_cloud(desk_clouds):
    model = DetHeadMini()
    model.init_random(2)
    for cloud in desk_clouds:
        clipped = model.above_ground(cloud)
        assert 0 < clipped.n < cloud.n
        assert np.all(clipped.xyz[:, 2] > model.GROUND_CLIP)
        scores, outputs, tape = model.forward(cloud)
        got_scores, got_outputs, got_tape = model.forward(clipped)
        assert np.array_equal(got_tape.anchor_row, tape.anchor_row)
        assert got_scores.tobytes() == scores.tobytes()
        assert got_outputs.tobytes() == outputs.tobytes()


def test_standard_augment_keeps_z_bit_for_bit(desk_clouds):
    for seed, cloud in enumerate(desk_clouds):
        for draw in range(4):
            moved, _ = standard_augment(cloud, (), np.random.default_rng([seed, draw]))
            assert moved.xyz[:, 2].tobytes() == cloud.xyz[:, 2].tobytes()


def lifting_hook(clouds):
    """A hook that moves every point of scene ``index`` up or down by up to
    0.3 m, the same draw each epoch, so points cross GROUND_CLIP both ways."""
    def hook(index, cloud):
        xyz = cloud.xyz.copy()
        xyz[:, 2] += np.random.default_rng(index).uniform(-0.3, 0.3, cloud.n)
        return PointCloud(xyz, cloud.intensity, cloud.semantic, cloud.instance)
    clip = DetHeadMini.GROUND_CLIP
    for index, cloud in enumerate(clouds):
        moved = hook(index, cloud).xyz[:, 2] > clip
        before = cloud.xyz[:, 2] > clip
        assert np.any(moved & ~before) and np.any(before & ~moved)
    return hook


@pytest.mark.parametrize("hooked", [False, True])
def test_train_det_on_clipped_clouds_is_bit_equal_to_an_unclipped_oracle(hooked, monkeypatch):
    clouds, boxes = tiny_scenes()
    hook = lifting_hook(clouds) if hooked else None
    model = train_det(clouds, boxes, epochs=2, lr=0.01, seed=7, hook=hook)
    monkeypatch.setattr(DetHeadMini, "above_ground", lambda self, cloud: cloud)
    oracle = train_det(clouds, boxes, epochs=2, lr=0.01, seed=7, hook=hook)
    for name, value in model.mlp.params.items():
        assert value.tobytes() == oracle.mlp.params[name].tobytes(), name


def test_train_det_on_a_one_point_clip_is_within_rounding_of_an_unclipped_oracle(monkeypatch):
    """A cloud clipped to one point is rotated through gemv, not the whole
    cloud's gemm, so x and y may differ in the last bit: bit equality is not
    promised there, closeness is."""
    clouds, boxes = tiny_scenes()
    clouds = [PointCloud(cloud.xyz[79:], cloud.intensity[79:], cloud.semantic[79:],
                         cloud.instance[79:]) for cloud in clouds]
    assert all(DetHeadMini().above_ground(cloud).n == 1 for cloud in clouds)
    model = train_det(clouds, boxes, epochs=2, lr=0.01, seed=7)
    monkeypatch.setattr(DetHeadMini, "above_ground", lambda self, cloud: cloud)
    oracle = train_det(clouds, boxes, epochs=2, lr=0.01, seed=7)
    for name, value in model.mlp.params.items():
        np.testing.assert_allclose(value, oracle.mlp.params[name], rtol=1e-10, atol=1e-14,
                                   err_msg=name)
