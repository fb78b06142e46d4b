"""The segmenter runs only on the voxels a deformation touches.

A point's segmenter features depend only on the points of its own voxel, so
``fit_bank`` and the baselines push through the MLP only the voxels that moved
points occupy before or after moving, and keep the clean cloud's loss for
every other row. Here the full-cloud forward and backward, every row through
the MLP, is the oracle: losses and gradients must match it to 1e-12 relative.
The scenes include a moved point that crosses into a new voxel, a voxel that
a move leaves without points, and a voxel that a car point shares with a
ground point.
"""

import math

import numpy as np
import pytest

from advfield import attack, baselines, simulator
from advfield.attack import targeted_objective, untargeted_objective
from advfield.cloudio import PointCloud
from advfield.field import deform_targets, make_bank, plan_targets
from advfield.geometry import OrientedBox, box_contains_many
from advfield.victim import SegNetMini

CAR = simulator.CAR
GROUND = simulator.GROUND
PERSON = simulator.CLASS_NAMES.index("person")
SENSOR = simulator.SensorSpec()
DIMS = (1.0, 0.8, 2.0)
STEP = 0.4
RTOL = 1e-12
MODES = ["seg-untargeted", "seg-targeted"]


def voxel_keys(cloud, cell=0.5):
    return [tuple(v) for v in np.floor(cloud.xyz / cell).astype(np.int64).tolist()]


def car_scene(seed, center):
    """One boxed car on scattered ground, and car points without a box.

    Four low car points sit 5 mm inside an x boundary of their voxel, two at
    each side, above a ground point of the same voxel: a move along the ray
    takes some of them out of the voxel, which the ground point keeps.
    """
    rng = np.random.default_rng(seed)
    box = OrientedBox(np.array(center), 1.0, 0.8, 2.0, 0.3)
    local = (rng.random((30, 3)) - 0.5) * 0.9 * [2.0, 1.0, 0.8]
    local[:4] = np.column_stack([rng.uniform(-0.4, 0.4, 4), rng.uniform(-0.2, 0.2, 4),
                                 np.full(4, -0.38)])
    car = box.to_world(local)
    near = np.round(car[:4, 0] / 0.5) * 0.5
    car[:4, 0] = near + np.array([0.005, -0.005, 0.005, -0.005])
    assert box_contains_many(box, car).all()
    below = np.column_stack([car[:4, :2], np.zeros(4)])
    unboxed = np.array(center) + [0.0, 6.0, 0.0] + rng.uniform(-0.5, 0.5, (5, 3))
    ground = np.column_stack([rng.uniform(-15.0, 15.0, (300, 2)), np.zeros(300)])
    xyz = np.vstack([car, below, unboxed, ground])
    semantic = [CAR] * 30 + [GROUND] * 4 + [CAR] * 5 + [GROUND] * 300
    instance = [1] * 30 + [0] * 4 + [2] * 5 + [0] * 300
    cloud = PointCloud(xyz, rng.uniform(0.05, 0.95, len(xyz)), semantic, instance)
    return simulator.Scene(sensor=SENSOR, cloud=cloud,
                           boxes=[simulator.SceneBox(CAR, box)])


SCENES = [car_scene(1, [9.0, 3.0, 0.8]), car_scene(2, [-6.0, 7.5, 0.8])]


def victim():
    model = SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(5)
    return model


def strong_bank(variants):
    """A bank whose vectors move planned points by tenths of a metre."""
    bank = make_bank(CAR, "car", DIMS, STEP, 1, variants, seed=0)
    rng = np.random.default_rng(9)
    for fld in bank.fields:
        fld.vectors[:] = rng.uniform(-0.3, 0.3, size=fld.vectors.shape)
    return bank


def assert_cases_covered(before, after, moved):
    """A moved point crosses into a new voxel; of the voxels that moved points
    leave and none enters, one is left empty and one keeps a ground point."""
    keys_before, keys_after = voxel_keys(before), voxel_keys(after)
    assert any(keys_before[i] != keys_after[i] for i in moved)
    left = {keys_before[i] for i in moved} - {keys_after[i] for i in moved}
    assert left - set(keys_after)
    unmoved = np.setdiff1d(np.arange(after.n), moved)
    assert any(after.semantic[i] != CAR and keys_after[i] in left for i in unmoved)


def full_cloud_objective(model, cloud, labels, cfg):
    """The oracle: loss and input gradients with every row through the MLP."""
    probs, tape = model.forward(cloud)
    if cfg.mode == "seg-untargeted":
        losses, dlogits = untargeted_objective(probs, labels)
    else:
        losses, dlogits = targeted_objective(probs, labels, cfg.adversarial_class,
                                             cfg.target_class)
    dpos, dtau = model.backward_inputs(tape, dlogits)
    return float(losses.sum()), dpos, dtau


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= RTOL * np.abs(want).max(initial=0.0)


# ---------------------------------------------------------------------------
# SegNetMini: whole-voxel rows and tapes
# ---------------------------------------------------------------------------

def moved_scene():
    """The first scene, its deformation by a strong bank, and the moved points."""
    scene = SCENES[0]
    bank = strong_bank(1)
    plans = plan_targets(scene, bank, 2)
    after = deform_targets(scene.cloud, plans, bank, 1)
    moved = np.flatnonzero(np.any(after.xyz != scene.cloud.xyz, axis=1)
                           | (after.intensity != scene.cloud.intensity))
    return scene.cloud, after, moved


def test_rows_outside_the_touched_voxels_keep_their_clean_probabilities():
    before, after, moved = moved_scene()
    assert_cases_covered(before, after, moved)
    model = victim()
    rows = model.touched_rows(before, after, moved)
    assert np.all(np.diff(rows) > 0) and np.isin(moved, rows).all()
    untouched = np.setdiff1d(np.arange(after.n), rows)
    assert untouched.size > 0
    clean, _ = model.forward(before)
    deformed, _ = model.forward(after)
    assert np.array_equal(deformed[untouched], clean[untouched])


def test_a_whole_voxel_tape_gives_the_full_cloud_gradients_of_its_rows():
    before, after, moved = moved_scene()
    model = victim()
    rows = model.touched_rows(before, after, moved)
    labels = after.semantic

    probs, tape = model.forward(after, rows=rows)
    dpos, dtau = model.backward_inputs(tape, untargeted_objective(probs, labels[rows])[1])
    assert dpos.shape == (len(rows), 3) and dtau.shape == (len(rows),)

    full_probs, full_tape = model.forward(after)
    # the loss over the rows alone: other rows' logit gradients are zero
    dlogits = np.zeros_like(full_probs)
    dlogits[rows] = untargeted_objective(full_probs[rows], labels[rows])[1]
    want_pos, want_tau = model.backward_inputs(full_tape, dlogits)
    assert_close(probs, full_probs[rows])
    assert_close(dpos, want_pos[rows])
    assert_close(dtau, want_tau[rows])


def test_backward_inputs_rejects_rows_that_split_a_voxel_or_are_unordered():
    before, after, moved = moved_scene()
    model = victim()
    rows = model.touched_rows(before, after, moved)
    keys = voxel_keys(after)
    shared = [i for i in rows if sum(keys[j] == keys[i] for j in rows) > 1]
    assert shared
    split = np.setdiff1d(rows, shared[:1])
    for bad in (split, rows[::-1]):
        probs, tape = model.forward(after, rows=bad)
        with pytest.raises(ValueError, match="whole voxels"):
            model.backward_inputs(tape, probs)


# ---------------------------------------------------------------------------
# fit_bank against the full-cloud oracle
# ---------------------------------------------------------------------------

def full_cloud(cfg):
    """The oracle in place of ``attack.touched_loss_and_grads``."""
    def loss_and_grads(model, clean, clean_losses, deformed, moved, objective):
        loss, dpos, dtau = full_cloud_objective(model, deformed, clean.semantic, cfg)
        return loss, dpos[moved], dtau[moved]
    return loss_and_grads


def recorded_fit(monkeypatch, mode, oracle):
    """fit_bank's losses and every slot gradient its Adam steps receive, in
    step order and, within a step, in slot order."""
    steps = []

    class RecordingAdam(attack.Adam):
        def step(self, params, grads):
            steps.extend(grads[slot].copy() for slot in sorted(grads))
            super().step(params, grads)

    cfg = attack.AttackConfig(mode=mode, adversarial_class=CAR,
                              target_class=PERSON if mode == "seg-targeted" else None,
                              lr=0.05, iterations=3)
    with monkeypatch.context() as patch:
        patch.setattr(attack, "Adam", RecordingAdam)
        if oracle:
            patch.setattr(attack, "touched_loss_and_grads", full_cloud(cfg))
        _, trace = attack.fit_bank(strong_bank(2), SCENES, victim(), cfg)
    return trace.losses, steps


@pytest.mark.parametrize("mode", MODES)
def test_fit_bank_matches_the_full_cloud_oracle(monkeypatch, mode):
    bank = strong_bank(2)
    for variant, scene in enumerate(SCENES, start=1):
        plans = plan_targets(scene, bank, 2)
        moved = np.concatenate([plan.point_idx for _, plan in plans])
        assert_cases_covered(scene.cloud, deform_targets(scene.cloud, plans, bank, variant),
                             moved)
    losses, steps = recorded_fit(monkeypatch, mode, oracle=False)
    want_losses, want_steps = recorded_fit(monkeypatch, mode, oracle=True)
    assert len(losses) == 3 and all(type(loss) is float for loss in losses)
    assert_close(losses, want_losses)
    assert len(steps) == len(want_steps) == 3 * len(SCENES)
    for got, want in zip(steps, want_steps):
        assert np.abs(want).max() > 0.0
        assert_close(got, want)


# ---------------------------------------------------------------------------
# the baselines against the full-cloud oracle
# ---------------------------------------------------------------------------

UNTARGETED = attack.AttackConfig(mode="seg-untargeted", adversarial_class=CAR)


BASELINES = {
    "l2": baselines.iterative_gradient_l2,
    "chamfer": baselines.chamfer_attack,
    "removal": baselines.adversarial_removal,
    "generation": baselines.adversarial_generation,
}


def recorded_baseline(monkeypatch, fn, oracle):
    """The attacked cloud and the loss of every step."""
    losses = []
    loss_and_grads = full_cloud(UNTARGETED) if oracle else attack.touched_loss_and_grads

    def recording(*args):
        result = loss_and_grads(*args)
        losses.append(result[0])
        return result

    scene = SCENES[0]
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "touched_loss_and_grads", recording)
        # steps of 0.12 m stay inside the 0.3 m ball, so no offsets tie in norm
        patch.setattr(baselines, "STEP", 0.12)
        out = fn(scene.cloud, scene.boxes[0].box, victim(), iters=2)
    return out, losses


@pytest.mark.parametrize("kind", sorted(BASELINES))
def test_baselines_match_the_full_cloud_oracle(monkeypatch, kind):
    out, losses = recorded_baseline(monkeypatch, BASELINES[kind], oracle=False)
    want, want_losses = recorded_baseline(monkeypatch, BASELINES[kind], oracle=True)
    assert losses and all(type(loss) is float for loss in losses)
    assert_close(losses, want_losses)
    assert out.n == want.n and np.array_equal(out.semantic, want.semantic)
    assert_close(out.xyz, want.xyz)
    assert_close(out.intensity, want.intensity)
    if kind == "l2":
        clean = SCENES[0].cloud
        moved = np.flatnonzero(np.any(out.xyz != clean.xyz, axis=1))
        assert_cases_covered(clean, out, moved)


class RaisingVictim:
    def forward(self, cloud, rows=None):
        raise AssertionError("the victim ran")


def test_an_empty_box_returns_the_cloud_without_a_victim_pass():
    cloud = SCENES[0].cloud
    far = OrientedBox(np.array([40.0, -40.0, 0.8]), 1.0, 0.8, 2.0, 0.0)
    for fn in (baselines.iterative_gradient_l2, baselines.chamfer_attack,
               baselines.adversarial_removal, baselines.adversarial_generation):
        out = fn(cloud, far, RaisingVictim())
        for got, want in zip((out.xyz, out.intensity, out.semantic, out.instance),
                             (cloud.xyz, cloud.intensity, cloud.semantic, cloud.instance)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert out.xyz is not cloud.xyz


# ---------------------------------------------------------------------------
# the tracer's contract: forward always sees the full deformed cloud
# ---------------------------------------------------------------------------

def test_forward_always_receives_the_full_cloud_and_rows_holding_every_moved_point(
        monkeypatch):
    calls = []
    original = SegNetMini.forward

    def recording(self, cloud, rows=None):
        calls.append((cloud.copy(), None if rows is None else np.array(rows)))
        return original(self, cloud, rows)

    monkeypatch.setattr(SegNetMini, "forward", recording)
    scene = SCENES[0]
    cfg = attack.AttackConfig(mode="seg-untargeted", adversarial_class=CAR, iterations=2)
    attack.fit_bank(strong_bank(1), [scene], victim(), cfg)
    baselines.iterative_gradient_l2(scene.cloud, scene.boxes[0].box, victim(), iters=2)
    assert len(calls) == 2 * (1 + 2)
    for cloud, rows in calls:
        assert cloud.n == scene.cloud.n
        moved = np.flatnonzero(np.any(cloud.xyz != scene.cloud.xyz, axis=1)
                               | (cloud.intensity != scene.cloud.intensity))
        assert rows is None or np.isin(moved, rows).all()
    assert any(rows is not None and len(rows) < scene.cloud.n for _, rows in calls)
