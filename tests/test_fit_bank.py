"""fit_bank steps the whole bank with one Adam and clamps it with one rule.

The oracle is the fitting loop with one Adam per slot, stepped and clamped
slot by slot in sorted order, with the budget passed in: the fitted vectors
and the losses must be byte-equal to it in every mode, on scenes that leave
slots unused and train some slots in fewer batches than others.
"""

import math

import numpy as np
import pytest

from advfield import attack, simulator
from advfield.cloudio import PointCloud
from advfield.field import deform_targets, make_bank
from advfield.geometry import OrientedBox, iou_3d
from advfield.victim import Adam, DetHeadMini, SegNetMini
from anchor_fold import fold_onto_rows

CAR = simulator.CAR
PERSON = simulator.CLASS_NAMES.index("person")
SENSOR = simulator.SensorSpec()
DIMS = (1.0, 0.8, 2.0)
STEP = 0.4


class LoopAdam:
    """Adam with one step count for all its keys, one instance per slot."""

    def __init__(self, lr, betas=(0.9, 0.999), eps=1e-8):
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
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


def clamp_slot(vectors, eps, psi):
    np.clip(vectors[:, :3], -eps, eps, out=vectors[:, :3])
    np.clip(vectors[:, 3], -psi, psi, out=vectors[:, 3])


def loop_detection_loss(cloud, item, victim, class_id):
    """The detection scene loss with a gradient per anchor, folded onto the rows."""
    scores, outputs, tape = victim.forward(cloud)
    full_scores, full = scores[tape.anchor_row], outputs[tape.anchor_row]
    relevant = victim.proposals(scores, tape)
    gt = [sb.box for sb in item.scene.boxes if sb.class_id == class_id]
    no_tau = np.zeros(len(item.moved))
    if len(relevant) == 0 or not gt:
        return 0.0, np.zeros((len(item.moved), 3)), no_tau
    proposals = victim.decode_boxes(relevant, outputs, tape)
    ious = np.array([max(iou_3d(p, g) for g in gt) for p in proposals])
    d_full = np.zeros_like(full)
    loss, d_full[relevant, 0] = attack.detection_objective(full_scores[relevant], ious)
    return loss, victim.backward_inputs(tape, fold_onto_rows(tape, d_full))[item.moved], no_tau


def loop_fit_bank(bank, scenes, victim, cfg):
    """The fitting loop with one Adam per slot and a per-slot clamp."""
    work, _ = attack._prepare(scenes, bank, cfg)
    optimizers = {(f.group, f.variant): LoopAdam(cfg.lr) for f in bank.fields}
    seg = cfg.mode != "detection"
    objective = (attack.untargeted_objective if cfg.mode == "seg-untargeted" else
                 lambda probs, labels: attack.targeted_objective(
                     probs, labels, cfg.adversarial_class, cfg.target_class))
    clean = [objective(victim.forward(item.scene.cloud)[0], item.scene.cloud.semantic)[0]
             if seg and item.plans else None for item in work]
    losses = []
    for _ in range(cfg.iterations):
        total = 0.0
        for start in range(0, len(work), attack.BATCH_SCENES):
            grads = {}
            for item, clean_losses in zip(work[start:start + attack.BATCH_SCENES],
                                          clean[start:start + attack.BATCH_SCENES]):
                if not item.plans:
                    continue
                cloud = deform_targets(item.scene.cloud, item.plans, bank, item.variant)
                if seg:
                    loss, dpos, dtau = attack.touched_loss_and_grads(
                        victim, item.scene.cloud, clean_losses, cloud, item.moved, objective)
                else:
                    loss, dpos, dtau = loop_detection_loss(cloud, item, victim,
                                                           cfg.adversarial_class)
                total += loss
                for group, plan in item.plans:
                    fld = bank.field(group, item.variant)
                    jac = attack.ShiftJacobian(plan)
                    clip = jac.tau_clip_active(item.scene.cloud, fld)
                    at = np.searchsorted(item.moved, plan.point_idx)
                    grads.setdefault((group, item.variant), np.zeros_like(fld.vectors))
                    grads[group, item.variant] += jac.vector_gradient(
                        dpos[at], dtau[at], fld.size, clip_active=clip)
            for slot, grad in sorted(grads.items()):
                fld = bank.field(*slot)
                optimizers[slot].step({"v": fld.vectors}, {"v": grad})
                clamp_slot(fld.vectors, cfg.eps, cfg.psi)
        losses.append(total)
    return bank, losses


def car_scene(seed, cars):
    """Boxed cars at ``(x, y, yaw)`` on scattered ground."""
    rng = np.random.default_rng(seed)
    xyz, semantic, instance, boxes = [], [], [], []
    for index, (x, y, yaw) in enumerate(cars, start=1):
        box = OrientedBox(np.array([x, y, 0.4]), *DIMS, yaw)
        local = (rng.random((40, 3)) - 0.5) * 0.9 * [box.length, box.width, box.height]
        xyz.append(box.to_world(local))
        semantic += [CAR] * 40
        instance += [index] * 40
        boxes.append(simulator.SceneBox(CAR, box))
    xyz.append(np.column_stack([rng.uniform(-20.0, 20.0, (200, 2)), np.zeros(200)]))
    semantic += [simulator.GROUND] * 200
    instance += [0] * 200
    xyz = np.vstack(xyz)
    cloud = PointCloud(xyz, rng.uniform(0.05, 0.95, len(xyz)), semantic, instance)
    return simulator.Scene(sensor=SENSOR, cloud=cloud, boxes=boxes)


# six scenes: two batches of BATCH_SCENES = 4 and 2, variants 1, 2, 1, 2, 1, 2
SCENES = [car_scene(1, [(9.0, 3.0, 0.3)]), car_scene(2, [(-6.0, 7.5, 2.0)]),
          car_scene(3, [(4.0, -10.0, -1.0), (12.0, 8.0, 0.3)]), car_scene(4, []),
          car_scene(5, [(-12.0, -3.0, 1.2)]), car_scene(6, [(2.0, 14.0, -2.5)])]


def victim_for(mode):
    if mode == "detection":
        model = DetHeadMini()
        model.init_random(3)
        model.mlp.params["b3"][0] = 1.0  # every occupied anchor proposes
    else:
        model = SegNetMini(len(simulator.CLASS_NAMES))
        model.init_random(5)
    return model


def strong_bank():
    bank = make_bank(CAR, "car", DIMS, STEP, groups=3, variants=2, seed=0)
    bank.vectors[:] = np.random.default_rng(9).uniform(-0.3, 0.3, size=bank.vectors.shape)
    return bank


@pytest.mark.parametrize("mode", attack.MODES)
def test_fit_bank_is_byte_equal_to_one_adam_and_one_clamp_per_slot(mode):
    cfg = attack.AttackConfig(mode=mode, adversarial_class=CAR,
                              target_class=PERSON if mode == "seg-targeted" else None,
                              lr=0.05, iterations=4)
    bank, trace = attack.fit_bank(strong_bank(), SCENES, victim_for(mode), cfg)
    want, want_losses = loop_fit_bank(strong_bank(), SCENES, victim_for(mode), cfg)
    assert bank.vectors.tobytes() == want.vectors.tobytes()
    assert np.array(trace.losses).tobytes() == np.array(want_losses).tobytes()
    assert all(math.isfinite(loss) and loss != 0.0 for loss in trace.losses)

    # the case the per-slot step counts are for: a slot that one batch trains
    # and the other does not, besides slots that none trains
    work, unused = attack._prepare(SCENES, bank, cfg)
    batches = [{(group, item.variant) for item in work[start:start + attack.BATCH_SCENES]
                for group, _ in item.plans}
               for start in range(0, len(work), attack.BATCH_SCENES)]
    assert len(batches) == 2 and batches[0] ^ batches[1]
    assert unused and trace.unused_slots == unused
    # the clamp binds: some components end on the budget
    assert np.count_nonzero(np.abs(bank.vectors) == 0.3) > 0
    for group, variant in unused:
        assert bank.vectors[group - 1, variant - 1].tobytes() == \
            strong_bank().vectors[group - 1, variant - 1].tobytes()


def test_one_adam_steps_each_key_as_an_optimizer_of_its_own():
    rng = np.random.default_rng(3)
    params = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=7)}
    alone = {key: value.copy() for key, value in params.items()}
    optimizers = {key: LoopAdam(0.05) for key in params}
    adam = Adam(0.05)
    for keys in (["a"], ["a", "b"], ["b"], ["b"], ["a", "b"], ["a"]):
        grads = {key: rng.normal(size=params[key].shape) for key in keys}
        adam.step(params, grads)
        for key in keys:
            optimizers[key].step({key: alone[key]}, {key: grads[key]})
        for key in params:
            assert params[key].tobytes() == alone[key].tobytes()
    assert adam.t == {"a": 4, "b": 4}


def test_one_adam_stepping_every_key_is_the_one_step_count_adam():
    rng = np.random.default_rng(4)
    params = {"W": rng.normal(size=(6, 3)), "b": rng.normal(size=3)}
    joint = {key: value.copy() for key, value in params.items()}
    adam, loop = Adam(0.01), LoopAdam(0.01)
    for _ in range(5):
        grads = {key: rng.normal(size=value.shape) for key, value in params.items()}
        adam.step(params, grads)
        loop.step(joint, grads)
    assert all(params[key].tobytes() == joint[key].tobytes() for key in params)


@pytest.mark.parametrize("mode", attack.MODES)
def test_only_a_scene_loss_with_an_intensity_gradient_asks_for_the_clip_mask(mode, monkeypatch):
    calls = []
    clip_mask = attack.ShiftJacobian.tau_clip_active

    def counted(jac, cloud, fld):
        calls.append(mode)
        return clip_mask(jac, cloud, fld)

    monkeypatch.setattr(attack.ShiftJacobian, "tau_clip_active", counted)
    cfg = attack.AttackConfig(mode=mode, adversarial_class=CAR,
                              target_class=PERSON if mode == "seg-targeted" else None,
                              lr=0.05, iterations=2)
    attack.fit_bank(strong_bank(), SCENES, victim_for(mode), cfg)
    # the detector ignores intensity: its scene loss has a zero intensity gradient
    assert (len(calls) == 0) == (mode == "detection")
