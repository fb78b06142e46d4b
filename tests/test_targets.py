"""One target-selection path: ``rotation.target_boxes`` and the bank's box mode.

Fitting (``attack._prepare``), augmented training (``augment_scene``) and
evaluation (``deform_all_objects``) must deform the same boxes with the same
group's field, as the bank's recorded box mode dictates. Fitting and
evaluation plan their targets through ``field.plan_targets``.
"""

import math

import numpy as np
import pytest

from advfield import attack, evaluate, simulator
from advfield.cloudio import PointCloud
from advfield.field import deform, make_bank, plan_deformation
from advfield.geometry import OrientedBox, box_contains_many
from advfield.victim import SegNetMini
from advfield.rotation import (GroupScheme, axis_aligned_box_of_instance, group_of,
                               group_of_axis_aligned, target_boxes)

CAR = simulator.CAR
PERSON = simulator.CLASS_NAMES.index("person")
SENSOR = simulator.SensorSpec()
DIMS = (1.0, 0.8, 2.0)
STEP = 0.4
SIX = GroupScheme(6)


def car_box(x, y, yaw):
    return OrientedBox(np.array([x, y, 0.8]), 1.0, 0.8, 2.0, yaw)


def key(box):
    return (*box.center.tolist(), box.width, box.height, box.length, box.yaw)


def scene_of(parts, boxes):
    """``parts``: (box, class_id, instance, n_points) point groups inside boxes;
    ``boxes``: (class_id, box) scene boxes."""
    rng = np.random.default_rng(0)
    xyz, semantic, instance = [], [], []
    for box, class_id, inst, n in parts:
        local = (rng.random((n, 3)) - 0.5) * 0.9 * [box.length, box.width, box.height]
        xyz.append(box.to_world(local))
        semantic += [class_id] * n
        instance += [inst] * n
    cloud = PointCloud(np.vstack(xyz), np.full(len(semantic), 0.5), semantic, instance)
    return simulator.Scene(sensor=SENSOR, cloud=cloud,
                           boxes=[simulator.SceneBox(c, b) for c, b in boxes])


def marked_bank(groups, boxes):
    """A bank whose group-g field shifts intensity by exactly 0.01 * g."""
    bank = make_bank(CAR, "car", DIMS, STEP, groups, 1, seed=0, boxes=boxes)
    for f in bank.fields:
        f.vectors[:] = 0.0
        f.vectors[:, 3] = 0.01 * f.group
    return bank


def applied_groups(clean, deformed):
    """The set of groups whose field moved some point's intensity."""
    delta = deformed.intensity - clean.intensity
    return set(np.round(delta[delta != 0.0] / 0.01).astype(int).tolist())


# a car facing away from the sensor: its oriented and folded groups differ
AWAY = car_box(10.0, 0.0, math.pi)


def test_away_facing_car_separates_the_two_groupings():
    assert group_of(AWAY, SENSOR.origin, SIX) != group_of_axis_aligned(AWAY, SENSOR.origin, SIX)


class TestTargetBoxes:
    def test_keeps_scene_order_and_drops_boxes_without_class_points(self):
        a, empty, b = car_box(10.0, 5.0, 0.3), car_box(-8.0, 6.0, 1.0), car_box(4.0, -12.0, -2.0)
        person = car_box(-15.0, -3.0, 0.0)
        scene = scene_of([(a, CAR, 1, 40), (b, CAR, 2, 40), (person, CAR, 3, 40)],
                         [(CAR, a), (CAR, empty), (PERSON, person), (CAR, b)])
        targets = target_boxes(scene, CAR, "gt", SIX, STEP)
        assert [key(box) for box, _ in targets] == [key(a), key(b)]
        assert [g for _, g in targets] == [group_of(x, SENSOR.origin, SIX) for x in (a, b)]

    def test_axis_aligned_uses_instance_boxes_in_id_order_with_folded_groups(self):
        first, second = car_box(6.0, -9.0, 0.4), car_box(12.0, 4.0, math.pi)
        nowhere = car_box(-20.0, 0.0, 0.0)  # a GT box holding no car point
        scene = scene_of([(second, CAR, 7, 50), (first, CAR, 3, 50)], [(CAR, nowhere)])
        assert target_boxes(scene, CAR, "gt", SIX, STEP) == []
        targets = target_boxes(scene, CAR, "axis-aligned", SIX, STEP)
        expected = [axis_aligned_box_of_instance(scene.cloud, i, STEP) for i in (3, 7)]
        assert [key(box) for box, _ in targets] == [key(x) for x in expected]
        assert [g for _, g in targets] == [group_of_axis_aligned(x, SENSOR.origin, SIX)
                                           for x in expected]

    def test_unknown_mode_rejected(self):
        scene = scene_of([(AWAY, CAR, 1, 10)], [(CAR, AWAY)])
        with pytest.raises(ValueError, match="box mode"):
            target_boxes(scene, CAR, "oriented", SIX, STEP)


class TestBankBoxMode:
    def test_gt_bank_of_six_groups_uses_oriented_group(self):
        # six groups used to be taken as the sign of an axis-aligned bank
        scene = scene_of([(AWAY, CAR, 1, 60)], [(CAR, AWAY)])
        bank = marked_bank(6, "gt")
        want = {group_of(AWAY, SENSOR.origin, SIX)}
        augmented = evaluate.augment_scene(scene, bank, np.random.default_rng(0))
        assert applied_groups(scene.cloud, augmented) == want
        assert applied_groups(scene.cloud, evaluate.deform_all_objects(scene, bank)) == want
        cfg = attack.AttackConfig(mode="seg-untargeted", adversarial_class=CAR)
        (work,), unused = attack._prepare([scene], bank, cfg)
        assert {g for g, _ in work.plans} == want
        assert unused == [(g, 1) for g in range(1, 7) if g not in want]

    def test_axis_aligned_bank_deforms_instance_boxes_with_folded_group(self):
        nowhere = car_box(-20.0, 0.0, 0.0)
        scene = scene_of([(AWAY, CAR, 1, 60)], [(CAR, nowhere)])
        instance_box = axis_aligned_box_of_instance(scene.cloud, 1, STEP)
        want = {group_of_axis_aligned(instance_box, SENSOR.origin, SIX)}
        bank = marked_bank(6, "axis-aligned")
        assert applied_groups(scene.cloud, evaluate.deform_all_objects(scene, bank)) == want
        augmented = evaluate.augment_scene(scene, bank, np.random.default_rng(0))
        assert applied_groups(scene.cloud, augmented) == want
        # a gt bank finds no target: the only GT box holds no car point
        before = evaluate.augment_scene.skipped
        clean = evaluate.augment_scene(scene, marked_bank(6, "gt"), np.random.default_rng(0))
        assert clean is scene.cloud and evaluate.augment_scene.skipped == before + 1

    def test_bank_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="box mode"):
            make_bank(CAR, "car", DIMS, STEP, 2, 1, seed=0, boxes="oriented")

    def test_attack_config_has_no_box_mode(self):
        with pytest.raises(TypeError):
            attack.AttackConfig(mode="seg-untargeted", adversarial_class=CAR, boxes="gt")


def test_drop_boxes_keeps_order_and_drops_rounded_share():
    items = list(range(10))
    kept = attack.drop_boxes(items, 0.25, np.random.SeedSequence([0, 23, 0]))
    assert len(kept) == 10 - round(2.5) and kept == sorted(kept)
    assert kept == attack.drop_boxes(items, 0.25, np.random.SeedSequence([0, 23, 0]))
    assert attack.drop_boxes(items, 0.0, 0) == items


# four cars, each holding its own points, and a person
FLEET = [car_box(10.0, 5.0, 0.3), car_box(4.0, -12.0, -2.0), car_box(-9.0, 7.0, 2.5),
         car_box(-6.0, -8.0, -0.7)]


def fleet_scene(cars):
    person = car_box(-15.0, -3.0, 0.0)
    parts = [(box, CAR, i + 1, 40) for i, box in enumerate(cars)]
    boxes = [(CAR, box) for box in cars]
    return scene_of(parts + [(person, PERSON, 9, 40)], boxes + [(PERSON, person)])


def inline_deform_all(scene, bank, k=2):
    """Every target planned on the clean cloud and deformed with variant 1."""
    cloud = scene.cloud
    for box, group in target_boxes(scene, bank.class_id, bank.boxes,
                                   GroupScheme(bank.groups), bank.step):
        plan = plan_deformation(scene.cloud, box, bank.fields[0], scene.sensor.origin, k)
        cloud = deform(cloud, plan, bank.field(group, 1))
    return cloud


@pytest.mark.parametrize("mode", ["gt", "axis-aligned"])
def test_deform_all_objects_matches_the_inline_loop(mode):
    scene = fleet_scene(FLEET[:2])
    bank = make_bank(CAR, "car", DIMS, STEP, 6, 2, seed=1, boxes=mode)
    rng = np.random.default_rng(2)
    for f in bank.fields:
        f.vectors[:] = rng.uniform(-0.3, 0.3, size=f.vectors.shape)
    got, want = evaluate.deform_all_objects(scene, bank), inline_deform_all(scene, bank)
    assert np.array_equal(got.xyz, want.xyz)
    assert np.array_equal(got.intensity, want.intensity)
    moved = np.any(got.xyz != scene.cloud.xyz, axis=1)
    assert set(scene.cloud.instance[moved].tolist()) == {1, 2}


def test_prepare_keeps_the_boxes_drop_boxes_keeps():
    scene = fleet_scene(FLEET)
    bank = make_bank(CAR, "car", DIMS, STEP, 6, 1, seed=0)
    cfg = attack.AttackConfig(mode="seg-untargeted", adversarial_class=CAR,
                              box_drop=0.5, seed=3)
    (work,), _ = attack._prepare([scene], bank, cfg)
    kept = attack.drop_boxes(target_boxes(scene, CAR, "gt", SIX, STEP), 0.5,
                             np.random.SeedSequence([cfg.seed, 23, 0]))
    assert len(kept) == 2
    assert [(g, p.point_idx.tolist()) for g, p in work.plans] == [
        (g, np.flatnonzero(box_contains_many(box, scene.cloud.xyz)).tolist())
        for box, g in kept]


def test_fit_bank_rejects_a_bank_of_another_class():
    scene = fleet_scene(FLEET[:1])
    bank = make_bank(CAR, "car", DIMS, STEP, 1, 1, seed=0)
    cfg = attack.AttackConfig(mode="seg-untargeted", adversarial_class=PERSON,
                              iterations=1)
    with pytest.raises(ValueError, match="bank's class"):
        attack.fit_bank(bank, [scene], SegNetMini(len(simulator.CLASS_NAMES)), cfg)


def test_fit_bank_rejects_a_budget_the_bank_does_not_record():
    # the .vfb header records the bank's eps and psi, so the clamp must use them
    scene = fleet_scene(FLEET[:1])
    bank = make_bank(CAR, "car", DIMS, STEP, 1, 1, seed=0)
    victim = SegNetMini(len(simulator.CLASS_NAMES))
    for eps, psi in ((0.1, 0.3), (0.3, 0.1)):
        cfg = attack.AttackConfig(mode="seg-untargeted", adversarial_class=CAR,
                                  eps=eps, psi=psi, iterations=1)
        with pytest.raises(ValueError, match="budget"):
            attack.fit_bank(bank, [scene], victim, cfg)
