import math

import numpy as np
import pytest

from advfield import evaluate, simulator
from advfield.attack import AttackConfig
from advfield.cloudio import PointCloud
from advfield.field import (COINCIDENT_EPS, FieldBank, build_lattice, deform,
                            init_random, lattice_counts, make_bank,
                            plan_deformation, ShiftJacobian, VectorField, anchor,
                            anchored_vectors)
from advfield.geometry import OrientedBox, box_contains_many, rot_z
from advfield.victim import Adam

CAR_DIMS = (1.8, 1.6, 4.6)
SENSOR = np.array([0.0, 0.0, 1.7])


def one_slot_bank(dims, step, vectors, eps=0.3, psi=0.3):
    """A 1 x 1 bank of budget (eps, psi) holding ``vectors``, one row per root."""
    vectors = np.asarray(vectors, dtype=float).reshape(1, 1, -1, 4)
    return FieldBank(1, "car", dims, step, vectors, seed=0, eps=eps, psi=psi)


def box_cloud(rng, box, n=200, margin=0.95):
    """Random points inside a box plus some background points outside."""
    local = (rng.random((n, 3)) - 0.5) * margin
    local *= [box.length, box.width, box.height]
    inside = box.to_world(local)
    outside = rng.normal(size=(50, 3)) * 20 + [30, 30, 1]
    xyz = np.vstack([inside, outside])
    return PointCloud(xyz, rng.uniform(0.1, 0.9, len(xyz)),
                      np.ones(len(xyz), np.int32), np.ones(len(xyz), np.int32))


def dense_plan(cloud, box, fld, k):
    """Oracle of plan_deformation: distances to every root, one full argsort.

    Returns (point_idx, neighbor_idx, weights).
    """
    inside = np.flatnonzero(box_contains_many(box, cloud.xyz))
    points = cloud.xyz[inside]
    dist = np.linalg.norm(points[:, None, :] - anchor(fld, box)[None, :, :], axis=2)
    order = np.argsort(dist, axis=1, kind="stable")[:, :min(k, fld.size)]
    d = np.take_along_axis(dist, order, axis=1)
    weights = np.empty_like(d)
    coincident = d[:, 0] < COINCIDENT_EPS
    inv = 1.0 / d[~coincident]
    weights[~coincident] = inv / inv.sum(axis=1, keepdims=True)
    weights[coincident] = 0.0
    weights[coincident, 0] = 1.0
    return inside, order, weights


def displacement_block(plan, row, root):
    """d p'_i / d v_j (world frame) for affected-point row i and root j.

    The per-entry form of the shift Jacobian: w_ij * u_i u_i^T, summed over
    the neighbour slots of row i that hold root j, zero for non-neighbours.
    """
    u = plan.rays[row]
    w = float(plan.weights[row, plan.neighbor_idx[row] == root].sum())
    return w * np.outer(u, u)


class TestLattice:
    def test_car_lattice_count(self):
        assert build_lattice(CAR_DIMS, 0.2).size == 1656

    def test_single_cell(self):
        fld = build_lattice((1.0, 1.0, 1.0), 1.0)
        assert fld.size == 1
        assert np.allclose(fld.roots[0], 0.0)

    def test_person_lattice_matches_counting_oracle(self):
        # oracle: per-axis floor(extent / step) with exact decimal arithmetic
        from fractions import Fraction

        dims = (0.54, 1.7, 0.66)
        step = Fraction(5, 100)
        expected = 1
        for extent in dims:
            expected *= int(Fraction(str(extent)) / step)
        assert expected == 4420
        assert build_lattice(dims, 0.05).size == expected

    def test_counts_per_axis(self):
        assert lattice_counts(CAR_DIMS, 0.2) == (23, 9, 8)

    @pytest.mark.parametrize("dims, step", [((math.inf, 1.6, 4.6), 0.2),
                                            ((1.8, math.nan, 4.6), 0.2),
                                            ((1e308, 1.6, 4.6), 0.2),
                                            ((1.8, 1.6, 4.6), math.nan)])
    def test_a_lattice_needs_a_finite_cell_count(self, dims, step):
        with pytest.raises(ValueError, match="finite cell count"):
            lattice_counts(dims, step)

    def test_step_larger_than_extent_rejected(self):
        with pytest.raises(ValueError):
            build_lattice((1.0, 0.4, 2.0), 0.5)

    def test_roots_centered(self):
        fld = build_lattice(CAR_DIMS, 0.2)
        assert np.allclose(fld.roots.mean(axis=0), 0.0, atol=1e-12)
        assert fld.roots[:, 0].max() <= 4.6 / 2
        assert fld.roots[:, 1].max() <= 1.8 / 2
        assert fld.roots[:, 2].max() <= 1.6 / 2


class TestInitRandom:
    def test_deterministic(self):
        a = build_lattice(CAR_DIMS, 0.2)
        b = build_lattice(CAR_DIMS, 0.2)
        init_random(a, 42)
        init_random(b, 42)
        assert np.array_equal(a.vectors, b.vectors)

    def test_bounded_by_one_centimeter(self):
        fld = build_lattice(CAR_DIMS, 0.2)
        init_random(fld, 3)
        assert np.abs(fld.vectors).max() <= 0.01

    def test_different_seeds_differ_almost_everywhere(self):
        a = build_lattice(CAR_DIMS, 0.2)
        b = build_lattice(CAR_DIMS, 0.2)
        init_random(a, 1)
        init_random(b, 2)
        frac_diff = np.mean(a.vectors != b.vectors)
        assert frac_diff >= 0.99


class TestAnchor:
    def test_reference_box_is_identity(self):
        fld = build_lattice(CAR_DIMS, 0.2)
        box = OrientedBox(np.zeros(3), *CAR_DIMS, 0.0)
        assert np.allclose(anchor(fld, box), fld.roots, atol=1e-12)

    def test_per_axis_scaling(self):
        fld = build_lattice(CAR_DIMS, 0.2)
        box = OrientedBox(np.zeros(3), 1.8, 1.6, 9.2, 0.0)  # doubled length
        roots = anchor(fld, box)
        assert np.allclose(roots[:, 0], fld.roots[:, 0] * 2, atol=1e-12)
        assert np.allclose(roots[:, 1:], fld.roots[:, 1:], atol=1e-12)

    def test_quarter_turn_maps_length_to_y(self):
        fld = build_lattice(CAR_DIMS, 0.2)
        box = OrientedBox(np.zeros(3), *CAR_DIMS, math.pi / 2)
        roots = anchor(fld, box)
        oracle = fld.roots @ rot_z(math.pi / 2).T
        assert np.allclose(roots, oracle, atol=1e-12)

    def test_vectors_rotate_but_do_not_scale(self):
        fld = build_lattice(CAR_DIMS, 0.2)
        init_random(fld, 0)
        world = anchored_vectors(fld, math.pi / 2)
        norms = np.linalg.norm(world, axis=1)
        assert np.allclose(norms, np.linalg.norm(fld.vectors[:, :3], axis=1))
        assert np.allclose(world[:, 0], -fld.vectors[:, 1])


class TestPlan:
    def test_weights_split_between_equidistant_roots(self):
        fld = build_lattice((1.0, 1.0, 2.0), 1.0)  # two roots along x
        box = OrientedBox([10.0, 0.0, 0.5], 1.0, 1.0, 2.0, 0.0)
        cloud = PointCloud(np.array([[10.0, 0.0, 0.5]]), [0.5], [1], [1])
        plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
        assert np.allclose(plan.weights, [[0.5, 0.5]])

    def test_point_on_root_takes_full_weight(self):
        fld = build_lattice((1.0, 1.0, 2.0), 1.0)
        box = OrientedBox([10.0, 0.0, 0.5], 1.0, 1.0, 2.0, 0.0)
        root_world = anchor(fld, box)[0]
        cloud = PointCloud(root_world.reshape(1, 3), [0.5], [1], [1])
        plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
        assert plan.weights[0, 0] == 1.0
        assert plan.weights[0, 1] == 0.0

    def test_knn_matches_brute_force(self):
        rng = np.random.default_rng(11)
        box = OrientedBox([12.0, -4.0, 0.8], *CAR_DIMS, 0.6)
        cloud = box_cloud(rng, box, n=450)
        fld = build_lattice(CAR_DIMS, 0.2)
        plan = plan_deformation(cloud, box, fld, SENSOR, k=3)
        roots = anchor(fld, box)
        for row, idx in enumerate(plan.point_idx):
            d = np.linalg.norm(cloud.xyz[idx] - roots, axis=1)
            expected = np.argsort(d, kind="stable")[:3]
            assert np.array_equal(plan.neighbor_idx[row], expected)

    def test_window_search_equals_dense_search(self):
        rng = np.random.default_rng(23)
        cases = [((1.0, 1.0, 2.0), 1.0, (1.3, 0.9, 2.5))]  # 2 roots along x
        for _ in range(3):
            dims = tuple(rng.uniform(0.8, 2.4, 3))
            cases.append((dims, 0.2, tuple(np.array(dims) * rng.uniform(0.6, 1.7, 3))))
        cases.append((CAR_DIMS, 0.2, (2.0, 1.5, 4.2)))
        checked = 0
        for dims, step, box_dims in cases:
            fld = build_lattice(dims, step)
            for yaw in (0.0, math.pi / 2, math.pi, rng.uniform(-math.pi, math.pi)):
                box = OrientedBox(rng.normal(size=3) * 4 + [15.0, 0.0, 1.0],
                                  *box_dims, yaw)
                roots = anchor(fld, box)
                # exact roots and midpoints of neighbouring roots, where
                # distances tie, on top of random points inside the box
                on_roots = rng.choice(fld.size, min(20, fld.size), replace=False)
                pairs = on_roots[on_roots + 1 < fld.size]
                ties = 0.5 * (roots[pairs] + roots[pairs + 1])
                cloud = box_cloud(rng, box, n=60)
                xyz = np.vstack([cloud.xyz, roots[on_roots], ties])
                cloud = PointCloud(xyz, np.full(len(xyz), 0.5),
                                   np.ones(len(xyz), np.int32),
                                   np.ones(len(xyz), np.int32))
                for k in (1, 2, 3, 5, fld.size + 1):
                    plan = plan_deformation(cloud, box, fld, SENSOR, k)
                    inside, idx, weights = dense_plan(cloud, box, fld, k)
                    assert np.array_equal(plan.point_idx, inside)
                    assert np.array_equal(plan.neighbor_idx, idx)
                    assert np.array_equal(plan.weights, weights)
                    checked += plan.n_affected
        assert checked > 5_000

    def test_sensor_coincident_point_rejected(self):
        fld = build_lattice((1.0, 1.0, 1.0), 0.5)
        box = OrientedBox(SENSOR, 1.0, 1.0, 1.0, 0.0)
        cloud = PointCloud(SENSOR.reshape(1, 3), [0.5], [1], [1])
        with pytest.raises(ValueError, match="sensor"):
            plan_deformation(cloud, box, fld, SENSOR, k=1)

    def test_weight_normalization_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            box = OrientedBox(rng.normal(size=3) * 5 + [15, 0, 1],
                              *rng.uniform(0.8, 4.0, 3),
                              rng.uniform(-math.pi, math.pi))
            cloud = box_cloud(rng, box, n=80)
            fld = build_lattice((box.width, box.height, box.length), 0.4)
            plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
            assert np.all(plan.weights >= 0)
            assert np.allclose(plan.weights.sum(axis=1), 1.0, atol=1e-12)


class TestDeform:
    def _setup(self, seed=13, yaw=0.4):
        rng = np.random.default_rng(seed)
        box = OrientedBox([14.0, 5.0, 0.8], *CAR_DIMS, yaw)
        cloud = box_cloud(rng, box)
        fld = build_lattice(CAR_DIMS, 0.2)
        init_random(fld, seed)
        plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
        return cloud, box, fld, plan

    def test_zero_field_is_identity(self):
        cloud, _, fld, plan = self._setup()
        fld.vectors[:] = 0.0
        out = deform(cloud, plan, fld)
        assert np.array_equal(out.xyz, cloud.xyz)
        assert np.array_equal(out.intensity, cloud.intensity)
        assert np.array_equal(out.semantic, cloud.semantic)

    def test_single_colinear_vector_slides_point(self):
        fld = build_lattice((1.0, 1.0, 1.0), 1.0)
        box = OrientedBox([10.0, 0.0, 1.7], 1.0, 1.0, 1.0, 0.0)
        cloud = PointCloud(box.center.reshape(1, 3), [0.5], [1], [1])
        plan = plan_deformation(cloud, box, fld, SENSOR, k=1)
        ray = plan.rays[0]
        fld.vectors[0, :3] = 0.25 * ray
        out = deform(cloud, plan, fld)
        assert np.allclose(out.xyz[0], cloud.xyz[0] + 0.25 * ray, atol=1e-12)

    def test_points_move_only_along_their_rays(self):
        cloud, _, fld, plan = self._setup()
        out = deform(cloud, plan, fld)
        moved = out.xyz[plan.point_idx] - cloud.xyz[plan.point_idx]
        cross = np.cross(moved, plan.rays)
        assert np.abs(cross).max() < 1e-9

    def test_displacement_bounded_by_clamp(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            box = OrientedBox([12, -3, 0.8], *CAR_DIMS, rng.uniform(-3, 3))
            cloud = box_cloud(rng, box, n=150)
            fld = build_lattice(CAR_DIMS, 0.2)
            vectors = rng.normal(scale=1.0, size=fld.vectors.shape)
            eps = rng.uniform(0.05, 0.4)
            bank = one_slot_bank(CAR_DIMS, 0.2, vectors, eps=eps)
            bank.clamp()
            fld = bank.fields[0]
            plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
            out = deform(cloud, plan, fld)
            shift = np.linalg.norm(out.xyz - cloud.xyz, axis=1)
            assert shift.max() <= math.sqrt(3) * eps + 1e-12

    def test_intensity_bounds_and_clip(self):
        rng = np.random.default_rng(15)
        cloud, _, fld, plan = self._setup(seed=16)
        fld.vectors[:, 3] = rng.normal(scale=2.0, size=fld.size)
        psi = 0.25
        bank = one_slot_bank(fld.dims, fld.step, fld.vectors, psi=psi)
        bank.clamp()
        fld = bank.fields[0]
        out = deform(cloud, plan, fld)
        assert out.intensity.min() >= 0.0 and out.intensity.max() <= 1.0
        # pre-clip shift is a convex combination of clamped components
        raw_shift = out.intensity[plan.point_idx] - cloud.intensity[plan.point_idx]
        assert np.abs(raw_shift).max() <= psi + 1e-12

    def test_unaffected_points_untouched(self):
        cloud, _, fld, plan = self._setup()
        out = deform(cloud, plan, fld)
        untouched = np.setdiff1d(np.arange(cloud.n), plan.point_idx)
        assert np.array_equal(out.xyz[untouched], cloud.xyz[untouched])
        assert np.array_equal(out.intensity[untouched], cloud.intensity[untouched])

    def test_deterministic(self):
        cloud, _, fld, plan = self._setup(seed=21)
        out1 = deform(cloud, plan, fld)
        out2 = deform(cloud, plan, fld)
        assert np.array_equal(out1.xyz, out2.xyz)
        assert np.array_equal(out1.intensity, out2.intensity)


class TestClamp:
    def test_component_clip(self):
        for eps, psi, want in [(0.3, 0.3, [0.3, -0.3, 0.1, 0.3]),
                               (0.2, 0.4, [0.2, -0.2, 0.1, 0.4]),
                               (0.4, 0.2, [0.4, -0.4, 0.1, 0.2])]:
            bank = one_slot_bank((1, 1, 1), 0.5, np.zeros((8, 4)), eps=eps, psi=psi)
            bank.vectors[0, 0, :2] = [[0.5, -0.6, 0.1, 0.9], [0.05, 0.0, -0.05, -0.1]]
            bank.clamp()
            assert bank.vectors[0, 0, 0].tolist() == want
            assert bank.vectors[0, 0, 1].tolist() == [0.05, 0.0, -0.05, -0.1]

    def test_feasible_field_unchanged(self):
        bank = make_bank(1, "car", (1, 1, 1), 0.5, groups=2, variants=2, seed=0)
        before = bank.vectors.copy()
        bank.clamp()
        assert bank.vectors.tobytes() == before.tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        bank = one_slot_bank((1, 1, 1), 0.5, rng.normal(scale=1.0, size=(8, 4)),
                             eps=0.2, psi=0.1)
        bank.clamp()
        once = bank.vectors.copy()
        bank.clamp()
        assert np.array_equal(bank.vectors, once)

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError, match="eps and psi must be finite and positive"):
            one_slot_bank((1, 1, 1), 0.5, np.zeros((8, 4)), eps=0.0, psi=0.1)


class TestShiftJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        box = OrientedBox([10.0, 2.0, 0.8], *CAR_DIMS, 0.7)
        cloud = box_cloud(rng, box, n=40)
        fld = build_lattice(CAR_DIMS, 0.4)
        init_random(fld, 19)
        plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
        jac = ShiftJacobian(plan)
        dpos = rng.normal(size=(plan.n_affected, 3))
        dtau = rng.normal(size=plan.n_affected)
        clip = jac.tau_clip_active(cloud, fld)
        grad = jac.vector_gradient(dpos, dtau, fld.size, clip_active=clip)

        idx = plan.point_idx

        def objective(f):
            # measured on the shift from the clean cloud: the same gradient as
            # on the deformed outputs, without summing world coordinates of
            # ~10 m whose roundoff would swamp the small components
            out = deform(cloud, plan, f)
            return float((dpos * (out.xyz[idx] - cloud.xyz[idx])).sum()
                         + (dtau * (out.intensity[idx] - cloud.intensity[idx])).sum())

        # with the plan frozen and no intensity clip switching, deform is
        # affine in the field vectors, so central differences carry no
        # truncation error and a large step only shrinks their roundoff
        h = 1e-4
        used = np.unique(plan.neighbor_idx)
        checked = 0
        for j in rng.choice(used, min(12, len(used)), replace=False):
            for c in range(4):
                f1, f2 = (VectorField(fld.dims, fld.step, fld.vectors.copy())
                          for _ in range(2))
                f1.vectors[j, c] += h
                f2.vectors[j, c] -= h
                assert np.array_equal(jac.tau_clip_active(cloud, f1), clip)
                assert np.array_equal(jac.tau_clip_active(cloud, f2), clip)
                fd = (objective(f1) - objective(f2)) / (2 * h)
                rel = abs(fd - grad[j, c]) / max(abs(fd), abs(grad[j, c]), 1e-9)
                assert rel <= 1e-6, (j, c, fd, grad[j, c])
                checked += 1
        assert checked >= 40

    def test_zero_for_non_neighbor_roots(self):
        rng = np.random.default_rng(20)
        box = OrientedBox([10.0, 0.0, 0.8], *CAR_DIMS, 0.0)
        cloud = box_cloud(rng, box, n=10)
        fld = build_lattice(CAR_DIMS, 0.2)
        plan = plan_deformation(cloud, box, fld, SENSOR, k=2)
        jac = ShiftJacobian(plan)
        grad = jac.vector_gradient(np.ones((plan.n_affected, 3)),
                                   np.ones(plan.n_affected), fld.size)
        non_neighbors = np.setdiff1d(np.arange(fld.size),
                                     np.unique(plan.neighbor_idx))
        assert np.all(grad[non_neighbors] == 0.0)

    def test_unit_ray_block(self):
        fld = build_lattice((1.0, 1.0, 1.0), 1.0)
        box = OrientedBox([10.0, 0.0, 1.7], 1.0, 1.0, 1.0, 0.0)
        cloud = PointCloud(np.array([[10.5, 0.0, 1.7]]), [0.5], [1], [1])
        plan = plan_deformation(cloud, box, fld, SENSOR, k=1)
        block = displacement_block(plan, 0, int(plan.neighbor_idx[0, 0]))
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(block, np.outer(e1, e1), atol=1e-12)

    def test_gradient_is_the_sum_of_displacement_blocks(self):
        rng = np.random.default_rng(22)
        box = OrientedBox([11.0, -2.0, 0.8], *CAR_DIMS, -1.1)
        cloud = box_cloud(rng, box, n=30)
        fld = build_lattice(CAR_DIMS, 0.4)
        plan = plan_deformation(cloud, box, fld, SENSOR, k=3)
        dpos = rng.normal(size=(plan.n_affected, 3))
        grad = ShiftJacobian(plan).vector_gradient(dpos, np.zeros(plan.n_affected),
                                                    fld.size)
        world = np.zeros((fld.size, 3))
        for row in range(plan.n_affected):
            for root in np.unique(plan.neighbor_idx[row]):
                world[root] += displacement_block(plan, row, root).T @ dpos[row]
        assert np.allclose(grad[:, :3], world @ rot_z(plan.yaw), rtol=1e-12, atol=1e-14)


    def test_is_bit_equal_to_the_scatter_oracle_on_planned_desk_cars(self):
        sensor = simulator.SensorSpec(channels=20, elevation_min=math.radians(-15.0),
                                      elevation_max=math.radians(4.0),
                                      azimuth_resolution=math.radians(0.7))
        car = simulator.CLASS_NAMES.index("car")
        fld = build_lattice(CAR_DIMS, 0.2)
        rng = np.random.default_rng(23)
        planned = 0
        for seed, domain in ((0, "normal"), (1, "rare"), (2, "damaged")):
            scene = simulator.generate_scene(seed, domain, None, sensor)
            for scene_box in scene.boxes:
                if scene_box.class_id != car:
                    continue
                plan = plan_deformation(scene.cloud, scene_box.box, fld,
                                        sensor.origin, k=2)
                if plan.n_affected == 0:
                    continue
                planned += 1
                jac = ShiftJacobian(plan)
                dpos = rng.normal(size=(plan.n_affected, 3))
                dtau = rng.normal(size=plan.n_affected)
                clip = rng.random(plan.n_affected) < 0.2
                grad = jac.vector_gradient(dpos, dtau, fld.size, clip_active=clip)

                # the np.add.at scatter that vector_gradient replaced
                want = np.zeros((fld.size, 4))
                along = np.einsum("ac,ac->a", dpos, plan.rays)
                contrib = plan.weights[:, :, None] * (along[:, None, None]
                                                      * plan.rays[:, None, :])
                np.add.at(want[:, :3], plan.neighbor_idx, contrib)
                want[:, :3] = want[:, :3] @ rot_z(plan.yaw)
                np.add.at(want[:, 3], plan.neighbor_idx,
                          plan.weights * np.where(clip, 0.0, dtau)[:, None])
                assert grad.tobytes() == want.tobytes()
        assert planned >= 3


@pytest.mark.parametrize("k", [1, 2, 8])
def test_a_box_that_holds_no_point_plans_moves_and_differentiates_nothing(k):
    rng = np.random.default_rng(4)
    cloud = box_cloud(rng, OrientedBox([14.0, 5.0, 0.8], *CAR_DIMS, 0.4))
    far = OrientedBox([500.0, -500.0, 0.8], *CAR_DIMS, 0.4)
    fld = build_lattice(CAR_DIMS, 0.2)
    init_random(fld, 4)
    plan = plan_deformation(cloud, far, fld, SENSOR, k)
    assert plan.n_affected == 0 and plan.yaw == far.yaw
    for got, shape, dtype in ((plan.point_idx, (0,), np.int64),
                              (plan.neighbor_idx, (0, k), np.int64),
                              (plan.weights, (0, k), np.float64),
                              (plan.rays, (0, 3), np.float64)):
        assert got.shape == shape and got.dtype == dtype

    out = deform(cloud, plan, fld)
    for name in ("xyz", "intensity", "semantic", "instance"):
        got, want = getattr(out, name), getattr(cloud, name)
        assert got is not want and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    jac = ShiftJacobian(plan)
    clip = jac.tau_clip_active(cloud, fld)
    assert clip.shape == (0,)
    grad = jac.vector_gradient(np.zeros((0, 3)), np.zeros(0), fld.size, clip)
    assert grad.shape == (fld.size, 4)
    assert grad.tobytes() == np.zeros((fld.size, 4)).tobytes()  # no -0.0 either


def test_make_bank_shapes_and_slots():
    bank = make_bank(1, "car", CAR_DIMS, 0.2, groups=12, variants=6, seed=0)
    assert len(bank.fields) == 72
    assert {(f.group, f.variant) for f in bank.fields} == {
        (g, n) for g in range(1, 13) for n in range(1, 7)}
    total = sum(f.size for f in bank.fields)
    assert total == 119_232


def test_make_bank_slots_match_the_per_field_oracle():
    bank = make_bank(1, "car", CAR_DIMS, 0.2, groups=3, variants=2, seed=11)
    assert bank.vectors.shape == (3, 2, 1656, 4)
    for fld in bank.fields:
        oracle = build_lattice(CAR_DIMS, 0.2, fld.group, fld.variant)
        init_random(oracle, np.random.SeedSequence([11, 29, fld.group, fld.variant]))
        assert bank.field(fld.group, fld.variant) is fld
        assert fld.vectors.tobytes() == oracle.vectors.tobytes()
        assert fld.vectors.tobytes() == bank.vectors[fld.group - 1, fld.variant - 1].tobytes()
        assert (fld.dims, fld.step) == (oracle.dims, oracle.step) == (bank.dims, bank.step)
        assert fld.roots.tobytes() == oracle.roots.tobytes()


def test_make_bank_clamps_its_draw_to_its_own_budget():
    wide = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups=2, variants=3, seed=5)
    small = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups=2, variants=3, seed=5,
                      eps=0.005, psi=0.002)
    # at eps = psi = 0.3 the bank holds the U(-0.01, 0.01) draw itself
    for fld in wide.fields:
        oracle = build_lattice((1.0, 0.8, 2.0), 0.4)
        init_random(oracle, np.random.SeedSequence([5, 29, fld.group, fld.variant]))
        assert fld.vectors.tobytes() == oracle.vectors.tobytes()
    assert np.abs(wide.vectors[..., :3]).max() > 0.005
    assert np.abs(wide.vectors[..., 3]).max() > 0.002
    assert np.abs(small.vectors[..., :3]).max() == 0.005
    assert np.abs(small.vectors[..., 3]).max() == 0.002
    want = np.concatenate([np.clip(wide.vectors[..., :3], -0.005, 0.005),
                           np.clip(wide.vectors[..., 3:], -0.002, 0.002)], axis=3)
    assert small.vectors.tobytes() == want.tobytes()


def test_analyze_fields_compares_a_small_budget_bank_with_its_clamped_start():
    bank = make_bank(1, "car", CAR_DIMS, 0.2, groups=2, variants=1, seed=3,
                     eps=0.005, psi=0.005)
    start = bank.vectors[..., :3].copy()
    # slot (1, 1) pushes every spatial component out to the budget; (2, 1) stays
    bank.vectors[0, 0, :, :3] = np.copysign(0.005, start[0, 0])
    grew = np.linalg.norm(bank.vectors[..., :3], axis=-1) > np.linalg.norm(start, axis=-1)
    assert grew.sum(axis=-1).tolist() == [[1475], [0]]
    assert [row["active"] for row in evaluate.analyze_fields(bank)] == [1475, 0]


def test_optimizer_steps_and_clamps_write_into_the_bank():
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups=2, variants=3, seed=0, psi=0.2)
    before = bank.vectors.copy()
    Adam(0.5).step({(2, 3): bank.vectors[1, 2]}, {(2, 3): np.ones_like(bank.vectors[1, 2])})
    assert np.all(bank.field(2, 3).vectors < -0.4)
    bank.clamp()
    assert np.all(bank.vectors[1, 2, :, :3] == -0.3)
    assert np.all(bank.vectors[1, 2, :, 3] == -0.2)
    assert np.array_equal(bank.vectors[:1], before[:1])
    assert np.array_equal(bank.vectors[1, :2], before[1, :2])


def test_every_field_shares_one_read_only_roots_array():
    bank = make_bank(1, "car", CAR_DIMS, 0.2, groups=4, variants=3, seed=0)
    other = make_bank(1, "car", list(CAR_DIMS), 0.2, groups=1, variants=1, seed=1)
    roots = bank.fields[0].roots
    assert all(f.roots is roots for f in bank.fields + other.fields)
    assert not roots.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        roots[0, 0] = 1.0


@pytest.mark.parametrize("slot", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 1)])
def test_a_slot_outside_the_grid_has_no_field(slot):
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups=2, variants=2, seed=0)
    with pytest.raises(KeyError, match=f"no field for group {slot[0]}, variant {slot[1]}"):
        bank.field(*slot)


@pytest.mark.parametrize("shape, message", [
    ((2, 20, 4), "array vectors has shape \\(2, 20, 4\\), expected \\(G, N, 20, 4\\)"),
    ((2, 1, 20, 3), "array vectors has shape \\(2, 1, 20, 3\\), expected \\(G, N, 20, 4\\)"),
    ((0, 1, 20, 4), "G, N >= 1"), ((2, 0, 20, 4), "G, N >= 1"),
    ((2, 1, 19, 4), "array vectors has shape \\(2, 1, 19, 4\\), expected \\(G, N, 20, 4\\)")])
def test_bank_vectors_must_be_a_grid_of_whole_lattices(shape, message):
    with pytest.raises(ValueError, match=message):
        FieldBank(1, "car", (1.0, 0.8, 2.0), 0.4, np.zeros(shape), seed=0)


@pytest.mark.parametrize("groups, variants", [(-1, 1), (1, -1), (0, 2), (2, 0), (-3, -3)])
def test_make_bank_refuses_an_empty_or_negative_grid_before_allocating(groups, variants):
    with pytest.raises(ValueError, match=f"bank needs G, N >= 1, got G={groups}, N={variants}"):
        make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups=groups, variants=variants, seed=0)


# a nan budget passes every `<= 0` test and would fit a bank of nan vectors
@pytest.mark.parametrize("eps, psi", [(math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3),
                                      (0.3, math.inf), (-1.0, 0.3), (0.3, 0.0)])
def test_budgets_must_be_finite_and_positive(eps, psi):
    message = "eps and psi must be finite and positive"
    with pytest.raises(ValueError, match=message):
        make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups=1, variants=1, seed=0,
                  eps=eps, psi=psi)
    with pytest.raises(ValueError, match=message):
        AttackConfig(mode="seg-untargeted", adversarial_class=1, eps=eps, psi=psi)
