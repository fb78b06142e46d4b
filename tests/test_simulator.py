import math
import re
from unittest import mock

import numpy as np
import pytest

from advfield import cloudio, simulator
from advfield.geometry import OrientedBox
from advfield.simulator import CAR
from artifact_edit import rewrite_line


def test_written_scene_reads_back_exactly(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    scene = simulator.generate_scene(3, "normal", 4, sensor)
    assert scene.boxes and scene.cloud.n
    simulator.write_sensor_config(sensor, tmp_path)
    simulator.write_scene(scene, tmp_path, 0)
    (back,) = simulator.load_split(tmp_path)

    assert back.sensor == sensor
    assert [sb.class_id for sb in back.boxes] == [sb.class_id for sb in scene.boxes]
    for written, read in zip(scene.boxes, back.boxes):
        a, b = written.box, read.box
        assert a.center.tobytes() == b.center.tobytes()
        assert (a.width, a.height, a.length, a.yaw) == (b.width, b.height, b.length, b.yaw)

    c = scene.cloud
    as_f32 = lambda x: x.astype(np.float32).astype(float).tobytes()
    assert back.cloud.xyz.tobytes() == as_f32(c.xyz)
    assert back.cloud.intensity.tobytes() == as_f32(c.intensity)
    assert np.array_equal(back.cloud.semantic, c.semantic)
    assert np.array_equal(back.cloud.instance, c.instance)


def test_the_ray_cap_is_checked_before_any_ray_exists():
    default = simulator.SensorSpec()
    assert simulator.MAX_RAYS >= 100 * len(default.ray_directions()) == 100 * 28_800
    # 32 channels of 125,000 columns is the cap itself; one column more is refused
    at_cap = simulator.SensorSpec(azimuth_resolution=2 * math.pi / 125_000)
    assert at_cap.channels * len(at_cap.azimuths()) == simulator.MAX_RAYS
    with pytest.raises(ValueError, match="casts 4000032 rays a turn"):
        simulator.SensorSpec(azimuth_resolution=2 * math.pi / 125_001)
    with pytest.raises(ValueError, match="more than the 4000000 allowed"):
        simulator.SensorSpec(channels=10**12)


def test_sensor_config_creates_its_directory(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    directory = tmp_path / "new" / "split"
    simulator.write_sensor_config(sensor, directory)
    assert simulator.read_sensor_config(directory) == sensor


def test_write_split_is_what_load_split_reads(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    scenes = [simulator.generate_scene(seed, "rare", 3, sensor) for seed in (4, 9)]
    directory = tmp_path / "new" / "split"
    simulator.write_split(scenes, directory, sensor)
    assert sorted(p.name for p in directory.iterdir()) == [
        "000000.bin", "000000.boxes", "000000.label",
        "000001.bin", "000001.boxes", "000001.label", "sensor.cfg"]
    back = simulator.load_split(directory)
    assert [scene.sensor for scene in back] == [sensor, sensor]
    for written, read in zip(scenes, back):
        assert np.array_equal(written.cloud.semantic, read.cloud.semantic)
        assert len(written.boxes) == len(read.boxes)
    simulator.write_split([], tmp_path / "none", sensor)
    assert [p.name for p in (tmp_path / "none").iterdir()] == ["sensor.cfg"]


DESK_SENSOR = simulator.SensorSpec(channels=20, elevation_min=math.radians(-15.0),
                                   elevation_max=math.radians(4.0),
                                   azimuth_resolution=math.radians(0.7))

# sensor.cfg as the per-key writer wrote it, for the default and the desk sensor
SENSOR_CFG = {
    "default": (simulator.SensorSpec(),
                b"origin_height = 1.7\nchannels = 32\nelevation_min = -0.4363323129985824\n"
                b"elevation_max = 0.05235987755982989\n"
                b"azimuth_resolution = 0.006981317007977318\nmax_range = 80.0\n"
                b"range_noise = 0.01\nclasses = ground,car,person,building,vegetation\n"),
    "desk": (DESK_SENSOR,
             b"origin_height = 1.7\nchannels = 20\nelevation_min = -0.2617993877991494\n"
             b"elevation_max = 0.06981317007977318\n"
             b"azimuth_resolution = 0.012217304763960306\nmax_range = 80.0\n"
             b"range_noise = 0.01\nclasses = ground,car,person,building,vegetation\n"),
}


@pytest.mark.parametrize("name", sorted(SENSOR_CFG))
def test_sensor_config_bytes_are_fixed(name, tmp_path):
    sensor, expected = SENSOR_CFG[name]
    simulator.write_sensor_config(sensor, tmp_path)
    assert (tmp_path / "sensor.cfg").read_bytes() == expected
    assert simulator.read_sensor_config(tmp_path) == sensor


SENSOR_KEYS = ["origin_height", "channels", "elevation_min", "elevation_max",
               "azimuth_resolution", "max_range", "range_noise", "classes"]


def test_every_sensor_config_line_is_read(tmp_path):
    simulator.write_sensor_config(DESK_SENSOR, tmp_path)
    path = tmp_path / "sensor.cfg"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line.partition(" = ")[0] for line in lines] == SENSOR_KEYS
    for at, key in enumerate(SENSOR_KEYS):
        path.write_text("".join(f"{line}\n" for line in lines[:at] + lines[at + 1:]),
                        encoding="utf-8")
        with pytest.raises(cloudio.FormatError, match=f"sensor.cfg: missing key '{key}'"):
            simulator.read_sensor_config(tmp_path)


@pytest.mark.parametrize("key", ["elevation_min", "elevation_max"])
def test_an_elevation_past_the_zenith_or_the_nadir_is_refused(tmp_path, key):
    # such a channel points back across the sensor, against the azimuth its
    # rays are culled by: at 171 degrees the caster dropped half of a
    # building's hits
    for value in (math.radians(171.0), -math.pi / 2.0 - 1e-9, math.pi / 2.0 + 1e-9):
        with pytest.raises(ValueError, match=f"{key} {value!r} rad is outside"):
            simulator.SensorSpec(channels=8, **{key: value})
    edge = simulator.SensorSpec(elevation_min=-math.pi / 2.0, elevation_max=math.pi / 2.0)
    assert edge.elevations()[[0, -1]].tolist() == [-math.pi / 2.0, math.pi / 2.0]
    simulator.write_sensor_config(DESK_SENSOR, tmp_path)
    path = tmp_path / "sensor.cfg"
    path.write_bytes(rewrite_line(path.read_bytes(), f"{key} = ", f"{key} = 2.0"))
    with pytest.raises(cloudio.FormatError, match=f"sensor.cfg: {key} 2.0 rad is outside"):
        simulator.read_sensor_config(tmp_path)


@pytest.mark.parametrize("key", ["origin_height", "max_range"])
def test_a_sensor_height_or_range_above_the_cap_is_refused(tmp_path, key):
    # at 1e300 m the sphere caster's squared distance overflowed to inf
    cap = simulator.MAX_RANGE
    simulator.SensorSpec(**{key: cap})
    for value in (math.nextafter(cap, math.inf), 1e300):
        with pytest.raises(ValueError, match=re.escape(f"{key} {value!r} m is above the 10000 m")):
            simulator.SensorSpec(**{key: value})
    simulator.write_sensor_config(DESK_SENSOR, tmp_path)
    path = tmp_path / "sensor.cfg"
    path.write_bytes(rewrite_line(path.read_bytes(), f"{key} = ", f"{key} = 1e300"))
    with pytest.raises(cloudio.FormatError, match=re.escape(f"sensor.cfg: {key} 1e+300 m")):
        simulator.read_sensor_config(tmp_path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [k for k in SENSOR_KEYS if k not in ("channels", "classes")])
def test_a_non_finite_sensor_config_value_is_refused(tmp_path, key, value):
    simulator.write_sensor_config(DESK_SENSOR, tmp_path)
    path = tmp_path / "sensor.cfg"
    path.write_bytes(rewrite_line(path.read_bytes(), f"{key} = ", f"{key} = {value}"))
    with pytest.raises(cloudio.FormatError, match=f"sensor.cfg: {key} {value} is not a finite"):
        simulator.read_sensor_config(tmp_path)


def test_paired_domains_share_their_non_car_points():
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    splits = simulator.make_splits(5, sizes=(0, 3, 3, 3), sensor=sensor, n_objects=4)
    for i, clean in enumerate(splits["val"]):
        keep = clean.cloud.semantic != simulator.CAR
        assert keep.any() and not keep.all()
        for name in ("ood-rare", "ood-damaged"):
            other = splits[name][i].cloud
            mask = other.semantic != simulator.CAR
            # the domains differ only in their cars
            assert clean.cloud.xyz[~keep].tobytes() != other.xyz[~mask].tobytes()
            for attr in ("xyz", "intensity", "instance"):
                a = getattr(clean.cloud, attr)[keep]
                b = getattr(other, attr)[mask]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name, attr)


@pytest.mark.parametrize("sensor", [simulator.SensorSpec(),
                                    simulator.SensorSpec(channels=8, azimuth_resolution=0.05)],
                         ids=["default", "eight-channels"])
def test_ray_directions_are_the_formula_computed_once_and_read_only(sensor):
    azimuth = np.arange(int(round(2.0 * math.pi / sensor.azimuth_resolution))) \
        * sensor.azimuth_resolution
    elevation = np.linspace(sensor.elevation_min, sensor.elevation_max, sensor.channels)
    az, el = np.meshgrid(azimuth, elevation)
    want = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)],
                    axis=-1).reshape(-1, 3)
    dirs = sensor.ray_directions()
    assert dirs.dtype == want.dtype and dirs.tobytes() == want.tobytes()
    assert simulator.SensorSpec(**vars(sensor)).ray_directions() is dirs
    with pytest.raises(ValueError, match="read-only"):
        dirs[0, 0] = 0.0


# ---------------------------------------------------------------------------
# per-object ray culling against the all-rays caster
# ---------------------------------------------------------------------------

EIGHT = simulator.SensorSpec(channels=8)
# channels at -10, -5, ..., 25 degrees: five look up
UPWARD = simulator.SensorSpec(channels=8, elevation_min=math.radians(-10.0),
                              elevation_max=math.radians(25.0))
# 30 m up, above every object, with channels down to -60 degrees
HIGH = simulator.SensorSpec(origin_height=30.0, channels=8,
                            elevation_min=math.radians(-60.0))
PERSON = simulator.CLASS_NAMES.index("person")
BUILDING = simulator.CLASS_NAMES.index("building")
VEGETATION = simulator.CLASS_NAMES.index("vegetation")


def every_ray(obj, sensor):
    return np.arange(len(sensor.ray_directions()))


def all_rays(fn, *args):
    """The oracle: ``fn`` with every object intersected with every ray."""
    with mock.patch.object(simulator, "_sector_rays", every_ray):
        return fn(*args)


def assert_same_cloud(got, want):
    for name in ("xyz", "intensity", "semantic", "instance"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def spec(class_id, x, y, w, h, l, yaw=0.0, lift=0.0, instance=1, roughness=0.0):
    box = OrientedBox(np.array([x, y, h / 2.0 + lift]), w, h, l, yaw)
    return simulator.ObjectSpec(class_id, box, instance, 0.5, roughness=roughness)


def car(x, y, yaw=0.0, instance=1):
    return spec(CAR, x, y, *simulator.CANONICAL_CAR_DIMS, yaw=yaw, instance=instance)


def cast_both(objects, sensor=EIGHT, seed=0):
    got = simulator.raycast(objects, sensor, seed)
    assert_same_cloud(got, all_rays(simulator.raycast, objects, sensor, seed))
    return got


@pytest.mark.parametrize("domain", ["normal", "rare", "damaged"])
def test_generated_scenes_match_the_all_rays_caster(domain):
    # seed 7 shows a tree crown, whose roughness jitter is drawn per ray and
    # indexed by the sector
    cases = [(seed, EIGHT) for seed in (0, 1, 2, 3, 7)] + [(4, simulator.SensorSpec())]
    rough = 0
    for seed, sensor in cases:
        with mock.patch.object(simulator, "raycast", wraps=simulator.raycast) as cast:
            got = simulator.generate_scene(seed, domain, sensor=sensor)
        if any(o.class_id == VEGETATION and o.roughness > 0 for o in cast.call_args.args[0]):
            rough += np.count_nonzero(got.cloud.semantic == VEGETATION)
        want = all_rays(simulator.generate_scene, seed, domain, None, sensor)
        assert_same_cloud(got.cloud, want.cloud)
    assert rough


def test_of_equally_near_hits_the_earlier_object_wins():
    # an object takes a ray's nearest hit only where it is strictly nearer
    first, second = (spec(BUILDING, 12.0, 3.0, 3.0, 4.0, 5.0, yaw=0.3, instance=i)
                     for i in (1, 2))
    cloud = cast_both([first, second])
    building = cloud.semantic == BUILDING
    assert building.any() and np.all(cloud.instance[building] == 1)


@pytest.mark.parametrize("bearing", [math.pi - 0.05, -math.pi + 0.05, 0.05, -0.05])
def test_an_object_across_an_azimuth_seam(bearing):
    # the sectors cross the atan2 seam at +-pi or the ray grid's seam at 0
    x, y = 15.0 * math.cos(bearing), 15.0 * math.sin(bearing)
    for obj in (car(x, y, yaw=1.0), spec(BUILDING, x, y, 3.0, 4.0, 5.0, yaw=0.3)):
        cloud = cast_both([obj])
        side = cloud.xyz[cloud.instance == 1, 1]
        assert np.any(side > 0) and np.any(side < 0)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_a_box_corner_on_the_edge_of_its_sector(side):
    # the box's corner (l/2, w/2) lies on its bounding circle where one grid
    # ray is tangent to it; rounding decides whether that ray hits the corner
    # and whether it falls inside the sector, and the margin must cover both
    w, l = 3.0, 5.0
    r = math.hypot(w, l) / 2.0
    azimuth = EIGHT.azimuths()
    for theta in azimuth[::150]:
        tangent = np.array([math.cos(theta), math.sin(theta)])
        normal = side * np.array([-tangent[1], tangent[0]])
        x, y = 12.0 * tangent + r * normal
        yaw = math.atan2(-normal[1], -normal[0]) - math.atan2(w / 2.0, l / 2.0)
        cast_both([spec(BUILDING, x, y, w, 4.0, l, yaw=yaw)])


def channels_of(obj, sensor):
    """The channels that ``_sector_rays`` keeps for ``obj``, ascending."""
    return np.unique(simulator._sector_rays(obj, sensor) // len(sensor.azimuths()))


def corner_first(bearing, near, w, l, h, lift=0.0):
    """A building whose corner (l/2, w/2) points at the sensor from ``near`` m."""
    r = math.hypot(w, l) / 2.0
    x, y = (near + r) * math.cos(bearing), (near + r) * math.sin(bearing)
    yaw = bearing + math.pi - math.atan2(w / 2.0, l / 2.0)
    return spec(BUILDING, x, y, w, h, l, yaw=yaw, lift=lift)


@pytest.mark.parametrize("bearing", UPWARD.azimuths()[::150])
def test_a_box_top_on_a_channel_at_the_near_distance(bearing):
    # the ray of channel 4 (10 degrees) at the box's bearing grazes the top
    # of its near corner, at horizontal distance d - r; rounding decides
    # whether it hits, and the band's margin must keep the channel
    near, elevation = 10.0, UPWARD.elevations()[4]
    top = UPWARD.origin_height + near * math.tan(elevation)
    obj = corner_first(bearing, near, 3.0, 5.0, top)
    assert channels_of(obj, UPWARD)[-1] == 4
    cloud = cast_both([obj], UPWARD)
    assert np.any(cloud.instance == 1)


@pytest.mark.parametrize("bearing", UPWARD.azimuths()[::150])
def test_a_lifted_box_bottom_on_a_channel_at_the_far_distance(bearing):
    # the bottom lies above the sensor, so its lowest ray reaches the far
    # corner, at horizontal distance d + r, where channel 4 grazes it
    w, l, h = 3.0, 5.0, 4.0
    far = 10.0 + math.hypot(w, l)
    bottom = UPWARD.origin_height + far * math.tan(UPWARD.elevations()[4])
    obj = corner_first(bearing, 10.0, w, l, h, lift=bottom)
    assert channels_of(obj, UPWARD)[0] == 4
    cloud = cast_both([obj], UPWARD)
    assert np.any(cloud.instance == 1)


def test_a_car_box_lifted_above_its_maximal_hull():
    # the band spans the box and the hull on the ground; the hull hides the
    # building behind it and the lifted box is hit from below
    hull_h = simulator._MAX_HULL_DIMS[1]
    lifted = spec(CAR, 8.0, 3.0, *simulator.CANONICAL_CAR_DIMS, yaw=0.4, lift=hull_h + 1.0)
    wall = spec(BUILDING, 16.0, 6.0, 1.0, 3.0, 8.0, yaw=0.4, instance=2)
    cloud = cast_both([lifted, wall], UPWARD)
    car_z = cloud.xyz[cloud.instance == 1, 2]
    assert car_z.size and car_z.min() > hull_h
    on_ground = car(8.0, 3.0, yaw=0.4)
    assert set(channels_of(on_ground, UPWARD)) < set(channels_of(lifted, UPWARD))


def test_a_building_taller_than_the_sensor_and_a_sensor_above_every_object():
    tall = spec(BUILDING, 20.0, -5.0, 6.0, 12.0, 9.0, yaw=0.2)
    cloud = cast_both([tall])
    assert cloud.xyz[cloud.instance == 1, 2].max() > EIGHT.origin_height
    objects = [car(25.0, 5.0, yaw=0.6, instance=1),
               spec(BUILDING, -30.0, 10.0, 6.0, 8.0, 9.0, yaw=1.0, instance=2),
               spec(PERSON, 6.0, -22.8, 0.54, 1.7, 0.66, instance=3),
               spec(VEGETATION, -12.0, -25.0, 3.0, 3.0, 3.0, lift=2.5, instance=4,
                    roughness=0.1)]
    cloud = cast_both(objects, HIGH)
    assert set(cloud.instance.tolist()) == {0, 1, 2, 3, 4}


def test_a_car_20_m_out_is_cast_on_at_most_12_of_32_channels():
    sensor = simulator.SensorSpec()
    for bearing in np.linspace(-math.pi, math.pi, 9):
        obj = car(20.0 * math.cos(bearing), 20.0 * math.sin(bearing), yaw=bearing)
        assert 1 <= len(channels_of(obj, sensor)) <= 12
        cast_both([obj], sensor)


def test_a_sensor_inside_an_objects_bounding_circle():
    # a wall and a car's hull whose circles hold the sensor; both reach more
    # than 90 degrees round from their centre's bearing, so no sector covers
    # them, and the hull hides a person behind it
    wall = spec(BUILDING, 6.0, 4.5, 1.0, 4.0, 24.0)
    near_car = car(2.5, -1.6, instance=2)
    hull_w, _, hull_l = simulator._MAX_HULL_DIMS
    assert math.hypot(2.5, -1.6) < math.hypot(hull_w, hull_l) / 2.0
    person = spec(PERSON, 3.0, -5.0, 0.54, 1.7, 0.66, instance=3)
    cloud = cast_both([wall, near_car, person])
    assert {1, 2} <= set(cloud.instance.tolist()) and 3 not in cloud.instance
    wall_xy = cloud.xyz[cloud.instance == 1, :2]
    assert np.any(wall_xy[:, 0] < -4.0)   # > 90 degrees from the wall's bearing


def test_objects_at_the_edge_of_the_range():
    near = spec(BUILDING, 80.4, 0.0, 4.0, 8.0, 1.0)               # face at 79.9 m
    far = spec(BUILDING, -80.6, 0.0, 4.0, 8.0, 1.0, instance=2)   # face at 80.1 m
    cloud = cast_both([near, far])
    assert set(cloud.instance.tolist()) == {0, 1}


@pytest.mark.parametrize("obj, sensor", [
    (car(12.0, 4.0, yaw=0.7), EIGHT),
    (spec(CAR, -9.0, 7.0, *(1.4 * d for d in simulator.CANONICAL_CAR_DIMS), yaw=2.0), EIGHT),
    (spec(PERSON, 4.0, -3.0, 0.54, 1.7, 0.66, yaw=0.4), EIGHT),
    (spec(PERSON, -2.0, 2.0, 0.594, 1.87, 0.726), EIGHT),       # the head at sensor height
    (spec(VEGETATION, 14.0, -6.0, 3.2, 3.2, 3.2, lift=2.0, roughness=0.1), EIGHT),
    (spec(BUILDING, 14.0, 9.0, 10.0, 8.0, 16.0, yaw=-0.5), EIGHT),
    (spec(CAR, 9.0, -4.0, *simulator.CANONICAL_CAR_DIMS, yaw=0.3, lift=3.5), UPWARD),
    (spec(BUILDING, -10.0, 12.0, 5.0, 14.0, 7.0, yaw=0.8), UPWARD),
    (spec(VEGETATION, 16.0, 4.0, 3.0, 3.0, 3.0, lift=6.0, roughness=0.1), UPWARD),
    (car(-24.0, -8.0, yaw=1.1), HIGH),
    (spec(BUILDING, 35.0, -12.0, 6.0, 8.0, 10.0, yaw=0.1), HIGH),
    # a head sphere (radius 0.13 h) wider than the box footprint
    (spec(PERSON, 10.0, 0.5, 0.1, 1.7, 0.1), EIGHT),
    # a car box wider than the maximal hull
    (spec(CAR, 10.0, 0.5, 4.0, 1.6, 10.0, yaw=0.3), EIGHT),
], ids=["car", "largest-rare-car", "person", "near-person", "vegetation", "building",
        "lifted-car", "tall-building", "high-crown", "car-below-sensor",
        "building-below-sensor", "thin-person", "car-box-past-the-hull"])
def test_every_hit_lies_in_the_objects_sector(obj, sensor):
    # the kept rays: the azimuth sector and the elevation band
    dirs = sensor.ray_directions()
    hits = np.isfinite(simulator._object_surface_raycast(obj, sensor.origin, dirs)[0])
    if obj.class_id == CAR:
        hits |= np.isfinite(simulator._max_hull_entry(obj, sensor.origin, dirs))
    inside = np.zeros(len(dirs), dtype=bool)
    inside[simulator._sector_rays(obj, sensor)] = True
    assert hits.any() and not np.any(hits & ~inside)
    cloud = cast_both([obj], sensor)
    assert np.any(cloud.instance == 1)


def test_a_negative_range_noise_is_refused(tmp_path):
    # generate_scene failed deep inside numpy's normal draw, with scale < 0
    simulator.SensorSpec(range_noise=0.0)
    with pytest.raises(ValueError, match=re.escape("range_noise -1.0 m is negative")):
        simulator.SensorSpec(range_noise=-1.0)
    simulator.write_sensor_config(DESK_SENSOR, tmp_path)
    path = tmp_path / "sensor.cfg"
    path.write_bytes(rewrite_line(path.read_bytes(), "range_noise = ", "range_noise = -1.0"))
    with pytest.raises(cloudio.FormatError, match=re.escape("sensor.cfg: range_noise -1.0 m")):
        simulator.read_sensor_config(tmp_path)
