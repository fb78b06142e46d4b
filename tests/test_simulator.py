import math

import numpy as np

from advfield import simulator


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


def test_sensor_config_creates_its_directory(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    directory = tmp_path / "new" / "split"
    simulator.write_sensor_config(sensor, directory)
    assert simulator.read_sensor_config(directory) == sensor


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
