"""The CLI in-process on a tiny split: run, replay from manifests, exit codes."""

import contextlib
import io
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from advfield import cli, cloudio, evaluate, field, simulator, victim
from advfield.geometry import OrientedBox, box_contains_many
from artifact_edit import rewrite_line

TINY = ("--sizes", "4,2,2,2", "--objects", "4", "--channels", "8",
        "--azimuth-res-deg", "2")


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def manifest(out: Path) -> Path:
    """The manifest of a file output: ``<name>.manifest.cfg`` beside it."""
    return out.with_name(f"{out.name}.manifest.cfg")


def data_files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.suffix in (".bin", ".label", ".boxes")}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert run("simulate", "--out", root / "data", *TINY) == 0
    assert run("train-victim", "--data", root / "data" / "train", "--epochs", 1,
               "--out", root / "victim" / "seg.ckpt") == 0
    assert run("attack", "--mode", "untargeted", "--victim", root / "victim" / "seg.ckpt",
               "--data", root / "data" / "train", "--G", 6, "--N", 1, "--iters", 1,
               "--out", root / "bank" / "car.vfb") == 0
    return root


def test_steps_write_their_outputs(pipeline):
    files = data_files(pipeline / "data")
    assert {p.parts[0] for p in files} == {"train", "val", "ood-rare", "ood-damaged"}
    assert len(files) == 3 * (4 + 2 + 2 + 2)
    bank = cloudio.load_bank(pipeline / "bank" / "car.vfb")
    assert (bank.groups, bank.variants, bank.boxes) == (6, 1, "gt")
    assert (pipeline / "data" / "manifest.cfg").is_file()
    for out in (pipeline / "victim" / "seg.ckpt", pipeline / "bank" / "car.vfb"):
        assert manifest(out).is_file()
        assert not (out.parent / "manifest.cfg").exists()


def test_simulate_replay_is_byte_identical(pipeline):
    replay = pipeline / "data-replay"
    assert run("simulate", "--config", pipeline / "data" / "manifest.cfg",
               "--out", replay) == 0
    assert data_files(replay) == data_files(pipeline / "data")


def test_attack_replay_is_byte_identical(pipeline):
    config = manifest(pipeline / "bank" / "car.vfb")
    assert cloudio.read_config(config)["cls"] == "car"
    out = pipeline / "bank-replay" / "car.vfb"
    assert run("attack", "--config", config, "--out", out) == 0
    assert out.read_bytes() == (pipeline / "bank" / "car.vfb").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "attack"])
def test_a_manifest_that_records_a_thread_count_replays(pipeline, command, tmp_path):
    # manifests written while --threads existed record it; it changed no output
    source = {"simulate": pipeline / "data", "attack": pipeline / "bank" / "car.vfb"}[command]
    config = source / "manifest.cfg" if source.is_dir() else manifest(source)
    cloudio.write_config({**cloudio.read_config(config), "threads": "2"}, tmp_path / "old.cfg")
    out = tmp_path / source.name
    assert run("--config", tmp_path / "old.cfg", "--out", out) == 0
    if source.is_dir():
        assert data_files(out) == data_files(source)
        written = out / "manifest.cfg"
    else:
        assert out.read_bytes() == source.read_bytes()
        written = manifest(out)
    assert "threads" not in cloudio.read_config(written)


def test_replay_takes_the_subcommand_from_the_manifest(pipeline):
    out = pipeline / "bank-bare" / "car.vfb"
    assert run("--config", manifest(pipeline / "bank" / "car.vfb"), "--out", out) == 0
    assert out.read_bytes() == (pipeline / "bank" / "car.vfb").read_bytes()


def test_a_flag_value_named_like_a_subcommand_is_no_subcommand(pipeline, tmp_path,
                                                               monkeypatch):
    # the value of --out is a file named eval, not the eval subcommand
    assert run("analyze-fields", "--bank", pipeline / "bank" / "car.vfb",
               "--out", tmp_path / "fields.csv") == 0
    monkeypatch.chdir(tmp_path)
    assert run("--config", manifest(tmp_path / "fields.csv"), "--out", "eval") == 0
    assert (tmp_path / "eval").read_bytes() == (tmp_path / "fields.csv").read_bytes()
    assert cloudio.read_config(manifest(tmp_path / "eval"))["subcommand"] == "analyze-fields"


def test_flags_on_the_command_line_win(pipeline):
    out = pipeline / "data-seed1"
    assert run("simulate", "--config", pipeline / "data" / "manifest.cfg", "--out", out,
               "--seed", 1) == 0
    assert cloudio.read_config(out / "manifest.cfg")["seed"] == "1"
    assert data_files(out) != data_files(pipeline / "data")


def test_attack_names_the_field_slots_without_targets(pipeline, tmp_path, capsys):
    # four scenes over 6 x 2 slots: some slot sees no car, and stays at its start
    attack = ("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
              "--data", pipeline / "data" / "train", "--G", 6, "--N", 2)
    assert run(*attack, "--iters", 0, "--out", tmp_path / "start.vfb") == 0
    capsys.readouterr()
    assert run(*attack, "--iters", 1, "--out", tmp_path / "car.vfb") == 0
    (line,) = capsys.readouterr().err.splitlines()
    start, fitted = (cloudio.load_bank(tmp_path / n) for n in ("start.vfb", "car.vfb"))
    unused = [(a.group, a.variant) for a, b in zip(start.fields, fitted.fields)
              if np.array_equal(a.vectors, b.vectors)]
    assert unused and len(unused) < 12
    assert line.startswith(f"attack: {len(unused)} of 12 field slots have no target objects")
    assert line.endswith(" ".join(f"({g},{v})" for g, v in unused))


def test_a_config_flag_in_another_form_exits_2_and_writes_nothing(pipeline, tmp_path):
    # as an argparse option, either form would be parsed and the manifest dropped
    config = manifest(pipeline / "bank" / "car.vfb")
    attack = ("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
              "--data", pipeline / "data" / "train", "--G", 6, "--N", 1, "--iters", 1,
              "--out", tmp_path / "car.vfb")
    for given in ([f"--config={config}"], ["--conf", config]):
        assert run(*given, *attack) == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_bare_config_exits_2():
    assert run("simulate", "--config") == cli.EXIT_CONFIG


def test_manifest_of_another_subcommand_exits_2(pipeline, tmp_path):
    assert run("attack", "--config", pipeline / "data" / "manifest.cfg",
               "--out", tmp_path / "x.vfb") == cli.EXIT_CONFIG


def test_a_manifest_without_a_subcommand_exits_2_and_writes_nothing(pipeline, tmp_path,
                                                                    capsys):
    config = cloudio.read_config(pipeline / "data" / "manifest.cfg")
    del config["subcommand"]
    cloudio.write_config(config, tmp_path / "bare.cfg")
    out = tmp_path / "data"
    assert run("--config", tmp_path / "bare.cfg", "--out", out) == cli.EXIT_CONFIG
    assert "--config: the manifest names no subcommand (None)" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def detection(pipeline):
    root = pipeline
    assert run("train-victim", "--task", "det", "--data", root / "data" / "train",
               "--epochs", 1, "--out", root / "victim" / "det.ckpt") == 0
    assert run("attack", "--mode", "detection", "--victim", root / "victim" / "det.ckpt",
               "--data", root / "data" / "train", "--G", 6, "--N", 1, "--iters", 1,
               "--out", root / "det-bank" / "car.vfb") == 0
    assert run("eval", "--victim", root / "victim" / "det.ckpt", "--data",
               root / "data" / "val", "--metrics", "ap,asr", "--bank",
               root / "det-bank" / "car.vfb", "--out", root / "det-eval") == 0
    return root


def read_csv_value(path: Path) -> float:
    header, row = path.read_text(encoding="utf-8").splitlines()
    return float(row.split(",")[1])


def test_detection_eval_writes_ap_and_asr(detection):
    assert 0.0 <= read_csv_value(detection / "det-eval" / "ap.csv") <= 1.0
    assert 0.0 <= read_csv_value(detection / "det-eval" / "asr.csv") <= 100.0
    for name in ("ap.csv", "asr.csv"):  # the threshold without --iou-thr
        row = (detection / "det-eval" / name).read_text(encoding="utf-8").splitlines()[1]
        assert row.startswith("0.7,")


def test_eval_replay_is_byte_identical(detection):
    out = detection / "det-eval-replay"
    assert run("eval", "--config", detection / "det-eval" / "manifest.cfg",
               "--out", out) == 0
    for name in ("ap.csv", "asr.csv", "summary.txt"):
        assert (out / name).read_bytes() == (detection / "det-eval" / name).read_bytes()


def test_asr_without_bank_exits_2(detection, tmp_path):
    assert run("eval", "--victim", detection / "victim" / "det.ckpt", "--data",
               detection / "data" / "val", "--metrics", "asr",
               "--out", tmp_path) == cli.EXIT_CONFIG


def test_baseline_skips_a_car_box_without_car_points(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    scene = simulator.generate_scene(3, "normal", 4, sensor)
    cloud = scene.cloud
    ground = cloud.xyz[cloud.semantic == simulator.GROUND]
    # a car-sized box over bare ground: it holds ground points and no car point
    for center in ground[np.argsort(np.linalg.norm(ground[:, :2], axis=1))]:
        box = OrientedBox(center + [0.0, 0.0, 0.5], 1.8, 1.6, 4.6, 0.0)
        inside = box_contains_many(box, cloud.xyz)
        if inside.any() and not np.any(cloud.semantic[inside] == simulator.CAR):
            break
    else:
        pytest.fail("no stretch of bare ground in the scene")
    scene.boxes = [simulator.SceneBox(simulator.CAR, box)]
    simulator.write_sensor_config(sensor, tmp_path / "data")
    simulator.write_scene(scene, tmp_path / "data", 0)
    model = victim.SegNetMini(len(simulator.CLASS_NAMES))
    model.init_random(0)
    victim.save_checkpoint(model, tmp_path / "seg.ckpt")

    assert run("baseline-attack", "--kind", "l2", "--victim", tmp_path / "seg.ckpt",
               "--data", tmp_path / "data", "--out", tmp_path / "out") == 0
    written = (tmp_path / "out" / "000000.bin").read_bytes()
    assert written == (tmp_path / "data" / "000000.bin").read_bytes()


def test_chamfer_baseline_moves_only_car_points_and_replays(pipeline, tmp_path):
    val = pipeline / "data" / "val"
    out = tmp_path / "chamfer"
    assert run("baseline-attack", "--kind", "chamfer", "--iters", 1, "--lam", 0.2,
               "--victim", pipeline / "victim" / "seg.ckpt", "--data", val, "--out", out) == 0
    moved_any = False
    for index, scene in enumerate(simulator.load_split(val)):
        clean = scene.cloud
        attacked = cloudio.read_labeled_cloud(out / f"{index:06d}.bin",
                                              out / f"{index:06d}.label")
        assert attacked.n == clean.n
        assert np.array_equal(attacked.semantic, clean.semantic)
        assert np.array_equal(attacked.instance, clean.instance)
        moved = (np.any(attacked.xyz != clean.xyz, axis=1)
                 | (attacked.intensity != clean.intensity))
        in_car_box = np.zeros(clean.n, dtype=bool)
        for sb in scene.boxes:
            if sb.class_id == simulator.CAR:
                in_car_box |= box_contains_many(sb.box, clean.xyz)
        assert not np.any(moved & ~in_car_box)
        moved_any = moved_any or bool(moved.any())
    assert moved_any
    assert cloudio.read_config(out / "manifest.cfg")["lam"] == "0.2"
    replay = tmp_path / "chamfer-replay"
    assert run("baseline-attack", "--config", out / "manifest.cfg", "--out", replay) == 0
    assert data_files(replay) == data_files(out)


def test_a_baseline_writes_a_split_that_eval_scores(pipeline, tmp_path):
    val = pipeline / "data" / "val"
    out = tmp_path / "l2"
    assert run("baseline-attack", "--kind", "l2", "--iters", 1,
               "--victim", pipeline / "victim" / "seg.ckpt", "--data", val, "--out", out) == 0
    assert (out / "sensor.cfg").read_bytes() == (val / "sensor.cfg").read_bytes()
    for path in val.glob("*.boxes"):
        assert (out / path.name).read_bytes() == path.read_bytes()
    assert run("eval", "--victim", pipeline / "victim" / "seg.ckpt", "--data", out,
               "--out", tmp_path / "eval") == 0
    attacked = [cloudio.read_labeled_cloud(path, path.with_suffix(".label"))
                for path in sorted(out.glob("*.bin"))]
    model = victim.load_checkpoint(pipeline / "victim" / "seg.ckpt")
    want = evaluate.miou_over_scenes(model, attacked, len(simulator.CLASS_NAMES))
    header, *rows, mean = (tmp_path / "eval" / "miou.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[1] for row in rows] == [repr(x) for x in want.iou.tolist()]
    assert mean == f"mean,{want.mean!r},1"


def test_single_domain_simulate_writes_generate_scene_in_order(tmp_path, monkeypatch):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    reference = tmp_path / "reference"
    for index in range(3):
        simulator.write_scene(simulator.generate_scene(5 + index, "damaged", 4, sensor),
                              reference, index)
    # the serial path on one CPU, and a pool of two threads on two
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run("simulate", "--domain", "damaged", "--scenes", 3,
                   "--seed", 5, "--out", out, *TINY[2:]) == 0
        assert (out / "sensor.cfg").is_file()
        assert data_files(out) == data_files(reference)
        assert len(data_files(out)) == 3 * 3


def test_crowded_scenes_are_named_on_stderr(tmp_path, capsys):
    # 120 objects find no room in one scene; the library does not warn
    sensor = TINY[4:]
    one = tmp_path / "one"
    assert run("simulate", "--domain", "normal", "--scenes", 1,
               "--objects", 120, "--out", one, *sensor) == 0
    (line,) = capsys.readouterr().err.splitlines()
    (scene,) = simulator.load_split(one)
    assert 0 < len(scene.boxes) < 120
    assert line.startswith("simulate: 1 of 1 scenes had no room for all 120 objects")
    assert line.endswith(f"scene (objects): 000000 ({len(scene.boxes)})")
    splits = tmp_path / "splits"
    assert run("simulate", "--sizes", "1,1,0,0", "--objects", 120, "--out", splits,
               *sensor) == 0
    (line,) = capsys.readouterr().err.splitlines()
    counts = [len(simulator.load_split(splits / name)[0].boxes) for name in ("train", "val")]
    assert line.startswith("simulate: 2 of 2 scenes had no room")
    assert line.endswith(f"train/000000 ({counts[0]}) val/000000 ({counts[1]})")
    assert run("simulate", "--sizes", "1,1,0,0", "--out", tmp_path / "roomy", *TINY[2:]) == 0
    assert capsys.readouterr().err == ""


def test_a_non_finite_sensor_config_exits_2(pipeline, tmp_path, capsys):
    data = Path(shutil.copytree(pipeline / "data" / "val", tmp_path / "val"))
    config = data / "sensor.cfg"
    config.write_bytes(rewrite_line(config.read_bytes(), "origin_height = ",
                                    "origin_height = nan"))
    out = tmp_path / "eval"
    assert run("eval", "--victim", pipeline / "victim" / "seg.ckpt", "--data", data,
               "--metrics", "miou,distance-bins", "--out", out) == cli.EXIT_CONFIG
    assert "sensor.cfg: origin_height nan is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_a_sensor_config_elevation_past_the_zenith_exits_2(pipeline, tmp_path, capsys):
    data = Path(shutil.copytree(pipeline / "data" / "val", tmp_path / "val"))
    config = data / "sensor.cfg"
    config.write_bytes(rewrite_line(config.read_bytes(), "elevation_max = ",
                                    "elevation_max = 2.98"))
    out = tmp_path / "eval"
    assert run("eval", "--victim", pipeline / "victim" / "seg.ckpt", "--data", data,
               "--out", out) == cli.EXIT_CONFIG
    assert "sensor.cfg: elevation_max 2.98 rad is outside [-pi/2, pi/2]" \
        in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_victim_exits_3(pipeline, tmp_path):
    model = victim.load_checkpoint(pipeline / "victim" / "seg.ckpt")
    model.mlp.params["W1"][:] = np.nan
    victim.save_checkpoint(model, tmp_path / "nan.ckpt")
    out = tmp_path / "bank" / "car.vfb"
    assert run("attack", "--mode", "untargeted", "--victim", tmp_path / "nan.ckpt",
               "--data", pipeline / "data" / "train", "--G", 6, "--N", 1, "--iters", 1,
               "--out", out) == cli.EXIT_NUMERIC
    assert not out.exists()


def test_unknown_or_wrong_kind_metric_exits_2(pipeline, detection, tmp_path, capsys):
    seg = ("--victim", pipeline / "victim" / "seg.ckpt", "--data", pipeline / "data" / "val")
    assert run("eval", *seg, "--metrics", "ap,mIoU", "--out", tmp_path / "seg") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ap" in err and "mIoU" in err
    assert not (tmp_path / "seg").exists()
    det = ("--victim", detection / "victim" / "det.ckpt", "--data", detection / "data" / "val")
    assert run("eval", *det, "--metrics", "miou", "--out", tmp_path / "det") == cli.EXIT_CONFIG
    assert "miou" in capsys.readouterr().err


def test_attack_has_no_k_flag(pipeline, tmp_path):
    assert run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", "--k", 3,
               "--out", tmp_path / "car.vfb") == cli.EXIT_CONFIG


@pytest.mark.parametrize("task,bank", [("seg", "bank"), ("det", "det-bank")])
def test_augmented_training_uses_the_bank_and_replays(detection, task, bank):
    root = detection
    out = root / f"aug-{task}" / "victim.ckpt"
    assert run("train-victim", "--task", task, "--data", root / "data" / "train",
               "--epochs", 1, "--augment-bank", root / bank / "car.vfb", "--out", out) == 0
    assert out.read_bytes() != (root / "victim" / f"{task}.ckpt").read_bytes()
    replay = root / f"aug-{task}-replay" / "victim.ckpt"
    assert run("train-victim", "--config", manifest(out), "--out", replay) == 0
    assert replay.read_bytes() == out.read_bytes()


SEG_REPORTS = ("miou.csv", "distance_bins.csv", "intensity_suite.csv", "summary.txt")


def test_segmentation_eval_writes_its_reports_and_replays(pipeline):
    out = pipeline / "seg-eval"
    assert run("eval", "--victim", pipeline / "victim" / "seg.ckpt", "--data",
               pipeline / "data" / "val", "--metrics", "miou,distance-bins,intensity-suite",
               "--out", out) == 0
    bins = (out / "distance_bins.csv").read_text(encoding="utf-8").splitlines()
    assert len(bins) == 1 + 8 * len(simulator.CLASS_NAMES)
    assert bins[-1].startswith("70,")
    assert len((out / "intensity_suite.csv").read_text(encoding="utf-8").splitlines()) == 8
    # every cell after the label columns is a plain number, e.g. never np.float64(...)
    for name, labels in (("miou.csv", 1), ("distance_bins.csv", 2), ("intensity_suite.csv", 1)):
        for row in (out / name).read_text(encoding="utf-8").splitlines()[1:]:
            for cell in row.split(",")[labels:]:
                float(cell)
    replay = pipeline / "seg-eval-replay"
    assert run("eval", "--config", out / "manifest.cfg", "--out", replay) == 0
    for name in SEG_REPORTS:
        assert (replay / name).read_bytes() == (out / name).read_bytes()


def test_segmentation_eval_predicts_each_scene_once(pipeline, monkeypatch):
    calls = []
    predict = victim.SegNetMini.predict

    def counting(self, cloud):
        calls.append(cloud.n)
        return predict(self, cloud)

    monkeypatch.setattr(victim.SegNetMini, "predict", counting)
    seg_eval = ("eval", "--victim", pipeline / "victim" / "seg.ckpt",
                "--data", pipeline / "data" / "val", "--metrics")
    every = pipeline / "seg-eval-every"
    # the serial path on one CPU here, and a pool of two threads on two below
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run(*seg_eval, "miou,distance-bins,intensity-suite", "--out", every) == 0
    # one clean pass, shared by the three metrics, and one per intensity
    # transform that changes the clouds
    assert len(calls) == 2 * 7
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for metric, name in (("miou", "miou.csv"), ("distance-bins", "distance_bins.csv"),
                         ("intensity-suite", "intensity_suite.csv")):
        alone = pipeline / f"seg-eval-{metric}"
        assert run(*seg_eval, metric, "--out", alone) == 0
        assert (alone / name).read_bytes() == (every / name).read_bytes()
    # no transform leaves the clouds as they are: the suite's first row is the mIoU
    row = (every / "intensity_suite.csv").read_text(encoding="utf-8").splitlines()[1]
    mean = (every / "miou.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert row.split(",")[:2] == ["none", mean.split(",")[1]]


def test_analyze_fields_writes_one_row_per_slot(pipeline):
    out = pipeline / "analysis" / "fields.csv"
    assert run("analyze-fields", "--bank", pipeline / "bank" / "car.vfb", "--out", out) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header.split(",")[:5] == ["group", "variant", "active", "toward", "away"]
    assert [row.split(",")[:2] for row in rows] == [[str(g), "1"] for g in range(1, 7)]


def test_analyze_fields_finds_no_active_vector_in_an_unfitted_bank(pipeline, tmp_path):
    # with no iteration, every vector is still the start that the bank's seed draws
    bank = tmp_path / "start.vfb"
    assert run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", "--G", 6, "--N", 1, "--iters", 0,
               "--seed", 1, "--out", bank) == 0
    assert cloudio.load_bank(bank).seed == 1
    out = tmp_path / "fields.csv"
    assert run("analyze-fields", "--bank", bank, "--out", out) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header.split(",")[2] == "active"
    assert [row.split(",")[2] for row in rows] == ["0"] * 6


def test_a_bank_outside_its_recorded_budget_exits_2(pipeline, tmp_path, capsys):
    bank = cloudio.load_bank(pipeline / "bank" / "car.vfb")
    bank.vectors[2, 0, 5, 3] = 0.5  # an intensity shift above psi = 0.3
    path = tmp_path / "over.vfb"
    cloudio.save_bank(bank, path)
    out = tmp_path / "fields.csv"
    assert run("analyze-fields", "--bank", path, "--out", out) == cli.EXIT_CONFIG
    assert ("array vectors, slot (3, 1), has a vector outside the bank's budget"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_bank_that_is_not_utf8_exits_2_and_names_the_file(tmp_path, capsys):
    path = tmp_path / "binary.vfb"
    path.write_bytes(b"\xff" + bytes(range(256)))
    out = tmp_path / "fields.csv"
    assert run("analyze-fields", "--bank", path, "--out", out) == cli.EXIT_CONFIG
    assert f"{path}:1: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_fields_has_no_seed_flag(pipeline, tmp_path, capsys):
    bank = ("--bank", pipeline / "bank" / "car.vfb")
    assert run("analyze-fields", *bank, "--seed", 0,
               "--out", tmp_path / "fields.csv") == cli.EXIT_CONFIG
    # a manifest written while the flag existed
    assert run("analyze-fields", *bank, "--out", tmp_path / "fields.csv") == 0
    config = cloudio.read_config(manifest(tmp_path / "fields.csv"))
    cloudio.write_config({**config, "seed": "0"}, tmp_path / "old.cfg")
    capsys.readouterr()
    assert run("analyze-fields", "--config", tmp_path / "old.cfg",
               "--out", tmp_path / "replay.csv") == cli.EXIT_CONFIG
    assert "no option seed" in capsys.readouterr().err
    assert not (tmp_path / "replay.csv").exists()


def test_manifest_with_an_unknown_key_exits_2(pipeline, tmp_path, capsys):
    config = cloudio.read_config(manifest(pipeline / "bank" / "car.vfb"))
    for key, value in (("k", "3"), ("itres", "9")):
        edited = tmp_path / f"{key}.cfg"
        cloudio.write_config({**config, key: value}, edited)
        out = tmp_path / key / "car.vfb"
        assert run("attack", "--config", edited, "--out", out) == cli.EXIT_CONFIG
        assert f"no option {key}" in capsys.readouterr().err
        assert not out.exists()


def test_segmentation_eval_refuses_detection_flags(pipeline, tmp_path, capsys):
    seg = ("--victim", pipeline / "victim" / "seg.ckpt", "--data", pipeline / "data" / "val")
    for flag, value in (("--bank", pipeline / "bank" / "car.vfb"), ("--iou-thr", 0.5)):
        assert run("eval", *seg, flag, value, "--out", tmp_path / "e") == cli.EXIT_CONFIG
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("kind", ["l2", "chamfer", "remove", "generate"])
def test_a_baseline_against_a_detector_exits_2_and_writes_nothing(detection, kind, tmp_path,
                                                                  capsys):
    # every baseline attacks a segmenter; a detector's outputs ended in an IndexError
    assert run("baseline-attack", "--kind", kind, "--victim", detection / "victim" / "det.ckpt",
               "--data", detection / "data" / "val", "--iters", 1,
               "--out", tmp_path / "out") == cli.EXIT_CONFIG
    assert "baseline-attack needs a segmentation victim" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_baseline_attack_has_no_seed_flag(pipeline, tmp_path):
    assert run("baseline-attack", "--kind", "l2", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "val", "--seed", 0,
               "--out", tmp_path) == cli.EXIT_CONFIG


def test_detection_eval_refuses_a_bank_without_asr(detection, tmp_path, capsys):
    det = ("--victim", detection / "victim" / "det.ckpt", "--data", detection / "data" / "val")
    assert run("eval", *det, "--metrics", "ap", "--bank", tmp_path / "no" / "such.vfb",
               "--out", tmp_path / "e") == cli.EXIT_CONFIG
    assert "--bank" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_manifests_record_the_defaults_resolved_in_code(detection, tmp_path):
    # the replays of these manifests are the byte-identity tests above
    root = detection
    assert cloudio.read_config(manifest(root / "bank" / "car.vfb"))["lr"] == "0.01"
    assert cloudio.read_config(manifest(root / "det-bank" / "car.vfb"))["lr"] == "0.05"
    assert cloudio.read_config(root / "det-eval" / "manifest.cfg")["iou-thr"] == "0.7"
    assert run("eval", "--victim", root / "victim" / "seg.ckpt", "--data",
               root / "data" / "val", "--out", tmp_path) == 0
    assert "iou-thr" not in cloudio.read_config(tmp_path / "manifest.cfg")
    replay = tmp_path / "det-bank-replay" / "car.vfb"
    assert run("attack", "--config", manifest(root / "det-bank" / "car.vfb"),
               "--out", replay) == 0
    assert replay.read_bytes() == (root / "det-bank" / "car.vfb").read_bytes()


def test_manifest_records_the_groups_an_axis_aligned_bank_was_fitted_with(pipeline, tmp_path):
    # axis-aligned boxes take at most 6 rotation groups
    out = tmp_path / "aligned" / "car.vfb"
    assert run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", "--boxes", "axis-aligned",
               "--G", 12, "--N", 1, "--iters", 1, "--out", out) == 0
    assert cloudio.read_config(manifest(out))["G"] == "6"
    assert cloudio.load_bank(out).groups == 6
    replay = tmp_path / "aligned-replay" / "car.vfb"
    assert run("attack", "--config", manifest(out), "--out", replay) == 0
    assert replay.read_bytes() == out.read_bytes()


def test_file_outputs_in_one_directory_keep_their_own_manifests(pipeline):
    shared = pipeline / "shared"
    seg = ("--victim", pipeline / "victim" / "seg.ckpt", "--data", pipeline / "data" / "train",
           "--G", 6, "--N", 1, "--iters", 1)
    assert run("attack", "--mode", "untargeted", *seg, "--out", shared / "untargeted.vfb") == 0
    assert run("attack", "--mode", "targeted", "--target", "building", *seg, "--seed", 1,
               "--out", shared / "targeted.vfb") == 0
    assert not (shared / "manifest.cfg").exists()
    for name in ("untargeted.vfb", "targeted.vfb"):
        replay = pipeline / "shared-replay" / name
        assert run("attack", "--config", manifest(shared / name), "--out", replay) == 0
        assert replay.read_bytes() == (shared / name).read_bytes()
    assert ((shared / "untargeted.vfb").read_bytes()
            != (shared / "targeted.vfb").read_bytes())


@pytest.fixture(scope="module")
def empty_split(tmp_path_factory):
    root = tmp_path_factory.mktemp("empty")
    sizes = ("--sizes", "1,1,0,1") + TINY[2:]
    assert run("simulate", "--out", root, *sizes) == 0
    assert [p.name for p in (root / "ood-rare").iterdir()] == ["sensor.cfg"]
    return root / "ood-rare"


@pytest.mark.parametrize("command", ["train-victim", "attack", "eval"])
def test_a_split_without_scenes_exits_2(pipeline, empty_split, command, tmp_path, capsys):
    args = {"train-victim": ("--out", tmp_path / "victim.ckpt"),
            "attack": ("--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
                       "--out", tmp_path / "car.vfb"),
            "eval": ("--victim", pipeline / "victim" / "seg.ckpt", "--metrics",
                     "miou,distance-bins", "--out", tmp_path / "eval")}[command]
    assert run(command, "--data", empty_split, *args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(empty_split) in err and "holds no scene" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag", [("attack", "--class"), ("attack", "--target"),
                                          ("baseline-attack", "--class")])
def test_an_unknown_class_name_exits_2(pipeline, command, flag, tmp_path, capsys):
    kind = ("--mode", "targeted") if command == "attack" else ("--kind", "l2")
    assert run(command, *kind, flag, "nosuch", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", "--out", tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "invalid choice: 'nosuch'" in err


def test_a_manifest_with_an_unknown_class_name_exits_2(pipeline, tmp_path, capsys):
    config = cloudio.read_config(manifest(pipeline / "bank" / "car.vfb"))
    cloudio.write_config({**config, "cls": "nosuch"}, tmp_path / "nosuch.cfg")
    out = tmp_path / "out" / "car.vfb"
    assert run("attack", "--config", tmp_path / "nosuch.cfg", "--out", out) == cli.EXIT_CONFIG
    assert "argument --class: invalid choice: 'nosuch'" in capsys.readouterr().err
    assert not out.exists()


def float_options() -> list:
    """(subcommand, flag) of every option of build_parser() that takes a float."""
    found = []
    for command, sub in cli.build_parser().subcommands.items():
        for action in sub._actions:
            assert action.type is not float, f"{command} {action.option_strings} takes nan"
            if action.type is cli.finite_float:
                found.append((command, action.option_strings[0]))
    return found


FLOAT_OPTIONS = float_options()


def test_the_float_options_are_found_by_their_type():
    named = {("simulate", "--azimuth-res-deg"), ("simulate", "--origin-height"),
             ("simulate", "--max-range"), ("train-victim", "--lr"), ("attack", "--lr"),
             ("attack", "--eps"), ("baseline-attack", "--eps"), ("attack", "--psi"),
             ("baseline-attack", "--psi"), ("attack", "--drop-boxes"), ("attack", "--step"),
             ("baseline-attack", "--lam"), ("eval", "--iou-thr")}
    assert named <= set(FLOAT_OPTIONS)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", FLOAT_OPTIONS)
def test_a_non_finite_float_option_exits_2(command, flag, value, tmp_path, capsys):
    argv = [command]
    for action in cli.build_parser().subcommands[command]._actions:
        if action.required:
            given = action.choices[0] if action.choices else tmp_path / "out"
            argv += [action.option_strings[0], given]
    assert run(*argv, f"{flag}={value}") == cli.EXIT_CONFIG
    assert f"argument {flag}: '{value}' is not a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_manifest_with_a_nan_budget_exits_2_and_writes_no_bank(pipeline, tmp_path, capsys):
    config = cloudio.read_config(manifest(pipeline / "bank" / "car.vfb"))
    for key in ("eps", "psi"):
        cloudio.write_config({**config, key: "nan"}, tmp_path / f"{key}.cfg")
        out = tmp_path / key / "car.vfb"
        assert run("attack", "--config", tmp_path / f"{key}.cfg", "--out", out) == cli.EXIT_CONFIG
        assert f"argument --{key}: 'nan' is not a finite number" in capsys.readouterr().err
        assert not out.parent.exists()


@pytest.mark.parametrize("command,flag,value", [
    (("train-victim", "--task", "det"), "--epochs", -2),
    (("attack", "--mode", "untargeted", "--G", 6, "--N", 1), "--iters", -3),
    (("baseline-attack", "--kind", "l2"), "--iters", -1),
])
def test_a_negative_count_exits_2_and_writes_nothing(pipeline, command, flag, value,
                                                     tmp_path, capsys):
    victim_flag = () if command[0] == "train-victim" else ("--victim",
                                                          pipeline / "victim" / "seg.ckpt")
    assert run(*command, *victim_flag, "--data", pipeline / "data" / "train", flag, value,
               "--out", tmp_path / "out" / "result") == cli.EXIT_CONFIG
    assert f"argument {flag}: '{value}' is not an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_a_negative_scene_count_and_writes_nothing(tmp_path, capsys):
    assert run("simulate", "--domain", "normal", "--scenes", -1, *TINY[2:],
               "--out", tmp_path / "data") == cli.EXIT_CONFIG
    assert "argument --scenes: '-1' is not an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_negative_eval_seed_exits_2_and_writes_nothing(pipeline, tmp_path, capsys):
    # the intensity suite reads the seed after miou.csv is written
    out = tmp_path / "eval"
    assert run("eval", "--victim", pipeline / "victim" / "seg.ckpt", "--data",
               pipeline / "data" / "val", "--metrics", "miou,intensity-suite", "--seed", -1,
               "--out", out) == cli.EXIT_CONFIG
    assert "argument --seed: '-1' is not an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def int_options() -> list:
    """(subcommand, flag) of every option of build_parser() that takes an integer."""
    return [(command, action.option_strings[0])
            for command, sub in cli.build_parser().subcommands.items()
            for action in sub._actions if action.type in (int, cli.non_negative_int)]


INT_OPTIONS = int_options()

# 2**40 goes to the options that a cap refuses before anything is allocated
# (--G, --N, --channels) or that cost nothing at any size (the seeds); these
# are left out of it
NO_HUGE_VALUE = {"--epochs": "it costs only time", "--iters": "it costs only time",
                 "--scenes": "it costs only time", "--objects": "it costs only time"}


def test_the_int_options_are_found_by_their_type():
    named = {("simulate", "--seed"), ("simulate", "--scenes"), ("simulate", "--objects"),
             ("simulate", "--channels"), ("train-victim", "--epochs"),
             ("train-victim", "--seed"), ("attack", "--G"), ("attack", "--N"),
             ("attack", "--iters"), ("attack", "--seed"), ("baseline-attack", "--iters"),
             ("eval", "--seed")}
    assert set(INT_OPTIONS) == named
    huge = {flag for _, flag in INT_OPTIONS} - NO_HUGE_VALUE.keys()
    assert huge == {"--G", "--N", "--channels", "--seed"}


# the flags each subcommand runs with at the tiny sizes; eval runs every seg
# metric, so that the intensity suite reads its seed
SWEEP_FLAGS = {
    "simulate": lambda root: ("--domain", "normal", "--scenes", 1, *TINY[2:]),
    "train-victim": lambda root: ("--data", root / "data" / "val", "--epochs", 1),
    "attack": lambda root: ("--mode", "untargeted", "--victim", root / "victim" / "seg.ckpt",
                            "--data", root / "data" / "val", "--G", 6, "--N", 1, "--iters", 1),
    "baseline-attack": lambda root: ("--kind", "l2", "--victim", root / "victim" / "seg.ckpt",
                                     "--data", root / "data" / "val", "--iters", 1),
    "eval": lambda root: ("--victim", root / "victim" / "seg.ckpt", "--data",
                          root / "data" / "val", "--metrics", ",".join(cli.SEG_METRICS)),
    "analyze-fields": lambda root: ("--bank", root / "bank" / "car.vfb"),
}


# every int option at 0, -1 and (unless named above) 2**40, and every float
# option at 0, -1, 1e300, nan and inf
SWEEP = ([(command, flag, value) for command, flag in INT_OPTIONS
          for value in (0, -1) + (() if flag in NO_HUGE_VALUE else (2 ** 40,))]
         + [(command, flag, value) for command, flag in FLOAT_OPTIONS
            for value in (0, -1, 1e300, "nan", "inf")])


@pytest.mark.parametrize("command,flag,value", SWEEP)
def test_an_int_option_at_0_below_0_or_huge_exits_0_2_or_3(pipeline, command, flag, value,
                                                           tmp_path):
    code = run(command, *SWEEP_FLAGS[command](pipeline), f"{flag}={value}",
               "--out", tmp_path / "out")
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
    if code == cli.EXIT_CONFIG:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [(), ("nosuch",), ("simulate",),
                                  ("--threads", "x", "simulate", "--out", "data"),
                                  ("--threads", "2", "simulate", "--domain", "normal",
                                   "--scenes", "1", "--out", "data")])
def test_a_command_line_argparse_refuses_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert list(tmp_path.iterdir()) == []


def test_help_is_the_one_exit_that_raises(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("--help")
    assert exit_info.value.code == 0
    assert "usage: advfield" in capsys.readouterr().out


def test_simulate_refuses_a_negative_split_size_and_writes_nothing(tmp_path, capsys):
    assert run("simulate", "--sizes=-1,2,2,2", *TINY[2:],
               "--out", tmp_path / "data") == cli.EXIT_CONFIG
    assert "--sizes needs four counts >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_an_ood_split_larger_than_val_and_writes_nothing(tmp_path, capsys):
    assert run("simulate", "--sizes", "4,1,2,0", *TINY[2:],
               "--out", tmp_path / "data") == cli.EXIT_CONFIG
    assert "ood splits cannot outnumber their paired clean split" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--max-range", -1, "max range must be positive"),
    ("--origin-height", 0, "origin height must be positive"),
    # 1000 degrees is about 0.36 of a ray column per turn, which rounds to none
    ("--azimuth-res-deg", 1000, "leaves no ray column in a turn"),
    # 2 pi over about 1.7e-320 rad overflows to an infinite column count
    ("--azimuth-res-deg", "1e-318", "no finite count of them")])
def test_simulate_refuses_a_sensor_without_rays_or_range_and_writes_nothing(
        flag, value, message, tmp_path, capsys):
    assert run("simulate", *TINY, flag, value, "--out", tmp_path / "data") == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# refused before any ray is allocated: 8 x 3.6e9 rays, and 30,000 x 180
@pytest.mark.parametrize("flags", [("--azimuth-res-deg", "1e-7"), ("--channels", 30000)])
def test_simulate_refuses_a_sensor_with_too_many_rays_and_writes_nothing(
        flags, tmp_path, capsys):
    assert run("simulate", *TINY, *flags, "--out", tmp_path / "data") == cli.EXIT_CONFIG
    assert f"more than the {simulator.MAX_RAYS} allowed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dims", ["inf,1.6,4.6", "1e308,1.6,4.6", "1.8,nan,4.6"])
def test_a_lattice_without_a_finite_cell_count_exits_2(pipeline, dims, tmp_path, capsys):
    out = tmp_path / "bank" / "car.vfb"
    assert run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", "--G", 6, "--N", 1, "--iters", 1,
               "--dims", dims, "--out", out) == cli.EXIT_CONFIG
    assert "finite cell count" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes", [("--G", -1, "--N", 1), ("--G", 6, "--N", -1)])
def test_a_negative_bank_size_exits_2_and_writes_no_bank(pipeline, sizes, tmp_path, capsys):
    out = tmp_path / "bank" / "car.vfb"
    assert run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", *sizes, "--iters", 1,
               "--out", out) == cli.EXIT_CONFIG
    assert "bank needs G, N >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# 10^9 x 1 fields of 1,656 roots, and 6 x 1 fields of about 1.3e10 roots
@pytest.mark.parametrize("sizes", [("--G", 10 ** 9, "--N", 1),
                                   ("--G", 6, "--N", 1, "--step", 0.001)])
def test_a_bank_above_the_value_cap_exits_2_and_writes_nothing(pipeline, sizes, tmp_path,
                                                               capsys):
    out = tmp_path / "bank" / "car.vfb"
    assert run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "train", *sizes, "--iters", 1,
               "--out", out) == cli.EXIT_CONFIG
    assert f"more than {field.MAX_BANK_VALUES} values" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_fields_of_a_bank_with_infinite_dims_exits_2(pipeline, tmp_path, capsys):
    source = pipeline / "bank" / "car.vfb"
    dims = cloudio.load_bank(source).dims
    bank = tmp_path / "inf.vfb"
    bank.write_bytes(rewrite_line(source.read_bytes(), "dims = ",
                                  " ".join(["dims = inf", *map(float.hex, dims[1:])])))
    out = tmp_path / "fields.csv"
    assert run("analyze-fields", "--bank", bank, "--out", out) == cli.EXIT_CONFIG
    assert "finite cell count" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank]


@pytest.mark.parametrize("kind", ["l2", "chamfer"])
def test_a_baseline_with_a_negative_budget_exits_2(pipeline, kind, tmp_path, capsys):
    out = tmp_path / kind
    assert run("baseline-attack", "--kind", kind, "--eps", -1, "--psi", -0.5, "--iters", 2,
               "--victim", pipeline / "victim" / "seg.ckpt",
               "--data", pipeline / "data" / "val", "--out", out) == cli.EXIT_CONFIG
    assert "eps and psi must be finite and positive" in capsys.readouterr().err
    assert not list(out.glob("*.bin"))


def copy_split(source: Path, target: Path) -> Path:
    target.mkdir()
    for path in source.iterdir():
        if path.suffix in (".bin", ".label", ".boxes", ".cfg"):
            (target / path.name).write_bytes(path.read_bytes())
    return target


SPLIT_READERS = {
    "train-victim": lambda root, out: ("--out", out / "victim.ckpt"),
    "attack": lambda root, out: ("--mode", "untargeted", "--victim",
                                 root / "victim" / "seg.ckpt", "--out", out / "car.vfb"),
    "eval": lambda root, out: ("--victim", root / "victim" / "seg.ckpt",
                               "--out", out / "eval"),
}


@pytest.mark.parametrize("command", sorted(SPLIT_READERS))
def test_a_label_outside_this_builds_classes_exits_2(pipeline, command, tmp_path, capsys):
    split = copy_split(pipeline / "data" / "val", tmp_path / "split")
    label = split / "000001.label"
    packed = np.frombuffer(label.read_bytes(), dtype="<u4").copy()
    packed[3] = (packed[3] & 0xFFFF0000) | 7
    label.write_bytes(packed.tobytes())
    out = tmp_path / "out"
    argv = SPLIT_READERS[command](pipeline, out)
    assert run(command, "--data", split, *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(label) in err and "semantic id 7" in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SPLIT_READERS))
def test_a_split_of_other_classes_exits_2(pipeline, command, tmp_path, capsys):
    split = copy_split(pipeline / "data" / "val", tmp_path / "split")
    config = cloudio.read_config(split / "sensor.cfg")
    cloudio.write_config({**config, "classes": "ground,car,person,building"},
                         split / "sensor.cfg")
    out = tmp_path / "out"
    argv = SPLIT_READERS[command](pipeline, out)
    assert run(command, "--data", split, *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(split / "sensor.cfg") in err and "ground,car,person,building" in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SPLIT_READERS))
def test_a_split_whose_sensor_casts_too_many_rays_exits_2(pipeline, command, tmp_path, capsys):
    split = copy_split(pipeline / "data" / "val", tmp_path / "split")
    config = cloudio.read_config(split / "sensor.cfg")
    cloudio.write_config({**config, "azimuth_resolution": "1e-09"}, split / "sensor.cfg")
    out = tmp_path / "out"
    argv = SPLIT_READERS[command](pipeline, out)
    assert run(command, "--data", split, *argv) == cli.EXIT_CONFIG
    assert f"more than the {simulator.MAX_RAYS} allowed" in capsys.readouterr().err
    assert not out.exists()


# a version-5 file holding the parameters of a segmenter of another class
# count, which save_checkpoint refuses to write, and the message that names
# what it breaks
CHECKPOINT_GEOMETRY = {
    "classes-too-many": (7, "parameter W3 has shape (64, 7), expected (64, 5)"),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_GEOMETRY))
def test_a_checkpoint_with_a_bad_head_geometry_exits_2(pipeline, case, tmp_path, capsys):
    n_classes, message = CHECKPOINT_GEOMETRY[case]
    model = victim.SegNetMini(n_classes)
    model.init_random(0)
    path = tmp_path / "seg.ckpt"
    cloudio.write_arrays(path, victim.CKPT_MAGIC, victim.CKPT_VERSION, {"kind": "seg"},
                         model.mlp.params)
    out = tmp_path / "eval"
    assert run("eval", "--victim", path, "--data", pipeline / "data" / "val",
               "--out", out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("thr", [-0.5, 1.0])
def test_an_iou_threshold_outside_0_1_exits_2_and_writes_nothing(detection, thr, tmp_path,
                                                                   capsys):
    out = tmp_path / "eval"
    assert run("eval", "--victim", detection / "victim" / "det.ckpt", "--data",
               detection / "data" / "val", "--metrics", "ap", "--iou-thr", thr,
               "--out", out) == cli.EXIT_CONFIG
    assert f"--iou-thr {thr!r} is outside [0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_an_out_value_with_a_line_break_exits_2_and_writes_nothing(tmp_path, capsys):
    # the manifest would hold the line "objects = 2", which a replay then obeys
    out = f"{tmp_path / 'data'}\nobjects = 2"
    assert run("simulate", "--sizes", "1,0,0,0", "--channels", 8, "--azimuth-res-deg", 2,
               "--out", out) == cli.EXIT_CONFIG
    assert f"--out {out!r}: a config value holds no line break" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_out_value_with_surrounding_whitespace_exits_2_and_writes_nothing(
        pipeline, tmp_path, monkeypatch, capsys):
    # the manifest would hold "out =  sp", which a replay reads as "sp"
    monkeypatch.chdir(tmp_path)
    assert run("analyze-fields", "--bank", pipeline / "bank" / "car.vfb",
               "--out", " sp") == cli.EXIT_CONFIG
    assert "--out ' sp': a config value holds no line break" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_thread_count_ignores_the_environment(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("ADVFIELD_THREADS", "abc")
    out = tmp_path / "stats.csv"
    assert run("analyze-fields", "--bank", pipeline / "bank" / "car.vfb", "--out", out) == 0
    assert out.is_file()


def _edit_boxes(split: Path, edit) -> Path:
    path = split / "000001.boxes"
    first, *rest = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([edit(first), *rest]))
    return path


# an edit of one text input of a split -> (the file it breaks, the message)
TEXT_INPUTS = {
    "sensor-not-utf8": (lambda split: _rewrite(split / "sensor.cfg", "channels = ",
                                               b"channels = \xff8"),
                        ":2: not UTF-8 text"),
    "sensor-not-a-float": (lambda split: _rewrite(split / "sensor.cfg", "max_range = ",
                                                  "max_range = far"),
                           ": could not convert string to float: 'far'"),
    "boxes-not-utf8": (lambda split: _edit_boxes(split, lambda row: b"\xff" + row),
                       ":1: not UTF-8 text"),
    "boxes-four-fields": (lambda split: _edit_boxes(split, lambda row: b" ".join(row.split()[:4])),
                          ":1: expected 8 fields 'class cx cy cz w h l yaw', got 4"),
    "boxes-unknown-class": (lambda split: _edit_boxes(split,
                                                      lambda row: b"truck" + row[row.index(b" "):]),
                            ":1: class 'truck' is not one of this build's ground,car"),
    "boxes-not-a-float": (lambda split: _edit_boxes(split, lambda row: row.rsplit(b" ", 1)[0]
                                                    + b" 0.5rad"),
                          ":1: could not convert string to float: '0.5rad'"),
    "boxes-nan-centre": (lambda split: _edit_boxes(split, lambda row: b" ".join(
                             [row.split()[0], b"nan", *row.split()[2:]])),
                         ":1: center must have finite components, got ["),
    "boxes-inf-yaw": (lambda split: _edit_boxes(split, lambda row: row.rsplit(b" ", 1)[0]
                                                + b" inf"),
                      ":1: box yaw must be finite"),
}


def _rewrite(path: Path, prefix: str, line) -> Path:
    path.write_bytes(rewrite_line(path.read_bytes(), prefix, line))
    return path


@pytest.mark.parametrize("case", sorted(TEXT_INPUTS))
def test_a_broken_text_input_exits_2_and_names_its_file_and_line(pipeline, case, tmp_path,
                                                                 capsys):
    edit, message = TEXT_INPUTS[case]
    split = copy_split(pipeline / "data" / "val", tmp_path / "split")
    path = edit(split)
    out = tmp_path / "out"
    assert run("train-victim", "--data", split, "--epochs", 1,
               "--out", out / "victim.ckpt") == cli.EXIT_CONFIG
    assert f"{path}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_blank_boxes_lines_are_skipped(pipeline, tmp_path):
    split = copy_split(pipeline / "data" / "val", tmp_path / "split")
    path = split / "000001.boxes"
    rows = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([b"", rows[0], b"   ", *rows[1:], b"\t"]))
    got, want = (simulator.load_split(d)[0] for d in (split, pipeline / "data" / "val"))
    assert len(got.boxes) == len(want.boxes) > 1
    for a, b in zip(got.boxes, want.boxes):
        assert a.class_id == b.class_id
        assert (*a.box.center, a.box.width, a.box.height, a.box.length, a.box.yaw) == \
            (*b.box.center, b.box.width, b.box.height, b.box.length, b.box.yaw)


@pytest.mark.parametrize("command", ["train-victim", "eval"])
def test_a_point_outside_the_segmenters_grid_exits_2_and_writes_nothing(pipeline, command,
                                                                       tmp_path, capsys):
    split = copy_split(pipeline / "data" / "val", tmp_path / "split")
    cloud = split / "000000.bin"
    data = np.frombuffer(cloud.read_bytes(), dtype="<f4").copy()
    data[0] = 1e6  # x of the first point, 1,000 km out
    cloud.write_bytes(data.tobytes())
    out = tmp_path / "out"
    argv = SPLIT_READERS[command](pipeline, out)
    assert run(command, "--data", split, *argv) == cli.EXIT_CONFIG
    assert "point coordinates exceed the supported grid range" in capsys.readouterr().err
    assert not out.exists()


def test_a_manifest_that_is_not_utf8_exits_2_and_names_its_line(pipeline, tmp_path, capsys):
    path = tmp_path / "manifest.cfg"
    source = manifest(pipeline / "bank" / "car.vfb")
    path.write_bytes(rewrite_line(source.read_bytes(), "iters = ", b"iters = \xe9"))
    lines = source.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, x in enumerate(lines, 1) if x.startswith("iters = "))
    assert run("--config", path, "--out", tmp_path / "car.vfb") == cli.EXIT_CONFIG
    assert f"{path}:{lineno}: not UTF-8 text" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# a manifest records the options its run read, and no other
# ---------------------------------------------------------------------------

def outputs(root: Path) -> dict:
    """Every file under ``root`` but its manifest, by relative path."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.cfg"}


# per run whose mode ignores an option: its argv, that option, and a value of it
IGNORED_OPTIONS = {
    "simulate-one-domain": (lambda root: ("simulate", "--domain", "normal", "--scenes", 2,
                                          *TINY[2:]), "sizes", "1,1,1,1"),
    "simulate-splits": (lambda root: ("simulate", *TINY), "scenes", "7"),
    "baseline-l2": (lambda root: ("baseline-attack", "--kind", "l2", "--victim",
                                  root / "victim" / "seg.ckpt", "--data", root / "data" / "val",
                                  "--iters", 1), "lam", "0.5"),
    "eval-miou": (lambda root: ("eval", "--victim", root / "victim" / "seg.ckpt",
                                "--data", root / "data" / "val"), "seed", "3"),
}


@pytest.mark.parametrize("case", sorted(IGNORED_OPTIONS))
def test_a_manifest_leaves_out_an_option_its_mode_ignores(pipeline, case, tmp_path):
    argv, key, value = IGNORED_OPTIONS[case]
    out = tmp_path / "out"
    assert run(*argv(pipeline), f"--{key}={value}", "--out", out) == 0
    config = cloudio.read_config(out / "manifest.cfg")
    assert key not in config
    # older manifests record the option; its value is still read and ignored
    cloudio.write_config({**config, key: value}, tmp_path / "old.cfg")
    assert run("--config", tmp_path / "old.cfg", "--out", tmp_path / "replay") == 0
    assert outputs(tmp_path / "replay") == outputs(out)
    assert cloudio.read_config(tmp_path / "replay" / "manifest.cfg").keys() == config.keys()


@pytest.mark.parametrize("mode", ["untargeted", "detection"])
def test_a_target_outside_targeted_mode_exits_2_and_writes_nothing(pipeline, mode, tmp_path,
                                                                   capsys):
    assert run("attack", "--mode", mode, "--target", "building", "--victim",
               pipeline / "victim" / "seg.ckpt", "--data", pipeline / "data" / "train",
               "--out", tmp_path / "out" / "car.vfb") == cli.EXIT_CONFIG
    assert "--target is an option of --mode targeted only" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# every header value of an outside file: eval exits 0 or 2, never with a traceback
# ---------------------------------------------------------------------------

HEADER_VALUES = ("0", "-1", "1e300", "12345678901234567890", "nan", "abc")

# (artifact, key) -> values that must exit 2, with a message naming the key;
# a bank's class is one of this build's, so every edit of it is refused
MUST_REFUSE = {("bank", "class_name"): HEADER_VALUES, ("bank", "seed"): ("-1",),
               ("sensor", "range_noise"): ("-1",), ("victim", "kind"): HEADER_VALUES}


# the header keys of each outside file that eval reads
HEADER_KEYS = {"bank": ("class_name", "dims", "step", "eps", "psi", "boxes", "seed"),
               "victim": ("kind",),
               "sensor": (*simulator._SENSOR_KEYS, "classes")}
HEADER_EDITS = [(artifact, key, value) for artifact, keys in HEADER_KEYS.items()
                for key in keys for value in HEADER_VALUES]


@pytest.fixture(scope="module")
def header_sweep(detection, tmp_path_factory):
    """Each header edit -> (exit code or the exception eval raised, stderr, whether it wrote)."""
    root = tmp_path_factory.mktemp("headers")
    results = {}
    for index, (artifact, key, value) in enumerate(HEADER_EDITS):
        work = root / str(index)
        work.mkdir()
        split = copy_split(detection / "data" / "val", work / "split")
        bank, seg = work / "car.vfb", work / "seg.ckpt"
        bank.write_bytes((detection / "det-bank" / "car.vfb").read_bytes())
        seg.write_bytes((detection / "victim" / "seg.ckpt").read_bytes())
        edited = {"bank": bank, "victim": seg, "sensor": split / "sensor.cfg"}[artifact]
        _rewrite(edited, f"{key} = ", f"{key} = {value}")
        if artifact == "victim":
            argv = ("--victim", seg, "--data", split)
        else:
            argv = ("--victim", detection / "victim" / "det.ckpt", "--data", split,
                    "--metrics", "ap,asr", "--bank", bank)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = run("eval", *argv, "--out", work / "out")
            except Exception as err:  # what the command line shows as a traceback
                code = err
        results[artifact, key, value] = code, stderr.getvalue(), (work / "out").exists()
    return results


def test_the_header_sweep_edits_every_key(detection):
    files = {"bank": detection / "det-bank" / "car.vfb",
             "victim": detection / "victim" / "seg.ckpt",
             "sensor": detection / "data" / "val" / "sensor.cfg"}
    for artifact, path in files.items():
        if path.suffix == ".cfg":
            keys = list(cloudio.read_config(path))
        else:
            head = path.read_bytes().split(b"\narray ")[0].decode("utf-8").splitlines()[1:]
            keys = [line.partition(" = ")[0] for line in head]
        assert keys == list(HEADER_KEYS[artifact])
    assert all(key in HEADER_KEYS[artifact] for artifact, key in MUST_REFUSE)


@pytest.mark.parametrize("artifact,key,value", HEADER_EDITS)
def test_a_header_value_exits_0_or_2_and_writes_nothing_on_2(header_sweep, artifact, key,
                                                              value):
    code, err, wrote = header_sweep[artifact, key, value]
    assert code in (0, cli.EXIT_CONFIG), (code, err)
    if code == cli.EXIT_CONFIG:
        assert err.startswith("configuration error: ") and not wrote
    if value in MUST_REFUSE.get((artifact, key), ()):
        assert code == cli.EXIT_CONFIG and key in err
