"""The CLI in-process on a tiny split: run, replay from manifests, exit codes."""

import math
from pathlib import Path

import numpy as np
import pytest

from advfield import cli, cloudio, simulator, victim
from advfield.geometry import OrientedBox, box_contains_many

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
    # a top-level flag before the subcommand stays where it is
    assert run("--threads", 2, "attack", "--config", config, "--out", out) == 0
    assert out.read_bytes() == (pipeline / "bank" / "car.vfb").read_bytes()


def test_replay_takes_the_subcommand_from_the_manifest(pipeline):
    out = pipeline / "bank-bare" / "car.vfb"
    assert run("--config", manifest(pipeline / "bank" / "car.vfb"), "--out", out) == 0
    assert out.read_bytes() == (pipeline / "bank" / "car.vfb").read_bytes()


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


def test_bare_config_exits_2():
    assert run("simulate", "--config") == cli.EXIT_CONFIG


def test_manifest_of_another_subcommand_exits_2(pipeline, tmp_path):
    assert run("attack", "--config", pipeline / "data" / "manifest.cfg",
               "--out", tmp_path / "x.vfb") == cli.EXIT_CONFIG


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


def test_single_domain_simulate_writes_generate_scene_in_order(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(2.0))
    reference = tmp_path / "reference"
    for index in range(3):
        simulator.write_scene(simulator.generate_scene(5 + index, "damaged", 4, sensor),
                              reference, index)
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert run("--threads", threads, "simulate", "--domain", "damaged", "--scenes", 3,
                   "--seed", 5, "--out", out, *TINY[2:]) == 0
        assert (out / "sensor.cfg").is_file()
        assert data_files(out) == data_files(reference)
        assert len(data_files(out)) == 3 * 3


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
    with pytest.raises(SystemExit) as exit_info:
        run("attack", "--mode", "untargeted", "--victim", pipeline / "victim" / "seg.ckpt",
            "--data", pipeline / "data" / "train", "--k", 3, "--out", tmp_path / "car.vfb")
    assert exit_info.value.code == cli.EXIT_CONFIG


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
    replay = pipeline / "seg-eval-replay"
    assert run("eval", "--config", out / "manifest.cfg", "--out", replay) == 0
    for name in SEG_REPORTS:
        assert (replay / name).read_bytes() == (out / name).read_bytes()


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


def test_analyze_fields_has_no_seed_flag(pipeline, tmp_path, capsys):
    bank = ("--bank", pipeline / "bank" / "car.vfb")
    with pytest.raises(SystemExit) as exit_info:
        run("analyze-fields", *bank, "--seed", 0, "--out", tmp_path / "fields.csv")
    assert exit_info.value.code == cli.EXIT_CONFIG
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


def test_baseline_attack_has_no_seed_flag(pipeline, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        run("baseline-attack", "--kind", "l2", "--victim", pipeline / "victim" / "seg.ckpt",
            "--data", pipeline / "data" / "val", "--seed", 0, "--out", tmp_path)
    assert exit_info.value.code == cli.EXIT_CONFIG


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
    with pytest.raises(SystemExit) as exit_info:
        run(command, *kind, flag, "nosuch", "--victim", pipeline / "victim" / "seg.ckpt",
            "--data", pipeline / "data" / "train", "--out", tmp_path / "out")
    assert exit_info.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "invalid choice: 'nosuch'" in err


def test_a_manifest_with_an_unknown_class_name_exits_2(pipeline, tmp_path, capsys):
    config = cloudio.read_config(manifest(pipeline / "bank" / "car.vfb"))
    cloudio.write_config({**config, "cls": "nosuch"}, tmp_path / "nosuch.cfg")
    out = tmp_path / "out" / "car.vfb"
    assert run("attack", "--config", tmp_path / "nosuch.cfg", "--out", out) == cli.EXIT_CONFIG
    assert "--class 'nosuch' is not one of ground, car," in capsys.readouterr().err
    assert not out.exists()
