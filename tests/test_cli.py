"""The CLI in-process on a tiny split: run, replay from manifests, exit codes."""

from pathlib import Path

import pytest

from advfield import cli, cloudio

TINY = ("--sizes", "4,2,2,2", "--objects", "4", "--channels", "8",
        "--azimuth-res-deg", "2")


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


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
    for step in ("data", "victim", "bank"):
        assert (pipeline / step / "manifest.cfg").is_file()


def test_simulate_replay_is_byte_identical(pipeline):
    replay = pipeline / "data-replay"
    assert run("simulate", "--config", pipeline / "data" / "manifest.cfg",
               "--out", replay) == 0
    assert data_files(replay) == data_files(pipeline / "data")


def test_attack_replay_is_byte_identical(pipeline):
    manifest = pipeline / "bank" / "manifest.cfg"
    assert cloudio.read_config(manifest)["cls"] == "car"
    out = pipeline / "bank-replay" / "car.vfb"
    # a top-level flag before the subcommand stays where it is
    assert run("--threads", 2, "attack", "--config", manifest, "--out", out) == 0
    assert out.read_bytes() == (pipeline / "bank" / "car.vfb").read_bytes()


def test_replay_takes_the_subcommand_from_the_manifest(pipeline):
    out = pipeline / "bank-bare" / "car.vfb"
    assert run("--config", pipeline / "bank" / "manifest.cfg", "--out", out) == 0
    assert out.read_bytes() == (pipeline / "bank" / "car.vfb").read_bytes()


def test_flags_on_the_command_line_win(pipeline):
    out = pipeline / "data-seed1"
    assert run("simulate", "--config", pipeline / "data" / "manifest.cfg", "--out", out,
               "--seed", 1) == 0
    assert cloudio.read_config(out / "manifest.cfg")["seed"] == "1"
    assert data_files(out) != data_files(pipeline / "data")


def test_bare_config_exits_2():
    assert run("simulate", "--config") == cli.EXIT_CONFIG


def test_manifest_of_another_subcommand_exits_2(pipeline, tmp_path):
    assert run("attack", "--config", pipeline / "data" / "manifest.cfg",
               "--out", tmp_path / "x.vfb") == cli.EXIT_CONFIG
