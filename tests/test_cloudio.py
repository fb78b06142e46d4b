import math

import numpy as np
import pytest

from advfield import cli, cloudio, simulator, victim
from advfield.cloudio import FormatError, PointCloud
from advfield.field import init_random, make_bank


def random_cloud(rng, n=1000):
    # values representable in float32 so the round trip is bit exact
    xyz = rng.normal(scale=20, size=(n, 3)).astype(np.float32).astype(float)
    tau = rng.uniform(0, 1, n).astype(np.float32).astype(float)
    sem = rng.integers(0, 5, n)
    inst = rng.integers(0, 9, n)
    return PointCloud(xyz, tau, sem, inst)


class TestCloudRoundTrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        cloud = random_cloud(np.random.default_rng(0))
        path = tmp_path / "scan.bin"
        cloudio.write_cloud(cloud, path)
        back = cloudio.read_cloud(path)
        assert np.array_equal(back.xyz, cloud.xyz)
        assert np.array_equal(back.intensity, cloud.intensity)
        cloudio.write_cloud(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_empty_file_gives_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert cloudio.read_cloud(path).n == 0

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError, match="trailing bytes"):
            cloudio.read_cloud(path)

    def test_non_finite_rejected_with_offset(self, tmp_path):
        data = np.zeros((3, 4), dtype="<f4")
        data[1, 2] = np.nan
        path = tmp_path / "nan.bin"
        path.write_bytes(data.tobytes())
        with pytest.raises(FormatError, match="byte offset 16"):
            cloudio.read_cloud(path)


class TestLabels:
    def test_packing_layout(self, tmp_path):
        path = tmp_path / "x.label"
        path.write_bytes(np.array([0x0005_0002], dtype="<u4").tobytes())
        semantic, instance = cloudio.read_labels(path, 1)
        assert semantic[0] == 2 and instance[0] == 5

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        sem = rng.integers(0, 30, 500)
        inst = rng.integers(0, 200, 500)
        path = tmp_path / "r.label"
        cloudio.write_labels(path, sem, inst)
        s2, i2 = cloudio.read_labels(path, 500)
        assert np.array_equal(s2, sem) and np.array_equal(i2, inst)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.label"
        cloudio.write_labels(path, [1, 2], [0, 0])
        with pytest.raises(FormatError, match="expected"):
            cloudio.read_labels(path, 3)


class TestBankFormat:
    def _random_bank(self, seed=0, groups=2, variants=3):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups, variants, seed)
        rng = np.random.default_rng(seed + 1)
        for f in bank.fields:
            f.vectors[:] = rng.normal(scale=0.1, size=f.vectors.shape)
        return bank

    def test_roundtrip_exact(self, tmp_path):
        bank = self._random_bank()
        path = tmp_path / "bank.vfb"
        cloudio.save_bank(bank, path)
        back = cloudio.load_bank(path)
        assert back.groups == bank.groups and back.variants == bank.variants
        assert back.class_name == bank.class_name
        assert back.eps == bank.eps and back.psi == bank.psi
        assert type(back.seed) is int and back.seed == bank.seed == 0
        for f, g in zip(bank.fields, back.fields):
            assert (f.group, f.variant) == (g.group, g.variant)
            assert np.array_equal(f.roots, g.roots)
            assert np.array_equal(f.vectors, g.vectors)

    def test_corrupt_header_names_missing_key(self, tmp_path):
        bank = self._random_bank()
        path = tmp_path / "bank.vfb"
        cloudio.save_bank(bank, path)
        saved = path.read_text().splitlines()
        for key in ("N", "seed"):
            lines = [line for line in saved if not line.startswith(f"{key} = ")]
            assert len(lines) == len(saved) - 1
            path.write_text("\n".join(lines))
            with pytest.raises(FormatError, match=f"missing header key '{key}'"):
                cloudio.load_bank(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.vfb"
        for version in (3, 999):  # the format before this one, and a later one
            path.write_text(f"advfield-vfb {version}\n")
            with pytest.raises(FormatError, match=f"unsupported version {version}, expected 4"):
                cloudio.load_bank(path)

    def test_main_configuration_vector_count_on_disk(self, tmp_path):
        # 12 groups x 6 variants: 72 arrays of 1656 lattice vectors
        bank = make_bank(1, "car", (1.8, 1.6, 4.6), 0.2, 12, 6, seed=3)
        for f in bank.fields:
            init_random(f, 0)
        path = tmp_path / "big.vfb"
        cloudio.save_bank(bank, path)
        lines = path.read_text().splitlines()
        heads = [line for line in lines if line.startswith("array ")]
        assert heads == [f"array field-{g}-{n} 1656 4"
                         for g in range(1, 13) for n in range(1, 7)]
        vector_rows = lines[lines.index(heads[0]):]
        vector_rows = [line for line in vector_rows if not line.startswith("array ")]
        assert len(vector_rows) == 119_232
        assert all(len(line.split()) == 4 for line in vector_rows)


class TestBankFormatV2:
    """What bank format 2 introduced and format 4 keeps: the box mode, no root rows."""

    def test_roundtrip_keeps_box_mode(self, tmp_path):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 6, 2, seed=4, boxes="axis-aligned")
        path = tmp_path / "aa.vfb"
        cloudio.save_bank(bank, path)
        back = cloudio.load_bank(path)
        assert back.boxes == "axis-aligned"
        assert [f.roots.tobytes() for f in back.fields] == [f.roots.tobytes()
                                                            for f in bank.fields]

    def test_no_root_rows_and_mode_after_psi(self, tmp_path):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
        path = tmp_path / "b.vfb"
        cloudio.save_bank(bank, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "advfield-vfb 4"
        at = lines.index(next(x for x in lines if x.startswith("psi")))
        assert lines[at + 1:at + 3] == ["boxes = gt", "seed = 4"]
        assert not any(x.startswith(("r ", "roots_per_field")) for x in lines)
        # the only arrays are the two 20 x 4 vector arrays: 20 lattice roots each
        assert [x for x in lines if x.startswith("array ")] == ["array field-1-1 20 4",
                                                                "array field-2-1 20 4"]
        assert len(lines) == 1 + 10 + 2 * (1 + 20)

    def test_version_one_rejected(self, tmp_path):
        path = tmp_path / "v1.vfb"
        path.write_text("advfield-vfb 1\nclass_name = car\nroots_per_field = 1\n")
        with pytest.raises(FormatError, match="unsupported version 1"):
            cloudio.load_bank(path)

    def test_vector_rows_must_cover_the_lattice(self, tmp_path):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
        path = tmp_path / "short.vfb"
        cloudio.save_bank(bank, path)
        lines = path.read_text().splitlines()
        for head in ("array field-1-1 20 4", "array field-2-1 20 4"):
            short = list(lines)
            del short[short.index(head) + 3]
            path.write_text("\n".join(short) + "\n")
            with pytest.raises(FormatError, match="array field-.-1 needs 20 rows"):
                cloudio.load_bank(path)


def _edit(lines, old, new):
    return [new if line == old else line for line in lines]


MALFORMED_BANKS = {
    "count": (lambda lines: _edit(lines, "G = 2", "G = 3"), "bank needs G\\*N = 3 fields"),
    "duplicate-slot": (lambda lines: _edit(lines, "array field-2-1 20 4", "array field-1-1 20 4"),
                       "duplicate array field-1-1"),
    "slot-name": (lambda lines: _edit(lines, "array field-2-1 20 4", "array f2 20 4"),
                  "array f2 is not a 'field-<g>-<n>' slot"),
    # the same 80 values, which a reshape to (20, 4) would accept
    "shape": (lambda lines: _edit(lines, "array field-2-1 20 4", "array field-2-1 20 2 2"),
              "array field-2-1 has shape \\(20, 2, 2\\)"),
    "row-width": (lambda lines: _edit(lines, "array field-2-1 20 4", "array field-2-1 20 3"),
                  "array field-2-1 needs 20 rows of 3"),
    "empty-bank": (lambda lines: _edit(_edit(lines[:11], "G = 2", "G = 0"), "N = 1", "N = 0"),
                   "G, N >= 1"),
    "box-mode": (lambda lines: _edit(lines, "boxes = gt", "boxes = round"), "box mode"),
    "trailing-line": (lambda lines: lines + ["0x1.0p+0"], "expected 'array <name>"),
    "bad-hexfloat": (lambda lines: lines[:-1] + [lines[-1].replace("0x", "0y", 1)],
                     "array field-2-1 needs 20 rows"),
    "double-space": (lambda lines: lines[:-1] + [lines[-1].replace(" ", "  ", 1)],
                     "array field-2-1 needs 20 rows"),
    # one value moved from the last row to the one before: the total still fits
    "misaligned-rows": (lambda lines: lines[:-2] + [
        lines[-2] + " " + lines[-1].split(" ", 1)[0], lines[-1].split(" ", 1)[1]],
        "array field-2-1 needs 20 rows"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BANKS))
def test_malformed_bank_raises_format_error(tmp_path, case):
    edit, message = MALFORMED_BANKS[case]
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
    path = tmp_path / "bad.vfb"
    cloudio.save_bank(bank, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(FormatError, match=message):
        cloudio.load_bank(path)


def _victim(kind):
    model = victim.SegNetMini(5) if kind == "seg" else victim.DetHeadMini()
    model.init_random(7)
    return model


class TestCheckpointFormat:
    @pytest.mark.parametrize("kind", ["seg", "det"])
    def test_roundtrip_bit_exact(self, tmp_path, kind):
        model = _victim(kind)
        path = tmp_path / f"{kind}.ckpt"
        victim.save_checkpoint(model, path)
        back = victim.load_checkpoint(path)
        assert type(back) is type(model)
        assert back.state()[0] == model.state()[0]
        params, loaded = model.mlp.params, back.mlp.params
        assert list(loaded) == list(params)
        assert all(loaded[k].tobytes() == params[k].tobytes() for k in params)
        victim.save_checkpoint(back, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_wrong_shape_parameter_is_named(self, tmp_path):
        meta, params = _victim("seg").state()
        params = {**params, "W1": np.zeros((7, 32))}
        path = tmp_path / "w1.ckpt"
        cloudio.write_arrays(path, victim.CKPT_MAGIC, victim.CKPT_VERSION, meta, params)
        with pytest.raises(FormatError, match="parameter W1 has shape \\(7, 32\\)"):
            victim.load_checkpoint(path)
        with pytest.raises(FormatError, match="parameter W4"):
            victim.SegNetMini.from_state(meta, {**_victim("seg").state()[1], "W4": np.zeros(3)})


def _truncated(lines):
    return lines[:len(lines) // 2]


MALFORMED_CHECKPOINTS = {
    "truncated": (_truncated, "needs"),
    "no-version": (lambda lines: ["advfield-ckpt"] + lines[1:], "not an advfield-ckpt file"),
    "wrong-magic": (lambda lines: ["advfield-ckptX 2"] + lines[1:], "not an advfield-ckpt file"),
    "version-1": (lambda lines: ["advfield-ckpt 1"] + [
        line.replace("array ", "param ") for line in lines[1:]], "unsupported version 1"),
    "unknown-kind": (lambda lines: _edit(lines, "kind = seg", "kind = pointnet"),
                     "unknown checkpoint kind 'pointnet'"),
    "missing-meta": (lambda lines: [x for x in lines if not x.startswith("hidden")],
                     "missing header key 'hidden'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_raises_format_error(tmp_path, case):
    edit, message = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bad.ckpt"
    victim.save_checkpoint(_victim("seg"), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(FormatError, match=message):
        victim.load_checkpoint(path)


def test_eval_of_an_unreadable_victim_exits_2(tmp_path):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(4.0))
    simulator.write_sensor_config(sensor, tmp_path / "data")
    simulator.write_scene(simulator.generate_scene(0, "normal", 2, sensor), tmp_path / "data", 0)
    path = tmp_path / "truncated.ckpt"
    victim.save_checkpoint(_victim("seg"), path)
    path.write_text("\n".join(_truncated(path.read_text().splitlines())) + "\n")
    for ckpt in (path, tmp_path / "data"):  # a truncated file, a directory
        assert cli.main(["eval", "--victim", str(ckpt), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "e")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "e").exists()


class TestConfig:
    def test_roundtrip(self, tmp_path):
        config = {"seed": "3", "eps": "0.3", "out": "some/dir"}
        path = tmp_path / "run.cfg"
        cloudio.write_config(config, path)
        assert cloudio.read_config(path) == config

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\na = 1\n")
        assert cloudio.read_config(path) == {"a": "1"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(FormatError):
            cloudio.read_config(path)


class TestPointCloudInvariants:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_rejects_out_of_range_intensity(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.array([1.5]), np.zeros(1), np.zeros(1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.full((1, 3), np.inf), np.zeros(1), np.zeros(1), np.zeros(1))

