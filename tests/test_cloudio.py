import math
import tempfile
import tracemalloc
from pathlib import Path

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
        for f in bank.fields:  # inside the bank's budget eps = psi = 0.3
            f.vectors[:] = rng.uniform(-0.3, 0.3, size=f.vectors.shape)
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
    # the header's G = 2, but the array of slot (2, 1) is gone
    "missing-slot": (lambda lines: lines[:-21], "bank needs G\\*N = 2 fields, got 1"),
    "duplicate-slot": (lambda lines: _edit(lines, "array field-2-1 20 4", "array field-1-1 20 4"),
                       "duplicate array field-1-1"),
    # the right slot count, but a group that a G = 2 bank does not have
    "slot-range": (lambda lines: _edit(lines, "array field-2-1 20 4", "array field-7-1 20 4"),
                   "array field-7-1 is not a 'field-<g>-<n>' slot of the bank's 2 x 1 grid"),
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
    # a dx of 0.5 in the last row, outside eps = 0.3
    "over-budget": (lambda lines: lines[:-1] + ["0x1.0p-1 " + lines[-1].split(" ", 1)[1]],
                    "array field-2-1 has a vector outside the bank's budget eps = 0.3, "
                    "psi = 0.3"),
    "nan-vector": (lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " nan"],
                   "array field-2-1 has a vector outside the bank's budget"),
    "eps-nan": (lambda lines: _edit(lines, "eps = 0x1.3333333333333p-2", "eps = nan"),
                "eps and psi must be finite and positive, got nan and 0.3"),
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


# ---------------------------------------------------------------------------
# the hexfloat codec against the string codec it replaced: the same bytes out,
# the same values, and the same FormatError messages in
# ---------------------------------------------------------------------------

def oracle_write_arrays(path, magic, version, header, arrays):
    lines = [f"{magic} {version}"]
    lines += [f"{key} = {value}" for key, value in header.items()]
    for name, array in arrays.items():
        array = np.asarray(array, dtype=float)
        lines.append(" ".join(["array", name, *map(str, array.shape)]))
        rows = array.reshape(array.shape[0], math.prod(array.shape[1:]))
        lines.extend(" ".join(map(float.hex, row)) for row in rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_read_arrays(path, magic, version):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    first = lines[0].split() if lines else []
    if len(first) != 2 or first[0] != magic:
        raise FormatError(f"{path}: not an {magic} file, line 1 must read '{magic} {version}'")
    if first[1] != str(version):
        raise FormatError(f"{path}: unsupported version {first[1]}, expected {version}")
    at = next((i for i, line in enumerate(lines) if line.startswith("array ")), len(lines))
    header = cloudio._parse_header(lines[1:at], path, 2)
    arrays = {}
    while at < len(lines):
        words = lines[at].split()
        if len(words) < 3 or words[0] != "array" or not all(d.isdecimal() for d in words[2:]):
            raise FormatError(f"{path}:{at + 1}: expected 'array <name> <d0> <d1> ...', "
                              f"got {lines[at]!r}")
        name, shape = words[1], tuple(map(int, words[2:]))
        if name in arrays:
            raise FormatError(f"{path}:{at + 1}: duplicate array {name}")
        rows, cols = shape[0], math.prod(shape[1:])
        chunk = lines[at + 1:at + 1 + rows]
        try:
            if len(chunk) != rows or any(line.count(" ") != cols - 1 for line in chunk):
                raise ValueError
            values = list(map(float.fromhex, " ".join(chunk).split(" ")))
        except ValueError:
            raise FormatError(f"{path}:{at + 1}: array {name} needs {rows} rows of {cols} "
                              "hexfloats separated by single spaces") from None
        arrays[name] = np.array(values).reshape(shape)
        at += 1 + rows
    return header, arrays


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -1.5, 0.1, 2.0 ** -1022 * 1.5]
NON_FINITE = [math.nan, math.inf, -math.inf]


def finite_bits(rng, shape):
    """Floats whose bits are uniform over every sign, exponent and mantissa but nan and inf."""
    bits = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    bits[exponent == 0x7FF] ^= np.uint64(1 << 62)  # exponent 2047 -> 1023
    return bits.view(np.float64)


def codec_arrays():
    rng = np.random.default_rng(11)
    return {
        "edges": np.array(EDGE_VALUES).reshape(1, -1),
        "edges-column": np.array(EDGE_VALUES).reshape(-1, 1),
        "flat": finite_bits(rng, 37),
        "wide": finite_bits(rng, (1, 300)),
        "tall": finite_bits(rng, (300, 1)),
        "cube": finite_bits(rng, (4, 3, 5)),
        "non-finite": np.array(EDGE_VALUES + NON_FINITE).reshape(2, 8),
        "unit": rng.uniform(-0.3, 0.3, size=(50, 4)),
    }


class TestHexfloatCodec:
    def write_both(self, tmp_path, arrays, header=None):
        header = {"kind": "test", "note": "caf\u00e9"} if header is None else header
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        cloudio.write_arrays(new, "magic", 3, header, arrays)
        oracle_write_arrays(old, "magic", 3, header, arrays)
        return new, old

    def test_bytes_equal_the_float_hex_text(self, tmp_path):
        arrays = codec_arrays()
        new, old = self.write_both(tmp_path, arrays)
        assert new.read_bytes() == old.read_bytes()
        header, back = cloudio.read_arrays(new, "magic", 3)
        assert header == {"kind": "test", "note": "caf\u00e9"}
        assert list(back) == list(arrays)
        for name, array in arrays.items():
            assert back[name].shape == np.shape(array)
            assert back[name].tobytes() == np.asarray(array, dtype=float).tobytes()

    def test_every_exponent_and_both_signs(self, tmp_path):
        exponents = np.arange(-1074, 1024, dtype=float)
        values = np.ldexp(1.0 + np.arange(len(exponents)) % 7 / 8, exponents.astype(int))
        arrays = {"all": np.concatenate([values, -values]).reshape(-1, 4)}
        new, old = self.write_both(tmp_path, arrays)
        assert new.read_bytes() == old.read_bytes()
        assert cloudio.read_arrays(new, "magic", 3)[1]["all"].tobytes() == \
            arrays["all"].tobytes()

    def test_blocks_of_rows_write_and_read_the_same_bytes(self, tmp_path, monkeypatch):
        arrays = codec_arrays()
        whole = self.write_both(tmp_path, arrays)[0].read_bytes()
        monkeypatch.setattr(cloudio, "_BLOCK_VALUES", 7)
        monkeypatch.setattr(cloudio, "_READ_CHUNK", 5)
        path = tmp_path / "blocks.txt"
        cloudio.write_arrays(path, "magic", 3, {"kind": "test", "note": "caf\u00e9"}, arrays)
        assert path.read_bytes() == whole
        back = cloudio.read_arrays(path, "magic", 3)[1]
        assert all(back[k].tobytes() == np.asarray(v, float).tobytes() for k, v in arrays.items())

    @pytest.mark.parametrize("kind", ["seg", "det"])
    def test_checkpoints_equal_the_float_hex_text(self, tmp_path, kind):
        model = _victim(kind)
        rng = np.random.default_rng(5)
        for value in model.mlp.params.values():  # trained-looking, with some exact zeros
            value[:] = rng.normal(scale=0.2, size=value.shape) * (rng.random(value.shape) > 0.1)
        meta, params = model.state()
        victim.save_checkpoint(model, tmp_path / "new.ckpt")
        oracle_write_arrays(tmp_path / "old.ckpt", victim.CKPT_MAGIC, victim.CKPT_VERSION,
                            meta, params)
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()

    @pytest.mark.parametrize("token", ["0x1.0p-1", "0X1P-3", "+0x1.8p+1", "0x1.8000000000000P+1",
                                       "0x1.ABCDEF0000000p+4", "0x1.abcdefp+4", "0x0.8p-1022",
                                       "0x1.0000000000000p+01", "0x1.0000000000000p-0",
                                       "0x2.0p+3", "-0x0.0p+0", "0x0.0p-0", "0x.8p1", "1",
                                       "0x1p+0\t", "\t-0x1.8p+1", "nan", "-inf", "inf",
                                       "0x0.0000000000001p-1022", "0x1.fffffffffffffp+1023",
                                       "0x1.00000000000001p+0", "0x0.8000000000000p-1",
                                       "0x1.0000000000000p+000000001"])
    def test_any_other_token_reads_as_float_fromhex_reads_it(self, tmp_path, token):
        path = tmp_path / "one.txt"
        path.write_bytes(f"magic 3\narray x 1 3\n0x1.8p+1 {token} -0x1p-1\n".encode())
        got = cloudio.read_arrays(path, "magic", 3)[1]["x"]
        want = np.array([[3.0, float.fromhex(token), -0.5]])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == oracle_read_arrays(path, "magic", 3)[1]["x"].tobytes()

    # float.fromhex raises OverflowError for the first three, which the string codec let out
    @pytest.mark.parametrize("token", ["0x1p+99999", "-0x1.8p+1024", "0x1.fffffffffffff8p+1023",
                                       "0x1.0p", "0x1.0000000000000q+0", "0x1.000000000000gp+0",
                                       "", "--0x1p+0", "0x1.0p+0x", "0x0.0p+0x"])
    def test_a_token_float_fromhex_refuses_is_a_format_error(self, tmp_path, token):
        path = tmp_path / "one.txt"
        path.write_bytes(f"magic 3\narray x 1 2\n0x1.8p+1 {token}\n".encode())
        with pytest.raises(FormatError, match="array x needs 1 rows of 2 hexfloats"):
            cloudio.read_arrays(path, "magic", 3)

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\v", "\x1c", "\u2028"])
    def test_any_line_break_that_splitlines_knows_reads_the_same(self, tmp_path, newline):
        arrays = codec_arrays()
        new, _ = self.write_both(tmp_path, arrays)
        new.write_bytes(new.read_bytes().decode().replace("\n", newline).encode())
        header, back = cloudio.read_arrays(new, "magic", 3)
        assert header == oracle_read_arrays(new, "magic", 3)[0]
        assert all(back[k].tobytes() == np.asarray(v, float).tobytes() for k, v in arrays.items())

    def test_edited_files_read_as_the_string_codec_read_them(self, tmp_path):
        # random byte edits of a small file: every outcome, values or message, is the
        # string reader's, except that a file it could not decode is now a FormatError
        # and a hexfloat too large for a float is one too
        rng = np.random.default_rng(2)
        arrays = {"a": np.array([[0.0, -0.5, 5e-324], [1e300, -3.25, 0.1]]),
                  "b": np.array([2.0 ** -1030, -0.0, 7.0])}
        path = tmp_path / "edit.txt"
        oracle_write_arrays(path, "magic", 3, {"k": "v"}, arrays)
        saved = path.read_bytes()
        alphabet = list(b" \n\r\v\t0123456789abcdefABCDEFpPxX+-.n\xff") + [b"\xc2\x85"]
        outcomes = set()
        for _ in range(400):
            text = bytearray(saved)
            for _ in range(int(rng.integers(1, 3))):
                pos = int(rng.integers(0, len(text)))
                char = alphabet[int(rng.integers(0, len(alphabet)))]
                char = char if isinstance(char, bytes) else bytes([char])
                text[pos:pos + int(rng.integers(0, 2))] = char
            path.write_bytes(bytes(text))
            try:
                header, want = oracle_read_arrays(path, "magic", 3)
            except (UnicodeDecodeError, OverflowError):
                with pytest.raises(FormatError):
                    cloudio.read_arrays(path, "magic", 3)
                outcomes.add("refused now")
                continue
            except FormatError as err:
                with pytest.raises(FormatError) as got:
                    cloudio.read_arrays(path, "magic", 3)
                assert str(got.value) == str(err)
                outcomes.add("same message")
                continue
            got_header, got = cloudio.read_arrays(path, "magic", 3)
            assert got_header == header and list(got) == list(want)
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
            outcomes.add("same values")
        assert outcomes == {"refused now", "same message", "same values"}


@pytest.mark.parametrize("load, suffix", [(cloudio.load_bank, ".vfb"),
                                          (victim.load_checkpoint, ".ckpt")])
def test_a_file_that_is_not_utf8_is_a_format_error_that_names_it(tmp_path, load, suffix):
    path = tmp_path / f"binary{suffix}"
    path.write_bytes(b"\xff\xfe" + b"\x00" * 30)
    with pytest.raises(FormatError, match=f"{path}:1: not UTF-8 text"):
        load(path)
    # the bad byte later on: the message names its line
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
    cloudio.save_bank(bank, path)
    lines = path.read_bytes().split(b"\n")
    lines[13] = lines[13].replace(b"0x", b"0\xe9", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match=f"{path}:14: not UTF-8 text"):
        cloudio.load_bank(path)


def test_a_bank_round_trip_keeps_its_memory_near_the_vectors():
    # a 12 x 2 bank at step 0.2: 24 slots of 1,656 vectors, 1.27 MB of float64
    bank = make_bank(1, "car", (1.8, 1.6, 4.6), 0.2, 12, 2, seed=3)
    bank.vectors[:] = np.random.default_rng(0).uniform(-0.3, 0.3, size=bank.vectors.shape)
    size = bank.vectors.nbytes
    assert size == 24 * 1656 * 4 * 8
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "car.vfb"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cloudio.save_bank(bank, path)
            save_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = cloudio.load_bank(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert back.vectors.tobytes() == bank.vectors.tobytes()
    assert save_peak < 2 * size, save_peak
    assert load_peak < 4 * size, load_peak


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

