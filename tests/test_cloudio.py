import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from advfield import cli, cloudio, simulator, victim
from advfield.cloudio import FormatError, PointCloud
from advfield.field import init_random, make_bank
from artifact_edit import rewrite_line


def random_cloud(rng, n=1000):
    # values representable in float32 so the round trip is bit exact
    xyz = rng.normal(scale=20, size=(n, 3)).astype(np.float32).astype(float)
    tau = rng.uniform(0, 1, n).astype(np.float32).astype(float)
    sem = rng.integers(0, 5, n)
    inst = rng.integers(0, 9, n)
    return PointCloud(xyz, tau, sem, inst)


def zero_labels(path, n):
    """A .label file of ``n`` zero labels at ``path``, the partner of an ``n``-point cloud."""
    cloudio.write_labels(path, np.zeros(n, dtype=int), np.zeros(n, dtype=int))
    return path


def zero_cloud(path, n):
    """A .bin file of ``n`` points at the origin, the partner of an ``n``-label file."""
    cloudio.write_cloud(PointCloud.unlabeled(np.zeros((n, 3)), np.zeros(n)), path)
    return path


class TestCloudRoundTrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        cloud = random_cloud(np.random.default_rng(0))
        path = tmp_path / "scan.bin"
        cloudio.write_cloud(cloud, path)
        back = cloudio.read_labeled_cloud(path, zero_labels(tmp_path / "scan.label", cloud.n))
        assert np.array_equal(back.xyz, cloud.xyz)
        assert np.array_equal(back.intensity, cloud.intensity)
        cloudio.write_cloud(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_empty_file_gives_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert cloudio.read_labeled_cloud(path, zero_labels(tmp_path / "e.label", 0)).n == 0

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError, match="trailing bytes"):
            cloudio.read_labeled_cloud(path, zero_labels(tmp_path / "bad.label", 1))

    def test_non_finite_rejected_with_offset(self, tmp_path):
        data = np.zeros((3, 4), dtype="<f4")
        data[1, 2] = np.nan
        path = tmp_path / "nan.bin"
        path.write_bytes(data.tobytes())
        with pytest.raises(FormatError, match="byte offset 16"):
            cloudio.read_labeled_cloud(path, zero_labels(tmp_path / "nan.label", 3))


class TestLabels:
    def test_packing_layout(self, tmp_path):
        path = tmp_path / "x.label"
        path.write_bytes(np.array([0x0005_0002], dtype="<u4").tobytes())
        cloud = cloudio.read_labeled_cloud(zero_cloud(tmp_path / "x.bin", 1), path)
        assert cloud.semantic[0] == 2 and cloud.instance[0] == 5

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        sem = rng.integers(0, 30, 500)
        inst = rng.integers(0, 200, 500)
        path = tmp_path / "r.label"
        cloudio.write_labels(path, sem, inst)
        cloud = cloudio.read_labeled_cloud(zero_cloud(tmp_path / "r.bin", 500), path)
        assert np.array_equal(cloud.semantic, sem) and np.array_equal(cloud.instance, inst)
        assert cloud.semantic.dtype == cloud.instance.dtype == np.int32

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.label"
        cloudio.write_labels(path, [1, 2], [0, 0])
        with pytest.raises(FormatError, match=f"{path}: expected 12 bytes for 3 points, got 8"):
            cloudio.read_labeled_cloud(zero_cloud(tmp_path / "short.bin", 3), path)

    @pytest.mark.parametrize("semantic, instance, kind", [
        ([70000], [0], "semantic"), ([1], [-1], "instance"), ([1], [70000], "instance")],
        ids=["semantic-70000", "instance-minus-1", "instance-70000"])
    def test_an_id_outside_16_bits_is_refused_and_creates_no_file(self, tmp_path, semantic,
                                                                   instance, kind):
        with pytest.raises(ValueError, match=f"{kind} ids must fit in 16 bits"):
            cloudio.write_labels(tmp_path / "x.label", semantic, instance)
        assert list(tmp_path.iterdir()) == []


class TestBankFormat:
    def _random_bank(self, seed=0, groups=2, variants=3):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, groups, variants, seed)
        rng = np.random.default_rng(seed + 1)
        for f in bank.fields:  # inside the bank's budget eps = psi = 0.3
            f.vectors[:] = rng.uniform(-0.3, 0.3, size=f.vectors.shape)
        return bank

    def test_roundtrip_exact(self, tmp_path):
        bank = self._random_bank()
        bank.vectors[0, 0, :4, 0] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308]
        path = tmp_path / "bank.vfb"
        cloudio.save_bank(bank, path)
        back = cloudio.load_bank(path)
        assert back.groups == bank.groups and back.variants == bank.variants
        assert back.class_name == bank.class_name
        assert back.eps == bank.eps and back.psi == bank.psi
        assert type(back.seed) is int and back.seed == bank.seed == 0
        assert back.vectors.tobytes() == bank.vectors.tobytes()
        assert back.vectors.flags.c_contiguous and back.vectors.flags.writeable
        for f, g in zip(bank.fields, back.fields):
            assert (f.group, f.variant) == (g.group, g.variant)
            assert np.array_equal(f.roots, g.roots)
            assert np.shares_memory(g.vectors, back.vectors)
        cloudio.save_bank(back, tmp_path / "again.vfb")
        assert (tmp_path / "again.vfb").read_bytes() == path.read_bytes()

    def test_corrupt_header_names_missing_key(self, tmp_path):
        bank = self._random_bank()
        path = tmp_path / "bank.vfb"
        cloudio.save_bank(bank, path)
        saved = path.read_bytes()
        for key in ("dims", "seed"):
            path.write_bytes(rewrite_line(saved, f"{key} = "))
            with pytest.raises(FormatError, match=f"missing header key '{key}'"):
                cloudio.load_bank(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.vfb"
        for version in (5, 999):  # the format before this one, and a later one
            path.write_text(f"advfield-vfb {version}\n")
            with pytest.raises(FormatError, match=f"unsupported version {version}, expected 6"):
                cloudio.load_bank(path)
        # a whole bank under the old version line
        cloudio.save_bank(self._random_bank(), path)
        path.write_bytes(rewrite_line(path.read_bytes(), "advfield-vfb ", "advfield-vfb 5"))
        with pytest.raises(FormatError, match="unsupported version 5, expected 6"):
            cloudio.load_bank(path)

    def test_main_configuration_vector_count_on_disk(self, tmp_path):
        # 12 groups x 6 variants of 1656 lattice vectors: one array, 3.8 MB of float64
        bank = make_bank(1, "car", (1.8, 1.6, 4.6), 0.2, 12, 6, seed=3)
        for f in bank.fields:
            init_random(f, 0)
        path = tmp_path / "big.vfb"
        cloudio.save_bank(bank, path)
        data = path.read_bytes()
        at = data.index(b"\narray ") + 1
        end = data.index(b"\n", at) + 1
        assert data[at:end] == b"array vectors 12 6 1656 4\n"
        assert data.count(b"\narray ") == 1
        assert len(data) - end == 12 * 6 * 1656 * 4 * 8 == 3_815_424
        assert data[end:] == bank.vectors.astype("<f8").tobytes()


class TestBankFormatV2:
    """What bank format 2 introduced and format 6 keeps: the box mode, no root rows."""

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
        data = path.read_bytes()
        at = data.index(b"array ")
        lines = data[:at].decode("utf-8").splitlines()
        assert lines[0] == "advfield-vfb 6"
        at_psi = lines.index(next(x for x in lines if x.startswith("psi")))
        assert lines[at_psi + 1:] == ["boxes = gt", "seed = 4"]
        assert not any(x.startswith(("r ", "roots_per_field", "G ", "N ")) for x in lines)
        assert not any(x.startswith("class_id") for x in lines)
        assert len(lines) == 1 + 7
        # the only array is the (2, 1, 20, 4) vector array: 20 lattice roots a slot
        line, payload = data[at:].split(b"\n", 1)
        assert line == b"array vectors 2 1 20 4" and len(payload) == 2 * 20 * 4 * 8

    def test_version_one_rejected(self, tmp_path):
        path = tmp_path / "v1.vfb"
        path.write_text("advfield-vfb 1\nclass_name = car\nroots_per_field = 1\n")
        with pytest.raises(FormatError, match="unsupported version 1"):
            cloudio.load_bank(path)

    def test_vector_rows_must_cover_the_lattice(self, tmp_path):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
        path = tmp_path / "short.vfb"
        cloudio.save_bank(bank, path)
        saved = path.read_bytes()
        path.write_bytes(saved[:-4 * 8])  # the last vector row is gone
        with pytest.raises(FormatError, match="array vectors needs 1280 bytes of float64, "
                                              "the file has 1248 left"):
            cloudio.load_bank(path)
        # a row fewer per slot, said so in the shape
        path.write_bytes(rewrite_line(saved, "array ", "array vectors 2 1 19 4")[:-2 * 4 * 8])
        with pytest.raises(FormatError, match="array vectors has shape \\(2, 1, 19, 4\\), "
                                              "expected \\(G, N, 20, 4\\)"):
            cloudio.load_bank(path)


VECTORS = "array vectors 2 1 20 4"  # the array line of the bank below
SLOT = 20 * 4 * 8                   # the bytes of one slot's vectors


def _line(prefix, line=None):
    return lambda data: rewrite_line(data, prefix, line)


def _last_row(column, value):
    """Set one component of the last vector row, the last of slot (2, 1)."""
    def edit(data):
        at = len(data) - 4 * 8 + 8 * column
        return data[:at] + np.float64(value).astype("<f8").tobytes() + data[at + 8:]
    return edit


MALFORMED_BANKS = {
    # the array line claims a third slot, whose bytes are not there
    "count": (_line(VECTORS, "array vectors 3 1 20 4"),
              "array vectors needs 1920 bytes of float64, the file has 1280 left"),
    "missing-slot": (lambda data: data[:-SLOT],
                     "array vectors needs 1280 bytes of float64, the file has 640 left"),
    "truncated-payload": (lambda data: data[:-1], "the file has 1279 left"),
    "huge-array": (_line(VECTORS, "array vectors 1000000 1000000 20 4"),
                   "needs 640000000000000 bytes of float64, the file has 1280 left"),
    "huge-empty-array": (_line(VECTORS, f"array vectors 0 {10 ** 30} 20 4"),
                         "array vectors: .*dimension"),
    "trailing-bytes": (lambda data: data + b"\0\0", "expected 'array <name>"),
    "trailing-line": (lambda data: data + b"0x1.0p+0\n", "expected 'array <name>"),
    # one byte between the array line and its values shifts them all; the last is left over
    "misaligned-rows": (lambda data: data.replace(VECTORS.encode() + b"\n",
                                                  VECTORS.encode() + b"\n\n"),
                        "expected 'array <name>|not UTF-8 text"),
    "duplicate-slot": (lambda data: data + data[data.index(b"array "):],
                       "duplicate array vectors"),
    "slot-range": (lambda data: data + b"array field-7-1 20 4\n" + bytes(SLOT),
                   "a bank holds one array, vectors, got \\['field-7-1', 'vectors'\\]"),
    "slot-name": (_line(VECTORS, "array f2 2 1 20 4"),
                  "a bank holds one array, vectors, got \\['f2'\\]"),
    # the same 160 values, which a reshape to (2, 1, 20, 4) would accept
    "shape": (_line(VECTORS, "array vectors 2 1 20 2 2"),
              "array vectors has shape \\(2, 1, 20, 2, 2\\)"),
    "rank": (_line(VECTORS, "array vectors 2 20 4"), "array vectors has shape \\(2, 20, 4\\)"),
    "root-count": (_line(VECTORS, "array vectors 4 1 10 4"),
                   "array vectors has shape \\(4, 1, 10, 4\\), expected \\(G, N, 20, 4\\)"),
    "row-width": (_line(VECTORS, "array vectors 2 1 40 2"),
                  "array vectors has shape \\(2, 1, 40, 2\\)"),
    "empty-bank": (lambda data: rewrite_line(data, VECTORS, "array vectors 0 1 20 4")[:-2 * SLOT],
                   "G, N >= 1"),
    "box-mode": (_line("boxes = ", "boxes = round"), "box mode"),
    "over-budget": (_last_row(0, 0.5), "array vectors, slot \\(2, 1\\), has a vector outside "
                                       "the bank's budget eps = 0.3, psi = 0.3"),
    "nan-vector": (_last_row(3, math.nan),
                   "array vectors, slot \\(2, 1\\), has a vector outside the bank's budget"),
    "eps-nan": (_line("eps = ", "eps = nan"),
                "eps and psi must be finite and positive, got nan and 0.3"),
    "bad-hexfloat": (_line("step = ", "step = 0y1.999999999999ap-2"),
                     "invalid hexadecimal floating-point string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BANKS))
def test_malformed_bank_raises_format_error(tmp_path, case):
    edit, message = MALFORMED_BANKS[case]
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
    path = tmp_path / "bad.vfb"
    cloudio.save_bank(bank, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        cloudio.load_bank(path)


def test_edited_banks_load_or_raise_a_format_error(tmp_path):
    # random byte edits anywhere in a small bank: each loads or is a FormatError
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
    path = tmp_path / "edit.vfb"
    cloudio.save_bank(bank, path)
    saved = path.read_bytes()
    payload = saved.index(VECTORS.encode())
    rng = np.random.default_rng(2)
    alphabet = b" \n=-.0123456789abcdefpx\x00\x3f\x7f\xbf\xff"
    outcomes = set()
    for trial in range(400):
        data = bytearray(saved)
        for _ in range(int(rng.integers(1, 3))):
            # half of the edits land in the text lines
            pos = int(rng.integers(0, payload if trial % 2 else len(data)))
            data[pos:pos + int(rng.integers(0, 2))] = alphabet[rng.integers(0, len(alphabet))
                                                               ].to_bytes(1, "little")
        path.write_bytes(bytes(data))
        try:
            cloudio.load_bank(path)
            outcomes.add("loaded")
        except FormatError:
            outcomes.add("refused")
    assert outcomes == {"loaded", "refused"}


BUILD_CLASSES = "ground,car,person,building,vegetation"


class TestClassesTheBuildFixes:
    """A bank names its class once, and a checkpoint holds no class count."""

    def test_a_bank_takes_its_class_id_from_the_position_of_its_name(self, tmp_path):
        assert ",".join(simulator.CLASS_NAMES) == BUILD_CLASSES
        for class_id, name in enumerate(simulator.CLASS_NAMES):
            cloudio.save_bank(make_bank(class_id, name, (1.0, 0.8, 2.0), 0.4, 1, 1, seed=4),
                              tmp_path / "b.vfb")
            back = cloudio.load_bank(tmp_path / "b.vfb")
            assert (back.class_id, back.class_name) == (class_id, name)

    # before, each of these loaded: 99 and -1 matched no scene box, and 4 with
    # car deformed vegetation
    @pytest.mark.parametrize("class_id, name", [(1, "person"), (99, "car"), (-1, "car"),
                                                (4, "car"), (-4, "car"), (1, "abc")])
    def test_a_bank_of_no_class_of_this_build_is_refused(self, class_id, name):
        with pytest.raises(ValueError, match=re.escape(
                f"class ({class_id}, {name!r}) is not one of this build's {BUILD_CLASSES}")):
            make_bank(class_id, name, (1.0, 0.8, 2.0), 0.4, 1, 1, seed=4)

    @pytest.mark.parametrize("name", ["abc", "0", "Car"])
    def test_a_class_name_this_build_lacks_is_a_format_error(self, tmp_path, name):
        path = tmp_path / "b.vfb"
        cloudio.save_bank(make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 1, 1, seed=4), path)
        path.write_bytes(rewrite_line(path.read_bytes(), "class_name = ", f"class_name = {name}"))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: class_name {name!r} is not one of this build's {BUILD_CLASSES}")):
            cloudio.load_bank(path)

    def test_a_negative_seed_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="seed -1 is not an integer >= 0"):
            make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 1, 1, seed=-1)
        path = tmp_path / "b.vfb"
        cloudio.save_bank(make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 1, 1, seed=4), path)
        path.write_bytes(rewrite_line(path.read_bytes(), "seed = ", "seed = -1"))
        with pytest.raises(FormatError, match=f"{path}: seed -1 is not an integer >= 0"):
            cloudio.load_bank(path)

    @pytest.mark.parametrize("n_classes", [3, 7])
    def test_a_segmenter_of_another_class_count_is_neither_written_nor_read(self, tmp_path,
                                                                           n_classes):
        model = victim.SegNetMini(n_classes)
        model.init_random(0)
        with pytest.raises(ValueError, match=f"this build's 5 classes, not {n_classes}"):
            victim.save_checkpoint(model, tmp_path / "new" / "seg.ckpt")
        assert not any(tmp_path.iterdir())
        path = tmp_path / "seg.ckpt"
        cloudio.write_arrays(path, victim.CKPT_MAGIC, victim.CKPT_VERSION, {"kind": "seg"},
                             model.mlp.params)
        with pytest.raises(FormatError, match=re.escape(
                f"parameter W3 has shape (64, {n_classes}), expected (64, 5)")):
            victim.load_checkpoint(path)


# load_bank would read " car" back as "car", and the last as two header lines
@pytest.mark.parametrize("name", [" car", "car ", "car\nseed = 7"], ids=ascii)
def test_a_header_value_a_config_cannot_hold_is_refused_and_writes_nothing(tmp_path, name):
    with pytest.raises(ValueError, match=r"class \(1, '.*'\) is not one of this build's"):
        make_bank(1, name, (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
    with pytest.raises(ValueError, match="class_name '.*': a config value holds no line break"):
        cloudio.write_arrays(tmp_path / "new" / "car.vfb", cloudio.BANK_MAGIC,
                             cloudio.BANK_VERSION, {"class_name": name}, {})
    assert not any(tmp_path.iterdir())


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

    def test_roundtrip_keeps_every_bit_of_every_value(self, tmp_path):
        model = _victim("seg")
        w1 = model.mlp.params["W1"].reshape(-1)
        w1[:len(EDGE_VALUES) + len(NON_FINITE)] = EDGE_VALUES + NON_FINITE
        w1[-2:] = np.array([0x7FF0000000000001, 0xFFF8000000000123], np.uint64).view(float)
        path = tmp_path / "edges.ckpt"
        victim.save_checkpoint(model, path)
        back = victim.load_checkpoint(path).mlp.params
        assert all(back[k].tobytes() == v.tobytes() for k, v in model.mlp.params.items())
        # each parameter's bytes follow its array line
        data = path.read_bytes()
        at = data.index(b"array W1 7 64\n") + len(b"array W1 7 64\n")
        assert data[at:at + w1.nbytes] == w1.astype("<f8").tobytes()

    def test_wrong_shape_parameter_is_named(self, tmp_path):
        meta, params = _victim("seg").state()
        params = {**params, "W1": np.zeros((7, 32))}
        path = tmp_path / "w1.ckpt"
        cloudio.write_arrays(path, victim.CKPT_MAGIC, victim.CKPT_VERSION, meta, params)
        with pytest.raises(FormatError, match="parameter W1 has shape \\(7, 32\\)"):
            victim.load_checkpoint(path)
        with pytest.raises(FormatError, match="parameter W4"):
            victim.SegNetMini.from_state(meta, {**_victim("seg").state()[1], "W4": np.zeros(3)})


def _truncated(data):
    return data[:len(data) // 2]


MALFORMED_CHECKPOINTS = {
    "truncated": (_truncated, "array W2 needs 32768 bytes of float64, the file has"),
    "no-version": (_line("advfield-ckpt ", "advfield-ckpt"), "not an advfield-ckpt file"),
    "wrong-magic": (_line("advfield-ckpt ", "advfield-ckptX 3"), "not an advfield-ckpt file"),
    "version-1": (_line("advfield-ckpt ", "advfield-ckpt 1"), "unsupported version 1"),
    "version-2": (_line("advfield-ckpt ", "advfield-ckpt 2"),
                  "unsupported version 2, expected 5"),
    "unknown-kind": (_line("kind = ", "kind = pointnet"), "unknown checkpoint kind 'pointnet'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_raises_format_error(tmp_path, case):
    edit, message = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bad.ckpt"
    victim.save_checkpoint(_victim("seg"), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        victim.load_checkpoint(path)


# per artifact: its writer, its reader and the keys of the header lines it writes
ARTIFACT_HEADERS = {
    "bank": (lambda path: cloudio.save_bank(make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1,
                                                      seed=4), path),
             cloudio.load_bank,
             ["class_name", "dims", "step", "eps", "psi", "boxes", "seed"]),
    "seg": (lambda path: victim.save_checkpoint(_victim("seg"), path), victim.load_checkpoint,
            ["kind"]),
    "det": (lambda path: victim.save_checkpoint(_victim("det"), path), victim.load_checkpoint,
            ["kind"]),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACT_HEADERS))
def test_every_header_line_is_read(tmp_path, kind):
    save, load, keys = ARTIFACT_HEADERS[kind]
    path = tmp_path / "artifact"
    save(path)
    saved = path.read_bytes()
    lines = saved[:saved.index(b"\narray ")].decode("utf-8").splitlines()[1:]
    assert [line.partition(" = ")[0] for line in lines] == keys
    for key in keys:
        path.write_bytes(rewrite_line(saved, f"{key} = "))
        with pytest.raises(FormatError, match=f"missing header key '{key}'"):
            load(path)


def test_eval_of_an_unreadable_victim_exits_2(tmp_path, capsys):
    sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(4.0))
    simulator.write_sensor_config(sensor, tmp_path / "data")
    simulator.write_scene(simulator.generate_scene(0, "normal", 2, sensor), tmp_path / "data", 0)
    path, old = tmp_path / "truncated.ckpt", tmp_path / "v4.ckpt"
    victim.save_checkpoint(_victim("seg"), path)
    old.write_bytes(rewrite_line(path.read_bytes(), "advfield-ckpt ", "advfield-ckpt 4"))
    path.write_bytes(_truncated(path.read_bytes()))
    for ckpt in (path, tmp_path / "data", old):  # a truncated file, a directory, version 4
        assert cli.main(["eval", "--victim", str(ckpt), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "e")]) == cli.EXIT_CONFIG
    assert f"{old}: unsupported version 4, expected 5" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


# ---------------------------------------------------------------------------
# floats in artifacts: each array's values as raw little-endian float64, and
# a bank's header floats as float.hex text
# ---------------------------------------------------------------------------

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
        "nan-payloads": np.array([0x7FF0000000000001, 0xFFF8000000000123,
                                  0x7FF4000000000000], np.uint64).view(np.float64),
        "no-rows": np.zeros((0, 4)),
        "empty-middle": np.zeros((3, 0, 2)),
        "unit": rng.uniform(-0.3, 0.3, size=(50, 4)),
    }


def test_bytes_are_the_little_endian_float64_values(tmp_path):
    arrays = codec_arrays()
    header = {"kind": "test", "note": "café"}
    path = tmp_path / "arrays.bin"
    cloudio.write_arrays(path, "magic", 3, header, arrays)
    want = "magic 3\nkind = test\nnote = café\n".encode("utf-8")
    for name, array in arrays.items():
        want += " ".join(["array", name, *map(str, array.shape)]).encode("utf-8") + b"\n"
        want += array.astype("<f8").tobytes()
    assert path.read_bytes() == want
    got_header, back = cloudio.read_arrays(path, "magic", 3)
    assert got_header == header and list(back) == list(arrays)
    for name, array in arrays.items():
        assert back[name].shape == array.shape and back[name].dtype == np.float64
        assert back[name].tobytes() == array.tobytes()
    cloudio.write_arrays(tmp_path / "again.bin", "magic", 3, got_header, back)
    assert (tmp_path / "again.bin").read_bytes() == want


def test_text_lines_may_end_in_crlf(tmp_path):
    path = tmp_path / "crlf.bin"
    cloudio.write_arrays(path, "magic", 3, {"k": "v"}, {"a": np.arange(4.0)})
    data = path.read_bytes()
    at = data.index(b"array a 4\n") + len(b"array a 4\n")
    path.write_bytes(data[:at].replace(b"\n", b"\r\n") + data[at:])
    header, arrays = cloudio.read_arrays(path, "magic", 3)
    assert header == {"k": "v"} and arrays["a"].tobytes() == np.arange(4.0).tobytes()


class TestHexfloatCodec:
    """Payload values keep every bit; a bank header's floats read as ``float.fromhex`` reads."""

    def test_every_exponent_and_both_signs(self, tmp_path):
        exponents = np.arange(-1074, 1024, dtype=float)
        values = np.ldexp(1.0 + np.arange(len(exponents)) % 7 / 8, exponents.astype(int))
        arrays = {"all": np.concatenate([values, -values]).reshape(-1, 4)}
        path = tmp_path / "all.bin"
        cloudio.write_arrays(path, "magic", 3, {}, arrays)
        assert path.read_bytes().endswith(arrays["all"].astype("<f8").tobytes())
        assert cloudio.read_arrays(path, "magic", 3)[1]["all"].tobytes() == \
            arrays["all"].tobytes()

    @pytest.mark.parametrize("kind", ["seg", "det"])
    def test_checkpoints_equal_the_float_hex_text(self, tmp_path, kind):
        model = _victim(kind)
        rng = np.random.default_rng(5)
        for value in model.mlp.params.values():  # trained-looking, with some exact zeros
            value[:] = rng.normal(scale=0.2, size=value.shape) * (rng.random(value.shape) > 0.1)
        meta, params = model.state()
        path = tmp_path / "new.ckpt"
        victim.save_checkpoint(model, path)
        want = "".join([f"{victim.CKPT_MAGIC} {victim.CKPT_VERSION}\n"]
                       + [f"{key} = {value}\n" for key, value in meta.items()]).encode()
        for name, value in params.items():
            want += f"array {name} {' '.join(map(str, value.shape))}\n".encode()
            want += value.astype("<f8").tobytes()
        assert path.read_bytes() == want
        # every value reads back with the float.hex text it was written with, signed zeros too
        back = victim.load_checkpoint(path).mlp.params
        for name, value in params.items():
            assert [x.hex() for x in back[name].ravel().tolist()] == \
                [x.hex() for x in value.ravel().tolist()]

    @staticmethod
    def bank_with_eps(tmp_path, token):
        bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
        bank.vectors[:] = 0.0  # inside every budget
        path = tmp_path / "eps.vfb"
        cloudio.save_bank(bank, path)
        path.write_bytes(rewrite_line(path.read_bytes(), "eps = ", f"eps = {token}"))
        return path

    @pytest.mark.parametrize("token", ["0x1.0p-1", "0X1P-3", "+0x1.8p+1", "0x1.8000000000000P+1",
                                       "0x1.ABCDEF0000000p+4", "0x1.abcdefp+4", "0x0.8p-1022",
                                       "0x1.0000000000000p+01", "0x1.0000000000000p-0",
                                       "0x2.0p+3", "-0x0.0p+0", "0x0.0p-0", "0x.8p1", "1",
                                       "0x1p+0\t", "\t-0x1.8p+1", "nan", "-inf", "inf",
                                       "0x0.0000000000001p-1022", "0x1.fffffffffffffp+1023",
                                       "0x1.00000000000001p+0", "0x0.8000000000000p-1",
                                       "0x1.0000000000000p+000000001"])
    def test_any_other_token_reads_as_float_fromhex_reads_it(self, tmp_path, token):
        path = self.bank_with_eps(tmp_path, token)
        eps = float.fromhex(token)
        if 0.0 < eps < math.inf:
            assert np.float64(cloudio.load_bank(path).eps).tobytes() == np.float64(eps).tobytes()
        else:  # read as float.fromhex reads it, then refused as a budget
            with pytest.raises(FormatError, match=f"eps and psi must be finite and positive, "
                                                  f"got {eps} and 0.3"):
                cloudio.load_bank(path)

    # float.fromhex raises OverflowError for the first three
    @pytest.mark.parametrize("token", ["0x1p+99999", "-0x1.8p+1024", "0x1.fffffffffffff8p+1023",
                                       "0x1.0p", "0x1.0000000000000q+0", "0x1.000000000000gp+0",
                                       "", "--0x1p+0", "0x1.0p+0x", "0x0.0p+0x"])
    def test_a_token_float_fromhex_refuses_is_a_format_error(self, tmp_path, token):
        path = self.bank_with_eps(tmp_path, token)
        with pytest.raises(FormatError, match=f"{path}: (invalid hexadecimal floating-point "
                                              "string|hexadecimal value too large)"):
            cloudio.load_bank(path)


@pytest.mark.parametrize("load, suffix", [(cloudio.load_bank, ".vfb"),
                                          (victim.load_checkpoint, ".ckpt")])
def test_a_file_that_is_not_utf8_is_a_format_error_that_names_it(tmp_path, load, suffix):
    path = tmp_path / f"binary{suffix}"
    path.write_bytes(b"\xff\xfe" + b"\x00" * 30)
    with pytest.raises(FormatError, match=f"{path}:1: not UTF-8 text"):
        load(path)
    # the bad byte later on: the message names its line, counting text lines only
    bank = make_bank(1, "car", (1.0, 0.8, 2.0), 0.4, 2, 1, seed=4)
    cloudio.save_bank(bank, path)
    saved = path.read_bytes()
    path.write_bytes(rewrite_line(saved, "class_name = ", b"class_name = caf\xe9"))
    with pytest.raises(FormatError, match=f"{path}:2: not UTF-8 text"):
        cloudio.load_bank(path)
    path.write_bytes(saved + b"array \xff 1\n")  # after 8 header lines and 1 array line
    with pytest.raises(FormatError, match=f"{path}:10: not UTF-8 text"):
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
    assert save_peak < 0.25 * size, save_peak
    assert load_peak < 1.5 * size, load_peak


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

    @pytest.mark.parametrize("value", ["a\nb = 2", " sp", "sp ", "\x85sp", "a\u2028b"])
    def test_a_value_the_reader_would_not_read_back_is_refused(self, tmp_path, value):
        path = tmp_path / "new" / "run.cfg"
        with pytest.raises(ValueError, match="out '.*': a config value holds no line break"):
            cloudio.write_config({"seed": "3", "out": value}, path)
        assert not any(tmp_path.iterdir())


# every character str.splitlines splits a line on, "\r\n" aside
LINE_BREAKS = ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestTextLines:
    def test_lines_read_back_bit_equal(self, tmp_path):
        lines = ["iteration,loss", "", "0,0.1", "  indented\ttab ", "ünïcode ☃ \U0001f600", "# x"]
        path = tmp_path / "new" / "dir" / "lines.txt"
        cloudio.write_lines(path, lines)
        assert path.read_bytes() == "".join(f"{line}\n" for line in lines).encode("utf-8")
        assert cloudio.read_lines(path) == lines

    def test_no_lines_write_0_bytes(self, tmp_path):
        cloudio.write_lines(tmp_path / "empty.txt", [])
        assert (tmp_path / "empty.txt").read_bytes() == b""
        assert cloudio.read_lines(tmp_path / "empty.txt") == []

    def test_the_boxes_of_a_scene_without_boxes_are_0_bytes(self, tmp_path):
        sensor = simulator.SensorSpec(channels=8, azimuth_resolution=math.radians(4.0))
        scene = simulator.generate_scene(0, "normal", 2, sensor)
        scene.boxes = []
        simulator.write_scene(scene, tmp_path, 0)
        assert (tmp_path / "000000.boxes").read_bytes() == b""

    def test_the_breaks_are_those_of_splitlines(self):
        found = [c for c in map(chr, range(0x10000)) if len(f"a{c}b".splitlines()) > 1]
        assert found == LINE_BREAKS
        assert "a\r\nb".splitlines() == ["a", "b"]

    @pytest.mark.parametrize("where", ["a{}b", "{}b", "a{}"])
    @pytest.mark.parametrize("brk", LINE_BREAKS + ["\r\n"], ids=ascii)
    def test_a_line_holding_a_break_is_refused_and_writes_nothing(self, tmp_path, brk, where):
        line = where.format(brk)
        with pytest.raises(ValueError, match="line 2 holds a line break"):
            cloudio.write_lines(tmp_path / "new" / "lines.txt", ["ok", line])
        assert not any(tmp_path.iterdir())


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

