"""Bit-exact readers and writers for clouds, labels, artifacts, and configs.

Formats:
  * ``.bin``    little-endian float32, 4 per point (x, y, z, intensity)
  * ``.label``  little-endian uint32 per point; low 16 bits semantic id,
                high 16 bits instance id (0 = no instance)
  * ``.vfb``    field banks (version 4) and ``.ckpt`` victim checkpoints
                (version 2), in one grammar: a ``MAGIC VERSION`` line,
                ``key = value`` header lines, then per named array an
                ``array <name> <d0> <d1> ...`` line and one row per leading
                index. Array values are hexfloats, so load(save(x)) keeps every
                bit; other versions and malformed lines raise FormatError. A
                bank's header holds the ``seed`` its initial vectors were drawn
                from; it stores one (m, 4) array ``field-<g>-<n>`` per slot, one
                ``dx dy dz dtau`` row per lattice root (roots follow from dims
                and step); a checkpoint stores one array per MLP parameter
  * config      flat ``key = value`` text, ``#`` comments: the header rule
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BANK_MAGIC = "advfield-vfb"
BANK_VERSION = 4


class FormatError(ValueError):
    """Raised when an on-disk artifact violates its format contract."""


@dataclass
class PointCloud:
    """One LiDAR sweep: positions, intensities, and per-point labels."""

    xyz: np.ndarray        # (n, 3) float64, world frame
    intensity: np.ndarray  # (n,) float64 in [0, 1]
    semantic: np.ndarray   # (n,) int32 class ids
    instance: np.ndarray   # (n,) int32 instance ids, 0 = none

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=float).reshape(-1)
        self.semantic = np.asarray(self.semantic, dtype=np.int32).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.int32).reshape(-1)
        n = len(self.xyz)
        if not (len(self.intensity) == len(self.semantic) == len(self.instance) == n):
            raise ValueError("point cloud arrays must share one length")
        if not np.all(np.isfinite(self.xyz)) or not np.all(np.isfinite(self.intensity)):
            raise ValueError("point cloud contains non-finite values")
        if n and (self.intensity.min() < 0.0 or self.intensity.max() > 1.0):
            raise ValueError("intensity must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.xyz)

    def copy(self) -> "PointCloud":
        return PointCloud(
            self.xyz.copy(), self.intensity.copy(), self.semantic.copy(), self.instance.copy()
        )

    @classmethod
    def unlabeled(cls, xyz, intensity) -> "PointCloud":
        n = len(np.atleast_2d(xyz))
        zeros = np.zeros(n, dtype=np.int32)
        return cls(xyz, intensity, zeros, zeros.copy())


# ---------------------------------------------------------------------------
# point clouds (.bin)
# ---------------------------------------------------------------------------

def read_cloud(path) -> PointCloud:
    """Read a float32 x/y/z/intensity cloud; labels are zero-initialized."""
    raw = Path(path).read_bytes()
    if len(raw) % 16 != 0:
        raise FormatError(
            f"{path}: trailing bytes, file length {len(raw)} is not a multiple of 16"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: non-finite value in point {bad[0]} (byte offset {bad[0] * 16})")
    return PointCloud.unlabeled(data[:, :3].astype(float), data[:, 3].astype(float))


def write_cloud(cloud: PointCloud, path) -> None:
    data = np.empty((cloud.n, 4), dtype="<f4")
    data[:, :3] = cloud.xyz
    data[:, 3] = cloud.intensity
    Path(path).write_bytes(data.tobytes())


# ---------------------------------------------------------------------------
# labels (.label)
# ---------------------------------------------------------------------------

def read_labels(path, n: int):
    """Read packed labels for a cloud of ``n`` points -> (semantic, instance)."""
    raw = Path(path).read_bytes()
    if len(raw) != 4 * n:
        raise FormatError(f"{path}: expected {4 * n} bytes for {n} points, got {len(raw)}")
    packed = np.frombuffer(raw, dtype="<u4")
    semantic = (packed & 0xFFFF).astype(np.int32)
    instance = (packed >> 16).astype(np.int32)
    return semantic, instance


def write_labels(path, semantic, instance) -> None:
    semantic = np.asarray(semantic, dtype=np.int64)
    instance = np.asarray(instance, dtype=np.int64)
    if semantic.shape != instance.shape:
        raise ValueError("semantic and instance arrays must have equal length")
    if semantic.size and (semantic.min() < 0 or semantic.max() > 0xFFFF):
        raise ValueError("semantic ids must fit in 16 bits")
    if instance.size and (instance.min() < 0 or instance.max() > 0xFFFF):
        raise ValueError("instance ids must fit in 16 bits")
    packed = (semantic | (instance << 16)).astype("<u4")
    Path(path).write_bytes(packed.tobytes())


def read_labeled_cloud(bin_path, label_path) -> PointCloud:
    cloud = read_cloud(bin_path)
    semantic, instance = read_labels(label_path, cloud.n)
    return replace(cloud, semantic=semantic, instance=instance)


# ---------------------------------------------------------------------------
# versioned hexfloat artifacts and run configs
# ---------------------------------------------------------------------------

def _parse_header(lines, path, first_lineno: int) -> dict:
    """``key = value`` lines -> ordered string dict; blanks and ``#`` comments skip."""
    header = {}
    for lineno, raw in enumerate(lines, first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        header[key.strip()] = value.strip()
    return header


def write_arrays(path, magic: str, version: int, header: dict, arrays: dict) -> None:
    """Write ``header`` values and named float64 arrays as versioned hexfloat text."""
    lines = [f"{magic} {version}"]
    lines += [f"{key} = {value}" for key, value in header.items()]
    for name, array in arrays.items():
        array = np.asarray(array, dtype=float)
        lines.append(" ".join(["array", name, *map(str, array.shape)]))
        rows = array.reshape(array.shape[0], math.prod(array.shape[1:]))
        lines.extend(" ".join(map(float.hex, row)) for row in rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_arrays(path, magic: str, version: int):
    """Parse a :func:`write_arrays` file -> (header of strings, dict of arrays).

    The first line must read exactly ``magic version``. Raises FormatError on
    any other first line, a malformed header or array line, a duplicate array
    name, and an array with missing, extra or unparsable values.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    first = lines[0].split() if lines else []
    if len(first) != 2 or first[0] != magic:
        raise FormatError(f"{path}: not an {magic} file, line 1 must read '{magic} {version}'")
    if first[1] != str(version):
        raise FormatError(f"{path}: unsupported version {first[1]}, expected {version}")
    at = next((i for i, line in enumerate(lines) if line.startswith("array ")), len(lines))
    header = _parse_header(lines[1:at], path, 2)
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
            # single spaces, cols - 1 per row: every row holds exactly cols values
            if len(chunk) != rows or any(line.count(" ") != cols - 1 for line in chunk):
                raise ValueError
            values = list(map(float.fromhex, " ".join(chunk).split(" ")))
        except ValueError:
            raise FormatError(f"{path}:{at + 1}: array {name} needs {rows} rows of {cols} "
                              "hexfloats separated by single spaces") from None
        arrays[name] = np.array(values).reshape(shape)
        at += 1 + rows
    return header, arrays


def read_config(path) -> dict:
    """Read a flat key = value file into an ordered string dict."""
    return _parse_header(Path(path).read_text(encoding="utf-8").splitlines(), path, 1)


def write_config(config: dict, path) -> None:
    lines = [f"{key} = {value}" for key, value in config.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# field banks (.vfb)
# ---------------------------------------------------------------------------

def _hex(x: float) -> str:
    return float(x).hex()


def save_bank(bank, path) -> None:
    """Write a FieldBank as a .vfb: its header, then one vector array per slot."""
    header = {"class_name": bank.class_name, "class_id": bank.class_id,
              "G": bank.groups, "N": bank.variants,
              "dims": " ".join(map(_hex, bank.dims)), "step": _hex(bank.step),
              "eps": _hex(bank.eps), "psi": _hex(bank.psi), "boxes": bank.boxes,
              "seed": bank.seed}
    arrays = {f"field-{f.group}-{f.variant}": f.vectors for f in bank.fields}
    write_arrays(path, BANK_MAGIC, BANK_VERSION, header, arrays)


def load_bank(path):
    """Read a .vfb back into a FieldBank; every float round-trips exactly."""
    from .field import FieldBank, VectorField  # local import, avoids a cycle

    header, arrays = read_arrays(path, BANK_MAGIC, BANK_VERSION)
    try:
        dims = tuple(map(float.fromhex, header["dims"].split()))
        step = float.fromhex(header["step"])
        fields = []
        for name, vectors in arrays.items():
            slot = re.fullmatch(r"field-(\d+)-(\d+)", name)
            if slot is None:
                raise ValueError(f"array {name} is not a 'field-<g>-<n>' slot")
            fld = VectorField(dims, step, vectors, int(slot[1]), int(slot[2]))
            if vectors.shape != fld.vectors.shape:
                raise ValueError(f"array {name} has shape {vectors.shape}, expected "
                                 f"{fld.vectors.shape}: one vector row per lattice root")
            fields.append(fld)
        return FieldBank(class_id=int(header["class_id"]), class_name=header["class_name"],
                         groups=int(header["G"]), variants=int(header["N"]),
                         seed=int(header["seed"]), fields=fields,
                         eps=float.fromhex(header["eps"]), psi=float.fromhex(header["psi"]),
                         boxes=header["boxes"])
    except KeyError as err:
        raise FormatError(f"{path}: missing header key {err}") from err
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
