"""Bit-exact readers and writers for clouds, labels, field banks, and configs.

Formats:
  * ``.bin``    little-endian float32, 4 per point (x, y, z, intensity)
  * ``.label``  little-endian uint32 per point; low 16 bits semantic id,
                high 16 bits instance id (0 = no instance)
  * ``.vfb``    versioned text format for field banks (version 2). A
                ``key = value`` header (class_name, class_id, G, N, dims,
                step, eps, psi, boxes) is followed by one ``field g n`` line
                per slot and its ``v dx dy dz dtau`` rows, one per lattice
                root. Roots are not stored: they follow from dims and step.
                Floats are hexadecimal literals, so load(save(x)) reproduces
                every bit; other versions are rejected
  * config      flat ``key = value`` text, ``#`` comments
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BANK_MAGIC = "advfield-vfb"
BANK_VERSION = 2


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
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)), np.zeros(0), np.zeros(0, np.int32), np.zeros(0, np.int32))

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
# field banks (.vfb)
# ---------------------------------------------------------------------------

def _hex(x: float) -> str:
    return float(x).hex()


def save_bank(bank, path) -> None:
    """Serialize a FieldBank as versioned hexfloat text."""
    lines = [f"{BANK_MAGIC} {BANK_VERSION}"]
    w0, h0, l0 = bank.dims
    lines.append(f"class_name = {bank.class_name}")
    lines.append(f"class_id = {bank.class_id}")
    lines.append(f"G = {bank.groups}")
    lines.append(f"N = {bank.variants}")
    lines.append(f"dims = {_hex(w0)} {_hex(h0)} {_hex(l0)}")
    lines.append(f"step = {_hex(bank.step)}")
    lines.append(f"eps = {_hex(bank.eps)}")
    lines.append(f"psi = {_hex(bank.psi)}")
    lines.append(f"boxes = {bank.boxes}")
    for f in bank.fields:
        lines.append(f"field {f.group} {f.variant}")
        lines.extend("v " + " ".join(map(float.hex, row)) for row in f.vectors.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_bank(path):
    """Parse a .vfb file back into a FieldBank; exact float round trip."""
    from .field import FieldBank, VectorField, lattice_counts  # local import, avoids a cycle

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"{path}: empty bank file")
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != BANK_MAGIC:
        raise FormatError(f"{path}: not a {BANK_MAGIC} file")
    if magic[1] != str(BANK_VERSION):
        raise FormatError(f"{path}: unsupported version {magic[1]}, expected {BANK_VERSION}")

    header = {}
    idx = 1
    while idx < len(lines) and not lines[idx].startswith("field "):
        line = lines[idx].strip()
        idx += 1
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()

    required = ("class_name", "class_id", "G", "N", "dims", "step", "eps", "psi", "boxes")
    for key in required:
        if key not in header:
            raise FormatError(f"{path}: missing header key {key!r}")

    groups = int(header["G"])
    variants = int(header["N"])
    class_id = int(header["class_id"])
    dims = tuple(float.fromhex(t) for t in header["dims"].split())
    if len(dims) != 3:
        raise FormatError(f"{path}: dims must have 3 entries")
    step = float.fromhex(header["step"])
    nx, ny, nz = lattice_counts(dims, step)
    n_roots = nx * ny * nz

    fields = []
    while idx < len(lines):
        line = lines[idx].strip()
        idx += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] != "field" or len(parts) != 3:
            raise FormatError(f"{path}: expected 'field g n', got {line!r}")
        group, variant = int(parts[1]), int(parts[2])
        tokens = " ".join(lines[idx:idx + n_roots]).split()
        idx += n_roots
        if len(tokens) != 5 * n_roots or tokens[::5] != ["v"] * n_roots:
            raise FormatError(f"{path}: field ({group},{variant}) needs {n_roots} "
                              "'v dx dy dz dtau' vector rows, one per lattice root")
        del tokens[::5]
        vectors = np.array(list(map(float.fromhex, tokens))).reshape(n_roots, 4)
        fields.append(VectorField(dims=dims, step=step, vectors=vectors, group=group,
                                  variant=variant, class_id=class_id))

    if len(fields) != groups * variants:
        raise FormatError(
            f"{path}: expected {groups * variants} fields (G*N), found {len(fields)}"
        )
    return FieldBank(
        class_id=class_id,
        class_name=header["class_name"],
        groups=groups,
        variants=variants,
        fields=fields,
        eps=float.fromhex(header["eps"]),
        psi=float.fromhex(header["psi"]),
        boxes=header["boxes"],
    )


# ---------------------------------------------------------------------------
# run configs (key = value)
# ---------------------------------------------------------------------------

def read_config(path) -> dict:
    """Read a flat key = value file into an ordered string dict."""
    config = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        config[key.strip()] = value.strip()
    return config


def write_config(config: dict, path) -> None:
    lines = [f"{key} = {value}" for key, value in config.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
