"""Bit-exact readers and writers for clouds, labels, artifacts, and configs.

Formats:
  * ``.bin``    little-endian float32, 4 per point (x, y, z, intensity)
  * ``.label``  little-endian uint32 per point; low 16 bits semantic id,
                high 16 bits instance id (0 = no instance)
  * ``.vfb``    field banks (version 7) and ``.ckpt`` victim checkpoints
                (version 5), in one grammar: a ``MAGIC VERSION`` line,
                ``key = value`` header lines, then per named array an
                ``array <name> <d0> <d1> ...`` line followed by exactly
                d0 x d1 x ... x 8 bytes, the array's little-endian float64
                values in C order, so load(save(x)) keeps every bit. Text
                lines are UTF-8 and end in a newline; the line numbers in
                messages count text lines only. A reader checks an array's
                size against the bytes left in the file before it allocates
                the array, and refuses bytes after the last array. Other
                versions raise FormatError naming the version. Neither
                header holds what the build fixes. A bank's header holds
                its ``class_name``, one of ``simulator.CLASS_NAMES``, whose
                position there is the bank's class id; its lattice ``dims``
                and ``step``, its budget ``eps`` and ``psi``, its box mode
                and the ``seed`` its initial vectors were drawn from, a
                float as its ``repr`` text, which ``float`` reads back bit
                for bit; its one array, ``vectors``, has shape (G, N, m, 4),
                one ``dx dy dz dtau`` row per lattice root of each slot
                (g, n), with m following from dims and step. Every spatial
                component must lie in [-eps, eps] and every intensity shift
                in [-psi, psi]. A checkpoint's header holds only its head
                ``kind``, ``seg`` or ``det``; every size of a head, a
                segmenter's class count included, is fixed by the build. It
                stores one array per MLP parameter, ``W1 b1 W2 b2 W3 b3``.
  * text        UTF-8 lines, each followed by one ``\n`` and holding no line
                break (nothing ``str.splitlines`` splits on): reports,
                ``.boxes`` rows and configs
  * config      flat ``key = value`` text, ``#`` comments: the header rule;
                no value, here or in a header, has leading or trailing whitespace
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BANK_MAGIC = "advfield-vfb"
BANK_VERSION = 7


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
# point clouds (.bin) and their labels (.label)
# ---------------------------------------------------------------------------

def write_cloud(cloud: PointCloud, path) -> None:
    data = np.empty((cloud.n, 4), dtype="<f4")
    data[:, :3] = cloud.xyz
    data[:, 3] = cloud.intensity
    _create(path).write_bytes(data.tobytes())


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
    _create(path).write_bytes(packed.tobytes())


def read_labeled_cloud(bin_path, label_path) -> PointCloud:
    """Read a float32 x/y/z/intensity cloud and its packed labels, one uint32 per point."""
    raw = Path(bin_path).read_bytes()
    if len(raw) % 16 != 0:
        raise FormatError(
            f"{bin_path}: trailing bytes, file length {len(raw)} is not a multiple of 16"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise FormatError(f"{bin_path}: non-finite value in point {bad[0]} "
                          f"(byte offset {bad[0] * 16})")
    n, raw = len(data), Path(label_path).read_bytes()
    if len(raw) != 4 * n:
        raise FormatError(f"{label_path}: expected {4 * n} bytes for {n} points, got {len(raw)}")
    packed = np.frombuffer(raw, dtype="<u4")
    return PointCloud(data[:, :3], data[:, 3], packed & 0xFFFF, packed >> 16)


# ---------------------------------------------------------------------------
# versioned artifacts and run configs
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


def _decode(data: bytes, path, lineno: int) -> str:
    """``data``, which starts on line ``lineno`` of ``path``, as UTF-8 text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno += data.count(b"\n", 0, err.start)
        raise FormatError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None


def _create(path) -> Path:
    """``path`` as a Path, once the directory that holds it exists."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return Path(path)


def read_lines(path) -> list:
    """The lines of a UTF-8 text file; FormatError naming the line of a byte that is not."""
    return _decode(Path(path).read_bytes(), path, 1).splitlines()


def write_lines(path, lines) -> None:
    """Write each of ``lines`` as UTF-8 followed by ``\n``; no lines write 0 bytes.

    ValueError, before anything is created, for a line that :func:`read_lines`
    would not read back as itself: one holding a line break.
    """
    lines = list(lines)
    for lineno, line in enumerate(lines, 1):
        if (line + "\n").splitlines() != [line]:
            raise ValueError(f"{path}: line {lineno} holds a line break: {line!r}")
    _create(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def write_arrays(path, magic: str, version: int, header: dict, arrays: dict) -> None:
    """Write ``header`` values and named arrays: text lines, then each array's float64 bytes.

    ValueError, before anything is created, for a header value that a config cannot hold.
    """
    for key, value in header.items():
        check_config_value(key, value)
    head = "".join([f"{magic} {version}\n"]
                   + [f"{key} = {value}\n" for key, value in header.items()]).encode("utf-8")
    with open(_create(path), "wb") as file:
        file.write(head)
        for name, array in arrays.items():
            array = np.ascontiguousarray(array, dtype="<f8")  # a scalar becomes shape (1,)
            file.write(" ".join(["array", name, *map(str, array.shape)]).encode("utf-8") + b"\n")
            file.write(array.reshape(-1).view(np.uint8))


def read_arrays(path, magic: str, version: int):
    """Parse a :func:`write_arrays` file -> (header of strings, dict of arrays).

    The first line must read exactly ``magic version``. Raises FormatError on
    any other first line, text that is not UTF-8, a malformed header or array
    line, a duplicate array name, an array that needs more bytes than the
    file has left, and bytes after the last array that are not an array.
    """
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        lineno = 0

        def text():
            nonlocal lineno
            raw = file.readline()
            lineno += 1
            return _decode(raw.removesuffix(b"\n"), path, lineno) if raw else None

        first = text()
        words = first.split() if first is not None else []
        if len(words) != 2 or words[0] != magic:
            raise FormatError(f"{path}: not an {magic} file, line 1 must read '{magic} {version}'")
        if words[1] != str(version):
            raise FormatError(f"{path}: unsupported version {words[1]}, expected {version}")
        header_lines = []
        line = text()
        while line is not None and not line.startswith("array "):
            header_lines.append(line)
            line = text()
        header = _parse_header(header_lines, path, 2)
        arrays = {}
        while line is not None:
            words = line.split()
            if len(words) < 3 or words[0] != "array" or not all(d.isdecimal() for d in words[2:]):
                raise FormatError(f"{path}:{lineno}: expected 'array <name> <d0> <d1> ...', "
                                  f"got {line[:80]!r}")
            name, shape = words[1], tuple(map(int, words[2:]))
            if name in arrays:
                raise FormatError(f"{path}:{lineno}: duplicate array {name}")
            need, left = 8 * math.prod(shape), size - file.tell()
            if need > left:
                raise FormatError(f"{path}:{lineno}: array {name} needs {need} bytes of "
                                  f"float64, the file has {left} left")
            try:
                array = np.empty(shape, "<f8")
            except ValueError as err:  # a dimension beyond the index range, beside a 0
                raise FormatError(f"{path}:{lineno}: array {name}: {err}") from None
            if file.readinto(array.reshape(-1).view(np.uint8)) != need:
                raise FormatError(f"{path}:{lineno}: array {name} ends early")
            arrays[name] = array
            line = text()
    return header, arrays


def read_config(path) -> dict:
    """Read a flat key = value file into an ordered string dict."""
    return _parse_header(read_lines(path), path, 1)


def check_config_value(name: str, value) -> None:
    """ValueError naming ``name`` unless :func:`read_config` reads ``value`` back as itself."""
    text = str(value)
    if text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"{name} {text!r}: a config value holds no line break and no "
                         "leading or trailing whitespace")


def write_config(config: dict, path) -> None:
    """Write ``key = value`` lines; ValueError, before writing, for a value it cannot hold."""
    for key, value in config.items():
        check_config_value(key, value)
    write_lines(path, [f"{key} = {value}" for key, value in config.items()])


# ---------------------------------------------------------------------------
# field banks (.vfb)
# ---------------------------------------------------------------------------

def _in_budget(bank):
    """``bank`` if every vector lies in its budget, else ValueError naming the first slot."""
    for g, n in np.ndindex(bank.vectors.shape[:2]):  # not `> bound`: nan is outside too
        if not np.all(np.abs(bank.vectors[g, n]) <= [bank.eps, bank.eps, bank.eps, bank.psi]):
            raise ValueError(f"array vectors, slot ({g + 1}, {n + 1}), has a vector outside "
                             f"the bank's budget eps = {bank.eps}, psi = {bank.psi}")
    return bank


def save_bank(bank, path) -> None:
    """Write a FieldBank as a .vfb; ValueError, before writing, for a vector outside its budget."""
    header = {"class_name": bank.class_name, "dims": " ".join(map(repr, bank.dims)),
              "step": repr(bank.step), "eps": repr(float(bank.eps)), "psi": repr(float(bank.psi)),
              "boxes": bank.boxes, "seed": bank.seed}
    write_arrays(path, BANK_MAGIC, BANK_VERSION, header, {"vectors": _in_budget(bank).vectors})


def load_bank(path):
    """Read a .vfb back into a FieldBank; every float round-trips exactly."""
    from .field import FieldBank  # local imports, avoid a cycle
    from .simulator import CLASS_NAMES

    header, arrays = read_arrays(path, BANK_MAGIC, BANK_VERSION)

    def number(key, parse=float):
        try:
            return parse(header[key])
        except ValueError as err:  # a FormatError below, naming the key
            raise ValueError(f"{key} {header[key]!r}: {err}") from None

    try:
        if header["class_name"] not in CLASS_NAMES:
            raise ValueError(f"class_name {header['class_name']!r} is not one of this "
                             f"build's {','.join(CLASS_NAMES)}")
        if list(arrays) != ["vectors"]:
            raise ValueError(f"a bank holds one array, vectors, got {sorted(arrays)}")
        return _in_budget(FieldBank(
            CLASS_NAMES.index(header["class_name"]), header["class_name"],
            number("dims", lambda text: [float(d) for d in text.split()]), number("step"),
            arrays["vectors"], number("seed", int), number("eps"), number("psi"), header["boxes"]))
    except KeyError as err:
        raise FormatError(f"{path}: missing header key {err}") from err
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
