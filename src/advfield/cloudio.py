"""Bit-exact readers and writers for clouds, labels, artifacts, and configs.

Formats:
  * ``.bin``    little-endian float32, 4 per point (x, y, z, intensity)
  * ``.label``  little-endian uint32 per point; low 16 bits semantic id,
                high 16 bits instance id (0 = no instance)
  * ``.vfb``    field banks (version 4) and ``.ckpt`` victim checkpoints
                (version 2), in one grammar: a ``MAGIC VERSION`` line,
                ``key = value`` header lines, then per named array an
                ``array <name> <d0> <d1> ...`` line and one row per leading
                index. Array values are hexfloats, written as ``float.hex``
                writes them, so load(save(x)) keeps every bit; a reader takes
                any token ``float.fromhex`` takes. The codec streams: it
                writes and reads one array at a time, a block of rows at a
                time, never the whole file in memory. Other versions,
                malformed lines and text that is not UTF-8 raise FormatError. A
                bank's header holds the ``seed`` its initial vectors were drawn
                from; slot (g, n) of its (G, N, m, 4) vectors is the (m, 4) array
                ``field-<g>-<n>``, one ``dx dy dz dtau`` row per lattice root
                (roots follow from dims and step), and the array names must be
                the G x N slots. Every spatial component must lie in [-eps, eps]
                and every intensity shift in [-psi, psi], the bank's recorded
                budget; a checkpoint stores one array per MLP parameter
  * config      flat ``key = value`` text, ``#`` comments: the header rule
"""

from __future__ import annotations

import binascii
import math
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


# Values go through the codec a block of rows at a time, about this many values
# per block, so its memory stays bounded whatever the size of an array.
_BLOCK_VALUES = 1 << 16
_READ_CHUNK = 1 << 16

# float.hex of a finite float64 is [-]0x1.<13 hex digits>p<exponent> (normal),
# [-]0x0.<13 hex digits>p-1022 (subnormal) or [-]0x0.0p+0 (zero): with its
# separator, at most _WIDTH bytes. Both directions handle a token as
# little-endian 8-byte words.
_WIDTH = 25
_U64 = np.uint64
# "p<exponent>" for exponents -1022 to 1023 at row exponent + 1022, then two
# rows that match no token
_EXPONENTS = [f"p{e:+d}".encode() for e in range(-1022, 1024)]
_ZERO_ROW = 1022  # "p+0"
_EXP_TEXT = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in _EXPONENTS) + b"\xff" * 16, "<u8")
_EXP_SIZE = np.array([len(t) for t in _EXPONENTS])

# The writer lays a token out in 4 words: "-0x", the lead digit, ".", 13 hex
# digits from byte 5, "p<exponent>" from byte 18, the separator at byte 24.
# It keeps the bytes _KEEP[sign + 2 * zero + 4 * (exponent size - 3)].
_LEAD = np.frombuffer(b"-0x0.\0\0\0", "<u8")[0]
_KEEP = np.array([[(col > 0 or sign) and (col < 6 or col >= 18 or not zero)
                   and (col < 18 + size or col == 24) and col <= 24 for col in range(32)]
                  for size in range(3, 7) for zero in (0, 1) for sign in (0, 1)], bool)

# The reader takes a token without its sign as 3 words, bytes 0-23: "0x", "0"
# or "1", "." (all of "0x0.0p+0" for a zero), 13 hex digits from byte 4,
# "p<exponent>" from byte 17. Per size of "p<exponent>" & 7, _EXP_MASKS covers
# its bytes in the third word: sizes 3 to 6; any other size covers the digit
# before it too, so that no exponent row matches. A block is padded so that
# the words of its last token lie inside it.
_PAD = b" " * _WIDTH
_HEAD_MASK, _HEAD = np.frombuffer(b"\xff\xff\xfe\xff\0\0\0\0" b"0x0.\0\0\0\0", "<u8")
_ZERO_HEAD = np.frombuffer(b"0x0.0p+0", "<u8")[0]
_EXP_MASKS = np.array([(1 << 8 * n) - 1 << 8 if 3 <= n <= 6 else (1 << 64) - 1
                       for n in range(8)], np.uint64)


def _hex_tokens(values: np.ndarray, cols: int) -> np.ndarray:
    """``float.hex`` of each finite float64 in ``values``, as bytes in a uint8 array.

    Each token is followed by a space, or by a newline after every
    ``cols``-th value.
    """
    bits = values.view(np.uint64)
    sign = (bits >> _U64(63)).astype(np.intp)
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.intp)
    mantissa = bits & _U64((1 << 52) - 1)
    tiny = biased == 0  # zero or subnormal: lead digit 0, exponent -1022
    zero = tiny & (mantissa == 0)
    row = np.where(tiny, np.where(zero, _ZERO_ROW, 0), biased - 1)
    # 16 hex digits per value, the first 3 the zero bits above the mantissa
    hexed = np.frombuffer(binascii.hexlify(mantissa.astype(">u8")), "<u8")
    high, low = hexed[0::2], hexed[1::2]
    words = np.empty((len(values), 4), "<u8")
    lead = _LEAD + (~tiny).astype(np.uint64) * _U64(1 << 24)  # "0" -> "1" past a zero exponent
    words[:, 0] = lead | (high >> _U64(24) << _U64(40))
    words[:, 1] = (high >> _U64(48)) | (low << _U64(16))
    words[:, 2] = (low >> _U64(48)) | (_EXP_TEXT[row] << _U64(16))
    words[:, 3] = ord(" ")
    words[cols - 1::cols, 3] = ord("\n")
    return words.view(np.uint8)[_KEEP[sign + 2 * zero + 4 * (_EXP_SIZE[row] - 3)]]


def write_arrays(path, magic: str, version: int, header: dict, arrays: dict) -> None:
    """Write ``header`` values and named float64 arrays as versioned hexfloat text.

    Every value is written as ``float.hex`` writes it, one array at a time,
    a block of rows at a time.
    """
    head = "".join([f"{magic} {version}\n"]
                   + [f"{key} = {value}\n" for key, value in header.items()]).encode("utf-8")
    tables = []  # every shape first, so that an array without one leaves no file
    for name, array in arrays.items():
        array = np.asarray(array, dtype=float)
        tables.append((" ".join(["array", name, *map(str, array.shape)]),
                       array.reshape(array.shape[0], math.prod(array.shape[1:]))))
    with open(path, "wb") as file:
        file.write(head)
        for line, rows in tables:
            file.write(line.encode("utf-8") + b"\n")
            cols = rows.shape[1]
            step = max(1, _BLOCK_VALUES // max(cols, 1))
            for lo in range(0, len(rows), step):
                block = np.ascontiguousarray(rows[lo:lo + step])
                if cols and np.isfinite(block).all():
                    file.write(_hex_tokens(block.reshape(-1), cols))
                else:  # nan and inf, and rows without values
                    file.write("".join(" ".join(map(float.hex, row)) + "\n"
                                       for row in block.tolist()).encode("ascii"))


class _Lines:
    """A binary file read as the lines ``str.splitlines`` cuts its UTF-8 text into.

    Lines are taken in blocks; a block is bytes in which every line ends in
    a newline and no other line break is left.
    """

    def __init__(self, file, path):
        self.file, self.path = file, path
        self.rest = b""   # read from the file, not yet taken
        self.lineno = 0   # lines taken so far

    def take(self, count: int, size_hint: int = 0) -> tuple:
        """The next ``count`` lines, fewer at the end of the file -> (block, lines).

        ``size_hint`` is about the bytes the lines take.
        """
        parts, found, size, piece = [], 0, 0, self.rest
        while piece or (piece := self.file.read(min(max(size_hint - size, _READ_CHUNK),
                                                    _BLOCK_VALUES * _WIDTH))):
            if count - found == 1:
                newlines, cut = 0, piece.find(b"\n") + 1
            else:
                at = np.flatnonzero(np.frombuffer(piece, np.uint8) == 10)
                newlines = len(at)
                cut = int(at[count - found - 1]) + 1 if newlines >= count - found else 0
            if cut:
                parts.append(piece[:cut])
                self.rest, found = piece[cut:], count
                break
            parts.append(piece)
            found, size, piece = found + newlines, size + len(piece), b""
        else:  # the end of the file
            self.rest = b""
        block = b"".join(parts)
        if block.isascii() and np.count_nonzero(np.frombuffer(block, np.uint8) < 32) == found:
            taken = found  # newlines are its only line breaks
            if not block.endswith(b"\n") and block:  # a last line without one
                block, taken = block + b"\n", taken + 1
        else:  # cut at every line break, and keep the lines after the count
            lines = self._decode(block).splitlines()
            block = "".join(line + "\n" for line in lines[:count]).encode("utf-8")
            self.rest = "".join(line + "\n" for line in lines[count:]).encode("utf-8") + self.rest
            taken = min(len(lines), count)
        self.lineno += taken
        return block, taken

    def _decode(self, block: bytes) -> str:
        try:
            return block.decode("utf-8")
        except UnicodeDecodeError as err:
            # the line that holds the undecodable byte, counted as splitlines counts
            before = block[:err.start].decode("utf-8") + "?"
            line = self.lineno + len(before.splitlines())
            raise FormatError(f"{self.path}:{line}: not UTF-8 text ({err.reason})") from None

    def text(self):
        """The next line as a string, None at the end of the file."""
        block, taken = self.take(1)
        return block[:-1].decode("utf-8") if taken else None


def _hex_value(chars: np.ndarray) -> np.ndarray:
    """The number that the 8 hex digits in each uint64 of ``chars`` write.

    A byte is one digit, the first byte the most significant. A byte that is
    not a hex digit gives some wrong number.
    """
    letters = (chars >> _U64(6)) & _U64(0x0101010101010101)  # 1 in the bytes of a-f
    v = (chars & _U64(0x0F0F0F0F0F0F0F0F)) + _U64(9) * letters
    v = ((v << _U64(4)) | (v >> _U64(8))) & _U64(0x00FF00FF00FF00FF)  # 2 digits per 16 bits
    v = ((v << _U64(8)) | (v >> _U64(16))) & _U64(0x0000FFFF0000FFFF)  # 4 per 32 bits
    return ((v << _U64(16)) | (v >> _U64(32))) & _U64(0xFFFFFFFF)


def _parse_hexfloats(block: bytes, rows: int, cols: int):
    """The values of ``rows`` lines of ``cols`` hexfloats split by single spaces.

    Returns a flat float64 array, or None if ``block`` is not such lines.
    A token is decoded from its bytes when they are exactly what
    :func:`_hex_tokens` writes for the value they decode to; any other token
    goes through ``float.fromhex``.
    """
    size, padded = len(block), block + _PAD
    data = np.frombuffer(padded, np.uint8)
    ends = np.flatnonzero(data[:size] <= 32)
    ends = ends[(data[ends] == 32) | (data[ends] == 10)]  # a tab is part of a token
    if len(ends) != rows * cols or not np.all(data[ends[cols - 1::cols]] == 10):
        return None
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    sign = data[starts] == ord("-")
    at = starts + sign
    width = ends - at  # without the sign
    head, mid, tail = np.ndarray((size, 3), "<u8", padded, 0, (1, 8))[at].T
    # hex digits 1-5 behind "000", and digits 6-13: what hexlify writes
    high = (((head >> _U64(8)) | (mid << _U64(56))) & ~_U64(0xFFFFFF)) | _U64(0x303030)
    low = (mid >> _U64(8)) | (tail << _U64(56))
    mantissa = (_hex_value(high) << _U64(32)) | _hex_value(low)
    hexed = np.frombuffer(binascii.hexlify(mantissa.astype(">u8")), "<u8")
    # the 1-4 exponent digits from byte 19, right-aligned behind "0"s in 4 bytes
    shift = (((width - 20) & 3) + 1).astype(np.uint64) * _U64(8)
    text = (tail >> _U64(24) << (_U64(32) - shift)) | (_U64(0x30303030) >> shift)
    digits = text - _U64(0x30303030)
    pairs = (digits & _U64(0x00FF00FF)) * _U64(10) + ((digits >> _U64(8)) & _U64(0x00FF00FF))
    magnitude = ((pairs & _U64(0xFFFF)) * _U64(100) + ((pairs >> _U64(16)) & _U64(0xFFFF)))
    # the exponent row, exponent + 1022, of a normal is its biased exponent - 1;
    # a subnormal's is 0 (p-1022) and its biased exponent 0
    magnitude = magnitude.astype(np.int64)
    row = np.where((tail >> _U64(16)) & _U64(0xFF) == ord("-"), 1022 - magnitude, 1022 + magnitude)
    normal = (head >> _U64(16)) & _U64(0xFF) == ord("1")
    biased = np.where(normal, row + 1, 0).astype(np.uint64)
    canonical = (((head & _HEAD_MASK) == _HEAD) & (normal | (row == 0)) & (width <= 23)
                 & ((tail & _EXP_MASKS[(width - 17) & 7]) == _EXP_TEXT[row & 2047] << _U64(8))
                 & (hexed[0::2] == high) & (hexed[1::2] == low))
    zero = (width == 8) & (head == _ZERO_HEAD)
    bits = np.where(zero, _U64(0), (biased << _U64(52)) | mantissa)
    values = (bits | (sign.astype(np.uint64) << _U64(63))).view(np.float64)
    for i in np.flatnonzero(~(canonical | zero)).tolist():
        try:
            values[i] = float.fromhex(block[starts[i]:ends[i]].decode("utf-8"))
        except (ValueError, OverflowError):
            return None
    return values


def _read_array(lines: _Lines, shape: tuple):
    """The array of ``shape`` whose rows are the next lines; None if they are not."""
    rows, cols = shape[0], math.prod(shape[1:])
    step = max(1, _BLOCK_VALUES // max(cols, 1))
    parts = []
    for lo in range(0, rows, step):
        count = min(step, rows - lo)
        block, taken = lines.take(count, count * cols * 22)  # about 22 bytes a token
        values = _parse_hexfloats(block, count, cols) if taken == count and cols else None
        if values is None:
            return None
        parts.append(values)
    return np.concatenate(parts).reshape(shape) if parts else None


def read_arrays(path, magic: str, version: int):
    """Parse a :func:`write_arrays` file -> (header of strings, dict of arrays).

    The first line must read exactly ``magic version``. Raises FormatError on
    any other first line, text that is not UTF-8, a malformed header or array
    line, a duplicate array name, and an array with missing, extra or
    unparsable values.
    """
    with open(path, "rb") as file:
        lines = _Lines(file, path)
        first = lines.text()
        words = first.split() if first is not None else []
        if len(words) != 2 or words[0] != magic:
            raise FormatError(f"{path}: not an {magic} file, line 1 must read '{magic} {version}'")
        if words[1] != str(version):
            raise FormatError(f"{path}: unsupported version {words[1]}, expected {version}")
        header_lines = []
        line = lines.text()
        while line is not None and not line.startswith("array "):
            header_lines.append(line)
            line = lines.text()
        header = _parse_header(header_lines, path, 2)
        arrays = {}
        while line is not None:
            at, words = lines.lineno, line.split()
            if len(words) < 3 or words[0] != "array" or not all(d.isdecimal() for d in words[2:]):
                raise FormatError(f"{path}:{at}: expected 'array <name> <d0> <d1> ...', "
                                  f"got {line!r}")
            name, shape = words[1], tuple(map(int, words[2:]))
            if name in arrays:
                raise FormatError(f"{path}:{at}: duplicate array {name}")
            arrays[name] = _read_array(lines, shape)
            if arrays[name] is None:
                raise FormatError(f"{path}:{at}: array {name} needs {shape[0]} rows of "
                                  f"{math.prod(shape[1:])} hexfloats separated by single spaces")
            line = lines.text()
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
    from .field import FieldBank, check_budget, lattice_counts  # local import, avoids a cycle

    header, arrays = read_arrays(path, BANK_MAGIC, BANK_VERSION)
    try:
        dims = tuple(map(float.fromhex, header["dims"].split()))
        step = float.fromhex(header["step"])
        eps, psi = float.fromhex(header["eps"]), float.fromhex(header["psi"])
        check_budget(eps, psi)
        groups, variants = int(header["G"]), int(header["N"])
        if len(arrays) != groups * variants:
            raise ValueError(f"bank needs G*N = {groups * variants} fields, got {len(arrays)}")
        slots = {f"field-{g + 1}-{n + 1}": (g, n) for g, n in np.ndindex(groups, variants)}
        vectors = np.empty((groups, variants, math.prod(lattice_counts(dims, step)), 4))
        for name, array in arrays.items():
            if name not in slots:
                raise ValueError(f"array {name} is not a 'field-<g>-<n>' slot of the bank's "
                                 f"{groups} x {variants} grid")
            if array.shape != vectors.shape[2:]:
                raise ValueError(f"array {name} has shape {array.shape}, expected "
                                 f"{vectors.shape[2:]}: one vector row per lattice root")
            # not `> bound`: a nan component is outside the budget too
            if not np.all(np.abs(array) <= [eps, eps, eps, psi]):
                raise ValueError(f"array {name} has a vector outside the bank's budget "
                                 f"eps = {eps}, psi = {psi}")
            vectors[slots[name]] = array
        return FieldBank(class_id=int(header["class_id"]), class_name=header["class_name"],
                         dims=dims, step=step, vectors=vectors, seed=int(header["seed"]),
                         eps=eps, psi=psi, boxes=header["boxes"])
    except KeyError as err:
        raise FormatError(f"{path}: missing header key {err}") from err
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
