"""Point-stream file formats and one-pass readers.

Two formats are supported:

* ``csv``  — one point per line, comma-separated decimal fields (no ``_``
  digit separators). The weighted variant puts an integer weight in the
  leading column.
* ``bin``  — magic ``SCPT``, little-endian u32 version (currently 1),
  little-endian u32 dimension, then one record per point: d little-endian
  float64 coordinates. The weighted variant prefixes each record with a
  little-endian u64 weight.

Binary round-trips are bitwise exact. Readers stream in bounded memory and
report the first malformed position (1-based line for csv, byte offset for
bin). A ``PointSource`` opens its file once to learn d and once per pass,
so it takes only a regular file, never a pipe. ``BLOCK_BYTES`` is the one
block size: the bin reader reads that many bytes at a time, and the
full-cost pass buffers that many bytes of rows.
"""

import os
import stat
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

MAGIC = b"SCPT"
VERSION = 1
FORMATS = ("csv", "bin")

_HEADER = struct.Struct("<4sII")

#: Bytes of one block: one read from a bin file, or one buffer of rows.
BLOCK_BYTES = 1 << 20


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes that fit in one block; at least one."""
    return max(1, BLOCK_BYTES // row_bytes)


class StreamFormatError(ValueError):
    """Malformed or unusable stream file; the message names the offending position."""


def _format_float(v: float) -> str:
    return repr(float(v))


# -- writers ---------------------------------------------------------------

def write_csv(path, rows: Iterable, *, weighted: bool = False) -> int:
    """Write points (or ``(point, weight)`` pairs when weighted) as csv.

    Returns the number of points written.
    """
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for item in rows:
            if weighted:
                point, weight = item
                fh.write(str(int(weight)))
                fh.write(",")
            else:
                point = item
            fh.write(",".join(_format_float(v) for v in point))
            fh.write("\n")
            count += 1
    return count


def write_bin(path, rows: Iterable, dim: int, *, weighted: bool = False) -> int:
    """Write points (or ``(point, weight)`` pairs) in the binary format."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, dim))
        for item in rows:
            if weighted:
                point, weight = item
                fh.write(struct.pack("<Q", int(weight)))
            else:
                point = item
            arr = np.ascontiguousarray(point, dtype="<f8")
            if arr.shape != (dim,):
                raise ValueError(f"point of dimension {arr.shape} does not match d={dim}")
            fh.write(arr.tobytes())
            count += 1
    return count


def write_stream(path, rows: Iterable, dim: int, fmt: str, *,
                 weighted: bool = False) -> int:
    if fmt == "csv":
        return write_csv(path, rows, weighted=weighted)
    if fmt == "bin":
        return write_bin(path, rows, dim, weighted=weighted)
    raise ValueError(f"unknown format {fmt!r}")


# -- readers ---------------------------------------------------------------

def iter_blocks(points: Iterable, size: int, dim: int) -> Iterator[np.ndarray]:
    """Copy a point iterator into row blocks of at most ``size`` rows.

    One (size, dim) buffer is reused between blocks, so consumers must copy
    what they keep. A point whose shape is not (dim,) raises ValueError
    rather than being broadcast across the row.
    """
    if size < 1:
        raise ValueError("block size must be >= 1")
    buf = np.empty((size, dim))
    fill = 0
    for x in points:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (dim,):
            raise ValueError(f"point of shape {x.shape} does not match dimension {dim}")
        buf[fill] = x
        fill += 1
        if fill == size:
            yield buf
            fill = 0
    if fill:
        yield buf[:fill]


@dataclass
class PointSource:
    """A re-iterable reader: ``dim`` is known up front (None for an empty
    csv file) and each ``__iter__`` opens a fresh one-pass scan."""

    path: str
    fmt: str
    weighted: bool = False
    dim: int | None = field(init=False)

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise StreamFormatError(f"unknown format {self.fmt!r}")
        if not stat.S_ISREG(os.stat(self.path).st_mode):
            raise StreamFormatError(
                f"{self.path}: not a regular file; the stream is read more than once")
        self.dim = _probe_dim(self.path, self.fmt, self.weighted)

    def __iter__(self) -> Iterator:
        if self.fmt == "csv":
            return _read_csv(self.path, self.weighted)
        return _read_bin(self.path, self.weighted)

    def points(self) -> Iterator[np.ndarray]:
        """Iterate coordinates only, dropping weights if present."""
        if not self.weighted:
            return iter(self)
        return (point for point, _ in self)


def _read_header(fh, path, weighted: bool):
    """Read and check a bin stream's header; (dimension, record bytes), or
    None for an empty file. A file whose payload is not a whole number of
    records fails here, before any buffer is sized by d."""
    header = fh.read(_HEADER.size)
    if len(header) == 0:
        return None
    if len(header) < _HEADER.size:
        raise StreamFormatError(f"{path}: truncated header at byte {len(header)}")
    magic, version, dim = _HEADER.unpack(header)
    if magic != MAGIC:
        raise StreamFormatError(f"{path}: bad magic at byte 0")
    if version != VERSION:
        raise StreamFormatError(f"{path}: unsupported version {version}")
    if dim < 1:
        raise StreamFormatError(f"{path}: dimension {dim} in header")
    rec_size = 8 * dim + 8 * weighted  # a u64 weight when weighted, then d float64s
    size = os.fstat(fh.fileno()).st_size
    tail = (size - _HEADER.size) % rec_size
    if tail:
        raise StreamFormatError(f"{path}: truncated record at byte {size - tail}")
    return dim, rec_size


def _probe_dim(path, fmt: str, weighted: bool):
    """The stream's dimension, or None when it is empty: from the bin
    header, or from the first record the csv reader yields."""
    if fmt == "bin":
        with open(path, "rb") as fh:
            head = _read_header(fh, path, weighted)
        return None if head is None else head[0]
    records = _read_csv(path, weighted)
    first = next(records, None)
    records.close()
    return None if first is None else (first[0] if weighted else first).shape[0]


def _read_csv(path, weighted: bool):
    dim = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if "_" in line:  # int and float would read it as a digit separator
                raise StreamFormatError(f"{path}: line {lineno}: '_' in a field")
            fields = line.rstrip("\n").split(",")
            try:
                if weighted:
                    weight = int(fields[0])
                    coords = np.array([float(f) for f in fields[1:]])
                else:
                    coords = np.array([float(f) for f in fields])
            except (ValueError, IndexError) as exc:
                raise StreamFormatError(f"{path}: line {lineno}: {exc}") from exc
            if dim is None:
                dim = coords.shape[0]
                if dim < 1:
                    raise StreamFormatError(f"{path}: line {lineno}: no coordinates")
            elif coords.shape[0] != dim:
                raise StreamFormatError(
                    f"{path}: line {lineno}: expected {dim} coordinates, "
                    f"got {coords.shape[0]}")
            if weighted:
                if weight < 1:
                    raise StreamFormatError(
                        f"{path}: line {lineno}: weight must be >= 1")
                yield coords, weight
            else:
                yield coords


def _read_bin(path, weighted: bool):
    with open(path, "rb") as fh:
        head = _read_header(fh, path, weighted)
        if head is None:
            return
        dim, rec_size = head
        if weighted:
            rec = np.dtype([("w", "<u8"), ("x", "<f8", (dim,))])
        offset = _HEADER.size
        while True:
            raw = fh.read(rec_size * block_rows(rec_size))
            if not raw:
                return
            if len(raw) % rec_size:
                raise StreamFormatError(
                    f"{path}: truncated record at byte "
                    f"{offset + len(raw) - (len(raw) % rec_size)}")
            if weighted:
                block = np.frombuffer(raw, dtype=rec)
                coords = block["x"]
                ws = block["w"]
                for i in range(block.shape[0]):
                    weight = int(ws[i])
                    if weight < 1:
                        raise StreamFormatError(
                            f"{path}: byte {offset + i * rec_size}: weight must be >= 1")
                    yield coords[i], weight
            else:
                block = np.frombuffer(raw, dtype="<f8").reshape(-1, dim)
                for i in range(block.shape[0]):
                    yield block[i]
            offset += len(raw)
