"""Binary snapshot format for marginals and hierarchy states.

Layout (little-endian): magic "GPH1" (4 bytes), format version u32,
d u32, M u32, L f64, k u32.  k > 0 is a single level-k marginal; k = 0 is
a full state header followed by the level count (u32) and the levels
1..count concatenated.  Entries are row-major complex values stored as
interleaved IEEE-754 f64 (re, im) pairs, axis order (x_1..x_k, x'_1..x'_k).
Round-trips are bit-exact.  A state is only its sequence of marginals: the
interaction order p and coupling mu are not stored, and a solver takes them
as an InteractionSpec.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .grid import make_grid
from .marginal import HierarchyState, Marginal

MAGIC = b"GPH1"
VERSION = 1


class SnapshotError(IOError):
    pass


class BadMagicError(SnapshotError):
    pass


class VersionMismatchError(SnapshotError):
    pass


class TruncatedPayloadError(SnapshotError):
    pass


def _level_bytes(gamma: Marginal) -> bytes:
    data = np.ascontiguousarray(gamma.data.astype("<c16", copy=False))
    return data.tobytes()


def snapshot_write(obj: Marginal | HierarchyState, path: str) -> None:
    """Write a marginal or a full hierarchy state to `path`."""
    if isinstance(obj, Marginal):
        grid, header_k, levels = obj.grid, obj.k, [obj]
    elif isinstance(obj, HierarchyState):
        grid, header_k, levels = obj.grid, 0, obj.levels
    else:
        raise TypeError(f"cannot snapshot object of type {type(obj).__name__}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, grid.d, grid.M))
        fh.write(struct.pack("<d", grid.L))
        fh.write(struct.pack("<I", header_k))
        if header_k == 0:
            fh.write(struct.pack("<I", len(levels)))
        for gamma in levels:
            fh.write(_level_bytes(gamma))


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedPayloadError(f"truncated payload while reading {what}")
    return buf


def _payload_bytes(d: int, M: int, levels, cap: int) -> int:
    """Bytes of the level payloads, or cap + 1 as soon as they exceed `cap`.

    Header fields are 32-bit, so each power M^(2 d n) is bounded through its
    logarithm before it is formed.
    """
    total = 0
    for n in levels:
        if 2 * d * n * math.log2(M) > math.log2(cap + 1):
            return cap + 1
        total += 16 * M ** (2 * d * n)
        if total > cap:
            return cap + 1
    return total


def snapshot_read(path: str) -> Marginal | HierarchyState:
    """Read a snapshot: a Marginal (k > 0) or a HierarchyState (k = 0).

    The header is validated by make_grid and against the file size before
    anything is allocated; every malformed file raises a SnapshotError.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, d, M = struct.unpack("<III", _read_exact(fh, 12, "header"))
        if version != VERSION:
            raise VersionMismatchError(f"format version {version}, expected {VERSION}")
        (L,) = struct.unpack("<d", _read_exact(fh, 8, "header"))
        (k,) = struct.unpack("<I", _read_exact(fh, 4, "header"))
        if 16 * M * M > file_size:
            # a level has at least M^2 entries; bounds the M wavenumbers make_grid allocates
            raise TruncatedPayloadError(f"header grid M={M} needs more than the {file_size} bytes of the file")
        try:
            grid = make_grid(d, M, L)
        except ValueError as exc:
            raise SnapshotError(f"invalid grid in header: {exc}") from exc
        if k > 0:
            levels = [k]
        else:
            (count,) = struct.unpack("<I", _read_exact(fh, 4, "level count"))
            if count < 1:
                raise TruncatedPayloadError("state snapshot with zero levels")
            levels = range(1, count + 1)
        present = file_size - fh.tell()
        expected = _payload_bytes(d, M, levels, present)
        if expected > present:
            raise TruncatedPayloadError(f"truncated payload: header needs more than the {present} bytes present")
        if expected < present:
            raise TruncatedPayloadError(f"{present - expected} trailing bytes after the payload")

        def read_level(level_k: int) -> Marginal:
            n_el = M ** (2 * d * level_k)
            raw = _read_exact(fh, 16 * n_el, f"level-{level_k} entries")
            data = np.frombuffer(raw, dtype="<c16").reshape((M,) * (2 * d * level_k)).copy()
            return Marginal(grid, level_k, data)

        if k > 0:
            return read_level(k)
        return HierarchyState(grid, [read_level(n) for n in levels])
