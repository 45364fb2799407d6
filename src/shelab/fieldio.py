"""Flat binary persistence of field checkpoints.

Record layout (all little-endian, fixed 64-bit fields):

    offset  type     field
    0       8s       magic b"SHEFLD1\\0"
    8       f64      dx
    16      f64      half_width
    24      f64      dt
    32      u64      reserved, 0 (older records put a boundary code here;
                     code 1, periodic, is rejected)
    40      f64      time
    48      u64      replicate_id
    56      u64      cell_count
    64      f64[n]   cell values (IEEE-754 binary64)
"""

from __future__ import annotations

import struct

import numpy as np

from .sim import Field, GridSpec

__all__ = ["save_field", "load_field", "MAGIC"]

MAGIC = b"SHEFLD1\x00"
_HEADER = struct.Struct("<8sdddQdQQ")


def save_field(path, field: Field, replicate_id: int = 0) -> None:
    g = field.grid
    header = _HEADER.pack(
        MAGIC, g.dx, g.half_width, g.dt, 0, field.time, replicate_id, g.cell_count,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path):
    """Read a checkpoint; returns (Field, replicate_id)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated field record header")
        magic, dx, half_width, dt, reserved, time, rep, n = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError("not a field record (bad magic)")
        if reserved != 0:
            raise ValueError(f"reserved word {reserved} is not 0 (code 1 marked "
                             "a periodic grid, which is not supported)")
        payload = fh.read(8 * n)
    if len(payload) != 8 * n:
        raise ValueError("truncated field record payload")
    grid = GridSpec(dx=dx, half_width=half_width, dt=dt)
    if grid.cell_count != n:
        raise ValueError("cell_count inconsistent with grid parameters")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Field(grid=grid, time=time, values=values), int(rep)
