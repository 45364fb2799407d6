"""Deterministic, splittable space-time white-noise increments.

The normal variate at coordinates (replicate_id, step_index, cell_index) is a
pure function of (master_seed, replicate_id, step_index, cell_index):

  * Philox (counter-based) keyed on (master_seed, replicate_id), with
    step_index placed in the high counter word.  Within a step the low
    counter word advances, so steps never collide for any realistic cell
    count.
  * One raw 64-bit Philox word per cell; its top 53 bits k give the
    uniform (k + 1/2) 2^-53, mapped through the normal inverse CDF.  Only
    the raw Philox stream of numpy is relied on, and no word is ever
    rejected, so the coordinate -> value map has no data-dependent stream
    consumption.

Replicates are therefore parallelizable in any order with bit-identical
output.  Not cryptographic; not low-discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["NoiseStream", "ZeroNoise"]

_INV53 = 2.0 ** -53


def _uniforms_to_normals(u53, out=None):
    """Normals of the 53-bit integers u53, into `out` (float64, u53's shape)
    when given: the same operations as ndtri((u53 + 0.5) * 2^-53) in place."""
    # (k + 1/2) * 2^-53 lies strictly inside (0, 1): ndtri never hits +-inf
    if out is None:
        out = np.empty(u53.shape)
    np.copyto(out, u53, casting="unsafe")
    out += 0.5
    out *= _INV53
    return ndtri(out, out=out)


@dataclass(frozen=True)
class NoiseStream:
    """Value-like handle on one replicate's noise; freely copyable."""

    master_seed: int
    replicate_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.replicate_id < 0:
            raise ValueError("replicate_id must be nonnegative")

    def normals(self, step_index: int, cell_count: int) -> np.ndarray:
        """Standard normals at (replicate, step, 0..cell_count-1)."""
        if step_index < 0:
            raise ValueError("step_index must be nonnegative")
        if cell_count < 1:
            raise ValueError("cell_count must be >= 1")
        bg = np.random.Philox(
            key=np.array([self.master_seed, self.replicate_id], dtype=np.uint64),
            counter=np.array([0, 0, 0, step_index], dtype=np.uint64),
        )
        return _uniforms_to_normals(bg.random_raw(cell_count) >> 11)


class ZeroNoise:
    """Test hook: every variate is 0, turning each noise factor into the
    deterministic compensator exp(-dt/(2 dx))."""

    def normals(self, step_index: int, cell_count: int) -> np.ndarray:
        if cell_count < 1:
            raise ValueError("cell_count must be >= 1")
        return np.zeros(cell_count)


class _FastNormals:
    """Internal batched variant of NoiseStream.normals.

    Reuses one Philox object via state assignment, which produces draws
    bit-identical to fresh construction (asserted in the test suite) at a
    fraction of the setup cost.  Single-threaded use only; each worker
    process owns its own instance.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._bg = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
        self._state = self._bg.state
        self._words = np.empty((0, 0), dtype=np.uint64)  # reused by normals_block

    def fill_u53(self, out, replicate_id: int, step_index: int):
        st = self._state
        st["state"]["counter"][:] = 0
        st["state"]["counter"][3] = step_index
        st["state"]["key"][0] = self.master_seed
        st["state"]["key"][1] = replicate_id
        st["buffer_pos"] = 4
        self._bg.state = st
        np.right_shift(self._bg.random_raw(out.size), 11, out=out)

    def normals_block(self, replicate_ids, step_index: int, cell_count: int,
                      out=None):
        """(len(replicate_ids), cell_count) matrix of normals for one step,
        written into `out` when given.  The word block is kept between calls
        of the same shape."""
        shape = (len(replicate_ids), cell_count)
        if self._words.shape != shape:
            self._words = np.empty(shape, dtype=np.uint64)
        u = self._words
        for i, rid in enumerate(replicate_ids):
            self.fill_u53(u[i], rid, step_index)
        return _uniforms_to_normals(u, out=out)
