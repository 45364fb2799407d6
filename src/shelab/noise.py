"""Deterministic, splittable space-time white-noise increments.

The normal variate at coordinates (replicate_id, step_index, cell_index) is a
pure function of (master_seed, replicate_id, step_index, cell_index):

  * Philox (counter-based) keyed on (master_seed, replicate_id), with
    step_index placed in the high counter word.  Within a step the low
    counter word advances, so steps never collide for any realistic cell
    count.
  * One raw 64-bit Philox word per cell; its top 53 bits k give the
    uniform (k + 1/2) 2^-53 (1 - 2^-53 for k = 2^53 - 1, where k + 1/2
    rounds up to 2^53), mapped through the normal inverse CDF.  Only
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
    when given: the same operations as
    ndtri(minimum(u53 + 0.5, 2^53 - 1) * 2^-53) in place."""
    # k + 1/2 rounds to even for k = 2^53 - 1, to 2^53, whose uniform 1.0
    # would give ndtri's +inf; the clamp maps that one word to 1 - 2^-53, so
    # every uniform lies strictly inside (0, 1) and every normal is finite
    if out is None:
        out = np.empty(u53.shape)
    np.copyto(out, u53, casting="unsafe")
    out += 0.5
    np.minimum(out, 2.0 ** 53 - 1, out=out)
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
    fraction of the setup cost.  The state dict is built once, with plain
    Python lists for the counter, key and buffer: numpy's state setter reads
    list items faster than array items, and a fill only rewrites three list
    items before assigning the dict.  Philox is counter-based, so a fill can
    start at any cell of the row and keep its bits: the batch engine draws
    words only on its domain of dependence [lo, hi).  `ndtri` still
    transforms the whole (B, n) word block, because the benchmark's count
    model pins the number of variates; the cells never drawn hold the word
    2^52, whose normal is exactly 0.0 and takes ndtri's fast central branch.
    Single-threaded use only; each worker process owns its own instance.
    """

    def __init__(self, master_seed: int):
        self._bg = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
        st = self._bg.state
        st["state"] = {name: v.tolist() for name, v in st["state"].items()}
        st["buffer"] = st["buffer"].tolist()
        self._state = st
        self._counter = st["state"]["counter"]
        self._key = st["state"]["key"]
        self._words = np.empty((0, 0), dtype=np.uint64)  # reused by normals_block

    def fill_u53(self, out, replicate_id: int, step_index: int, first: int = 0):
        """53-bit integers of the row's cells first, first + 1, ... into
        `out`: the same words as out.size cells of a full-row fill from
        cell `first` on.  Each counter value gives 4 words, so the fill
        starts at counter first // 4 and drops the first first % 4 words."""
        # only this method writes the state lists, and it keeps key[0] (the
        # master seed) and counter[1:3] (zero) as __init__ set them; the
        # dict's buffer_pos stays 4 (buffer empty), since the dict is never
        # read back from the generator
        self._counter[0] = first // 4
        self._counter[3] = step_index
        self._key[1] = replicate_id
        self._bg.state = self._state
        skip = first % 4
        raw = self._bg.random_raw(out.size + skip)
        np.right_shift(raw[skip:] if skip else raw, 11, out=out)

    def normals_block(self, replicate_ids, step_index: int, cell_count: int,
                      out=None, lo: int = 0, hi: int | None = None):
        """(len(replicate_ids), cell_count) matrix of normals for one step,
        written into `out` when given.  Only the cells [lo, hi) (all cells by
        default) are drawn, and the block is valid only there; the cells of a
        fresh block never drawn are exactly 0.0.  The word block is kept
        between calls of the same shape."""
        hi = cell_count if hi is None else hi
        if not 0 <= lo <= hi <= cell_count:
            raise ValueError(f"need 0 <= lo <= hi <= {cell_count}, got [{lo}, {hi})")
        shape = (len(replicate_ids), cell_count)
        if self._words.shape != shape:
            # the word 2^52 maps to the normal 0.0; the word 0 would send
            # every cell never drawn down ndtri's slow tail branch
            self._words = np.full(shape, 1 << 52, dtype=np.uint64)
        u = self._words
        for i, rid in enumerate(replicate_ids):
            self.fill_u53(u[i, lo:hi], rid, step_index, lo)
        return _uniforms_to_normals(u, out=out)
