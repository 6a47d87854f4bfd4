"""Seedable random streams.

Built on the PCG64DXSM bit generator (O'Neill, HMC-CS-2014-0905),
seeded by ``SeedSequence(seed, spawn_key=(stream_id,))`` with seed and
stream_id each a 64-bit word.  The stream for (seed, i) is numpy's i-th
spawned child of ``SeedSequence(seed)``, so any trial index can own an
independent stream while staying bit-reproducible across runs and
platforms.  A stream is single-owner mutable state: draw from it on one
thread, as the path estimators do, or give each thread a stream of its
own.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["GENERATOR", "RandomStream"]

_BIT_GENERATOR = np.random.PCG64DXSM
GENERATOR = _BIT_GENERATOR.__name__  # named in every seeded run's manifest


class RandomStream:
    """A seeded random stream.

    The pair (seed, stream_id) fully determines the variate sequence.
    Each must be an integer (a float or a string raises TypeError) in
    [0, 2**64), the range of the key words; anything else raises
    ValueError.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = operator.index(seed)
        self.stream_id = operator.index(stream_id)
        for name, value in (("seed", self.seed), ("stream id", self.stream_id)):
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} {value} lies outside [0, 2**64)")
        keys = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(_BIT_GENERATOR(keys))

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self, size):
        """An array of uniform variates on [0, 1)."""
        return self._gen.random(size)

    def uniform_open(self, size):
        """An array of uniform variates on the open interval (0, 1); zeros
        are redrawn in order, each from the words after the whole draw."""
        u = self.uniform(size)
        mask = u == 0.0
        while mask.any():
            u[mask] = self.uniform(int(mask.sum()))
            mask = u == 0.0
        return u

    def exponential(self, size):
        """An array of mean-1 exponentials by inverse CDF on open-interval
        uniforms, transformed in place, so a block costs its own size in
        memory and no more."""
        u = self.uniform_open(size)
        np.log(u, out=u)
        return np.negative(u, out=u)

    def standard_normal(self, size):
        """An array of standard normal variates."""
        return self._gen.standard_normal(size)

    # Stays only because perfbench/layers.py wraps it; ROADMAP item 1 step 2 deletes it.
    def gamma(self, shape, size=None):
        """Gamma(shape, scale=1); for integer shape, the law of a sum of
        that many unit exponentials."""
        return self._gen.gamma(shape, size=size)

    def integers_below(self, bound, size):
        """``size`` uniform integers in [0, bound), for arbitrary-precision
        bounds.

        Each draw takes the fewest uint32 words that hold the bit width
        of bound-1, reads them little-endian, masks to that width and
        rejects overshoots, so every value is exactly uniform even when
        bound exceeds 2**64.  Rejected draws are redrawn in order, as
        many as values are still missing, so the words consumed and the
        values returned are those of ``size`` calls of integer_below.
        Returns int64 when bound <= 2**63, Python integers (dtype
        object) above.
        """
        bound = int(bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        if size < 0:
            raise ValueError("size must be nonnegative")
        dtype = np.int64 if bound <= 2**63 else object
        if bound == 1:
            return np.zeros(size, dtype=dtype)
        bits = (bound - 1).bit_length()
        mask = (1 << bits) - 1
        kept = [np.zeros(0, dtype=np.uint64)]
        missing = size
        while missing:
            words = self._gen.integers(0, 2**32, size=(missing, -(-bits // 32)),
                                       dtype=np.uint32)
            if bits <= 64:
                draws = words[:, 0].astype(np.uint64)
                if bits > 32:
                    draws |= words[:, 1].astype(np.uint64) << np.uint64(32)
                draws &= np.uint64(mask)
            else:
                draws = sum(column.astype(object) << 32 * i
                            for i, column in enumerate(words.T)) & mask
            if bound <= mask:
                draws = draws[draws < bound]
            kept.append(draws)
            missing -= len(draws)
        return np.concatenate(kept).astype(dtype)

    def integer_below(self, bound):
        """Uniform integer in [0, bound); the one-draw case of
        integers_below."""
        return int(self.integers_below(bound, 1)[0])
