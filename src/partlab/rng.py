"""Seedable, splittable random streams.

Built on the Philox counter-based bit generator keyed by
(seed, stream_id), so any trial index can own an independent stream
while staying bit-reproducible across runs and platforms.  A stream is
single-owner mutable state; hand each worker its own substream instead
of sharing one.  Philox is counter-based (Salmon et al., SC 2011), so
a stream can be moved to any word of its sequence in O(1): seek and
position let threads draw consecutive stretches of one stream at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]

_MASK64 = (1 << 64) - 1


class RandomStream:
    """A seeded random stream with named, independent substreams.

    The pair (seed, stream_id) fully determines the variate sequence.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, stream_id):
        """Fresh independent stream with the same seed and a new id."""
        return RandomStream(self.seed, stream_id)

    @property
    def position(self):
        """64-bit words drawn from the stream so far.

        Generator.random takes one word per double, so after k uniforms
        (and no other draws) the position is k.  Philox makes 4 words per
        counter step and buffers them: counter c with buffer_pos b means
        4(c - 1) + b words are gone.
        """
        state = self._gen.bit_generator.state
        steps = sum(int(c) << 64 * i for i, c in enumerate(state["state"]["counter"]))
        return 4 * steps + state["buffer_pos"] - 4

    def seek(self, position):
        """Move the stream to word ``position`` of its sequence, so that
        the next double drawn is the one that follows the first
        ``position`` words; the half word integers() keeps is unchanged.

        The counter is set to the last full step before the word, with
        an empty buffer, and the remaining position % 4 words of the
        next step are drawn and discarded.
        """
        if position < 0:
            raise ValueError("position must be >= 0")
        bitgen = self._gen.bit_generator
        state = bitgen.state
        steps, extra = divmod(position, 4)
        state["state"]["counter"] = np.array(
            [(steps >> 64 * i) & _MASK64 for i in range(4)], dtype=np.uint64)
        state["buffer_pos"] = 4
        bitgen.state = state
        bitgen.random_raw(extra)

    def uniform(self, size=None):
        """Uniform variates on [0, 1)."""
        return self._gen.random(size)

    def uniform_open(self, size=None):
        """Uniform variates on the open interval (0, 1); zeros are redrawn
        in order, each from the words after the whole draw."""
        if size is None:
            u = self.uniform()
            while u == 0.0:
                u = self.uniform()
            return u
        u = self.uniform(size)
        mask = u == 0.0
        while mask.any():
            u[mask] = self.uniform(int(mask.sum()))
            mask = u == 0.0
        return u

    def exponential(self, size=None):
        """Mean-1 exponentials by inverse CDF on open-interval uniforms.

        Arrays are transformed in place, so a block costs its own size
        in memory and no more."""
        if size is None:
            return -np.log(self.uniform_open())
        u = self.uniform_open(size)
        np.log(u, out=u)
        return np.negative(u, out=u)

    def standard_normal(self, size=None):
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
