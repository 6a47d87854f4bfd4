import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from partlab.rng import RandomStream
from partlab.stats import (
    C_SCALE,
    Z95,
    EventEstimate,
    kahan_cumsum,
    kahan_cumsum_rows,
    kahan_sum,
    make_estimate,
    wilson_interval,
)


class TestRandomStream:
    def test_same_key_same_sequence(self):
        a = RandomStream(42, 3).uniform(100)
        b = RandomStream(42, 3).uniform(100)
        assert np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = RandomStream(42, 0).uniform(100)
        b = RandomStream(42, 1).uniform(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream_id", [
        (2**64, 0), (-1, 0), (0, 2**64), (0, -1), (2**70, 3)])
    def test_key_outside_64_bits_is_refused(self, seed, stream_id):
        # masked to 64 bits, seed 2**64 would draw seed 0's stream
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            RandomStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id", [
        (2.7, 0), (2.0, 0), ("5", 0), (0, 1.5), (0, "3")])
    def test_key_that_is_not_an_integer_is_refused(self, seed, stream_id):
        # int() would truncate 2.7 to seed 2's stream and parse "5"
        with pytest.raises(TypeError):
            RandomStream(seed, stream_id)

    def test_numpy_integer_key_is_the_int_key(self):
        got = RandomStream(np.uint64(2**64 - 1), np.int32(3))
        assert (got.seed, got.stream_id) == (2**64 - 1, 3)
        assert type(got.seed) is type(got.stream_id) is int
        assert np.array_equal(got.uniform(4), RandomStream(2**64 - 1, 3).uniform(4))

    def test_key_ends_of_64_bits(self):
        top = RandomStream(2**64 - 1, 2**64 - 1).uniform(4)
        assert not np.array_equal(top, RandomStream(0, 0).uniform(4))

    def test_uniform_open_interval(self):
        u = RandomStream(1, 1).uniform_open(10**5)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_exponential_moments(self):
        x = RandomStream(11, 0).exponential(2 * 10**5)
        n = len(x)
        assert abs(x.mean() - 1.0) < 5 / math.sqrt(n)
        # second moment of Exp(1) is 2, variance of x^2 is 20
        assert abs((x**2).mean() - 2.0) < 5 * math.sqrt(20 / n)
        assert x.min() > 0

    @pytest.mark.parametrize("size", [7, (3, 5)])
    def test_exponential_is_minus_log_uniform(self, size):
        want = -np.log(RandomStream(12, 0).uniform_open(size))
        got = RandomStream(12, 0).exponential(size)
        assert np.array_equal(got, want)

    def test_exponential_block_memory(self):
        # a 32 MB block: the transform works in place on the uniforms
        size = 4 * 10**6
        rng = RandomStream(12, 1)
        tracemalloc.start()
        try:
            x = rng.exponential(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes == 32 * 10**6
        assert peak < 2 * x.nbytes

    def test_gamma_integer_shape_mean(self):
        g = RandomStream(13, 0).gamma(7.0, 10**5)
        assert abs(g.mean() - 7.0) < 5 * math.sqrt(7.0 / 10**5)

    def test_integer_below_edges(self):
        rng = RandomStream(3, 0)
        assert rng.integer_below(1) == 0
        with pytest.raises(ValueError):
            rng.integer_below(0)

    def test_integer_below_uniform(self):
        rng = RandomStream(5, 0)
        draws = np.array([rng.integer_below(22) for _ in range(22 * 2000)])
        counts = np.bincount(draws, minlength=22)
        assert sps.chisquare(counts).pvalue > 0.001

    def test_integer_below_bignum(self):
        bound = 190569292**3  # needs > 64 bits
        rng = RandomStream(9, 0)
        vals = [rng.integer_below(bound) for _ in range(200)]
        assert all(0 <= v < bound for v in vals)
        assert any(v > bound // 2 for v in vals)
        rerun = RandomStream(9, 0)
        assert vals == [rerun.integer_below(bound) for _ in range(200)]


class TestPCG64DXSMKnownAnswers:
    """The words and transforms the seeded outputs rest on, pinned on
    numpy 2.4, so that a numpy change to any of them fails here."""

    SEED, STREAM = 20261019, 3
    WORDS = [0x923008A8A7CD2941, 0x41048EF7040F0F25, 0x130B070F9F39A33E,
             0x1F97BD19F334B5D2, 0x5B6A6E0CBE6AB7B9, 0x7EF1BDBA685D3F0B]

    def _stream(self):
        return RandomStream(self.SEED, self.STREAM)

    def _bitgen(self):
        return self._stream()._gen.bit_generator

    def test_raw_words(self):
        assert self._bitgen().random_raw(6).tolist() == self.WORDS

    def test_random_is_one_word_per_double(self):
        got = self._stream().uniform(3).tolist()
        assert got == [0.5710454379803208, 0.25397580652866847, 0.07438701754947497]
        assert got == [(w >> 11) * 2.0**-53 for w in self.WORDS[:3]]

    def test_standard_normal(self):
        assert self._stream().standard_normal(3).tolist() == [
            -0.6272128155540981, -0.02777565451044039, -0.6433670125407789]

    def test_uint32_takes_the_low_then_the_high_half_of_a_word(self):
        got = self._stream()._gen.integers(0, 2**32, size=4, dtype=np.uint32)
        assert got.tolist() == [2815240513, 2452621480, 68095781, 1090817783]
        assert got.tolist() == [h for w in self.WORDS[:2]
                                for h in (w & 0xFFFFFFFF, w >> 32)]

    def test_advance_one_skips_one_word(self):
        bitgen = self._bitgen()
        bitgen.advance(1)
        assert bitgen.random_raw(5).tolist() == self.WORDS[1:]

    def test_stream_is_the_spawned_seed_sequence_child(self):
        keys = np.random.SeedSequence(self.SEED, spawn_key=(self.STREAM,))
        by_hand = np.random.PCG64DXSM(keys)
        assert by_hand.state == self._bitgen().state
        child = np.random.SeedSequence(self.SEED).spawn(self.STREAM + 1)[-1]
        assert np.random.PCG64DXSM(child).random_raw(6).tolist() == self.WORDS

    def test_seed_and_stream_id_are_not_interchangeable(self):
        s, t = self.SEED, self.STREAM
        firsts = [RandomStream(*key)._gen.bit_generator.random_raw()
                  for key in ((s, t), (t, s), (s, t + 1))]
        assert firsts == [self.WORDS[0], 0xF0229ECD1F4011A8, 0x86DAA1613D880390]

    @pytest.mark.parametrize("k", [0, 1, 5, 2**18 + 3, 2**70 + 1])
    def test_words_drawn_reads_the_state_distance(self, k):
        # the test helper the stream-position assertions rest on
        stream = self._stream()
        stream._gen.bit_generator.advance(k)
        assert oracles.words_drawn(stream) == k
        stream.uniform(7)
        stream.integers_below(2**32, 1)  # half a word, counted as drawn
        assert oracles.words_drawn(stream) == k + 8


def _integer_below_by_bytes(stream, bound):
    # the byte-wise rejection draw integers_below reproduces: the fewest
    # bytes that hold bound-1, little-endian, masked to its bit width
    bits = (bound - 1).bit_length()
    while True:
        r = int.from_bytes(stream._gen.bytes((bits + 7) // 8), "little")
        r &= (1 << bits) - 1
        if r < bound:
            return r


class TestIntegersBelow:
    @pytest.mark.parametrize("bound", [1, 2, 22, 2**32, 2**32 + 1, 2**63 - 1, 2**64 + 1])
    @pytest.mark.parametrize("size", [0, 1, 500])
    def test_same_values_and_words_as_scalar_calls(self, bound, size):
        batch, scalar, by_bytes = (RandomStream(41, 2) for _ in range(3))
        got = batch.integers_below(bound, size)
        assert got.dtype == (np.int64 if bound <= 2**63 else object)
        want = [scalar.integer_below(bound) for _ in range(size)]
        if bound > 1:
            assert want == [_integer_below_by_bytes(by_bytes, bound)
                            for _ in range(size)]
        assert got.tolist() == want
        # the stream is left where the scalar calls leave it
        assert batch.uniform() == scalar.uniform() == by_bytes.uniform()

    def test_bound_validated(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            RandomStream(3, 0).integers_below(0, 5)

    @pytest.mark.parametrize("bound", [1, 10])
    def test_negative_size_refused(self, bound):
        with pytest.raises(ValueError, match="size must be nonnegative"):
            RandomStream(3, 0).integers_below(bound, -1)


class TestWilson:
    def test_degenerate_all_hits(self):
        lo, hi = wilson_interval(100, 100)
        assert 0.9 < lo < 1.0
        assert hi <= 1.0

    def test_degenerate_no_hits(self):
        lo, hi = wilson_interval(0, 100)
        assert lo >= 0.0
        assert 0.0 < hi < 0.1

    def test_half(self):
        lo, hi = wilson_interval(500, 1000)
        assert lo < 0.5 < hi
        # symmetric around 1/2 for this case
        assert abs((0.5 - lo) - (hi - 0.5)) < 1e-12

    def test_interval_ordering_and_bounds(self):
        eps = 1e-12  # rounding at the degenerate ends
        for hits in (0, 1, 17, 99, 100):
            lo, hi = wilson_interval(hits, 100)
            assert 0.0 <= lo <= hits / 100 + eps
            assert hits / 100 - eps <= hi <= 1.0
            assert lo < hi

    def test_ends_contain_estimate_exactly(self):
        for trials in range(1, 20001):
            lo, hi = wilson_interval(0, trials)
            assert lo == 0.0 < hi
            lo, hi = wilson_interval(trials, trials)
            assert lo < 1.0 == hi

    def test_z95_value(self):
        assert abs(Z95 - 1.959963984540054) < 1e-15

    def test_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestEventEstimate:
    def test_make_estimate_fields(self):
        est = make_estimate("demo", 30, 100, n=50, gamma=0.2)
        assert est.event == "demo"
        assert est.hits == 30
        assert est.trials == 100
        assert est.estimate == 0.3
        assert est.ci_lo < 0.3 < est.ci_hi
        assert est.n == 50 and est.gamma == 0.2 and est.delta is None

    def test_halfwidth(self):
        est = make_estimate("demo", 30, 100)
        assert abs(est.ci_halfwidth - (est.ci_hi - est.ci_lo) / 2) < 1e-15

    def test_frozen(self):
        est = make_estimate("demo", 1, 2)
        with pytest.raises(AttributeError):
            est.hits = 7

    def test_equality_for_determinism_checks(self):
        assert make_estimate("e", 3, 10, n=4) == make_estimate("e", 3, 10, n=4)
        assert isinstance(make_estimate("e", 3, 10), EventEstimate)


class TestCompensatedSums:
    def test_kahan_sum_hard_case(self):
        # 1 + 2^-60 repeated: plain float addition loses the tail
        values = [1.0] + [2.0**-60] * 1000
        assert kahan_sum(values) > 1.0
        assert abs(kahan_sum(values) - (1.0 + 1000 * 2.0**-60)) < 1e-18

    def test_cumsum_matches_fsum_prefixes(self):
        rng = RandomStream(21, 0)
        x = rng.standard_normal(500) * 1e8 + rng.standard_normal(500)
        got = kahan_cumsum(x)
        want = [math.fsum(x[: i + 1]) for i in range(len(x))]
        assert np.allclose(got, want, rtol=0, atol=1e-6)
        assert got.shape == x.shape

    def test_cumsum_rows_matches_1d(self):
        rng = RandomStream(22, 0)
        a = rng.standard_normal((8, 64))
        rows = kahan_cumsum_rows(a)
        for i in range(a.shape[0]):
            assert np.array_equal(rows[i], kahan_cumsum(a[i]))

    def test_cumsum_rows_same_on_column_major_input(self):
        # the transpose of step-major terms is an F-ordered array whose
        # columns are contiguous
        a = RandomStream(23, 0).standard_normal((64, 9)) * 1e8
        f = np.asfortranarray(a)
        assert f.flags.f_contiguous and not f.flags.c_contiguous
        assert np.array_equal(kahan_cumsum_rows(f), kahan_cumsum_rows(a.copy(order="C")))

    def test_c_scale_value(self):
        assert abs(C_SCALE - math.pi / math.sqrt(6.0)) < 1e-16
