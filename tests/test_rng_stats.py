import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

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

    def test_substream_matches_direct_construction(self):
        root = RandomStream(7, 0)
        assert np.array_equal(
            root.substream(5).uniform(10), RandomStream(7, 5).uniform(10)
        )

    def test_uniform_open_interval(self):
        u = RandomStream(1, 1).uniform_open(10**5)
        assert u.min() > 0.0
        assert u.max() < 1.0
        scalar = RandomStream(1, 2).uniform_open()
        assert 0.0 < scalar < 1.0

    def test_exponential_moments(self):
        x = RandomStream(11, 0).exponential(2 * 10**5)
        n = len(x)
        assert abs(x.mean() - 1.0) < 5 / math.sqrt(n)
        # second moment of Exp(1) is 2, variance of x^2 is 20
        assert abs((x**2).mean() - 2.0) < 5 * math.sqrt(20 / n)
        assert x.min() > 0

    @pytest.mark.parametrize("size", [None, 7, (3, 5)])
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
