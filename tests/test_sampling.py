import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from partlab import counting, sampling
from partlab.partitions import Partition, PartitionBatch
from partlab.rng import RandomStream
from partlab.stats import C_SCALE, Z95


@pytest.fixture(scope="module")
def table():
    return counting.build_table(20)


def _rank_counts(table, n, partitions):
    counts = np.zeros(table.count(n), dtype=np.int64)
    for lam in partitions:
        counts[counting.rank(table, lam)] += 1
    return counts


class TestExactSampler:
    def test_weight_and_validity(self, table):
        rng = RandomStream(1, 0)
        for _ in range(200):
            lam = oracles.sample_exact_uniform(table, 12, rng)
            assert lam.weight == 12
            assert all(a >= b for a, b in zip(lam.parts, lam.parts[1:]))

    def test_n2_frequencies(self, table):
        rng = RandomStream(2, 0)
        draws = [oracles.sample_exact_uniform(table, 2, rng) for _ in range(4000)]
        ones = sum(1 for lam in draws if lam.parts == (1, 1))
        # binomial(4000, 1/2): 5 sigma is about 158
        assert abs(ones - 2000) < 160

    def test_n0(self, table):
        lam = oracles.sample_exact_uniform(table, 0, RandomStream(3, 0))
        assert lam.parts == ()

    def test_deterministic(self, table):
        a = [oracles.sample_exact_uniform(table, 15, RandomStream(4, 0))
             for _ in range(50)]
        b = [oracles.sample_exact_uniform(table, 15, RandomStream(4, 0))
             for _ in range(50)]
        assert a == b


class TestBoltzmannSampler:
    def test_q_value(self):
        assert abs(sampling.fristedt_q(100) - math.exp(-C_SCALE / 10.0)) < 1e-15
        with pytest.raises(ValueError):
            sampling.fristedt_q(0)

    def test_weights_exact(self):
        parts, attempts = sampling.sample_fristedt_batch(
            40, 30, RandomStream(5, 0)
        )
        assert len(parts) == 30
        assert all(lam.weight == 40 for lam in parts)
        assert attempts >= 30

    def test_pdc_weights_exact(self):
        parts, _ = sampling.sample_fristedt_batch(
            40, 30, RandomStream(6, 0), pdc=True
        )
        assert all(lam.weight == 40 for lam in parts)

    def test_pdc_needs_fewer_attempts(self):
        _, plain = sampling.sample_fristedt_batch(400, 40, RandomStream(7, 0))
        _, pdc = sampling.sample_fristedt_batch(
            400, 40, RandomStream(7, 1), pdc=True
        )
        assert pdc < plain

    def test_small_weights(self):
        one, _ = sampling.sample_fristedt_batch(1, 5, RandomStream(8, 0))
        assert all(lam.parts == (1,) for lam in one)
        two, _ = sampling.sample_fristedt_batch(2, 20, RandomStream(8, 1), pdc=True)
        assert all(lam.weight == 2 for lam in two)
        assert {lam.parts for lam in two} == {(2,), (1, 1)}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sampling.sample_fristedt_batch(0, 1, RandomStream(9, 0))
        with pytest.raises(ValueError):
            sampling.sample_fristedt_batch(5, -1, RandomStream(9, 0))

    def test_rejection_limit(self):
        with pytest.raises(sampling.RejectionLimitError) as info:
            sampling.sample_fristedt_batch(30, 1, RandomStream(0, 0), max_rejections=0)
        assert info.value.n == 30
        assert info.value.rejections == 1

    def test_uniform_at_n12_plain(self, table):
        parts, _ = sampling.sample_fristedt_batch(12, 8000, RandomStream(19, 0))
        counts = _rank_counts(table, 12, parts)
        assert sps.chisquare(counts).pvalue > 0.001

    def test_uniform_at_n12_pdc(self, table):
        parts, _ = sampling.sample_fristedt_batch(
            12, 8000, RandomStream(20, 0), pdc=True
        )
        counts = _rank_counts(table, 12, parts)
        assert sps.chisquare(counts).pvalue > 0.001

    def test_uniform_at_n20_pdc(self, table):
        # K = 11 < 20, so the tail rounds draw the parts above the head
        assert sampling._head_size(20) == 11
        parts, _ = sampling.sample_fristedt_batch(
            20, 20 * table.count(20), RandomStream(22, 0), pdc=True
        )
        counts = _rank_counts(table, 20, parts)
        assert sps.chisquare(counts).pvalue > 0.001

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pdc_uniform_exhaustively_small_n(self, table, n):
        # n = 1 clips the residual block to {1} (K = 1); at n = 2 the
        # dense head is empty and parts 1 and 2 both come from the residual
        draws = 2000 * table.count(n)
        batch, _ = sampling.sample_fristedt_batch(
            n, draws, RandomStream(37, n), pdc=True)
        counts = np.bincount(counting.rank_batch(table, batch),
                             minlength=table.count(n))
        assert counts.sum() == draws
        if n > 1:
            assert sps.chisquare(counts).pvalue > 0.001

    def test_pdc_attempts_match_the_exact_acceptance_rate(self):
        # P(accept) = P(N = n) / max_r P(W_12 = r), with P(N = n) =
        # pi(n) q^n prod_{k<=n} (1 - q^k) and P(W_12 = r) =
        # (1 - q)(1 - q^2)(floor(r/2) + 1) q^r; attempts is a sum of
        # count geometric variables
        n, count = 1000, 2000
        q = sampling.fristedt_q(n)
        log_peak = max(math.log(r // 2 + 1) + r * math.log(q) for r in range(n + 1))
        rate = math.exp(math.log(counting.pentagonal_counts(n)[n]) + n * math.log(q)
                        + sum(math.log1p(-q**k) for k in range(3, n + 1)) - log_peak)
        _, attempts = sampling.sample_fristedt_batch(
            n, count, RandomStream(38, 0), pdc=True)
        se = math.sqrt((1 - rate) / count) / rate
        assert abs(attempts / count - 1 / rate) <= 4 * se

    @pytest.mark.parametrize("pdc", [False, True])
    def test_largest_part_above_head_law(self, pdc):
        n, draws = 200, 4000
        K = sampling._head_size(n)
        big = counting.build_table(n)
        p = 1 - int(big.counts[n, K]) / big.count(n)
        batch, _ = sampling.sample_fristedt_batch(
            n, draws, RandomStream(23, int(pdc)), pdc=pdc
        )
        freq = float((batch.leading_parts(1)[:, 0] > K).mean())
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / draws)

    def test_attempts_end_at_last_acceptance(self):
        # one accepted draw after a - 1 rejections: a budget of a - 1
        # rejections suffices and a - 2 fails at the (a - 1)-th
        _, a = sampling.sample_fristedt_batch(30, 1, RandomStream(24, 0))
        assert a > 2
        again, b = sampling.sample_fristedt_batch(
            30, 1, RandomStream(24, 0), max_rejections=a - 1)
        assert b == a and len(again) == 1
        with pytest.raises(sampling.RejectionLimitError) as info:
            sampling.sample_fristedt_batch(
                30, 1, RandomStream(24, 0), max_rejections=a - 2)
        assert info.value.rejections == a - 1

    def test_size_limit_before_allocating(self):
        too_big = sampling.BOLTZMANN_MAX_N + 1
        tracemalloc.start()
        try:
            for method in ("fristedt", "fristedt-pdc"):
                with pytest.raises(ValueError, match="Boltzmann sampler limit"):
                    sampling.sample_uniform_batch(
                        too_big, 1, RandomStream(25, 0), method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_one_block_of_draws_alive_at_a_time(self):
        # several blocks of _BATCH x (K - 2) doubles; holding the last
        # block while the next is drawn would peak near twice the block
        n = 10**5
        sampling._boltzmann_plan(n)
        block = sampling._BATCH * (sampling._head_size(n) - 2) * 8
        tracemalloc.start()
        try:
            _, attempts = sampling.sample_fristedt_batch(
                n, 100, RandomStream(5, 0), pdc=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert attempts > 2 * sampling._BATCH
        assert peak < 1.6 * block

    @pytest.mark.parametrize("n", [40, 10**4, 10**6])
    def test_plan_tail_is_the_full_prefix(self, n):
        # the full array only repeats its last value past the cut, so
        # every searchsorted decision is the same
        q, K, neg_prefix = sampling._boltzmann_plan(n)
        ks = np.arange(K + 1, n + 1, dtype=np.float64)
        full = -np.cumsum(np.log1p(-np.exp(ks * math.log(q))))
        cut = len(neg_prefix)
        assert np.array_equal(full[:cut], neg_prefix)
        assert np.all(full[cut:] == neg_prefix[-1])
        assert cut == n - K or cut < 30 * math.sqrt(n)

    def test_batch_form_round_trip(self):
        batch, _ = sampling.sample_fristedt_batch(
            300, 40, RandomStream(26, 0), pdc=True)
        parts = list(batch)
        assert PartitionBatch.from_partitions(300, parts) == batch
        assert list(batch[1::3]) == parts[1::3]
        assert batch[-1] == parts[-1]
        assert batch != batch[1:]

    def test_single_draw_wrapper(self):
        lam = sampling.sample_fristedt_batch(25, 1, RandomStream(10, 0))[0][0]
        assert lam.weight == 25

    def test_deterministic(self):
        a, att_a = sampling.sample_fristedt_batch(60, 25, RandomStream(11, 0))
        b, att_b = sampling.sample_fristedt_batch(60, 25, RandomStream(11, 0))
        assert a == b
        assert att_a == att_b


class TestPinnedPlainOutput:
    """Seeded plain-rejection output.  First pinned before the PDC block
    grew to parts {1, 2}, which touched only ``pdc=True``; re-pinned at
    the same key when the streams moved from Philox to PCG64DXSM."""

    def test_plain_fristedt_batch(self):
        batch, attempts = sampling.sample_fristedt_batch(
            1000, 50, RandomStream(20261019, 3), pdc=False)
        assert attempts == 27036
        digest = hashlib.sha256()
        for lam in batch:
            digest.update((lam.to_text() + "\n").encode())
        assert digest.hexdigest() == (
            "473618ec53b3be2994d0d96baec84df93683d07dcd1d4d7c7c876a5b9148fae3")


@functools.lru_cache(maxsize=None)
def _drawn(method, n):
    return sampling.sample_uniform_batch(n, 40, RandomStream(39, n), method=method)[0]


BATCH_SOURCES = [("exact", 0), ("exact", 1), ("exact", 30), ("fristedt", 1000),
                 ("fristedt-pdc", 1000)]


class TestPartitionBatch:
    @pytest.mark.parametrize("rows", [slice(None), slice(1, None, 3),
                                      slice(None, None, -1)])
    @pytest.mark.parametrize("method, n", BATCH_SOURCES)
    def test_triples_sorted_positive_and_of_weight_n(self, method, n, rows):
        # the constructor trusts this order, so every producer must keep it
        whole = _drawn(method, n)
        batch, want = whole[rows], list(whole)[rows]
        assert len(batch) == len(want) == len(range(40)[rows])
        assert np.all(np.diff(batch.row * (n + 1) + batch.part) > 0)
        assert np.all((batch.row >= 0) & (batch.row < len(batch)))
        assert np.all((batch.part >= 1) & (batch.mult >= 1))
        weight = np.bincount(batch.row, weights=batch.part * batch.mult,
                             minlength=len(batch))
        assert weight.tolist() == [n] * len(batch)
        assert list(batch) == want

    @pytest.mark.parametrize("method, n", BATCH_SOURCES)
    def test_leading_parts_are_zero_padded(self, method, n):
        batch = _drawn(method, n)
        parts = [lam.parts for lam in batch]
        longest = max(map(len, parts))
        for count in (1, 10, math.isqrt(n), longest + 3):
            want = [(p + (0,) * count)[:count] for p in parts]
            assert batch.leading_parts(count).tolist() == [list(w) for w in want]

    def test_graphical_matches_oracles_exhaustively(self):
        for n in range(31):
            parts = list(oracles.enumerate_partitions(n))
            batch = PartitionBatch.from_partitions(n, parts)
            assert list(batch) == parts
            assert batch.graphical().tolist() == [oracles.is_graphical_eg(lam)
                                                  for lam in parts]

    def test_dominance_matches_oracle_exhaustively(self):
        for n in range(15):
            parts = list(oracles.enumerate_partitions(n))
            left = [lam for lam in parts for _ in parts]
            right = parts * len(parts)
            got = PartitionBatch.from_partitions(n, left).dominated_by(
                PartitionBatch.from_partitions(n, right))
            assert got.tolist() == [oracles.dominates(a, b)
                                    for a, b in zip(left, right)]

    @pytest.mark.parametrize("j", [1, 2])
    def test_tail_multiplicity_law(self, j):
        # E #{p > K : m_p >= j} = sum_{p > K} pi(n - jp) / pi(n) for a
        # uniform partition of n
        n, draws = 1000, 5000
        K = sampling._head_size(n)
        pi = counting.pentagonal_counts(n)
        exact = sum(pi[n - j * p] for p in range(K + 1, n // j + 1)) / pi[n]
        batch, _ = sampling.sample_fristedt_batch(
            n, draws, RandomStream(27, j), pdc=True)
        per_row = np.bincount(batch.row[(batch.part > K) & (batch.mult >= j)],
                              minlength=draws)
        se = per_row.std(ddof=1) / math.sqrt(draws)
        assert abs(per_row.mean() - exact) <= 4 * se


class TestBatchFrontend:
    def test_exact_attempts_equal_count(self):
        parts, attempts = sampling.sample_uniform_batch(10, 7, RandomStream(12, 0))
        assert attempts == 7
        assert all(lam.weight == 10 for lam in parts)

    def test_builds_table_when_missing(self):
        parts, _ = sampling.sample_uniform_batch(9, 3, RandomStream(13, 0))
        assert all(lam.weight == 9 for lam in parts)

    def test_method_dispatch(self):
        for method in ("fristedt", "fristedt-pdc"):
            parts, _ = sampling.sample_uniform_batch(
                15, 4, RandomStream(14, 0), method=method
            )
            assert all(lam.weight == 15 for lam in parts)

    def test_exact_table_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="table cap"):
            sampling.sample_uniform_batch(10**4, 1, RandomStream(15, 0))
        monkeypatch.setattr(sampling, "EXACT_TABLE_CAP", 8)
        with pytest.raises(ValueError, match="table cap 8"):
            sampling.sample_uniform_batch(10, 1, RandomStream(15, 0))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown sampling method"):
            sampling.sample_uniform_batch(5, 1, RandomStream(15, 0), method="bogus")

    @pytest.mark.parametrize("method", ["exact", "fristedt", "fristedt-pdc"])
    def test_negative_count_refused_before_the_table(self, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("table built")

        monkeypatch.setattr(sampling, "build_table", refuse)
        rng = RandomStream(15, 1)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sampling.sample_uniform_batch(10, -1, rng, method=method)
        assert oracles.words_drawn(rng) == 0

    @pytest.mark.parametrize("method", ["fristedt", "fristedt-pdc"])
    def test_boltzmann_methods_return_the_sampler_batch(self, method):
        batch, attempts = sampling.sample_uniform_batch(
            300, 50, RandomStream(28, 0), method=method)
        want, want_attempts = sampling.sample_fristedt_batch(
            300, 50, RandomStream(28, 0), pdc=method == "fristedt-pdc")
        assert isinstance(batch, PartitionBatch)
        assert batch == want
        assert attempts == want_attempts

    def test_exact_method_packs_the_unranked_draws(self):
        # K = 13 < 30, so the packed batch has parts above K too
        n, count = 30, 60
        batch, attempts = sampling.sample_uniform_batch(n, count, RandomStream(29, 0))
        table, twin = counting.build_table(n), RandomStream(29, 0)
        draws = [oracles.sample_exact_uniform(table, n, twin) for _ in range(count)]
        assert batch == PartitionBatch.from_partitions(n, draws)
        assert (batch.part > sampling._head_size(n)).any()
        assert attempts == count

    @pytest.mark.parametrize("n, count", [(0, 5), (1, 5), (405, 30), (406, 30),
                                          (2000, 8)])
    def test_exact_batch_equals_scalar_sequence(self, n, count):
        # 405/406 is where the table turns from int64 to Python integers
        rng, twin = RandomStream(30, n), RandomStream(30, n)
        batch, _ = sampling.sample_uniform_batch(n, count, rng)
        table = counting.build_table(n)
        assert list(batch) == [oracles.sample_exact_uniform(table, n, twin)
                               for _ in range(count)]
        assert rng.uniform(1)[0] == twin.uniform(1)[0]

    def test_exact_method_builds_no_partition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Partition built")

        monkeypatch.setattr(Partition, "__init__", refuse)
        monkeypatch.setattr(Partition, "from_sorted", classmethod(refuse))
        batch, _ = sampling.sample_uniform_batch(30, 50, RandomStream(32, 0))
        sampling.estimate_p_mc(40, 200, RandomStream(32, 1))
        sampling.estimate_r_mc(24, 200, RandomStream(32, 2))
        with pytest.raises(AssertionError, match="Partition built"):
            batch[0]


class TestBatchRanks:
    @pytest.mark.parametrize("n", [1, 8, 30, 406])
    def test_exact_draws_rank_to_their_indices(self, n):
        batch, _ = sampling.sample_uniform_batch(n, 300, RandomStream(33, n))
        table = counting.build_table(n)
        want = RandomStream(33, n).integers_below(table.count(n), 300)
        assert counting.rank_batch(table, batch).tolist() == want.tolist()

    @pytest.mark.parametrize("method", ["fristedt", "fristedt-pdc"])
    def test_rows_rank_to_their_enumeration_position(self, method):
        # K = 13 < 30, so the rows have tail parts too
        batch, _ = sampling.sample_uniform_batch(30, 200, RandomStream(34, 0),
                                                 method=method)
        position = {lam: i for i, lam in enumerate(oracles.enumerate_partitions(30))}
        table = counting.build_table(40)
        assert counting.rank_batch(table, batch).tolist() == [position[lam] for lam in batch]

    def test_empty_partition(self, table):
        batch, _ = sampling.sample_uniform_batch(0, 3, RandomStream(35, 0))
        assert counting.rank_batch(table, batch).tolist() == [0, 0, 0]


class TestEstimators:
    def test_p_close_to_exact(self):
        est = sampling.estimate_p_mc(20, 4000, RandomStream(17, 0))
        exact = float(counting.exact_p(20))
        assert abs(est.estimate - exact) <= 4 * est.ci_halfwidth / Z95
        assert est.event == "p-graphical"
        assert est.n == 20
        assert est.hits + 0 <= est.trials == 4000

    def test_r_close_to_exact(self):
        est = sampling.estimate_r_mc(8, 3000, RandomStream(18, 0))
        exact = float(counting.exact_r(8))
        assert abs(est.estimate - exact) <= 4 * est.ci_halfwidth / Z95
        assert est.event == "r-dominance"

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sampling.estimate_p_mc(10, 0, RandomStream(16, 0))
        with pytest.raises(ValueError):
            sampling.estimate_r_mc(10, 0, RandomStream(16, 0))

    def test_deterministic(self):
        a = sampling.estimate_p_mc(14, 1500, RandomStream(21, 0), method="fristedt")
        b = sampling.estimate_p_mc(14, 1500, RandomStream(21, 0), method="fristedt")
        assert a == b

    @pytest.mark.parametrize("estimator", ["estimate_p_mc", "estimate_r_mc"])
    @pytest.mark.parametrize("n, trials, method", [
        (10**3, 1000, "fristedt-pdc"), (40, 1500, "exact")])
    def test_row_blocks_leave_hits_unchanged(self, monkeypatch, estimator, n,
                                             trials, method):
        def run():
            return getattr(sampling, estimator)(
                n, trials, RandomStream(26, 0), method=method)

        whole = run()
        # at most 10^4 // K rows per block: many blocks and a short last one
        monkeypatch.setattr(sampling, "MC_BLOCK_ELEMENTS", 10**4)
        assert run() == whole

    @pytest.mark.parametrize("estimator, trials", [
        ("estimate_p_mc", 2000), ("estimate_r_mc", 1000)])
    def test_row_blocks_bound_the_test_temporaries(self, monkeypatch, estimator,
                                                   trials):
        def peak():
            tracemalloc.start()
            try:
                getattr(sampling, estimator)(10**3, trials, RandomStream(27, 0),
                                             method="fristedt-pdc")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = peak()
        monkeypatch.setattr(sampling, "MC_BLOCK_ELEMENTS", 10**4)
        assert peak() < 0.75 * whole
