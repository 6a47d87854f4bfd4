import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from partlab import counting
from partlab.partitions import Partition, is_graphical_hh


@pytest.fixture(scope="module")
def table():
    return counting.build_table(60)


class TestTable:
    def test_restricted_examples(self, table):
        assert table.counts[5, 5] == 7
        assert table.counts[4, 2] == 3
        assert table.counts[0, 0] == 1
        assert table.counts[3, 0] == 0

    def test_totals(self, table):
        assert table.count(0) == 1
        assert table.count(1) == 1
        assert table.count(4) == 5
        assert table.count(26) == 2436

    def test_range_errors(self, table):
        with pytest.raises(ValueError):
            table.count(61)

    def test_pi_100(self):
        assert counting.build_table(100).count(100) == 190569292

    def test_matches_pentagonal_recurrence(self, table):
        oracle = counting.pentagonal_counts(60)
        for n in range(61):
            assert table.count(n) == oracle[n]


def _recurrence_table(max_n):
    """c(m, k) as lists, row by row from c(m, k) = c(m, k-1) + c(m-k, k):
    the Python-integer table the numpy one replaced, kept as its oracle."""
    table = [[0] * (max_n + 1) for _ in range(max_n + 1)]
    table[0] = [1] * (max_n + 1)
    for m in range(1, max_n + 1):
        row = table[m]
        for k in range(1, max_n + 1):
            row[k] = row[k - 1] + (table[m - k][k] if k <= m else 0)
    return table


class TestTableArray:
    def test_matches_recurrence_up_to_60(self):
        for max_n in range(61):
            table = counting.build_table(max_n)
            assert table.counts.tolist() == _recurrence_table(max_n)

    @pytest.mark.parametrize("max_n, dtype", [(405, np.int64), (406, object)])
    def test_matches_recurrence_at_int64_limit(self, max_n, dtype):
        table = counting.build_table(max_n)
        assert table.counts.dtype == dtype
        assert table.counts.tolist() == _recurrence_table(max_n)
        assert isinstance(table.count(max_n), int)

    def test_int64_limit(self):
        pi = counting.pentagonal_counts(counting._INT64_MAX_N + 1)
        assert pi[-2] < 2**63 <= pi[-1]

    def test_read_only(self, table):
        with pytest.raises(ValueError):
            table.counts[3, 3] = 0


class TestEnumeration:
    def test_order_at_4(self):
        got = [p.parts for p in oracles.enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_zero_yields_empty(self):
        assert list(oracles.enumerate_partitions(0)) == [Partition()]

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            list(oracles.enumerate_partitions(-1))

    def test_stream_length_is_pi(self, table):
        for n in range(31):
            assert sum(1 for _ in oracles.enumerate_partitions(n)) == table.count(n)

    def test_reverse_lex_order(self):
        for n in (7, 11):
            seq = [p.parts for p in oracles.enumerate_partitions(n)]
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert all(sum(p) == n for p in seq)


class TestRanking:
    def test_unrank_matches_enumeration(self, table):
        for n in (0, 1, 4, 9, 14):
            expected = list(oracles.enumerate_partitions(n))
            got = [counting.unrank(table, n, i) for i in range(len(expected))]
            assert got == expected

    def test_rank_inverts_unrank(self, table):
        for n in range(21):
            for idx in range(table.count(n)):
                lam = counting.unrank(table, n, idx)
                assert counting.rank(table, lam) == idx

    def test_unrank_bounds(self, table):
        with pytest.raises(ValueError, match="out of range"):
            counting.unrank(table, 4, 5)
        with pytest.raises(ValueError, match="out of range"):
            counting.unrank(table, 4, -1)

    def test_rank_accepts_bare_tuple(self, table):
        assert counting.rank(table, (4,)) == 0

    def test_rank_bare_parts_go_through_partition(self, table):
        assert counting.rank(table, (1, 3)) == counting.rank(table, (3, 1)) == 1
        for parts in ((0, 2), (2, -1), (2.5, 1.5)):
            with pytest.raises(ValueError, match="positive integers"):
                counting.rank(table, parts)

    def test_rank_is_enumeration_position(self, table):
        for n in range(17):
            for idx, lam in enumerate(oracles.enumerate_partitions(n)):
                assert counting.rank(table, lam) == idx

    def test_rank_range_error(self):
        with pytest.raises(ValueError, match="outside table range"):
            counting.rank(counting.build_table(5), (4, 2))

    @pytest.mark.parametrize("n", [0, 1, 12, 20])
    def test_unrank_pairs_steps_every_index_at_once(self, table, n):
        # indices in reverse, so row r holds the partition r from the end
        expected = [lam.parts for lam in oracles.enumerate_partitions(n)][::-1]
        row, part = counting.unrank_pairs(table, n, np.arange(len(expected))[::-1])
        assert [tuple(part[row == r]) for r in range(len(expected))] == expected

    def test_unrank_pairs_bounds(self, table):
        with pytest.raises(ValueError, match="index 5 out of range for pi\\(4\\) = 5"):
            counting.unrank_pairs(table, 4, [0, 5, 1])

    def test_non_integer_indices_refused(self, table):
        with pytest.raises(TypeError):
            counting.unrank(counting.build_table(10), 5, 2.7)
        for indices in ([0.5, 1.9], np.array([1.0]), np.array([1, 2.0], dtype=object)):
            with pytest.raises(TypeError):
                counting.unrank_pairs(table, 5, indices)
        # numpy integers, and Python integers past int64 in object arrays,
        # still unrank
        assert counting.unrank(table, 5, np.int64(2)).parts == (3, 2)
        big = counting.build_table(406)
        last = big.count(406) - 1
        assert last >= 2**63
        row, part = counting.unrank_pairs(big, 406, np.array([last, 0], dtype=object))
        assert part[row == 0].tolist() == [1] * 406
        assert part[row == 1].tolist() == [406]


class TestExactP:
    def test_pinned_values(self):
        assert counting.exact_p(1) == 0
        assert counting.exact_p(2) == Fraction(1, 2)
        assert counting.exact_p(4) == Fraction(2, 5)

    def test_empty_weight(self):
        assert counting.exact_p(0) == 1

    def test_hand_derived_p6(self):
        # partitions of 6: graphical are (2,2,1,1), (2,1,1,1,1),
        # (1,1,1,1,1,1), (3,1,1,1), (2,2,2) out of 11
        assert counting.exact_p(6) == Fraction(5, 11)

    def test_counts_exposed(self):
        assert counting.graphical_count(4) == (2, 5)
        hits, total = counting.graphical_count(8)
        assert total == 22
        assert Fraction(hits, total) == counting.exact_p(8)

    def test_matches_enumeration_tally(self):
        # the reference oracle: list every partition, decide each one by
        # both graphicality tests, and tally
        for n in range(41):
            hits = total = 0
            for lam in oracles.enumerate_partitions(n):
                total += 1
                ok = oracles.is_graphical_eg(lam)
                assert ok == is_graphical_hh(lam), lam
                hits += ok
            assert counting.graphical_count(n) == (hits, total), n

    def test_matches_recursion(self):
        # the frontier DP against the memoised recursion it replaced, odd
        # n included
        for n in range(71):
            assert counting.graphical_count(n) == (
                oracles.durfee_graphical_hits(n),
                counting.pentagonal_counts(n)[n]), n

    def test_pinned_counts_beyond_tally(self):
        for n, hits in ((42, 19956), (44, 28179), (46, 39467), (60, 357635),
                        (80, 5777292), (100, 69065657)):
            assert counting.graphical_count(n) == (
                hits, counting.pentagonal_counts(n)[n])

    def test_memory_bounded_by_budget(self):
        # the widest level at n = 100 holds 244,425 states; each state
        # holds at most 20 int64 words at once (key and count, the next
        # level's chunk results and their final merge), and a chunk of
        # children at most _EXPAND_BYTES
        bound = counting._EXPAND_BYTES + 250_000 * 20 * 8
        tracemalloc.start()
        try:
            counting.graphical_count(100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_cap(self):
        # one fixed limit, checked before the pentagonal counts or the DP
        for n in (201, 300, 10**6):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=(
                        f"^n = {n} above 200, the largest n whose Durfee-square "
                        "count finishes within a minute$")):
                    counting.exact_p(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10**6, n


def _dominates_bruteforce(a, b):
    # plain double loop over padded prefixes, kept deliberately naive
    a = list(a.parts) if hasattr(a, "parts") else list(a)
    b = list(b.parts) if hasattr(b, "parts") else list(b)
    width = max(len(a), len(b))
    a += [0] * (width - len(a))
    b += [0] * (width - len(b))
    for i in range(width):
        if sum(a[: i + 1]) > sum(b[: i + 1]):
            return False
    return True


def _comparable_by_exhaustion(n):
    """One-sided comparable pairs of partitions of n, by testing every
    ordered pair on its padded prefix sums; the pair DP's oracle."""
    if n == 0:
        return 1
    plist = [lam.parts for lam in oracles.enumerate_partitions(n)]
    width = max(len(p) for p in plist)
    mat = np.zeros((len(plist), width), dtype=np.int64)
    for i, parts in enumerate(plist):
        mat[i, : len(parts)] = parts
    pref = mat.cumsum(axis=1)
    # row i is dominated by row j iff pref[i] <= pref[j] entrywise
    return sum(int((pref >= pref[i]).all(axis=1).sum()) for i in range(len(plist)))


class TestExactR:
    def test_pinned_values(self):
        assert counting.exact_r(1) == 1
        assert counting.exact_r(2) == Fraction(3, 4)
        assert counting.exact_r(3) == Fraction(2, 3)

    def test_empty_weight(self):
        assert counting.exact_r(0) == 1

    def test_chain_at_4(self):
        # pairs at n=4: dominance restricted to the 5 partitions of 4,
        # which form a chain, so comparable ordered pairs are
        # 5 + 2*C(5,2) = 15 of 25
        assert counting.exact_r(4) == Fraction(15, 25)

    def test_two_sided_identity(self):
        # two-sided = 2*one_sided - 1/pi(n) as probabilities
        for n in (2, 3, 5, 8):
            one = counting.exact_r(n)
            two = counting.exact_r(n, two_sided=True)
            pi_n = counting.build_table(n).count(n)
            assert two == 2 * one - Fraction(1, pi_n)
        assert counting.exact_r(2, two_sided=True) == 1

    def test_matches_bruteforce(self):
        for n in range(9):
            plist = list(oracles.enumerate_partitions(n))
            expect = sum(
                _dominates_bruteforce(a, b) for a in plist for b in plist
            )
            pairs, count = counting.comparable_count(n)
            assert (pairs, count) == (expect, len(plist))
            # and the scalar dominance reference agrees pairwise
            recheck = sum(oracles.dominates(a, b) for a in plist for b in plist)
            assert recheck == expect

    def test_cap(self):
        # n = 31 needs no override; its count is the exhaustion oracle's
        assert counting.exact_r(31) == Fraction(16661211, 6842**2)
        with pytest.raises(ValueError, match="int64"):
            counting.exact_r(125)

    def test_pair_dp_matches_exhaustion(self):
        for n in range(31):
            one = _comparable_by_exhaustion(n)
            pi_n = counting.pentagonal_counts(n)[n]
            assert counting.comparable_count(n) == (one, pi_n), n
            assert counting.comparable_count(n, two_sided=True) == (
                2 * one - pi_n, pi_n), n

    def test_pinned_counts_beyond_exhaustion(self):
        # from an independent memoised recursion over (lam_k, mu_k,
        # Lambda_k, M_k - Lambda_k)
        for n, pairs in ((60, 290398410667), (100, 10240503131091466)):
            assert counting.comparable_count(n) == (
                pairs, counting.pentagonal_counts(n)[n])

    @pytest.mark.parametrize("n", [125, 200, 10**6])
    def test_int64_limit_refused_before_allocating(self, n):
        # pi(124)^2 < 2^63 <= pi(125)^2
        pi = counting.pentagonal_counts(125)
        assert pi[124] ** 2 < 2**63 <= pi[125] ** 2
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int64"):
                counting.comparable_count(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_pair_dp_memory_is_bounded(self):
        tracemalloc.start()
        try:
            counting.comparable_count(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
