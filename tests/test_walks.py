import dataclasses
import itertools
import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import oracles
from partlab import gaussian, selfcheck, stats, walks
from partlab.rng import RandomStream
from partlab.stats import C_SCALE, MC_BLOCK_ELEMENTS, PATH_BLOCK_ELEMENTS, Z95, kahan_cumsum
from partlab.walks import WalkPath


def _path_from_increments(x, xp):
    x = np.asarray(x, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    j = np.arange(1, len(x) + 1, dtype=np.float64)
    s, sp = np.cumsum(x), np.cumsum(xp)
    return WalkPath(x=x, x_prime=xp, s=s, s_prime=sp, r=s - j, r_prime=sp - j)


class TestGenWalk:
    def test_shapes_and_identities(self):
        w = walks.gen_walk(20, RandomStream(1, 0))
        assert w.length == 20
        j = np.arange(1, 21)
        assert np.allclose(w.s, np.cumsum(w.x))
        assert np.allclose(w.s_prime, np.cumsum(w.x_prime))
        assert np.allclose(w.r, w.s - j)
        assert np.allclose(w.r_prime, w.s_prime - j)
        assert w.x.min() > 0 and w.x_prime.min() > 0

    def test_deterministic_and_draw_order(self):
        a = walks.gen_walk(10, RandomStream(2, 0))
        b = walks.gen_walk(10, RandomStream(2, 0))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.x_prime, b.x_prime)
        # X block first, then X': matches two plain exponential draws
        rng = RandomStream(2, 0)
        assert np.array_equal(a.x, rng.exponential(10))
        assert np.array_equal(a.x_prime, rng.exponential(10))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            walks.gen_walk(0, RandomStream(3, 0))


class TestFloorPower:
    def test_boundary_cases(self):
        assert walks.floor_power(10**4, 0.25) == 10
        assert walks.floor_power(10**4, 0.24) == 9
        assert walks.floor_power(1000, 1.0 / 3.0) == 10
        assert walks.floor_power(8, 1.0 / 3.0) == 2
        assert walks.floor_power(1, 0.2) == 1

    def test_agrees_with_exact_arithmetic(self):
        for n in (2, 7, 10, 99, 1024, 59049):
            for gamma in (0.1, 0.2, 1.0 / 3.0, 0.49):
                out = walks.floor_power(n, gamma)
                # out <= n^gamma < out+1, checked in exact integer form:
                # out^(1/gamma) <= n is equivalent but fractional, so
                # compare via logs with generous slack on the open side
                assert gamma * math.log(n) >= math.log(out) - 1e-9
                assert gamma * math.log(n) < math.log(out + 1) + 1e-9

    def test_invalid(self):
        with pytest.raises(ValueError):
            walks.floor_power(0, 0.2)

    def test_huge_n_in_log_space(self):
        assert walks.floor_power(10**30, 0.24) == 15848931
        out = walks.floor_power(10**400, 0.24)
        assert abs(math.log10(out) - 96.0) < 1e-12
        with pytest.raises(ValueError, match="float range"):
            walks.floor_power(10**5000, 0.24)


class TestSurrogateValues:
    def test_unit_first_sum_at_n_1e4(self):
        # gamma small enough that floor(n**gamma) = 1
        w = _path_from_increments([1.0], [1.0])
        rc = oracles.surrogate_rows_cols(10**4, 0.05, w)
        assert rc.rows[0] == 340
        assert rc.cols[0] == 340

    def test_zero_at_scale(self):
        scale = math.sqrt(10**4) / C_SCALE
        w = _path_from_increments([scale], [scale])
        rc = oracles.surrogate_rows_cols(10**4, 0.05, w)
        assert rc.rows[0] == 0

    def test_row_values_non_increasing_in_s(self):
        w = walks.gen_walk(9, RandomStream(4, 0))
        rc = oracles.surrogate_rows_cols(10**4, 0.24, w)
        assert len(rc.rows) == 9
        assert all(a >= b for a, b in zip(rc.rows, rc.rows[1:]))
        assert rc.rows.dtype == np.int64

    def test_values_can_go_nonpositive(self):
        big = math.sqrt(100) / C_SCALE * 100.0
        w = _path_from_increments([big], [big])
        rc = oracles.surrogate_rows_cols(100, 0.05, w)
        assert rc.rows[0] <= 0

    def test_gamma_range_enforced(self):
        w = walks.gen_walk(10, RandomStream(5, 0))
        for gamma in (0.0, 0.25, 0.3, -0.1):
            with pytest.raises(ValueError, match="gamma"):
                oracles.surrogate_rows_cols(10**4, gamma, w)

    def test_short_walk_rejected(self):
        w = walks.gen_walk(3, RandomStream(6, 0))
        with pytest.raises(ValueError, match="shorter"):
            oracles.surrogate_rows_cols(10**4, 0.24, w)


class TestEvents:
    def test_eg_matches_naive_recomputation(self):
        n, gamma = 10**4, 0.24
        scale = math.sqrt(n) / C_SCALE
        rng = RandomStream(7, 0)
        for _ in range(200):
            w = walks.gen_walk(9, rng)
            got = oracles.event_eg_surrogate(n, gamma, w)
            rows = [math.ceil(scale * (math.log(scale) - math.log(s))) for s in w.s]
            cols = [
                math.ceil(scale * (math.log(scale) - math.log(s)))
                for s in w.s_prime
            ]
            want = all(
                sum(rows[: i + 1]) >= sum(cols[: i + 1]) + (i + 1)
                for i in range(9)
            )
            assert got == want

    def test_log_event_trivial_thresholds(self):
        w = walks.gen_walk(9, RandomStream(8, 0))
        assert oracles.event_log(10**4, 0.24, w, threshold=-math.inf)
        assert not oracles.event_log(10**4, 0.24, w, threshold=math.inf)

    def test_log_event_identical_walks(self):
        x = RandomStream(9, 0).exponential(9)
        w = _path_from_increments(x, x)
        # all log ratios are exactly zero
        assert oracles.event_log(10**4, 0.24, w, threshold=0.0)
        assert oracles.event_log(10**4, 0.24, w, threshold=-1.0)

    def test_min_weighted_stat_identities(self):
        x = RandomStream(10, 0).exponential(12)
        w = _path_from_increments(x, x)
        assert oracles.min_weighted_stat(w, 12) == 0.0
        w2 = walks.gen_walk(12, RandomStream(11, 0))
        single = oracles.min_weighted_stat(w2, 1)
        assert abs(single - float(w2.x_prime[0] - w2.x[0])) < 1e-12

    def test_min_weighted_stat_validation(self):
        w = walks.gen_walk(5, RandomStream(12, 0))
        with pytest.raises(ValueError):
            oracles.min_weighted_stat(w, 6)
        with pytest.raises(ValueError):
            oracles.min_weighted_stat(w, 0)

    def test_weighted_increments_centered(self):
        # E sum_{j<=l} (R'_j - R_j)/j = 0 for every l, by symmetry
        trials, length = 20000, 8
        rng = RandomStream(13, 0)
        x = rng.exponential((trials, length))
        xp = rng.exponential((trials, length))
        jj = np.arange(1.0, length + 1.0)
        prefix = np.cumsum((np.cumsum(xp, axis=1) - np.cumsum(x, axis=1)) / jj, axis=1)
        sd = prefix.std(axis=0) / math.sqrt(trials)
        assert np.all(np.abs(prefix.mean(axis=0)) < 5 * sd)

    def test_headline_threshold_formula(self):
        n = 10**4
        want = -5.0 * n ** (0.003297210314 / 2.0) * math.ceil(math.log(n) ** 1.5)
        got = walks.headline_threshold(n, 0.003297210314)
        assert abs(got - want) < 1e-9
        assert walks.headline_threshold(n, 0.01, multiplier=2.0) == pytest.approx(
            -2.0 * n**0.005 * 28.0
        )

    def test_log_cube(self):
        assert walks.log_cube(10**4) == math.ceil(math.log(10**4) ** 3)


class TestEstimateEvent:
    def test_kind_validation(self):
        rng = RandomStream(14, 0)
        with pytest.raises(ValueError, match="unknown event kind"):
            walks.estimate_event("nope", 100, 0.2, None, 10, rng)
        with pytest.raises(ValueError, match="delta"):
            walks.estimate_event("headline", 100, 0.2, None, 10, rng)
        with pytest.raises(ValueError, match="gamma"):
            walks.estimate_event("eg", 100, 0.3, None, 10, rng)
        with pytest.raises(ValueError, match="trials"):
            walks.estimate_event("eg", 100, 0.2, None, 0, rng)

    def test_float_overflow_refused_before_drawing(self):
        # 'eg' needs sqrt(n) and 'headline' n^(delta/2) as floats; 'log'
        # never takes n as a float, so it still runs at 10^309
        huge, rng = 10**309, RandomStream(14, 1)
        with pytest.raises(ValueError, match=r"sqrt\(n\) overflows a float"):
            walks.estimate_event("eg", huge, 0.002, None, 10, rng)
        with pytest.raises(ValueError, match=r"sqrt\(n\) overflows a float"):
            walks.check_containment(huge, 0.002, 10, rng)
        for n, delta in ((10**4, 1e300), (huge, 0.01)):
            with pytest.raises(ValueError, match=r"n\^\(delta/2\) overflows a float"):
                walks.estimate_event("headline", n, 0.002, delta, 10, rng)
            with pytest.raises(ValueError, match=r"n\^\(delta/2\) overflows a float"):
                walks.headline_threshold(n, delta)
        assert rng.uniform(1)[0] == RandomStream(14, 1).uniform(1)[0]
        est = walks.estimate_event("log", huge, 0.002, None, 10, RandomStream(14, 2))
        assert est.n == huge and est.trials == 10

    def test_matches_per_path_functions(self):
        # lengths 5, 1 and 2 fill step-major blocks, and so do 83 steps,
        # which are not screened there; 758 steps in 100 paths keep the
        # path-major memory of the draw, and are screened on 27.  The hits at lengths 1 and 2
        # are pinned as well as replayed.
        for n, gamma, trials, seed, pinned in (
            (2000, 0.22, 600, (15, 3), None),
            (2, 0.1, 500, (1, 0), [203, 317, 281]),
            (20, 0.24, 500, (1, 0), [195, 277, 315]),
            (10**8, 0.24, 600, (15, 7), None),
            (10**12, 0.24, 100, (15, 4), None),
        ):
            got = [self._hits_and_replay(n, gamma, trials, seed, kind, kwargs)
                   for kind, kwargs in (("eg", {}),
                                        ("log", {"threshold": -0.5}),
                                        ("headline", {"multiplier": 0.1}))]
            assert pinned is None or got == pinned

    @staticmethod
    def _hits_and_replay(n, gamma, trials, seed, kind, kwargs):
        length = walks.floor_power(n, gamma)
        delta = 0.01 if kind == "headline" else None
        est = walks.estimate_event(
            kind, n, gamma, delta, trials, RandomStream(*seed), **kwargs
        )
        # replay the path-major draw order: each path's X, then its X'
        rng = RandomStream(*seed)
        hits = 0
        for _ in range(trials):
            w = walks.gen_walk(length, rng)
            if kind == "eg":
                hits += oracles.event_eg_surrogate(n, gamma, w)
            elif kind == "log":
                hits += oracles.event_log(n, gamma, w, **kwargs)
            else:
                cut = walks.headline_threshold(n, delta, **kwargs)
                hits += oracles.min_weighted_stat(w, length) >= cut
        assert est.hits == hits
        assert est.trials == trials
        return est.hits

    @pytest.mark.parametrize("kind, kwargs, hits", [
        ("eg", {}, 99),
        ("log", {"threshold": 0.0}, 99),
        ("log", {"threshold": -1.0}, 123),
        ("headline", {"multiplier": 0.01}, 146),
    ])
    def test_screened_paths_match_per_path_functions(self, kind, kwargs, hits):
        # 758 steps are screened on their first 27: in blocks of 172
        # paths, most are dropped there; once a headline block keeps
        # more than half, it and the later blocks are evaluated whole.  The hits are those
        # of the unscreened kernel as well as of the replay.
        got = self._hits_and_replay(10**12, 0.24, 500, (15, 5), kind, kwargs)
        assert got == hits

    def test_rows_that_could_leave_int64_are_refused_before_drawing(self):
        def admitted(n):
            try:
                walks._row_gap_bound(n, walks.floor_power(n, 0.01))
            except ValueError:
                return False
            return True

        # floor(n^0.01) = 2 from 10^34 to 10^35
        lo, hi = 10**34, 10**35
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        rng = RandomStream(1, 0)
        with pytest.raises(ValueError, match="could leave int64"):
            walks.estimate_event("eg", hi, 0.01, None, 4000, rng)
        with pytest.raises(ValueError, match="could leave int64"):
            walks.check_containment(hi, 0.01, 4000, rng)
        assert oracles.words_drawn(rng) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = walks.estimate_event("eg", lo, 0.01, None, 4000, RandomStream(1, 0))
            rep = walks.check_containment(lo, 0.01, 4000, RandomStream(1, 0))
        assert est.hits == rep.eg_hits == rep.log0_hits > 0
        assert rep.violations == 0

    def test_gap_sums_past_int64_are_summed_exactly(self):
        # at n = 10^34 the row values fit int64, but the gap sums of the
        # first path, whose X are all 1.1e-16 and X' all 36.8, pass 2^63
        # by step 3; the other paths are drawn at random
        n, length = 10**34, 4
        steps = np.arange(1, length + 1, dtype=np.float64)
        rng = RandomStream(15, 6)
        walks_drawn = [walks.gen_walk(length, rng) for _ in range(3)]
        s = np.array([1.1e-16 * steps] + [w.s for w in walks_drawn]).T
        sp = np.array([36.8 * steps] + [w.s_prime for w in walks_drawn]).T
        walks._row_gap_bound(n, length)  # admitted
        diffs = walks._row_values(n, s) - walks._row_values(n, sp)
        want = [all(g >= i for i, g in enumerate(itertools.accumulate(column), 1))
                for column in diffs.T.tolist()]
        assert sum(diffs[:, 0].tolist()[:3]) >= 2**63 and want[0]
        assert walks._eg_rows(n, s, sp).tolist() == want

    def test_deterministic(self):
        a = walks.estimate_event("eg", 500, 0.2, None, 300, RandomStream(16, 0))
        b = walks.estimate_event("eg", 500, 0.2, None, 300, RandomStream(16, 0))
        assert a == b

    def test_long_paths_stay_within_the_block_budget(self, monkeypatch):
        n, gamma = 10**25, 0.2
        assert walks.floor_power(n, gamma) == walks.WALK_MAX_LENGTH
        runs = [
            # 10^5 steps per path: 100 paths drawn at once would take
            # 160 MB per array; a block is one path of 1.6 MB
            partial(walks.estimate_event, "eg", n, gamma, None, 100, RandomStream(16, 1)),
            # many short paths fill step-major buffers; at 758 and 782
            # steps a block is 172 and 167 paths, just under 2 MB
            *(partial(walks.estimate_event, kind, 10**4, 0.24, 0.0066, 2 * 10**5,
                      RandomStream(16, 2)) for kind in ("eg", "log", "headline")),
            partial(walks.estimate_event, "log", 10**12, 0.24, None, 2000, RandomStream(16, 2)),
            partial(walks.ratio_tail_diagnostic, 10**4, 0.0066, 3000, RandomStream(16, 3)),
            # Gaussian-process blocks of 163 paths of 1600 steps
            partial(gaussian.persistence_prob, 1600, 0.0, 2500, RandomStream(16, 4)),
        ]
        # at most two blocks at once, being drawn or evaluated, each with
        # its temporaries: about 4 blocks' bytes were seen (log at n = 10^12)
        monkeypatch.setattr(stats, "_WORKERS", 2)
        peaks = []
        tracemalloc.start()
        try:
            for run in runs:
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 5 * 8 * PATH_BLOCK_ELEMENTS


def test_oracles_do_not_use_the_block_kernel(monkeypatch):
    # the replay tests compare the kernel with these oracles; an oracle
    # rewritten on the kernel would make them compare it with itself
    n, gamma = 10**12, 0.24
    w = walks.gen_walk(walks.floor_power(n, gamma), RandomStream(44, 0))

    def answers():
        return (oracles.event_eg_surrogate(n, gamma, w),
                oracles.event_log(n, gamma, w, threshold=-0.5),
                oracles.min_weighted_stat(w, w.length))

    want = answers()

    def refuse(*args, **kwargs):
        raise AssertionError("oracle called the block kernel")

    for name in ("_walk_blocks", "_cumsum_steps", "_eg_rows", "_prefix_min_at_least"):
        monkeypatch.setattr(walks, name, refuse)
    assert answers() == want


def _exact_min_at_least(column, cut):
    """Whether the least prefix sum of the floats in ``column``, summed
    as Fractions, is at least ``cut``."""
    return min(itertools.accumulate(map(Fraction, column))) >= cut


class TestCertifiedPrefixMin:
    """_prefix_min_at_least decides as exact Fraction sums do, where
    plain float prefix sums land on the wrong side of the cut."""

    @pytest.mark.parametrize("column, cut, compensated", [
        # plain float minimum 0.0, exact minimum 1000 * 2^-53
        ([1.0] + [2.0**-53] * 1000 + [-1.0], 1e-13, 1000 * 2.0**-53),
        # plain and compensated minima 0.0, exact minimum 1.0
        ([1.0, 1e100, 1.0, -1e100], 0.5, 0.0),
    ])
    def test_decides_as_exact_sums(self, column, cut, compensated):
        assert np.cumsum(column).min() == 0.0
        assert kahan_cumsum(column).min() == compensated
        assert _exact_min_at_least(column, cut)
        # one path, fewer paths than steps: the np.cumsum branch
        ok, = walks._prefix_min_at_least(np.array(column)[:, None], cut)
        assert ok.tolist() == [True]

    def test_several_cuts_on_one_block(self):
        # four paths of four steps take the one-add-per-step branch; the
        # third path's exact minimum lies on the second cut
        columns = [[1.0, 1e100, 1.0, -1e100], [1.0, 1e100, -1.0, -1e100],
                   [0.25, 0.5, -0.25, 0.25], [2.0, -1.5, 2.0**-53, 0.0]]
        cuts = (0.5, 0.25)
        got = walks._prefix_min_at_least(np.array(columns).T, *cuts)
        want = [[_exact_min_at_least(c, cut) for c in columns] for cut in cuts]
        assert want == [[True, False, False, True], [True, False, True, True]]
        assert [ok.tolist() for ok in got] == want

    def test_screen_decides_on_exact_sums(self):
        # this stream's first path of 758 steps has its least log-ratio
        # prefix sum in its first 27, where the float prefix sums lie one
        # ulp below it: at a cut between the two, a screen on plain float
        # sums would drop a path that meets the event
        w = walks.gen_walk(758, RandomStream(4, 0))
        terms = np.log(w.s_prime) - np.log(w.s)
        low = np.cumsum(terms[:27]).min()
        cut = float(np.nextafter(low, np.inf))
        assert abs(low - cut) <= 27 * 2.0**-52 * np.abs(terms[:27]).sum()
        assert _exact_min_at_least(terms.tolist(), cut)
        est = walks.estimate_event("log", 10**12, 0.24, None, 1, RandomStream(4, 0),
                                   threshold=cut)
        assert est.hits == 1


def _record_shapes(monkeypatch, seen, name, terms_at):
    """Append to ``seen`` the (steps, paths) shape of every call of
    walks.<name>, read from its argument ``terms_at``."""
    inner = getattr(walks, name)

    def record(*args):
        seen.append(args[terms_at].shape)
        return inner(*args)

    monkeypatch.setattr(walks, name, record)


@pytest.mark.parametrize("kind, threshold", [("eg", -1.0), ("log", 0.0), ("log", -1.0)])
def test_screen_drops_at_least_half_of_each_block(monkeypatch, kind, threshold):
    # 2000 paths of 758 steps are 11 blocks of 172 paths and one of 108;
    # each block's first 27 steps are screened, and only the paths that
    # pass, at most half of them, are summed over all 758 steps
    monkeypatch.setattr(stats, "_WORKERS", 1)
    seen = []
    _record_shapes(monkeypatch, seen, "_eg_rows", 1)
    _record_shapes(monkeypatch, seen, "_prefix_min_at_least", 0)
    walks.estimate_event(kind, 10**12, 0.24, None, 2000, RandomStream(42, 5),
                         threshold=threshold)
    screens, full = seen[0::2], seen[1::2]
    assert screens == [(27, 172)] * 11 + [(27, 108)]
    assert [steps for steps, _ in full] == [758] * 12
    assert all(2 * kept <= paths for (_, kept), (_, paths) in zip(full, screens))


@pytest.mark.parametrize("kind, n, delta, trials, shapes", [
    # the canonical headline event never fails at 10^12: the first block
    # keeps all its paths, and the later blocks are not screened
    ("headline", 10**12, 0.0066, 2000, [(27, 172)] + [(758, 172)] * 11 + [(758, 108)]),
    # 600 paths of 83 steps fill one step-major block, not screened
    ("log", 10**8, None, 600, [(83, 600)]),
])
def test_screen_skips_blocks_it_would_not_thin(monkeypatch, kind, n, delta, trials,
                                                shapes):
    monkeypatch.setattr(stats, "_WORKERS", 1)
    seen = []
    _record_shapes(monkeypatch, seen, "_prefix_min_at_least", 0)
    est = walks.estimate_event(kind, n, 0.24, delta, trials, RandomStream(42, 5))
    assert seen == shapes
    assert kind == "log" or est.hits == trials


def test_containment_is_not_screened(monkeypatch):
    # an eg verdict patched to hold on every path must show as a violation
    # on every path that fails log(0), however early it fails
    n, gamma, trials = 10**12, 0.24, 600
    want = walks.check_containment(n, gamma, trials, RandomStream(42, 6))
    monkeypatch.setattr(walks, "_eg_rows", lambda n, s, sp: np.ones(s.shape[1], dtype=bool))
    got = walks.check_containment(n, gamma, trials, RandomStream(42, 6))
    assert got.log0_hits == want.log0_hits < trials
    assert got.eg_hits == trials
    assert got.violations == trials - want.log0_hits


def _containment_replay(n, gamma, trials, rng):
    """check_containment as a loop over single paths and the per-path
    event functions."""
    length = walks.floor_power(n, gamma)
    eg = log0 = logneg1 = bad01 = 0
    for _ in range(trials):
        path = walks.gen_walk(length, rng)
        a = oracles.event_eg_surrogate(n, gamma, path)
        b = oracles.event_log(n, gamma, path, threshold=0.0)
        c = oracles.event_log(n, gamma, path, threshold=-1.0)
        eg, log0, logneg1 = eg + a, log0 + b, logneg1 + c
        bad01 += a and not b
    return walks.ContainmentReport(trials, eg, log0, logneg1, bad01)


class TestContainment:
    def test_chain_holds_on_sample(self):
        rep = walks.check_containment(1000, 0.2, 500, RandomStream(17, 0))
        assert rep.violations == 0
        assert rep.trials == 500
        assert rep.eg_hits <= rep.log0_hits <= rep.logneg1_hits

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            walks.check_containment(1000, 0.2, 0, RandomStream(18, 0))

    def test_gamma_validated(self):
        for gamma in (0.0, 0.25, 0.3, -0.1):
            with pytest.raises(ValueError, match="gamma"):
                walks.check_containment(1000, gamma, 10, RandomStream(18, 0))

    @pytest.mark.parametrize("n, gamma, trials, seed", [
        (10**4, 0.24, 1500, 31),
        (1000, 0.2, 1000, 32),
        (10**12, 0.24, 150, 33),
        (50, 0.1, 400, 34),
        (2, 0.1, 500, 37),
        (20, 0.24, 500, 38),
        (10**12, 0.24, 760, 39),
    ])
    def test_matches_per_path_replay(self, n, gamma, trials, seed):
        got = walks.check_containment(n, gamma, trials, RandomStream(seed, 10))
        assert got == _containment_replay(n, gamma, trials, RandomStream(seed, 10))

    def test_tallies_match_estimate_event(self):
        n, gamma, trials = 10**4, 0.24, 3000
        rep = walks.check_containment(n, gamma, trials, RandomStream(35, 2))
        hits = [
            walks.estimate_event(kind, n, gamma, None, trials, RandomStream(35, 2),
                                 threshold=threshold).hits
            for kind, threshold in (("eg", -1.0), ("log", 0.0), ("log", -1.0))
        ]
        assert [rep.eg_hits, rep.log0_hits, rep.logneg1_hits] == hits


class TestPinnedOutputs:
    """Seeded estimator outputs.  First pinned at the values of the
    path-major evaluation that preceded step-major blocks, and re-pinned
    at the same keys when the streams moved from Philox to PCG64DXSM.
    The replay tests share the estimators' draws; these show that no
    output shifted.  At n = 10^12 the 3000 paths fall into one
    step-major block of 2638 and one path-major block of 362."""

    DELTA = 0.006594420627

    @pytest.mark.parametrize("n, trials, seed, hits", [
        (10**4, 10000, 41, [3622, 3656, 4931, 7000]),
        (10**12, 3000, 42, [578, 578, 720, 1648]),
    ])
    def test_estimate_event_hits(self, n, trials, seed, hits):
        got = [
            walks.estimate_event(kind, n, 0.24, self.DELTA, trials, RandomStream(seed, 5),
                                 threshold=threshold, multiplier=0.1).hits
            for kind, threshold in (("eg", -1.0), ("log", 0.0), ("log", -1.0),
                                    ("headline", -1.0))
        ]
        assert got == hits

    def test_longest_paths(self):
        # 100 paths of WALK_MAX_LENGTH steps, pinned from compensated
        # prefix sums: there they differ most from plain ones (3.8e-11)
        got = [
            walks.estimate_event(kind, 10**25, 0.2, self.DELTA, 100, RandomStream(45, 5),
                                 threshold=-1.0, multiplier=0.1).hits
            for kind in ("log", "headline")
        ]
        assert got == [7, 31]

    @pytest.mark.parametrize("n, trials, seed, tallies", [
        (10**4, 10000, 41, (3603, 3645, 4870)),
        (10**12, 3000, 42, (577, 577, 774)),
    ])
    def test_check_containment(self, n, trials, seed, tallies):
        got = walks.check_containment(n, 0.24, trials, RandomStream(seed, 6))
        assert got == walks.ContainmentReport(trials, *tallies, 0)

    def test_ratio_tail_diagnostic(self):
        # 3000 paths of 782 steps: blocks of 2557 and 443 paths
        diag = walks.ratio_tail_diagnostic(10**4, self.DELTA, 3000, RandomStream(43, 0))
        assert diag.total == 190.41233333333332
        assert diag.ci_halfwidth == 8.347451685071755
        assert np.rint(diag.per_j[:12] * 3000).tolist() == [
            1057, 980, 928, 922, 895, 879, 837, 873, 867, 856, 865, 837]
        assert np.count_nonzero(diag.per_j) == 782


def _walk_results(n, gamma, trials):
    report = walks.check_containment(n, gamma, trials, RandomStream(20260816, 0))
    hits = [
        walks.estimate_event(kind, n, gamma, 0.01, trials, RandomStream(20260816, 0),
                             threshold=threshold, multiplier=0.1).hits
        for kind, threshold in (("eg", -1.0), ("log", 0.0), ("log", -1.0),
                                ("headline", -1.0))
    ]
    return report, hits


#: (paths per block, variates per block, variates per sub-draw): the
#: first is the default and the second 16 times as large (32 MB);
#: blocks of 7 paths hold fewer paths than the 9 or 758 steps and keep
#: the path-major layout; sub-draws of 50 variates take one or two paths.
_BLOCK_SIZES = [
    (4096, PATH_BLOCK_ELEMENTS, walks._SUBDRAW_ELEMENTS),
    (4096, MC_BLOCK_ELEMENTS, walks._SUBDRAW_ELEMENTS),
    (1000, PATH_BLOCK_ELEMENTS, 50),
    (7, PATH_BLOCK_ELEMENTS, walks._SUBDRAW_ELEMENTS),
    (4096, 10**4, walks._SUBDRAW_ELEMENTS),
]


def _set_block_size(monkeypatch, chunk, budget, subdraw):
    monkeypatch.setattr(walks, "_CHUNK", chunk)
    monkeypatch.setattr(walks, "PATH_BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(walks, "_SUBDRAW_ELEMENTS", subdraw)
    monkeypatch.setattr(gaussian, "PATH_BLOCK_ELEMENTS", budget)


def _results_by_size_and_workers(monkeypatch, run):
    """run() at every block size, on one worker and on two."""
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(stats, "_WORKERS", workers)
        for sizes in _BLOCK_SIZES:
            _set_block_size(monkeypatch, *sizes)
            results.append(run())
    return results


@pytest.mark.parametrize("n, gamma, trials", [
    (1000, 0.2, 5000), (10**12, 0.24, 60),
    (2, 0.1, 3000), (20, 0.24, 3000), (10**4, 0.24, 3000), (10**8, 0.24, 3000),
])
def test_walk_estimators_do_not_depend_on_block_size(monkeypatch, n, gamma, trials):
    results = _results_by_size_and_workers(
        monkeypatch, partial(_walk_results, n, gamma, trials))
    assert all(r == results[0] for r in results[1:])


def _ratio_tail_result():
    diag = walks.ratio_tail_diagnostic(100, 0.1, 3000, RandomStream(20260816, 0))
    return diag.total, diag.ci_halfwidth, diag.per_j.tolist()


def _persistence_result():
    return gaussian.persistence_prob(400, 0.0, 3000, RandomStream(20260816, 0))


@pytest.mark.parametrize("run", [_ratio_tail_result, _persistence_result])
def test_path_estimators_do_not_depend_on_block_size(monkeypatch, run):
    results = _results_by_size_and_workers(monkeypatch, run)
    assert all(r == results[0] for r in results[1:])


#: Each estimator on a fresh stream, with enough paths for several blocks.
_ESTIMATORS = {
    "eg": lambda rng: walks.estimate_event("eg", 10**4, 0.24, None, 20000, rng),
    "log": lambda rng: walks.estimate_event("log", 10**12, 0.24, None, 600, rng),
    "headline": lambda rng: walks.estimate_event("headline", 10**4, 0.24, 0.0066,
                                                 20000, rng, multiplier=0.1),
    "containment": lambda rng: walks.check_containment(10**4, 0.24, 20000, rng),
    "ratio-tail": lambda rng: walks.ratio_tail_diagnostic(
        100, 0.1, 3000, rng).per_j.tolist(),
    "persistence": lambda rng: gaussian.persistence_prob(1600, 0.0, 500, rng),
}


#: Each block estimator with ``trials`` paths, as (trials, rng) -> result.
_BY_TRIALS = {
    "eg": lambda trials, rng: walks.estimate_event("eg", 10**4, 0.24, None, trials, rng),
    "log": lambda trials, rng: walks.estimate_event("log", 10**4, 0.24, None, trials, rng),
    "headline": lambda trials, rng: walks.estimate_event("headline", 10**4, 0.24, 0.0066,
                                                         trials, rng),
    "containment": lambda trials, rng: walks.check_containment(10**4, 0.24, trials, rng),
    "ratio-tail": lambda trials, rng: walks.ratio_tail_diagnostic(100, 0.1, trials, rng),
    "persistence": lambda trials, rng: gaussian.persistence_prob(100, 0.0, trials, rng),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("name", list(_BY_TRIALS))
def test_block_estimators_refuse_no_trials_before_drawing(name, trials):
    rng = RandomStream(20261020, 0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        _BY_TRIALS[name](trials, rng)
    assert oracles.words_drawn(rng) == 0


@pytest.mark.parametrize("name", list(_ESTIMATORS))
def test_stream_after_an_estimator_does_not_depend_on_workers(monkeypatch, name):
    # a draw taken after the estimator is the one after drawing every
    # block in turn; walk paths take two words (doubles) per step
    after = []
    for workers in (1, 2):
        monkeypatch.setattr(stats, "_WORKERS", workers)
        rng = RandomStream(20261019, 4)
        rng.integers_below(2**32, 1)  # leaves a half word, which must survive
        start = oracles.words_drawn(rng)
        result = _ESTIMATORS[name](rng)
        after.append((result, oracles.words_drawn(rng) - start,
                      rng.integers_below(2**40, 3).tolist(), rng.uniform(3).tolist()))
    assert after[0] == after[1]
    words = {"eg": 2 * 9 * 20000, "log": 2 * 758 * 600, "headline": 2 * 9 * 20000,
             "containment": 2 * 9 * 20000, "ratio-tail": 2 * walks.log_cube(100) * 3000}
    if name in words:
        assert after[0][1] == words[name]


@pytest.mark.parametrize("name", list(_ESTIMATORS))
def test_estimators_draw_on_the_calling_thread(monkeypatch, name):
    # only evaluation runs on the pool: every block is drawn in turn by
    # the thread that called the estimator
    monkeypatch.setattr(stats, "_WORKERS", 2)
    threads = set()
    for method in ("uniform", "standard_normal"):
        def record(self, size, draw=getattr(RandomStream, method)):
            threads.add(threading.get_ident())
            return draw(self, size)

        monkeypatch.setattr(RandomStream, method, record)
    _ESTIMATORS[name](RandomStream(20261019, 7))
    assert threads == {threading.get_ident()}


#: A walk estimator and the Gaussian-process one, each several blocks
#: long, as seed -> hits.
_POOLED = [
    lambda seed: walks.estimate_event("log", 10**12, 0.24, None, 700,
                                      RandomStream(seed, 0)).hits,
    lambda seed: gaussian.persistence_prob(1600, 0.0, 500, RandomStream(seed, 0)).hits,
]


def test_concurrent_callers_share_the_pool(monkeypatch):
    # more calling threads than cores, switching often, each on its own
    # stream: every result must equal that stream's one-worker result
    monkeypatch.setattr(stats, "_WORKERS", 1)
    want = [run(s) for run in _POOLED for s in range(6)]
    monkeypatch.setattr(stats, "_WORKERS", 2)
    got = {}

    def call(i):
        got[i] = _POOLED[i // 6](i % 6)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(want))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [got.get(i) for i in range(len(want))] == want


def _estimate_in_child(queue):
    queue.put([run(20261019) for run in _POOLED])


def test_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(stats, "_WORKERS", 2)
    want = [run(20261019) for run in _POOLED]
    assert any(t.name.startswith("partlab-paths") for t in threading.enumerate())
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_estimate_in_child, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == want


def _zero_at(monkeypatch, word):
    """Make the double drawn from word ``word`` of every stream an exact 0.0."""
    draw = RandomStream.uniform

    def uniform(self, size):
        start = oracles.words_drawn(self)
        u = draw(self, size)
        if start <= word < start + u.size:
            u.flat[word - start] = 0.0
        return u

    monkeypatch.setattr(RandomStream, "uniform", uniform)


@pytest.mark.parametrize("name", ["eg", "log", "containment", "ratio-tail"])
def test_redrawn_zero_gives_the_serial_answer(monkeypatch, name):
    # a zero in the second block (the first at 758 steps) is redrawn after
    # its sub-draw, which moves every later block by one word; one and
    # two workers must both draw the rest from there
    run = _ESTIMATORS[name]
    serial = RandomStream(20261019, 5)
    monkeypatch.setattr(stats, "_WORKERS", 1)
    run(serial)
    _zero_at(monkeypatch, 3 * 10**5 if name == "ratio-tail" else 2 * 9 * 4096 + 7)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(stats, "_WORKERS", workers)
        rng = RandomStream(20261019, 5)
        results.append((run(rng), oracles.words_drawn(rng), rng.uniform(2).tolist()))
    assert results[0] == results[1]
    assert results[0][1] == oracles.words_drawn(serial) + 1


def test_walk_estimators_reject_long_paths_before_allocating():
    # floor(n**0.24) is 15,848,931 at n = 10^30 and about 10^96 at 10^400
    tracemalloc.start()
    try:
        for n in (10**30, 10**400):
            with pytest.raises(ValueError, match="above the limit of 100000"):
                walks.estimate_event("eg", n, 0.24, None, 10, RandomStream(36, 0))
            with pytest.raises(ValueError, match="above the limit of 100000"):
                walks.check_containment(n, 0.24, 10, RandomStream(36, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


class TestConcentrationChecks:
    def test_ratio_tail_structure(self):
        diag = walks.ratio_tail_diagnostic(100, 0.1, 4000, RandomStream(21, 0))
        assert diag.indices == walks.log_cube(100) == 98
        assert diag.per_j.shape == (98,)
        assert diag.total == pytest.approx(float(diag.per_j.sum()), rel=1e-12)
        assert diag.bound == pytest.approx(8.0 * 100 ** (-0.05))
        assert diag.ci_halfwidth >= 0.0

    def test_ratio_tail_rejects_huge_n_before_allocating(self):
        # log^3 n = 3.43e8 indices: 2.7 GB per array if it were allocated
        n, delta = math.exp(700), 0.0066
        tracemalloc.start()
        try:
            for fn in (walks.ratio_tail_bound, walks.ratio_tail_exact):
                with pytest.raises(ValueError, match="limit"):
                    fn(n, delta)
            with pytest.raises(ValueError, match="limit"):
                walks.ratio_tail_diagnostic(n, delta, 10, RandomStream(23, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("n", [0, 1])
    def test_ratio_tail_rejects_empty_burnin_range(self, n):
        # ceil(log^3 1) = 0 indices, and log 0 is undefined
        rng = RandomStream(23, 4)
        for fn in (walks.ratio_tail_bound, walks.ratio_tail_bound_terms,
                   walks.ratio_tail_exact, walks.ratio_tail_exact_terms):
            with pytest.raises(ValueError, match="burn-in range"):
                fn(n, 0.1)
        with pytest.raises(ValueError, match="burn-in range"):
            walks.ratio_tail_diagnostic(n, 0.1, 10, rng)
        assert rng.uniform(1)[0] == RandomStream(23, 4).uniform(1)[0]

    def test_ratio_tail_one_index_at_n_2(self):
        assert walks.log_cube(2) == 1
        assert walks.ratio_tail_bound_terms(2, 0.1).shape == (1,)
        assert walks.ratio_tail_exact_terms(2, 0.1).shape == (1,)
        assert walks.ratio_tail_exact(2, 0.1) <= walks.ratio_tail_bound(2, 0.1)
        diag = walks.ratio_tail_diagnostic(2, 0.1, 1000, RandomStream(23, 5))
        assert diag.indices == 1 and diag.per_j.shape == (1,)
        se = diag.ci_halfwidth / Z95
        assert abs(diag.total - diag.exact_mean) <= 4 * se

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
    def test_ratio_tail_needs_finite_positive_delta(self, delta):
        for fn in (walks.ratio_tail_bound, walks.ratio_tail_exact):
            with pytest.raises(ValueError, match="finite and positive"):
                fn(100, delta)
        with pytest.raises(ValueError, match="finite and positive"):
            walks.ratio_tail_diagnostic(100, delta, 10, RandomStream(23, 0))
        w = walks.gen_walk(walks.log_cube(100), RandomStream(23, 1))
        for fn in (oracles.log_prefix_bound_check, oracles.event_early_min_drop):
            with pytest.raises(ValueError, match="finite and positive"):
                fn(100, delta, w)
        with pytest.raises(ValueError, match="finite and positive"):
            walks.estimate_event("eg", 1000, 0.2, delta, 10, RandomStream(23, 2))

    def test_ratio_tail_refuses_an_overflowing_excess(self):
        rng = RandomStream(23, 6)
        for fn in (walks.ratio_tail_bound, walks.ratio_tail_bound_terms,
                   walks.ratio_tail_exact, walks.ratio_tail_exact_terms):
            with pytest.raises(ValueError, match=r"n\^\(delta/2\) overflows a float"):
                fn(10**4, 1e300)
        with pytest.raises(ValueError, match=r"n\^\(delta/2\) overflows a float"):
            walks.ratio_tail_diagnostic(10**4, 1e300, 10, rng)
        assert rng.uniform(1)[0] == RandomStream(23, 6).uniform(1)[0]

    def test_ratio_tail_deterministic(self):
        a = walks.ratio_tail_diagnostic(100, 0.1, 2000, RandomStream(22, 0))
        b = walks.ratio_tail_diagnostic(100, 0.1, 2000, RandomStream(22, 0))
        assert a.total == b.total
        assert np.array_equal(a.per_j, b.per_j)

    def test_ratio_tail_exact_small_j_closed_forms(self):
        # I_p(1, 1) = p and I_p(2, 2) = 3p^2 - 2p^3, with p = 1/(2 + x_j)
        for n, delta in ((10**4, 0.0066), (100, 0.1)):
            exact = walks.ratio_tail_exact_terms(n, delta)
            p1 = 1.0 / (2.0 + n ** (delta / 2.0))
            p2 = 1.0 / (2.0 + n ** (delta / 2.0) / math.sqrt(2.0))
            assert exact[0] == pytest.approx(p1, rel=1e-12)
            assert exact[1] == pytest.approx(3 * p2**2 - 2 * p2**3, rel=1e-12)

    @pytest.mark.parametrize("n, delta", [(10**4, 0.0066), (100, 0.1)])
    def test_ratio_tail_chernoff_dominates_exact(self, n, delta):
        chernoff = walks.ratio_tail_bound_terms(n, delta)
        exact = walks.ratio_tail_exact_terms(n, delta)
        assert chernoff.shape == exact.shape == (walks.log_cube(n),)
        assert np.all(chernoff >= exact)
        assert walks.ratio_tail_bound(n, delta) >= walks.ratio_tail_exact(n, delta)

    def test_ratio_tail_bound_under_asymptotic_envelope_when_excess_large(self):
        # n^(delta/2) = 100: the finite-n bound is already inside 8 n^(-delta/2)
        n, delta = 10**4, 1.0
        assert walks.ratio_tail_bound(n, delta) <= 8.0 * n ** (-delta / 2.0)
        x = n ** (delta / 2.0)
        assert walks.ratio_tail_bound_terms(n, delta)[0] == pytest.approx(
            4.0 * (1.0 + x) / (2.0 + x) ** 2, rel=1e-12)

    def test_ratio_tail_mc_matches_exact_mean(self):
        diag = walks.ratio_tail_diagnostic(100, 0.1, 20000, RandomStream(29, 0))
        assert diag.exact_mean == walks.ratio_tail_exact(100, 0.1)
        assert diag.finite_bound == walks.ratio_tail_bound(100, 0.1)
        se = diag.ci_halfwidth / Z95
        assert abs(diag.total - diag.exact_mean) <= 4 * se

    def test_ratio_tail_verdict_is_two_sided(self):
        diag = walks.ratio_tail_diagnostic(100, 0.1, 4000, RandomStream(30, 0))
        se = diag.ci_halfwidth / Z95
        mean = diag.exact_mean

        def passes(**changes):
            return selfcheck._ratio_tail_verdict(dataclasses.replace(diag, **changes))[0]

        assert passes(total=mean + 3.9 * se)
        assert passes(total=mean - 3.9 * se)
        assert not passes(total=mean + 4.1 * se)
        assert not passes(total=mean - 4.1 * se)
        # a total at the exact mean still fails once it clears the envelope
        assert not passes(total=mean, finite_bound=mean - 2 * diag.ci_halfwidth)
    def test_log_prefix_bound_holds_when_applicable(self):
        n, delta = 100, 0.1
        rng = RandomStream(23, 0)
        seen_applicable = 0
        cap_want = 2.0 * n ** (delta / 2.0) * math.ceil(math.log(n) ** 1.5)
        for _ in range(300):
            w = walks.gen_walk(walks.log_cube(n), rng)
            applicable, holds, value, cap = oracles.log_prefix_bound_check(n, delta, w)
            assert cap == pytest.approx(cap_want)
            if applicable:
                seen_applicable += 1
                assert holds is True
                assert value <= cap
            else:
                assert holds is None
        assert seen_applicable > 0

    def test_log_prefix_bound_short_walk(self):
        w = walks.gen_walk(5, RandomStream(24, 0))
        with pytest.raises(ValueError, match="log"):
            oracles.log_prefix_bound_check(100, 0.1, w)


class TestLargeNDiagnostics:
    def test_drift_gap_empty_range_is_false(self):
        # at n=10^4, floor(n^0.24) = 9 < ceil(log^3 n) = 782
        w = walks.gen_walk(9, RandomStream(25, 0))
        assert oracles.event_log_drift_gap(10**4, 0.24, w) is False

    def test_drift_gap_inner_inequality(self, monkeypatch):
        # the range past the burn-in opens up only around n ~ 1e28 with
        # gamma < 1/4, so shrink the burn-in to exercise the inequality
        monkeypatch.setattr(walks, "log_cube", lambda n: 2)
        n, gamma, length = 10**4, 0.24, 9
        w = walks.gen_walk(length, RandomStream(26, 0))
        got = oracles.event_log_drift_gap(n, gamma, w)
        logs = np.log(w.s_prime[2:length]) - np.log(w.s[2:length])
        jj = np.arange(3.0, length + 1.0)
        drift = (w.r_prime[2:length] - w.r[2:length]) / jj
        gap = np.cumsum(logs) - np.cumsum(drift)
        assert got == bool((gap > math.log(n) ** 3).any())

    def test_drift_gap_positive_case(self, monkeypatch):
        monkeypatch.setattr(walks, "log_cube", lambda n: 2)
        # S much larger than j makes the log side nearly flat while the
        # drift side dives, so the gap blows past log^3 n
        x = np.full(9, 1000.0)
        xp = np.full(9, 1e-12)
        w = _path_from_increments(x, xp)
        assert oracles.event_log_drift_gap(10**4, 0.24, w) is True

    def test_drift_gap_bound_decays(self):
        assert oracles.log_drift_gap_bound(10**8) < oracles.log_drift_gap_bound(10**4)

    def test_early_min_drop_matches_direct(self):
        n, delta = 100, 0.1
        count = walks.log_cube(n)
        rng = RandomStream(27, 0)
        hits = 0
        for _ in range(200):
            w = walks.gen_walk(count, rng)
            got = oracles.event_early_min_drop(n, delta, w)
            cut = -(n ** (delta / 2.0)) * math.ceil(math.log(n) ** 1.5)
            want = oracles.min_weighted_stat(w, count) <= cut
            assert got == want
            hits += got
        # the drop is a tail event; most paths should not hit it
        assert hits < 100

    def test_early_min_drop_short_walk(self):
        w = walks.gen_walk(5, RandomStream(28, 0))
        with pytest.raises(ValueError):
            oracles.event_early_min_drop(100, 0.1, w)
