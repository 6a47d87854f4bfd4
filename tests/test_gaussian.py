import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from partlab import counting, gaussian
from partlab.rng import RandomStream


class TestHarmonic:
    def test_small_values(self):
        assert gaussian.harmonic(0) == 0.0
        assert gaussian.harmonic(1) == 1.0
        assert gaussian.harmonic(2) == 1.5

    def test_h100(self):
        assert abs(gaussian.harmonic(100) - 5.18737751763962) < 1e-14

    def test_asymptotic(self):
        k = 10**5
        euler = 0.5772156649015329
        approx = math.log(k) + euler + 1.0 / (2 * k)
        assert abs(gaussian.harmonic(k) - approx) < 1e-4

    def test_prefix_matches_scalar(self):
        pref = gaussian.harmonic_prefix(50)
        for k in (1, 2, 17, 50):
            assert abs(pref[k - 1] - gaussian.harmonic(k)) < 1e-14


class TestIndexLimit:
    # one path of Z_1..Z_n must fit one Monte Carlo block
    LIMIT = 4 * 10**6

    def test_limit_is_one_block(self):
        assert self.LIMIT == gaussian.MC_BLOCK_ELEMENTS

    def test_prefix_within_stated_bound_up_to_limit(self):
        # harmonic_prefix's docstring: within (2^-53 + g_(k-1)^2) H_k of the
        # sum of the float terms, and fsum rounds that sum once more
        pref = gaussian.harmonic_prefix(self.LIMIT)
        terms = (1.0 / np.arange(1.0, self.LIMIT + 1.0)).tolist()
        for k in (1, 2, 3, 10, 1000, 2000, 10**5, 1234567, self.LIMIT):
            exact = math.fsum(terms[:k])
            g = (k - 1) * 2.0**-53 / (1 - (k - 1) * 2.0**-53)
            assert abs(pref[k - 1] - exact) <= (2.0**-52 + g * g) * exact

    def test_harmonic_at_limit(self):
        k = self.LIMIT
        approx = math.log(k) + 0.5772156649015329 + 1.0 / (2 * k)
        assert abs(gaussian.harmonic(k) - approx) < 1e-12

    @pytest.mark.parametrize("index, call", [
        (LIMIT + 1, lambda: gaussian.harmonic(4 * 10**6 + 1)),
        (LIMIT + 1, lambda: gaussian.harmonic_prefix(4 * 10**6 + 1)),
        (10**12, lambda: gaussian.gp_cov(1, 10**12)),
        (10**12, lambda: gaussian.gp_cov(10**12, 1)),
        (10**9, lambda: gaussian.persistence_prob(10**9, 0.0, 1, RandomStream(1, 0))),
        (LIMIT + 1, lambda: gaussian.persistence_prob(
            4 * 10**6 + 1, 0.0, 1, RandomStream(1, 0))),
    ])
    def test_refused_before_any_work(self, index, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"^index {index} above 4000000, the largest Gaussian-process "
                    r"index \(one path per Monte Carlo block\)$")):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


class TestCovariance:
    def test_spot_values(self):
        assert gaussian.gp_cov(1, 1) == 1.0
        assert gaussian.gp_cov(1, 2) == 1.5
        assert gaussian.gp_cov(2, 2) == 2.5

    def test_symmetry(self):
        for m, n in ((1, 5), (3, 9), (7, 8)):
            assert gaussian.gp_cov(m, n) == gaussian.gp_cov(n, m)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gaussian.gp_cov(0, 3)
        with pytest.raises(ValueError):
            gaussian.gp_cov(3, -1)

    def test_matches_double_sum(self):
        for m in range(1, 41):
            for n in range(m, 41):
                brute = math.fsum(
                    min(i, j) / (i * j)
                    for i in range(1, m + 1)
                    for j in range(1, n + 1)
                )
                assert abs(gaussian.gp_cov(m, n) - brute) < 1e-10

    def test_matrix_matches_scalar(self):
        cov = gaussian.cov_matrix(60)
        assert cov.shape == (60, 60)
        assert np.array_equal(cov, cov.T)
        for m, n in ((1, 1), (1, 60), (13, 41), (60, 60)):
            assert abs(cov[m - 1, n - 1] - gaussian.gp_cov(m, n)) < 1e-12

    def test_matrix_is_positive_definite_at_cap(self):
        chol = np.linalg.cholesky(gaussian.cov_matrix(2000))
        assert np.all(np.diag(chol) > 0)

    def test_matrix_refused_above_cap_before_any_work(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^n = 2001 above dense factorization cap 2000$"):
                gaussian.cov_matrix(2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


class TestSamplers:
    def test_incremental_shape_and_identity(self):
        z = gaussian.sample_gp_incremental(30, 4, RandomStream(1, 0))
        assert z.shape == (4, 30)
        # Z = cumsum(B/k) with B = cumsum(xi), xi from a twin stream
        xi = RandomStream(1, 0).standard_normal((4, 30))
        want = np.cumsum(np.cumsum(xi, axis=1) / np.arange(1, 31), axis=1)
        assert np.allclose(z, want, rtol=1e-14, atol=1e-14)
        assert np.array_equal(z[:, 0], xi[:, 0])

    def test_first_coordinate_is_standard_normal(self):
        rng = RandomStream(2, 0)
        z1 = gaussian.sample_gp_incremental(1, 4000, rng)[:, 0]
        assert sps.kstest(z1, "norm").pvalue > 0.001

    def test_cholesky_first_coordinate(self):
        rng = RandomStream(3, 0)
        z1 = gaussian.sample_gp_cholesky(1, 4000, rng)[:, 0]
        assert sps.kstest(z1, "norm").pvalue > 0.001

    def test_cholesky_cap(self):
        assert gaussian.CHOLESKY_CAP == 2000
        with pytest.raises(ValueError, match="^n = 2001 above dense factorization cap 2000$"):
            gaussian.sample_gp_cholesky(2001, 1, RandomStream(4, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian.sample_gp_incremental(0, 1, RandomStream(6, 0))
        with pytest.raises(ValueError):
            gaussian.sample_gp_cholesky(0, 1, RandomStream(6, 0))

    def test_empirical_covariance(self):
        trials = 40000
        z = gaussian.sample_gp_incremental(10, trials, RandomStream(7, 0))[:, [4, 9]]
        prods = (z[:, 0] - z[:, 0].mean()) * (z[:, 1] - z[:, 1].mean())
        se = prods.std(ddof=1) / math.sqrt(trials)
        assert abs(prods.mean() - gaussian.gp_cov(5, 10)) < 5 * se

    def test_samplers_agree_on_max_law(self):
        m_inc = gaussian.sample_gp_incremental(50, 4000, RandomStream(8, 0)).max(axis=1)
        m_cho = gaussian.sample_gp_cholesky(50, 4000, RandomStream(9, 0)).max(axis=1)
        assert sps.ks_2samp(m_inc, m_cho).pvalue > 0.001


class TestPersistence:
    def test_single_step_is_phi_of_one(self):
        # P(Z_1 <= 1) = Phi(1) since Z_1 is standard normal and 1**0 = 1
        est = gaussian.persistence_prob(1, 0.0, 20000, RandomStream(10, 0))
        assert abs(est.estimate - sps.norm.cdf(1.0)) < 4 * est.ci_halfwidth / 1.96

    def test_raising_alpha_raises_survival(self):
        low = gaussian.persistence_prob(100, 0.0, 2000, RandomStream(11, 0))
        high = gaussian.persistence_prob(100, 0.49, 2000, RandomStream(11, 0))
        assert high.estimate > low.estimate + 0.1
        assert high.estimate > 0.6

    def test_validation(self):
        rng = RandomStream(12, 0)
        with pytest.raises(ValueError):
            gaussian.persistence_prob(0, 0.0, 10, rng)
        with pytest.raises(ValueError):
            gaussian.persistence_prob(10, 0.5, 10, rng)
        with pytest.raises(ValueError):
            gaussian.persistence_prob(10, -0.1, 10, rng)
        with pytest.raises(ValueError):
            gaussian.persistence_prob(10, 0.0, 0, rng)

    def test_deterministic(self):
        a = gaussian.persistence_prob(50, 0.1, 3000, RandomStream(13, 0))
        b = gaussian.persistence_prob(50, 0.1, 3000, RandomStream(13, 0))
        assert a == b
        assert a.event == "gp-persistence"


class TestScaleEquation:
    def test_pole_side(self):
        assert gaussian.g_rho(1.0 + 1e-9) > 100.0
        with pytest.raises(ValueError):
            gaussian.g_rho(1.0)

    def test_large_rho_limit(self):
        assert abs(gaussian.g_rho(1e12) - 1.0) < 1e-4

    def test_strictly_decreasing(self):
        grid = np.exp(np.linspace(math.log(1.1), math.log(10**5), 200))
        vals = [gaussian.g_rho(float(r)) for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_root_value(self):
        rho = gaussian.solve_rho_star()
        assert abs(rho - 1528.691213) / 1528.691213 <= 1e-6
        assert abs(gaussian.g_rho(rho) - 1.25) <= 1e-12

    def test_root_solver_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            gaussian.solve_rho_star(0.0)
        monkeypatch.setattr(gaussian, "_RHO_BRACKET", (10**4, 10**6))
        with pytest.raises(RuntimeError, match="bracket"):
            gaussian.solve_rho_star()

    def test_rate_from_rho(self):
        assert abs(gaussian.beta_from_rho(math.e**10) - 0.01) < 1e-15
        with pytest.raises(ValueError):
            gaussian.beta_from_rho(1.0)


class TestExponents:
    def test_beta_2_closed_form(self):
        sol = gaussian.optimize_exponents(2.0)
        assert sol.delta == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert sol.gamma == pytest.approx(5.0 / 24.0, abs=1e-12)
        assert sol.exponent == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert sol.rho_star is None

    def test_pinned_constants(self):
        sol = gaussian.solve_exponent_pipeline()
        assert abs(sol.rho_star - 1528.691213) / 1528.691213 <= 1e-6
        assert abs(sol.beta - 0.01363853235) <= 1e-9
        assert abs(sol.delta - 0.006594420627) <= 1e-8
        assert abs(sol.gamma - 0.2483513948) <= 1e-8
        assert abs(sol.exponent - 0.003297210314) <= 1e-9

    @pytest.mark.parametrize("beta", [1e-4, 0.01363853235, 0.5, 10.0])
    def test_closed_form_matches_search(self, beta):
        sol = gaussian.optimize_exponents(beta)
        delta, gamma = oracles.search_exponents(beta)
        assert abs(sol.delta - delta) <= 1e-6
        assert abs(sol.gamma - gamma) <= 1e-6

    def test_residuals_vanish(self):
        sol = gaussian.optimize_exponents(0.01363853235)
        terms = (0.5 - 2.0 * sol.gamma, sol.delta / 2.0,
                 sol.beta * (sol.gamma - sol.delta))
        assert max(terms) - min(terms) < 1e-12

    def test_interior_feasibility(self):
        for beta in (0.005, 0.0136, 0.5, 2.0, 100.0):
            sol = gaussian.optimize_exponents(beta)
            assert 0.0 < sol.delta < sol.gamma < 0.25

    def test_beta_override_pipeline(self):
        sol = gaussian.solve_exponent_pipeline(beta_override=2.0)
        assert sol.rho_star is None
        assert sol.exponent == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian.optimize_exponents(0.0)
        with pytest.raises(ValueError):
            gaussian.optimize_exponents(-1.0)


class TestDecayFit:
    def test_exact_power_law(self):
        pts = [(n, 0.9 * n**-0.5) for n in (10, 100, 1000, 10000)]
        fit = gaussian.decay_fit(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-6)
        # scipy.stats.linregress's values, rounding residue included
        assert fit.slope == pytest.approx(-0.49999999999999994, rel=1e-12)
        assert fit.stderr == pytest.approx(5.268356063861754e-09, rel=1e-12)

    def test_constant_sequence(self):
        fit = gaussian.decay_fit([(10, 0.3), (100, 0.3), (1000, 0.3)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.stderr == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="3 points"):
            gaussian.decay_fit([(10, 0.5), (20, 0.4)])
        with pytest.raises(ValueError, match="inside"):
            gaussian.decay_fit([(10, 0.5), (20, 1.0), (30, 0.4)])
        with pytest.raises(ValueError, match="span"):
            gaussian.decay_fit([(10, 0.5), (10, 0.4), (10, 0.3)])
        # log(n) is -inf or nan there, and the fit would come back as nan
        for first in (0, -10):
            with pytest.raises(ValueError, match="every n must be positive"):
                gaussian.decay_fit([(first, 0.3), (10, 0.2), (100, 0.1)])

    def test_exact_p_decays_slowly(self):
        pts = [(n, float(counting.exact_p(n))) for n in range(12, 29, 4)]
        fit = gaussian.decay_fit(pts)
        assert -1.0 < fit.slope < 0.0
        # scipy.stats.linregress's values
        assert fit.slope == pytest.approx(-0.056704676764098835, rel=1e-12)
        assert fit.stderr == pytest.approx(0.010607574137026211, rel=1e-12)
