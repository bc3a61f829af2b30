"""Closed-form yield model, curve fitting, and log-size extrapolation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import ndtr
from scipy.stats import norm

from freqcrowd import window
from freqcrowd.errors import ParameterError, SingularFitError, UnfittableError

# Independently computed: Phi(30/14)**65 with Phi via erf.
ORACLE_YIELD_30_14_65 = 0.3490555
# Phi(1) for the single-qubit unit-ratio case.
PHI_1 = 0.841345


class TestWindowYield:
    def test_frozen_oracle(self):
        assert window.window_yield(30.0, 14.0, 65) == pytest.approx(ORACLE_YIELD_30_14_65, abs=1e-6)

    def test_single_qubit_is_plain_cdf(self):
        assert window.window_yield(14.0, 14.0, 1) == pytest.approx(PHI_1, abs=1e-6)
        assert window.window_yield(14.0, 14.0, 1) == pytest.approx(
            0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), abs=1e-12)

    def test_zero_scatter_is_certain(self):
        assert window.window_yield(0.5, 0.0, 10000) == 1.0

    @pytest.mark.parametrize("sigma", [5e-324, 1e-310])
    def test_a_scatter_whose_ratio_overflows_is_certain(self, sigma):
        """delta_f / sigma past the largest float is an infinite ratio, as at
        sigma 0, with no warning (tier-1 turns warnings into errors)."""
        assert window.window_yield(20.0, sigma, 20) == 1.0
        assert window.window_yield(20.0, np.array([sigma, 0.0]), 20).tolist() == [1.0, 1.0]

    def test_vector_sigma(self):
        sig = np.array([0.0, 14.0, 1e6])
        y = window.window_yield(30.0, sig, 65)
        assert y.shape == (3,)
        assert y[0] == 1.0
        assert y[1] == pytest.approx(ORACLE_YIELD_30_14_65, abs=1e-6)
        assert y[2] == pytest.approx(0.5 ** 65, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            window.window_yield(0.0, 14.0, 65)
        with pytest.raises(ParameterError):
            window.window_yield(30.0, -1.0, 65)
        with pytest.raises(ParameterError):  # NaN is no scatter level, not zero scatter
            window.window_yield(30.0, np.array([14.0, np.nan]), 65)
        for sigma in (math.inf, np.array([14.0, math.inf])):  # no 0.5**N at infinite scatter
            with pytest.raises(ParameterError, match="sigma_f must be finite and >= 0"):
                window.window_yield(30.0, sigma, 65)
        with pytest.raises(ParameterError):
            window.window_yield(math.nan, 14.0, 65)
        with pytest.raises(ParameterError):
            window.window_yield(30.0, 14.0, 0)

    @pytest.mark.parametrize("n", [2.5, 65.0, math.nan, True])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(ParameterError, match="n_qubits"):
            window.window_yield(30.0, 14.0, n)
        with pytest.raises(ParameterError, match="n_qubits"):
            window.required_sigma(30.0, n, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(df=st.floats(1.0, 100.0), n=st.integers(1, 500))
    def test_monotone_in_sigma(self, df, n):
        ys = window.window_yield(df, np.array([1.0, 5.0, 20.0, 80.0]), n)
        assert all(a >= b for a, b in zip(ys, ys[1:]))

    @settings(max_examples=50, deadline=None)
    @given(sig=st.floats(1.0, 80.0), n=st.integers(1, 500))
    def test_monotone_in_window(self, sig, n):
        lo = window.window_yield(10.0, sig, n)
        hi = window.window_yield(40.0, sig, n)
        assert hi >= lo


class TestFitWindow:
    CURVE = [(s, window.window_yield(29.91, s, 65)) for s in (8.0, 12.0, 16.0, 24.0)]

    @pytest.mark.parametrize("n", [0, -3, 2.5, 65.0, math.nan, True])
    def test_size_must_be_an_integer_of_at_least_one(self, n):
        """Sizes 0 and -3 once fitted 0.20 and 277 MHz, and 2.5 fitted N = 2.5
        but reported 2."""
        with pytest.raises(ParameterError, match="n_qubits"):
            window.fit_window(self.CURVE, n)

    @pytest.mark.parametrize("point", [(math.inf, 0.5), (math.nan, 0.5), (-2.0, 0.5),
                                       (10.0, math.nan), (10.0, 1.5), (10.0, -0.1)])
    def test_curve_points_need_a_finite_sigma_and_a_yield_in_range(self, point):
        with pytest.raises(ParameterError, match="curve point"):
            window.fit_window(self.CURVE + [point], 65)

    def test_numpy_integer_size_is_accepted(self):
        assert window.fit_window(self.CURVE, np.int64(65)).n_qubits == 65
    def test_round_trip_recovers_width(self):
        true_df, n = 29.91, 65
        sigmas = np.arange(2.0, 61.0, 2.0)
        curve = [(s, window.window_yield(true_df, s, n)) for s in sigmas]
        fit = window.fit_window(curve, n)
        assert fit.delta_f_mhz == pytest.approx(true_df, abs=0.05)
        assert fit.rms_residual < 1e-4
        assert fit.n_qubits == n

    def test_saturated_points_dropped(self):
        n = 49
        curve = [(0.0, 1.0), (4.0, 1.0), (150.0, 0.0)] + [
            (s, window.window_yield(12.0, s, n)) for s in (8.0, 12.0, 16.0, 24.0)]
        fit = window.fit_window(curve, n)
        assert (fit.n_points_used, fit.n_points_dropped) == (4, 3)
        assert fit.delta_f_mhz == pytest.approx(12.0, abs=0.05)

    def test_too_few_informative_points(self):
        with pytest.raises(UnfittableError):
            window.fit_window([(0.0, 1.0), (10.0, 0.5), (20.0, 0.1), (400.0, 0.0)], 65)

    def test_noisy_curve_still_close(self):
        rng = np.random.default_rng(3)
        n, true_df = 127, 29.29
        sigmas = np.arange(2.0, 61.0, 2.0)
        curve = []
        for s in sigmas:
            y = window.window_yield(true_df, s, n)
            y = min(1.0, max(0.0, y + rng.normal(0.0, 0.01)))
            curve.append((s, y))
        fit = window.fit_window(curve, n)
        assert fit.delta_f_mhz == pytest.approx(true_df, abs=0.5)

    @pytest.mark.parametrize("noise", [0.0, 0.01], ids=["exact", "noisy"])
    def test_search_lands_within_its_tolerance(self, noise):
        """Bounded Brent (``scipy.optimize``, an oracle here only) on the same
        SSE and seed bracket, converged far below the 1e-4 MHz the search
        stops at, finds the minimum the golden-section search must reach."""
        rng = np.random.default_rng(5)
        n, true_df = 127, 29.29
        curve = [(s, min(1.0, max(0.0, window.window_yield(true_df, s, n) + rng.normal(0.0, noise))))
                 for s in np.arange(2.0, 61.0, 2.0)]
        sig, obs = np.array([(s, y) for s, y in curve if 0.0 < y < 1.0]).T

        def sse(df):
            return float(np.sum((ndtr(df / sig) ** n - obs) ** 2))

        grid = np.geomspace(0.1, 500.0, 200)
        seed = grid[np.argmin([sse(g) for g in grid])]
        best = minimize_scalar(sse, bounds=(seed / 2.0, seed * 2.0), method="bounded",
                               options={"xatol": 1e-9}).x
        assert window.fit_window(curve, n).delta_f_mhz == pytest.approx(best, abs=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(df=st.floats(5.0, 60.0), n=st.integers(10, 200))
    def test_round_trip_property(self, df, n):
        curve = [(s, window.window_yield(df, s, n)) for s in np.geomspace(1.0, 120.0, 25)]
        fit = window.fit_window(curve, n)
        assert fit.delta_f_mhz == pytest.approx(df, rel=0.01)


class TestTrend:
    # Window widths of the three heavy-hexagon sizes; the line through
    # (ln N, delta_f) and its two extrapolations were computed by hand OLS.
    SIZES = (23, 65, 127)
    WIDTHS = (31.61, 29.91, 29.29)

    def fit(self):
        return window.fit_trend(self.SIZES, self.WIDTHS)

    def test_frozen_coefficients(self):
        tr = self.fit()
        assert tr.coeff_b_ln == pytest.approx(-1.3816, abs=2e-3)
        assert tr.coeff_a == pytest.approx(35.867, abs=5e-3)
        assert tr.n_points == 3

    def test_log10_slope_conversion(self):
        tr = self.fit()
        assert tr.coeff_b_log10 == pytest.approx(tr.coeff_b_ln * math.log(10.0), rel=1e-12)

    def test_frozen_extrapolations(self):
        tr = self.fit()
        assert window.predict_delta_f(tr, 300) == pytest.approx(27.99, abs=0.02)
        assert window.predict_delta_f(tr, 1000) == pytest.approx(26.32, abs=0.02)

    def test_exact_line_recovery(self):
        n = np.array([10.0, 40.0, 160.0, 640.0])
        df = 40.0 - 2.5 * np.log(n)
        tr = window.fit_trend(n, df)
        assert tr.coeff_a == pytest.approx(40.0, abs=1e-10)
        assert tr.coeff_b_ln == pytest.approx(-2.5, abs=1e-12)
        assert tr.rms_residual_mhz == pytest.approx(0.0, abs=1e-10)

    def test_identical_sizes_rejected(self):
        with pytest.raises(SingularFitError):
            window.fit_trend([65, 65, 65], [30.0, 29.0, 28.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            window.fit_trend([65], [30.0])
        with pytest.raises(ParameterError):
            window.fit_trend([65, 0], [30.0, 29.0])
        with pytest.raises(ParameterError):
            window.predict_delta_f(self.fit(), 0)

    @pytest.mark.parametrize("sizes, widths", [
        ((23, math.nan, 127), WIDTHS), ((23, math.inf, 127), WIDTHS),
        (SIZES, (31.61, math.inf, 29.29)), (SIZES, (31.61, math.nan, 29.29)),
        (SIZES, (31.61, 0.0, 29.29))])
    def test_sizes_and_widths_must_be_finite(self, sizes, widths):
        """A NaN size or an infinite width once gave a NaN trend and a warning."""
        with pytest.raises(ParameterError):
            window.fit_trend(sizes, widths)

    @pytest.mark.parametrize("n", [math.nan, math.inf, np.array([300.0, math.nan])])
    def test_prediction_needs_finite_sizes(self, n):
        with pytest.raises(ParameterError):
            window.predict_delta_f(self.fit(), n)

    def test_vector_prediction(self):
        out = window.predict_delta_f(self.fit(), np.array([300, 1000]))
        assert out.shape == (2,)
        assert out[0] > out[1]


class TestRequiredSigma:
    def test_frozen_values(self):
        # scatter giving 10% survival through each family's d=5 window,
        # frozen from the closed form delta_f / Phi^-1(0.1**(1/N))
        assert window.required_sigma(29.43, 73, 0.1) == pytest.approx(15.775, abs=0.005)
        assert window.required_sigma(29.91, 65, 0.1) == pytest.approx(16.484, abs=0.005)
        assert window.required_sigma(12.73, 49, 0.1) == pytest.approx(7.551, abs=0.005)

    @settings(max_examples=30, deadline=None)
    @given(df=st.floats(5.0, 60.0), n=st.integers(7, 300),
           target=st.floats(0.01, 0.95))
    def test_round_trip(self, df, n, target):
        sig = window.required_sigma(df, n, target)
        assert window.window_yield(df, sig, n) == pytest.approx(target, abs=1e-6)

    def test_monotone_in_target(self):
        hard = window.required_sigma(30.0, 65, 0.9)
        easy = window.required_sigma(30.0, 65, 0.1)
        assert easy > hard

    def test_targets_outside_reachable_band(self):
        with pytest.raises(ParameterError):
            window.required_sigma(30.0, 65, 1.0)
        with pytest.raises(ParameterError):
            window.required_sigma(30.0, 65, 0.0)
        with pytest.raises(ParameterError):
            window.required_sigma(30.0, 2, 0.25)  # at the 0.5**N floor
        with pytest.raises(ParameterError):
            window.required_sigma(0.0, 65, 0.5)
        with pytest.raises(ParameterError, match="delta_f"):
            window.required_sigma(math.nan, 65, 0.5)
        with pytest.raises(ParameterError, match="too close to 1"):  # the tail underflows to 0
            window.required_sigma(30.0, 10 ** 308, 1.0 - 1e-16)

    @pytest.mark.parametrize("df,n,target", [
        (df, n, target) for df in (5.0, 28.0, 100.0) for n in (1, 2, 7, 65, 100, 1000, 5000)
        for target in (1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 0.999999)
        if target > 0.5 ** n])  # at or below 0.5**N no sigma gives the target
    def test_matches_cdf_inversion(self, df, n, target):
        # direct inversion: sigma = delta_f / Phi^-1(target**(1/N))
        expect = df / norm.ppf(target ** (1.0 / n))
        assert window.required_sigma(df, n, target) == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("n,target", [(1, 1.0 - 1e-12), (65, 1.0 - 1e-10),
                                          (1000, 1.0 - 1e-9), (5000, 0.999999)])
    def test_keeps_tail_digits_near_full_yield(self, n, target):
        # each qubit's miss probability 1 - target**(1/N), formed without
        # cancellation, comes back from the forward tail Phi(-delta_f/sigma)
        sig = window.required_sigma(30.0, n, target)
        miss = -math.expm1(math.log(target) / n)
        assert ndtr(-30.0 / sig) == pytest.approx(miss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,target", [(1000, 0.5 ** 1000 * (1.0 + 1e-12)),
                                          (1, 0.5000000000001)], ids=["N1000", "N1"])
    def test_just_above_the_floor_is_unreachable(self, n, target):
        # sigma diverges at the floor: the closed form gives 2.4e16 and
        # 1.2e14 MHz here, which are rejected rather than returned
        with pytest.raises(ParameterError, match="target_yield unreachable"):
            window.required_sigma(1.0, n, target)
