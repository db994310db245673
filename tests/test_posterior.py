import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dichotomy.coalition import PosteriorRate, _log_mode_factor
from dichotomy.errors import DomainError
from dichotomy.posterior import (
    beta_mean,
    beta_median,
    beta_mode,
    beta_raw_moment,
    beta_variance,
    _SERIES_MAX_SHAPE,
    _solved_shapes,
    mad_about_mean,
    semivariances,
    summarize,
    verify_asymptotic_variance,
    verify_degenerate_limit,
    verify_mad_ratio,
    verify_posterior_mean_expansion,
    verify_semivariance_sandwich,
)
from dichotomy.taxpolicy import solve_theta_rho

from _oracles import (
    mp_lower_semivariance,
    mp_semivariances,
    quad_lower_semivariance,
    quad_mad,
    quad_raw_moment,
)

shapes = st.floats(min_value=0.2, max_value=500.0)

# The shapes at which both semivariances are checked against mpmath: small,
# lopsided and tiny shapes; 40 log-uniform draws from [10^-1.5, 10^9]^2; and
# the solved shapes of two verify --theorem 4 ladders up to n = 1e8, at
# (0.9, 0.1, 0.5) and at the parameters the cli benchmark workload draws
# from seed 1.
_rng = np.random.default_rng(2024)
SEMIVARIANCE_SHAPES = [
    (6.0, 6.0), (0.05, 0.05), (3.5, 7.25), (1e6, 1.0), (1.0, 1e6),
    (5.4e7, 0.15), (0.15, 5.4e7), (4.5e7, 0.049), (1e-3, 1e9), (1e9, 1e-3),
    (1e-20, 3.0), (3.0, 1e-20),
] + [tuple(10.0 ** _rng.uniform(-1.5, 9.0, 2)) for _ in range(40)] + [
    _solved_shapes(*params, 10**k)[2:]
    for params in [(0.9, 0.1, 0.5), (0.5556274555107865, 0.040982460171519484, 0.7194898391631132)]
    for k in range(3, 9)
]


def _lopsided_tiny_shapes():
    rng = np.random.default_rng(61)
    shapes = [(1e-250, 1e-100)]
    for low, high in ((-1022, -900), (-900, -600)):
        for k in range(4):
            small = 2.0 ** rng.uniform(low, high)
            big = small * 10.0 ** rng.uniform(0, 300)
            shapes.append((small, big) if k % 2 else (big, small))
    return shapes


_LOPSIDED_TINY_SHAPES = _lopsided_tiny_shapes()


class TestBasicStatistics:
    def test_symmetric_summary(self):
        s = summarize(PosteriorRate(6.0, 6.0, 0.5))
        assert s.mean == 0.5
        assert s.median == pytest.approx(0.5, abs=1e-12)
        assert s.mode == pytest.approx(0.5, abs=1e-12)
        assert s.lower_semivariance == pytest.approx(s.upper_semivariance, rel=1e-10)

    def test_variance_closed_form(self):
        assert beta_variance(6.0, 6.0) == pytest.approx(1.0 / 52.0, rel=1e-12)

    @given(shapes, shapes)
    def test_variance_in_one_division_inside_the_float_range(self, a, b):
        assert beta_variance(a, b) == a * b / ((a + b) * (a + b) * (a + b + 1.0))

    @pytest.mark.parametrize(
        "a, b",
        [(1e-300, 1e-300), (1e-300, 3e-300), (5e-324, 1e-300), (1e200, 3e200),
         (1e-250, 1e-100), (1e-200, 1e-130), (1.7e-160, 1.3e-160)],
    )
    def test_variance_where_the_denominator_leaves_the_float_range(self, a, b):
        # (a + b)^2 (a + b + 1) underflows to 0 or overflows to inf at the
        # first four.  At the last three it is a float above 0, but ab falls
        # below 2^-1022 and loses its digits: ab / den in one division gives
        # 0.0 at (1e-250, 1e-100) and 0.2455533 (true 0.2455556) at
        # (1.7e-160, 1.3e-160).
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            ref = float(ma * mb / ((ma + mb) ** 2 * (ma + mb + 1)))
        assert beta_variance(a, b) == pytest.approx(ref, rel=5e-16, abs=0.0)

    # At (2e-310, 1e-300) and (5e-324, 1e-300) the mode factor is a deep
    # subnormal, carried as a mantissa and a power of two.  At (1e-280,
    # 1e-200) the oracle's two terms cancel 80 digits.
    @pytest.mark.parametrize(
        "a, b",
        [(1e-300, 1e-300), (1e-300, 3e-300), (2e-310, 1e-300), (5e-324, 1e-300), (1e-280, 1e-200)],
    )
    def test_tiny_shapes_summarize(self, a, b):
        s = summarize(PosteriorRate(a, b, 0.5))
        ref_lo, ref_up = mp_semivariances(a, b)
        assert s.variance == beta_variance(a, b)
        assert s.lower_semivariance == pytest.approx(float(ref_lo), rel=5e-16, abs=0.0)
        assert s.upper_semivariance == pytest.approx(float(ref_up), rel=5e-16, abs=0.0)

    def test_mode_undefined_at_boundary_shapes(self):
        assert beta_mode(1.0, 5.0) is None
        assert beta_mode(5.0, 0.7) is None
        assert summarize(PosteriorRate(1.0, 5.0, 0.2)).mode is None

    def test_moments_against_quadrature(self):
        a, b = 6.5, 3.2
        for k in range(1, 7):
            assert beta_raw_moment(a, b, k) == pytest.approx(
                quad_raw_moment(a, b, k), abs=1e-10
            )

    @given(shapes, shapes)
    @settings(max_examples=40)
    def test_median_between_mean_and_mode(self, a, b):
        mode = beta_mode(a, b)
        if mode is None:
            return
        med = beta_median(a, b)
        lo, hi = sorted((beta_mean(a, b), mode))
        assert lo - 1e-12 <= med <= hi + 1e-12

    def test_median_matches_scipy(self):
        from scipy import stats

        for (a, b) in [(2.0, 5.0), (6.0, 6.0), (0.4, 0.9), (300.0, 70.0)]:
            assert beta_median(a, b) == pytest.approx(
                float(stats.beta.ppf(0.5, a, b)), abs=1e-12
            )

    @pytest.mark.parametrize("b", [1.0, 7.0, 1e3, 1e6, 1e9])
    def test_median_exact_at_unit_first_shape(self, b):
        # Beta(1, b) has CDF 1 - (1 - x)^b, so its median is 1 - 2^(-1/b).
        assert beta_median(1.0, b) == pytest.approx(
            -math.expm1(-math.log(2.0) / b), rel=1e-13, abs=0.0
        )


class TestMad:
    def test_uniform_case_matches_quadrature(self):
        # Direct integration of the uniform density gives exactly 1/4.
        assert quad_mad(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert mad_about_mean(1.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_against_quadrature(self):
        assert mad_about_mean(50.0, 70.0) == pytest.approx(
            quad_mad(50.0, 70.0), rel=1e-9
        )

    @pytest.mark.parametrize("a,b", [(30.0, 30.0), (45.0, 200.0), (1000.0, 333.0)])
    def test_quadrature_match_at_moderate_shapes(self, a, b):
        assert mad_about_mean(a, b) == pytest.approx(quad_mad(a, b), rel=1e-9)

    def test_squared_ratio_to_variance_limit(self):
        ratio = mad_about_mean(1e4, 1e4) ** 2 / beta_variance(1e4, 1e4)
        assert ratio == pytest.approx(2.0 / math.pi, abs=1e-3)

    @pytest.mark.parametrize("n", [10**k for k in range(3, 9)])
    def test_mode_factor_along_the_verify_ladder(self, n):
        # The shapes verify --theorem 6 reaches, against 40-digit mpmath; at
        # n = 1e8 a log-beta from log-gammas of about 1.7e9 is off by 1e-7.
        _, _, a, b = _solved_shapes(0.9, 0.1, 0.5, n)
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            factor = mpmath.exp(
                ma * mpmath.log(ma / (ma + mb)) + mb * mpmath.log(mb / (ma + mb))
                - mpmath.log(mpmath.beta(ma, mb))
            )
            mad = 2 * factor / (ma + mb)
            assert abs(math.exp(_log_mode_factor(a, b)) / factor - 1) <= 1e-13
            assert abs(mad_about_mean(a, b) / mad - 1) <= 1e-13


class TestSemivariances:
    def test_symmetric_split(self):
        lo, up = semivariances(6.0, 6.0)
        assert lo == pytest.approx(beta_variance(6.0, 6.0) / 2.0, rel=1e-12)
        assert up == pytest.approx(lo, rel=1e-12)

    def test_against_quadrature(self):
        lo, _ = semivariances(6.0, 4.0)
        assert lo == pytest.approx(quad_lower_semivariance(6.0, 4.0), rel=1e-10)

    @given(shapes, shapes)
    @settings(max_examples=40)
    def test_decomposition(self, a, b):
        lo, up = semivariances(a, b)
        assert lo + up == pytest.approx(beta_variance(a, b), rel=1e-10)
        assert lo >= 0.0 and up >= 0.0

    def test_large_solved_shapes_against_mpmath(self):
        # The shapes verify --theorem 4 reaches at the top of its ladder.
        for n in [1e7, 1e8]:
            sol = solve_theta_rho(n, 0.9, 0.1, 0.5)
            a, b = sol.theta + n * 0.9, sol.rho + n * (1.0 - 0.9)
            lo, up = semivariances(a, b)
            ref_lo = mp_lower_semivariance(a, b)
            with mpmath.workdps(30):
                ma, mb = mpmath.mpf(a), mpmath.mpf(b)
                ref_up = ma * mb / ((ma + mb) ** 2 * (ma + mb + 1)) - ref_lo
            assert lo == pytest.approx(float(ref_lo), rel=1e-10, abs=0.0), n
            assert up == pytest.approx(float(ref_up), rel=1e-10, abs=0.0), n

    @pytest.mark.parametrize(
        "a, b", SEMIVARIANCE_SHAPES, ids=[f"{a:.4g}:{b:.4g}" for a, b in SEMIVARIANCE_SHAPES]
    )
    def test_both_sides_against_mpmath(self, a, b):
        lo, up = semivariances(a, b)
        ref_lo, ref_up = mp_semivariances(a, b)
        assert abs(lo / ref_lo - 1) <= 1e-14
        assert abs(up / ref_up - 1) <= 1e-14

    def test_incomplete_beta_beyond_the_series(self):
        a, b = 1e11, 2e11
        assert min(a, b) > _SERIES_MAX_SHAPE
        lo, up = semivariances(a, b)
        ref_lo = mp_lower_semivariance(a, b)
        with mpmath.workdps(30):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            ref_up = ma * mb / ((ma + mb) ** 2 * (ma + mb + 1)) - ref_lo
        assert lo == pytest.approx(float(ref_lo), rel=1e-10, abs=0.0)
        assert up == pytest.approx(float(ref_up), rel=1e-10, abs=0.0)

    # Where the mode factor is subnormal, as at most of these shapes, it is
    # carried as a mantissa and a power of two, so that neither it nor the
    # products round to a subnormal, which would drop digits.
    @pytest.mark.parametrize(
        "a, b",
        [(3e-320, 1e-310), (1e-310, 3e-320), (2e-310, 1e-300)]
        + [tuple(x) for x in 10.0 ** np.random.default_rng(7).uniform(-323, -290, (20, 2))],
    )
    def test_deep_subnormal_mode_factor_against_mpmath(self, a, b):
        lo, up = semivariances(a, b)
        ref_lo, ref_up = mp_semivariances(a, b)
        assert abs(lo / ref_lo - 1) <= 1e-15
        assert abs(up / ref_up - 1) <= 1e-15

    # The smaller shape below 2^-900 and above it, the other up to 1e300
    # times larger, in both orders.  The lower side is near a^2 / b: the
    # product of its factors may leave the float range where the result does
    # not, 1e-400 against 1e-300 at (1e-250, 1e-100).  Within 5e-16 where
    # the result is a normal float, within one step where it is subnormal.
    @pytest.mark.parametrize("a, b", _LOPSIDED_TINY_SHAPES)
    def test_products_scaled_by_the_size_of_the_result(self, a, b):
        lo, up = semivariances(a, b)
        for got, ref in zip((lo, up), mp_semivariances(a, b)):
            ref = float(ref)
            bound = 5e-16 * ref if ref >= sys.float_info.min else math.ulp(0.0)
            assert abs(got - ref) <= bound

    @pytest.mark.parametrize("a, b", [(math.inf, 2.0), (2.0, math.inf)])
    def test_infinite_shape_gives_nan(self, a, b):
        assert all(math.isnan(x) for x in semivariances(a, b))

    def test_incomplete_beta_route_at_large_solved_shapes(self):
        lo, _ = semivariances(9e6, 1e6)
        assert lo == pytest.approx(quad_lower_semivariance(9e6, 1e6), rel=1e-6)


class TestVerifyReports:
    ns = [1_000, 10_000, 100_000]

    def test_degenerate_limit(self):
        report = verify_degenerate_limit(0.9, 0.1, 0.5, self.ns)
        assert report.passed
        errs = [r.abs_error for r in report.rows]
        assert errs[0] > errs[1] > errs[2]

    def test_degenerate_limit_rejects_boundary_rate(self):
        rule = 1 - 0.9 + 0.1 * 0.9
        with pytest.raises(DomainError):
            verify_degenerate_limit(0.9, 0.1, rule, self.ns)
        with pytest.raises(DomainError):
            verify_degenerate_limit(0.9, 0.1, 1.0, self.ns)

    def test_scaled_variance(self):
        report = verify_asymptotic_variance(0.9, 0.1, 0.5, self.ns)
        assert report.passed
        assert report.details["limit"] == pytest.approx(0.0279, abs=1e-12)
        assert -1.3 <= report.details["slope"] <= -0.7

    @pytest.mark.parametrize("ns", [[1_000, 10_000, 100_000], [10, 100, 1_000, 10**8, 10**12]])
    def test_scaled_variance_slope_against_mpmath(self, ns):
        report = verify_asymptotic_variance(0.7, 0.2, 0.9, ns)
        with mpmath.workdps(40):
            xs = [mpmath.mpf(math.log10(r.n)) for r in report.rows]
            ys = [mpmath.mpf(math.log10(r.abs_error)) for r in report.rows]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
                (x - mx) ** 2 for x in xs
            )
        assert abs(report.details["slope"] - float(slope)) <= math.ulp(1.0)

    def test_scaled_variance_slope_needs_two_markets(self):
        report = verify_asymptotic_variance(0.9, 0.1, 0.5, [1_000, 1_000])
        assert math.isnan(report.details["slope"])
        assert not report.passed

    def test_mean_response(self):
        report = verify_posterior_mean_expansion(0.9, 0.1, 0.5, self.ns)
        assert report.passed
        assert report.details["coefficient"] == pytest.approx(-0.329, abs=1e-12)
        assert report.details["mean_derivative_in_tau"] < 0.0

    def test_mean_response_needs_majority_employment(self):
        with pytest.raises(DomainError):
            verify_posterior_mean_expansion(0.4, 0.1, 0.7, self.ns)

    def test_mean_response_coefficient_at_half(self):
        # At omega = 1/2 the tax-dependent part of the coefficient vanishes.
        a = verify_posterior_mean_expansion(0.5 + 1e-9, 0.1, 0.7, [10_000])
        assert a.details["coefficient"] == pytest.approx(0.25 * (0.1 - 1.0), abs=1e-6)

    def test_sandwich(self):
        report = verify_semivariance_sandwich(0.9, 0.1, 0.5, self.ns)
        assert report.passed
        lo = report.details["lower_bound"]
        up = report.details["upper_bound"]
        assert lo == pytest.approx((0.5 - 1 / math.sqrt(2 * math.pi)) * 0.0279, rel=1e-12)
        assert up == pytest.approx(0.0279, rel=1e-12)

    def test_mad_ratio(self):
        report = verify_mad_ratio(0.9, 0.1, 0.5, self.ns + [1_000_000])
        assert report.passed
        assert report.details["final_ratio"] == pytest.approx(2 / math.pi, abs=1e-2)

    def test_csv_shape(self):
        report = verify_asymptotic_variance(0.9, 0.1, 0.5, self.ns)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == (
            "n,theta,rho,mean,variance,n_var,lower_semi,upper_semi,mad,target,abs_error"
        )
        assert len(lines) == 1 + len(self.ns)
        # Values round-trip through float().
        for token in lines[1].split(","):
            float(token)

    def test_moment_convergence_detail(self):
        report = verify_degenerate_limit(0.9, 0.1, 0.5, [1_000, 1_000_000])
        for k, err in report.details["moment_errors"].items():
            assert err < 1e-3, k
