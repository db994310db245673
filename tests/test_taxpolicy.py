
import numpy as np
import pytest
from hypothesis import given, strategies as st

from dichotomy.errors import DomainError, SingularSystemError
from dichotomy.taxpolicy import (
    asymptotic_tax_rule,
    corrected_tax_rule,
    delta_shorthands,
    probe_columns,
    solve_theta_rho,
    tax_rate_from_benefits,
    tax_rate_from_welfare,
)

rates = st.floats(min_value=0.01, max_value=0.99)
taus = st.floats(min_value=0.0, max_value=1.0)
reserves = st.floats(min_value=-0.95, max_value=0.95)


class TestShorthands:
    def test_direct_substitution(self):
        assert delta_shorthands(0.9, 0.5, 0.1).d == pytest.approx(0.31, abs=1e-12)

    def test_vanishes_on_the_rule_line(self):
        for omega, delta in [(0.9, 0.1), (0.6, 0.25), (0.97, 0.02)]:
            sh = delta_shorthands(omega, asymptotic_tax_rule(omega, delta), delta)
            assert abs(sh.d) <= 1e-15

    @given(rates, taus, reserves)
    def test_linear_identities(self, w, t, e):
        sh = delta_shorthands(w, t, e)
        assert sh.d1 == pytest.approx(1.0 - sh.d, abs=1e-12)
        assert sh.d5 == pytest.approx(sh.d2 + sh.d4, abs=1e-12)
        assert sh.d6 == pytest.approx(sh.d2 + w * sh.d3, abs=1e-12)
        assert sh.d7 == pytest.approx(sh.d4 + (1.0 - w) * sh.d3, abs=1e-12)
        assert sh.d8 == pytest.approx(sh.d3 + sh.d5, abs=1e-12)
        assert sh.d9 == pytest.approx(sh.d + sh.d8, abs=1e-12)
        assert sh.d3 == pytest.approx((1.0 - t) * (e - t), abs=1e-12)


class TestRateIdentities:
    def test_small_market_can_leave_the_unit_interval(self):
        assert tax_rate_from_benefits(2, 1, 1.0, 1.0) == pytest.approx(2.0)

    def test_welfare_rate_is_affine_in_reserve(self):
        base = tax_rate_from_welfare(50, 30, 2.0, 3.0, 0.0)
        assert tax_rate_from_welfare(50, 30, 2.0, 3.0, 0.2) == pytest.approx(base + 0.2)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            tax_rate_from_benefits(10, 0, 1.0, 1.0)
        with pytest.raises(DomainError):
            tax_rate_from_benefits(10, 10, 1.0, 1.0)

    def test_singularities_are_loud(self):
        with pytest.raises(SingularSystemError):
            tax_rate_from_benefits(10, 5, 1.0, -4.0)
        with pytest.raises(SingularSystemError):
            tax_rate_from_welfare(10, 5, -4.0, 1.0, 0.1)

    def test_benefits_numerator_is_affine_in_count(self):
        # (1 - tau) * (rho + n - s - 1) must have vanishing second difference.
        n, th, rh = 60, 2.3, 4.1
        g = []
        for s in range(10, 20):
            tau = tax_rate_from_benefits(n, s, th, rh)
            g.append((1.0 - tau) * (rh + n - s - 1.0))
        second = np.diff(g, n=2)
        assert np.all(np.abs(second) <= 1e-9)


class TestSolver:
    def test_reference_point(self):
        sol = solve_theta_rho(10_000, 0.9, 0.1, 0.5)
        assert sol.valid
        assert sol.theta > 0 and sol.rho > 0
        assert sol.residual_benefits <= 1e-9
        assert sol.residual_welfare <= 1e-9

    @given(
        st.floats(min_value=2.0, max_value=6.0),
        rates,
        st.floats(min_value=0.01, max_value=0.9),
        taus,
    )
    def test_round_trip(self, log_n, omega, delta, tau):
        n = 10.0**log_n
        sh = delta_shorthands(omega, tau, delta)
        if sh.d <= 0.01:
            return
        sol = solve_theta_rho(n, omega, delta, tau)
        assert sol.residual_benefits <= 1e-9
        assert sol.residual_welfare <= 1e-9

    def test_intermediate_identities(self):
        # theta + s - 1 and rho + n - s - 1 in terms of the shorthands.
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = float(rng.integers(100, 1_000_000))
            omega = float(rng.uniform(0.1, 0.9))
            delta = float(rng.uniform(0.02, 0.8))
            tau = float(rng.uniform(0.0, 1.0))
            sh = delta_shorthands(omega, tau, delta)
            den = n * sh.d + sh.d3
            if abs(den) < 1.0:
                continue
            sol = solve_theta_rho(n, omega, delta, tau)
            s = n * omega
            lhs1 = sol.theta + s - 1.0
            rhs1 = (n * n * omega + n * omega * (tau - 1.0)) / den
            lhs2 = sol.rho + n - s - 1.0
            rhs2 = (n * n * (1 - omega) + n * (1 - omega) * (tau - delta)) / den
            assert lhs1 == pytest.approx(rhs1, rel=1e-9)
            assert lhs2 == pytest.approx(rhs2, rel=1e-9)

    def test_sign_matches_d_for_large_markets(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = 10.0 ** rng.uniform(6, 8)
            omega = float(rng.uniform(0.05, 0.95))
            delta = float(rng.uniform(0.01, 0.9))
            tau = float(rng.uniform(0.0, 1.0))
            sh = delta_shorthands(omega, tau, delta)
            if abs(sh.d) < 0.01:
                continue
            sol = solve_theta_rho(n, omega, delta, tau)
            assert (sol.theta > 0) == (sh.d > 0)
            assert (sol.rho > 0) == (sh.d > 0)

    def test_hyperparameters_scale_linearly_in_n(self):
        omega, delta, tau = 0.9, 0.1, 0.5
        sh = delta_shorthands(omega, tau, delta)
        t_lim = omega * sh.d1 / sh.d
        r_lim = (1 - omega) * sh.d1 / sh.d
        errs_t, errs_r = [], []
        for n in (1e3, 1e5, 1e7):
            sol = solve_theta_rho(n, omega, delta, tau)
            errs_t.append(abs(sol.theta / n - t_lim))
            errs_r.append(abs(sol.rho / n - r_lim))
        assert errs_t[0] > errs_t[1] > errs_t[2]
        assert errs_r[0] > errs_r[1] > errs_r[2]

    def test_singular_band_raises(self):
        omega, delta, n = 0.9, 0.1, 10_000.0
        # Solve n*d(tau) + d3(tau) = 0 for tau by bisection to land in the band.
        def den(tau):
            sh = delta_shorthands(omega, tau, delta)
            return n * sh.d + sh.d3
        lo, hi = asymptotic_tax_rule(omega, delta), 0.3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if den(lo) * den(mid) <= 0:
                hi = mid
            else:
                lo = mid
        with pytest.raises(SingularSystemError):
            solve_theta_rho(n, omega, delta, 0.5 * (lo + hi))

    def test_rule_line_is_infeasible_not_singular(self):
        sol = solve_theta_rho(10_000, 0.9, 0.1, asymptotic_tax_rule(0.9, 0.1))
        assert not sol.valid
        assert sol.theta < 0 and sol.rho < 0


class TestRules:
    def test_rule_values(self):
        assert asymptotic_tax_rule(0.95, 0.2) == pytest.approx(0.24, abs=1e-12)

    def test_full_employment_no_reserve_limit(self):
        assert asymptotic_tax_rule(1 - 1e-9, 0.0) == pytest.approx(0.0, abs=1e-8)

    def test_corrected_rule_approaches_asymptotic(self):
        base = asymptotic_tax_rule(0.9, 0.1)
        assert corrected_tax_rule(1e12, 0.9, 0.1) == pytest.approx(base, abs=1e-10)
        assert corrected_tax_rule(100, 0.9, 0.1) > base

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_doubled_correction_gives_positive_hyperparameters(self, n):
        tau = corrected_tax_rule(n, 0.9, 0.1, scale=2.0)
        sol = solve_theta_rho(n, 0.9, 0.1, tau)
        assert sol.theta >= 1.0 / n and sol.rho >= 1.0 / n

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_single_correction_fails_above_half_employment(self, n):
        tau = corrected_tax_rule(n, 0.9, 0.1, scale=1.0)
        sol = solve_theta_rho(n, 0.9, 0.1, tau)
        assert sol.theta < 0 and sol.rho < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_tax_rule(1.0, 0.1)
        with pytest.raises(DomainError):
            asymptotic_tax_rule(0.5, 1.0)


class TestProbe:
    def test_empty_grid(self):
        cols = probe_columns(1000, 0.5, 0.1, [])
        assert cols.tau.size == cols.theta.size == cols.singular.size == 0

    def test_bracketing_marks_exactly_one_cell(self):
        rule = asymptotic_tax_rule(0.9, 0.1)
        grid = np.linspace(rule - 0.01, rule + 0.01, 21)
        cols = probe_columns(10_000, 0.9, 0.1, grid)
        assert cols.singular.sum() == 1

    def test_validity_follows_the_positive_side(self):
        n = 10_000
        cols = probe_columns(n, 0.7, 0.1, np.linspace(0.0, 1.0, 41))
        sh = cols.shorthands
        for i in range(cols.tau.size):
            if cols.singular[i]:
                continue
            if abs(n * sh.d[i] + sh.d3[i]) <= 1.0:
                continue
            assert cols.valid[i] == (sh.d[i] > 0 and cols.theta[i] > 0)

    def test_residual_past_the_float_range_in_longdouble_is_taken_exactly(self):
        # The longdouble benefits misfit here is 3.5e597, its cancellation
        # lost: scaled by |tau| it still leaves the float range, where the
        # exact residual is 2.5e303.  Both residuals of such a cell are those
        # of the exact solve.
        cell = (1.7e308, 0.9951489077383906, 1e308, -484393.7620065268)
        cols = probe_columns(*cell[:3], [cell[3]])
        sol = solve_theta_rho(*cell)
        assert sol.residual_benefits == 2.545327092427583e303
        assert (cols.theta[0], cols.rho[0]) == (sol.theta, sol.rho)
        assert cols.residual_benefits[0] == sol.residual_benefits
        assert cols.residual_welfare[0] == sol.residual_welfare
