"""Acceptance suite.

One test per release criterion, each printing a single PASS line with the
measured margin so the suite doubles as a report.  Tolerances are fixed
here, not tuned at run time.
"""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from dichotomy.apps import (
    PowerCurve,
    TableCurve,
    TollScenario,
    highway_toll,
    insurance_premium,
    outcome_shares,
    voting_power,
)
from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    mc_valuation,
)
from dichotomy.posterior import (
    beta_mean,
    beta_variance,
    mad_about_mean,
    verify_asymptotic_variance,
    verify_degenerate_limit,
    verify_posterior_mean_expansion,
    verify_semivariance_sandwich,
)
from dichotomy.production import (
    AdditiveGame,
    KOutOfNGame,
    random_dense_game,
    random_monotone_game,
    uniformly_outperforms,
)
from dichotomy.taxpolicy import (
    asymptotic_tax_rule,
    corrected_tax_rule,
    delta_shorthands,
    solve_theta_rho,
)

from _oracles import quad_mad

N_LADDER = [1_000, 10_000, 100_000, 1_000_000]


def _announce(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {message}")


def test_c01_aggregate_closed_forms_match_enumeration():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        game = random_dense_game(n, rng)
        for _ in range(5):
            model = CoalitionModel(
                n, float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0))
            )
            val = exact_valuation(model, game)
            ag = aggregate_gain_closed_form(model, game)
            al = aggregate_loss_closed_form(model, game)
            rel_g = abs(ag - val.aggregate_gain) / max(1.0, abs(val.aggregate_gain))
            rel_l = abs(al - val.aggregate_loss) / max(1.0, abs(val.aggregate_loss))
            worst = max(worst, rel_g, rel_l)
            assert rel_g <= 1e-10
            assert rel_l <= 1e-10
    _announce(1, f"closed-form aggregates match enumerated sums (worst rel {worst:.2e})")


def test_c02_solver_round_trip_and_shorthand_identities():
    rng = np.random.default_rng(202)
    done = 0
    worst_res = 0.0
    worst_id = 0.0
    while done < 1000:
        n = 10.0 ** rng.uniform(2, 6)
        omega = float(rng.uniform(0.05, 0.95))
        delta = float(rng.uniform(0.01, 0.95))
        tau = float(rng.uniform(0.0, 1.0))
        sh = delta_shorthands(omega, tau, delta)
        if sh.d <= 0.01:
            continue
        done += 1
        sol = solve_theta_rho(n, omega, delta, tau)
        worst_res = max(worst_res, sol.residual_benefits, sol.residual_welfare)
        assert sol.residual_benefits <= 1e-9
        assert sol.residual_welfare <= 1e-9
        ids = (
            sh.d1 - (1.0 - sh.d),
            sh.d5 - (sh.d2 + sh.d4),
            sh.d6 - (sh.d2 + omega * sh.d3),
            sh.d7 - (sh.d4 + (1.0 - omega) * sh.d3),
            sh.d8 - (sh.d3 + sh.d5),
            sh.d9 - (sh.d + sh.d8),
            sh.d3 - (1.0 - tau) * (delta - tau),
        )
        worst_id = max(worst_id, max(abs(x) for x in ids))
        assert all(abs(x) <= 1e-12 for x in ids)
    _announce(
        2,
        f"1000 round trips: residual <= {worst_res:.2e}, identities <= {worst_id:.2e}",
    )


def test_c03_feasible_region_sits_on_the_positive_side():
    n, delta = 10_000.0, 0.1
    checked = 0
    for omega in np.linspace(0.05, 0.95, 19):
        for tau in np.linspace(0.0, 1.0, 81):
            sh = delta_shorthands(float(omega), float(tau), delta)
            den = n * sh.d + sh.d3
            if abs(den) <= 1.0:
                continue
            sol = solve_theta_rho(n, float(omega), delta, float(tau))
            assert (sol.theta > 0 and sol.rho > 0) == (sh.d > 0), (omega, tau)
            checked += 1
    _announce(3, f"positivity matches the d > 0 side on {checked} grid cells")


def test_c04_posterior_degenerates_at_the_observed_rate():
    report = verify_degenerate_limit(0.9, 0.1, 0.5, N_LADDER)
    errs = [r.abs_error for r in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    variances = [r.variance for r in report.rows]
    assert all(b < a for a, b in zip(variances, variances[1:]))
    assert all(err <= 1e-3 for err in report.details["moment_errors"].values())
    assert report.passed
    _announce(
        4,
        f"mean error falls {errs[0]:.1e} -> {errs[-1]:.1e}; "
        f"moment errors <= {max(report.details['moment_errors'].values()):.1e}",
    )


def test_c05_scaled_variance_limit_and_refined_rule():
    report = verify_asymptotic_variance(0.9, 0.1, 0.5, N_LADDER)
    assert report.passed
    assert report.details["limit"] == pytest.approx(0.0279, abs=1e-12)
    assert -1.3 <= report.details["slope"] <= -0.7
    assert abs(report.rows[-1].n_var - 0.0279) <= 1e-5

    omega, delta, n = 0.9, 0.1, 1_000_000
    tau = corrected_tax_rule(n, omega, delta, scale=2.0)
    sol = solve_theta_rho(n, omega, delta, tau)
    a, b = sol.theta + n * omega, sol.rho + n * (1 - omega)
    got = n * n * beta_variance(a, b)
    target = (omega * (1 - omega) * (1 - delta)) ** 2
    assert abs(got - target) <= 0.10 * target
    _announce(
        5,
        f"n*Var -> 0.0279 (slope {report.details['slope']:.3f}); doubled "
        f"correction lands within {abs(got - target) / target:.1e} of its expansion",
    )


def test_c06_semivariance_sandwich_at_three_spreads():
    margins = []
    for tau, spread in [(0.29, 0.1), (0.49, 0.3), (0.69, 0.5)]:
        report = verify_semivariance_sandwich(0.9, 0.1, tau, [1_000_000])
        assert report.passed
        row = report.rows[-1]
        assert report.details["upper_bound"] == pytest.approx(0.09 * spread, rel=1e-9)
        margins.append(1e6 * row.lower_semi / report.details["upper_bound"])
    _announce(
        6,
        "scaled lower semivariance inside the sandwich at spreads 0.1/0.3/0.5 "
        f"(ratios to upper bound: {', '.join(f'{m:.3f}' for m in margins)})",
    )


def test_c07_mean_falls_as_the_rate_rises():
    delta, n_mono, n_coef = 0.1, 100_000, 1_000_000
    for omega in (0.6, 0.75, 0.9):
        rule = asymptotic_tax_rule(omega, delta)
        span = 1.0 - rule
        taus = np.linspace(rule + 0.02 * span, 1.0 - 0.02 * span, 20)
        means = []
        for tau in taus:
            sol = solve_theta_rho(n_mono, omega, delta, float(tau))
            means.append(beta_mean(sol.theta + n_mono * omega, sol.rho + n_mono * (1 - omega)))
        assert all(b < a for a, b in zip(means, means[1:])), omega
        report = verify_posterior_mean_expansion(omega, delta, float(taus[10]), [n_coef])
        assert report.passed
    _announce(7, "posterior mean strictly decreasing in the rate; slope matches to 5%")


def test_c08_mad_closed_form_and_ratio_limit():
    ratio = mad_about_mean(1e4, 1e4) ** 2 / beta_variance(1e4, 1e4)
    assert abs(ratio - 2.0 / math.pi) <= 1e-3

    n, omega, delta, tau = 1_000_000, 0.9, 0.1, 0.5
    sol = solve_theta_rho(n, omega, delta, tau)
    a, b = sol.theta + n * omega, sol.rho + n * (1 - omega)
    solved_ratio = mad_about_mean(a, b) ** 2 / beta_variance(a, b)
    assert abs(solved_ratio - 2.0 / math.pi) <= 1e-2

    worst = 0.0
    for (aa, bb) in [(30.0, 30.0), (30.0, 500.0), (57.0, 123.0), (400.0, 1100.0), (2000.0, 3000.0)]:
        rel = abs(mad_about_mean(aa, bb) - quad_mad(aa, bb)) / quad_mad(aa, bb)
        worst = max(worst, rel)
        assert rel <= 1e-9, (aa, bb)
    _announce(
        8,
        f"MAD^2/Var within {abs(ratio - 2 / math.pi):.1e} of 2/pi; closed form "
        f"matches quadrature to {worst:.1e}",
    )


def test_c09_outperformance_orders_the_valuation():
    rng = np.random.default_rng(909)
    games = 0
    pairs_checked = 0
    while games < 200:
        n = int(rng.integers(3, 11))
        game = random_monotone_game(n, rng)
        model = CoalitionModel(
            n, float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0))
        )
        val = exact_valuation(model, game)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            if not uniformly_outperforms(game, i, j):
                continue
            pairs_checked += 1
            tol_g = 1e-12 * max(1.0, abs(val.gain[i - 1]), abs(val.gain[j - 1]))
            tol_l = 1e-12 * max(1.0, abs(val.loss[i - 1]), abs(val.loss[j - 1]))
            assert val.gain[i - 1] >= val.gain[j - 1] - tol_g, (games, i, j)
            assert val.loss[i - 1] >= val.loss[j - 1] - tol_l, (games, i, j)
        games += 1
    _announce(9, f"zero ordering violations across {pairs_checked} outperforming pairs")


def test_c10_equal_shares_exactly_on_the_rule():
    n = 20
    deltas = (-0.3, 0.0, 0.1, 0.25, 0.5)
    points = 0
    for s in range(1, n):
        omega = s / n
        for delta in deltas:
            rule = asymptotic_tax_rule(omega, delta)
            taus = list(np.linspace(0.0, 1.0, 11)) + [rule]
            for tau in taus:
                sh = outcome_shares(n, s, float(tau), delta, 37.5)
                scale = max(1.0, abs(sh.per_employed), abs(sh.per_unemployed))
                equal = abs(sh.per_employed - sh.per_unemployed) <= 1e-12 * scale
                on_rule = abs(tau - rule) <= 1e-12
                assert equal == on_rule, (s, delta, tau)
                points += 1
    _announce(10, f"per-capita equality holds exactly on the rule line ({points} points)")


def test_c11_applications():
    model5 = CoalitionModel(5, 1.0, 1.0)
    exact_majority = voting_power(model5, KOutOfNGame(5, 3))
    assert np.ptp(exact_majority.power) <= 1e-12
    model7 = CoalitionModel(7, 2.0, 3.0)
    assert np.ptp(voting_power(model7, KOutOfNGame(7, 4)).power) <= 1e-12

    mc = voting_power(model5, KOutOfNGame(5, 3), partial(mc_valuation, samples=200_000, seed=11))
    se = mc.valuation.gain_se + mc.valuation.loss_se
    for i in range(5):
        for j in range(i + 1, 5):
            assert abs(mc.power[i] - mc.power[j]) <= 4.0 * (se[i] + se[j])

    quad = highway_toll(TollScenario(100, 0.4, PowerCurve(2.0)))
    assert quad.toll == pytest.approx(3600.0, rel=1e-12)
    assert quad.identity_residual <= 1e-12 * max(1.0, quad.per_driver_cost)
    table = highway_toll(
        TollScenario(100, 0.4, TableCurve([0, 50, 100, 150], [0.0, 2.0, 5.0, 9.5]))
    )
    assert table.identity_residual <= 1e-12

    pool = insurance_premium(CoalitionModel(2, 1.0, 1.0), AdditiveGame([1.0, 1.0]), 0.1)
    assert pool.expected_cost == pytest.approx(1.0, rel=1e-12)
    assert pool.premium_per_policyholder == pytest.approx(0.55, rel=1e-12)
    _announce(11, "voting power egalitarian, toll identity exact, toy premium exact")


def test_c12_monte_carlo_oracle_suite():
    rng = np.random.default_rng(1212)
    cells = 0
    misses = 0
    for g in range(5):
        game = random_dense_game(10, rng)
        model = CoalitionModel(
            10, float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))
        )
        exact = exact_valuation(model, game)
        mc = mc_valuation(model, game, 1_000_000, seed=100 + g)
        for i in range(10):
            cells += 2
            misses += abs(mc.gain[i] - exact.gain[i]) > 4 * mc.gain_se[i]
            misses += abs(mc.loss[i] - exact.loss[i]) > 4 * mc.loss_se[i]
    assert misses <= 0.01 * cells, f"{misses} of {cells} cells outside 4 SE"

    model = CoalitionModel(6, 1.5, 2.5)
    game = random_dense_game(6, np.random.default_rng(77))
    a = mc_valuation(model, game, 200_000, seed=42)
    b = mc_valuation(model, game, 200_000, seed=42)
    assert a.to_json_dict() == b.to_json_dict()
    _announce(
        12,
        f"{cells - misses}/{cells} estimator cells within 4 SE; reruns identical",
    )
