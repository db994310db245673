import json
from functools import partial

import numpy as np
import pytest

from dichotomy.apps import (
    LinearCurve,
    PowerCurve,
    TableCurve,
    TollScenario,
    cost_curve_from_json_dict,
    highway_toll,
    insurance_premium,
    load_toll_scenario,
    outcome_shares,
    voting_power,
)
from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import exact_valuation, mc_valuation
from dichotomy.errors import DomainError
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    WeightedVotingGame,
)
from dichotomy.taxpolicy import asymptotic_tax_rule


class TestOutcomeShares:
    def test_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            s = int(rng.integers(1, n))
            tau = float(rng.uniform(0, 1))
            delta = float(rng.uniform(-0.5, 0.9))
            v = float(rng.uniform(0, 100))
            sh = outcome_shares(n, s, tau, delta, v)
            total = s * sh.per_employed + (n - s) * sh.per_unemployed + sh.reserve
            assert total == pytest.approx(v, rel=1e-12, abs=1e-12)

    def test_equal_shares_on_the_rule(self):
        n, s, delta = 20, 14, 0.15
        tau = asymptotic_tax_rule(s / n, delta)
        sh = outcome_shares(n, s, tau, delta, 37.5)
        assert sh.per_employed == pytest.approx(sh.per_unemployed, abs=1e-12)

    def test_above_the_rule_favors_the_unemployed(self):
        n, s, delta = 20, 14, 0.15
        tau = asymptotic_tax_rule(s / n, delta) + 0.05
        sh = outcome_shares(n, s, tau, delta, 37.5)
        assert sh.per_unemployed > sh.per_employed

    def test_zero_production(self):
        sh = outcome_shares(10, 4, 0.3, 0.1, 0.0)
        assert sh.per_employed == sh.per_unemployed == sh.reserve == 0.0

    def test_needs_both_sides(self):
        with pytest.raises(DomainError):
            outcome_shares(10, 0, 0.3, 0.1, 1.0)
        with pytest.raises(DomainError):
            outcome_shares(10, 10, 0.3, 0.1, 1.0)


class TestVotingPower:
    def test_symmetric_majority_is_egalitarian(self):
        model = CoalitionModel(5, 1.0, 1.0)
        report = voting_power(model, KOutOfNGame(5, 3))
        assert np.ptp(report.power) <= 1e-12

    def test_dictator_takes_all(self):
        model = CoalitionModel(4, 1.3, 0.8)
        game = WeightedVotingGame([1, 0, 0, 0], 1)
        report = voting_power(model, game)
        assert report.power[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(report.power[1:] == pytest.approx(0.0, abs=1e-14))
        val = report.valuation
        # Gain is the chance of being the employed pivot, loss the reverse.
        assert val.gain[0] == pytest.approx(model.prior_mean, rel=1e-10)
        assert val.loss[0] == pytest.approx(1 - model.prior_mean, rel=1e-10)

    def test_component_systems_value_components_equally(self):
        model = CoalitionModel(7, 2.0, 5.0)
        report = voting_power(model, KOutOfNGame(7, 4))
        assert np.ptp(report.power) <= 1e-12

    def test_monte_carlo_agrees(self):
        model = CoalitionModel(5, 1.0, 1.0)
        exact = voting_power(model, KOutOfNGame(5, 3))
        mc = voting_power(model, KOutOfNGame(5, 3), partial(mc_valuation, samples=200_000, seed=4))
        se = mc.valuation.gain_se + mc.valuation.loss_se
        assert np.all(np.abs(mc.power - exact.power) <= 4 * se)

    @pytest.mark.parametrize(
        "valuation", [None, partial(mc_valuation, samples=2000, seed=0)], ids=["exact", "mc"]
    )
    def test_power_is_float64(self, valuation):
        # The CLI prints power.tolist(): an integer array would print ints.
        model = CoalitionModel(5, 1.0, 1.0)
        report = voting_power(model, WeightedVotingGame([3, 1, 2, 2, 1], 5), valuation)
        assert report.power.dtype == np.float64

    def test_rejects_non_binary_games(self):
        model = CoalitionModel(3, 1.0, 1.0)
        with pytest.raises(DomainError):
            voting_power(model, AdditiveGame([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("n", [3, 30])
    @pytest.mark.parametrize(
        "head, binary",
        [([1.0], True), ([1.0, 1.0], False), ([0.5], False)],
        ids=["one-dictator", "two-ones", "half"],
    )
    def test_additive_games_are_decided_from_their_values(self, n, head, binary):
        # No table at any n: binary exactly when at most one value is 1 and
        # the rest are 0.
        model = CoalitionModel(n, 1.3, 0.8)
        game = AdditiveGame(head + [0.0] * (n - len(head)))
        if not binary:
            with pytest.raises(DomainError, match=r"must take values in \{0,1\}"):
                voting_power(model, game)
            return
        report = voting_power(model, game)
        assert report.power[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(report.power[1:] == 0.0)
        if n == 3:
            twin = voting_power(model, DenseTableGame(n, game.dense_values()))
            np.testing.assert_allclose(report.power, twin.power, rtol=1e-14, atol=0)

    def test_rejects_non_monotone_games(self):
        model = CoalitionModel(2, 1.0, 1.0)
        # Player 1 alone passes but the full set blocks.
        with pytest.raises(DomainError):
            voting_power(model, DenseTableGame(2, [0, 1, 0, 0]))

    def test_valuation_function_runs_after_the_voting_check(self):
        calls = []

        def valuation(model, game):
            calls.append((model, game))
            return exact_valuation(model, game)

        with pytest.raises(DomainError, match="monotone"):
            voting_power(CoalitionModel(2, 1.0, 1.0), DenseTableGame(2, [0, 1, 0, 0]), valuation)
        assert calls == []
        model, game = CoalitionModel(5, 1.3, 0.8), KOutOfNGame(5, 3)
        report = voting_power(model, game, valuation)
        assert len(calls) == 1 and calls[0][0] is model and calls[0][1] is game
        assert report.power.tobytes() == voting_power(model, game).power.tobytes()


class TestInsurance:
    def test_toy_pool(self):
        # Two policyholders, unit claim each when ill, uniform prior.
        model = CoalitionModel(2, 1.0, 1.0)
        game = AdditiveGame([1.0, 1.0])
        quote = insurance_premium(model, game, surcharge=0.1)
        assert quote.expected_cost == pytest.approx(1.0, rel=1e-12)
        assert quote.premium_per_policyholder == pytest.approx(0.55, rel=1e-12)

    def test_no_surcharge(self):
        model = CoalitionModel(6, 2.0, 4.0)
        game = KOutOfNGame(6, 2)
        quote = insurance_premium(model, game, surcharge=0.0)
        assert quote.premium_per_policyholder == pytest.approx(
            quote.expected_cost / 6.0, rel=1e-12
        )

    def test_total_billed_definition(self):
        model = CoalitionModel(4, 1.0, 2.0)
        quote = insurance_premium(model, AdditiveGame([2, 1, 1, 3]), surcharge=0.25)
        assert quote.total_billed == pytest.approx(1.25 * quote.expected_cost, rel=1e-14)
        assert quote.premium_per_policyholder * 4 == pytest.approx(
            quote.total_billed, rel=1e-14
        )

    def test_negative_surcharge_rejected(self):
        with pytest.raises(DomainError):
            insurance_premium(CoalitionModel(2, 1, 1), AdditiveGame([1, 1]), -0.1)


class TestHighwayToll:
    def test_quadratic_cost(self):
        result = highway_toll(TollScenario(100, 0.4, PowerCurve(2.0)))
        assert result.toll == pytest.approx(3600.0, rel=1e-14)
        assert result.identity_residual <= 1e-12 * max(1.0, result.per_driver_cost)

    def test_linear_cost_closed_form(self):
        result = highway_toll(TollScenario(50, 0.3, LinearCurve(2.5)))
        assert result.toll == pytest.approx(2.5 * 50 * 0.7, rel=1e-14)

    def test_no_solo_drivers(self):
        g = PowerCurve(1.5, 0.8)
        result = highway_toll(TollScenario(80, 0.0, g))
        assert result.toll == pytest.approx(g(80), rel=1e-14)
        assert result.production_value == pytest.approx(0.0, abs=1e-10)

    def test_tabulated_curve(self):
        g = TableCurve([0, 50, 100, 200], [0.0, 1.0, 3.0, 10.0])
        result = highway_toll(TollScenario(100, 0.4, g))
        assert result.toll == pytest.approx(np.interp(60, [0, 50, 100, 200], [0, 1, 3, 10]))
        assert result.identity_residual <= 1e-12
        assert result.metadata["interpolation"] == "piecewise-linear"

    def test_tabulated_range_is_enforced(self):
        g = TableCurve([50, 100], [1.0, 2.0])
        with pytest.raises(DomainError):
            highway_toll(TollScenario(300, 0.4, g))

    def test_decreasing_table_rejected(self):
        with pytest.raises(DomainError):
            TableCurve([0, 1, 2], [1.0, 0.5, 2.0])

    def test_scenario_file(self, tmp_path):
        path = tmp_path / "toll.json"
        path.write_text(
            json.dumps({"n": 100, "omega": 0.4, "g": {"type": "power", "exponent": 2}})
        )
        result = highway_toll(load_toll_scenario(str(path)))
        assert result.toll == pytest.approx(3600.0)

    def test_linear_is_the_unit_power_curve(self):
        g = LinearCurve(2.5)
        assert isinstance(g, PowerCurve)
        assert g.slope == 2.5
        assert g.metadata() == {"type": "linear", "slope": 2.5}
        for v in (0.0, 1.0, 0.1, 35.0, 1e300):
            assert g(v) == PowerCurve(1.0, 2.5)(v) == 2.5 * v

    @pytest.mark.parametrize(
        "g", [PowerCurve(2.0), LinearCurve(1.0), TableCurve([-5, 5], [0.0, 1.0])],
        ids=lambda g: g.metadata()["type"],
    )
    def test_negative_volume_rejected(self, g):
        with pytest.raises(DomainError, match="non-negative"):
            g(-1.0)

    def test_curve_spec_validation(self):
        with pytest.raises(DomainError):
            cost_curve_from_json_dict({"type": "mystery"})
        with pytest.raises(DomainError):
            cost_curve_from_json_dict({"type": "table", "x": [0, 1]})
