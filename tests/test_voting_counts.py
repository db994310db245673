"""Integer weighted voting counted by coalition size and weight.

The count kernel against exact rational counts, 40-digit mpmath enumeration,
the block-view enumeration of a dense twin, the k-out-of-n closed form and
Monte Carlo; and the games just outside it, which keep enumeration.
"""

import math

import mpmath
import numpy as np
import pytest

from dichotomy import dvalue, production
from dichotomy.apps import voting_power
from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    expected_production,
    mc_valuation,
)
from dichotomy.errors import CapacityError
from dichotomy.production import DenseTableGame, KOutOfNGame, WeightedVotingGame

from _oracles import mp_voting_valuation, voting_counts_by_masks

SHAPES = [(2.0, 3.0), (0.7, 0.4), (30.0, 5.0), (0.05, 0.05), (1e6, 1.0), (1.0, 1e6)]
EPS = np.finfo(float).eps

EDGE_GAMES = {
    "zero-weights": ([0, 3, 0, 2, 1], 3),
    "fractional-quota": ([3, 2, 2, 1], 4.5),
    "quota-above-total": ([3, 2, 1], 6.5),
    "quota-at-smallest-weight": ([3, 2, 1], 1),
    "quota-below-smallest-weight": ([3, 2, 4], 0.25),
    "one-player": ([3], 2),
    "one-player-of-weight-zero": ([0], 1),
}


def _random_games(count=40):
    # Weights 0-9, so some players never swing; quotas on the half-integers
    # from 1/2 to past the total weight.
    rng = np.random.default_rng(12)
    games = {}
    for k in range(count):
        n = int(rng.integers(3, 13))
        w = rng.integers(0, 10, n)
        games[f"random-{k}"] = (w.tolist(), int(rng.integers(1, 2 * int(w.sum()) + 3)) / 2)
    return games


GAMES = {**EDGE_GAMES, **_random_games()}


def _relative_error(got, exact) -> float:
    """Largest relative error over the entries; an exact zero must be hit."""
    worst = 0.0
    for x, y in zip(got, exact):
        if y == 0:
            assert x == 0.0
        else:
            worst = max(worst, float(abs(mpmath.mpf(float(x)) - y) / abs(y)))
    return worst


@pytest.mark.parametrize("name", GAMES)
def test_counts_match_rational_masks(name):
    weights, quota = GAMES[name]
    wins, swings = production._voting_counts(WeightedVotingGame(weights, quota))
    exact_wins, exact_swings = voting_counts_by_masks(weights, quota)
    assert wins.tolist() == exact_wins
    assert swings.tolist() == exact_swings


@pytest.mark.parametrize("name", GAMES)
def test_valuation_matches_mpmath_enumeration(name):
    # Gains and losses within 1e-13, and no further off than enumeration of
    # a dense twin, beyond a few roundings: both read the same size pmf.
    weights, quota = GAMES[name]
    game = WeightedVotingGame(weights, quota)
    twin = DenseTableGame(game.n, game.dense_values())
    counts = voting_counts_by_masks(weights, quota)
    for theta, rho in SHAPES:
        model = CoalitionModel(game.n, theta, rho)
        gain, loss, production_, totals = mp_voting_valuation(counts, theta, rho)
        val, enum = exact_valuation(model, game), exact_valuation(model, twin)
        for got, ref, exact in ((val.gain, enum.gain, gain), (val.loss, enum.loss, loss)):
            err = _relative_error(got, exact)
            assert err <= 1e-13
            assert err <= _relative_error(ref, exact) + 4 * EPS
        by_size = dvalue._exact(model, game, players=False)[1]
        assert _relative_error(by_size, totals) <= 1e-13
        assert _relative_error([val.expected_production], [production_]) <= 1e-13
        assert expected_production(model, game) == val.expected_production


@pytest.mark.parametrize("n", [16, 18, 20])
def test_matches_enumeration_of_a_dense_twin(n):
    rng = np.random.default_rng([n, 7])
    w = rng.integers(0, 10, n).astype(float)
    game = WeightedVotingGame(w, float(w.sum() // 2 + 1))
    twin = DenseTableGame(n, game.dense_values())
    for theta, rho in SHAPES:
        model = CoalitionModel(n, theta, rho)
        val, enum = exact_valuation(model, game), exact_valuation(model, twin)
        for got, ref in ((val.gain, enum.gain), (val.loss, enum.loss)):
            assert np.all(got[ref == 0] == 0)
            assert np.all(np.abs(got - ref) <= 1e-15 * ref)
        assert val.expected_production == pytest.approx(enum.expected_production, rel=1e-15)


def test_unit_weights_at_n66_match_k_out_of_n():
    # The largest n whose counts fit int64: C(66, 33) < 2^63.
    n, k = 66, 34
    game = WeightedVotingGame(np.ones(n), k)
    wins, swings = production._voting_counts(game)
    assert wins.tolist() == [math.comb(n, t) if t >= k else 0 for t in range(n + 1)]
    row = [math.comb(n - 1, t) if t == k - 1 else 0 for t in range(n)]
    assert swings.tolist() == [row] * n
    for theta, rho in SHAPES:
        model = CoalitionModel(n, theta, rho)
        val = exact_valuation(model, game)
        ref = exact_valuation(model, KOutOfNGame(n, k))
        np.testing.assert_allclose(val.gain, ref.gain, rtol=1e-14, atol=0)
        np.testing.assert_allclose(val.loss, ref.loss, rtol=1e-14, atol=0)
        assert val.expected_production == pytest.approx(ref.expected_production, rel=1e-14)


def test_monte_carlo_agrees_at_n40():
    n = 40
    rng = np.random.default_rng(40)
    w = rng.integers(1, 10, n).astype(float)
    game = WeightedVotingGame(w, float(w.sum() // 2 + 1))
    model = CoalitionModel(n, 2.0, 3.0)
    val = exact_valuation(model, game)
    mc = mc_valuation(model, game, 100_000, seed=2024)
    assert np.all(np.abs(mc.gain - val.gain) <= 5 * mc.gain_se)
    assert np.all(np.abs(mc.loss - val.loss) <= 5 * mc.loss_se)
    assert abs(mc.expected_production - val.expected_production) <= 5 * mc.expected_production_se
    assert aggregate_gain_closed_form(model, game) == pytest.approx(val.aggregate_gain, rel=1e-10)
    assert aggregate_loss_closed_form(model, game) == pytest.approx(val.aggregate_loss, rel=1e-10)


@pytest.mark.parametrize("n", [12, 30, 66])
def test_counted_games_build_no_table(n, monkeypatch):
    def refuse(game):
        raise AssertionError("dense_values called")

    monkeypatch.setattr(WeightedVotingGame, "dense_values", refuse)
    w = np.random.default_rng(n).integers(1, 10, n).astype(float)
    game = WeightedVotingGame(w, float(w.sum() // 2 + 1))
    model = CoalitionModel(n, 2.0, 3.0)
    val = exact_valuation(model, game)
    expected_production(model, game)
    aggregate_gain_closed_form(model, game)
    aggregate_loss_closed_form(model, game)
    power = voting_power(model, game).power
    assert power.tobytes() == (val.gain + val.loss).tobytes()


def test_n67_is_beyond_every_exact_path():
    game = WeightedVotingGame(np.ones(67), 34)
    assert production._voting_counts(game) is None
    with pytest.raises(CapacityError, match="enumeration"):
        exact_valuation(CoalitionModel(67, 1.0, 1.0), game)


@pytest.mark.parametrize(
    "weights, quota, counted",
    [
        # (n + 1) x quota cells: exactly 2^22, then one column more.
        ([2.0**20] * 3, 2.0**20, True),
        ([2.0**20] * 3, 2.0**20 + 0.5, False),
        ([0.5, 1.5, 2.0], 2.0, False),  # not integers
    ],
)
def test_games_outside_the_counts_keep_enumeration(weights, quota, counted, monkeypatch):
    game = WeightedVotingGame(weights, quota)
    assert (production._voting_counts(game) is not None) == counted
    builds = []
    build = WeightedVotingGame.dense_values
    monkeypatch.setattr(
        WeightedVotingGame, "dense_values", lambda g: builds.append(1) or build(g)
    )
    model = CoalitionModel(game.n, 2.0, 3.0)
    val = exact_valuation(model, game)
    assert len(builds) == (0 if counted else 1)
    if not counted:
        enum = exact_valuation(model, DenseTableGame(game.n, build(game)))
        assert val.gain.tobytes() == enum.gain.tobytes()
        assert val.loss.tobytes() == enum.loss.tobytes()
        assert val.expected_production == enum.expected_production
