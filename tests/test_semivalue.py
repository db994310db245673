"""gain + loss is a semivalue, and at theta = rho = 1 the Shapley value.

P(S = T + i) + P(S = T) = B(theta + t, rho + n - 1 - t) / B(theta, rho) for
|T| = t, since B(a + 1, b) + B(a, b + 1) = B(a, b).  So gain_i + loss_i
weighs each marginal v(T + i) - v(T) by a Beta-binomial weight of |T| over
the n - 1 others; at theta = rho = 1 that weight is 1 / (n C(n - 1, t)),
the Shapley weight.  Each exact path is checked against the Shapley value
from all n! orders, and the sum over players against v(N) (efficiency).
"""

import numpy as np
import pytest

from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import exact_valuation
from dichotomy.production import (
    KOutOfNGame,
    WeightedVotingGame,
    _voting_counts,
    random_dense_game,
    random_monotone_game,
)

from _oracles import shapley_by_permutations

_VOTING = WeightedVotingGame([4, 3, 3, 2, 1, 1, 5], 10)

GAMES = {
    "random-table": random_dense_game(6, np.random.default_rng(31)),
    "monotone-table": random_monotone_game(7, np.random.default_rng(32)),
    "voting-counted": _VOTING,
    "k-of-n": KOutOfNGame(7, 4),
}


@pytest.mark.parametrize("name", GAMES)
def test_gain_plus_loss_is_the_shapley_value_at_a_uniform_prior(name):
    game = GAMES[name]
    n = game.n
    table = game.dense_values()
    val = exact_valuation(CoalitionModel(n, 1.0, 1.0), game)
    want = shapley_by_permutations(n, lambda mask: table[mask])
    scale = max(1.0, float(np.abs(table).max()))
    assert np.all(np.abs(val.gain + val.loss - want) <= 1e-14 * scale)
    # Efficiency: the values share out v(N) - v(empty), and v(empty) = 0.
    assert abs((val.gain + val.loss).sum() - table[-1]) <= 1e-14 * scale


def test_the_voting_game_takes_the_count_path():
    assert _voting_counts(_VOTING, swings=True) is not None
