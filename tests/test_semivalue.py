"""gain + loss is a semivalue, and at theta = rho = 1 the Shapley value.

P(S = T + i) + P(S = T) = B(theta + t, rho + n - 1 - t) / B(theta, rho) for
|T| = t, since B(a + 1, b) + B(a, b + 1) = B(a, b).  So gain_i + loss_i
weighs each marginal v(T + i) - v(T) by a Beta-binomial weight of |T| over
the n - 1 others; at theta = rho = 1 that weight is 1 / (n C(n - 1, t)),
the Shapley weight.  Each exact path is checked against the Shapley value
from all n! orders, and the sum over players against v(N) (efficiency).
At other shapes, gain_i is the share (theta + t) / (theta + rho + n - 1) of
each term and loss_i the rest: both are checked against an mpmath sum over
every coalition up to n = 12, and for size-symmetric games at any n against
sum_s BB_{n-1}(s; theta, rho) (u(s + 1) - u(s)).
"""

import functools

import mpmath
import numpy as np
import pytest

from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import exact_valuation
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    SizeSymmetricGame,
    WeightedVotingGame,
    _voting_counts,
    random_dense_game,
    random_monotone_game,
)

from _oracles import (
    mp_beta_semivalue,
    mp_size_semivalue,
    shapley_by_permutations,
    sums_by_size,
)

_VOTING = WeightedVotingGame([4, 3, 3, 2, 1, 1, 5], 10)

GAMES = {
    "random-table": random_dense_game(6, np.random.default_rng(31)),
    "monotone-table": random_monotone_game(7, np.random.default_rng(32)),
    "random-table-8": random_dense_game(8, np.random.default_rng(33)),
    "monotone-table-8": random_monotone_game(8, np.random.default_rng(34)),
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


# Lopsided shapes on both sides and a U-shaped prior.
SHAPES = [(1.0, 1e6), (1e6, 1.0), (0.05, 0.05)]

_rng = np.random.default_rng(41)
_signed = _rng.normal(size=1 << 9)
_signed[0] = 0.0
_COUNTED = WeightedVotingGame([5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 6, 2], 18)
_FLOAT_VOTING = WeightedVotingGame([0.5, 0.41, 0.3, 0.23, 0.2, 0.17, 0.1, 0.07, 0.05], 1.0)

# One game or more of each family, n <= 12.
SEMIVALUE_GAMES = {
    "signed-table": DenseTableGame(9, _signed),
    "monotone-table": random_monotone_game(10, np.random.default_rng(42)),
    "size-symmetric": SizeSymmetricGame(10, np.r_[0.0, np.cumsum(_rng.random(10))]),
    "k-of-n": KOutOfNGame(11, 6),
    "voting-counted": _COUNTED,
    "voting-table": _FLOAT_VOTING,
    "additive": AdditiveGame(_rng.normal(size=12)),
}


@functools.cache
def _marginals(name):
    return sums_by_size(SEMIVALUE_GAMES[name].dense_values())[:2]


def test_the_voting_games_take_the_count_and_the_table_path():
    assert _voting_counts(_COUNTED, swings=True) is not None
    assert _voting_counts(_FLOAT_VOTING, swings=True) is None


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{a:g}:{b:g}" for a, b in SHAPES])
@pytest.mark.parametrize("name", SEMIVALUE_GAMES)
def test_gain_and_loss_are_the_beta_semivalue_shares(name, shape):
    # Measured: within 6.1e-15 of the scale sum_T w(|T|) |v(T + i) - v(T)|
    # (gain's share of it for gain).
    game = SEMIVALUE_GAMES[name]
    val = exact_valuation(CoalitionModel(game.n, *shape), game)
    gain, loss, gain_scale, loss_scale = (
        np.array([float(x) for x in col]) for col in mp_beta_semivalue(_marginals(name), *shape)
    )
    assert np.all(np.abs(val.gain + val.loss - (gain + loss)) <= 2e-14 * (gain_scale + loss_scale))
    assert np.all(np.abs(val.gain - gain) <= 2e-14 * gain_scale)


_u = np.random.default_rng(43).random(300)
SIZE_GAMES = {
    "majority-1001": KOutOfNGame(1001, 501),
    "unanimity-1e4": KOutOfNGame(10_000, 10_000),
    "kofn-1e5": KOutOfNGame(100_000, 30_000),
    "majority-1e6": KOutOfNGame(1_000_000, 500_001),
    "signed-steps-300": SizeSymmetricGame(300, np.r_[0.0, np.cumsum(_u) - 40.0]),
}


@pytest.mark.parametrize(
    "shape", SHAPES + [(1.0, 1.0), (2.5, 0.7)], ids=lambda s: f"{s[0]:g}:{s[1]:g}"
)
@pytest.mark.parametrize("name", SIZE_GAMES)
def test_size_symmetric_games_at_any_n(name, shape):
    # Measured: within 3.9e-14 of the scale sum_s BB(s) |u(s + 1) - u(s)|,
    # at majority n = 1e6 and (0.05, 0.05).
    game = SIZE_GAMES[name]
    n, u = game.n, game.by_size
    val = exact_valuation(CoalitionModel(n, *shape), game)
    gain, loss, scale = mp_size_semivalue(u, *shape)
    if shape == (1.0, 1.0):  # the Shapley value: each player gets 1 / n of v(N)
        assert abs(gain + loss - (mpmath.mpf(u[n]) - u[0]) / n) <= mpmath.mpf(10) ** -35 * scale
    if scale < 1e-290:  # far below the float range: checked to be reported as small
        assert np.all(np.abs(val.gain) + np.abs(val.loss) <= 1e-290)
        return
    assert np.all(np.abs(val.gain + val.loss - float(gain + loss)) <= 1e-13 * float(scale))
    assert np.all(np.abs(val.gain - float(gain)) <= 1e-13 * float(scale))
