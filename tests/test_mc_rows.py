"""Monte Carlo marginals on the rows where a flip can swing v.

Skipping the other rows must leave the sums of every ``mc_valuation``
stream byte for byte as the stream that flips every row gives them, and a
skipped row must really have no marginal.  An additive game flips no row:
its production sums keep those bytes, and each per-player sum is the exact
count of draws times w_i (or w_i^2), rounded once.
"""

import math
from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dichotomy import dvalue
from dichotomy.coalition import CoalitionModel, sample_memberships, spawn_streams
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    SizeSymmetricGame,
    WeightedVotingGame,
    random_dense_game,
)

from _oracles import flip_every_row_stream, moved_flips

_BIG = 2.0**1000
_RNG = np.random.default_rng(13)
_TENTHS = np.array([0.1, 0.2, 0.3, 0.7, 0.4, 0.1, 0.9, 0.3])

GAMES = {
    # Size tables: non-monotone with flat runs, the two ends of k-of-n, n = 1.
    "size-flat-runs": SizeSymmetricGame(9, [0, 1, 1, 3, 3, 3, -2, -2, 5, 5]),
    "size-signed-zeros": SizeSymmetricGame(6, [0.0, -0.0, 0.0, 1.0, -0.0, -0.0, 0.0]),
    "k-of-n-1": KOutOfNGame(30, 1),
    "k-of-n-n": KOutOfNGame(30, 30),
    "k-of-n-mid": KOutOfNGame(100, 47),
    "size-n1": SizeSymmetricGame(1, [0.0, 2.5]),
    # Integer and decimal voting weights: quota ties, zero weights, a quota
    # above the total, and one voter below and at the quota.
    "voting-integer": WeightedVotingGame(_RNG.integers(1, 10, 50).astype(float), 130),
    "voting-attained-quota": WeightedVotingGame([5, 3, 3, 2, 1, 1, 4], 9),
    "voting-zero-weights": WeightedVotingGame([0, 2, 0, 3, 1, 0, 2], 3),
    "voting-above-total": WeightedVotingGame([1, 2, 3, 4], 100),
    "voting-dyadic-ties": WeightedVotingGame([0.5, 0.25, 1.5, 0.75, 0.125], 1.0),
    "voting-tenths": WeightedVotingGame(_TENTHS, 0.6),
    "voting-tenths-sum": WeightedVotingGame(_TENTHS, float(_TENTHS[:4].sum())),
    "voting-n1-short": WeightedVotingGame([3.0], 5.0),
    "voting-n1-wins": WeightedVotingGame([3.0], 2.0),
    "additive": AdditiveGame(_RNG.uniform(-1.0, 2.0, 40)),
    "dense": random_dense_game(7, _RNG),
    "dense-16": random_dense_game(16, _RNG),
    # Games scaled by 2^1000, which the sampler scales back.
    "additive-huge": AdditiveGame(np.array([1.5, 0.25, 3.0, 2.0, 0.75]) * _BIG),
    "size-huge": SizeSymmetricGame(5, np.array([0.0, 1.0, 3.5, 3.5, 7.25, 8.0]) * _BIG),
    "dense-huge": DenseTableGame(5, random_dense_game(5, _RNG).table * _BIG),
}


def _scale(game) -> float:
    shift = max(0, math.frexp(game.value_bound())[1] - dvalue._MC_MAX_EXP)
    return math.ldexp(1.0, -shift)


def _stream_sums(stream, model, game, samples, seed, streams, workers) -> list[bytes]:
    """The sums of each stream as mc_valuation splits the samples and scales
    the values, each stream from ``stream``, run on ``workers`` threads."""
    rngs = spawn_streams(seed, streams)
    base, extra = divmod(samples, streams)
    scale = _scale(game)

    def run(k):
        count = base + (1 if k < extra else 0)
        return stream(model, game, rngs[k], count, scale).tobytes()  # keeps signed zeros

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, range(streams)))


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("streams, workers", [(1, 1), (8, 1), (8, 2)])
def test_same_bytes_as_flipping_every_row(name, streams, workers):
    # Stream by stream: mc_valuation counts the draws of a table game of 2^n
    # coalitions or fewer instead of calling _mc_stream, so comparing its
    # results would leave the row stream of "dense" and "dense-huge" untested.
    game = GAMES[name]
    for theta, rho in ((2.0, 3.0), (0.4, 0.6)):
        model = CoalitionModel(game.n, theta, rho)
        # Several chunks per stream, the last one partial.
        samples = 3 * max(1, dvalue._MC_CELLS // game.n) + 17
        args = (model, game, samples, 5, streams, workers)
        got = _stream_sums(dvalue._mc_stream, *args)
        want = _stream_sums(flip_every_row_stream, *args)
        if not isinstance(game, AdditiveGame):
            assert got == want
            continue
        # The same spawned streams, counted: how often each player is inside.
        counts = _stream_sums(_inside_counts, *args)
        w = (game.player_values * _scale(game)).tolist()  # a power of two, so exact
        for sums, flipped, drawn in zip(got, want, counts):
            *inside, count = np.frombuffer(drawn, np.int64).tolist()
            assert sums[-24:] == flipped[-24:]  # production, its square, count
            expected = []
            for k in (inside, [count - k_i for k_i in inside]):
                expected += [float(Fraction(w_i) * k_i) for w_i, k_i in zip(w, k)]
                expected += [float(Fraction(w_i * w_i) * k_i) for w_i, k_i in zip(w, k)]
            assert np.frombuffer(sums[:-24]).tolist() == expected


def _inside_counts(model, game, rng, count, scale) -> np.ndarray:
    """How often each player is drawn inside over one stream's chunks, then
    the stream's sample count."""
    rows = max(1, dvalue._MC_CELLS // game.n)
    inside = np.zeros(game.n, dtype=np.int64)
    for done in range(0, count, rows):
        inside += sample_memberships(model, rng, min(rows, count - done)).sum(axis=0)
    return np.append(inside, count)


def _membership_rows(game, count=3000):
    rng = spawn_streams(2, 1)[0]
    n = game.n
    rows = sample_memberships(CoalitionModel(n, 0.7, 0.9), rng, count)
    return np.vstack([np.zeros((1, n), bool), np.ones((1, n), bool), rows])


@pytest.mark.parametrize("name", GAMES)
def test_flips_move_the_weight_sum_as_before(name):
    game = GAMES[name]
    members = _membership_rows(game)
    flipped = game._phi(game._flip_stats(game._weight_sums(members), members))
    assert flipped.tobytes() == moved_flips(game, members).tobytes()


@pytest.mark.parametrize("name", GAMES)
def test_skipped_rows_have_no_marginal(name):
    game = GAMES[name]
    members = _membership_rows(game)
    swing = game._swing_rows(game._weight_sums(members))
    if isinstance(game, (AdditiveGame, DenseTableGame)):
        assert swing is None
        return
    v = game.values_for_memberships(members)
    skipped = ~swing
    flipped = game._phi(game._flip_stats(game._weight_sums(members), members))
    assert np.all(flipped[skipped] == v[skipped, None])
