"""A coalition model's size law is computed once, on first use, and shared.

Every exact question on one model (the valuation, both closed forms, the
expected production, voting power and a counted Monte Carlo draw) reads the
one read-only vector the model holds; the pair walk's one-hot tables are
likewise built once per block layout.
"""

import dataclasses
import threading

import numpy as np
import pytest

from dichotomy import coalition, dvalue
from dichotomy.apps import voting_power
from dichotomy.coalition import CoalitionModel, _size_pmf_vector, size_pmf
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    expected_production,
    mc_valuation,
)
from dichotomy.production import DenseTableGame, KOutOfNGame, WeightedVotingGame

_WEIGHTS = [3, 2, 2, 1, 1, 4, 2, 1]


def _count_laws(monkeypatch) -> list:
    calls = []
    law = coalition._log_size_law
    monkeypatch.setattr(coalition, "_log_size_law", lambda m: calls.append(1) or law(m))
    return calls


def _fresh_law(model: CoalitionModel) -> np.ndarray:
    """The law by the accessor's own steps, outside any model."""
    p = coalition._log_size_law(model)
    np.exp(p, out=p)
    p /= p.sum()
    return p


@pytest.mark.parametrize(
    "game",
    [
        DenseTableGame(8, WeightedVotingGame(_WEIGHTS, 9).dense_values()),
        KOutOfNGame(8, 5),
        WeightedVotingGame(_WEIGHTS, 9),
    ],
    ids=["table", "k-of-n", "voting-integer"],
)
def test_one_law_per_model(game, monkeypatch):
    calls = _count_laws(monkeypatch)
    model = CoalitionModel(game.n, 2.0, 3.0)
    assert calls == []  # not computed when the model is made
    exact_valuation(model, game)
    aggregate_gain_closed_form(model, game)
    aggregate_loss_closed_form(model, game)
    expected_production(model, game)
    voting_power(model, game)
    # Drawn at least 2^n times, a table game draws counts from the size law.
    table = DenseTableGame(game.n, game.dense_values())
    mc_valuation(model, table, samples=1 << game.n, seed=5)
    assert len(calls) == 1


def test_scalar_and_row_paths_build_no_law(monkeypatch):
    calls = _count_laws(monkeypatch)
    assert size_pmf(CoalitionModel(10**12, 2.0, 3.0), 4 * 10**11) > 0.0
    model = CoalitionModel(12, 2.0, 3.0)
    mc_valuation(model, KOutOfNGame(12, 7), samples=200, seed=1)
    mc_valuation(model, DenseTableGame(12, KOutOfNGame(12, 7).dense_values()), samples=200, seed=1)
    assert calls == []


def test_shared_law_is_read_only():
    pmf = _size_pmf_vector(CoalitionModel(6, 2.0, 3.0))
    with pytest.raises(ValueError):
        pmf[0] = 0.5
    with pytest.raises(ValueError):
        pmf *= 2.0


@pytest.mark.parametrize("shape", [(2.0, 3.0), (1.0, 1e6), (1e6, 1.0), (1e-300, 2.0)])
@pytest.mark.parametrize("n", [9, 1000])
def test_shared_law_keeps_its_bits(n, shape):
    model = CoalitionModel(n, *shape)
    game = KOutOfNGame(n, n // 2 + 1)
    exact_valuation(model, game)
    expected_production(model, game)
    shared = _size_pmf_vector(model)
    assert shared is _size_pmf_vector(model)
    fresh = _size_pmf_vector(CoalitionModel(n, *shape))
    assert shared is not fresh
    assert shared.tobytes() == fresh.tobytes() == _fresh_law(model).tobytes()


def test_cached_law_leaves_identity_alone():
    cached, plain = CoalitionModel(7, 2.5, 0.5), CoalitionModel(7, 2.5, 0.5)
    _size_pmf_vector(cached)
    assert cached == plain and hash(cached) == hash(plain)
    assert repr(cached) == repr(plain) == "CoalitionModel(n=7, theta=2.5, rho=0.5)"
    assert dataclasses.astuple(cached) == (7, 2.5, 0.5)
    assert len({cached, plain}) == 1


def test_replaced_model_gets_its_own_law():
    model = CoalitionModel(20, 2.0, 3.0)
    law = _size_pmf_vector(model)
    other = dataclasses.replace(model, theta=4.0)
    assert other != model
    assert _size_pmf_vector(other).tobytes() == _fresh_law(CoalitionModel(20, 4.0, 3.0)).tobytes()
    assert _size_pmf_vector(other).tobytes() != law.tobytes()
    assert _size_pmf_vector(model) is law


def test_threads_read_one_law():
    model = CoalitionModel(200_000, 2.0, 3.0)
    start = threading.Barrier(4)
    got = [None] * 4

    def read(k):
        start.wait()
        got[k] = _size_pmf_vector(model).tobytes()

    threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got[0] == _fresh_law(model).tobytes()
    assert got.count(got[0]) == 4


def test_one_hot_tables_are_built_once_and_read_only():
    for bits in (0, 3, 7):
        table = dvalue._one_hot(bits)
        assert table is dvalue._one_hot(bits)
        assert table.shape == (1 << bits, bits + 1)
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    for m, k in ((3, 3), (13, 13), (19, 14)):
        gather = dvalue._size_gather(m, k)
        assert gather is dvalue._size_gather(m, k)
        assert gather.shape[1] == m + 1 and np.all(gather.sum(axis=1) == 1.0)
        with pytest.raises(ValueError):
            gather[0, 0] = 2.0
