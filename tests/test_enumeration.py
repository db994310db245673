"""Enumeration by doubling and block views against the bit-matrix oracles.

Tables and pair checks must match the (2^n, n) membership matrix and
per-player masks byte for byte.  Valuations and by-size totals must sit
within a few rounding errors of exact sums over per-player masks, give the
same bytes under any OpenBLAS thread count, and stay within a few tables of
memory.
"""

import functools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dichotomy import cli, dvalue, production
from dichotomy.apps import voting_power
from dichotomy.coalition import CoalitionModel, _size_pmf_vector
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    expected_production,
    mc_valuation,
)
from dichotomy.errors import DomainError
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    SizeSymmetricGame,
    WeightedVotingGame,
    is_symmetric_pair,
    random_dense_game,
    random_monotone_game,
    uniformly_outperforms,
)

from _oracles import (
    bit_matrix_values,
    exact_table_valuation,
    masked_is_monotone,
    masked_outperforms,
    peak_tables,
    signed_table,
    sums_by_size,
)


def _integer_voting(n, rng):
    w = rng.integers(1, 10, n).astype(float)
    return WeightedVotingGame(w, float(w.sum() // 2 + 1))


def _voting_at_attained_quota(n, rng):
    # The quota is the weight of an actual coalition, so ties decide.
    w = rng.integers(1, 10, n).astype(float)
    return WeightedVotingGame(w, float(w[rng.random(n) < 0.5].sum() or w[0]))


def _integer_table(n, rng):
    values = rng.integers(-1000, 1001, 1 << n).astype(float)
    values[0] = 0.0
    return DenseTableGame(n, values)


def _voting_in_tenths(n, rng):
    # No weight is an integer; the quota is the float sum of half of them.
    w = rng.integers(0, 3, n) + rng.integers(1, 10, n) / 10
    return WeightedVotingGame(w, float(w[: max(1, n // 2)].sum()))


# Families whose weight sums are exact take the doubling path; the rest fall
# back to the membership matrix.
_EXACT_SUMS = {
    "voting-integer": _integer_voting,
    "voting-attained-quota": _voting_at_attained_quota,
    "k-of-n": lambda n, rng: KOutOfNGame(n, int(rng.integers(1, n + 1))),
    "size-table": lambda n, rng: SizeSymmetricGame(n, np.r_[0.0, rng.random(n)]),
    "dense": random_dense_game,
    "monotone": random_monotone_game,
    "additive-integer": lambda n, rng: AdditiveGame(rng.integers(-50, 50, n).astype(float)),
}
_FALLBACK = {
    "voting-tenths": _voting_in_tenths,
    "additive-real": lambda n, rng: AdditiveGame(rng.uniform(-1.0, 2.0, n)),
    "additive-beyond-2^53": lambda n, rng: AdditiveGame(
        np.r_[2.0**53, rng.integers(1, 9, n - 1)]
    ),
}
_GAMES = {**_EXACT_SUMS, **_FALLBACK}
_SIZES = (1, 2, 7, 12)


def _game(name, n):
    return _GAMES[name](n, np.random.default_rng([n, len(name)]))


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("name", _GAMES)
def test_table_matches_the_bit_matrix(name, n):
    game = _game(name, n)
    if name in _FALLBACK:
        assert not production._sums_are_exact(game._w)
    assert game.dense_values().tobytes() == bit_matrix_values(game).tobytes()


@pytest.mark.parametrize("n", range(1, 21))
def test_mask_weights_match_a_popcount_gather(n):
    # n = 1 has no low bits, and odd n splits its bits unevenly.
    f = np.random.default_rng(n).random(n + 1)
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    assert production._mask_weights(f).tobytes() == f[sizes].tobytes()
    assert production._popcounts(n).dtype == np.intp
    assert np.array_equal(production._popcounts(n), sizes)


def _mask_cases():
    # Lopsided shapes put nearly all the weight on a few sizes, and
    # (0.05, 0.05) on both ends.
    games = [(name, n) for name in _GAMES for n in _SIZES] + [("dense", 16), ("dense", 17)]
    for shape in [(2.5, 1.5), (1e6, 1.0), (1.0, 1e6), (0.05, 0.05)]:
        for name, n in games:
            tag = "" if shape == (2.5, 1.5) else "-{:g}:{:g}".format(*shape)
            yield pytest.param(name, n, shape, id=f"{name}-{n}{tag}")


# The library rounds sums of at most 2^n terms: each value must sit within
# this share of the same sum over the absolute terms (the measured worst in
# these tests is 4.4e-16, about 2 eps).
_ROUNDING = 8 * np.finfo(float).eps


def _assert_near_exact(model, val, by_size, sums):
    """Gain, loss, by-size totals and the expected production against the
    exact sums of ``exact_table_valuation``; the aggregates and production
    are the float sums of the vectors themselves."""
    for got, (want, scale) in zip(
        (val.gain, val.loss, by_size, val.expected_production),
        exact_table_valuation(model, sums),
    ):
        assert np.all(np.abs(got - want) <= _ROUNDING * scale)
    assert val.aggregate_gain == float(val.gain.sum())
    assert val.aggregate_loss == float(val.loss.sum())
    assert val.expected_production == float(by_size.sum())


@functools.cache
def _mask_sums(name, n):
    return sums_by_size(bit_matrix_values(_game(name, n)))


@pytest.mark.parametrize("name, n, shape", _mask_cases())
def test_enumerated_valuation_matches_per_player_masks(name, n, shape):
    # At n = 16 and 17 the walk takes two and four blocks of _PAIR_BLOCK
    # pairs, and the totals four and eight blocks of the table.
    game = _game(name, n)
    model = CoalitionModel(n, *shape)
    table = DenseTableGame(n, game.dense_values())  # forces enumeration
    if production._voting_counts(game) is not None:
        games = [table, game]  # integer voting games are counted as well
    elif game.size_only or isinstance(game, AdditiveGame):
        games = [table]
    else:
        games = [game]
    for g in games:
        val = exact_valuation(model, g)
        by_size = dvalue._exact(model, g, players=False)[1]
        _assert_near_exact(model, val, by_size, _mask_sums(name, n))
        assert expected_production(model, g) == val.expected_production


@pytest.mark.parametrize("n", [1, 7, 12])
@pytest.mark.parametrize("name", ["voting-integer", "voting-tenths", "dense"])
def test_gain_aggregate_takes_v_of_n_from_its_one_table(name, n, monkeypatch):
    # Integer weights (counted, so no table), the bit-matrix fallback and a
    # stored table.
    game = _game(name, n)
    model = CoalitionModel(n, 2.5, 1.5)
    pmf = _size_pmf_vector(model)
    last = game.dense_values()[-1]
    assert dvalue._exact(model, game, players=False)[1][n] == pmf[n] * last
    builds = []
    build = type(game).dense_values
    monkeypatch.setattr(
        type(game), "dense_values", lambda g: builds.append(1) or build(g)
    )
    aggregate_gain_closed_form(model, game)
    assert len(builds) == (0 if name == "voting-integer" else 1)


def _hex(x):
    return list(map(float.hex, np.atleast_1d(x)))


@pytest.mark.parametrize("shape", [(2.5, 1.5), (1e6, 1.0), (1.0, 1e6)])
@pytest.mark.parametrize(
    "name", ["size-table", "additive-real", "voting-integer", "dense", "voting-tenths"]
)
def test_selector_serves_each_request_with_the_same_bits(name, shape):
    # One game per exact path: the size law, the prior mean, counts, a stored
    # table and the bit-matrix fallback.  Asking for the valuation alone, the
    # totals alone or both moves no bit of either.
    n = 9
    game = _game(name, n)
    model = CoalitionModel(n, *shape)
    players, none = dvalue._exact(model, game, totals=False)
    none_too, totals = dvalue._exact(model, game, players=False)
    both, both_totals = dvalue._exact(model, game)
    assert none is None and none_too is None
    assert totals.tobytes() == both_totals.tobytes()
    ref = exact_valuation(model, game)
    for val in (players, both):
        for field in ("gain", "loss", "aggregate_gain", "aggregate_loss", "expected_production"):
            assert _hex(getattr(val, field)) == _hex(getattr(ref, field)), field
    for which, closed_form in (
        ("gain", aggregate_gain_closed_form), ("loss", aggregate_loss_closed_form)
    ):
        expected = _hex(closed_form(model, game))
        for t in (totals, both_totals):
            assert _hex(dvalue._closed_form(model, t, which)) == expected
    # The valuation and expected_production give one number: the sum of the
    # totals, but for an additive game the prior mean times the fsum of its
    # values, which the totals' sum meets within rounding.
    production = expected_production(model, game)
    assert _hex(production) == _hex(ref.expected_production)
    if name == "additive-real":
        assert float(totals.sum()) == pytest.approx(production, rel=16 * np.finfo(float).eps)
    else:
        assert _hex(float(totals.sum())) == _hex(production)


def _voting_table(n, rng):
    # Heavier voters outperform lighter ones and equal weights tie, so the
    # checks come out true as well as false.
    return DenseTableGame(n, _integer_voting(n, rng).dense_values())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", [random_dense_game, random_monotone_game, _voting_table])
def test_pair_checks_match_masks(make, seed):
    n = 10
    game = make(n, np.random.default_rng(seed))
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for check, op in ((uniformly_outperforms, operator.ge),
                              (is_symmetric_pair, operator.eq)):
                got = check(game, i, j)
                assert got == masked_outperforms(game.table, n, i, j, op)
                seen.add(got)
    if make is _voting_table:
        assert seen == {True, False}


@pytest.mark.parametrize("n", [2, 6, 11, 16])
def test_integer_voting_pair_checks_match_masks(n, monkeypatch):
    # Weights 0..3 make zero and equal weights common; the quotas are
    # attained by a coalition, half-integer, above the total and below
    # every positive weight.
    rng = np.random.default_rng(n)
    w = rng.integers(0, 4, n).astype(float)
    quotas = (float(w[rng.random(n) < 0.5].sum() or 1.0), w.sum() / 2 + 0.5, w.sum() + 1, 0.5)
    seen = set()
    for quota in quotas:
        game = WeightedVotingGame(w, quota)
        table = game.dense_values()
        # Decided from the weights alone: no table is built.
        monkeypatch.setattr(WeightedVotingGame, "dense_values", None)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for check, op in ((uniformly_outperforms, operator.ge),
                                  (is_symmetric_pair, operator.eq)):
                    got = check(game, i, j)
                    assert got == masked_outperforms(table, n, i, j, op)
                    seen.add(got)
        monkeypatch.undo()
    assert seen == {True, False}


def test_voting_certificate_matches_masks():
    n = 10
    model = CoalitionModel(n, 2.0, 3.0)
    seen = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        values = (random_monotone_game(n, rng).table >= 1.0).astype(float)
        if seed % 2:  # flip one coalition's outcome
            mask = int(rng.integers(1, 1 << n))
            values[mask] = 1.0 - values[mask]
        game = DenseTableGame(n, values)
        monotone = masked_is_monotone(values, n)
        seen.add(monotone)
        if monotone:
            assert np.all(np.isfinite(voting_power(model, game).power))
        else:
            with pytest.raises(DomainError, match="monotone"):
                voting_power(model, game)
    assert seen == {True, False}


def _walk_game(signed, n):
    return signed_table(n) if signed else random_monotone_game(n, np.random.default_rng(n))


@functools.cache
def _walk_sums(signed, n):
    return sums_by_size(_walk_game(signed, n).table)


@pytest.mark.parametrize("shape", [(2.5, 1.5), (1.0, 1e6), (1e6, 1.0), (0.05, 0.05)])
@pytest.mark.parametrize("n", range(8, 13))
@pytest.mark.parametrize("signed", [True, False], ids=["signed", "monotone"])
def test_pair_walk_blocks_match_per_player_masks(signed, n, shape, monkeypatch):
    # Blocks of 128 pairs: one at n = 8, sixteen at n = 12, every player per
    # block; the table's totals take two to thirty-two blocks of 128.
    monkeypatch.setattr(dvalue, "_PAIR_BLOCK", 128)
    model = CoalitionModel(n, *shape)
    val, by_size = dvalue._exact(model, _walk_game(signed, n))
    _assert_near_exact(model, val, by_size, _walk_sums(signed, n))


@pytest.mark.parametrize("n", [5, 12])
def test_table_sums_that_overflow_are_scaled_exactly(n):
    # Values up to 2^1022: their sums by size overflow, though no value and
    # no result does, so the table is summed again scaled by a power of two,
    # and every result is the small table's times 2^1022.
    big = 2.0**1022
    small = random_dense_game(n, np.random.default_rng(n))
    huge = DenseTableGame(n, small.table * big)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not all(np.isfinite(x).all() for x in dvalue._table_sums(huge.table, n, True))
    model = CoalitionModel(n, 2.0, 3.0)
    (want, want_totals), (got, got_totals) = (dvalue._exact(model, g) for g in (small, huge))
    for a, b in ((want.gain, got.gain), (want.loss, got.loss), (want_totals, got_totals)):
        assert (a * big).tobytes() == b.tobytes()
    assert got.expected_production == want.expected_production * big


@pytest.mark.parametrize("block", [128, dvalue._PAIR_BLOCK])
def test_sums_of_negative_zeros_print_zero(block, monkeypatch):
    # Every step of player 1 is -0.0 - 0.0 = -0.0, over four blocks of 128
    # pairs or one of _PAIR_BLOCK; each sum of them is 0.0, as numpy's is.
    monkeypatch.setattr(dvalue, "_PAIR_BLOCK", block)
    n = 10
    game = DenseTableGame(n, np.where(np.arange(1 << n) & 1, -0.0, 0.0))
    model = CoalitionModel(n, 2.0, 3.0)
    for val in (exact_valuation(model, game), mc_valuation(model, game, 1 << n, 3)):
        assert not np.signbit(val.gain).any() and not np.signbit(val.loss).any()
        assert "-0" not in json.dumps(val.to_json_dict())


# A stored table's valuation, its by-size totals and both closed forms, as
# one digest of their bytes.
_TABLE_DIGEST = """
import hashlib
import numpy as np
from dichotomy import dvalue
from dichotomy.coalition import CoalitionModel
from dichotomy.production import DenseTableGame, random_dense_game

n = 18
rng = np.random.default_rng(5)
game = {game}
model = CoalitionModel(n, 2.0, 3.0)
val, by_size = dvalue._exact(model, game)
gain_closed = dvalue.aggregate_gain_closed_form(model, game)
loss_closed = dvalue.aggregate_loss_closed_form(model, game)
scalars = np.array([val.expected_production, gain_closed, loss_closed])
parts = [val.gain, val.loss, by_size, scalars]
print(hashlib.sha256(b"".join(x.tobytes() for x in parts)).hexdigest())
"""


def _table_digests_under_openblas_threads(game):
    src = str(Path(dvalue.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _TABLE_DIGEST.format(game=game)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(proc.stdout)
    return digests


def test_table_sums_keep_their_bytes_under_any_openblas_thread_count():
    # The by-size sums are BLAS products, each small enough that OpenBLAS
    # runs it on the calling thread: a pool of two threads moves no bit.
    assert len(_table_digests_under_openblas_threads("random_dense_game(n, rng)")) == 1


def test_integer_table_sums_keep_their_bytes_under_any_openblas_thread_count():
    # An integer table takes its sums from one-hot products, each as small.
    game = "DenseTableGame(n, np.r_[0.0, rng.integers(-1000, 1001, (1 << n) - 1)])"
    assert len(_table_digests_under_openblas_threads(game)) == 1


def test_voting_certificate_across_blocks(tmp_path, monkeypatch, capsys):
    # Blocks of 128 pairs, eight at n = 10: the first non-monotone pair may
    # sit in any block, and the rejection keeps its text and exit code.
    monkeypatch.setattr(dvalue, "_PAIR_BLOCK", 128)
    n = 10
    model = CoalitionModel(n, 2.0, 3.0)
    rng = np.random.default_rng(4)
    values = (random_monotone_game(n, rng).table >= 1.0).astype(float)
    assert masked_is_monotone(values, n)
    assert np.all(np.isfinite(voting_power(model, DenseTableGame(n, values)).power))
    masks = np.arange(1 << n)
    # Winning coalitions with a winning coalition one player smaller.
    above = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        above |= (masks >> i & 1 == 1) & (values[masks & ~(1 << i)] == 1.0)
    for mask in rng.choice(np.flatnonzero(above), 6, replace=False):
        flipped = values.copy()
        flipped[mask] = 0.0  # now below a coalition it contains
        assert not masked_is_monotone(flipped, n)
        with pytest.raises(DomainError, match="^voting games must be monotone$"):
            voting_power(model, DenseTableGame(n, flipped))
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": n, "values": flipped.tolist()}))
    argv = ["apps", "voting", "--game", str(path), "--theta", "2", "--rho", "3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: voting games must be monotone\n")


class TestMemory:
    n = 18

    def _setup(self):
        rng = np.random.default_rng(5)
        return CoalitionModel(self.n, 2.0, 3.0), _integer_voting(self.n, rng)

    def test_table_build(self):
        _, game = self._setup()
        assert peak_tables(game.dense_values, self.n) <= 4

    @pytest.mark.parametrize(
        "fn", [exact_valuation, aggregate_gain_closed_form, aggregate_loss_closed_form]
    )
    def test_valuation_and_aggregates(self, fn):
        model, game = self._setup()
        assert peak_tables(lambda: fn(model, game), self.n) <= 8

    @pytest.mark.parametrize(
        "fn, make",
        [
            pytest.param(fn, make, id=fn.__name__ + suffix)
            for fn in (exact_valuation, aggregate_gain_closed_form, aggregate_loss_closed_form)
            for make, suffix in ((random_dense_game, ""), (_integer_table, "-integer"))
        ],
    )
    def test_dense_table_paths(self, fn, make):
        # Integer voting games are counted, with no table; a stored table
        # takes the enumeration paths, and is itself allocated beforehand.
        model = CoalitionModel(self.n, 2.0, 3.0)
        game = make(self.n, np.random.default_rng(5))
        assert peak_tables(lambda: fn(model, game), self.n) <= 3

    def test_pair_walk_holds_block_buffers(self):
        # Beside the stored table, the valuation holds two work buffers of
        # _PAIR_BLOCK floats, an eighth of a table at n = 18, and its
        # per-player step sums by size, not two half tables.
        model = CoalitionModel(self.n, 2.0, 3.0)
        game = random_dense_game(self.n, np.random.default_rng(5))
        assert peak_tables(lambda: exact_valuation(model, game), self.n) < 1.3

    def test_integer_sums_hold_block_buffers(self):
        # The one-hot products of an integer table stay within the bound
        # of the walk they stand in for.
        model = CoalitionModel(self.n, 2.0, 3.0)
        game = _integer_table(self.n, np.random.default_rng(5))
        assert peak_tables(lambda: exact_valuation(model, game), self.n) < 1.3


@pytest.mark.parametrize(
    "fn, bound, make",
    [
        pytest.param(fn, bound, make, id=f"{fn.__name__}-{bound}{suffix}")
        for fn, bound in (
            (exact_valuation, 0.25),
            (aggregate_gain_closed_form, 0.05),
            (aggregate_loss_closed_form, 0.05),
        )
        for make, suffix in ((random_dense_game, ""), (_integer_table, "-integer"))
    ],
)
def test_table_passes_build_no_table_sized_array(fn, bound, make):
    # Beside a stored table at n = 20, the valuation holds the walk's two
    # block buffers and its per-player step sums by size, and the closed
    # forms only their per-block sums: no weight or popcount per coalition.
    n = 20
    model = CoalitionModel(n, 2.0, 3.0)
    game = make(n, np.random.default_rng(5))
    assert peak_tables(lambda: fn(model, game), n) < bound
