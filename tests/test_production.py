import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dichotomy import production
from dichotomy.coalition import SubsetId
from dichotomy.errors import CapacityError, DomainError
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    SizeSymmetricGame,
    WeightedVotingGame,
    game_from_json_dict,
    is_symmetric_pair,
    load_dense_game,
    random_dense_game,
    random_monotone_game,
    uniformly_outperforms,
)

from _oracles import brute_outperforms, masked_monotone_values, peak_tables


class TestEvaluate:
    def test_k_out_of_n_threshold(self):
        game = KOutOfNGame(5, 3)
        assert game.value(SubsetId.of(5, {1, 2, 3})) == 1.0
        assert game.value(SubsetId.of(5, {4, 5})) == 0.0

    def test_additive_sum(self):
        game = AdditiveGame([1.0, 2.5, -0.5])
        assert game.value(SubsetId.of(3, {1, 3})) == pytest.approx(0.5)

    def test_dense_lookup(self):
        rng = np.random.default_rng(0)
        game = random_dense_game(4, rng)
        mask = 0b1010
        assert game.value(SubsetId.from_mask(4, mask)) == game.table[mask]

    def test_empty_is_zero(self):
        for game in [
            KOutOfNGame(4, 2),
            AdditiveGame([1, 2, 3]),
            WeightedVotingGame([3, 2, 1], 4),
            SizeSymmetricGame(3, [0, 1, 2, 3]),
        ]:
            assert game.value(SubsetId.empty(game.n)) == 0.0

    def test_weighted_voting_quota(self):
        game = WeightedVotingGame([3, 2, 1], 4)
        assert game.value(SubsetId.of(3, {1, 2})) == 1.0
        assert game.value(SubsetId.of(3, {2, 3})) == 0.0

    def test_wrong_player_count(self):
        with pytest.raises(DomainError):
            KOutOfNGame(4, 2).value(SubsetId.of(5, {1}))


    @pytest.mark.parametrize(
        "game",
        [
            KOutOfNGame(5, 3),
            SizeSymmetricGame(5, [0, 0.5, 0.5, 2, 3, 3]),
            WeightedVotingGame([3, 2, 2, 1, 0.5], 4.5),
            AdditiveGame([1.0, 2.5, -0.5, 1e-3, 7.0]),
            random_dense_game(5, np.random.default_rng(3)),
        ],
        ids=lambda g: type(g).__name__,
    )
    def test_value_is_the_enumerated_value(self, game):
        table = game.dense_values()
        for mask in range(1 << game.n):
            assert game.value(SubsetId.from_mask(game.n, mask)) == table[mask]

    def test_k_out_of_n_is_a_size_table(self):
        game = KOutOfNGame(6, 4)
        assert isinstance(game, SizeSymmetricGame)
        assert game.k == 4
        assert list(game.value_by_size()) == [0, 0, 0, 0, 1, 1, 1]


class TestValidation:
    def test_dense_empty_value_must_vanish(self):
        with pytest.raises(DomainError):
            DenseTableGame(2, [0.5, 0, 0, 1])

    def test_dense_capacity(self):
        with pytest.raises(CapacityError):
            DenseTableGame(25, np.zeros(2))

    def test_size_symmetric_shape(self):
        with pytest.raises(DomainError):
            SizeSymmetricGame(3, [0, 1])

    def test_weighted_voting_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            WeightedVotingGame([2, -1], 1)

    def test_weighted_voting_rejects_zero_quota(self):
        with pytest.raises(DomainError):
            WeightedVotingGame([2, 1], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_size_symmetric_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            SizeSymmetricGame(2, [0, bad, 1])

    def test_k_out_of_n_bounds(self):
        with pytest.raises(DomainError):
            KOutOfNGame(4, 0)
        with pytest.raises(DomainError):
            KOutOfNGame(4, 5)

    @pytest.mark.parametrize(
        "build", [AdditiveGame, lambda w: WeightedVotingGame(w, 1.0)], ids=["additive", "weighted"]
    )
    def test_weight_sum_past_float_range(self, build):
        # Each weight is finite; only their sum overflows, and numpy must not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                build([1e308, 1e308])
            build([8e307, 8e307])


class TestJsonInterface:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 2, "values": [0, 1.5, 2.5, 4.0]}))
        game = load_dense_game(str(path))
        assert game.n == 2
        assert game.value(SubsetId.full(2)) == 4.0

    def test_rejects_nonzero_empty_value(self):
        with pytest.raises(DomainError):
            game_from_json_dict({"n": 1, "values": [1.0, 2.0]})

    def test_rejects_missing_fields(self):
        with pytest.raises(DomainError):
            game_from_json_dict({"values": [0, 1]})


class TestOutperformance:
    def test_additive_by_weight(self):
        game = AdditiveGame([3.0, 1.0, 1.0])
        assert uniformly_outperforms(game, 1, 2)
        assert not uniformly_outperforms(game, 2, 1)
        assert uniformly_outperforms(game, 2, 3)

    def test_rejects_identical_players(self):
        with pytest.raises(DomainError):
            uniformly_outperforms(KOutOfNGame(3, 2), 1, 1)

    def test_k_out_of_n_all_pairs_mutual(self):
        game = KOutOfNGame(6, 3)
        for i, j in itertools.permutations(range(1, 7), 2):
            assert uniformly_outperforms(game, i, j)
            assert is_symmetric_pair(game, i, j)

    def test_weighted_voting_against_enumeration(self):
        game = WeightedVotingGame([5, 3, 2, 2], 7)
        v = game.dense_values().__getitem__
        for i, j in itertools.permutations(range(1, 5), 2):
            assert uniformly_outperforms(game, i, j) == brute_outperforms(4, v, i, j)

    def test_dense_against_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            game = random_monotone_game(5, rng)
            v = game.table.__getitem__
            for i, j in itertools.permutations(range(1, 6), 2):
                assert uniformly_outperforms(game, i, j) == brute_outperforms(5, v, i, j)

    def test_symmetric_pair_of_weighted_voting(self):
        # Players 2 and 3 differ at quota 4.5: {1,2} wins while {1,3} loses.
        assert not is_symmetric_pair(WeightedVotingGame([3, 2, 1], 4.5), 2, 3)
        # At quota 4 every coalition containing player 1 wins either way.
        assert is_symmetric_pair(WeightedVotingGame([3, 2, 1], 4), 2, 3)
        assert is_symmetric_pair(WeightedVotingGame([3, 2, 2], 4), 2, 3)

    def test_additive_symmetry_needs_equal_weights(self):
        assert is_symmetric_pair(AdditiveGame([1.0, 1.0, 2.0]), 1, 2)
        assert not is_symmetric_pair(AdditiveGame([1.0, 1.5]), 1, 2)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_mutual_outperformance_is_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        game = random_dense_game(n, rng)
        i, j = 1, 2
        mutual = uniformly_outperforms(game, i, j) and uniformly_outperforms(game, j, i)
        assert mutual == is_symmetric_pair(game, i, j)

    def test_monotone_generator_is_monotone(self):
        rng = np.random.default_rng(9)
        game = random_monotone_game(6, rng)
        masks = np.arange(1 << 6)
        for i in range(6):
            bit = 1 << i
            assert np.all(game.table[masks | bit] >= game.table[masks & ~bit])

    def test_pair_check_warns_once(self, monkeypatch):
        monkeypatch.setattr(production, "_ENUMERATION_WARN", 3)
        # Integer weights are decided without a table; a decimal one is not.
        game = WeightedVotingGame([3, 2, 2, 0.5], 4)
        for check in (is_symmetric_pair, uniformly_outperforms):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                check(game, 2, 3)
            assert len(caught) == 1
            assert "enumerating 2^4 subsets" in str(caught[0].message)

    def test_pair_check_beyond_cap(self):
        game = WeightedVotingGame(np.full(25, 0.5), 6.5)
        with pytest.raises(CapacityError):
            is_symmetric_pair(game, 1, 2)

    def test_integer_voting_pair_checks_need_no_table(self):
        # Two-vote and one-vote members of a body of 30; the CapacityError
        # that a 2^30 table would raise must not surface.
        game = WeightedVotingGame([2] * 15 + [1] * 15, 23)
        assert uniformly_outperforms(game, 1, 16)
        assert not uniformly_outperforms(game, 16, 1)
        assert not is_symmetric_pair(game, 1, 16)
        assert is_symmetric_pair(game, 1, 2) and is_symmetric_pair(game, 16, 17)
        # A quota beyond every weight leaves v = 0, so every pair ties.
        assert is_symmetric_pair(WeightedVotingGame(np.ones(40), 41), 1, 2)


def _fresh_flips(game, members):
    """v(T xor {i}) by evaluating each column-flipped matrix afresh."""
    out = np.empty(members.shape)
    for i in range(game.n):
        flipped = members.copy()
        flipped[:, i] = ~flipped[:, i]
        out[:, i] = game.values_for_memberships(flipped)
    return out


_FLIP_GAMES = {
    "size-table": SizeSymmetricGame(7, np.r_[0.0, np.random.default_rng(3).random(7)]),
    "k-of-n": KOutOfNGame(7, 4),
    "weighted-integer": WeightedVotingGame([5, 3, 3, 2, 1, 1, 4], 9),
    "additive-dyadic": AdditiveGame([0.5, -1.25, 3.0, 0.125, 2.75, -0.375, 1.0]),
    "dense": random_dense_game(7, np.random.default_rng(4)),
}


@pytest.mark.parametrize("name", _FLIP_GAMES)
def test_flip_matches_fresh_evaluation(name):
    game = _FLIP_GAMES[name]
    n = game.n
    rng = np.random.default_rng(9)
    members = np.vstack(
        [np.zeros((1, n), bool), np.ones((1, n), bool), rng.random((300, n)) < rng.random((300, 1))]
    )
    got = game._phi(game._flip_stats(game._weight_sums(members), members))
    assert got.shape == (len(members), n)
    assert got.tobytes() == _fresh_flips(game, members).tobytes()


@pytest.mark.parametrize("name", _FLIP_GAMES)
def test_value_bound_covers_every_coalition(name):
    game = _FLIP_GAMES[name]
    values = np.abs(game.dense_values())
    assert values.max() <= game.value_bound()


@pytest.mark.parametrize("n", range(1, 21))
def test_monotone_generator_matches_the_mask_formula(n):
    # The same table bit for bit, and the same draws: the generator is left
    # in the same state.
    for seed in range(8 if n <= 14 else 2):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        table = random_monotone_game(n, mine).table
        assert table.tobytes() == masked_monotone_values(n, theirs).tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_monotone_generator_holds_no_mask_temporaries():
    # The table and DenseTableGame's finiteness check, an eighth of one;
    # the mask formula peaks at about three tables.
    n = 20
    assert peak_tables(lambda: random_monotone_game(n, np.random.default_rng(1)), n) < 2


@pytest.mark.parametrize("make", [random_dense_game, random_monotone_game])
@pytest.mark.parametrize(
    "n, error", [(production.ENUMERATION_CAP + 1, CapacityError), (0, DomainError)]
)
def test_generators_check_the_size_before_allocating(make, n, error):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state

    def build():
        with pytest.raises(error):
            make(n, rng)

    # A 2^25 table is 256 MB; the check raises before any array of that size
    # and before the first draw.
    assert peak_tables(build, production.ENUMERATION_CAP + 1) < 0.01
    assert rng.bit_generator.state == state
