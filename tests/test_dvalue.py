import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dichotomy import dvalue
from dichotomy.coalition import CoalitionModel, sample_memberships
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    expected_production,
    mc_valuation,
    ordering_check,
)
from dichotomy.errors import CapacityError, DomainError, SingularSystemError
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    SizeSymmetricGame,
    WeightedVotingGame,
    random_dense_game,
    random_monotone_game,
)

from _oracles import brute_expected_production, brute_valuation


class TestExactValuation:
    def test_single_player(self):
        val = exact_valuation(CoalitionModel(1, 1.0, 1.0), DenseTableGame(1, [0, 1]))
        assert val.gain[0] == pytest.approx(0.5, rel=1e-12)
        assert val.loss[0] == pytest.approx(0.5, rel=1e-12)

    def test_two_player_unanimity(self):
        val = exact_valuation(CoalitionModel(2, 1.0, 1.0), DenseTableGame(2, [0, 0, 0, 1]))
        assert val.gain == pytest.approx([1 / 3, 1 / 3], rel=1e-12)
        assert val.loss == pytest.approx([1 / 6, 1 / 6], rel=1e-12)

    def test_against_definitional_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            n = int(rng.integers(2, 11))
            model = CoalitionModel(n, float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5)))
            game = random_dense_game(n, rng)
            val = exact_valuation(model, game)
            gain, loss = brute_valuation(n, model.theta, model.rho, game.table.__getitem__)
            assert val.gain == pytest.approx(gain, abs=1e-12)
            assert val.loss == pytest.approx(loss, abs=1e-12)

    def test_size_route_agrees_with_enumeration(self):
        model = CoalitionModel(9, 2.0, 3.0)
        game = KOutOfNGame(9, 4)
        dense = DenseTableGame(9, game.dense_values())
        a, b = exact_valuation(model, game), exact_valuation(model, dense)
        assert a.gain == pytest.approx(b.gain, rel=1e-12)
        assert a.loss == pytest.approx(b.loss, rel=1e-12)

    def test_additive_route_agrees_with_enumeration(self):
        model = CoalitionModel(5, 1.7, 2.2)
        game = AdditiveGame([1.5, 2.0, 0.3, 1.0, -0.7])
        dense = DenseTableGame(5, game.dense_values())
        a, b = exact_valuation(model, game), exact_valuation(model, dense)
        assert a.gain == pytest.approx(b.gain, rel=1e-12)
        assert a.loss == pytest.approx(b.loss, rel=1e-12)

    def test_size_symmetric_players_are_interchangeable(self):
        model = CoalitionModel(7, 0.8, 1.9)
        val = exact_valuation(model, SizeSymmetricGame(7, [0, 1, 3, 4, 4.5, 5, 5, 5]))
        assert np.ptp(val.gain) == 0.0
        assert np.ptp(val.loss) == 0.0

    def test_capacity_error(self):
        # 70 voters: past the enumeration cap and past the counts' n <= 66.
        with pytest.raises(CapacityError):
            exact_valuation(
                CoalitionModel(70, 1.0, 1.0), WeightedVotingGame(np.ones(70), 35)
            )

    def test_size_symmetric_scales_past_enumeration_cap(self):
        model = CoalitionModel(5000, 2.0, 3.0)
        game = KOutOfNGame(5000, 2500)
        val = exact_valuation(model, game)
        assert val.aggregate_gain > 0
        assert np.ptp(val.gain) == 0.0
        assert np.isfinite(val.expected_production)
        assert 0.0 < val.expected_production < 1.0
        assert aggregate_gain_closed_form(model, game) == pytest.approx(
            val.aggregate_gain, rel=1e-10
        )
        assert aggregate_loss_closed_form(model, game) == pytest.approx(
            val.aggregate_loss, rel=1e-10
        )

    def test_player_count_mismatch(self):
        with pytest.raises(DomainError):
            exact_valuation(CoalitionModel(3, 1, 1), KOutOfNGame(4, 2))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        model = CoalitionModel(n, float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
        va = rng.random(1 << n)
        vb = rng.random(1 << n)
        va[0] = vb[0] = 0.0
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        mixed = exact_valuation(model, DenseTableGame(n, a * va + b * vb))
        va_val = exact_valuation(model, DenseTableGame(n, va))
        vb_val = exact_valuation(model, DenseTableGame(n, vb))
        assert mixed.gain == pytest.approx(a * va_val.gain + b * vb_val.gain, abs=1e-12)
        assert mixed.loss == pytest.approx(a * va_val.loss + b * vb_val.loss, abs=1e-12)

    def test_additive_loss_at_a_lopsided_shape(self):
        # The unemployed share rho / (theta + rho) is 3e-9 here; 1 - 1e9 / (1e9
        # + 3) would keep only eight of its digits.
        model = CoalitionModel(3, 1e9, 3.0)
        val = exact_valuation(model, AdditiveGame([1.0, 2.0, 5.0]))
        share = Fraction(3) / (Fraction(10**9) + 3)
        for v, got in zip((1, 2, 5), val.loss):
            assert abs(Fraction(got) / (v * share) - 1) <= 4e-16


def _closed_forms(model, game):
    """Both closed-form aggregates from one pass of by-size totals, as the
    dvalue command forms them."""
    totals = dvalue._exact(model, game, players=False)[1]
    return [dvalue._closed_form(model, totals, which) for which in ("gain", "loss")]


class TestAggregates:
    def test_zero_game(self):
        model = CoalitionModel(4, 1.3, 2.1)
        zero = DenseTableGame(4, np.zeros(16))
        assert aggregate_gain_closed_form(model, zero) == 0.0
        assert aggregate_loss_closed_form(model, zero) == 0.0

    def test_unanimity_matches_enumeration(self):
        model = CoalitionModel(2, 1.0, 1.0)
        game = DenseTableGame(2, [0, 0, 0, 1])
        val = exact_valuation(model, game)
        assert aggregate_gain_closed_form(model, game) == pytest.approx(
            val.aggregate_gain, rel=1e-12
        )
        assert aggregate_loss_closed_form(model, game) == pytest.approx(
            val.aggregate_loss, rel=1e-12
        )

    def test_random_suite(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            model = CoalitionModel(n, float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5)))
            game = random_dense_game(n, rng)
            val = exact_valuation(model, game)
            ag = aggregate_gain_closed_form(model, game)
            al = aggregate_loss_closed_form(model, game)
            assert abs(ag - val.aggregate_gain) <= 1e-10 * max(1.0, abs(ag))
            assert abs(al - val.aggregate_loss) <= 1e-10 * max(1.0, abs(al))

    def test_lopsided_majority_gain_aggregate_does_not_cancel(self):
        # At (1e6, 1) the size-n term, about 999, cancels the others; the
        # pivotal size 501 has probability far below 1e-300, so the exact
        # aggregate is 0.
        model = CoalitionModel(1000, 1e6, 1.0)
        assert abs(aggregate_gain_closed_form(model, KOutOfNGame(1000, 501))) < 1e-9

    def test_size_symmetric_collapse_matches_dense(self):
        model = CoalitionModel(10, 1.4, 0.9)
        game = SizeSymmetricGame(10, np.concatenate([[0.0], np.sqrt(np.arange(1, 11))]))
        dense = DenseTableGame(10, game.dense_values())
        assert aggregate_gain_closed_form(model, game) == pytest.approx(
            aggregate_gain_closed_form(model, dense), rel=1e-12
        )
        assert aggregate_loss_closed_form(model, game) == pytest.approx(
            aggregate_loss_closed_form(model, dense), rel=1e-12
        )


    @pytest.mark.parametrize(
        "game",
        [
            KOutOfNGame(1000, 501),
            AdditiveGame([1.0, 2.5, 0.25]),
            WeightedVotingGame([3, 2, 2, 1], 4),
            WeightedVotingGame([0.3, 0.7, 0.4], 0.5),
            random_dense_game(10, np.random.default_rng(3)),
        ],
        ids=["majority", "additive", "voting-integer", "voting-decimal", "dense"],
    )
    @pytest.mark.parametrize("shape", [(2.0, 3.0), (1e6, 1.0), (1.0, 1e6)])
    def test_both_aggregates_from_one_pass(self, game, shape, monkeypatch):
        model = CoalitionModel(game.n, *shape)
        expected = [aggregate_gain_closed_form(model, game), aggregate_loss_closed_form(model, game)]
        calls = []
        for name in ("_size_pmf_vector", "_exact"):
            fn = getattr(dvalue, name)
            monkeypatch.setattr(
                dvalue, name, lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k)
            )
        got = _closed_forms(model, game)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))
        assert len(calls) == 2  # one size law, one pass of size totals

    @pytest.mark.parametrize(
        "game",
        [
            KOutOfNGame(100_000, 50_001),
            KOutOfNGame(100_000, 100_000),
            AdditiveGame(np.linspace(0.5, 2.0, 100_000)),
            SizeSymmetricGame(100_000, np.zeros(100_001)),
        ],
        ids=["majority", "unanimity", "additive", "zero"],
    )
    @pytest.mark.parametrize("shape", [(2.0, 3.0), (1e6, 1.0), (1.0, 1e6), (0.05, 0.05)])
    def test_sum_of_nonzero_terms_matches_the_full_fsum(self, game, shape, monkeypatch):
        model = CoalitionModel(game.n, *shape)
        fast = _closed_forms(model, game)
        monkeypatch.setattr(dvalue, "_fsum_nonzero", math.fsum)
        full = _closed_forms(model, game)
        assert list(map(float.hex, fast)) == list(map(float.hex, full))

    @pytest.mark.parametrize("shape", [(1.0, 1e-13), (1e-13, 1.0)])
    def test_both_aggregates_raise_as_the_first_would(self, shape):
        model = CoalitionModel(5, *shape)
        game = KOutOfNGame(5, 3)
        first = aggregate_gain_closed_form if shape[1] < 1e-12 else aggregate_loss_closed_form
        with pytest.raises(SingularSystemError) as expected:
            first(model, game)
        with pytest.raises(SingularSystemError) as got:
            _closed_forms(model, game)
        assert str(got.value) == str(expected.value)


class TestExpectedProduction:
    def test_constant_on_nonempty(self):
        model = CoalitionModel(2, 1.0, 1.0)
        c = 2.7
        game = DenseTableGame(2, [0, c, c, c])
        assert expected_production(model, game) == pytest.approx(c * 2 / 3, rel=1e-12)

    def test_additive_reduces_to_inclusion_probability(self):
        model = CoalitionModel(6, 2.0, 3.0)
        game = AdditiveGame([1.0, 4.0, 2.0, 0.5, 3.3, 1.1])
        expected = game.player_values.sum() * model.prior_mean
        assert expected_production(model, game) == pytest.approx(expected, rel=1e-12)
        dense = DenseTableGame(6, game.dense_values())
        assert expected_production(model, dense) == pytest.approx(expected, rel=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(3)
        model = CoalitionModel(8, 0.6, 1.7)
        game = random_dense_game(8, rng)
        ref = brute_expected_production(8, 0.6, 1.7, game.table.__getitem__)
        assert expected_production(model, game) == pytest.approx(ref, rel=1e-12)

    def test_against_sampling(self):
        rng = np.random.default_rng(4)
        model = CoalitionModel(7, 1.1, 2.4)
        game = random_dense_game(7, rng)
        val = mc_valuation(model, game, 400_000, seed=9)
        exact = expected_production(model, game)
        assert abs(val.expected_production - exact) <= 4 * val.expected_production_se


class TestMonteCarlo:
    def test_zero_game_is_exactly_zero(self):
        model = CoalitionModel(5, 1.0, 2.0)
        val = mc_valuation(model, DenseTableGame(5, np.zeros(32)), 10_000, seed=1)
        assert np.all(val.gain == 0.0)
        assert np.all(val.loss == 0.0)
        assert np.all(val.gain_se == 0.0)
        assert np.all(val.loss_se == 0.0)

    def test_within_four_standard_errors_of_exact(self):
        rng = np.random.default_rng(12)
        model = CoalitionModel(10, 2.0, 3.0)
        game = random_dense_game(10, rng)
        exact = exact_valuation(model, game)
        val = mc_valuation(model, game, 1_000_000, seed=5)
        assert np.all(np.abs(val.gain - exact.gain) <= 4 * val.gain_se)
        assert np.all(np.abs(val.loss - exact.loss) <= 4 * val.loss_se)

    def test_seed_determinism(self):
        model = CoalitionModel(6, 1.5, 1.5)
        game = random_dense_game(6, np.random.default_rng(0))
        a = mc_valuation(model, game, 50_000, seed=3)
        b = mc_valuation(model, game, 50_000, seed=3)
        assert a.to_json_dict() == b.to_json_dict()

    def test_worker_count_does_not_change_results(self):
        model = CoalitionModel(6, 1.5, 1.5)
        game = random_dense_game(6, np.random.default_rng(1))
        a = mc_valuation(model, game, 60_000, seed=3, max_workers=1)
        b = mc_valuation(model, game, 60_000, seed=3, max_workers=4)
        assert a.to_json_dict() == b.to_json_dict()

    def test_aggregates_are_sums(self):
        model = CoalitionModel(5, 1.0, 3.0)
        game = random_dense_game(5, np.random.default_rng(2))
        val = mc_valuation(model, game, 30_000, seed=8)
        assert val.aggregate_gain == pytest.approx(val.gain.sum(), rel=1e-12)
        assert val.aggregate_loss == pytest.approx(val.loss.sum(), rel=1e-12)

    def test_non_dense_families_sampled_via_membership(self):
        model = CoalitionModel(40, 1.0, 1.0)
        game = KOutOfNGame(40, 22)
        exact = exact_valuation(model, game)
        val = mc_valuation(model, game, 150_000, seed=21)
        assert np.abs(val.gain - exact.gain).max() <= 5 * val.gain_se.max()

    def test_chunks_stay_within_the_cell_budget(self, monkeypatch):
        shapes = []

        def recording(model, rng, count):
            members = sample_memberships(model, rng, count)
            shapes.append(members.shape)
            return members

        monkeypatch.setattr(dvalue, "sample_memberships", recording)
        model = CoalitionModel(1000, 2.0, 3.0)
        game = KOutOfNGame(1000, 501)
        one = mc_valuation(model, game, 20_000, seed=4, streams=1)
        two = mc_valuation(model, game, 20_000, seed=4, streams=1, max_workers=2)
        assert sum(rows for rows, _ in shapes) == 40_000
        assert max(rows * cols for rows, cols in shapes) <= 1 << 16
        assert one.to_json_dict() == two.to_json_dict()

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            mc_valuation(CoalitionModel(2, 1, 1), DenseTableGame(2, [0, 1, 1, 2]), 0, seed=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_validation(self, workers):
        game = DenseTableGame(2, [0, 1, 1, 2])
        with pytest.raises(DomainError, match="worker"):
            mc_valuation(CoalitionModel(2, 1, 1), game, 10, seed=0, max_workers=workers)

    @pytest.mark.parametrize(
        "make",
        [
            lambda c: AdditiveGame(np.array([1.5, 0.25, 3.0, 2.0, 0.75]) * c),
            lambda c: SizeSymmetricGame(5, np.array([0.0, 1.0, 3.5, 4.0, 7.25, 8.0]) * c),
            lambda c: DenseTableGame(5, random_dense_game(5, np.random.default_rng(6)).table * c),
        ],
        ids=["additive", "size-table", "dense"],
    )
    def test_huge_values_are_scaled_exactly(self, make):
        # Values near the float limit are scaled by a power of two inside the
        # sampler, so every result is the small game's times that power.
        big = 2.0**1000
        model = CoalitionModel(5, 2.0, 3.0)
        small = mc_valuation(model, make(1.0), 3000, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = mc_valuation(model, make(big), 3000, seed=5)
        for a, b in [
            (small.gain, huge.gain), (small.loss, huge.loss),
            (small.gain_se, huge.gain_se), (small.loss_se, huge.loss_se),
        ]:
            assert np.all(np.isfinite(b))
            assert (a * big).tobytes() == b.tobytes()
        assert huge.expected_production == small.expected_production * big
        assert huge.expected_production_se == small.expected_production_se * big


class TestOrdering:
    def test_additive_dominance(self):
        model = CoalitionModel(4, 1.0, 1.0)
        report = ordering_check(model, AdditiveGame([3.0, 1.0, 1.0, 0.5]), 1, 2)
        assert report.outperforms
        assert report.gain_ordered and report.loss_ordered

    def test_symmetric_pair_gets_equal_values(self):
        model = CoalitionModel(5, 2.3, 0.9)
        game = KOutOfNGame(5, 3)
        report = ordering_check(model, game, 2, 4)
        assert report.gain_i == pytest.approx(report.gain_j, abs=1e-12)
        assert report.loss_i == pytest.approx(report.loss_j, abs=1e-12)

    def test_integer_voting_beyond_the_enumeration_cap(self):
        game = WeightedVotingGame([2] * 15 + [1] * 15, 23)
        report = ordering_check(CoalitionModel(30, 2, 3), game, 1, 16)
        assert report.outperforms and report.gain_ordered and report.loss_ordered
        assert report.gain_i > report.gain_j and report.loss_i > report.loss_j

    def test_random_monotone_games_never_violate(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            model = CoalitionModel(n, float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
            game = random_monotone_game(n, rng)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                ordering_check(model, game, i, j)


_JSON_ROUTES = {
    "exact-size": (KOutOfNGame(6, 4), None),
    "exact-additive": (AdditiveGame([1.0, 2.5, 0.25]), None),
    "exact-counts": (WeightedVotingGame([3, 1, 2, 2], 5), None),
    "exact-table": (random_dense_game(4, np.random.default_rng(31)), None),
    "mc-rows": (KOutOfNGame(6, 4), 500),
    "mc-additive": (AdditiveGame([1.0, 2.5, 0.25]), 500),
    "mc-counted": (random_dense_game(4, np.random.default_rng(31)), 5000),
}


@pytest.mark.parametrize("route", _JSON_ROUTES)
def test_json_lists_are_python_floats_of_float64_arrays(route):
    # to_json_dict takes tolist(), which gives ints from an integer array:
    # JSON would print them with no ".0", where float() gave floats.
    game, samples = _JSON_ROUTES[route]
    model = CoalitionModel(game.n, 2.0, 3.0)
    if samples is None:
        val = exact_valuation(model, game)
        arrays, out = [val.gain, val.loss], val.to_json_dict()
        lists = [out["gamma"], out["lambda"]]
    else:
        val = mc_valuation(model, game, samples, seed=3)
        arrays, out = [val.gain, val.loss, val.gain_se, val.loss_se], val.to_json_dict()
        lists = [out["gamma"], out["lambda"], *(out["std_error"][k] for k in ("gamma", "lambda"))]
    assert [a.dtype for a in arrays] == [np.float64] * len(arrays)
    assert lists == [list(map(float, a)) for a in arrays]
    assert {type(x) for xs in lists for x in xs} == {float}
