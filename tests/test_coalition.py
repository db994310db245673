import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dichotomy.coalition import (
    CoalitionModel,
    SubsetId,
    posterior,
    sample_memberships,
    size_pmf,
    spawn_streams,
    subset_pmf,
)
from dichotomy.errors import DomainError

from _oracles import subset_prob


class TestModelAndSubset:
    def test_prior_mean(self):
        assert CoalitionModel(10, 2.0, 3.0).prior_mean == pytest.approx(0.4)

    @pytest.mark.parametrize("n,theta,rho", [(0, 1, 1), (3, 0.0, 1), (3, 1, -2.0)])
    def test_bad_model(self, n, theta, rho):
        with pytest.raises(DomainError):
            CoalitionModel(n, theta, rho)

    def test_subset_membership_validation(self):
        with pytest.raises(DomainError):
            SubsetId.of(3, {4})
        with pytest.raises(DomainError):
            SubsetId.of(3, {0})

    def test_subset_mask_roundtrip(self):
        s = SubsetId.from_mask(5, 0b10110)
        assert s.members == frozenset({2, 3, 5})
        assert s.mask == 0b10110
        assert s.size == 3


class TestSizePmf:
    def test_uniform_prior_gives_uniform_sizes(self):
        model = CoalitionModel(10, 1.0, 1.0)
        for s in range(11):
            assert size_pmf(model, s) == pytest.approx(1.0 / 11.0, rel=1e-12)

    def test_two_players(self):
        model = CoalitionModel(2, 1.0, 1.0)
        assert size_pmf(model, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_sums_to_one(self):
        for (n, th, rh) in [(5, 0.3, 0.7), (40, 2.5, 4.0), (300, 9.0, 0.2)]:
            model = CoalitionModel(n, th, rh)
            assert math.fsum(size_pmf(model, s) for s in range(n + 1)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_matches_enumeration_of_subsets(self):
        # P(|S| = 7) accumulated subset by subset over all C(12, 7) of them.
        n, th, rh = 12, 2.5, 4.0
        model = CoalitionModel(n, th, rh)
        total = sum(
            subset_prob(n, 7, th, rh)
            for _ in itertools.combinations(range(n), 7)
        )
        assert size_pmf(model, 7) == pytest.approx(total, rel=1e-12)

    def test_range_error(self):
        model = CoalitionModel(4, 1.0, 1.0)
        with pytest.raises(DomainError):
            size_pmf(model, 5)
        with pytest.raises(DomainError):
            size_pmf(model, -1)


class TestSubsetPmf:
    def test_two_player_table(self):
        model = CoalitionModel(2, 1.0, 1.0)
        assert subset_pmf(model, SubsetId.empty(2)) == pytest.approx(1 / 3, rel=1e-12)
        assert subset_pmf(model, SubsetId.of(2, {1})) == pytest.approx(1 / 6, rel=1e-12)
        assert subset_pmf(model, SubsetId.full(2)) == pytest.approx(1 / 3, rel=1e-12)

    def test_exchangeability(self):
        model = CoalitionModel(8, 0.7, 2.2)
        a = subset_pmf(model, SubsetId.of(8, {1, 2, 3}))
        b = subset_pmf(model, SubsetId.of(8, {4, 6, 8}))
        assert a == b

    def test_consistency_with_size_pmf(self):
        model = CoalitionModel(12, 2.5, 4.0)
        t = SubsetId.of(12, set(range(1, 8)))
        assert subset_pmf(model, t) == pytest.approx(
            size_pmf(model, 7) / math.comb(12, 7), rel=1e-12
        )

    @given(st.integers(min_value=1, max_value=14))
    def test_total_probability(self, n):
        model = CoalitionModel(n, 1.3, 0.8)
        log_terms = [
            math.log(math.comb(n, s)) + math.log(subset_pmf(model, SubsetId.of(n, set(range(1, s + 1)))))
            for s in range(n + 1)
        ]
        peak = max(log_terms)
        total = peak + math.log(math.fsum(math.exp(t - peak) for t in log_terms))
        assert math.exp(total) == pytest.approx(1.0, abs=1e-12)

    def test_membership_error(self):
        model = CoalitionModel(3, 1.0, 1.0)
        with pytest.raises(DomainError):
            subset_pmf(model, SubsetId.of(5, {5}))


class TestPosterior:
    def test_symmetric_case(self):
        p = posterior(CoalitionModel(10, 1.0, 1.0), 5)
        assert (p.a, p.b, p.omega) == (6.0, 6.0, 0.5)

    def test_direct_substitution(self):
        p = posterior(CoalitionModel(10000, 2.0, 3.0), 9500)
        assert (p.a, p.b) == (9502.0, 503.0)

    def test_prior_consistency(self):
        model = CoalitionModel(17, 0.4, 2.8)
        for s in (0, 5, 17):
            assert posterior(model, s).a - model.theta == s

    def test_mean_approaches_observed_rate(self):
        omega = 0.73
        errs = []
        for n in (100, 10_000, 1_000_000):
            p = posterior(CoalitionModel(n, 2.0, 3.0), int(n * omega))
            errs.append(abs(p.a / (p.a + p.b) - omega))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-5

    def test_range_error(self):
        with pytest.raises(DomainError):
            posterior(CoalitionModel(5, 1.0, 1.0), 6)


class TestSampling:
    def test_single_draw_matches_marginal_law(self):
        model = CoalitionModel(2, 1.0, 1.0)
        rng = np.random.default_rng(11)
        draws = 20_000
        counts = {0: 0, 1: 0, 2: 0, 3: 0}
        for _ in range(draws):
            (row,) = sample_memberships(model, rng, 1)
            counts[int(row @ (1 << np.arange(2)))] += 1
        for mask, expected in [(0, 1 / 3), (1, 1 / 6), (2, 1 / 6), (3, 1 / 3)]:
            se = math.sqrt(expected * (1 - expected) / draws)
            assert abs(counts[mask] / draws - expected) <= 4 * se

    def test_single_player_frequency(self):
        model = CoalitionModel(1, 2.0, 5.0)
        rng = np.random.default_rng(7)
        draws = 20_000
        hits = sum(int(sample_memberships(model, rng, 1).sum()) for _ in range(draws))
        expected = 2.0 / 7.0
        se = math.sqrt(expected * (1 - expected) / draws)
        assert abs(hits / draws - expected) <= 4 * se

    def test_membership_matrix_size_histogram(self):
        model = CoalitionModel(12, 2.5, 4.0)
        rng = np.random.default_rng(5)
        draws = 200_000
        sizes = sample_memberships(model, rng, draws).sum(axis=1)
        observed = np.bincount(sizes, minlength=13)
        expected = np.array([size_pmf(model, s) for s in range(13)]) * draws
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.9999, df=12)

    def test_membership_matrix_is_exchangeable(self):
        model = CoalitionModel(6, 1.5, 2.5)
        rng = np.random.default_rng(3)
        freq = sample_memberships(model, rng, 100_000).mean(axis=0)
        expected = model.prior_mean
        se = math.sqrt(expected * (1 - expected) / 100_000)
        assert np.all(np.abs(freq - expected) <= 4.5 * se)

    def test_membership_matrix_matches_subset_law(self):
        model = CoalitionModel(4, 0.7, 1.8)
        rng = np.random.default_rng(17)
        draws = 200_000
        rows = sample_memberships(model, rng, draws)
        observed = np.bincount(rows @ (1 << np.arange(4)), minlength=16)
        expected = np.array(
            [subset_pmf(model, SubsetId.from_mask(4, m)) for m in range(16)]
        ) * draws
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.9999, df=15)

    def test_spawned_streams_are_reproducible_and_distinct(self):
        a1, b1 = spawn_streams(42, 2)
        a2, b2 = spawn_streams(42, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert a1.random() != b1.random()
