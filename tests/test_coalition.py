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


class _FixedRate:
    """A generator whose Beta draws all equal p, with numpy's own raw bytes
    and floats from the seed."""

    def __init__(self, p: float, seed: int):
        rng = np.random.default_rng(seed)
        self.bit_generator, self.random, self.p = rng.bit_generator, rng.random, p

    def beta(self, theta, rho, size):
        return np.full(size, self.p)


def _pooled_chi2(observed, expected, least=5.0):
    """Chi-square statistic over runs of neighbouring bins pooled until each
    expects at least ``least`` (a short last run joins the one before), and
    the number of pooled bins."""
    groups, run_o, run_e = [], 0, 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        run_o, run_e = run_o + o, run_e + e
        if run_e >= least:
            groups.append([run_o, run_e])
            run_o, run_e = 0, 0.0
    if groups:
        groups[-1][0] += run_o
        groups[-1][1] += run_e
    return sum((o - e) ** 2 / e for o, e in groups), len(groups)


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

    @pytest.mark.parametrize("theta, rho", [(1.0, 1e6), (1e6, 1.0), (0.05, 0.05)])
    def test_lopsided_shapes_admit_through_ties(self, theta, rho):
        # Almost every row's p lies below 2^-8 or above 1 - 2^-8 (three rows
        # in four at (0.05, 0.05)), so its byte threshold k is 0 or 255 and
        # its members or outsiders come from ties: at (1, 1e6) about 67 of
        # the 2^26 cells, where admitting every tie would give 262,144.
        n, rows, chunks = 64, 1024, 1024
        model = CoalitionModel(n, theta, rho)
        rng = np.random.default_rng(29)
        observed = np.zeros(n + 1, dtype=np.int64)
        for _ in range(chunks):
            sizes = sample_memberships(model, rng, rows).sum(axis=1)
            observed += np.bincount(sizes, minlength=n + 1)
        expected = np.array([size_pmf(model, s) for s in range(n + 1)]) * rows * chunks
        stat, groups = _pooled_chi2(observed, expected)
        assert groups >= 2
        assert stat < stats.chi2.ppf(0.9999, df=groups - 1)

    def test_rates_on_the_byte_grid_are_exact(self):
        # p = 0 admits no one and p = 1 everyone.  p = k / 256 leaves no
        # remainder, so a tie never admits and the rows are exactly the bytes
        # below k; at p = (k + 1/2) / 256 half of the ties admit.
        n, count = 50, 4000
        model = CoalitionModel(n, 2.0, 3.0)
        assert not sample_memberships(model, _FixedRate(0.0, 1), count).any()
        assert sample_memberships(model, _FixedRate(1.0, 1), count).all()
        raw = np.random.default_rng(2).bit_generator.random_raw(count * n // 8)
        draws = raw.view(np.uint8).reshape(count, n)
        for k in (1, 77, 255):
            assert np.array_equal(
                sample_memberships(model, _FixedRate(k / 256, 2), count), draws < k
            )
            half = sample_memberships(model, _FixedRate((k + 0.5) / 256, 2), count)
            tie = draws == k
            assert np.array_equal(half & ~tie, draws < k)
            ties, admitted = int(tie.sum()), int(half[tie].sum())
            assert abs(admitted - ties / 2) <= 5 * math.sqrt(ties / 4)

    def test_spawned_streams_are_reproducible_and_distinct(self):
        a1, b1 = spawn_streams(42, 2)
        a2, b2 = spawn_streams(42, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert a1.random() != b1.random()
