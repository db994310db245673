"""The size law P(|S| = t) against 40-digit mpmath.

The vector kernel sums the logs of neighbouring-size ratios; ``size_pmf`` and
``subset_pmf`` take Loader's deviance form at a single size.  Both are checked
at the spots where each can go wrong: the mode, +-0.3/1/3 standard
deviations, both ends, n/3 and n/2, over shapes that are unimodal, U-shaped,
nearly uniform and lopsided.  Values below 1e-290 are not compared, as
doubles lose relative precision there; the library must then report a value
as small.
"""

import json
import math
import warnings
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest

from dichotomy import cli
from dichotomy.coalition import (
    CoalitionModel,
    SubsetId,
    _running_sum,
    _size_pmf_vector,
    log_size_weights,
    size_pmf,
    subset_pmf,
)
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    expected_production,
    mc_valuation,
)
from dichotomy.errors import DomainError
from dichotomy.posterior import _BLOCK
from dichotomy.production import AdditiveGame, DenseTableGame, KOutOfNGame

SHAPES = [(2, 3), (0.7, 0.4), (1e6, 1), (1, 1e6), (30, 5), (0.05, 0.05), (1e9, 3)]
TINY = mpmath.mpf("1e-290")


def _mp_log_pmf(n, th, rh, t):
    with mpmath.workdps(40):
        n, t, th, rh = map(mpmath.mpf, (n, t, th, rh))
        lg = mpmath.loggamma
        return (
            lg(n + 1) - lg(t + 1) - lg((n - t) + 1)
            + lg(th + t) + lg(rh + (n - t)) - lg(th + rh + n)
            + lg(th + rh) - lg(th) - lg(rh)
        )


def _spots(n, th, rh):
    mean = n * th / (th + rh)
    sd = math.sqrt(n * th * rh * (th + rh + n) / ((th + rh) ** 2 * (th + rh + 1)))
    spots = {0, n, n // 3, n // 2}
    for k in (-3, -1, -0.3, 0, 0.3, 1, 3):
        t = round(mean + k * sd)
        if 0 <= t <= n:
            spots.add(t)
    return sorted(spots)


def _check(got, n, th, rh, t, rtol):
    with mpmath.workdps(40):
        ref = mpmath.exp(_mp_log_pmf(n, th, rh, t))
        if ref < TINY:
            assert got < 1e-280, (n, th, rh, t, got)
            return
        err = abs(mpmath.mpf(got) - ref) / ref
    assert err <= rtol, (n, th, rh, t, float(err))


@pytest.mark.parametrize("th, rh", SHAPES)
@pytest.mark.parametrize("n", [10**3, 10**5, 10**7])
def test_kernel_and_single_sizes_against_mpmath(n, th, rh):
    model = CoalitionModel(n, th, rh)
    pmf = _size_pmf_vector(model)
    spots = set(_spots(n, th, rh)) | {int(np.argmax(pmf))}
    for t in sorted(spots):
        _check(float(pmf[t]), n, th, rh, t, 1e-12)
        _check(size_pmf(model, t), n, th, rh, t, 1e-12)
    assert abs(pmf.sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("th, rh", SHAPES + [(1e-300, 2.0), (3.0, 1e-300)])
def test_subset_weights_against_mpmath(th, rh):
    n = 1000
    model = CoalitionModel(n, th, rh)
    lw = log_size_weights(model)
    assert np.all(np.isfinite(lw))
    for t in (0, 1, 2, n // 2, n - 2, n - 1, n):
        with mpmath.workdps(40):
            ref = _mp_log_pmf(n, th, rh, t) - mpmath.log(mpmath.binomial(n, t))
            assert abs(lw[t] - ref) <= 1e-12 * max(1.0, abs(ref)), t
            if ref > mpmath.log(TINY):
                got = subset_pmf(model, SubsetId.of(n, range(1, t + 1)))
                assert abs(got / mpmath.exp(ref) - 1) <= 1e-12, t


@pytest.mark.parametrize("th, rh", [(1e-300, 1e300), (1e300, 1e-300), (1.0, 5e-324), (1e-300, 1e-300)])
def test_extreme_shapes_give_a_finite_law(th, rh):
    # Neighbour ratios that underflow, or whose excess overflows, are taken
    # from logs; the law stays finite and no floating-point warning escapes.
    model = CoalitionModel(1000, th, rh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf = _size_pmf_vector(model)
        lw = log_size_weights(model)
    assert np.all(np.isfinite(lw))
    assert np.all(np.isfinite(pmf)) and pmf.sum() == pytest.approx(1.0, abs=1e-15)


def _blockwise_running_sum(d: np.ndarray) -> np.ndarray:
    """[0, running sums of d]: a sequential cumsum within each block of
    _BLOCK entries, plus the running total of the earlier blocks' sums."""
    parts, carry = [np.zeros(1)], None
    for start in range(0, len(d), _BLOCK):
        part = np.cumsum(d[start : start + _BLOCK])
        parts.append(part if carry is None else part + carry)
        carry = part[-1] if carry is None else carry + part[-1]
    return np.concatenate(parts)


@pytest.mark.parametrize("k", [0, 1, 4095, 4096, 10_000])
def test_running_sums_keep_their_bits(k):
    # Up to one block the sums are those of one sequential cumsum, signed
    # zeros included; above it, of the blockwise sum with its carries.
    rng = np.random.default_rng(k)
    d = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k)
    d[rng.random(k) < 0.2] = -0.0
    if k:
        d[0] = -0.0
    for backward in (False, True):
        terms = d[::-1] if backward else d
        if k <= _BLOCK:
            want = np.concatenate(([0.0], np.cumsum(terms)))
        else:
            want = _blockwise_running_sum(terms)
            # The carries round differently from one long cumsum.
            assert not np.array_equal(want, np.concatenate(([0.0], np.cumsum(terms))))
        if backward:
            want = -want[::-1]
        got = _running_sum(d, backward)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 100, 10**5])
def test_uniform_prior_is_exactly_uniform(n):
    model = CoalitionModel(n, 1.0, 1.0)
    assert np.all(_size_pmf_vector(model) == 1.0 / (n + 1))
    for t in {0, 1, n // 2, n}:
        assert size_pmf(model, t) == pytest.approx(1.0 / (n + 1), rel=1e-14, abs=0.0)


def _fraction_valuation(n, value):
    """Gains, losses and production at theta = rho = 1, where P(S = T) is
    1 / ((n + 1) C(n, |T|)), in exact rational arithmetic."""
    gain, loss = [Fraction(0)] * n, [Fraction(0)] * n
    production = Fraction(0)
    for t in range(n + 1):
        weight = Fraction(1, (n + 1) * math.comb(n, t))
        for members in combinations(range(n), t):
            mask = sum(1 << i for i in members)
            production += weight * value(mask)
            for i in range(n):
                flip = value(mask ^ (1 << i)) - value(mask)
                if mask >> i & 1:
                    gain[i] -= weight * flip
                else:
                    loss[i] += weight * flip
    return gain, loss, production


def _dense_values(n):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 100, 1 << n).astype(float)
    values[0] = 0.0
    return values


@pytest.mark.parametrize(
    "game",
    [
        DenseTableGame(6, _dense_values(6)),
        KOutOfNGame(7, 4),
        AdditiveGame([3.0, -1.0, 4.0, 1.0, 5.0]),
    ],
    ids=["dense", "k-of-n", "additive"],
)
def test_uniform_prior_against_exact_rationals(game):
    n = game.n
    table = game.dense_values()
    gain, loss, production = _fraction_valuation(n, lambda mask: Fraction(table[mask]))
    model = CoalitionModel(n, 1.0, 1.0)
    val = exact_valuation(model, game)
    # Enumeration takes each gain as a difference of two sums, so its error
    # is relative to the value scale n max|v|, not to the gain.
    tol = 1e-15 * n * max(abs(x) for x in table)
    for got, ref in [*zip(val.gain, gain), *zip(val.loss, loss),
                     (val.expected_production, production),
                     (expected_production(model, game), production),
                     (aggregate_gain_closed_form(model, game), sum(gain)),
                     (aggregate_loss_closed_form(model, game), sum(loss))]:
        assert abs(Fraction(got) - ref) <= tol


# --- shapes whose size-law products overflow ------------------------------------

# n (theta + rho + n) is finite at (3e307, 3e306) and n = 5, and not at (1e308, 1e307).
_INSIDE, _OUTSIDE = ("3e307", "3e306"), ("1e308", "1e307")


@pytest.mark.parametrize(
    "argv",
    [
        ["apps", "insurance", "--game", "majority:5", "--surcharge", "0"],
        ["apps", "voting", "--game", "majority:5"],
        ["dvalue", "--game", "majority:5"],
    ],
    ids=["insurance", "voting", "dvalue"],
)
def test_overflowing_shapes_exit_2_with_one_line(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*argv, "--theta", _OUTSIDE[0], "--rho", _OUTSIDE[1]])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: n (theta + rho + n) must be finite, got n = 5 and (1e+308, 1e+307)\n"


def test_overflowing_shapes_are_rejected_by_the_model():
    with pytest.raises(DomainError, match="must be finite"):
        CoalitionModel(5, 1e308, 1e307)
    with pytest.raises(DomainError, match="must be finite"):
        CoalitionModel(2, 1.0, 1.7e308)
    CoalitionModel(2, 1.0, 8e307)


def _binomial_limit():
    """Binomial(5, p) sizes and majority:5's gain, loss and swing chance, for
    the mean p = theta / (theta + rho) of the shapes just inside the bound."""
    th, rh = (Fraction(float(x)) for x in _INSIDE)
    p = th / (th + rh)
    law = [math.comb(5, t) * p**t * (1 - p) ** (5 - t) for t in range(6)]
    swing = 6 * p**2 * (1 - p) ** 2  # two of the other four are in
    return p, law, swing


def test_shapes_inside_the_bound_meet_the_binomial_limit(capsys):
    p, law, swing = _binomial_limit()
    model = CoalitionModel(5, *(float(x) for x in _INSIDE))
    pmf = _size_pmf_vector(model)
    for got, ref in zip(pmf, law):
        assert abs(Fraction(float(got)) - ref) <= 1.1e-16
        assert abs(Fraction(float(got)) / ref - 1) <= 1e-14
    val = exact_valuation(model, KOutOfNGame(5, 3))
    assert np.all(np.abs(val.gain / float(p * swing) - 1) <= 1e-14)
    assert np.all(np.abs(val.loss / float((1 - p) * swing) - 1) <= 1e-14)
    assert cli.main(["apps", "insurance", "--game", "majority:5", "--surcharge", "0",
                     "--theta", _INSIDE[0], "--rho", _INSIDE[1]]) == 0
    cost = json.loads(capsys.readouterr().out)["expected_cost"]
    assert abs(cost / float(sum(law[3:])) - 1) <= 1e-14
    assert cli.main(["apps", "voting", "--game", "majority:5",
                     "--theta", _INSIDE[0], "--rho", _INSIDE[1]]) == 0
    power = json.loads(capsys.readouterr().out)["power"]
    assert np.all(np.abs(np.array(power) / float(swing) - 1) <= 1e-14)


@pytest.mark.parametrize("counted", [False, True], ids=["rows", "counts"])
def test_monte_carlo_inside_the_bound_meets_the_binomial_limit(counted):
    p, _, swing = _binomial_limit()
    model = CoalitionModel(5, *(float(x) for x in _INSIDE))
    game = KOutOfNGame(5, 3)
    if counted:
        game = DenseTableGame(5, game.dense_values())
    val = mc_valuation(model, game, 200_000, 3)
    assert np.all(np.abs(val.gain - float(p * swing)) <= 5.0 * val.gain_se)
    assert np.all(np.abs(val.loss - float((1 - p) * swing)) <= 5.0 * val.loss_se)
