"""Statistics of the posterior employment rate and its large-market limits.

After observing an employment count s out of n, the employment rate has a
Beta(theta + s, rho + n - s) posterior.  This module provides its summary
statistics (closed forms wherever they exist) and machine-readable reports
that check the advertised limit behaviour along a ladder of market sizes:
degeneracy at the observed rate, the scaled-variance limit, the response of
the mean to the tax rate, the semivariance sandwich, and the squared
MAD-to-variance ratio.

Everything here is the standard library, with two exceptions that
import what they need when they run.  The semivariance series sums its
terms in numpy blocks, and the median (the inverse incomplete beta) takes
``scipy.special``; past 2^36 the semivariances take the Edgeworth value of
the incomplete beta, with no import.  So ``verify`` loads numpy only for
``--theorem 4``, and no CLI command loads scipy.  The scalar
Stirling and Loader helpers live here, below the array layer, and
``coalition`` imports them.  The variance, semivariances and MAD are each one
product of scaled factors, rounded once (``tests/test_posterior_map.py``).
"""

import math
import statistics
from dataclasses import astuple, dataclass, fields

from .errors import DomainError
from .serialize import csv_line
from .taxpolicy import asymptotic_tax_rule, solve_theta_rho

__all__ = [
    "PosteriorRate",
    "PosteriorSummary",
    "LimitRow",
    "LimitReport",
    "beta_mean",
    "beta_variance",
    "beta_mode",
    "beta_median",
    "beta_raw_moment",
    "mad_about_mean",
    "semivariances",
    "summarize",
    "verify_degenerate_limit",
    "verify_asymptotic_variance",
    "verify_posterior_mean_expansion",
    "verify_semivariance_sandwich",
    "verify_mad_ratio",
    "LIMIT_CHECKS",
]


@dataclass(frozen=True)
class PosteriorRate:
    """Beta(a, b) posterior of the employment rate after observing size s."""

    a: float
    b: float
    omega: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"posterior shapes must be positive, got ({self.a}, {self.b})")
        if not (0.0 <= self.omega <= 1.0):
            raise DomainError(f"observed rate must lie in [0, 1], got {self.omega}")


# Terms of the running sums of the size law and of the semivariance series
# are added within blocks of this length and the block totals are added in
# turn, so rounding grows with the block length and the block count, not
# with the number of terms.
_BLOCK = 4096
# Stirling series of the remainder below, in powers of 1 / x^2: B_2k / (2k (2k - 1)).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirlerr(x: float) -> float:
    """The Stirling remainder lgamma(x) - (x - 1/2) log x + x - log(2 pi) / 2:
    from lgamma below 10, from its series above."""
    if x < 10.0:
        return math.lgamma(x) - (x - 0.5) * math.log(x) + x - 0.5 * math.log(2.0 * math.pi)
    y = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * y + c
    return acc / x


def _log_mode_factor(a: float, b: float) -> float:
    """a log(mu) + b log(1 - mu) - log B(a, b) at mu = a / (a + b), in the
    form of Loader (2000) that does not cancel at large shapes."""
    lo, hi = sorted((a, b))  # ab / (a + b) without underflow in ab
    return (
        0.5 * (math.log(lo * (hi / (a + b))) - math.log(2.0 * math.pi))
        - _stirlerr(a) - _stirlerr(b) + _stirlerr(a + b)
    )


def _scaled(*factors, over=()) -> tuple[float, int]:
    """The factors' product over each of ``over`` in turn as a pair (m, e) worth m 2^e, factors
    floats or pairs: no step leaves the float range, and normal steps round as unscaled."""
    m, e = 1.0, 0
    for f, k in (x if isinstance(x, tuple) else math.frexp(x) for x in factors):
        m, e = m * f, e + k
    for f, k in (x if isinstance(x, tuple) else math.frexp(x) for x in over):
        m, e = m / f, e - k
    return m, e


def _scaled_mode_factor(a: float, b: float) -> tuple[float, int]:
    """mu^a nu^b / B(a, b) as a ``_scaled`` pair: the even-exponent root of lo (hi / (a + b))
    / (2 pi) times exp(delta(a + b) - delta(a) - delta(b)) (Loader 2000); below 10, sqrt(x)
    exp(-delta(x)) is sqrt(2 pi x) sqrt(x) k(x), log k(x) = x log x - x - lgamma(1 + x) -> 0."""
    lo, hi = sorted((a, b))
    root, over, log_f = [lo, hi / (a + b)], [2.0 * math.pi], 0.0
    for x, sign in ((a + b, -1), (a, 1), (b, 1)):
        if x < 10.0:
            (root if sign > 0 else over).append(_scaled(2.0 * math.pi, x))
            log_f += sign * (x * math.log(x) - x - math.lgamma(1.0 + x))
        else:
            log_f -= sign * _stirlerr(x)
    m, e = _scaled(*root, over=over)
    return math.sqrt(m * 2 ** (e % 2)) * math.exp(log_f), e // 2


def _check_shapes(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"shape parameters must be positive, got ({a}, {b})")


def beta_mean(a: float, b: float) -> float:
    _check_shapes(a, b)
    return a / (a + b)


def beta_variance(a: float, b: float) -> float:
    """ab / ((a + b)^2 (a + b + 1)) as a ``_scaled`` product, which stays in
    range where ab or the denominator leaves it, as at (1e-250, 1e-100)."""
    _check_shapes(a, b)
    total = a + b
    return math.ldexp(*_scaled(a, b, over=(_scaled(total, total, total + 1.0),)))


def beta_mode(a: float, b: float) -> float | None:
    """Interior mode, or None when the density peaks at a boundary."""
    _check_shapes(a, b)
    if a > 1.0 and b > 1.0:
        return (a - 1.0) / (a + b - 2.0)
    return None


def beta_raw_moment(a: float, b: float, k: int) -> float:
    """k-th raw moment as the product of (a+z)/(a+b+z) over z < k."""
    _check_shapes(a, b)
    if k < 0:
        raise DomainError(f"moment order must be non-negative, got {k}")
    m = 1.0
    for z in range(k):
        m *= (a + z) / (a + b + z)
    return m


def beta_median(a: float, b: float) -> float:
    """Median as the inverse regularized incomplete beta at 1/2."""
    from scipy.special import betaincinv  # scipy loads only where it is needed

    _check_shapes(a, b)
    return float(betaincinv(a, b, 0.5))


def mad_about_mean(a: float, b: float) -> float:
    """Mean absolute deviation about the mean.

    Uses the exact identity 2 a^a b^b / (B(a,b) (a+b)^(a+b+1)); the often
    quoted variant without the +1 in the exponent overstates the deviation
    by a factor a+b (at a = b = 1 it gives 1/2 where direct integration of
    the uniform density gives 1/4).
    """
    _check_shapes(a, b)
    return math.ldexp(*_scaled(2.0, _scaled_mode_factor(a, b), over=(a + b,)))


def _lower_semivariance_series(a: float, b: float) -> float:
    """Lower semivariance of Beta(a, b) for a <= b, as a sum of positive terms.

    DLMF 8.17.8 at x = mu = a / (a + b), with nu = b / (a + b), gives
    I_mu(a, b) = dens / a * sum_{k >= 0} t_k, where t_0 = 1, t_{k+1} =
    t_k (a + k mu) / (a + 1 + k) and dens = mu^a nu^b / B(a, b).  Put into
    var I_mu(a, b) + dens mu (2 mu - 1) / (a (a + b + 1)), with mu / a
    written 1 / (a + b) so that a tiny a loses nothing, the negative term
    cancels against t_0 exactly and leaves
    dens (mu + nu sum_{k >= 1} t_k) / ((a + b) (a + b + 1)).
    The logs of the term ratios are summed blockwise; past term K the ratios
    fall, so the rest of the series is below t_K (a + 1 + K) / (1 + K nu),
    and the sum stops once that is below 2^-60 of it.  Since nu >= 1/2, this
    takes about sqrt(220 a) terms.
    """
    import numpy as np

    total = a + b
    mu, nu = a / total, b / total
    k = np.arange(_BLOCK, dtype=float)
    tail = log_t = 0.0
    start = 0
    while True:
        j = k + start
        # The ratio is 1 - excess.  Where it is below one half, log1p of
        # the excess would magnify its rounding: take the log of the ratio.
        excess = (1.0 + j * nu) / (a + 1.0 + j)
        near = excess <= 0.5
        terms = np.log1p(-excess, where=near, out=np.empty(_BLOCK))
        with np.errstate(divide="ignore"):  # a ratio that underflows ends the terms
            np.log((a + j * mu) / (a + 1.0 + j), where=~near, out=terms)
        np.cumsum(terms, out=terms)
        terms += log_t
        log_t = terms[-1]
        np.exp(terms, out=terms)
        tail += float(terms.sum())
        start += _BLOCK
        rest = terms[-1] * (a + 1.0 + start) / (1.0 + start * nu)
        if not rest > 2.0**-60 * tail:  # also ends at a zero tail or a nan shape
            break
    factor = _scaled_mode_factor(a, b)  # the product is 1e-400 at (1e-250, 1e-100)
    return math.ldexp(*_scaled(factor, mu + nu * tail, over=(total, total + 1.0)))


# Beyond this smaller shape (markets of about 1e11 and more) the series
# would need more than 3e6 terms (65 ms), and an Edgeworth value takes over.
_SERIES_MAX_SHAPE = 2.0**36


def semivariances(a: float, b: float) -> tuple[float, float]:
    """Lower and upper one-sided second central moments about the mean.

    The smaller side is summed as a series of positive terms, the lower side
    when a <= b and, by the reflection x -> 1 - x, the upper side otherwise;
    the other side is the variance less it, which keeps at least half the
    variance and so does not cancel.  Past 2^36 both sides take the Edgeworth
    I_mu(a, b) = 1/2 + gamma / (6 sqrt(2 pi)), off by O(min(a, b)^-1.5), with
    gamma the skewness formed so that a b cannot overflow (Hall 1992, ch. 2).
    """
    _check_shapes(a, b)
    var = beta_variance(a, b)
    if min(a, b) <= _SERIES_MAX_SHAPE:
        if a <= b:
            lower = _lower_semivariance_series(a, b)
            return lower, var - lower
        upper = _lower_semivariance_series(b, a)
        return var - upper, upper
    mu = a / (a + b)
    skew = 2.0 * ((b - a) / (a + b + 2.0)) * math.sqrt((a + b + 1.0) / a) / math.sqrt(b)
    dens = _scaled(_scaled_mode_factor(a, b), mu, 2.0 * mu - 1.0, over=(a, a + b + 1.0))
    lower = var * (0.5 + skew / (6.0 * math.sqrt(2.0 * math.pi))) + math.ldexp(*dens)
    return lower, var - lower


@dataclass(frozen=True)
class PosteriorSummary:
    mean: float
    mode: float | None
    median: float
    variance: float
    lower_semivariance: float
    upper_semivariance: float
    mad: float
    moments: tuple[float, ...]


def summarize(post: PosteriorRate) -> PosteriorSummary:
    """All summary statistics of a posterior rate; raw moments of orders 1
    to 4."""
    a, b = post.a, post.b
    lower, upper = semivariances(a, b)
    return PosteriorSummary(
        mean=beta_mean(a, b),
        mode=beta_mode(a, b),
        median=beta_median(a, b),
        variance=beta_variance(a, b),
        lower_semivariance=lower,
        upper_semivariance=upper,
        mad=mad_about_mean(a, b),
        moments=tuple(beta_raw_moment(a, b, k) for k in range(1, 5)),
    )


@dataclass(frozen=True)
class LimitRow:
    n: float
    theta: float
    rho: float
    mean: float
    variance: float
    n_var: float
    lower_semi: float
    upper_semi: float
    mad: float
    target: float
    abs_error: float


@dataclass(frozen=True)
class LimitReport:
    kind: str
    rows: tuple[LimitRow, ...]
    passed: bool
    details: dict

    def to_csv(self) -> str:
        lines = [",".join(f.name for f in fields(LimitRow))]
        lines += [csv_line(astuple(r)) for r in self.rows]
        return "\n".join(lines) + "\n"


def _solved_shapes(omega, delta, tau, n) -> tuple[float, float, float, float]:
    sol = solve_theta_rho(n, omega, delta, tau)
    if not (sol.theta > 0.0 and sol.rho > 0.0):
        raise DomainError(
            f"no positive hyperparameters at n={n}, tau={tau}: "
            f"theta={sol.theta}, rho={sol.rho}"
        )
    a = sol.theta + n * omega
    b = sol.rho + n * (1.0 - omega)
    return sol.theta, sol.rho, a, b


def _require_open_interval(omega, delta, tau) -> float:
    rule = asymptotic_tax_rule(omega, delta)
    if not (rule < tau < 1.0):
        raise DomainError(
            f"tax rate must lie strictly inside ({rule}, 1); got {tau}"
        )
    return rule


def _limit_check(kind, omega, delta, tau, n_sequence, row, gate) -> LimitReport:
    """Solve the balanced-budget system along the ladder and judge the rows.

    ``row(n, a, b, mean, var)`` gives each row's target and abs_error, plus
    whichever of lower_semi, upper_semi and mad the check reports (the rest
    stay nan); ``gate(rows)`` returns (passed, details).  The rows run in
    increasing n whatever the order given, so each gate judges the largest n
    as its last row.
    """
    _require_open_interval(omega, delta, tau)
    rows = []
    for n in sorted(n_sequence):
        th, rh, a, b = _solved_shapes(omega, delta, tau, n)
        mean = beta_mean(a, b)
        var = beta_variance(a, b)
        extra = {"lower_semi": math.nan, "upper_semi": math.nan, "mad": math.nan}
        extra.update(row(n, a, b, mean, var))
        rows.append(
            LimitRow(n=n, theta=th, rho=rh, mean=mean, variance=var, n_var=n * var, **extra)
        )
    passed, details = gate(rows)
    return LimitReport(kind=kind, rows=tuple(rows), passed=passed, details=details)


def verify_degenerate_limit(
    omega: float, delta: float, tau: float, n_sequence
) -> LimitReport:
    """Mean drifts to the observed rate, the variance dies out, and at the
    last n the raw moments of orders 1 to 4 are within 1e-3 of omega^k."""

    def gate(rows):
        errs = [r.abs_error for r in rows]
        vars_ = [r.variance for r in rows]
        a_last, b_last = rows[-1].theta + rows[-1].n * omega, rows[-1].rho + rows[-1].n * (1 - omega)
        moment_errs = {
            k: abs(beta_raw_moment(a_last, b_last, k) - omega**k)
            for k in range(1, 5)
        }
        passed = (
            all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
            and all(v2 < v1 for v1, v2 in zip(vars_, vars_[1:]))
            and all(e < 1e-3 for e in moment_errs.values())
        )
        return passed, {"moment_errors": moment_errs}

    return _limit_check(
        "degenerate-limit", omega, delta, tau, n_sequence,
        lambda n, a, b, mean, var: {"target": omega, "abs_error": abs(mean - omega)},
        gate,
    )


def _fit_error_slope(rows: list[LimitRow]) -> float:
    """Least-squares slope of log10 |error| on log10 n; nan unless two
    distinct n have a non-zero error."""
    pts = [(math.log10(r.n), math.log10(r.abs_error)) for r in rows if r.abs_error > 0]
    if len({x for x, _ in pts}) < 2:
        return math.nan
    return statistics.linear_regression(*zip(*pts)).slope


def verify_asymptotic_variance(
    omega: float, delta: float, tau: float, n_sequence
) -> LimitReport:
    """n * Var converges to omega(1-omega)(omega+tau-delta*omega-1) at rate 1/n."""
    d = omega + tau - delta * omega - 1.0
    limit = omega * (1.0 - omega) * d

    def gate(rows):
        slope = _fit_error_slope(rows)
        return -1.3 <= slope <= -0.7, {"limit": limit, "slope": slope}

    return _limit_check(
        "scaled-variance", omega, delta, tau, n_sequence,
        lambda n, a, b, mean, var: {"target": limit, "abs_error": abs(n * var - limit)},
        gate,
    )


def verify_posterior_mean_expansion(
    omega: float, delta: float, tau: float, n_sequence
) -> LimitReport:
    """n*(mean - omega) approaches (1-tau)(2*omega-1) + omega^2*(delta-1),
    within 5% of it at the last n, and the mean falls as the rate rises."""
    if not (0.5 < omega < 1.0):
        raise DomainError(
            f"the monotone response holds for omega in (0.5, 1); got {omega}"
        )
    coef = (1.0 - tau) * (2.0 * omega - 1.0) + omega * omega * (delta - 1.0)

    def gate(rows):
        rule = asymptotic_tax_rule(omega, delta)
        n_big = rows[-1].n
        h = min(1e-4, 0.1 * (1.0 - tau), 0.1 * (tau - rule))
        _, _, a_hi, b_hi = _solved_shapes(omega, delta, tau + h, n_big)
        _, _, a_lo, b_lo = _solved_shapes(omega, delta, tau - h, n_big)
        derivative = (beta_mean(a_hi, b_hi) - beta_mean(a_lo, b_lo)) / (2.0 * h)
        passed = rows[-1].abs_error <= 0.05 * abs(coef) and derivative < 0.0
        return passed, {"coefficient": coef, "mean_derivative_in_tau": derivative}

    return _limit_check(
        "mean-response", omega, delta, tau, n_sequence,
        lambda n, a, b, mean, var: {
            "target": coef, "abs_error": abs(n * (mean - omega) - coef)
        },
        gate,
    )


def verify_semivariance_sandwich(
    omega: float, delta: float, tau: float, n_sequence
) -> LimitReport:
    """n * (one-sided variance) lands between (1/2 - 1/sqrt(2*pi)) and 1
    times the scaled-variance limit, for both sides, at the last n and
    within a 10% band."""
    d = omega + tau - delta * omega - 1.0
    upper_bound = omega * (1.0 - omega) * d
    lower_bound = (0.5 - 1.0 / math.sqrt(2.0 * math.pi)) * upper_bound

    def row(n, a, b, mean, var):
        lo_semi, up_semi = semivariances(a, b)
        return {
            "lower_semi": lo_semi, "upper_semi": up_semi,
            "target": upper_bound, "abs_error": abs(n * lo_semi - upper_bound),
        }

    def gate(rows):
        last = rows[-1]
        n_big = last.n
        inside = (
            lower_bound * 0.9 <= n_big * last.lower_semi <= upper_bound * 1.1
            and lower_bound * 0.9 <= n_big * last.upper_semi <= upper_bound * 1.1
        )
        return inside, {"lower_bound": lower_bound, "upper_bound": upper_bound}

    return _limit_check("semivariance-sandwich", omega, delta, tau, n_sequence, row, gate)


def verify_mad_ratio(
    omega: float, delta: float, tau: float, n_sequence
) -> LimitReport:
    """Squared mean absolute deviation over variance approaches 2/pi, within
    1e-2 at the last n."""
    target = 2.0 / math.pi

    def row(n, a, b, mean, var):
        mad = mad_about_mean(a, b)
        return {"mad": mad, "target": target, "abs_error": abs(mad * mad / var - target)}

    def gate(rows):
        details = {"target": target, "final_ratio": rows[-1].mad ** 2 / rows[-1].variance}
        return rows[-1].abs_error <= 1e-2, details

    return _limit_check("mad-ratio", omega, delta, tau, n_sequence, row, gate)


# The numbered limit checks, as run by ``verify --theorem N``.
LIMIT_CHECKS = {
    2: verify_degenerate_limit,
    3: verify_asymptotic_variance,
    4: verify_semivariance_sandwich,
    5: verify_posterior_mean_expansion,
    6: verify_mad_ratio,
}
