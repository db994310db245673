"""Independent brute-force and quadrature oracles.

Everything here works from first principles (direct set enumeration, scipy
primitives and mpmath quadrature), deliberately avoiding the code paths under
test.
"""

import itertools
import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import betaln


def subset_prob(n: int, t: int, theta: float, rho: float) -> float:
    """Probability of one particular coalition of size t."""
    return math.exp(betaln(theta + t, rho + n - t) - betaln(theta, rho))


def mask_size(mask: int) -> int:
    return bin(mask).count("1")


def brute_valuation(n, theta, rho, v):
    """Definitional per-player gains and losses for v: mask -> value."""
    gain = np.zeros(n)
    loss = np.zeros(n)
    probs = [subset_prob(n, t, theta, rho) for t in range(n + 1)]
    for mask in range(1 << n):
        p = probs[mask_size(mask)]
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                gain[i] += p * (v(mask) - v(mask ^ bit))
            else:
                loss[i] += p * (v(mask | bit) - v(mask))
    return gain, loss


def brute_expected_production(n, theta, rho, v) -> float:
    return sum(
        subset_prob(n, mask_size(mask), theta, rho) * v(mask) for mask in range(1 << n)
    )


def brute_outperforms(n, v, i, j) -> bool:
    """Both dominance conditions, enumerated literally (players 1-based)."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    others = [k for k in range(n) if k not in (i - 1, j - 1)]
    for picks in itertools.chain.from_iterable(
        itertools.combinations(others, r) for r in range(len(others) + 1)
    ):
        z = 0
        for k in picks:
            z |= 1 << k
        if v(z | bi) - v(z) < v(z | bj) - v(z):
            return False
        t = z | bi | bj
        if v(t) - v(t ^ bi) < v(t) - v(t ^ bj):
            return False
    return True


def beta_logpdf(x: float, a: float, b: float) -> float:
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - betaln(a, b)


def beta_pdf(x: float, a: float, b: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp(beta_logpdf(x, a, b))


def quad_raw_moment(a: float, b: float, k: int) -> float:
    val, _ = integrate.quad(
        lambda x: x**k * beta_pdf(x, a, b), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=300
    )
    return val


def quad_mad(a: float, b: float) -> float:
    mu = a / (a + b)
    below, _ = integrate.quad(
        lambda x: (mu - x) * beta_pdf(x, a, b), 0.0, mu,
        epsabs=1e-14, epsrel=1e-13, limit=300,
    )
    return 2.0 * below


def quad_lower_semivariance(a: float, b: float) -> float:
    mu = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    lo = max(0.0, mu - 60.0 * sd)
    val, _ = integrate.quad(
        lambda x: (x - mu) ** 2 * beta_pdf(x, a, b), lo, mu,
        epsabs=0.0, epsrel=1e-12, limit=300,
    )
    return val


def mp_lower_semivariance(a: float, b: float):
    """Lower semivariance of Beta(a, b) by mpmath quadrature of the density.

    The integral runs in standardized coordinates z = (x - mu) / sd, so the
    integrand stays O(1) at every shape size; the log-density is formed at
    30 digits, which absorbs the cancellation of its huge terms.
    Returns an ``mpmath.mpf``.
    """
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        mu = a / (a + b)
        sd = mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        ln_norm = mpmath.log(sd) - mpmath.log(mpmath.beta(a, b))

        def integrand(z):
            x = mu + sd * z
            return z * z * mpmath.exp(
                ln_norm + (a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x)
            )

        z_lo = max(-mu / sd, mpmath.mpf(-60))
        knots = [z_lo] + [z for z in (-30, -15, -8, -4, -2, -1) if z > z_lo] + [0]
        return +(sd * sd * mpmath.quad(integrand, knots))
