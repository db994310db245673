"""Numerically stable special functions used by every probability in the package.

All Beta-function ratios elsewhere in the library are formed in log space and
exponentiated last, so the only primitives needed here are ``log_gamma``,
``log_beta`` and ``log_binom``.  They are pure Python, so the core modules
stay cheap to import; only ``posterior`` needs an incomplete beta, and it
takes that from a compiled special-function library.
"""

import math

from .errors import DomainError

__all__ = ["log_gamma", "log_beta", "log_binom"]

# Lanczos series, g = 607/128, 14 terms: relative error below 1e-14 for x > 0.
_LANCZOS_COEF = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if math.isinf(x):
        return math.inf
    tmp = x + 5.2421875
    tmp = (x + 0.5) * math.log(tmp) - tmp
    ser = 0.999999999999997092
    y = x
    for c in _LANCZOS_COEF:
        y += 1.0
        ser += c / y
    return tmp + math.log(2.5066282746310005 * ser / x)


def log_beta(a: float, b: float) -> float:
    """Natural log of the two-parameter Beta function for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"log_beta requires a, b > 0, got ({a}, {b})")
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_binom(n: float, k: float) -> float:
    """Natural log of the binomial coefficient C(n, k), 0 <= k <= n."""
    if k < 0 or k > n:
        raise DomainError(f"log_binom requires 0 <= k <= n, got ({n}, {k})")
    if k == 0 or k == n:
        return 0.0
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)
