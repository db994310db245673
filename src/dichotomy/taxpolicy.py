"""Balanced-budget tax system.

Two accounting identities tie the tax rate to the hyperparameters of the
opportunity model: the employed keep their aggregate marginal gain, so the
rate is one minus the benefits share, and the same rate must also fund the
reserve plus the aggregate marginal loss of the unemployed.  For given
(n, omega, delta, tau) the pair (theta, rho) solves a linear system whose
closed form is expressed through ten polynomial shorthands in
(omega, tau, delta).  The system degenerates exactly on the line
tau = 1 - omega + delta*omega, which is also the rule selected by every
asymptotic risk criterion in this package.

Each question has one entry point.  ``solve_theta_rho`` answers one cell
as a ``TaxSolution``: it solves exactly on ``fractions.Fraction``, rounds
once and loads no numpy.  ``probe_columns`` answers a tau grid as columns,
the one grid that ``sweep`` prints: it runs the same expressions in
``np.longdouble`` and imports numpy when it runs, so a grid cell may differ
from the exact solve in its last digits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError, SingularSystemError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DeltaShorthands",
    "PolicyInputs",
    "TaxSolution",
    "delta_shorthands",
    "tax_rate_from_benefits",
    "tax_rate_from_welfare",
    "solve_theta_rho",
    "asymptotic_tax_rule",
    "corrected_tax_rule",
    "ProbeColumns",
    "probe_columns",
]


@dataclass(frozen=True)
class DeltaShorthands:
    """The shorthand polynomials in (omega, tau, delta).

    Each field is computed from its defining polynomial; the linear
    relations between them (d1 = 1 - d, d5 = d2 + d4, ...) are treated as
    testable identities, not as definitions.
    """

    d: float
    d1: float
    d2: float
    d3: float
    d4: float
    d5: float
    d6: float
    d7: float
    d8: float
    d9: float


def _solver_values(w, t, e) -> tuple:
    """d, d1, d2, d3 and d4, the shorthands the closed-form solve uses.

    The arguments may be Python floats, numpy scalars or arrays, or
    Fractions: the solvers evaluate the same expressions in float64, for the
    singular band, in ``np.longdouble`` for a grid's solution, and exactly
    for one cell's.  The literals are ints, which keep each type as it is.
    """
    return (
        w + t - e * w - 1,
        e * w - w - t + 2,
        e * w * t - 2 * e * w - w * t * t + 2 * w * t + t - 1,
        e - t - e * t + t * t,
        (-e * w * t + e * w + e * t - 2 * e + w * t * t - 2 * w * t + w
         - t * t + 3 * t - 1),
    )


def _shorthand_values(w, t, e) -> tuple:
    """The ten shorthands, in DeltaShorthands order."""
    return _solver_values(w, t, e) + (
        -e * w + e * t - 2.0 * e + w - t * t + 4.0 * t - 2.0,
        -w * e + w * t + t - 1.0,
        -e - w * t + 2.0 * t + w - 1.0,
        -e * w - e + w + 3.0 * t - 2.0,
        -2.0 * e * w - e + 2.0 * w + 4.0 * t - 3.0,
    )


def delta_shorthands(omega: float, tau: float, delta: float) -> DeltaShorthands:
    return DeltaShorthands(*_shorthand_values(float(omega), float(tau), float(delta)))


@dataclass(frozen=True)
class PolicyInputs:
    n: float
    omega: float
    delta: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.omega < 1.0):
            raise DomainError(f"employment rate must lie in (0,1), got {self.omega}")
        if not 0.0 < self.n < math.inf:
            raise DomainError(f"labor-force size must be positive and finite, got {self.n}")
        if not (-math.inf < self.delta < math.inf and -math.inf < self.tau < math.inf):
            raise DomainError(
                f"reserve ratio and tax rate must be finite, got {self.delta}, {self.tau}"
            )


@dataclass(frozen=True)
class TaxSolution:
    """Solved hyperparameters with their balance residuals.

    ``residual_benefits`` and ``residual_welfare`` measure how far the
    solved pair is from reproducing the input rate through the benefits-side
    and welfare-side identities; both should sit at rounding level.  Only
    ``solve_theta_rho`` builds one, and it raises on a singular cell.
    """

    theta: float
    rho: float
    inputs: PolicyInputs
    shorthands: DeltaShorthands
    residual_benefits: float
    residual_welfare: float
    valid: bool


@dataclass(frozen=True)
class ProbeColumns:
    """A solved tau grid as columns, one entry per cell.

    Singular cells are invalid; those inside the detection band have nan
    theta, rho and residuals.  The shorthands are float64 arrays.
    """

    tau: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    shorthands: DeltaShorthands
    residual_benefits: np.ndarray
    residual_welfare: np.ndarray
    valid: np.ndarray
    singular: np.ndarray


def tax_rate_from_benefits(n: float, s: float, theta: float, rho: float) -> float:
    """Rate leaving the employed exactly their aggregate marginal gain."""
    if not (1 <= s <= n - 1):
        raise DomainError(f"employment count must lie in [1, n-1], got s={s}, n={n}")
    den = rho + n - s - 1.0
    if den == 0.0:
        raise SingularSystemError("rho + n - s - 1 vanishes")
    return 1.0 - (s * (theta + rho - 1.0) - n * theta) / den


def tax_rate_from_welfare(
    n: float, s: float, theta: float, rho: float, delta: float
) -> float:
    """Reserve ratio plus the unemployed labor's welfare share."""
    if not (1 <= s <= n - 1):
        raise DomainError(f"employment count must lie in [1, n-1], got s={s}, n={n}")
    den = theta + s - 1.0
    if den == 0.0:
        raise SingularSystemError("theta + s - 1 vanishes")
    return delta + (s * (theta + rho - 1.0) - n * (theta - 1.0)) / den


def _closed_form(n, w, e, t) -> tuple:
    """theta and rho, unrounded, in the arithmetic of the arguments."""
    d, d1, d2, d3, d4 = _solver_values(w, t, e)
    den = n * d + d3
    return (n * n * w * d1 + n * d2 + d3) / den, (n * n * (1 - w) * d1 + n * d4 + d3) / den


def _misfits(n, w, e, t, theta, rho) -> tuple:
    """|rate - t| through the benefits and the welfare identity at s = n*w,
    each with its denominator.  A zero denominator divides as 1, so that a
    Fraction does not raise; the callers set that misfit to inf."""
    s = n * w
    hired = s * (theta + rho - 1)
    den8 = rho + n - s - 1
    den9 = theta + s - 1
    return (
        abs(1 - (hired - n * theta) / (den8 + (den8 == 0)) - t), den8,
        abs(e + (hired - n * (theta - 1)) / (den9 + (den9 == 0)) - t), den9,
    )


def _nearest(x: Fraction) -> float:
    """The double nearest x; +-inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _exact_residuals(n: Fraction, w, e, t, theta: float, rho: float) -> tuple[float, float]:
    """The two residuals at a finite rounded pair, exact on Fraction and
    rounded once: each misfit over max(1, |t|), inf where its denominator
    vanishes."""
    r8, den8, r9, den9 = _misfits(n, w, e, t, Fraction(theta), Fraction(rho))
    scale = max(1, abs(t))
    return (
        math.inf if den8 == 0 else _nearest(r8 / scale),
        math.inf if den9 == 0 else _nearest(r9 / scale),
    )


def _exact_n(n) -> Fraction:
    """n as a Fraction: an integer n as given, anything else as its float."""
    return Fraction(int(n) if isinstance(n, numbers.Integral) else float(n))


def _solve_cells(n, omega, delta, taus: np.ndarray) -> tuple[ProbeColumns, np.ndarray]:
    """Solve every cell of a float64 tau vector at one (n, omega, delta).

    Returns the columns, with only the band cells marked singular, and the
    float64 denominators n*d + d3.  The band test uses the float64
    shorthands; theta and rho come from the longdouble shorthands and are
    rounded to float64.  The two identities cancel terms of order
    n^2 * theta down to order rho + n, so their residuals are re-evaluated in
    longdouble at the rounded solution, scaled there and rounded once; plain
    doubles would inflate them by the cancellation ratio.  Where a residual
    still leaves the float range at a finite pair, the longdouble
    cancellation has lost it, and both residuals of that cell are taken
    exactly, as ``solve_theta_rho`` takes them.  Every operation runs with
    numpy's floating-point warnings off: overflow to inf or nan is part of
    the result, as in Python float arithmetic.
    """
    import numpy as np

    nf, w_f, e_f = float(n), float(omega), float(delta)
    ld = np.longdouble
    n_, w, e = ld(n), ld(omega), ld(delta)
    with np.errstate(all="ignore"):
        sh = DeltaShorthands(*_shorthand_values(w_f, taus, e_f))
        den = nf * sh.d + sh.d3
        band = np.abs(den) < 1e-12 * nf
        t = taus.astype(ld)
        theta, rho = (x.astype(float) for x in _closed_form(n_, w, e, t))
        r8, den8, r9, den9 = _misfits(n_, w, e, t, theta.astype(ld), rho.astype(ld))
        scale = np.maximum(1.0, np.abs(t))
        r8 = (r8 / scale).astype(float)
        r9 = (r9 / scale).astype(float)
        r8[den8 == 0] = math.inf
        r9[den9 == 0] = math.inf
        lost = np.isfinite(theta) & np.isfinite(rho) & ~(np.isfinite(r8) & np.isfinite(r9))
        valid = (theta > 0.0) & (rho > 0.0) & (0.0 <= taus) & (taus <= 1.0) & ~band
    for k in np.flatnonzero(lost & ~band).tolist():
        r8[k], r9[k] = _exact_residuals(
            _exact_n(n), Fraction(w_f), Fraction(e_f), Fraction(float(taus[k])),
            float(theta[k]), float(rho[k]),
        )
    for x in (theta, rho, r8, r9):
        x[band] = math.nan
    return ProbeColumns(taus, theta, rho, sh, r8, r9, valid, singular=band), den


def solve_theta_rho(n: float, omega: float, delta: float, tau: float) -> TaxSolution:
    """Closed-form (theta, rho) for the two balance identities at s = n*omega.

    The identities are algebraic in s, so a non-integral n*omega is accepted
    as-is.  Raises when the denominator sits inside the singular band
    |n*d + d3| < 1e-12 * n around the line tau = 1 - omega + delta*omega,
    or is exactly zero.  The band test and the shorthands are float64, as in
    ``probe_columns``; theta, rho and then the residuals at the rounded pair
    are taken exactly on ``fractions.Fraction`` (an integer n as given) and
    rounded once, to +-inf past the float range.  Where theta or rho is
    infinite, the residuals are what IEEE arithmetic gives: nan, or inf for
    the welfare residual when rho alone is.
    """
    inputs = PolicyInputs(n=float(n), omega=float(omega), delta=float(delta), tau=float(tau))
    nf, w_f, e_f, t_f = inputs.n, inputs.omega, inputs.delta, inputs.tau
    sh = DeltaShorthands(*_shorthand_values(w_f, t_f, e_f))
    den = nf * sh.d + sh.d3
    if abs(den) < 1e-12 * nf:
        raise SingularSystemError(
            f"system degenerates near tau = 1 - omega + delta*omega "
            f"(n*d + d3 = {den:.3e})"
        )
    n_ = _exact_n(n)
    w, e, t = Fraction(w_f), Fraction(e_f), Fraction(t_f)
    try:
        theta, rho = map(_nearest, _closed_form(n_, w, e, t))
    except ZeroDivisionError:  # float rounding hid it from the band test
        raise SingularSystemError("system degenerates: n*d + d3 = 0 exactly") from None
    r8 = r9 = math.nan
    if math.isfinite(theta) and math.isfinite(rho):
        r8, r9 = _exact_residuals(n_, w, e, t, theta, rho)
    elif math.isfinite(theta):  # rho alone overflowed: so does the welfare quotient
        r9 = math.inf
    return TaxSolution(
        theta=theta,
        rho=rho,
        inputs=inputs,
        shorthands=sh,
        residual_benefits=r8,
        residual_welfare=r9,
        valid=theta > 0.0 and rho > 0.0 and 0.0 <= t_f <= 1.0,
    )


def asymptotic_tax_rule(omega: float, delta: float) -> float:
    """The large-market rule: tau = 1 - omega + delta*omega.

    Sits exactly on the singular line of the solver; negative delta covers
    the surcharge reading used for insurance pools.
    """
    if not (0.0 < omega < 1.0):
        raise DomainError(f"employment rate must lie in (0,1), got {omega}")
    if not (-1.0 < delta < 1.0):
        raise DomainError(f"reserve ratio must lie in (-1,1), got {delta}")
    return 1.0 - omega + delta * omega


def corrected_tax_rule(
    n: float, omega: float, delta: float, scale: float = 1.0
) -> float:
    """Finite-market refinement tau = rule + scale * omega(1-omega)(1-delta)^2 / n.

    scale = 1 is the variance-minimizing correction; scale = 2 is the
    smallest multiple guaranteeing positive hyperparameters for large n.
    The exact constant lies between the two, so both endpoints are exposed.
    """
    if not 1.0 <= n < math.inf:
        raise DomainError(f"labor-force size must be finite and at least 1, got {n}")
    c = omega * (1.0 - omega) * (1.0 - delta) ** 2
    return asymptotic_tax_rule(omega, delta) + scale * c / n


def probe_columns(n: float, omega: float, delta: float, tau_grid) -> ProbeColumns:
    """Solve along a grid of tax rates, marking singular cells instead of
    dropping them.

    A cell is singular when its denominator n*d + d3 sits inside the
    detection band, or when the denominator changes sign between it and a
    neighbour (the root then lies inside the grid step; the closer endpoint
    gets the mark).  Inputs are checked cell by cell as ``PolicyInputs``
    does, so the first bad cell raises.
    """
    import numpy as np

    taus = np.array(tau_grid, dtype=float).reshape(-1)
    # A bad n, omega or delta fails at the first cell, a bad tau at its own.
    for tau in taus[:1].tolist() + taus[~np.isfinite(taus)][:1].tolist():
        PolicyInputs(n=float(n), omega=float(omega), delta=float(delta), tau=tau)
    cols, den = _solve_cells(n, omega, delta, taus)
    with np.errstate(all="ignore"):
        k = np.flatnonzero(den[:-1] * den[1:] < 0.0)
    # The arrays are this call's own, so the marks go in place.
    cols.singular[np.where(np.abs(den[k]) <= np.abs(den[k + 1]), k, k + 1)] = True
    cols.valid[cols.singular] = False
    return cols

