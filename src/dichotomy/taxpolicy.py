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
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSystemError

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
    "feasible_set_probe",
    "employment_count",
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


def delta_shorthands(omega: float, tau: float, delta: float) -> DeltaShorthands:
    w, t, e = float(omega), float(tau), float(delta)
    return DeltaShorthands(
        d=w + t - e * w - 1.0,
        d1=e * w - w - t + 2.0,
        d2=e * w * t - 2.0 * e * w - w * t * t + 2.0 * w * t + t - 1.0,
        d3=e - t - e * t + t * t,
        d4=(-e * w * t + e * w + e * t - 2.0 * e + w * t * t - 2.0 * w * t + w
            - t * t + 3.0 * t - 1.0),
        d5=-e * w + e * t - 2.0 * e + w - t * t + 4.0 * t - 2.0,
        d6=-w * e + w * t + t - 1.0,
        d7=-e - w * t + 2.0 * t + w - 1.0,
        d8=-e * w - e + w + 3.0 * t - 2.0,
        d9=-2.0 * e * w - e + 2.0 * w + 4.0 * t - 3.0,
    )


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
    and welfare-side identities; both should sit at rounding level for any
    non-singular input.
    """

    theta: float
    rho: float
    inputs: PolicyInputs
    shorthands: DeltaShorthands
    residual_benefits: float
    residual_welfare: float
    valid: bool
    singular: bool = False


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


def _residuals_extended(n, s, theta, rho, delta, tau) -> tuple[float, float]:
    # The identities cancel terms of order n^2 * theta down to order rho + n,
    # so they are re-evaluated in extended precision at the stored
    # double-precision solution; plain doubles would inflate the residuals
    # by the cancellation ratio.
    ld = np.longdouble
    n_, s_, th, rh = ld(n), ld(s), ld(theta), ld(rho)
    d_, t_ = ld(delta), ld(tau)
    scale = max(1.0, abs(float(tau)))
    den8 = rh + n_ - s_ - 1.0
    if den8 == 0:
        r8 = math.inf
    else:
        r8 = float(abs(1.0 - (s_ * (th + rh - 1.0) - n_ * th) / den8 - t_)) / scale
    den9 = th + s_ - 1.0
    if den9 == 0:
        r9 = math.inf
    else:
        r9 = float(abs(d_ + (s_ * (th + rh - 1.0) - n_ * (th - 1.0)) / den9 - t_)) / scale
    return r8, r9


def solve_theta_rho(n: float, omega: float, delta: float, tau: float) -> TaxSolution:
    """Closed-form (theta, rho) for the two balance identities at s = n*omega.

    The identities are algebraic in s, so a non-integral n*omega is accepted
    as-is.  Raises when the denominator sits inside the singular band
    |n*d + d3| < 1e-12 * n around the line tau = 1 - omega + delta*omega.
    """
    inputs = PolicyInputs(n=float(n), omega=float(omega), delta=float(delta), tau=float(tau))
    sh = delta_shorthands(omega, tau, delta)
    if abs(n * sh.d + sh.d3) < 1e-12 * n:
        raise SingularSystemError(
            f"system degenerates near tau = 1 - omega + delta*omega "
            f"(n*d + d3 = {n * sh.d + sh.d3:.3e})"
        )
    ld = np.longdouble
    n_, w, t, e = ld(n), ld(omega), ld(tau), ld(delta)
    d = w + t - e * w - 1.0
    d1 = e * w - w - t + 2.0
    d2 = e * w * t - 2.0 * e * w - w * t * t + 2.0 * w * t + t - 1.0
    d3 = e - t - e * t + t * t
    d4 = (-e * w * t + e * w + e * t - 2.0 * e + w * t * t - 2.0 * w * t + w
          - t * t + 3.0 * t - 1.0)
    den = n_ * d + d3
    theta = float((n_ * n_ * w * d1 + n_ * d2 + d3) / den)
    rho = float((n_ * n_ * (1.0 - w) * d1 + n_ * d4 + d3) / den)
    r8, r9 = _residuals_extended(n, n_ * w, theta, rho, delta, tau)
    valid = theta > 0.0 and rho > 0.0 and 0.0 <= tau <= 1.0
    return TaxSolution(
        theta=theta,
        rho=rho,
        inputs=inputs,
        shorthands=sh,
        residual_benefits=r8,
        residual_welfare=r9,
        valid=valid,
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


def feasible_set_probe(
    n: float, omega: float, delta: float, tau_grid
) -> list[TaxSolution]:
    """Solve along a grid of tax rates, marking singular cells instead of
    dropping them.

    A cell is singular when its denominator n*d + d3 sits inside the
    detection band, or when the denominator changes sign between it and a
    neighbour (the root then lies inside the grid step; the closer endpoint
    gets the mark).
    """
    taus = [float(t) for t in tau_grid]
    dens = []
    for tau in taus:
        sh = delta_shorthands(omega, tau, delta)
        dens.append(n * sh.d + sh.d3)
    singular = [abs(den) < 1e-12 * n for den in dens]
    for k in range(len(taus) - 1):
        if dens[k] * dens[k + 1] < 0.0:
            mark = k if abs(dens[k]) <= abs(dens[k + 1]) else k + 1
            singular[mark] = True
    out = []
    for tau, flag in zip(taus, singular):
        try:
            sol = solve_theta_rho(n, omega, delta, tau)
            if flag:
                sol = TaxSolution(
                    theta=sol.theta,
                    rho=sol.rho,
                    inputs=sol.inputs,
                    shorthands=sol.shorthands,
                    residual_benefits=sol.residual_benefits,
                    residual_welfare=sol.residual_welfare,
                    valid=False,
                    singular=True,
                )
        except SingularSystemError:
            inputs = PolicyInputs(n=float(n), omega=float(omega), delta=float(delta), tau=tau)
            sol = TaxSolution(
                theta=math.nan,
                rho=math.nan,
                inputs=inputs,
                shorthands=delta_shorthands(omega, tau, delta),
                residual_benefits=math.nan,
                residual_welfare=math.nan,
                valid=False,
                singular=True,
            )
        out.append(sol)
    return out


def employment_count(n: int, omega: float) -> int:
    """Integer employment count for paths that need an exact subset size."""
    s = n * omega
    r = round(s)
    if abs(s - r) > 1e-9:
        warnings.warn(
            f"n*omega = {s} is not integral; rounding to {r} for the "
            f"integer-count path",
            stacklevel=2,
        )
    return int(r)
