"""End-to-end applications of the valuation and the balanced-budget rule.

Covers the per-capita division of realized production between the two sides
of the bipartition, power measurement in binary voting games (by whichever
valuation function the caller passes, exact by default), premium setting for
an insurance pool (a negative reserve ratio), and the dynamic toll that
equalizes driver costs on a tolled road segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DataError, DomainError

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

    from .coalition import CoalitionModel
    from .dvalue import Valuation
    from .production import Game

__all__ = [
    "OutcomeShares",
    "PowerReport",
    "InsuranceQuote",
    "CostCurve",
    "PowerCurve",
    "LinearCurve",
    "TableCurve",
    "TollScenario",
    "TollResult",
    "outcome_shares",
    "voting_power",
    "insurance_premium",
    "highway_toll",
    "cost_curve_from_json_dict",
    "load_toll_scenario",
]


@dataclass(frozen=True)
class OutcomeShares:
    """Per-capita division of one realized production value."""

    per_employed: float
    per_unemployed: float
    reserve: float


def outcome_shares(
    n: int, s: int, tau: float, delta: float, production_value: float
) -> OutcomeShares:
    """Split v between the employed, the unemployed and the reserve.

    The employed side keeps (1-tau)v split s ways, the unemployed side
    receives (tau-delta)v split n-s ways, and delta*v is withheld; the three
    parts reassemble to v exactly.  Per-capita equality of the two sides
    holds precisely at tau = 1 - omega + delta*omega.
    """
    if not (1 <= s <= n - 1):
        raise DomainError(f"employment count must lie in [1, n-1], got s={s}, n={n}")
    v = float(production_value)
    return OutcomeShares(
        per_employed=(1.0 - tau) * v / s,
        per_unemployed=(tau - delta) * v / (n - s),
        reserve=delta * v,
    )


@dataclass(frozen=True)
class PowerReport:
    """Per-voter decisiveness: chance of flipping the outcome either way."""

    power: np.ndarray
    valuation: Valuation


def _require_binary_monotone(game: Game) -> None:
    import numpy as np

    from .production import ENUMERATION_CAP, AdditiveGame, SizeSymmetricGame, WeightedVotingGame

    if isinstance(game, WeightedVotingGame):
        return
    if isinstance(game, AdditiveGame):
        # v(T) counts the members of value 1: binary, and then monotone, when
        # every value is 0 or 1 and at most one is 1.
        w = game.player_values
        if not (np.isin(w, (0.0, 1.0)).all() and np.count_nonzero(w) <= 1):
            raise DomainError("voting games must take values in {0,1}")
        return
    if isinstance(game, SizeSymmetricGame):
        u = game.value_by_size()
        if not (np.isin(u, (0.0, 1.0)).all() and np.all(np.diff(u) >= 0)):
            raise DomainError("voting games must be monotone with values in {0,1}")
        return
    if game.n > ENUMERATION_CAP:
        raise DomainError(
            "cannot certify a non-family game as a voting game beyond the "
            "enumeration cap"
        )
    table = game.dense_values()
    up = table != 0
    if not (table == up).all():
        raise DomainError("voting games must take values in {0,1}")
    # Bit j of byte b is v(8b + j).  Each mask without player i + 1 meets the
    # mask with them within a byte for i < 3, and byte by byte above.
    bits = np.packbits(up, bitorder="little")
    for i in range(game.n):
        if i < 3:
            drops = bits & (0x55, 0x33, 0x0F)[i] & ~(bits >> (1 << i))
        else:
            halves = bits.reshape(-1, 2, 1 << (i - 3))
            drops = halves[:, 0] & ~halves[:, 1]
        if drops.any():
            raise DomainError("voting games must be monotone")


def voting_power(
    model: CoalitionModel,
    game: Game,
    valuation: Callable[[CoalitionModel, Game], Valuation] | None = None,
) -> PowerReport:
    """Power of each voter: marginal gain plus marginal loss.

    The gain reads as the probability of turning a blocked result into a
    passed one, the loss as the reverse; their sum measures decisiveness.
    ``valuation(model, game)`` values the players, after the game is
    certified a voting game, so a rejected game draws no samples; it is
    ``exact_valuation`` when None, and ``partial(mc_valuation, samples=...,
    seed=...)`` estimates the power by Monte Carlo.
    """
    _require_binary_monotone(game)
    if valuation is None:
        from .dvalue import exact_valuation as valuation
    val = valuation(model, game)
    power = val.gain + val.loss
    power.setflags(write=False)
    return PowerReport(power=power, valuation=val)


@dataclass(frozen=True)
class InsuranceQuote:
    premium_per_policyholder: float
    expected_cost: float
    total_billed: float
    surcharge: float
    n: int


def insurance_premium(
    model: CoalitionModel, game: Game, surcharge: float
) -> InsuranceQuote:
    """Upfront premium for a pool whose random ill set drives the cost v(S).

    The surcharge acts as a negative reserve ratio, so (1 + surcharge) times
    the expected cost is billed, split evenly across all n policyholders.
    """
    from .dvalue import expected_production

    if not 0.0 <= surcharge < math.inf:
        raise DomainError(f"surcharge must be non-negative and finite, got {surcharge}")
    expected = expected_production(model, game)
    total = (1.0 + surcharge) * expected
    return InsuranceQuote(
        premium_per_policyholder=total / model.n,
        expected_cost=expected,
        total_billed=total,
        surcharge=surcharge,
        n=model.n,
    )


class CostCurve:
    """Nondecreasing cost of driving as a function of traffic volume."""

    def __call__(self, volume: float) -> float:
        if volume < 0:
            raise DomainError(f"traffic volume must be non-negative, got {volume}")
        return self._cost(volume)

    def _cost(self, volume: float) -> float:
        raise NotImplementedError

    def metadata(self) -> dict:
        raise NotImplementedError


class PowerCurve(CostCurve):
    def __init__(self, exponent: float, coefficient: float = 1.0):
        if not (0.0 <= exponent < math.inf and 0.0 <= coefficient < math.inf):
            raise DomainError("cost curves must be nondecreasing and finite")
        self.exponent = float(exponent)
        self.coefficient = float(coefficient)

    def _cost(self, volume: float) -> float:
        return self.coefficient * volume**self.exponent

    def metadata(self) -> dict:
        return {"type": "power", "exponent": self.exponent, "coefficient": self.coefficient}


class LinearCurve(PowerCurve):
    """slope * volume: the power curve with exponent 1."""

    def __init__(self, slope: float):
        super().__init__(1.0, slope)
        self.slope = self.coefficient

    def metadata(self) -> dict:
        return {"type": "linear", "slope": self.slope}


class TableCurve(CostCurve):
    """Tabulated curve, interpolated monotonically (piecewise linear)."""

    def __init__(self, x, y):
        import numpy as np

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise DomainError("table curve needs matching x and y vectors")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("table curve points must be finite")
        if np.any(np.diff(x) <= 0):
            raise DomainError("table x values must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise DomainError("cost curves must be nondecreasing")
        self.x = x
        self.y = y

    def _cost(self, volume: float) -> float:
        if volume < self.x[0] or volume > self.x[-1]:
            # The table, not the caller, lacks the data for this volume.
            raise DataError(
                f"volume {volume} outside tabulated range [{self.x[0]}, {self.x[-1]}]"
            )
        import numpy as np

        return float(np.interp(volume, self.x, self.y))

    def metadata(self) -> dict:
        return {
            "type": "table",
            "points": len(self.x),
            "interpolation": "piecewise-linear",
        }


@dataclass(frozen=True)
class TollScenario:
    n: int
    omega: float
    g: CostCurve

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one car, got {self.n}")
        if not (0.0 <= self.omega <= 1.0):
            raise DomainError(f"solo share must lie in [0,1], got {self.omega}")


@dataclass(frozen=True)
class TollResult:
    toll: float
    production_value: float
    per_driver_cost: float
    identity_residual: float
    metadata: dict


def highway_toll(scenario: TollScenario) -> TollResult:
    """Solo-driver toll that equalizes per-driver cost.

    The toll equals the carpool cost at the reduced volume n(1-omega); the
    over-traffic cost v is reconstructed and the per-driver equality
    v/n = g(n) - g(n(1-omega)) is certified on the way out.
    """
    n, omega, g = scenario.n, scenario.omega, scenario.g
    reduced = n * (1.0 - omega)
    try:
        toll = g(reduced)
        v = n * g(n) - reduced * g(reduced) - n * omega * toll
    except OverflowError:  # float ** overflows loudly, * and - quietly
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"toll arithmetic overflows a float at n={n}")
    per_driver = v / n
    residual = abs(per_driver - (g(n) - g(reduced)))
    return TollResult(
        toll=toll,
        production_value=v,
        per_driver_cost=per_driver,
        identity_residual=residual,
        metadata=scenario.g.metadata(),
    )


def cost_curve_from_json_dict(spec: dict) -> CostCurve:
    try:
        kind = spec["type"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed cost curve: {exc}") from exc
    if kind == "power":
        return PowerCurve(spec.get("exponent", 1.0), spec.get("coefficient", 1.0))
    if kind == "linear":
        return LinearCurve(spec.get("slope", 1.0))
    if kind == "table":
        try:
            return TableCurve(spec["x"], spec["y"])
        except KeyError as exc:
            raise DomainError(f"table curve needs x and y: {exc}") from exc
    raise DomainError(f"unknown cost curve type {kind!r}")


def load_toll_scenario(path: str) -> TollScenario:
    """Scenario file: {"n": int, "omega": real, "g": {"type": ..., ...}}.

    Malformed JSON or fields raise DataError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
            return TollScenario(
                n=int(spec["n"]),
                omega=float(spec["omega"]),
                g=cost_curve_from_json_dict(spec["g"]),
            )
        except KeyError as exc:
            raise DataError(f"toll scenario needs n, omega and g: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed toll scenario {path}: {exc}") from exc
