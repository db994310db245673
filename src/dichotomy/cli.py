"""Command-line front end.

Subcommands map onto the library surface: ``tax-rate`` and ``series`` apply
the balanced-budget rule, ``dvalue`` values players in a game, ``sweep``
probes the feasible set over a rate grid, ``verify`` runs the numbered
limit checks (see README for the catalogue), and ``apps`` wraps the voting,
insurance and toll applications.  All primary output is CSV or JSON with
floats at 17 significant digits, so repeated runs are byte-identical.

The array layer (``coalition``, ``production``, ``dvalue``) and numpy load
inside the handlers that need arrays: ``dvalue``, ``sweep``, ``apps voting``,
``apps insurance`` and ``parse_game_spec``.  ``tax-rate``, ``series``,
``verify`` (but for ``--theorem 4``, whose semivariance series sums numpy
blocks) and ``apps toll`` on a power or linear curve run without numpy.
``apps`` and ``posterior`` load in the handlers that use them too, so
``tax-rate``, ``series`` and ``sweep`` load neither.

Handlers raise; ``main`` is the one place that turns an exception into a
one-line ``error: <message>`` on stderr and an exit code, through
``_EXIT_CODES`` (first match wins):

* 2 usage: a flag outside its domain, non-finite flag values included
  (``DomainError``), or game values whose sum overflows (``RangeError``)
* 3 infeasible: a singular balanced-budget system (``SingularSystemError``)
* 4 data: a malformed file, game spec, curve spec or table row
  (``DataError``), or an unreadable input or unwritable ``--out``
  (``OSError``)
* 5 capacity: a request beyond every exact path (``CapacityError``): the
  enumeration cap, n <= 24, and for integer voting weights the count
  limits, n <= 66 within 2^22 count cells; or an allocation that fails
  (``MemoryError``), as a game's arrays at a huge n do

Three exits follow partial output and stay in their handlers: ``tax-rate``
exits 3 after its row when no positive hyperparameters exist, ``series``
exits 4 after the good rows when it rejected some, and ``verify`` exits 6
when its gate fails.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from .errors import CapacityError, DataError, DomainError, RangeError, SingularSystemError
from .serialize import csv_line, csv_lines, json_dumps
from .taxpolicy import (
    asymptotic_tax_rule,
    corrected_tax_rule,
    probe_columns,
    solve_theta_rho,
)

if TYPE_CHECKING:
    from .production import Game

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_DATA = 4
EXIT_CAPACITY = 5
EXIT_VERIFY = 6

# First match wins, so DataError comes before the DomainError it refines.
_EXIT_CODES = (
    (DataError, EXIT_DATA),
    (OSError, EXIT_DATA),
    (SingularSystemError, EXIT_INFEASIBLE),
    (CapacityError, EXIT_CAPACITY),
    (MemoryError, EXIT_CAPACITY),
    (DomainError, EXIT_USAGE),
)

# The keys of posterior.LIMIT_CHECKS, which loads only when verify runs.
_THEOREMS = (2, 3, 4, 5, 6)

_SWEEP_HEADER = (
    "omega,tau,delta,n,theta,rho,d,valid,residual_benefits,residual_welfare,singular"
)


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _voting_numbers(texts: list[str]) -> list[float]:
    """The weights and then the quota of a weighted spec.

    Read exactly from their decimal text and scaled by their common
    denominator, they are integers; when the scaled weights total below
    2^53, every weight sum is exact, so a coalition whose decimal weight
    equals the quota reaches it.  Otherwise, or when a decimal exponent
    exceeds 400 (Fraction would expand 10**exponent), or when the scaled
    quota passes the float range, they stay floats: such a quota is above
    the total weight either way, so no coalition wins.
    """
    values = [float(x) for x in texts]
    if all(map(math.isfinite, values)) and all(
        abs(int(x.lower().partition("e")[2] or 0)) <= 400 for x in texts
    ):
        exact = [Fraction(x) for x in texts]
        scale = math.lcm(*(f.denominator for f in exact))
        if sum(abs(f) for f in exact[:-1]) * scale < 2**53:
            try:
                return [float(f * scale) for f in exact]
            except OverflowError:
                pass
    return values


def parse_game_spec(spec: str) -> Game:
    """A game family string or a path to a dense-game JSON file.

    Families: majority:N, kofn:N:K, unanimity:N, weighted:W1,...,Wn:QUOTA,
    additive:V1,...,Vn.
    """
    from .production import AdditiveGame, KOutOfNGame, WeightedVotingGame, load_dense_game

    head, _, rest = spec.partition(":")
    try:
        if head == "majority":
            n = int(rest)
            return KOutOfNGame(n, n // 2 + 1)
        if head == "kofn":
            n_str, k_str = rest.split(":")
            return KOutOfNGame(int(n_str), int(k_str))
        if head == "unanimity":
            n = int(rest)
            return KOutOfNGame(n, n)
        if head == "weighted":
            w_str, q_str = rest.rsplit(":", 1)
            *weights, quota = _voting_numbers(w_str.split(",") + [q_str])
            return WeightedVotingGame(weights, quota)
        if head == "additive":
            return AdditiveGame([float(x) for x in rest.split(",")])
    except RangeError:
        raise  # each value is fine, only their sum overflows: a usage error
    except ValueError as exc:
        raise DataError(f"bad game spec {spec!r}: {exc}") from exc
    if os.path.exists(spec):
        return load_dense_game(spec)
    raise DataError(f"unknown game family or missing file: {spec!r}")


def _cmd_tax_rate(args) -> int:
    tau = asymptotic_tax_rule(args.omega, args.delta)
    if args.n is None:
        text = "omega,delta,tau_asymptotic\n" + csv_line([args.omega, args.delta, tau]) + "\n"
        _write_out(text, args.out)
        return EXIT_OK
    tau_c = corrected_tax_rule(args.n, args.omega, args.delta, scale=1.0)
    tau_2c = corrected_tax_rule(args.n, args.omega, args.delta, scale=2.0)
    sol = solve_theta_rho(args.n, args.omega, args.delta, tau_2c)
    header = (
        "omega,delta,n,tau_asymptotic,tau_corrected,tau_corrected_2x,theta,rho,feasible"
    )
    row = csv_line(
        [args.omega, args.delta, args.n, tau, tau_c, tau_2c, sol.theta, sol.rho, sol.valid]
    )
    _write_out(header + "\n" + row + "\n", args.out)
    if not (sol.theta > 0.0 and sol.rho > 0.0):
        print(
            f"error: no positive hyperparameters at n={args.n} "
            f"(theta={sol.theta}, rho={sol.rho})",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_series(args) -> int:
    with open(args.input, encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{args.input}: {exc}") from exc
    if not rows or rows[0][:2] != ["period", "omega"]:
        raise DataError("line 1: header must be 'period,omega[,delta]'")
    # A bad --n or --delta is a usage error whether or not a row uses it;
    # 0.5 stands in for a rate.
    corrected_tax_rule(args.n, 0.5, args.delta)
    has_delta = len(rows[0]) >= 3 and rows[0][2] == "delta"
    bad: list[str] = []
    seen_periods: set[str] = set()
    out_lines = ["period,omega,delta,tau_asymptotic,tau_corrected"]
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            bad.append(f"line {lineno}: expected at least 2 fields")
            continue
        period = row[0]
        if period in seen_periods:
            bad.append(f"line {lineno}: duplicate period {period!r}")
            continue
        seen_periods.add(period)
        try:
            omega = float(row[1])
        except ValueError:
            bad.append(f"line {lineno}: omega {row[1]!r} is not a number")
            continue
        if not (0.0 < omega < 1.0):
            bad.append(f"line {lineno}: omega {omega} outside (0,1)")
            continue
        delta = args.delta
        if has_delta and len(row) >= 3 and row[2].strip():
            try:
                delta = float(row[2])
            except ValueError:
                bad.append(f"line {lineno}: delta {row[2]!r} is not a number")
                continue
            if not (-1.0 < delta < 1.0):
                bad.append(f"line {lineno}: delta {delta} outside (-1,1)")
                continue
        tau = asymptotic_tax_rule(omega, delta)
        tau_c = corrected_tax_rule(args.n, omega, delta, scale=1.0)
        out_lines.append(csv_line([period, omega, delta, tau, tau_c]))
    _write_out("\n".join(out_lines) + "\n", args.out)
    if bad:
        print("rejected rows:", file=sys.stderr)
        for msg in bad:
            print(f"  {msg}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _mc_valuation(args):
    """The Monte Carlo valuation, as a function of (model, game), that the
    sampling flags of ``dvalue`` and ``apps voting`` ask for."""
    from .dvalue import mc_valuation

    return partial(
        mc_valuation, samples=args.samples, seed=args.seed,
        streams=args.streams, max_workers=args.threads,
    )


def _cmd_dvalue(args) -> int:
    from .coalition import CoalitionModel
    from .dvalue import _closed_form, _exact

    game = parse_game_spec(args.game)
    model = CoalitionModel(game.n, args.theta, args.rho)
    if args.method == "exact":
        # One size law and one pass give the valuation and the size totals.
        val, totals = _exact(model, game)
    else:
        val = _mc_valuation(args)(model, game)
        try:
            totals = _exact(model, game, players=False)[1]
        except CapacityError:
            totals = None
    closed = {}
    for key, which in (("gamma", "gain"), ("lambda", "loss")):
        try:
            value = None if totals is None else _closed_form(model, totals, which)
        except SingularSystemError:  # a coefficient denominator vanishes
            value = None
        closed[f"aggregate_{key}_closed_form"] = value
    # n + 1 floats each, the totals and the model's size law, freed before
    # the report's lists are built.
    del totals, model
    _write_out(json_dumps(val.to_json_dict() | closed) + "\n", args.out)
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise DomainError("ranges must look like LO:HI") from None


def _cmd_sweep(args) -> int:
    import numpy as np

    w_lo, w_hi = _parse_range(args.omega_range)
    t_lo, t_hi = _parse_range(args.tau_range)
    if args.resolution < 1 or w_lo > w_hi or t_lo > t_hi:
        raise DomainError("degenerate sweep ranges")
    if not (0.0 < w_lo and w_hi < 1.0):
        raise DomainError("omega range must stay inside (0,1)")

    def grid(lo: float, hi: float):
        if args.resolution == 1 or lo == hi:
            return [lo]
        return np.linspace(lo, hi, args.resolution)

    taus = grid(t_lo, t_hi)
    lines = [_SWEEP_HEADER]
    # One solve and one column format per omega row: the whole grid at once
    # would hold every column of every row in memory.
    for omega in grid(w_lo, w_hi):
        cols = probe_columns(args.n, omega, args.delta, taus)
        lines += csv_lines(
            [
                omega,
                cols.tau,
                args.delta,
                args.n,
                cols.theta,
                cols.rho,
                cols.shorthands.d,
                cols.valid,
                cols.residual_benefits,
                cols.residual_welfare,
                cols.singular,
            ]
        )
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
        if not n_list:
            raise ValueError("empty n list")
        for n in n_list:
            float(n)  # the solver works in floats; a larger int overflows
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"bad --n-list: {exc}") from exc
    from .posterior import LIMIT_CHECKS

    report = LIMIT_CHECKS[args.theorem](args.omega, args.delta, args.tau, n_list)
    _write_out(report.to_csv(), args.out)
    for key, value in report.details.items():
        print(f"# {key} = {value}", file=sys.stderr)
    if not report.passed:
        # A nan error is the worst: max alone would rank it below any number.
        worst = max(report.rows, key=lambda r: (math.isnan(r.abs_error), r.abs_error))
        print(
            f"verification failed ({report.kind}); worst row: n={worst.n:g} "
            f"target={worst.target} abs_error={worst.abs_error}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_voting(args) -> int:
    from .apps import voting_power
    from .coalition import CoalitionModel

    game = parse_game_spec(args.game)
    model = CoalitionModel(game.n, args.theta, args.rho)
    report = voting_power(model, game, None if args.method == "exact" else _mc_valuation(args))
    out = {
        "n": model.n,
        "theta": model.theta,
        "rho": model.rho,
        "method": report.valuation.method,
        "power": report.power.tolist(),
        "valuation": report.valuation.to_json_dict(),
    }
    _write_out(json_dumps(out) + "\n", args.out)
    return EXIT_OK


def _cmd_insurance(args) -> int:
    from .apps import insurance_premium
    from .coalition import CoalitionModel

    game = parse_game_spec(args.game)
    model = CoalitionModel(game.n, args.theta, args.rho)
    quote = insurance_premium(model, game, args.surcharge)
    out = {
        "n": quote.n,
        "surcharge": quote.surcharge,
        "expected_cost": quote.expected_cost,
        "total_billed": quote.total_billed,
        "premium_per_policyholder": quote.premium_per_policyholder,
    }
    _write_out(json_dumps(out) + "\n", args.out)
    return EXIT_OK


def _cmd_toll(args) -> int:
    from .apps import TollScenario, highway_toll, load_toll_scenario

    if args.scenario:
        scenario = load_toll_scenario(args.scenario)
    elif args.g is None or args.n is None or args.omega is None:
        raise DomainError("toll needs --scenario or all of --g, --n, --omega")
    else:
        scenario = TollScenario(n=args.n, omega=args.omega, g=_parse_curve(args.g))
    result = highway_toll(scenario)
    out = {
        "n": scenario.n,
        "omega": scenario.omega,
        "toll": result.toll,
        "production_value": result.production_value,
        "per_driver_cost": result.per_driver_cost,
        "identity_residual": result.identity_residual,
        "cost_curve": result.metadata,
    }
    _write_out(json_dumps(out) + "\n", args.out)
    return EXIT_OK


def _parse_curve(spec: str):
    from .apps import LinearCurve, PowerCurve

    head, _, rest = spec.partition(":")
    try:
        if head == "power":
            parts = rest.split(":")
            exponent = float(parts[0])
            coefficient = float(parts[1]) if len(parts) > 1 else 1.0
            return PowerCurve(exponent, coefficient)
        if head == "linear":
            return LinearCurve(float(rest))
    except ValueError as exc:
        raise DataError(f"bad cost curve {spec!r}: {exc}") from exc
    raise DataError(f"unknown cost curve {spec!r} (use power:EXP[:COEF] or linear:SLOPE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dichotomy",
        description="Valuation under a random bipartition and the balanced-budget tax rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: list[argparse.ArgumentParser] = []

    def leaf(subparsers, name, func, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        leaves.append(p)
        return p

    # Flag groups shared by several leaves, declared once.
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--game", required=True, help="family spec or JSON file")
    game.add_argument("--theta", type=float, required=True)
    game.add_argument("--rho", type=float, required=True)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--method", choices=("exact", "mc"), default="exact")
    sampling.add_argument("--samples", type=int, default=1_000_000)
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--streams", type=int, default=8)
    sampling.add_argument("--threads", type=int, default=1)

    p = leaf(sub, "tax-rate", _cmd_tax_rate, help="asymptotic and finite-market tax rates")
    p.add_argument("--omega", type=float, required=True, help="employment rate in (0,1)")
    p.add_argument("--delta", type=float, required=True, help="reserve ratio in (-1,1)")
    p.add_argument("--n", type=float, default=None, help="labor-force size")

    p = leaf(sub, "series", _cmd_series, help="apply the rule to a rate series CSV")
    p.add_argument("input", help="CSV with header period,omega[,delta]")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=float, required=True)

    leaf(sub, "dvalue", _cmd_dvalue, help="per-player valuation of a game",
         parents=[game, sampling])

    p = leaf(sub, "sweep", _cmd_sweep, help="feasible-set probe over an (omega, tau) grid")
    p.add_argument("--n", type=float, default=10000.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--omega-range", default="0.05:0.95")
    p.add_argument(
        "--tau-range", default="0.0:1.0",
        help="LO:HI; write --tau-range=LO:HI when LO is negative",
    )
    p.add_argument("--resolution", type=int, default=41, help="grid points per axis")

    p = leaf(sub, "verify", _cmd_verify, help="run a numbered limit check (2-6)")
    p.add_argument("--theorem", type=int, choices=_THEOREMS, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n-list", default="1000,10000,100000,1000000")

    p = sub.add_parser("apps", help="voting power, insurance premium, highway toll")
    apps_sub = p.add_subparsers(dest="app", required=True)
    leaf(apps_sub, "voting", _cmd_voting, parents=[game, sampling])
    p = leaf(apps_sub, "insurance", _cmd_insurance, parents=[game])
    p.add_argument("--surcharge", type=float, required=True)
    p = leaf(apps_sub, "toll", _cmd_toll)
    p.add_argument("--scenario", default=None, help="JSON scenario file")
    p.add_argument("--g", default=None, help="power:EXP[:COEF] or linear:SLOPE")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--omega", type=float, default=None)

    for p in leaves:
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        # A bare MemoryError has no message of its own.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
