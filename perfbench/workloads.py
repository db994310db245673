"""The three benchmark workloads: seeded inputs, one cycle of jobs, oracles.

A workload is a fixed cycle of jobs built from the workload seed.  Each job
has a ``run`` that calls the program and a ``check`` that returns whether the
result passes its oracle; a job fails when ``run`` raises or ``check`` says
no.  The timed loop repeats whole cycles, so every run measures the same mix
of jobs whatever its length.

Library names are imported into this module and called through its globals,
so the tracer can wrap them here as in any other importing module.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dichotomy.apps import voting_power
from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import (
    aggregate_gain_closed_form,
    aggregate_loss_closed_form,
    exact_valuation,
    mc_valuation,
)
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    KOutOfNGame,
    WeightedVotingGame,
    random_dense_game,
    random_monotone_game,
)

# Closed-form and exact aggregates must agree to this share of the larger of
# the two values and n * max|v(T)|.  The floor matters at lopsided shapes,
# where an aggregate is near zero and the closed form's cancellation leaves
# an absolute error far above the value itself (see README.md).
AGGREGATE_RTOL = 1e-8
# Monte Carlo estimates must sit within this many standard errors of exact.
MC_Z = 5.0
MC_STREAMS = 8
# Threads for the parallel Monte Carlo jobs: two, or fewer on a smaller box.
MC_WORKERS = min(2, len(os.sched_getaffinity(0)))


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    cycle: list[Job]
    cli: "CliRunner | None" = None  # set for the workload of CLI processes


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


# --- exact ------------------------------------------------------------------

@dataclass
class ExactResult:
    valuation: object
    gain_closed_form: float
    loss_closed_form: float
    power: np.ndarray | None = None
    twin: object = None


def _check_exact(model, game, r: ExactResult, scale: float) -> bool:
    v = r.valuation
    ok = _finite(v.gain, v.loss, r.gain_closed_form, r.loss_closed_form)
    ok = ok and _close(v.aggregate_gain, r.gain_closed_form, AGGREGATE_RTOL, scale)
    ok = ok and _close(v.aggregate_loss, r.loss_closed_form, AGGREGATE_RTOL, scale)
    if isinstance(game, AdditiveGame):
        share = model.prior_mean
        ok = ok and np.allclose(v.gain, share * game.player_values, rtol=1e-12, atol=0)
        ok = ok and _close(
            v.expected_production, share * float(game.player_values.sum()), 1e-12
        )
    if r.power is not None:
        ok = ok and _finite(r.power) and bool(np.all((r.power >= -1e-12) & (r.power <= 1 + 1e-12)))
    if r.twin is not None:
        ok = ok and np.allclose(r.twin.gain, v.gain, rtol=1e-9, atol=1e-15)
        ok = ok and np.allclose(r.twin.loss, v.loss, rtol=1e-9, atol=1e-15)
    return bool(ok)


def _value_scale(game) -> float:
    """n times the largest |v(T)|: the natural size of an aggregate."""
    if isinstance(game, DenseTableGame):
        return game.n * float(np.abs(game.table).max())
    if isinstance(game, AdditiveGame):
        return game.n * float(np.abs(game.player_values).max())
    return float(game.n)  # k-out-of-n and weighted voting take values in {0, 1}


def _exact_job(kind, model, game, voting=False, twin=False) -> Job:
    scale = _value_scale(game)
    twin_game = DenseTableGame(game.n, game.dense_values()) if twin else None

    def run():
        return ExactResult(
            valuation=exact_valuation(model, game),
            gain_closed_form=aggregate_gain_closed_form(model, game),
            loss_closed_form=aggregate_loss_closed_form(model, game),
            power=voting_power(model, game).power if voting else None,
            twin=exact_valuation(model, twin_game) if twin else None,
        )

    return Job(kind, run, lambda r: _check_exact(model, game, r, scale))


def _voting_weights(rng, n: int) -> tuple[np.ndarray, float]:
    w = rng.integers(1, 10, n).astype(float)
    return w, float(math.floor(w.sum() / 2) + 1)


def build_exact(seed: int, tiny: bool = False) -> Workload:
    """In-process exact valuation on both sides of the closed-form split."""
    rng = np.random.default_rng([seed, 1])
    # Shapes spread over the body of the prior, one leaning far to the
    # employed side, and the lopsided pairs where closed forms cancel most.
    shapes = [(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4))) for _ in range(12)]
    shapes += [(float(rng.uniform(5, 50)), float(rng.uniform(0.5, 2))), (1.0, 1e6), (1e6, 1.0)]
    if tiny:
        light_n, big_n, add_n, enum_n = 8, (30,), (40,), (6,)
    else:
        light_n, big_n, add_n, enum_n = 16, (1000, 10000), (10000,), (18, 20)
    cycle: list[Job] = []
    for th, rh in shapes:
        k = max(1, round(light_n * th / (th + rh)))
        m = CoalitionModel(light_n, th, rh)
        w, q = _voting_weights(rng, light_n)
        cycle += [
            _exact_job("dense", m, random_dense_game(light_n, rng)),
            _exact_job("monotone", m, random_monotone_game(light_n, rng)),
            _exact_job("kofn-twin", m, KOutOfNGame(light_n, k), twin=True),
            _exact_job("weighted", m, WeightedVotingGame(w, q), voting=True),
        ]
        n = big_n[0]
        m = CoalitionModel(n, th, rh)
        cycle += [
            _exact_job("kofn", m, KOutOfNGame(n, n // 2 + 1)),
            _exact_job("unanimity", m, KOutOfNGame(n, n)),
        ]
    th, rh = shapes[0]
    for n in big_n[1:]:
        m = CoalitionModel(n, th, rh)
        cycle += [
            _exact_job("kofn", m, KOutOfNGame(n, n // 2 + 1)),
            _exact_job("unanimity", m, KOutOfNGame(n, n)),
        ]
    for n in add_n:
        game = AdditiveGame(rng.uniform(0.1, 2.0, n))
        cycle.append(_exact_job("additive", CoalitionModel(n, th, rh), game))
    for n in enum_n:
        m = CoalitionModel(n, th, rh)
        w, q = _voting_weights(rng, n)
        cycle += [
            _exact_job("weighted", m, WeightedVotingGame(w, q), voting=True),
            _exact_job("dense", m, random_dense_game(n, rng)),
            _exact_job("monotone", m, random_monotone_game(n, rng)),
        ]
    return Workload(cycle)


# --- monte-carlo --------------------------------------------------------------

def _fingerprint(v) -> bytes:
    h = hashlib.sha256()
    for arr in (v.gain, v.loss, v.gain_se, v.loss_se):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(np.array(
        [v.aggregate_gain, v.aggregate_loss, v.expected_production,
         v.expected_production_se, v.samples], dtype=float).tobytes())
    return h.digest()


def _mc_job(kind, model, game, samples, mc_seed, workers, exact, refs) -> Job:
    key = (kind, id(game), mc_seed)
    voting = isinstance(game, WeightedVotingGame)

    def run():
        return mc_valuation(
            model, game, samples, mc_seed, streams=MC_STREAMS, max_workers=workers
        )

    def check(v) -> bool:
        ok = v.samples == samples and _finite(v.gain, v.loss, v.gain_se, v.loss_se)
        if exact is not None:
            ok = ok and bool(np.all(np.abs(v.gain - exact.gain) <= MC_Z * v.gain_se))
            ok = ok and bool(np.all(np.abs(v.loss - exact.loss) <= MC_Z * v.loss_se))
        if voting:
            ok = ok and bool(np.all((v.gain >= 0) & (v.gain <= 1)))
            ok = ok and bool(np.all((v.loss >= 0) & (v.loss <= 1)))
        # Same (seed, streams): bit-identical for any worker count and repeat.
        return bool(ok) and refs.setdefault(key, _fingerprint(v)) == _fingerprint(v)

    return Job(f"{kind}/{workers}w", run, check)


def build_monte_carlo(seed: int, tiny: bool = False) -> Workload:
    """In-process Monte Carlo, table-free and table paths, 1 and 2 workers."""
    rng = np.random.default_rng([seed, 2])

    def shape():
        return float(rng.uniform(1, 4)), float(rng.uniform(1, 4))

    games = []
    for n, samples in ((50, 16000), (200, 4000)):
        w, q = _voting_weights(rng, 12 if tiny else n)
        games.append((f"weighted{n}", WeightedVotingGame(w, q), samples, shape()))
    n = 12 if tiny else 100
    th, rh = shape()
    k = max(1, round(n * th / (th + rh)))  # pivotal sizes stay likely
    games += [
        ("kofn100", KOutOfNGame(n, k), 8000, (th, rh)),
        ("additive100", AdditiveGame(rng.uniform(0.1, 2.0, n)), 8000, shape()),
        ("dense16", random_dense_game(8 if tiny else 16, rng), 100000, shape()),
    ]
    refs: dict = {}
    cycle: list[Job] = []
    for kind, game, samples, (th, rh) in games:
        model = CoalitionModel(game.n, th, rh)
        # Every game but the large voting ones has an exact value to meet.
        exact = None if kind.startswith("weighted") else exact_valuation(model, game)
        samples = max(64, samples // 20) if tiny else samples
        for mc_seed in rng.integers(0, 2**31, size=2):
            for workers in sorted({1, MC_WORKERS}):
                cycle.append(
                    _mc_job(kind, model, game, samples, int(mc_seed), workers, exact, refs)
                )
    return Workload(cycle)


# --- cli ----------------------------------------------------------------------

class CliRunner:
    """Runs one command in a fresh interpreter and records its peak RSS.

    With ``launcher`` None it runs ``python -m dichotomy ARGV``; otherwise
    ``python *launcher ARGV``.
    """

    def __init__(self, root: Path, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.workdir = workdir
        self.launcher: list[str] | None = None
        self.peak_rss_kb = 0

    def run(self, argv: list[str]) -> tuple[int, bytes]:
        prefix = self.launcher or ["-m", "dichotomy"]
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, *prefix, *argv],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.workdir,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 instead of wait: it reports this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out


def _csv_rows(out: bytes) -> list[list[str]]:
    return [line.split(",") for line in out.decode().splitlines()]


def _rule(omega: float, delta: float) -> float:
    return 1.0 - omega + delta * omega


def _cli_job(kind, runner: CliRunner, argv, check_output, refs) -> Job:
    key = tuple(argv)

    def check(result) -> bool:
        code, out = result
        if code != 0:
            return False
        try:
            ok = check_output(out)
        except (ValueError, KeyError, IndexError, TypeError):
            return False
        # Repeated commands must print byte-identical output.
        return bool(ok) and refs.setdefault(key, out) == out

    return Job(kind, lambda: runner.run(argv), check)


def _check_tax_rate(omega, delta, with_n):
    def check(out):
        rows = _csv_rows(out)
        if with_n:
            header = "omega,delta,n,tau_asymptotic,tau_corrected,tau_corrected_2x,theta,rho,feasible"
            ok = rows[1][8] == "true"
        else:
            header, ok = "omega,delta,tau_asymptotic", True
        return (
            ok and len(rows) == 2 and ",".join(rows[0]) == header
            and float(rows[1][3 if with_n else 2]) == _rule(omega, delta)
        )
    return check


def _check_series(n_rows, flag_delta):
    def check(out):
        rows = _csv_rows(out)
        if ",".join(rows[0]) != "period,omega,delta,tau_asymptotic,tau_corrected":
            return False
        # Even rows of the input leave delta empty, so the flag applies.
        return (
            len(rows) == n_rows + 1
            and all(float(r[2]) == flag_delta for r in rows[1::2])
            and all(float(r[3]) == _rule(float(r[1]), float(r[2])) for r in rows[1:])
        )
    return check


def _check_sweep(resolution):
    def check(out):
        lines = out.count(b"\n")
        return lines == resolution * resolution + 1 and out.startswith(b"omega,tau,delta,")
    return check


def _check_verify(n_list):
    def check(out):
        rows = _csv_rows(out)
        return len(rows) == len(n_list) + 1 and rows[0][0] == "n" and all(
            float(r[0]) == n for r, n in zip(rows[1:], n_list)
        )
    return check


def _check_dvalue(n):
    def check(out):
        d = json.loads(out)
        return len(d["gamma"]) == n and _close(
            d["aggregate_gamma"], d["aggregate_gamma_closed_form"], AGGREGATE_RTOL, n
        ) and _close(d["aggregate_lambda"], d["aggregate_lambda_closed_form"], AGGREGATE_RTOL, n)
    return check


def _check_voting(n):
    def check(out):
        p = np.array(json.loads(out)["power"])
        return len(p) == n and bool(np.all((p >= 0) & (p <= 1)))
    return check


def _check_insurance(values, theta, rho, surcharge):
    expected = (1 + surcharge) * theta / (theta + rho) * math.fsum(values) / len(values)

    def check(out):
        return _close(json.loads(out)["premium_per_policyholder"], expected, 1e-9)
    return check


def _check_toll(n, omega, exponent, coefficient):
    toll = coefficient * (n * (1 - omega)) ** exponent

    def check(out):
        d = json.loads(out)
        return _close(d["toll"], toll, 1e-12) and d["identity_residual"] <= 1e-9 * max(
            1.0, abs(d["per_driver_cost"])
        )
    return check


def build_cli(seed: int, root: Path, workdir: Path, tiny: bool = False) -> Workload:
    """Every subcommand in fresh processes, one after another."""
    rng = np.random.default_rng([seed, 3])
    runner = CliRunner(root, workdir)
    refs: dict = {}

    def r(lo, hi):
        return float(rng.uniform(lo, hi))

    omega, delta = r(0.55, 0.95), r(0.0, 0.3)
    tau = _rule(omega, delta) + r(0.2, 0.8) * (1 - _rule(omega, delta))
    n_market = float(rng.integers(1000, 1_000_000))
    resolution = 11 if tiny else 201
    n_rows = 20 if tiny else 1000

    rates = workdir / "rates.csv"
    with open(rates, "w", encoding="utf-8") as fh:
        fh.write("period,omega,delta\n")
        for i in range(n_rows):
            d = repr(r(0.0, 0.3)) if i % 2 else ""
            fh.write(f"p{i:05d},{r(0.05, 0.95)!r},{d}\n")
    toll_n, toll_omega, toll_exp, toll_coef = int(rng.integers(50, 5000)), r(0.1, 0.9), r(1, 3), r(0.5, 2)
    toll = workdir / "toll.json"
    toll.write_text(json.dumps({
        "n": toll_n, "omega": toll_omega,
        "g": {"type": "power", "exponent": toll_exp, "coefficient": toll_coef},
    }))
    w, q = _voting_weights(rng, 10)
    dvalue_game = "weighted:" + ",".join(str(int(x)) for x in w) + f":{q:g}"
    w, q = _voting_weights(rng, 12)
    voting_game = "weighted:" + ",".join(str(int(x)) for x in w) + f":{q:g}"
    values = [round(r(0.5, 2), 6) for _ in range(8)]
    th, rh, surcharge = r(0.5, 4), r(0.5, 4), r(0.0, 0.3)
    base = ["--omega", repr(omega), "--delta", repr(delta)]
    shape = ["--theta", repr(th), "--rho", repr(rh)]
    default_n = [1000, 10000, 100000, 1000000]
    deep_n = [1000, 100000, 10_000_000, 100_000_000]

    specs = [
        ("tax-rate", ["tax-rate", *base], _check_tax_rate(omega, delta, False)),
        ("tax-rate-n", ["tax-rate", *base, "--n", repr(n_market)],
         _check_tax_rate(omega, delta, True)),
        ("series", ["series", str(rates), "--delta", repr(delta), "--n", repr(n_market)],
         _check_series(n_rows, delta)),
        ("sweep", ["sweep", "--n", repr(n_market), "--delta", repr(delta),
                   "--resolution", str(resolution)], _check_sweep(resolution)),
    ]
    for theorem in (2, 3, 4, 5, 6):
        n_list = deep_n if theorem == 4 else default_n
        specs.append((
            f"verify-{theorem}",
            ["verify", "--theorem", str(theorem), *base, "--tau", repr(tau),
             "--n-list", ",".join(map(str, n_list))],
            _check_verify(n_list),
        ))
    specs += [
        ("dvalue", ["dvalue", "--game", dvalue_game, *shape], _check_dvalue(10)),
        ("apps-voting", ["apps", "voting", "--game", voting_game, *shape], _check_voting(12)),
        ("apps-insurance",
         ["apps", "insurance", "--game", "additive:" + ",".join(map(repr, values)),
          *shape, "--surcharge", repr(surcharge)],
         _check_insurance(values, th, rh, surcharge)),
        ("apps-toll", ["apps", "toll", "--scenario", str(toll)],
         _check_toll(toll_n, toll_omega, toll_exp, toll_coef)),
    ]
    cycle = [_cli_job(kind, runner, argv, chk, refs) for kind, argv, chk in specs]
    return Workload(cycle, cli=runner)

