import contextlib
import csv
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dichotomy
from dichotomy import cli, coalition, dvalue, production
from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import aggregate_gain_closed_form, exact_valuation
from dichotomy.production import WeightedVotingGame


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as ex:
        code = ex.code if isinstance(ex.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


class TestTaxRate:
    def test_basic_rule(self, capsys):
        code, out, _ = run_cli(["tax-rate", "--omega", "0.95", "--delta", "0.2"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "omega,delta,tau_asymptotic"
        assert float(row.split(",")[2]) == pytest.approx(0.24, abs=1e-12)

    def test_with_market_size(self, capsys):
        code, out, _ = run_cli(
            ["tax-rate", "--omega", "0.9", "--delta", "0.1", "--n", "10000"], capsys
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["tau_corrected"]) > float(cols["tau_asymptotic"])
        assert cols["feasible"] == "true"
        assert float(cols["theta"]) > 0

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["tax-rate", "--delta", "0.2"], capsys)
        assert code == 2
        assert "usage" in err

    def test_omega_validation(self, capsys):
        code, _, err = run_cli(["tax-rate", "--omega", "1.0", "--delta", "0.2"], capsys)
        assert code == 2
        assert "(0,1)" in err


class TestSeries:
    def _write(self, tmp_path, text):
        path = tmp_path / "rates.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_monthly_file(self, tmp_path, capsys):
        lines = ["period,omega"] + [f"2025-{m:02d},0.9{m % 5}" for m in range(1, 13)]
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        code, out, _ = run_cli(["series", path, "--delta", "0.1", "--n", "1e5"], capsys)
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "period,omega,delta,tau_asymptotic,tau_corrected"
        assert len(rows) == 13

    def test_bad_rate_listed_and_exit_4(self, tmp_path, capsys):
        path = self._write(tmp_path, "period,omega\n2025-01,1.0\n2025-02,0.95\n")
        code, out, err = run_cli(["series", path, "--delta", "0.1", "--n", "1e5"], capsys)
        assert code == 4
        assert "line 2" in err
        assert len(out.strip().split("\n")) == 2  # header plus the good row

    def test_missing_header_exit_4(self, tmp_path, capsys):
        path = self._write(tmp_path, "month,rate\n2025-01,0.9\n")
        code, _, err = run_cli(["series", path, "--delta", "0.1", "--n", "1e5"], capsys)
        assert code == 4
        assert "line 1" in err

    def test_duplicate_period_exit_4(self, tmp_path, capsys):
        path = self._write(tmp_path, "period,omega\nx,0.9\nx,0.8\n")
        code, _, err = run_cli(["series", path, "--delta", "0.1", "--n", "1e5"], capsys)
        assert code == 4
        assert "duplicate" in err

    def test_per_row_delta_override(self, tmp_path, capsys):
        path = self._write(tmp_path, "period,omega,delta\na,0.9,0.3\nb,0.9,\n")
        code, out, _ = run_cli(["series", path, "--delta", "0.1", "--n", "1e5"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        assert float(rows[0][2]) == 0.3  # row delta wins
        assert float(rows[1][2]) == 0.1  # blank falls back to the flag
        assert float(rows[0][3]) == pytest.approx(1 - 0.9 + 0.3 * 0.9)


    def test_label_with_comma_is_quoted(self, tmp_path, capsys):
        path = self._write(tmp_path, 'period,omega\n"a,b",0.5\n"say ""hi""",0.6\n')
        code, out, _ = run_cli(["series", path, "--delta", "0.1", "--n", "1e5"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(r) for r in rows] == [5, 5, 5]
        assert [r[0] for r in rows[1:]] == ["a,b", 'say "hi"']


# Runs a command with stdout and stderr in two files, then prints its exit
# code and peak RSS in kB.  A small interpreter starts the command, because a
# child starts from the high-water RSS of the process that forked it.
_MEASURE = """
import os, subprocess, sys
out, err = (open(path, "wb") for path in sys.argv[1:3])
proc = subprocess.Popen(sys.argv[3:], stdout=out, stderr=err)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _dense_values_call(fn) -> tuple[int, str]:
    """Line number and text of fn's one call to dense_values."""
    lines, start = inspect.getsourcelines(fn)
    (k,) = [k for k, line in enumerate(lines) if "dense_values()" in line]
    return start + k, lines[k].strip()


class TestDvalue:
    def test_unanimity_pair(self, capsys):
        code, out, _ = run_cli(
            ["dvalue", "--game", "unanimity:2", "--theta", "1", "--rho", "1"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["gamma"] == pytest.approx([1 / 3, 1 / 3], rel=1e-12)
        assert report["lambda"] == pytest.approx([1 / 6, 1 / 6], rel=1e-12)
        assert report["aggregate_gamma"] == pytest.approx(2 / 3, rel=1e-12)
        assert report["aggregate_gamma_closed_form"] == pytest.approx(2 / 3, rel=1e-12)

    def test_aggregates_are_sums(self, capsys):
        code, out, _ = run_cli(
            ["dvalue", "--game", "weighted:3,2,1:4", "--theta", "2", "--rho", "3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["aggregate_gamma"] == pytest.approx(sum(report["gamma"]), rel=1e-12)
        assert report["aggregate_lambda"] == pytest.approx(sum(report["lambda"]), rel=1e-12)

    def test_monte_carlo_reruns_are_byte_identical(self, capsys):
        argv = [
            "dvalue", "--game", "majority:5", "--theta", "1", "--rho", "1",
            "--method", "mc", "--samples", "20000", "--seed", "7",
        ]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "std_error" in json.loads(out1)

    def test_thread_flag_does_not_change_output(self, capsys):
        base = [
            "dvalue", "--game", "majority:5", "--theta", "1", "--rho", "1",
            "--method", "mc", "--samples", "20000", "--seed", "7",
        ]
        _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
        _, out2, _ = run_cli(base + ["--threads", "4"], capsys)
        assert out1 == out2

    def test_additive_monte_carlo_keeps_a_small_player(self, capsys):
        # Player 2's marginal is 3 beside a value of 1e17: a difference of two
        # sums would absorb it, the exact marginal +-w_i does not.
        base = ["dvalue", "--game", "additive:1e17,3", "--theta", "2", "--rho", "3"]
        _, out, _ = run_cli(base, capsys)
        exact = json.loads(out)
        code, out, _ = run_cli(
            base + ["--method", "mc", "--samples", "20000", "--seed", "4"], capsys
        )
        assert code == 0
        mc = json.loads(out)
        for key in ("gamma", "lambda"):
            for est, se, ref in zip(mc[key], mc["std_error"][key], exact[key]):
                assert abs(est - ref) <= 5 * se

    def test_exact_beyond_cap_is_capacity_error(self, capsys):
        # 70 voters: past the enumeration cap and past the counts' n <= 66.
        weights = ",".join(["1"] * 70)
        code, _, err = run_cli(
            ["dvalue", "--game", f"weighted:{weights}:35", "--theta", "1", "--rho", "1"],
            capsys,
        )
        assert code == 5
        assert "enumeration" in err

    def test_enumeration_at_n22_stays_within_budget(self, tmp_path):
        # 22 integer weights: counted by size and weight, with no 2^22 table,
        # so nothing warns of enumeration.
        weights = [(3 * k) % 7 + 1 for k in range(22)]
        game = "weighted:" + ",".join(map(str, weights)) + f":{sum(weights) // 2 + 1}"
        env = dict(os.environ, PYTHONPATH=str(Path(dichotomy.__file__).resolve().parents[1]))
        env.pop("PYTHONWARNINGS", None)
        out, err = tmp_path / "out", tmp_path / "err"
        proc = subprocess.run(
            [sys.executable, "-c", _MEASURE, out, err,
             sys.executable, "-m", "dichotomy", "dvalue", "--game", game, *_SHAPE],
            env=env, capture_output=True, text=True, check=True,
        )
        code, maxrss_kb = map(int, proc.stdout.split())
        assert code == 0
        assert maxrss_kb < 400 * 1024
        assert len(json.loads(out.read_text())["gamma"]) == 22
        assert err.read_text() == ""

    def test_enumeration_warns_once_per_enumerating_site(self):
        # Weights of 10^5 put 22 x (quota + 1) cells past the counts' budget,
        # so this n = 21 game enumerates.  One warning per enumerating call,
        # each from the one call site in dvalue._exact: the valuation, then
        # the size totals, which also give the aggregates v(N).
        n = 21
        game = WeightedVotingGame(np.full(n, 1e5), 1e5 * (n // 2 + 1))
        assert production._voting_counts(game) is None
        model = CoalitionModel(n, 1.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exact_valuation(model, game)
            aggregate_gain_closed_form(model, game)
        message = "enumerating 2^21 subsets; expect noticeable cost above n = 20"
        assert [str(w.message) for w in caught] == [message] * 2
        for w in caught:
            assert Path(w.filename).resolve() == Path(dvalue.__file__).resolve()
        expected = [_dense_values_call(dvalue._exact)] * 2
        assert [w.lineno for w in caught] == [lineno for lineno, _ in expected]

    def test_one_size_law_for_both_aggregates(self, capsys, monkeypatch):
        # One size law for the valuation and both closed forms, whichever
        # module asks for it: the handler imports it from coalition.
        calls = []
        pmf = dvalue._size_pmf_vector
        for module in (coalition, dvalue):
            monkeypatch.setattr(module, "_size_pmf_vector", lambda m: calls.append(1) or pmf(m))
        for method in ("exact", "mc"):
            calls.clear()
            code, out, _ = run_cli(
                ["dvalue", "--game", "majority:101", "--theta", "2", "--rho", "3",
                 "--method", method], capsys
            )
            assert code == 0
            assert json.loads(out)["aggregate_lambda_closed_form"] is not None
            assert len(calls) == 1, method

    @pytest.mark.parametrize(
        "weights",
        [[100_000] * 21, [(3 * k) % 7 + 1 for k in range(21)]],
        ids=["enumerated", "counted"],
    )
    def test_one_table_count_and_size_law_per_command(self, weights, capsys, monkeypatch):
        # The valuation and both closed forms share one pass of the exact
        # path: one size law, one count call and, past the count limits, one
        # table and one warning.
        calls = {"dense_values": 0, "_voting_counts": 0, "_size_pmf_vector": 0}

        def counted(name, fn):
            return lambda *a, **k: calls.__setitem__(name, calls[name] + 1) or fn(*a, **k)

        monkeypatch.setattr(
            production.Game, "dense_values", counted("dense_values", production.Game.dense_values)
        )
        for name in ("_voting_counts", "_size_pmf_vector"):
            monkeypatch.setattr(dvalue, name, counted(name, getattr(dvalue, name)))
        game = "weighted:" + ",".join(map(str, weights)) + f":{sum(weights) // 2 + 1}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                ["dvalue", "--game", game, *_SHAPE, "--method", "exact"], capsys
            )
        assert code == 0
        assert json.loads(out)["aggregate_gamma_closed_form"] is not None
        enumerated = int(weights[0] == 100_000)
        assert calls == {"dense_values": enumerated, "_voting_counts": 1, "_size_pmf_vector": 1}
        assert sum("enumerating" in str(w.message) for w in caught) == enumerated

    @pytest.mark.parametrize("method", ["exact", "mc"])
    @pytest.mark.parametrize(
        "shape, singular",
        [(("1e-300", "1"), "lambda"), (("1", "1e-300"), "gamma")],
        ids=["theta-tiny", "rho-tiny"],
    )
    def test_vanishing_denominator_prints_a_null_closed_form(
        self, shape, singular, method, capsys
    ):
        # theta + t - 1 vanishes at t = 1 in the loss coefficients, and
        # rho + n - t - 1 at t = n - 1 in the gain's; the valuation stands.
        argv = ["dvalue", "--game", "majority:3", "--theta", shape[0], "--rho", shape[1],
                "--method", method, "--samples", "2000"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        other = {"gamma": "lambda", "lambda": "gamma"}[singular]
        assert report[f"aggregate_{singular}_closed_form"] is None
        assert report[f"aggregate_{other}_closed_form"] is not None
        if method == "exact":
            model = CoalitionModel(3, float(shape[0]), float(shape[1]))
            val = exact_valuation(model, production.KOutOfNGame(3, 2))
            assert report["gamma"] == val.gain.tolist()
            assert report["lambda"] == val.loss.tolist()

    def test_decimal_weights_decide_ties_exactly(self, capsys):
        # 0.1 + 0.7 < 0.8 in floats; read as decimals, {2, 3} meets the quota.
        shape = ["--theta", "1", "--rho", "1"]
        decimal = run_cli(["dvalue", "--game", "weighted:0.8,0.1,0.7:0.8", *shape], capsys)
        integer = run_cli(["dvalue", "--game", "weighted:8,1,7:8", *shape], capsys)
        assert decimal == integer
        assert json.loads(integer[1])["gamma"][0] == 0.25

    @pytest.mark.parametrize(
        "command, quota",
        [(["dvalue"], "1.5"), (["apps", "insurance", "--surcharge", "0.1"], "0.1")],
        ids=["dvalue", "insurance"],
    )
    def test_quota_past_the_float_range_once_scaled(self, command, quota, capsys):
        # Scaled by 2 * 10^323, the weight 5e-324 is 1 but the quota passes
        # the float range; the weights stay floats, and nobody wins, as in
        # an integer game whose quota tops the total weight.
        shape = ["--theta", "2", "--rho", "3"]
        tiny = run_cli([*command, "--game", f"weighted:5e-324:{quota}", *shape], capsys)
        assert tiny == (0, run_cli([*command, "--game", "weighted:1:2", *shape], capsys)[1], "")

    def test_unknown_game_is_data_error(self, capsys):
        code, _, err = run_cli(
            ["dvalue", "--game", "nosuch:3", "--theta", "1", "--rho", "1"], capsys
        )
        assert code == 4

    def test_dense_game_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "values": [0, 0, 0, 1]}))
        code, out, _ = run_cli(
            ["dvalue", "--game", str(path), "--theta", "1", "--rho", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx([1 / 3, 1 / 3], rel=1e-12)


class TestSweep:
    def test_singular_cells_flagged(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--n", "10000", "--delta", "0.1",
                "--omega-range", "0.9:0.9", "--tau-range", "0.14:0.24",
                "--resolution", "21",
            ],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == (
            "omega,tau,delta,n,theta,rho,d,valid,residual_benefits,"
            "residual_welfare,singular"
        )
        singular = [r for r in rows[1:] if r.endswith(",true")]
        assert len(singular) == 1

    def test_valid_region_on_positive_side_only(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--n", "10000", "--delta", "0.1", "--resolution", "11"], capsys
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            cols = line.split(",")
            d, valid, singular = float(cols[6]), cols[7], cols[10]
            if singular == "true" or abs(10000 * d) < 1.0:
                continue
            assert valid == ("true" if d > 0 else "false")

    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--omega-range", "0.5:0.5", "--tau-range", "0.7:0.7",
                "--resolution", "1",
            ],
            capsys,
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_degenerate_range_rejected(self, capsys):
        code, _, err = run_cli(["sweep", "--omega-range", "0.9:0.1"], capsys)
        assert code == 2

    def test_output_roundtrips_through_float(self, capsys):
        _, out, _ = run_cli(
            ["sweep", "--resolution", "3", "--omega-range", "0.3:0.7",
             "--tau-range", "0.4:0.8"],
            capsys,
        )
        for line in out.strip().split("\n")[1:]:
            cols = line.split(",")
            for k in (0, 1, 2, 3, 4, 5, 6):
                float(cols[k])


    def test_negative_tau_range_needs_equals_form(self, capsys):
        code, out, _ = run_cli(["sweep", "--tau-range=-0.5:1", "--resolution", "3"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 9
        assert {float(r.split(",")[1]) for r in rows} == {-0.5, 0.25, 1.0}


class TestVerify:
    def test_limit_variance_check_passes(self, capsys):
        code, out, err = run_cli(
            [
                "verify", "--theorem", "3", "--omega", "0.9", "--delta", "0.1",
                "--tau", "0.5", "--n-list", "1000,10000,100000",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("n,theta,rho,")
        assert "slope" in err

    def test_majority_precondition_enforced(self, capsys):
        code, _, err = run_cli(
            [
                "verify", "--theorem", "5", "--omega", "0.4", "--delta", "0.1",
                "--tau", "0.7",
            ],
            capsys,
        )
        assert code == 2
        assert "(0.5, 1)" in err

    def test_mad_ratio_check(self, capsys):
        code, _, err = run_cli(
            [
                "verify", "--theorem", "6", "--omega", "0.9", "--delta", "0.1",
                "--tau", "0.5", "--n-list", "1000,1000000",
            ],
            capsys,
        )
        assert code == 0

    def test_gate_failure_exits_6(self, capsys):
        # A single-point ladder leaves the convergence slope undefined.
        code, out, err = run_cli(
            [
                "verify", "--theorem", "3", "--omega", "0.9", "--delta", "0.1",
                "--tau", "0.5", "--n-list", "1000",
            ],
            capsys,
        )
        assert code == 6
        assert "verification failed" in err
        assert out.startswith("n,theta,rho,")

    def test_gate_judges_the_largest_n_in_any_ladder_order(self, capsys, monkeypatch):
        # At n = 1e17 the sandwich fails; listed first, it is still the top rung.
        # The semivariances there are finite and pass, so a nan stands in for
        # a failing rung, as the scipy route gave at these shapes.
        from dichotomy import posterior

        real = posterior.semivariances
        monkeypatch.setattr(
            posterior, "semivariances",
            lambda a, b: (math.nan, math.nan) if a > 1e16 else real(a, b),
        )
        argv = ["verify", "--theorem", "4", "--omega", "0.9", "--delta", "0.1", "--tau", "0.5"]
        results = [
            run_cli([*argv, "--n-list", ladder], capsys)
            for ladder in ("100000000000000000,1000", "1000,100000000000000000")
        ]
        assert [code for code, _, _ in results] == [6, 6]
        assert results[0][1] == results[1][1]
        assert [row.split(",")[0] for row in results[0][1].splitlines()[1:]] == ["1000", "100000000000000000"]

    def test_invalid_theorem_number(self, capsys):
        code, _, err = run_cli(
            ["verify", "--theorem", "7", "--omega", "0.9", "--delta", "0.1",
             "--tau", "0.5"],
            capsys,
        )
        assert code == 2
        assert "invalid choice: 7 (choose from 2, 3, 4, 5, 6)" in err

    def test_theorem_choices_are_the_limit_checks(self):
        from dichotomy.posterior import LIMIT_CHECKS

        assert cli._THEOREMS == tuple(sorted(LIMIT_CHECKS))

    def test_a_nan_row_is_the_worst(self, capsys, monkeypatch):
        # The n = 1e8 rung reads nan, as scipy's betainc route does past
        # shapes of about 1e16, and n = 1000 has a number.
        from dichotomy import posterior

        real = posterior.semivariances
        monkeypatch.setattr(
            posterior, "semivariances",
            lambda a, b: (math.nan, math.nan) if a > 1e6 else real(a, b),
        )
        code, out, err = run_cli(
            ["verify", "--theorem", "4", "--omega", "0.9", "--delta", "0.1",
             "--tau", "0.5", "--n-list", "1000,100000000"],
            capsys,
        )
        assert code == 6
        assert out.splitlines()[-1].endswith(",nan")
        assert "worst row: n=1e+08 " in err
        assert err.rstrip().endswith("abs_error=nan")

    def test_boundary_tau_rejected(self, capsys):
        code, _, err = run_cli(
            ["verify", "--theorem", "2", "--omega", "0.9", "--delta", "0.1",
             "--tau", "0.19"],
            capsys,
        )
        assert code == 2


class TestApps:
    def test_toll_quadratic(self, capsys):
        code, out, _ = run_cli(
            ["apps", "toll", "--g", "power:2", "--n", "100", "--omega", "0.4"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["toll"] == pytest.approx(3600.0)
        assert report["identity_residual"] <= 1e-9

    def test_toll_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "toll.json"
        path.write_text(
            json.dumps(
                {"n": 100, "omega": 0.4,
                 "g": {"type": "table", "x": [0, 60, 100], "y": [0.0, 5.0, 9.0]}}
            )
        )
        code, out, _ = run_cli(["apps", "toll", "--scenario", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["toll"] == pytest.approx(5.0)
        assert report["cost_curve"]["interpolation"] == "piecewise-linear"

    def test_toll_missing_args(self, capsys):
        code, _, err = run_cli(["apps", "toll", "--g", "power:2"], capsys)
        assert code == 2

    def test_voting_egalitarian(self, capsys):
        code, out, _ = run_cli(
            ["apps", "voting", "--game", "majority:5", "--theta", "1", "--rho", "1"],
            capsys,
        )
        assert code == 0
        power = json.loads(out)["power"]
        assert max(power) - min(power) <= 1e-12

    def test_insurance_premium(self, capsys):
        code, out, _ = run_cli(
            [
                "apps", "insurance", "--game", "additive:1,1", "--theta", "1",
                "--rho", "1", "--surcharge", "0.1",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["premium_per_policyholder"] == pytest.approx(0.55, rel=1e-12)

    def test_out_file_uses_lf(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            ["tax-rate", "--omega", "0.9", "--delta", "0.1", "--out", str(path)], capsys
        )
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


# --- one error boundary ------------------------------------------------------

# Input files, referenced from argv as "{name}".
_FILES = {
    "trunc.json": '{"n": 2, "values": [0, 0',
    "nonnum.json": '{"n": 2, "values": [0, "a", 0, 1]}',
    "nan.json": '{"n": 2, "values": [0, NaN, 0, 1]}',
    "n30.json": '{"n": 30, "values": [0]}',
    "pair.json": '{"n": 2, "values": [0, 0, 0, 1]}',
    "toll_x.json": '{"n": 100, "omega": 0.4, "g": {"type": "power", "exponent": "x"}}',
    "toll_list.json": "[1]",
    "toll.json": '{"n": 100, "omega": 0.4, "g": {"type": "power", "exponent": 2}}',
    "toll_range.json": '{"n": 200, "omega": 0.4, "g": {"type": "table", "x": [0, 100], "y": [0, 9]}}',
    "rates.csv": "period,omega,delta\np1,0.9,0.2\np2,0.8,\n",
    "row_delta.csv": "period,omega,delta\np1,0.5,5\np2,0.8,\n",
    "bad_rows.csv": "period,omega\nx,1.0\nx,0.5\ny,z\n",
}


def _write_files(root):
    for name, text in _FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "binary.csv").write_bytes(b"period,omega\n\xff\xfe,0.5\n")


def _materialize(argv, root):
    return [str(root / a[1:-1]) if a.startswith("{") else a for a in argv]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_NAN_TOKENS = {"nan", "-nan", "inf", "-inf", "NaN", "Infinity", "-Infinity"}
_SHAPE = ["--theta", "1", "--rho", "1"]
_ROW_DELTA_REJECTED = "  line 2: delta 5.0 outside (-1,1)"

# (exit code, argv, expected start of stderr's last line)
PROBES = [
    (4, ["dvalue", "--game", "{trunc.json}", *_SHAPE], "error:"),
    (4, ["dvalue", "--game", "{nonnum.json}", *_SHAPE], "error:"),
    (4, ["dvalue", "--game", "{nan.json}", *_SHAPE], "error:"),
    (4, ["dvalue", "--game", "additive:1,inf", *_SHAPE], "error:"),
    (4, ["dvalue", "--game", "weighted:1,nan:1", *_SHAPE], "error:"),
    (4, ["dvalue", "--game", "weighted:1,1:inf", *_SHAPE], "error:"),
    (4, ["apps", "toll", "--scenario", "{toll_x.json}"], "error:"),
    (4, ["apps", "toll", "--scenario", "{toll_list.json}"], "error:"),
    (4, ["apps", "toll", "--g", "power:nan", "--n", "10", "--omega", "0.4"], "error:"),
    (4, ["series", "{row_delta.csv}", "--delta", "0.1", "--n", "1e5"], _ROW_DELTA_REJECTED),
    (4, ["tax-rate", "--omega", "0.9", "--delta", "0.1", "--out", "{nodir/x.csv}"], "error:"),
    (5, ["dvalue", "--game", "{n30.json}", *_SHAPE], "error:"),
    (2, ["dvalue", "--game", "majority:5", *_SHAPE, "--method", "mc", "--samples", "0"], "error:"),
    (2, ["dvalue", "--game", "majority:5", *_SHAPE, "--method", "mc", "--streams", "0"], "error:"),
    (2, ["dvalue", "--game", "majority:5", *_SHAPE, "--method", "mc", "--threads", "0"], "error:"),
    (2, ["dvalue", "--game", "majority:5", *_SHAPE, "--method", "mc", "--threads", "-2"], "error:"),
    (2, ["dvalue", "--game", "majority:5", "--theta", "inf", "--rho", "1"], "error:"),
    (2, ["tax-rate", "--omega", "0.9", "--delta", "0.1", "--n", "0"], "error:"),
    (2, ["tax-rate", "--omega", "0.9", "--delta", "0.1", "--n", "nan"], "error:"),
    (2, ["tax-rate", "--omega", "0.9", "--delta", "0.1", "--n", "inf"], "error:"),
    (2, ["series", "{rates.csv}", "--delta", "0.1", "--n", "0"], "error:"),
    (2, ["series", "{rates.csv}", "--delta", "5", "--n", "1e5"], "error:"),
    (2, ["sweep", "--n", "-5", "--resolution", "3"], "error:"),
    (2, ["sweep", "--n", "nan", "--resolution", "3"], "error:"),
    (2, ["sweep", "--delta", "nan", "--resolution", "3"], "error:"),
    (2, ["sweep", "--tau-range", "0:nan", "--resolution", "3"], "error:"),
    (2, ["apps", "insurance", "--game", "additive:1,1", *_SHAPE, "--surcharge", "nan"], "error:"),
    (2, ["apps", "toll", "--g", "power:2", "--n", "0", "--omega", "0.4"], "error:"),
    # Further inputs that ended in a traceback before the boundary.
    (2, ["dvalue", "--game", "majority:5", *_SHAPE, "--method", "mc", "--seed", "-1"], "error:"),
    (2, ["apps", "toll", "--g", "power:1e6", "--n", "8", "--omega", "0.5"], "error:"),
    (2, ["verify", "--theorem", "2", "--omega", "0.9", "--delta", "0.1", "--tau", "0.5",
         "--n-list", "1" + "0" * 400], "error:"),
    # Bytes that are not UTF-8 are bad data, not a crash.
    (4, ["series", "{binary.csv}", "--delta", "0.1", "--n", "1e5"], "error:"),
    # A table that does not cover the traffic volume is bad scenario data.
    (4, ["apps", "toll", "--scenario", "{toll_range.json}"], "error:"),
    # JSON has no token for a result that overflowed to inf or nan.
    (2, ["dvalue", "--game", "additive:1e308,1e308", *_SHAPE], "error:"),
    (2, ["apps", "insurance", "--game", "additive:1e308,1e308", *_SHAPE, "--surcharge", "1"],
     "error:"),
]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "expected, argv, err_tail", PROBES, ids=[" ".join(p[1])[:100] for p in PROBES]
    )
    def test_probe(self, expected, argv, err_tail, tmp_path, capsys):
        _write_files(tmp_path)
        # An uncaught exception propagates out of run_cli and fails the test.
        code, out, err = run_cli(_materialize(argv, tmp_path), capsys)
        assert code == expected
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(err_tail)
        if code == 0:
            assert not _NAN_TOKENS & set(out.replace(",", " ").split())

    def test_rejected_row_keeps_good_rows(self, tmp_path, capsys):
        _write_files(tmp_path)
        code, out, err = run_cli(
            _materialize(["series", "{row_delta.csv}", "--delta", "0.1", "--n", "1e5"], tmp_path),
            capsys,
        )
        assert code == 4
        assert err.splitlines() == ["rejected rows:", _ROW_DELTA_REJECTED]
        assert [r.split(",")[0] for r in out.splitlines()] == ["period", "p2"]


_OVERFLOWING_GAME = ["--game", "additive:1e308,1e308", *_SHAPE]


@pytest.mark.parametrize(
    "argv",
    [
        ["dvalue", *_OVERFLOWING_GAME],
        ["dvalue", *_OVERFLOWING_GAME, "--method", "mc", "--samples", "100"],
        ["apps", "insurance", *_OVERFLOWING_GAME, "--surcharge", "1"],
    ],
    ids=["exact", "mc", "insurance"],
)
def test_overflowing_game_is_one_error_line(argv):
    # A fresh interpreter prints numpy's warnings to stderr as a user sees them.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(dichotomy.__file__).resolve().parents[1]),
        PYTHONWARNINGS="default",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dichotomy", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")


def test_monte_carlo_of_huge_finite_values():
    # Squares of values near the float limit overflow unless the sampler
    # scales them; the exact method already prints finite values here.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(dichotomy.__file__).resolve().parents[1]),
        PYTHONWARNINGS="error",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dichotomy", "dvalue", "--game", "additive:8e307,8e307",
         *_SHAPE, "--method", "mc", "--samples", "100"],
        env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    numbers = [report["expected_production"], *report["gamma"], *report["lambda"],
               *report["std_error"]["gamma"], *report["std_error"]["lambda"]]
    assert all(math.isfinite(x) for x in numbers)


# Runs the CLI with argv from the command line in an address space capped at
# 2 GiB, so an allocation of terabytes fails at once instead of paging in.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from dichotomy import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["dvalue", "--game", "majority:1000000000000", *_SHAPE],
        ["apps", "voting", "--game", "majority:1000000000000", *_SHAPE],
        ["apps", "insurance", "--game", "majority:1000000000000", *_SHAPE, "--surcharge", "0.1"],
    ],
    ids=["dvalue", "voting", "insurance"],
)
def test_huge_n_is_a_capacity_error(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(dichotomy.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 5
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and line != "error: "


def test_bare_memory_error_has_a_message(monkeypatch, capsys):
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_tax_rate", fail)
    code, out, err = run_cli(["tax-rate", "--omega", "0.5", "--delta", "0.1"], capsys)
    assert (code, out, err) == (5, "", "error: out of memory\n")


# Value pools for the argv fuzz: small, so every run stays cheap.
_F = st.sampled_from(["-5", "0", "0.5", "0.9", "1", "1e6", "nan", "inf", "x"])
_GAME = st.one_of(
    st.sampled_from(
        ["majority:5", "kofn:4:2", "unanimity:3", "weighted:3,2,1:4", "nosuch:3",
         "{pair.json}", "{trunc.json}", "{nan.json}", "{n30.json}", "{missing.json}"]
    ),
    st.builds("majority:{}".format, st.sampled_from(["-5", "0", "1", "8", "x"])),
    st.builds("additive:{},{}".format, _F, _F),
    st.builds("weighted:{},1:{}".format, _F, _F),
)
_SAMPLING = [
    ("--method?", st.sampled_from(["exact", "mc"])),
    ("--samples?", st.sampled_from(["-1", "0", "1", "7", "50"])),
    ("--seed?", st.sampled_from(["-1", "0", "3"])),
    ("--streams?", st.sampled_from(["-1", "0", "1", "2"])),
    ("--threads?", st.sampled_from(["0", "1", "2"])),
]
_SUBCOMMANDS = {
    "tax-rate": [("--omega", _F), ("--delta", _F), ("--n?", _F)],
    "series": [("", st.sampled_from(["{rates.csv}", "{row_delta.csv}", "{bad_rows.csv}", "{binary.csv}",
                                     "{missing.csv}"])),
               ("--delta", _F), ("--n", _F)],
    "dvalue": [("--game", _GAME), ("--theta", _F), ("--rho", _F), *_SAMPLING],
    "sweep": [("--n?", _F), ("--delta?", _F),
              ("--omega-range?", st.builds("{}:{}".format, _F, _F)),
              ("--tau-range?", st.builds("{}:{}".format, _F, _F)),
              ("--resolution", st.sampled_from(["-1", "0", "1", "2", "5"]))],
    "verify": [("--theorem", st.sampled_from(["2", "3", "4", "5", "6", "7"])),
               ("--omega", _F), ("--delta", _F), ("--tau", _F),
               ("--n-list?", st.sampled_from(["1000,10000", "1000", "0", "-5", "x", ","]))],
    "apps voting": [("--game", _GAME), ("--theta", _F), ("--rho", _F), *_SAMPLING],
    "apps insurance": [("--game", _GAME), ("--theta", _F), ("--rho", _F), ("--surcharge", _F)],
    "apps toll": [("--scenario?", st.sampled_from(["{toll.json}", "{toll_x.json}",
                                                   "{toll_list.json}", "{missing.json}"])),
                  ("--g?", st.one_of(st.builds("power:{}".format, _F),
                                    st.builds("power:{}:{}".format, _F, _F),
                                    st.builds("linear:{}".format, _F),
                                    st.just("bogus:1"))),
                  ("--n?", st.sampled_from(["-5", "0", "1", "2", "8", "x"])),
                  ("--omega?", _F)],
}
_CSV_HEADERS = {
    "tax-rate": "omega,delta,",
    "series": "period,omega,delta,tau_asymptotic,tau_corrected",
    "sweep": cli._SWEEP_HEADER,
    "verify": "n,theta,rho,mean,variance,",
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = command.split()
    for flag, values in _SUBCOMMANDS[command]:
        # Required arguments are always given, optional ones ("?") sometimes.
        if flag.endswith("?") and not draw(st.booleans()):
            continue
        argv += [flag.rstrip("?"), draw(values)] if flag else [draw(values)]
    return argv


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _write_files(root)
    return root


def _run_redirected(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:  # argparse rejects the argv
            code = ex.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=_argv())
def test_argv_fuzz_exits_cleanly(fuzz_root, argv):
    code, out, err = _run_redirected(_materialize(argv, fuzz_root))
    assert code in {0, 2, 3, 4, 5, 6}, (code, err)
    if code != 0:
        return
    if argv[0] in _CSV_HEADERS:
        assert out.startswith(_CSV_HEADERS[argv[0]])
        rows = list(csv.reader(io.StringIO(out)))
        assert len({len(r) for r in rows}) == 1
    else:
        json.loads(out, parse_constant=_reject_constant)


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("dichotomy ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    args = cli.build_parser().parse_args(argv[1:])
    assert args.func is not None
