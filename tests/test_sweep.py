"""`sweep` against the scalar per-cell solve, byte for byte.

The CLI solves each omega row in one array call and formats whole columns;
the oracle in ``_oracles`` solves one cell at a time in Python floats and
scalar longdouble and writes each line with the explicit CSV rule.
"""

import warnings

import numpy as np
import pytest

from dichotomy import cli
from dichotomy.taxpolicy import asymptotic_tax_rule, delta_shorthands

from _oracles import scalar_sweep


def _band_tau(n: float, omega: float, delta: float) -> float:
    # Bisect n*d(tau) + d3(tau) = 0, as test_singular_band_raises does.
    def den(tau):
        sh = delta_shorthands(omega, tau, delta)
        return n * sh.d + sh.d3

    lo, hi = asymptotic_tax_rule(omega, delta), 0.3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if den(lo) * den(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _grid(lo: float, hi: float, resolution: int) -> list[float]:
    # The CLI's grid: one point when the range or the resolution is degenerate.
    if resolution == 1 or lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, resolution))


def _oracle(n, delta, omega_range, tau_range, resolution) -> str:
    with np.errstate(all="ignore"):
        return scalar_sweep(
            n, delta, _grid(*omega_range, resolution), _grid(*tau_range, resolution)
        )


def _run(argv, capsys):
    # Any numpy warning fails the run: the sweep's stderr must stay empty.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


_BAND_TAU = _band_tau(10_000.0, 0.9, 0.1)

# (n, delta, omega range, tau range, resolution)
GRIDS = {
    "bracketed-root": (10_000.0, 0.1, (0.85, 0.95), (0.14, 0.24), 21),
    "band-cell": (10_000.0, 0.1, (0.9, 0.9), (_BAND_TAU, 0.3), 5),
    "resolution-1": (10_000.0, 0.1, (0.05, 0.95), (0.0, 1.0), 1),
    "lo-equals-hi": (10_000.0, 0.1, (0.5, 0.5), (0.7, 0.7), 7),
    "negative-tau": (10_000.0, 0.1, (0.05, 0.95), (-2.0, 3.0), 9),
    "n-1e300": (1e300, 0.1, (0.05, 0.95), (0.0, 1.0), 9),
    "delta-1e308": (10_000.0, 1e308, (0.05, 0.95), (0.0, 1.0), 9),
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_sweep_matches_scalar_oracle(grid, capsys):
    n, delta, (w_lo, w_hi), (t_lo, t_hi), resolution = grid
    argv = [
        "sweep", "--n", repr(n), "--delta", repr(delta),
        f"--omega-range={w_lo!r}:{w_hi!r}", f"--tau-range={t_lo!r}:{t_hi!r}",
        "--resolution", str(resolution),
    ]
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == _oracle(n, delta, (w_lo, w_hi), (t_lo, t_hi), resolution)


def test_band_cell_is_in_the_band(capsys):
    _, out, _ = _run(
        ["sweep", "--omega-range", "0.9:0.9", f"--tau-range={_BAND_TAU!r}:0.3",
         "--resolution", "5"],
        capsys,
    )
    first = out.splitlines()[1].split(",")
    assert first[4:6] == ["nan", "nan"] and first[10] == "true"


def test_bracketed_root_is_marked_once(capsys):
    _, out, _ = _run(
        ["sweep", "--omega-range", "0.9:0.9", "--tau-range", "0.14:0.24",
         "--resolution", "21"],
        capsys,
    )
    rows = [r.split(",") for r in out.splitlines()[1:]]
    assert [r[10] for r in rows].count("true") == 1
    assert all(r[4] != "nan" for r in rows)  # the mark is a sign change, not the band


@pytest.mark.parametrize("n, delta", [(1e4, 0.1), (50.0, 0.3), (1e6, -0.2), (3.0, 0.0)])
def test_valid_cells_are_on_the_positive_side(n, delta, capsys):
    # Off the singular marks and for tau in [0, 1], a cell is valid exactly
    # when d = omega + tau - delta*omega - 1 and theta are both positive.
    code, out, _ = _run(
        ["sweep", "--n", repr(n), f"--delta={delta!r}", "--resolution", "41"], capsys
    )
    rows = [r.split(",") for r in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 41 * 41
    checked = [r for r in rows if r[10] == "false" and 0.0 <= float(r[1]) <= 1.0]
    assert checked
    for r in checked:
        assert (r[7] == "true") == (float(r[6]) > 0 and float(r[4]) > 0), r
