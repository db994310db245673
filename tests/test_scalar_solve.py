"""The one-cell solve against an mpmath oracle and against the grid solver.

``solve_theta_rho`` solves theta and rho exactly on ``fractions.Fraction``
and rounds each once, so both must be the doubles nearest the solution of
the two balance identities, which ``tests/_oracles.mp_theta_rho`` computes
in mpmath.  ``_solve_cells`` evaluates the same expressions in
``np.longdouble``; away from the corrected rules the two agree to a relative
1e-13 where longdouble is the x87 80-bit format.
"""

import itertools
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest

from _oracles import mp_theta_rho
from dichotomy.errors import SingularSystemError
from dichotomy.taxpolicy import (
    _solve_cells,
    asymptotic_tax_rule,
    corrected_tax_rule,
    solve_theta_rho,
)

x87 = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="longdouble is not the x87 80-bit format"
)


def _bits(x: float) -> bytes:
    # Every nan compares alike; zeros keep their sign.
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


def _groups(seed: int):
    """(n, omega, delta, taus) groups covering the solver's input range."""
    rng = np.random.default_rng(seed)
    for k in range(1200):
        n = float(rng.choice([1.0, 2.0, 3.0, 10.0 ** rng.uniform(0, 12), 1e300, 1.7e308]))
        omega = float(rng.uniform(0.001, 0.999))
        delta = float(rng.uniform(-0.99, 0.99))
        if k % 3 == 0:  # the corrected rules, which `tax-rate --n` solves at
            n = max(n, 1.0)
            taus = [corrected_tax_rule(n, omega, delta, scale) for scale in (1.0, 2.0)]
            taus.append(asymptotic_tax_rule(omega, delta))  # inside the band
        else:
            if k % 3 == 2:
                delta = float(rng.choice([1e308, -1e308, delta]))
            taus = [
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(-5.0, 5.0)),
                float(rng.uniform(-1e6, 1e6)),
                float(rng.uniform(0.0, 1.0)),
            ]
        yield n, omega, delta, taus


def _check_rounded(n, omega, delta, taus) -> tuple[int, int]:
    """Each cell's theta and rho against the oracle rounded to double;
    (cells solved, cells raised)."""
    solved = raised = 0
    for tau in taus:
        try:
            sol = solve_theta_rho(n, omega, delta, tau)
        except SingularSystemError:
            raised += 1
            continue
        want = tuple(map(float, mp_theta_rho(n, omega, delta, tau)))
        assert (sol.theta, sol.rho) == want, (n, omega, delta, tau)
        solved += 1
    return solved, raised


def test_rule_ladder_is_correctly_rounded():
    # Near the rule d cancels to about 2*omega(1 - omega)(1 - delta)^2 / n,
    # which rounding each operation to 64 bits got wrong from n = 1e3 up.
    counts = [
        _check_rounded(10 ** (k / 4), omega, delta, [
            corrected_tax_rule(10 ** (k / 4), omega, delta, scale) for scale in (1.0, 2.0)
        ])
        for k in range(12, 49)
        for omega, delta in [(0.9, 0.1), (0.556, 0.041), (0.7, 0.2), (0.95, 0.2), (0.6, -0.3)]
    ]
    assert [sum(c) for c in zip(*counts)] == [213, 157]


def test_seeded_cells_are_correctly_rounded():
    counts = [_check_rounded(*g) for g in itertools.chain(_groups(1), _groups(2), _groups(3))]
    solved, raised = map(sum, zip(*counts))
    assert solved + raised >= 10_000 and solved >= 8_000 and raised >= 300


_INTEGER_MARKETS = [10**17 + 1, 2**64 + 1, 3**50, 12345678901234567891]


def _integer_cells(n):
    # verify passes its --n-list as ints, which a double would round.
    rng = np.random.default_rng(7)
    for omega, delta in rng.uniform([0.01, -0.9], [0.99, 0.9], (10, 2)):
        yield n, float(omega), float(delta), list(map(float, rng.uniform(0.0, 1.0, 5)))


@pytest.mark.parametrize("n", _INTEGER_MARKETS)
def test_integer_market_is_correctly_rounded(n):
    for cells in _integer_cells(n):
        assert _check_rounded(*cells)[0] == 5


def _agree(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return _bits(a) == _bits(b)
    return abs(a - b) <= 1e-13 * max(abs(a), abs(b))


def _compare(n, omega, delta, taus) -> int:
    """Solve each cell both ways and compare; the number of cells solved."""
    cols, _ = _solve_cells(n, omega, delta, np.array(taus))
    solved = 0
    for i, tau in enumerate(taus):
        case = (n, omega, delta, tau)
        if cols.singular[i]:
            with pytest.raises(SingularSystemError):
                solve_theta_rho(*case)
            continue
        sol = solve_theta_rho(*case)
        assert _agree(sol.theta, float(cols.theta[i])), case
        assert _agree(sol.rho, float(cols.rho[i])), case
        for got, want in [(sol.residual_benefits, cols.residual_benefits[i]),
                          (sol.residual_welfare, cols.residual_welfare[i])]:
            # Rounding-level values, so only their nan cells must agree.
            assert math.isnan(got) == math.isnan(want), case
        got, want = astuple(sol.shorthands), astuple(cols.shorthands)
        assert list(map(_bits, got)) == [_bits(float(x[i])) for x in want], case
        assert sol.valid == bool(cols.valid[i]), case
        solved += 1
    return solved


@x87
def test_one_cell_agrees_with_the_grid_solver():
    # The corrected rules are left out: there the longdouble grid is the
    # less accurate of the two (see test_rule_ladder_is_correctly_rounded).
    groups = itertools.chain(_groups(1), _groups(2), _groups(3))
    assert sum(_compare(*g) for k, g in enumerate(groups) if k % 1200 % 3) >= 7_000


@x87
@pytest.mark.parametrize("n", _INTEGER_MARKETS)
def test_integer_market_as_longdouble_holds_it(n):
    # The grid holds n as np.longdouble does, rounded past 2^64.
    for cells in _integer_cells(n):
        assert _compare(*cells) == 5


def test_zero_benefits_denominator_gives_inf():
    # rho = 0 exactly, so rho + n - s - 1 = 0; as probe_columns gives it.
    sol = solve_theta_rho(2, 0.5, -0.875, -2.875)
    assert (sol.theta, sol.rho) == (-1.0, 0.0)
    assert sol.residual_benefits == math.inf and sol.residual_welfare == 0.0


def test_exactly_singular_cell_outside_the_band_raises():
    # n*d + d3 is 0 in exact arithmetic, but 3.5e-9 in float64.
    with pytest.raises(SingularSystemError):
        solve_theta_rho(16.0, 0.474566947145604, 7873.0, 7864.601181030273)


def test_overflow_to_inf_as_in_longdouble():
    # theta and rho pass the float range: they round to inf, as the long
    # double does, and the residuals are nan.
    sol = solve_theta_rho(1.7e308, 0.9, 0.1, 0.2)
    assert sol.theta == sol.rho == math.inf
    assert math.isnan(sol.residual_benefits) and math.isnan(sol.residual_welfare)


def test_rho_alone_overflowing_leaves_the_welfare_residual_inf():
    # theta is finite, so the welfare quotient is +-inf / finite, as in IEEE
    # arithmetic and in probe_columns; the benefits quotient is inf / inf.
    sol = solve_theta_rho(1.7e308, 0.15122378076033513, -0.03521947136531367,
                          -0.7728309305456271)
    assert math.isfinite(sol.theta) and sol.rho == -math.inf
    assert math.isnan(sol.residual_benefits) and sol.residual_welfare == math.inf
