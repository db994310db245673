"""The one-cell solve against the grid solver, bit for bit.

``solve_theta_rho`` takes theta, rho and the residuals in ``_X87``
arithmetic, which rounds every operation to a 64-bit significand in
software; ``_solve_cells`` runs the same expressions in ``np.longdouble``.
Where longdouble is the x87 80-bit format (a 63-bit fraction after an
explicit integer bit), the two must agree in every bit.
"""

import itertools
import math
import operator
import struct
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from dichotomy.errors import SingularSystemError
from dichotomy.taxpolicy import (
    _X87,
    _solve_cells,
    asymptotic_tax_rule,
    corrected_tax_rule,
    solve_theta_rho,
)

pytestmark = pytest.mark.skipif(
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


def _compare(n, omega, delta, taus) -> tuple[int, int]:
    """Solve each cell both ways and compare; (cells solved, cells raised)."""
    cols, _ = _solve_cells(n, omega, delta, np.array(taus))
    solved = raised = 0
    for i, tau in enumerate(taus):
        if cols.singular[i]:
            with pytest.raises(SingularSystemError):
                solve_theta_rho(n, omega, delta, tau)
            raised += 1
            continue
        sol = solve_theta_rho(n, omega, delta, tau)
        got = [sol.theta, sol.rho, sol.residual_benefits, sol.residual_welfare]
        want = [cols.theta, cols.rho, cols.residual_benefits, cols.residual_welfare]
        got += astuple(sol.shorthands)
        want += astuple(cols.shorthands)
        case = (n, omega, delta, tau)
        assert list(map(_bits, got)) == [_bits(float(x[i])) for x in want], case
        assert sol.valid == bool(cols.valid[i]), case
        solved += 1
    return solved, raised


def test_one_cell_matches_the_grid_solver_bit_for_bit():
    counts = [_compare(*g) for g in itertools.chain(_groups(1), _groups(2), _groups(3))]
    solved, raised = map(sum, zip(*counts))
    assert solved + raised >= 10_000 and solved >= 8_000 and raised >= 300


@pytest.mark.parametrize("n", [10**17 + 1, 2**64 + 1, 3**50, 12345678901234567891])
def test_integer_market_as_longdouble_holds_it(n):
    # verify passes its --n-list as ints, which a double would round.
    rng = np.random.default_rng(7)
    for omega, delta in rng.uniform([0.01, -0.9], [0.99, 0.9], (10, 2)):
        taus = list(map(float, rng.uniform(0.0, 1.0, 5)))
        assert _compare(n, float(omega), float(delta), taus)[0] == 5


def test_overflow_to_inf_as_in_longdouble():
    # theta and rho pass the float range: float() of the exact value would
    # raise, the long double rounds to inf, and the residuals are nan.
    sol = solve_theta_rho(1.7e308, 0.9, 0.1, 0.2)
    assert sol.theta == sol.rho == math.inf
    assert math.isnan(sol.residual_benefits) and math.isnan(sol.residual_welfare)


_POOL = [0.0, -0.0, 1.0, -2.5, 1.0 / 3.0, -0.1, 1e308, -1e308, 5e-324, 1e-300, -math.inf]
_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _exact(x) -> tuple:
    """A long double or an _X87 number as comparable exact data."""
    v = x.v if isinstance(x, _X87) else x
    if isinstance(v, Fraction):
        return ("finite", v)
    v = float(v) if isinstance(x, _X87) else v
    if np.isnan(v):
        return ("nan",)
    if np.isinf(v):
        return ("inf", v > 0)
    return ("finite", Fraction(*v.as_integer_ratio()))


@pytest.mark.parametrize("op2", _OPS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("op1", _OPS, ids=lambda f: f.__name__)
def test_arithmetic_matches_longdouble(op1, op2):
    # (a op1 b) op2 c over signed zeros and inf, and the inf and nan they make.
    ld = np.longdouble
    with np.errstate(all="ignore"):
        for a, b, c in itertools.product(_POOL, repeat=3):
            want = op2(op1(ld(a), ld(b)), ld(c))
            got = op2(op1(_X87(a), b), _X87(c))
            assert _exact(got) == _exact(want), (a, b, c)
            assert _bits(float(got)) == _bits(float(want)), (a, b, c)
