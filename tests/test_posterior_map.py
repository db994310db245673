"""Accuracy map of the posterior statistics over the whole shape square, and
a pin of the bits that the scaled products keep.

The map draws both shapes log-uniformly from [1e-323, 1e300] and adds every
shape named in a finding.  At each it checks the factor mu^a nu^b / B(a, b),
``beta_variance`` and ``mad_about_mean`` against mpmath at 50 digits plus
one per decade of the larger shape, and both semivariances against
``mp_semivariances_euler``.  Each statistic has one relative bound
where the reference is a normal float, and an absolute bound, in units of
the smallest subnormal, below that.

    PYTHONPATH=src python -m pytest -q tests/test_posterior_map.py
"""

import hashlib
import math
import struct
import sys

import mpmath
import numpy as np
import pytest

from dichotomy.posterior import (
    _scaled_mode_factor,
    beta_variance,
    mad_about_mean,
    semivariances,
)

from _oracles import mp_semivariances_euler

# Shapes from findings: equal tiny shapes, where the lgamma-based Stirling
# remainder lost digits; deep subnormal factors and products; a*b and the
# factor's products below the float range where the result is not; and the
# subnormal shapes where the MAD, as the exp of a log, was off by 7e-6; and
# shapes past 2^36 where scipy's incomplete beta gave about twice the lower
# side, (inf, -inf) or nan.
_NAMED = [
    (1e-150, 1e-150), (1e-10, 1e-10), (2e-310, 1e-300), (5e-324, 1e-300),
    (1e-320, 1e-300), (3e-320, 1e-310), (1e-310, 3e-320), (1e-250, 1e-100),
    (1e-300, 1e-300), (1e-280, 1e-200), (1.7e-160, 1.3e-160), (1e200, 3e200),
    (4.644e-319, 6.1304e-320), (2.46e-293, 3.79e-192),
    (1.248e73, 1.46e57), (5.417e156, 7.727e170), (1e20, 1e300), (2.0**36 * (1 + 1e-7), 1e299),
]
_rng = np.random.default_rng(2029)
MAP_SHAPES = [tuple(s) for s in (10.0 ** _rng.uniform(-323, 300, (160, 2))).tolist()] + _NAMED

# (relative bound, bound in units of 2^-1074 where the reference is subnormal).
# Between shapes 1 and 10 the factor and the MAD carry the absolute error of
# math.lgamma there, up to about 6e-15.  The semivariances' bound is wider:
# the series forms each of its terms as the exp of a running sum of logs, and
# where the smaller shape a is tiny and the other large its first term
# a / (a + 1) dominates, so the rounding of its log, up to |log a| / 2 ulps
# of 1, passes into the result (2.1e-14 at (5.8e-113, 13.02)).
BOUNDS = {
    "factor": (5e-15, 2),
    "variance": (5e-16, 2),
    "mad": (5e-15, 2),
    "lower": (5e-14, 2),
    "upper": (5e-14, 2),
}


def _references(a, b) -> dict:
    with mpmath.workdps(50 + max(0, math.ceil(math.log10(max(a, b))))):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        total = ma + mb
        factor = mpmath.exp(
            ma * mpmath.log(ma / total) + mb * mpmath.log(mb / total)
            - mpmath.log(mpmath.beta(ma, mb))
        )
        return {
            "factor": factor,
            "variance": ma * mb / (total**2 * (total + 1)),
            "mad": 2 * factor / total,
        }


@pytest.mark.parametrize("a, b", MAP_SHAPES, ids=[f"{a:.4g}:{b:.4g}" for a, b in MAP_SHAPES])
def test_accuracy_map(a, b):
    refs = _references(a, b)
    got = {
        "factor": math.ldexp(*_scaled_mode_factor(a, b)),
        "variance": beta_variance(a, b),
        "mad": mad_about_mean(a, b),
    }
    got["lower"], got["upper"] = semivariances(a, b)
    refs["lower"], refs["upper"] = mp_semivariances_euler(a, b)
    # Both sides are non-negative and add up to the variance.
    assert got["lower"] >= 0.0 and got["upper"] >= 0.0
    assert abs(got["lower"] + got["upper"] - got["variance"]) <= 1e-15 * got["variance"]
    for name, value in got.items():
        rel, ulps = BOUNDS[name]
        with mpmath.workdps(30):
            ref = refs[name]
            err = abs(mpmath.mpf(value) - ref)
            if abs(ref) >= sys.float_info.min:
                assert err <= rel * abs(ref), (name, value, ref)
            else:
                assert err <= ulps * math.ulp(0.0), (name, value, ref)


def test_scaled_products_keep_the_bits_of_the_plain_ones():
    # Where both shapes are from 10 to 2^36, every step of the variance and
    # of the series' products is a normal float, so carrying exponents apart
    # moves no bit.  The digest was taken from the plain products, before
    # they were scaled, with this platform's libm (x86-64 Linux).
    rng = np.random.default_rng(36)
    h = hashlib.sha256()
    for a, b in (10.0 ** rng.uniform(1.0, 36 * np.log10(2.0), (200, 2))).tolist():
        h.update(struct.pack("<3d", beta_variance(a, b), *semivariances(a, b)))
    assert h.hexdigest() == "867c891b799f32ace0e4a69dbeb124c05f4c63f6bc7ca1f99cdec3c4d6318767"
