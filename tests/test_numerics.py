import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from dichotomy.errors import DomainError
from dichotomy.numerics import log_beta, log_binom, log_gamma

mpmath.mp.dps = 40


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) <= 1e-14

    def test_at_two(self):
        assert abs(log_gamma(2.0)) <= 1e-14

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_against_high_precision_grid(self):
        xs = np.concatenate(
            [
                np.logspace(-6, 8, 60),
                [0.5, 1.5, 2.5, 3.0, 10.0, 171.0, 12345.678],
            ]
        )
        for x in xs:
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            got = log_gamma(float(x))
            # Pure relative error is ill-posed at the zeros near 1 and 2.
            scale = max(abs(ref), 1e-2)
            assert abs(got - ref) / scale <= 1e-13, x

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestLogBeta:
    def test_uniform(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_two_two(self):
        assert log_beta(2.0, 2.0) == pytest.approx(math.log(1.0 / 6.0), rel=1e-13)

    def test_large_arguments(self):
        ref = float(mpmath.log(mpmath.beta(mpmath.mpf("1000.5"), mpmath.mpf("2000.5"))))
        assert log_beta(1000.5, 2000.5) == pytest.approx(ref, rel=1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_symmetry(self, a, b):
        assert log_beta(a, b) == pytest.approx(log_beta(b, a), abs=1e-15, rel=1e-15)

    def test_shift_recurrence(self):
        # beta(x-1, y+1) = (y / (x-1)) * beta(x, y), checked in log space.
        for x in [1.5, 2.0, 7.3, 120.0, 5000.0]:
            for y in [0.2, 1.0, 33.3, 900.0]:
                lhs = log_beta(x - 1.0, y + 1.0)
                rhs = math.log(y / (x - 1.0)) + log_beta(x, y)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            log_beta(1.0, -2.0)


class TestLogBinom:
    def test_exact_small(self):
        assert math.exp(log_binom(12, 5)) == pytest.approx(792.0, rel=1e-12)

    def test_edges(self):
        assert log_binom(9, 0) == 0.0
        assert log_binom(9, 9) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            log_binom(4, 5)
