import math

import numpy as np
import pytest

from pdmfactor.errors import ConfigurationError, DomainError
from pdmfactor.specfun import hermite, jacobi
from tests.hypergeometric import HypergeometricParams, gauss_2f1


def hermite_sum(k, x):
    """Explicit finite-sum definition, independent of the recurrence."""
    total = 0.0
    for m in range(k // 2 + 1):
        total += (
            (-1) ** m
            / (math.factorial(m) * math.factorial(k - 2 * m))
            * (2 * x) ** (k - 2 * m)
        )
    return math.factorial(k) * total


def _binom(a, k):
    out = 1.0
    for j in range(k):
        out *= (a - j) / (k - j)
    return out


def jacobi_sum(n, sigma, delta, x):
    """Explicit two-binomial finite sum, independent of the recurrence."""
    total = 0.0
    for s in range(n + 1):
        total += (
            _binom(n + sigma, n - s)
            * _binom(n + delta, s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (n - s)
        )
    return total


class TestHermite:
    def test_degree_zero(self):
        for x in (-3.0, 0.0, 2.5):
            assert hermite(0, x) == 1.0

    def test_degree_one(self):
        assert hermite(1, 0.5) == 1.0

    def test_degree_four_value(self):
        # 16 x^4 - 48 x^2 + 12 at x = 1.3
        assert abs(hermite(4, 1.3) - (-23.4224)) < 1e-10

    def test_against_explicit_sum(self, rng):
        xs = rng.uniform(-3, 3, size=100)
        for k in range(11):
            ref = np.array([hermite_sum(k, x) for x in xs])
            got = hermite(k, xs)
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-9

    def test_degree_cap(self):
        hermite(60, 0.3)
        with pytest.raises(ConfigurationError):
            hermite(61, 0.3)

    def test_negative_degree(self):
        with pytest.raises(DomainError, match="non-negative"):
            hermite(-1, 0.3)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi(0, 0.5, 0.7, 0.2) == 1.0

    def test_degree_one_explicit(self):
        # (sigma - delta)/2 + (sigma + delta + 2) x / 2 at sigma=3, delta=2, x=0
        assert jacobi(1, 3.0, 2.0, 0.0) == 0.5

    def test_p2_value(self):
        ref = jacobi_sum(2, 3.0, 2.0, 0.4)
        assert abs(jacobi(2, 3.0, 2.0, 0.4) - ref) < 1e-12

    def test_against_explicit_sum(self, rng):
        xs = rng.uniform(-1, 1, size=100)
        for n in range(11):
            ref = np.array([jacobi_sum(n, 2.0, 1.25, x) for x in xs])
            got = jacobi(n, 2.0, 1.25, xs)
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-9

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            jacobi(2, -1.5, 0.0, 0.1)
        with pytest.raises(DomainError):
            jacobi(2, 0.0, 0.0, 1.5)

    def test_negative_degree(self):
        with pytest.raises(DomainError, match="non-negative"):
            jacobi(-1, 0.5, 0.5, 0.2)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(HypergeometricParams(2.3, -1.1, 0.7), 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        z = 0.5
        ref = -math.log(1.0 - z) / z
        assert abs(gauss_2f1(HypergeometricParams(1.0, 1.0, 2.0), z) - ref) < 1e-12

    def test_terminating(self):
        assert gauss_2f1(HypergeometricParams(0.0, 3.7, 1.5), 0.9) == 1.0

    def test_series_tail_is_negligible(self):
        # summing ten more terms beyond the stopping point moves nothing
        a, b, c, z = 6.87, 4.87, 4.0, 0.95
        term, total = 1.0, 1.0
        k = 0
        while abs(term) > 1e-15 * abs(total):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            total += term
            k += 1
        tail = 0.0
        for j in range(10):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            tail += term
            k += 1
        assert abs(tail) < 1e-12 * abs(total)
        assert abs(gauss_2f1(HypergeometricParams(a, b, c), z) - total) < 1e-10 * abs(total)

    def test_domain(self):
        p = HypergeometricParams(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            gauss_2f1(p, 0.9995)
        with pytest.raises(DomainError):
            gauss_2f1(p, -0.1)

    def test_c_validation(self):
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            HypergeometricParams(1.0, 1.0, -3.0)
        HypergeometricParams(1.0, 1.0, -2.5)
