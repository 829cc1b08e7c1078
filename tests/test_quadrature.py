import math

import numpy as np
import pytest

from sbmpot import (
    ConfigError,
    DomainError,
    QuadSpec,
    QuadratureError,
    integrate_adaptive,
    integrate_oscillatory_cos,
)


def test_plain_finite_interval():
    r = integrate_adaptive(lambda x: np.sin(x), 0.0, math.pi)
    assert r.converged
    assert abs(r.value - 2.0) < 1e-10


def test_left_power_singularity():
    r = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0, left_exponent=-0.5)
    assert r.converged
    assert abs(r.value - 2.0) < 1e-10


def test_right_power_singularity():
    r = integrate_adaptive(lambda x: (1.0 - x) ** -0.25, 0.0, 1.0, right_exponent=-0.25)
    assert r.converged
    assert abs(r.value - 4.0 / 3.0) < 1e-10


def test_both_endpoints_singular():
    # beta(1/2, 1/2) = pi
    f = lambda x: 1.0 / np.sqrt(x * (1.0 - x))
    r = integrate_adaptive(f, 0.0, 1.0, left_exponent=-0.5, right_exponent=-0.5)
    assert r.converged
    assert abs(r.value - math.pi) < 1e-9


def test_infinite_tail_exponential():
    r = integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-9


def test_infinite_tail_power():
    r = integrate_adaptive(lambda x: x ** -2.0, 1.0, math.inf, tail_exponent=2.0)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-9


def test_oscillatory_one_minus_cos():
    # int (1 - cos(x t)) t^(-3/2) dt = sqrt(2 pi x)
    for x in (1.0, 2.0):
        r = integrate_oscillatory_cos(
            lambda t: t ** -1.5, x, left_exponent=-1.5, tail_exponent=1.5
        )
        assert r.converged
        assert abs(r.value - math.sqrt(2.0 * math.pi * x)) < 1e-8


def test_oscillatory_cos_mode():
    # int cos(t)/(1+t^2) dt = pi/(2 e)
    r = integrate_oscillatory_cos(
        lambda t: 1.0 / (1.0 + t * t), 1.0, mode="cos", tail_exponent=2.0
    )
    assert r.converged
    assert abs(r.value - 0.5 * math.pi / math.e) < 1e-8


def test_oscillatory_x_zero_short_circuit():
    r = integrate_oscillatory_cos(
        lambda t: t ** -1.5, 0.0, left_exponent=-1.5, tail_exponent=1.5
    )
    assert r.value == 0.0 and r.converged


def test_budget_exhaustion_flags_not_raises():
    spec = QuadSpec(abs_tol=1e-300, rel_tol=0.0, max_evals=200)
    f = lambda x: np.cos(50.0 * x) * np.cos(49.0 * x)
    r = integrate_adaptive(f, 0.0, 10.0, spec)
    assert not r.converged
    assert math.isfinite(r.value)


def test_quadspec_validation():
    with pytest.raises(ConfigError):
        QuadSpec(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ConfigError):
        QuadSpec(max_evals=10)


def test_bad_endpoints():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, math.inf, 1.0)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 0.0, -math.inf)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0, left_exponent=-1.0)


def test_scalar_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: 1.0, 0.0, 1.0)


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)


def test_oscillatory_validation():
    with pytest.raises(DomainError):
        integrate_oscillatory_cos(lambda t: t, -1.0, tail_exponent=2.0)
    with pytest.raises(ConfigError):
        integrate_oscillatory_cos(lambda t: t ** -1.5, 1.0, left_exponent=-1.5)
    with pytest.raises(ConfigError):
        integrate_oscillatory_cos(lambda t: t, 1.0, mode="sin", tail_exponent=2.0)
