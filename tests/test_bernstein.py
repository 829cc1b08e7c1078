import math

import numpy as np
import pytest

from sbmpot import (
    ConfigError,
    DomainError,
    PhiSpec,
    check_bernstein_bound,
    check_regularity,
    nu_eval,
    phi_eval,
    scaling_exponents,
)


def test_stable_spec_basics(stable_spec):
    assert stable_spec.family == "stable"
    assert stable_spec.delta == 0.75
    assert stable_spec.exponents() == (0.75,)
    assert stable_spec.weights() == (1.0,)
    assert stable_spec.delta_min == stable_spec.delta_max == 0.75
    assert stable_spec.label() == "stable-0.75"


def test_mixture_spec_basics(mixture_spec):
    assert mixture_spec.family == "mixture"
    assert mixture_spec.exponents() == (0.6, 0.9)
    assert mixture_spec.weights() == (1.0, 1.0)
    assert mixture_spec.delta_min == 0.6
    assert mixture_spec.delta_max == 0.9
    assert mixture_spec.label() == "mix-0.6-0.9"


def test_mixture_terms_sorted_by_exponent():
    s = PhiSpec.mixture(((2.0, 0.9), (1.0, 0.6)))
    assert s.exponents() == (0.6, 0.9)
    assert s.weights() == (1.0, 2.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        PhiSpec(family="gamma", delta=0.5)
    with pytest.raises(ConfigError):
        PhiSpec.stable(1.0)
    with pytest.raises(ConfigError):
        PhiSpec.stable(0.0)
    with pytest.raises(ConfigError):
        PhiSpec(family="stable", delta=0.5, terms=((1.0, 0.5),))
    with pytest.raises(ConfigError):
        PhiSpec(family="mixture", delta=0.5)
    with pytest.raises(ConfigError):
        PhiSpec.mixture(())
    with pytest.raises(ConfigError):
        PhiSpec.mixture(((0.0, 0.5),))
    with pytest.raises(ConfigError):
        PhiSpec.mixture(((1.0, 1.5),))


def test_json_round_trip(stable_spec, mixture_spec):
    for s in (stable_spec, mixture_spec):
        assert PhiSpec.from_json(s.to_json()) == s


def test_bad_serialized_forms():
    with pytest.raises(ConfigError):
        PhiSpec.from_json("not json {")
    with pytest.raises(ConfigError):
        PhiSpec.from_dict({"family": "weird"})


def test_phi_eval_stable(stable_spec):
    lam = np.array([0.25, 1.0, 7.5])
    assert np.allclose(phi_eval(stable_spec, lam), lam ** 0.75, rtol=1e-15)
    assert phi_eval(stable_spec, 4.0) == pytest.approx(4.0 ** 0.75, rel=1e-15)


def test_phi_eval_mixture(mixture_spec):
    lam = np.array([0.1, 1.0, 30.0])
    want = lam ** 0.6 + lam ** 0.9
    assert np.allclose(phi_eval(mixture_spec, lam), want, rtol=1e-15)


def test_phi_eval_domain():
    with pytest.raises(DomainError):
        phi_eval(PhiSpec.stable(0.75), -1.0)
    with pytest.raises(DomainError):
        phi_eval(PhiSpec.stable(0.75), np.array([1.0, 0.0]))


def test_nu_eval_closed_form(mixture_spec):
    t = np.array([0.5, 2.0])
    want = sum(
        d / math.gamma(1.0 - d) * t ** (-1.0 - d) for d in (0.6, 0.9)
    )
    assert np.allclose(nu_eval(mixture_spec, t), want, rtol=1e-14)


def test_bernstein_bound_holds(stable_spec, mixture_spec):
    lam = np.logspace(-2, 2, 9)
    r = np.logspace(-2, 2, 9)
    assert check_bernstein_bound(stable_spec, lam, r)
    assert check_bernstein_bound(mixture_spec, lam, r)


def test_scaling_exponents_pure_power(stable_spec):
    rep = scaling_exponents(stable_spec)
    assert rep.delta1_hat == pytest.approx(0.75, abs=1e-10)
    assert rep.delta2_hat == pytest.approx(0.75, abs=1e-10)
    assert rep.a1_hat == pytest.approx(1.0, rel=1e-8)
    assert rep.a2_hat == pytest.approx(1.0, rel=1e-8)
    assert rep.delta1_above_half and not rep.delta2_warn


def test_scaling_exponents_mixture(mixture_spec):
    rep = scaling_exponents(mixture_spec)
    assert 0.55 < rep.delta1_hat < 0.65
    assert 0.85 < rep.delta2_hat < 0.905
    assert rep.delta1_above_half


def test_scaling_warns_near_upper_edge():
    with pytest.warns(RuntimeWarning):
        rep = scaling_exponents(PhiSpec.stable(0.97))
    assert rep.delta2_warn


def test_regularity_window(stable_spec, mixture_spec):
    assert check_regularity(stable_spec)
    assert check_regularity(mixture_spec)
    assert not check_regularity(PhiSpec.stable(0.4))
