import warnings

import numpy as np
import pytest

from sbmpot import (
    ConfigError,
    DomainError,
    PhiSpec,
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
    # an infinite weight makes phi infinite everywhere, which no Bernstein
    # function is
    for w in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="positive and finite"):
            PhiSpec.mixture(((w, 0.6), (1.0, 0.9)))
    with pytest.raises(ConfigError):
        PhiSpec.from_json('{"family": "mixture", "terms": [[Infinity, 0.6]]}')


def test_json_round_trip(stable_spec, mixture_spec):
    for s in (stable_spec, mixture_spec):
        assert PhiSpec.from_json(s.to_json()) == s


def test_bad_serialized_forms():
    with pytest.raises(ConfigError):
        PhiSpec.from_json("not json {")
    with pytest.raises(ConfigError):
        PhiSpec.from_dict({"family": "weird"})


def test_phi_eval_stable(stable_spec):
    # the stable family runs the mixture loop with one unit-weight term;
    # 0 + 1.0 * lam^delta must round to lam^delta exactly
    lam = np.logspace(-300.0, 300.0, 20001)
    for d in (0.51, 0.6, 0.75, 0.9):
        assert np.array_equal(phi_eval(PhiSpec.stable(d), lam), np.power(lam, d))
    assert phi_eval(stable_spec, 4.0) == 4.0 ** 0.75


def test_phi_eval_mixture(mixture_spec):
    lam = np.array([0.1, 1.0, 30.0])
    want = lam ** 0.6 + lam ** 0.9
    assert np.allclose(phi_eval(mixture_spec, lam), want, rtol=1e-15)


def test_phi_eval_domain():
    with pytest.raises(DomainError):
        phi_eval(PhiSpec.stable(0.75), -1.0)
    with pytest.raises(DomainError):
        phi_eval(PhiSpec.stable(0.75), np.array([1.0, 0.0]))


def test_bernstein_bound_holds(stable_spec, mixture_spec):
    # min(1, lam) <= phi(lam r)/phi(r) <= max(1, lam) for every Bernstein
    # function, so a violation beyond roundoff is an evaluation bug
    lam, r = np.meshgrid(np.logspace(-2, 2, 9), np.logspace(-2, 2, 9))
    for spec in (stable_spec, mixture_spec):
        ratio = phi_eval(spec, lam * r) / phi_eval(spec, r)
        assert np.all(ratio >= np.minimum(1.0, lam) * (1.0 - 1e-12))
        assert np.all(ratio <= np.maximum(1.0, lam) * (1.0 + 1e-12))


def test_scaling_exponents_pure_power(stable_spec):
    rep = scaling_exponents(stable_spec)
    assert rep.delta1 == rep.delta2 == 0.75
    assert rep.delta1_above_half and not rep.delta2_warn


def test_scaling_exponents_mixture(mixture_spec):
    assert scaling_exponents(mixture_spec).to_dict() == {
        "delta1": 0.6, "delta2": 0.9, "delta1_above_half": True, "delta2_warn": False,
    }


# mixtures whose terms cross far outside r in [1e-3, 1e3]: a fit over that
# window read 0.8903, 0.7984 and 0.5545 where the exact value is marked *
_CROSSING = [
    # (terms, delta1, delta2, delta1_above_half, delta2_warn)
    (((1.0, 0.45), (1000.0, 0.9)), 0.45, 0.9, False, False),  # delta1* (transient)
    (((1.0, 0.3), (1e4, 0.8)), 0.3, 0.8, False, False),  # delta1*
    (((1.0, 0.55), (1e-4, 0.97)), 0.55, 0.97, True, True),  # delta2*
]


@pytest.mark.parametrize("terms, d1, d2, above_half, warn", _CROSSING)
def test_scaling_exponents_crossing_mixtures(terms, d1, d2, above_half, warn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = scaling_exponents(PhiSpec.mixture(terms))
    assert (rep.delta1, rep.delta2) == (d1, d2)
    assert rep.delta1_above_half is above_half
    assert rep.delta2_warn is warn
    assert [w.category for w in caught] == [RuntimeWarning] * warn


@pytest.mark.parametrize(
    "spec",
    [PhiSpec.stable(0.75), PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9)))]
    + [PhiSpec.mixture(c[0]) for c in _CROSSING],
    ids=["stable-0.75", "fixture-mixture", "cross-0.45-0.9", "cross-0.3-0.8", "cross-0.55-0.97"],
)
def test_scaling_envelope_against_a_wide_lattice(spec):
    # an oracle of its own: phi summed here from the terms, on a lattice far
    # wider than the crossing points, must stay inside the reported
    # envelope everywhere and approach each end at the matching extreme r
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the 0.97 edge warns
        rep = scaling_exponents(spec)
    w = np.array(spec.weights())
    d = np.array(spec.exponents())

    def phi(x):
        return np.sum(w * np.power(x[..., None], d), axis=-1)

    lam = np.logspace(0.0, 6.0, 61)[:, None]
    r = np.logspace(-12.0, 12.0, 97)[None, :]
    ratio = phi(lam * r) / phi(r)
    assert np.all(ratio >= lam ** rep.delta1 * (1.0 - 1e-12))
    assert np.all(ratio <= lam ** rep.delta2 * (1.0 + 1e-12))
    slopes = np.log(ratio[1:]) / np.log(lam[1:])
    assert slopes[:, 0].min() == pytest.approx(rep.delta1, abs=1e-2)
    assert slopes[:, -1].max() == pytest.approx(rep.delta2, abs=1e-2)


def test_scaling_warns_near_upper_edge():
    with pytest.warns(RuntimeWarning):
        rep = scaling_exponents(PhiSpec.stable(0.97))
    assert rep.delta2_warn and rep.delta2 == 0.97


def test_regularity_window(stable_spec, mixture_spec):
    assert scaling_exponents(stable_spec).delta1_above_half
    assert scaling_exponents(mixture_spec).delta1_above_half
    assert not scaling_exponents(PhiSpec.stable(0.4)).delta1_above_half
    assert not scaling_exponents(PhiSpec.stable(0.5)).delta1_above_half
