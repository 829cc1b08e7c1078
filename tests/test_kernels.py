import math
import sys
import warnings

import numpy as np
import pytest

from sbmpot import (
    ConfigError,
    DomainError,
    Grid,
    KernelSet,
    PhiSpec,
    QuadratureError,
    phi_eval,
)

from sbmpot.quadrature import integrate_adaptive, integrate_oscillatory_cos

from oracles import (
    H1_CLOSED,
    LEVY_C_ALPHA15,
    UQ0_ALPHA15,
    h1_closed,
    levy_c_closed,
    phi_cap_inv_full,
    uq0_closed,
    uq_rotated,
)


def test_kernelset_validation():
    with pytest.raises(ConfigError):
        KernelSet("stable")


def test_psi_pure_power(stable_ks):
    xi = np.array([0.3, 1.0, 11.0])
    assert np.allclose(stable_ks.psi(xi), xi ** 1.5, rtol=1e-14)
    assert stable_ks.psi(0.0) == 0.0
    assert stable_ks.psi(-2.0) == stable_ks.psi(2.0)


def test_psi_mixture_sum(mixture_ks):
    xi = np.array([0.5, 4.0])
    want = xi ** 1.2 + xi ** 1.8
    assert np.allclose(mixture_ks.psi(xi), want, rtol=1e-14)


def test_levy_j_stable_closed_form(stable_ks):
    for x in (0.7, 3.0):
        assert stable_ks.levy_j(x) * x ** 2.5 == pytest.approx(
            LEVY_C_ALPHA15, rel=1e-10
        )


def test_levy_j_mixture_is_component_sum(mixture_ks):
    from oracles import levy_c_closed

    x = np.array([0.4, 1.7, 9.0])
    want = levy_c_closed(1.2) * x ** -2.2 + levy_c_closed(1.8) * x ** -2.8
    assert np.allclose(mixture_ks.levy_j(x), want, rtol=1e-10)


def test_levy_j_singular_origin(stable_ks):
    with pytest.raises(DomainError):
        stable_ks.levy_j(0.0)


def test_jump_tail_closed_matches_quadrature(stable_ks, mixture_ks):
    from sbmpot.quadrature import integrate_adaptive

    for ks in (stable_ks, mixture_ks):
        for t in (0.5, 2.0):
            ref = integrate_adaptive(
                ks.levy_j, t, math.inf, tail_exponent=1.0 + 2.0 * ks.delta_min
            )
            assert ks.jump_tail_closed(t) == pytest.approx(ref.value, rel=1e-9)


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
def test_jump_tail_closed_refuses_a_divergent_weight(request, ks_name):
    # int_t^inf j(z) z^-p dz is finite only for p > -2 delta_min
    ks = request.getfixturevalue(ks_name)
    edge = -2.0 * ks.delta_min
    for p in (edge, edge - 0.5, -math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match=f"-2 delta_min = {edge}, got p = {p}$"):
            ks.jump_tail_closed(2.0, p)
    # p = -1 is still served
    ref = integrate_adaptive(
        lambda z: ks.levy_j(z) * z, 2.0, math.inf, tail_exponent=2.0 * ks.delta_min
    )
    assert ks.jump_tail_closed(2.0, -1.0) == pytest.approx(ref.value, rel=1e-9)


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("p", [0.0, 0.7, -1.0])
def test_jump_tail_closed_equals_the_power_sum(request, ks_name, p):
    # a convergent weight keeps the bits of the power sum written out
    ks = request.getfixturevalue(ks_name)
    t = np.geomspace(1e-4, 1e3, 300).reshape(20, 15)
    want = np.zeros_like(t)
    for c, a in ks._coefs():
        want += c * np.power(t, -(a + p)) / (a + p)
    assert np.array_equal(ks.jump_tail_closed(t, p), want)


def test_jump_tail_with_cutoff_consistent(stable_ks):
    # for pure power jumps the quadrature+tail split equals the closed form
    assert stable_ks.jump_tail(0.5, 10.0) == pytest.approx(
        stable_ks.jump_tail_closed(0.5), rel=1e-9
    )


@pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_jump_tail_refuses_a_bad_cutoff_by_name(stable_ks, cutoff):
    # inf used to reach the engine ("batched endpoints must be finite") and
    # nan read "cutoff must be positive"
    want = rf"cutoff must be finite and positive, got cutoff = {cutoff}$"
    with pytest.raises(ConfigError, match=want):
        stable_ks.jump_tail(0.5, cutoff)
    with pytest.raises(ConfigError, match="cutoff"):
        stable_ks.jump_tail(np.array([0.5, 2.0]), cutoff)


def test_jump_tail_scalar_returns_float(stable_spec):
    val = KernelSet(stable_spec).jump_tail(0.5, 10.0)
    assert type(val) is float


def test_jump_tail_batch_equals_scalar_loop(stable_spec, mixture_spec):
    # every entry is a fresh scalar evaluation at its own t: 0.3 and
    # 0.3 + 1e-14 get their own values, the repeated 0.05 one value
    ts = np.array([0.3 + 1e-14, 0.05, 0.3, 1.7, 0.05, 4.0])
    for spec in (stable_spec, mixture_spec):
        loop = [KernelSet(spec).jump_tail(float(t), 3.0) for t in ts]
        batch_ks = KernelSet(spec)
        batch = batch_ks.jump_tail(ts, 3.0)
        assert batch.shape == ts.shape
        assert batch.tolist() == loop
        assert batch[1] == batch[4]
        assert batch_ks.jump_tail(ts.reshape(2, 3), 3.0).tolist() == [loop[:3], loop[3:]]


def test_h_comp_ignores_earlier_calls(stable_spec, mixture_spec):
    # a KernelSet keeps no values: an argument 1e-14 away from an earlier one
    # is evaluated at its own value, not read back from the earlier call
    for spec in (stable_spec, mixture_spec):
        used = KernelSet(spec)
        used.h_comp(0.3)
        assert used.h_comp(0.3 + 1e-14) == KernelSet(spec).h_comp(0.3 + 1e-14)


def test_jump_tail_unconverged_raises(stable_spec, quad_contract):
    ks = KernelSet(stable_spec)
    ks._coefs()  # the jump coefficients converge under the fixed contract
    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=100)
    with pytest.raises(QuadratureError, match="t=0.5 did not converge"):
        ks.jump_tail(np.array([0.5, 2.0]), 10.0)
    with pytest.raises(DomainError):
        ks.jump_tail(np.array([0.5, 0.0]), 10.0)
    with pytest.raises(ConfigError):
        ks.jump_tail(0.5, 0.0)


_ARRAY_LIKE = {
    "psi": lambda ks, v: ks.psi(v),
    "levy_j": lambda ks, v: ks.levy_j(v),
    "jump_tail_closed": lambda ks, v: ks.jump_tail_closed(v),
    "jump_tail": lambda ks, v: ks.jump_tail(v, 3.0),
    "jump_i": lambda ks, v: ks.jump_i(v, 0.45),
    "phi_cap": lambda ks, v: ks.phi_cap(v),
    "phi_cap_inv": lambda ks, v: ks.phi_cap_inv(v),
    "gx_estimate": lambda ks, v: ks.gx_estimate(0.0, 1.0, v, 0.45),
    "phi_eval": lambda ks, v: phi_eval(ks.phi, v),
    "h_comp": lambda ks, v: ks.h_comp(v),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_LIKE))
def test_array_like_inputs(stable_ks, name):
    # a list or tuple gives the array an ndarray gives; only a scalar gives
    # a float
    f = _ARRAY_LIKE[name]
    vals = [0.2, 0.5, 0.9]
    want = f(stable_ks, np.array(vals))
    assert isinstance(want, np.ndarray) and want.shape == (3,)
    for like in (vals, tuple(vals)):
        got = f(stable_ks, like)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == want.tolist()
    one = f(stable_ks, [0.5])
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    scalar = f(stable_ks, 0.5)
    assert type(scalar) is float
    assert scalar == pytest.approx(want[1], rel=1e-14)


def test_uq_closed_form(stable_ks):
    for q, want in UQ0_ALPHA15.items():
        assert stable_ks.uq(q, 0.0) == pytest.approx(want, rel=1e-9)


def test_uq_symmetry_and_decay(stable_ks):
    assert stable_ks.uq(1.0, 0.7) == stable_ks.uq(1.0, -0.7)
    assert stable_ks.uq(1.0, 0.0) > stable_ks.uq(1.0, 1.0) > stable_ks.uq(1.0, 3.0) > 0.0


def test_uq_domain(stable_ks):
    with pytest.raises(DomainError):
        stable_ks.uq(0.0, 1.0)
    with pytest.raises(DomainError):
        stable_ks.uq(-1.0, 1.0)


@pytest.mark.parametrize(
    "q, x, name",
    [(math.inf, 1.0, "q"), (math.nan, 1.0, "q"), (1.0, math.inf, "x"),
     (1.0, -math.inf, "x"), (1.0, math.nan, "x")],
)
def test_uq_refuses_a_non_finite_argument_by_name(stable_ks, q, x, name):
    # an infinite q used to give u^q = 0.0, and an infinite or nan x the
    # quadrature's "need a < b" about an empty interval
    with pytest.raises(DomainError, match=f"finite {name}, got {name} = "):
        stable_ks.uq(q, x)


@pytest.mark.parametrize(
    "spec",
    [PhiSpec.stable(0.75), PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9))), PhiSpec.stable(0.6)],
    ids=["stable-0.75", "mixture", "stable-0.6"],
)
def test_uq_is_continuous_at_zero(spec):
    # 0 <= u^q(0) - u^q(x) <= h(x), since (1 - cos)/(q + psi) <= (1 - cos)/psi;
    # and psi >= w lam^(2 d) for each term, so h(x) <= h1(d) x^(2d - 1) / w.
    # A tiny x used to leave g's bulk between the head's first nodes, and
    # u^q read 0.0 as converged
    ks = KernelSet(spec)
    terms = list(zip(spec.weights(), spec.exponents()))
    for q in (1e-4, 1.0, 7.0):
        if len(terms) == 1:
            u0 = uq0_closed(q, 2.0 * terms[0][1])
            assert ks.uq(q, 0.0) == pytest.approx(u0, rel=1e-9)
        else:
            u0 = ks.uq(q, 0.0)
        for x in (1e-300, 1e-200, 1e-80, 1e-40, 1e-20, 1e-10, 1e-5, 1e-3, 0.1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gap = u0 - ks.uq(q, x)
            h = min(h1_closed(d) * x ** (2.0 * d - 1.0) / w for w, d in terms)
            tol = 2e-9 * u0
            assert -tol <= gap <= h + tol, (q, x)


def _uq_point(ks, q, x):
    """u^q at one x by one engine run, x = 0 through the b = inf integral of
    ``integrate_adaptive``: the route each point took alone, which the rows
    of ``uq``'s pass are held to, bit for bit."""

    def g(lam):
        with np.errstate(over="ignore"):
            return 1.0 / (q + phi_eval(ks.phi, lam * lam))

    x, te = abs(float(x)), 2.0 * ks.delta_max
    if x == 0.0:
        r = integrate_adaptive(g, 0.0, math.inf, tail_exponent=te)
    else:
        r = integrate_oscillatory_cos(g, x, mode="cos", tail_exponent=te)
    assert r.converged, (q, x)
    return r.value / math.pi


@pytest.mark.parametrize(
    "spec",
    [PhiSpec.stable(0.75), PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9))), PhiSpec.stable(0.6)],
    ids=["stable-0.75", "mixture", "stable-0.6"],
)
def test_uq_rows_are_the_one_point_engine(spec):
    # x = 0, a tiny x, negative x, repeats, and heads cut at lam = 1 (x < 1/32)
    xs = np.array([[0.5, 0.0, 1e-40, -0.5, 0.5, 1e-3, 0.02, -1e-3],
                   [1 / 32, 0.04, 0.3, 0.3 + 1e-14, 1.0, 3.0, 30.0, 0.0]])
    ks = KernelSet(spec)
    for q in (0.1, 1.0, 7.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ks.uq(q, xs)
        assert got.shape == xs.shape
        assert got.tolist() == [[_uq_point(ks, q, x) for x in row] for row in xs]
        assert ks.uq(q, xs[0, 2]) == got[0, 2] and type(ks.uq(q, 0.5)) is float


def test_uq_rows_keep_their_one_point_values(stable_ks, mixture_ks):
    # each row as its x gives alone through the one-point route (q = 1),
    # and within the engine's contract of the contour-rotated transform.
    # No literal: the GK15 sums run through a BLAS dot, so their last bit
    # moves with the OpenBLAS kernel set
    xs = [0.0, 1e-40, 0.02, 0.5]
    for ks in (stable_ks, mixture_ks):
        rows = ks.uq(1.0, xs)
        assert rows.tolist() == [float(ks.uq(1.0, x)) for x in xs]
        terms = list(zip(ks.phi.weights(), ks.phi.exponents()))
        want = [uq_rotated(terms, 1.0, x) for x in xs]
        np.testing.assert_allclose(rows, want, rtol=1e-9, atol=1e-10)
    assert stable_ks.uq(1.0, []).shape == (0,)


@pytest.mark.parametrize(
    "q, xs, served, want",
    [
        (1.0, [0.5, 0.0, -0.5, math.inf, 1e160], [0.0, 0.5],
         (DomainError, "uq needs a finite x, got x = inf")),
        (1.0, [2.0, -1e160, math.nan], [2.0],
         (DomainError, "uq(1.0, 1e+160): x is above 7.1603e+150, where the integrand's "
                       "lam^2 underflows")),
        (1.0, [math.nan, 1.0], [], (DomainError, "uq needs a finite x, got x = nan")),
        (1e-300, [1.0, math.inf], [1.0], (QuadratureError, "uq(1e-300, 1.0) did not converge")),
    ],
    ids=["inf", "huge", "nan-first", "unconverged-first"],
)
def test_uq_raises_the_first_bad_entry_after_serving_those_before(
    stable_ks, monkeypatch, q, xs, served, want
):
    import sbmpot.kernels as kernels

    rows = []
    engine = kernels.integrate_oscillatory_cos_batch

    def record(g, x, **kw):
        rows.append(x.tolist())
        return engine(g, x, **kw)

    monkeypatch.setattr(kernels, "integrate_oscillatory_cos_batch", record)
    assert _raised(lambda: stable_ks.uq(q, xs)) == want
    assert rows == [served]
    # and a one-point loop meets the same error first
    assert _raised(lambda: [stable_ks.uq(q, x) for x in xs]) == want


def test_huge_x_is_refused_by_name(stable_ks, mixture_ks):
    # past h_ceiling (h) and about 7e150 (u^q) the quadrature's first pass
    # squares a lam below the normal doubles, and further up to 0, which
    # phi_eval refuses without naming the x
    for ks in (stable_ks, mixture_ks):
        assert 1e147 < ks.h_ceiling < 1e149
        with pytest.raises(DomainError, match=r"h\(1e\+160\) is above h_ceiling"):
            ks.h_comp([0.5, 1e160])
        with pytest.raises(DomainError, match=r"h\(1e\+149\) is above h_ceiling"):
            ks.h_comp(-1e149)
        with pytest.raises(DomainError, match=r"uq\(1.0, 1e\+160\): x is above"):
            ks.uq(1.0, -1e160)
        assert 0.0 <= ks.uq(1.0, 1e150) < 1e-10


def test_h_closed_form_three_exponents():
    for d, want in H1_CLOSED.items():
        ks = KernelSet(PhiSpec.stable(d))
        assert ks.h_comp(1.0) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("delta", [0.6, 0.75, 0.9])
def test_h_sweep_is_accurate_or_raises(delta):
    # h(x) = h(1) x^(2 delta - 1) exactly for a stable exponent.  Where h's
    # integral falls below the engine's abs_tol the first pass is accepted,
    # and that pass is within 6.7e-9 of the closed form, hence the 1e-8 bar.
    # An x the quadrature cannot serve must raise, never return a wrong value.
    ks = KernelSet(PhiSpec.stable(delta))
    h1 = H1_CLOSED[delta]
    served, vals = [], []
    for x in np.logspace(-300.0, 300.0, 121):
        try:
            v = ks.h_comp(x)
        except (DomainError, QuadratureError):
            continue
        assert v == pytest.approx(h1 * x ** (2.0 * delta - 1.0), rel=1e-8, abs=0.0), x
        served.append(x)
        vals.append(v)
    # and the range that holds values does get them
    assert min(served) <= 1e-120 and max(served) >= 1e15
    # one call runs them as the rows of one pass: each entry carries the
    # bits of the engine run at that entry alone
    assert ks.h_comp(served).tolist() == vals == _h_loop(ks, served)


@pytest.mark.parametrize("delta", [0.6, 0.75, 0.9])
def test_kernel_sweep_is_accurate_or_raises(delta):
    # for a stable exponent, alpha = 2 delta: j(x) = c x^(-1-alpha), its tail
    # is (c/alpha) x^(-alpha), Phi(x) = x^alpha and PhiInv(y) = y^(1/alpha).
    # Wherever that closed form is a finite normal double the kernel must
    # match it or raise DomainError; phi_cap(1e-200) at delta 0.75 and
    # phi_cap_inv(1e-200) at delta 0.6 used to return 0.0
    ks = KernelSet(PhiSpec.stable(delta))
    alpha = 2.0 * delta
    c = levy_c_closed(alpha)
    closed = {  # kernel: (log of the prefactor, power)
        ks.levy_j: (math.log(c), -1.0 - alpha),
        ks.jump_tail_closed: (math.log(c / alpha), -alpha),
        ks.phi_cap: (0.0, alpha),
        ks.phi_cap_inv: (0.0, 1.0 / alpha),
    }
    log_lo, log_hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    for f, (log_c, p) in closed.items():
        for x in np.logspace(-300.0, 300.0, 121):
            log_want = log_c + p * math.log(x)
            if not log_lo < log_want < log_hi:
                continue
            try:
                v = f(x)
            except DomainError:
                # the range that holds values does get them
                assert not 1e-150 <= x <= 1e150, (f, x)
                continue
            assert v == pytest.approx(math.exp(log_want), rel=1e-11, abs=0.0), (f, x)


@pytest.mark.parametrize("delta", [0.6, 0.75, 0.9])
def test_h_floor_guards_the_overflow(delta):
    ks = KernelSet(PhiSpec.stable(delta))
    h1 = H1_CLOSED[delta]
    x = ks.h_floor
    assert 1e-150 < x < 1e-100
    assert ks.h_comp(x) == pytest.approx(h1 * x ** (2.0 * delta - 1.0), rel=1e-8, abs=0.0)
    with pytest.raises(DomainError, match="h_floor"):
        ks.h_comp(0.99 * x)
    # unguarded, a quarter of the floor squares a lam past the float range,
    # and the integrand reading 0 there makes h low
    ks.h_floor = 0.0
    v = ks.h_comp(0.25 * x)
    assert v < h1 * (0.25 * x) ** (2.0 * delta - 1.0) * (1.0 - 1e-8)
    # h diverges for delta <= 1/2, which the engine reports without a floor
    assert KernelSet(PhiSpec.stable(0.5)).h_floor == 0.0


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_h_comp_refuses_a_non_finite_x(stable_ks, x):
    # an infinite x used to reach the quadrature as an empty interval, and
    # a nan x the same, with an error naming neither
    with pytest.raises(DomainError, match="finite x"):
        stable_ks.h_comp(x)


def test_h_basics(stable_ks, mixture_ks):
    for ks in (stable_ks, mixture_ks):
        assert ks.h_comp(0.0) == 0.0
        assert ks.h_comp(-1.0) == ks.h_comp(1.0)
        vals = ks.h_comp(np.array([0.1, 1.0, 10.0]))
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] > 0.0


def test_h_at_zero_needs_no_quadrature():
    # h diverges for delta = 1/2, but h(0) = 0 is a row of no evaluation
    # and an empty table has no row; only a nonzero x reads the tail and fails
    ks = KernelSet(PhiSpec.stable(0.5))
    assert ks.h_comp(0.0) == 0.0
    assert ks.h_comp([0.0, -0.0]).tolist() == [0.0, 0.0]
    empty = ks.h_comp([])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    with pytest.raises(DomainError, match="tail exponent 1.0 is not integrable"):
        ks.h_comp([0.0, 1.0])


def _h_engine(ks, x):
    """h at one x from a one-row call of the oscillatory engine: the
    reference that the rows of ``h_comp``'s pass are held to, bit for bit."""
    r = integrate_oscillatory_cos(
        ks._h_integrand,
        abs(float(x)),
        mode="one_minus_cos",
        left_exponent=-2.0 * ks.delta_min,
        tail_exponent=2.0 * ks.delta_max,
    )
    assert r.converged, x
    return r.value / math.pi


def _h_loop(ks, xs):
    return [_h_engine(ks, x) for x in xs]


def test_h_many_matches_scalar(stable_ks):
    # h_many is another name for h_comp, kept for callers that bind it
    assert KernelSet.h_many is KernelSet.h_comp
    xs = np.array([0.2, 1.0, 5.0])
    assert stable_ks.h_comp(xs).tolist() == _h_loop(stable_ks, xs)
    assert [stable_ks.h_comp(x) for x in xs] == _h_loop(stable_ks, xs)


@pytest.mark.parametrize(
    "spec",
    [
        PhiSpec.stable(0.75),
        PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9))),
        PhiSpec.stable(0.63),
        PhiSpec.mixture(((2.0, 0.55), (0.3, 0.95))),
    ],
    ids=["stable-0.75", "mixture", "stable-0.63", "mixture-0.55-0.95"],
)
def test_h_rows_are_the_scalar_engine_on_random_points(spec):
    # 150 log-uniform |x| in [1e-6, 1e6], some negative: one batched call
    # against one engine run per point
    rng = np.random.default_rng(20161)
    xs = 10.0 ** rng.uniform(-6.0, 6.0, 150) * rng.choice([-1.0, 1.0], 150)
    ks = KernelSet(spec)
    assert ks.h_comp(xs).tolist() == _h_loop(ks, xs)


def test_h_many_is_the_scalar_loop_on_the_certified_points(stable_ks, mixture_ks):
    # the lattice of h-psi-band, the probes of exit-time-bound and a grid's nodes
    xs = np.concatenate([
        0.1 * np.arange(1, 201),
        np.logspace(-3.0, 3.0, 41),
        Grid(0.004, 1.0, 512).nodes(),
    ])
    for ks in (stable_ks, mixture_ks):
        assert ks.h_comp(xs).tolist() == _h_loop(ks, xs)


def test_h_many_shapes_and_repeats(mixture_ks):
    ks = mixture_ks
    xs = np.array([[0.3, 0.0, -0.3], [2.5, 0.3 + 1e-14, 0.3]])
    got = ks.h_comp(xs)
    assert got.shape == (2, 3)
    assert got.tolist() == [_h_loop(ks, xs[0]), _h_loop(ks, xs[1])]
    assert got[0, 1] == 0.0 and got[0, 0] == got[0, 2] == got[1, 2]
    empty = ks.h_comp(np.zeros((0, 2)))
    assert isinstance(empty, np.ndarray) and empty.shape == (0, 2)
    scalar = ks.h_comp(0.5)
    assert type(scalar) is float and scalar == _h_engine(ks, 0.5)
    assert ks.h_comp(0.0) == 0.0


def _raised(f):
    try:
        f()
    except (DomainError, QuadratureError) as e:
        return type(e), str(e)
    raise AssertionError("no error raised")


_BELOW_FLOOR = "h(1e-145) is below h_floor = {:.6g}, where the integrand's lam^2 overflows"


@pytest.mark.parametrize(
    "xs, want",
    [
        ([0.5, 1e20], (QuadratureError, "h(1e+20) did not converge")),
        ([0.5, math.nan, 1e20], (DomainError, "h needs a finite x, got x = nan")),
        ([0.5, 1e20, math.nan], (QuadratureError, "h(1e+20) did not converge")),
        ([2.0, -math.inf], (DomainError, "h needs a finite x, got x = inf")),
        ([1e-145, 1.0], (DomainError, _BELOW_FLOOR)),
    ],
    ids=["unconverged", "nan-first", "unconverged-first", "inf", "below-floor"],
)
def test_h_many_raises_what_the_scalar_loop_raises(stable_ks, xs, want):
    # the first entry in input order that fails names the error: the
    # entries before a refused x are served, and one that misses the
    # quadrature contract is reported first
    kind, msg = want
    assert _raised(lambda: stable_ks.h_comp(xs)) == (kind, msg.format(stable_ks.h_floor))
    # and a scalar loop meets the same error first
    assert _raised(lambda: [stable_ks.h_comp(x) for x in xs]) == (
        kind, msg.format(stable_ks.h_floor)
    )


def test_h_many_error_messages(stable_ks):
    with pytest.raises(QuadratureError, match=r"h\(1e\+20\) did not converge"):
        stable_ks.h_comp([0.5, 1e20])
    with pytest.raises(DomainError, match="finite x"):
        stable_ks.h_comp([0.5, math.nan])
    # h diverges for delta <= 1/2: the engine's own error, whatever the x
    ks = KernelSet(PhiSpec.stable(0.5))
    want = (DomainError, "tail exponent 1.0 is not integrable at infinity")
    assert _raised(lambda: ks.h_comp([0.0, 1.0])) == want
    assert _raised(lambda: ks.h_comp(1.0)) == want


def test_h_is_q_to_zero_resolvent_limit(stable_ks, mixture_ks):
    # h(x) = lim_q (u^q(0) - u^q(x)); at q = 1e-4 the gap is O(q)
    for ks in (stable_ks, mixture_ks):
        tri = ks.uq(1e-4, 0.0) - ks.uq(1e-4, 1.0)
        assert tri == pytest.approx(ks.h_comp(1.0), rel=5e-4)


def test_mixture_h_below_component_h(mixture_ks):
    # psi_mix = psi_1 + psi_2 pointwise, so h_mix < min(h_1, h_2)
    k1 = KernelSet(PhiSpec.stable(0.6))
    k2 = KernelSet(PhiSpec.stable(0.9))
    for x in (0.1, 1.0, 10.0):
        hm = mixture_ks.h_comp(x)
        assert hm < k1.h_comp(x) and hm < k2.h_comp(x)


def test_green_free_identities(stable_ks):
    h = stable_ks.h_comp
    x, y = 0.8, 2.3
    assert stable_ks.green_free_x0(x, y) == pytest.approx(
        h(x) + h(y) - h(x - y), rel=1e-14
    )
    assert stable_ks.green_free_z(x, y) == pytest.approx(
        2.0 * h(x) + 2.0 * h(y) - h(x - y) - h(x + y), rel=1e-14
    )
    assert stable_ks.green_free_z(x, y) == stable_ks.green_free_z(y, x)
    with pytest.raises(DomainError):
        stable_ks.green_free_x0(0.0, 1.0)


def test_green_free_on_arrays_is_the_scalar_formula(stable_ks, mixture_ks):
    # x and y broadcast, one h call serves every entry, and each entry is
    # the formula on the one-point engine's h bit for bit (x == y included)
    xs = np.array([[0.8, 2.3, 0.05], [1.0, 0.3, 40.0]])
    y = 2.3
    for ks in (stable_ks, mixture_ks):
        h = lambda v: _h_engine(ks, v)
        gx0, gz = ks.green_free_x0(xs, y), ks.green_free_z(xs, y)
        assert gx0.shape == gz.shape == xs.shape
        assert gx0.tolist() == [[h(x) + h(y) - h(x - y) for x in row] for row in xs]
        assert gz.tolist() == [
            [2.0 * h(x) + 2.0 * h(y) - h(x - y) - h(x + y) for x in row] for row in xs
        ]
        one = ks.green_free_z(0.8, y)
        assert type(one) is float and one == gz[0, 0]
        assert type(ks.green_free_x0(0.8, y)) is float
    with pytest.raises(DomainError, match="nonzero"):
        stable_ks.green_free_x0([1.0, 0.0], 1.0)
    with pytest.raises(DomainError, match="finite x"):
        stable_ks.green_free_x0([1.0, math.nan], 1.0)
    for x, y in (([1.0, -1.0], 1.0), ([1.0, 2.0], 0.0), (1.0, math.nan)):
        with pytest.raises(DomainError, match="open half line"):
            stable_ks.green_free_z(x, y)


def test_jump_i_identity(stable_ks):
    x, y = 0.6, 1.9
    want = stable_ks.levy_j(x - y) + stable_ks.levy_j(x + y)
    assert stable_ks.jump_i(x, y) == pytest.approx(want, rel=1e-14)


def test_phi_cap_round_trip(stable_ks, mixture_ks):
    for ks in (stable_ks, mixture_ks):
        x = np.logspace(-2, 2, 9)
        y = ks.phi_cap(x)
        back = ks.phi_cap_inv(y)
        assert np.allclose(back, x, rtol=1e-11)
        assert np.all(np.diff(y) > 0.0)
    with pytest.raises(DomainError):
        stable_ks.phi_cap(-1.0)
    with pytest.raises(DomainError):
        stable_ks.phi_cap_inv(0.0)


def test_phi_cap_inv_stops_at_the_fixed_point(stable_ks, mixture_ks):
    # the bisection stops once a step moves neither end; every later step
    # would not move them either, so the result is the 100-step loop's bits
    for ks in (stable_ks, mixture_ks):
        # from the smallest to the largest x whose x^-2 is a normal double
        y = ks.phi_cap(np.logspace(-153.0, 153.0, 307))
        for v in (y, y[:1], y[-1:], y[150:151]):
            assert ks.phi_cap_inv(v).tobytes() == phi_cap_inv_full(ks, v).tobytes()
        assert ks.phi_cap_inv(float(y[100])) == float(phi_cap_inv_full(ks, y[100:101])[0])


def test_phi_cap_inv_bisects_each_distinct_value_once(stable_ks, mixture_ks, monkeypatch):
    # the comparator's amplitudes repeat: each distinct one is bisected
    # once, and every entry keeps the bits of the 100-step loop
    import sbmpot.kernels as kernels

    for ks in (stable_ks, mixture_ks):
        y = ks.phi_cap(np.logspace(-3.0, 3.0, 7))
        v = np.stack([np.tile(y, 3), np.repeat(y, 3), y[np.arange(21) % 2]])
        sizes = []
        real = kernels.phi_eval
        monkeypatch.setattr(
            kernels, "phi_eval", lambda phi, t: sizes.append(np.size(t)) or real(phi, t)
        )
        got = ks.phi_cap_inv(v)
        monkeypatch.undo()
        assert got.shape == v.shape
        assert got.tobytes() == phi_cap_inv_full(ks, v).tobytes()
        assert set(sizes) == {7}


def test_gx_estimate_band(stable_ks):
    xs = np.linspace(1.1, 1.9, 7)
    est = stable_ks.gx_estimate(1.0, 2.0, xs[:, None], xs[None, :])
    assert np.all(np.isfinite(est)) and np.all(est > 0.0)
    assert np.allclose(est, est.T, rtol=1e-12)
    with pytest.raises(DomainError):
        stable_ks.gx_estimate(1.0, 2.0, 0.5, 1.5)
