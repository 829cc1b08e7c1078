import functools
import math

import numpy as np
import pytest

import oracles
import sbmpot.quadrature as quad
from sbmpot import ConfigError, DomainError, KernelSet, QuadratureError, phi_eval
from sbmpot.quadrature import (
    integrate_adaptive,
    integrate_adaptive_batch,
    integrate_oscillatory_cos,
    integrate_oscillatory_cos_batch,
)


def test_plain_finite_interval():
    r = integrate_adaptive(lambda x: np.sin(x), 0.0, math.pi)
    assert r.converged
    assert abs(r.value - 2.0) < 1e-10


def test_left_power_singularity():
    r = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0, left_exponent=-0.5)
    assert r.converged
    assert abs(r.value - 2.0) < 1e-10


def test_infinite_tail_exponential():
    r = integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-9


def test_infinite_tail_power():
    r = integrate_adaptive(lambda x: x ** -2.0, 1.0, math.inf, tail_exponent=2.0)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-9


def test_infinite_tail_from_a_negative_start():
    # from a <= -1 the cut a + max(1, |a|) is 0, where the inverted tail
    # cannot start: the cut moves to 1
    for a in (-3.0, -1.0, -0.5):
        r = integrate_adaptive(lambda x: np.exp(-x * x), a, math.inf)
        assert r.converged
        assert abs(r.value - 0.5 * math.sqrt(math.pi) * math.erfc(a)) < 1e-9


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


def test_budget_exhaustion_flags_not_raises(quad_contract):
    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=200)
    f = lambda x: np.cos(50.0 * x) * np.cos(49.0 * x)
    r = integrate_adaptive(f, 0.0, 10.0)
    assert not r.converged
    assert math.isfinite(r.value)
    # one row of the lockstep loop refines in the heap loop's order
    assert r == oracles.adaptive_finite(f, 0.0, 10.0, 200)


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
    # the node is named as a plain float, not as numpy 2's np.float64(0.5)
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError) as e:
        integrate_adaptive(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)
    assert str(e.value) == "integrand returned a non-finite value near x = 0.5"


def test_nonfinite_value_in_a_substituted_piece_names_the_abscissa():
    # left_exponent -1/2 maps [0, 1] by x = t^4; f is inf only for x in
    # (0.3, 0.4), which t in (0.74, 0.80) maps there, so naming t would
    # name a point outside it
    def f(x):
        return np.where((x > 0.3) & (x < 0.4), np.inf, np.abs(x) ** -0.5 + 1.0)

    with np.errstate(divide="ignore"), pytest.raises(QuadratureError) as e:
        integrate_adaptive(f, 0.0, 1.0, left_exponent=-0.5)
    named = float(str(e.value).rsplit("= ", 1)[1])
    assert 0.3 < named < 0.4
    assert str(e.value).startswith("integrand returned a non-finite value near x = ")


def test_oscillatory_validation():
    with pytest.raises(DomainError):
        integrate_oscillatory_cos(lambda t: t, -1.0, tail_exponent=2.0)
    with pytest.raises(ConfigError):
        integrate_oscillatory_cos(lambda t: t ** -1.5, 1.0, left_exponent=-1.5)
    with pytest.raises(ConfigError):
        integrate_oscillatory_cos(lambda t: t, 1.0, mode="sin", tail_exponent=2.0)


def _scalar_runs(f, a, b):
    # the independent reference: one interval at a time, worst panel first
    # from a heap
    return [oracles.adaptive_finite(f, float(lo), float(hi), quad.MAX_EVALS)
            for lo, hi in zip(a, b)]


def _assert_rows_identical(batch, runs):
    # ==, not approx: each row takes the steps its run takes, round by round
    assert batch.value.tolist() == [r.value for r in runs]
    assert batch.err_est.tolist() == [r.err_est for r in runs]
    assert batch.evals.tolist() == [r.evals for r in runs]
    assert batch.converged.tolist() == [r.converged for r in runs]


def _tail_sets(a, b, n):
    # the jump-tail starts of a kind-Z grid on (a, b): below, above, folded
    xs = a + (np.arange(n) + 0.5) * (b - a) / n
    return np.concatenate([xs - a, b - xs, xs + a, xs + b])


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize(
    "ts, cut",
    [
        (_tail_sets(0.004, 1.0, 48), 50.0 * 0.996),
        (_tail_sets(0.25, 2.75, 48), 50.0 * 2.5),
        # tail starts over five decades with a short cutoff
        (np.geomspace(1e-4, 5.0, 40), 3.0),
    ],
    ids=["exit-alive", "harnack", "geometric"],
)
def test_batch_equals_scalar_on_jump_tails(request, ks_name, ts, cut):
    ks = request.getfixturevalue(ks_name)
    batch = integrate_adaptive_batch(ks.levy_j, ts, ts + cut)
    assert batch.converged.all()
    _assert_rows_identical(batch, _scalar_runs(ks.levy_j, ts, ts + cut))


def _panels_one_by_one(f, lo, hi):
    from sbmpot.quadrature import _gk15_panels

    out = [_gk15_panels(f, lo[k:k + 1], hi[k:k + 1]) for k in range(lo.size)]
    return [v[0] for v, _ in out], [e[0] for _, e in out]


def test_stacked_panels_equal_single_panels(mixture_ks):
    # the GK15 driver gives a panel in a stack the bits it gets alone (the
    # lockstep loop, its heap reference and the blocked oscillatory tail
    # rely on this)
    from sbmpot.quadrature import _gk15_panels

    lo = np.geomspace(1e-4, 5.0, 64)
    hi = lo * 1.7
    v, e = _gk15_panels(mixture_ks.levy_j, lo, hi)
    assert (v.tolist(), e.tolist()) == _panels_one_by_one(mixture_ks.levy_j, lo, hi)

    # the oscillatory tail's integrand over half-period chunks, in blocks of 1 to 4
    x = 1.3
    f = lambda lam: np.cos(lam * x) / phi_eval(mixture_ks.phi, lam * lam)
    lo = np.array([1.5 * math.pi / x + k * math.pi / x for k in range(13)])
    hi = lo + math.pi / x
    single = _panels_one_by_one(f, lo, hi)
    for size in (1, 2, 3, 4):
        vs, es = [], []
        for k in range(0, lo.size, size):
            v, e = _gk15_panels(f, lo[k:k + size], hi[k:k + size])
            vs += v.tolist()
            es += e.tolist()
        assert (vs, es) == single


def test_oscillatory_tail_budget_cut_inside_a_block(quad_contract):
    # the budget leaves room for 3 of the 4 chunks between two convergence
    # tests (11 chunks in all): the tail stops there, unconverged
    quad_contract(max_evals=297)
    r = integrate_oscillatory_cos(lambda t: 1.0 / (1.0 + t * t), 1.0, mode="cos")
    assert not r.converged
    assert r.evals == 285
    assert abs(r.value - 0.5 * math.pi / math.e) < 1e-5


def test_oscillatory_tail_non_decaying_envelope():
    # growing chunk magnitudes: the tail warns, falls back to the raw
    # partial sum and reports converged=False
    with pytest.warns(RuntimeWarning, match="not decaying"):
        r = integrate_oscillatory_cos(np.sqrt, 1.0, mode="cos")
    assert not r.converged
    assert r.evals == 1020


def test_batch_equals_scalar_at_the_width_floor(quad_contract):
    # panels a few ulps wide cannot be split: they are frozen, and a row
    # whose panels are all frozen stops before its budget
    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=5000)
    a = np.array([1.0, 1e15, 2.0, -3.0])
    b = np.array([1.0 + 1e-13, 1e15 + 1.0, 2.0 + 3e-14, -3.0 + 1e-12])
    f = lambda x: np.exp(np.sin(7.0 * x))
    batch = integrate_adaptive_batch(f, a, b)
    _assert_rows_identical(batch, _scalar_runs(f, a, b))
    assert not batch.converged.any()
    assert (batch.evals[:3] + 30 <= 5000).all()  # halted, not exhausted


def test_batch_budget_exhaustion_flags(quad_contract):
    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=200)
    f = lambda x: np.cos(50.0 * x) * np.cos(49.0 * x)
    a, b = np.array([0.0, 1.0]), np.array([10.0, 3.0])
    batch = integrate_adaptive_batch(f, a, b)
    _assert_rows_identical(batch, _scalar_runs(f, a, b))
    assert not batch.converged.any()


def test_batch_validation():
    with pytest.raises(QuadratureError):
        integrate_adaptive_batch(lambda x: 1.0 / (x - 0.5), np.array([0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        integrate_adaptive_batch(lambda x: x, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        integrate_adaptive_batch(lambda x: x, np.array([0.0]), np.array([math.inf]))
    with pytest.raises(ConfigError):
        integrate_adaptive_batch(lambda x: x, np.array([0.0]), np.array([1.0, 2.0]))
    empty = integrate_adaptive_batch(lambda x: x, np.zeros(0), np.zeros(0))
    assert empty.value.shape == (0,)


def test_stacked_error_model_equals_the_float_model():
    # every stack, one row's few panels included, runs the error model in
    # numpy, with the bits of the float model panel by panel
    from sbmpot.quadrature import _gk15_err

    rng = np.random.default_rng(3)
    vk = rng.normal(size=400)
    vg = vk * (1.0 + 10.0 ** rng.uniform(-16.0, 0.0, size=400))
    resasc = np.abs(rng.normal(size=400))
    vg[::7] = vk[::7]  # raw 0: no sharpening
    resasc[::11] = 0.0
    vk[::13] = 0.0
    want = list(map(oracles._panel_err, vk.tolist(), vg.tolist(), resasc.tolist()))
    for n in (1, 15, 16, 400):
        assert _gk15_err(vk[:n], vg[:n], resasc[:n]).tolist() == want[:n]


def _rows_identical(g, xs, mode, **kw):
    # each row of a batch carries the bits of its own one-row call
    batch = integrate_oscillatory_cos_batch(g, xs, mode=mode, **kw)
    alone = [integrate_oscillatory_cos(g, x, mode=mode, **kw) for x in xs]
    _assert_rows_identical(batch, alone)
    return batch


def test_one_minus_cos_batch_equals_scalar(stable_ks, mixture_ks):
    xs = np.concatenate([np.geomspace(1e-6, 1e6, 25), [0.3, 0.3 + 1e-14]])
    for ks in (stable_ks, mixture_ks):
        g = lambda lam: 1.0 / phi_eval(ks.phi, lam * lam)
        kw = dict(left_exponent=-2.0 * ks.delta_min, tail_exponent=2.0 * ks.delta_max)
        assert _rows_identical(g, xs, "one_minus_cos", **kw).converged.all()
    # a head exponent of 2 needs no power substitution
    g = lambda t: 1.0 / (1.0 + t * t)
    b = _rows_identical(g, np.array([0.5, 1.0, 3.0]), "one_minus_cos", tail_exponent=2.0)
    assert np.allclose(b.value, 0.5 * math.pi * (1.0 - np.exp(-np.array([0.5, 1.0, 3.0]))))


def test_cos_batch_rows_equal_their_one_row_calls(quad_contract):
    # int cos(x t)/(1+t^2) dt = pi/2 e^-x.  Below x = 1/32 the head is cut
    # at t = 1; under 600 evaluations those rows' budget cuts their tail
    # short, while the rows from x = 1 on converge
    g = lambda t: 1.0 / (1.0 + t * t)
    xs = np.array([1e-3, 0.02, 1.0, 3.0, 30.0])
    quad_contract(max_evals=600)
    b = _rows_identical(g, xs, "cos", tail_exponent=2.0)
    assert b.evals.tolist() == [600, 600, 540, 540, 480]
    assert b.converged.tolist() == [False, False, True, True, True]
    quad_contract()
    b = _rows_identical(g, xs, "cos", tail_exponent=2.0)
    assert b.converged.all()
    assert np.allclose(b.value, 0.5 * math.pi * np.exp(-xs), rtol=0.0, atol=1e-11)


def test_one_minus_cos_batch_budget_cut_inside_a_block(quad_contract):
    # head, int g tail and bridge take 240 evaluations at x >= 0.5, which
    # leaves 13 chunks: one past the test at 12, cut inside the block.  At
    # x = 0.05 the pieces take more and the cut falls elsewhere.
    quad_contract(max_evals=435)
    xs = np.array([0.05, 0.5, 1.0, 2.0, 30.0])
    g = lambda t: 1.0 / (1.0 + t * t)
    batch = _rows_identical(g, xs, "one_minus_cos", tail_exponent=2.0)
    assert not batch.converged.any()
    assert (batch.evals == 435).all()
    assert abs(batch.value[2] - 0.5 * math.pi * (1.0 - math.exp(-1.0))) < 1e-5
    # each row's value and error estimate, as measured when each x ran alone
    # through a scalar route of its own
    assert batch.value.tolist() == pytest.approx(
        [0.07660791623076178, 0.6180601632393433, 0.9929325931924082,
         1.3582120694747428, 1.570796326924377], rel=1e-9)
    assert batch.err_est.tolist() == pytest.approx(
        [1.216038547311218e-06, 4.299271149836624e-08, 8.135676931446744e-08,
         1.3004276854943375e-07, 2.7271955309086616e-10], rel=1e-6)


def test_one_minus_cos_batch_non_decaying_envelope():
    # chunk magnitudes grow up to lam = 10: rows whose chunks start below it
    # warn and fall back to the raw partial sum, each row as it does alone
    g = lambda t: t**10 * np.exp(-t)
    xs = np.array([0.5, 10.0, 20.0])
    with pytest.warns(RuntimeWarning, match="not decaying"):
        batch = _rows_identical(g, xs, "one_minus_cos", tail_exponent=2.0)
    assert batch.converged.tolist() == [True, False, False]
    assert batch.evals.tolist() == [870, 930, 780]


def test_chunked_tail_batch_at_the_chunk_cap(quad_contract):
    # under a zero tolerance no two averaged limits of the noisy envelope
    # agree: two rows sum all 600 chunks, and the third row's budget cuts a
    # block short.  The bridge takes half of each row's budget (9990 and
    # 2490 evaluations), the chunks what it leaves
    from sbmpot.quadrature import _cos_tail_chunked_batch

    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=3000)
    g = lambda t: 1.0 / (1.0 + t * t) + 1e-13 * np.cos(t * t)
    xs, budget = np.array([0.5, 1.0, 3.0]), np.array([20000, 20000, 5000])
    batch = _cos_tail_chunked_batch(g, xs, budget)
    alone = [_cos_tail_chunked_batch(g, xs[i:i + 1], budget[i:i + 1]) for i in range(3)]
    assert [tuple(r) for r in zip(*(a.tolist() for a in batch))] == [
        tuple(a.tolist()[0] for a in r) for r in alone
    ]
    value, err, evals, ok = (a.tolist() for a in batch)
    assert evals == [9990 + 600 * 15] * 2 + [2490 + 167 * 15]
    assert ok == [False, False, False]
    assert value == pytest.approx(
        [-0.08356240572513568, -0.15067027783202225, -0.21767071333158683], rel=1e-9)
    assert err == pytest.approx(
        [5.469016514497666e-11, 1.3789190083362704e-11, 1.2195580024617945e-13], rel=1e-3)


def test_one_minus_cos_batch_validation():
    g = lambda t: 1.0 / (1.0 + t * t)
    run = functools.partial(integrate_oscillatory_cos_batch, g, mode="one_minus_cos")
    for bad in ([1.0, math.nan], [-1.0], [0.0, math.inf]):
        with pytest.raises(DomainError):
            run(np.array(bad), tail_exponent=2.0)
    # x = 0 is a row like any other: 0, with no evaluation
    r = run(np.array([0.0, 1.0]), tail_exponent=2.0)
    assert (r.value[0], r.err_est[0], r.evals[0], r.converged[0]) == (0.0, 0.0, 0, True)
    assert r.value[1] == pytest.approx(0.5 * math.pi * (1.0 - math.exp(-1.0)), rel=1e-9)
    with pytest.raises(DomainError):
        run(np.array([1.0]), tail_exponent=1.0)
    with pytest.raises(ConfigError):
        run(np.ones((2, 2)), tail_exponent=2.0)
    with pytest.raises(ConfigError):
        run(np.ones(2), tail_exponent=None)
    with pytest.raises(ConfigError):
        integrate_oscillatory_cos_batch(g, np.ones(2), mode="sin")
    empty = run(np.zeros(0), tail_exponent=2.0)
    assert empty.value.shape == (0,)
    empty = integrate_oscillatory_cos_batch(g, np.zeros(0), mode="cos")
    assert empty.value.shape == (0,)


def test_x_zero_rows_in_both_modes():
    # x = 0 rows among x > 0 rows: 0 with no evaluation (1 - cos), and the
    # b = inf integral of int_0^inf g (cos), each as its one-row call gives it
    g = lambda t: 1.0 / (1.0 + t * t)
    xs = np.array([0.0, 0.5, 0.0, 1e-3, 2.0])
    for mode in ("one_minus_cos", "cos"):
        b = _rows_identical(g, xs, mode, tail_exponent=2.0)
        assert b.converged.all()
        zero = integrate_oscillatory_cos(g, 0.0, mode=mode, tail_exponent=2.0)
        assert [b.value[0], b.err_est[0], b.evals[0]] == [zero.value, zero.err_est, zero.evals]
    assert (zero.value, zero.converged) == (
        integrate_adaptive(g, 0.0, math.inf, tail_exponent=2.0).value, True
    )
    assert zero.value == pytest.approx(0.5 * math.pi, rel=1e-12)
    one_minus = integrate_oscillatory_cos(g, 0.0, tail_exponent=2.0)
    assert (one_minus.value, one_minus.evals) == (0.0, 0)
    # the tail exponent is checked only when a row integrates g to infinity,
    # and before any evaluation
    calls = []

    def counted(t):
        calls.append(t.size)
        return g(t)

    run = functools.partial(integrate_oscillatory_cos_batch, counted, tail_exponent=1.0)
    assert run(np.zeros(2), mode="one_minus_cos").value.tolist() == [0.0, 0.0]
    for mode, xs in (("one_minus_cos", [0.0, 1.0]), ("cos", [0.0]), ("cos", [0.5, 0.0, 2.0])):
        with pytest.raises(DomainError, match=r"^tail exponent 1.0 is not integrable at infinity$"):
            run(np.array(xs), mode=mode)
    assert calls == []
    # in cos mode no row but x = 0 integrates g itself to infinity
    xs = np.array([1e-3, 0.5, 2.0])
    r = run(xs, mode="cos")
    assert r.converged.all() and calls
    # each row as its one-row call gives it, and within the engine's
    # contract of int cos(x t)/(1+t^2) dt = (pi/2) e^-x; no literal, since
    # the last bit moves with the OpenBLAS kernel set (the GK15 sums are a
    # BLAS dot)
    alone = [integrate_oscillatory_cos(g, x, mode="cos", tail_exponent=1.0).value for x in xs]
    assert r.value.tolist() == alone
    np.testing.assert_allclose(r.value, 0.5 * np.pi * np.exp(-xs), rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("tail", [None, 2.0])
def test_cos_x_zero_rows_take_the_cut_route(tail):
    # an x = 0 row runs the route of every x < 1/32: [0, 1], then the
    # inverted piece from u = x/2 = 0.  Evaluation counts as measured when
    # x = 0 had a route of its own, alone and among other rows.  Each value
    # is its one-row call's, bit for bit (_rows_identical), and sits within
    # the engine's contract of an independent value; no literal, since the
    # last bit moves with the OpenBLAS kernel set (the GK15 sums are a BLAS
    # dot)
    g = lambda t: 1.0 / (1.0 + t * t)
    alone = integrate_oscillatory_cos_batch(g, np.zeros(1), mode="cos", tail_exponent=tail)
    one = integrate_oscillatory_cos(g, 0.0, mode="cos", tail_exponent=tail)
    assert (alone.value.tolist(), alone.evals.tolist()) == ([one.value], [120])
    assert one.value == pytest.approx(0.5 * math.pi, rel=1e-9, abs=1e-10)
    xs = np.array([0.0, 1e-3, 0.5, 0.0, 2.0])
    b = _rows_identical(g, xs, "cos", tail_exponent=tail)
    np.testing.assert_allclose(b.value, 0.5 * np.pi * np.exp(-xs), rtol=1e-9, atol=1e-10)
    assert b.evals.tolist() == [120, 720, 540, 120, 540]
    assert b.converged.all()
    # a left-end substitution and a tail hint that maps to one
    g = lambda t: t ** -0.5 / (1.0 + t)
    b = _rows_identical(g, xs, "cos", left_exponent=-0.5, tail_exponent=1.5)
    want = [oracles.cos_half_power(x) for x in xs]
    np.testing.assert_allclose(b.value, want, rtol=1e-9, atol=1e-10)
    assert b.evals.tolist() == [120, 600, 540, 120, 540]


@pytest.mark.parametrize("max_evals", [297, 400])
def test_no_row_exceeds_max_evals(quad_contract, max_evals):
    # the cosine tail's bridge and the int g tail run on what the stages
    # before them left, and a budget below the 60 evaluations of the
    # starting panels runs nothing: cos mode at x = 1e-3 took 330 under
    # 297 and 420 under 400
    quad_contract(max_evals=max_evals)
    xs = np.array([0.0, 1e-3, 0.02, 0.05, 1.0, 3.0])
    for g, kw in ((lambda t: 1.0 / (1.0 + t * t), {}),
                  (lambda t: t ** -0.5 / (1.0 + t), dict(left_exponent=-0.5))):
        for mode in ("cos", "one_minus_cos"):
            b = integrate_oscillatory_cos_batch(g, xs, mode=mode, tail_exponent=1.5, **kw)
            assert b.evals.max() <= max_evals, (mode, b.evals)
    r = integrate_oscillatory_cos(lambda t: 1.0 / (1.0 + t * t), 1e-3, mode="cos")
    assert not r.converged and r.evals <= max_evals


def test_a_budget_below_the_starting_panels_runs_nothing():
    f = lambda x: np.exp(-x)
    a, b = np.zeros(3), np.array([1.0, 2.0, 3.0])
    r = integrate_adaptive_batch(f, a, b, budget=np.array([600, 59, 60]))
    alone = [integrate_adaptive_batch(f, a[i:i + 1], b[i:i + 1]) for i in (0, 2)]
    assert [r.value[0], r.value[2]] == [alone[0].value[0], alone[1].value[0]]
    assert r.converged.tolist() == [True, False, True]
    assert (r.value[1], r.err_est[1], r.evals[1]) == (0.0, math.inf, 0)


def _in_blocks(monkeypatch, size, f, a, b, **kw):
    # integrate_adaptive_batch with its rows run in blocks of `size`
    monkeypatch.setattr(quad, "_ROW_BLOCK", size)
    return integrate_adaptive_batch(f, a, b, **kw)


def _assert_same_bits(r, ref):
    for field in ("value", "err_est", "evals", "converged"):
        got, want = getattr(r, field), getattr(ref, field)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), field


@pytest.mark.parametrize("size", [1, 3, 7])
def test_row_blocks_equal_one_block(monkeypatch, mixture_ks, size):
    # rows straddling the block boundaries, per-row budgets (a row below the
    # 60 evaluations of its starting panels is not run, others run out),
    # per-row parameter columns: every row gets the bits of the one-block run
    ts = np.geomspace(1e-4, 5.0, 17)
    one = functools.partial(_in_blocks, monkeypatch, ts.size)
    blocked = functools.partial(_in_blocks, monkeypatch, size)
    r = blocked(mixture_ks.levy_j, ts, ts + 3.0)
    _assert_same_bits(r, one(mixture_ks.levy_j, ts, ts + 3.0))
    assert r.converged.all()

    f = lambda x: np.cos(50.0 * x) * np.cos(49.0 * x)
    a, b = np.zeros(11), np.linspace(2.0, 12.0, 11)
    budget = np.array([600, 59, 60, 200_000, 90, 120, 59, 3000, 61, 400, 200_000])
    r = blocked(f, a, b, budget=budget)
    _assert_same_bits(r, one(f, a, b, budget=budget))
    assert r.evals[[1, 6]].tolist() == [0, 0] and r.err_est[[1, 6]].tolist() == [math.inf] * 2
    assert not r.converged.all() and r.converged.any()
    assert (r.evals <= budget).all()

    g = lambda x, c, s: s * np.exp(-c * x)
    c, s = np.linspace(0.1, 3.0, 10), np.linspace(1.0, -1.0, 10)
    r = blocked(g, a[:10], b[:10], args=(c, s))
    _assert_same_bits(r, one(g, a[:10], b[:10], args=(c, s)))
    assert r.value.tolist() == [
        integrate_adaptive_batch(g, a[i:i + 1], b[i:i + 1], args=(c[i:i + 1], s[i:i + 1])).value[0]
        for i in range(10)
    ]


def test_row_blocks_at_the_width_floor(monkeypatch, quad_contract):
    # rows that halt on frozen panels and rows that run out, in blocks of 3
    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=5000)
    a = np.array([1.0, 1e15, 0.0, 2.0, -3.0, 1.0, 0.5])
    b = np.array([1.0 + 1e-13, 1e15 + 1.0, 10.0, 2.0 + 3e-14, -3.0 + 1e-12, 3.0, 0.75])
    f = lambda x: np.exp(np.sin(7.0 * x))
    r = _in_blocks(monkeypatch, 3, f, a, b)
    _assert_same_bits(r, _in_blocks(monkeypatch, a.size, f, a, b))
    _assert_rows_identical(r, _scalar_runs(f, a, b))
    assert not r.converged.any()


def test_row_blocks_refuse_a_non_finite_value_in_a_later_block(monkeypatch):
    # the last row's first panels put a node on 2.5, where f is nan: its
    # block, the third of three, names that node as the one-block run does
    f = lambda x: np.where(x == 2.5, np.nan, np.exp(-x))
    a = np.append(np.linspace(10.0, 20.0, 6), 0.0)
    b = a + 4.0
    for size in (3, a.size):
        with pytest.raises(QuadratureError, match=r"near x = 2\.5$"):
            _in_blocks(monkeypatch, size, f, a, b)
    # without that row, the rows before it run
    assert _in_blocks(monkeypatch, 3, f, a[:-1], b[:-1]).converged.all()


def test_jump_tail_memory_is_bounded_by_the_row_block(stable_spec):
    # the kind-Z tail starts of 4096 cells on (0.00025, 1), 12,288 distinct
    # t, twice those of the largest caller (a 2048-cell kind-Z generator):
    # run in row blocks the pass peaks near 5.7 MB traced; all rows in one
    # lockstep block it peaked at 31 MB
    import tracemalloc

    from sbmpot.interval_solver import Z_MAX_FACTOR, Grid

    grid = Grid(0.00025, 1.0, 4096)
    xs, a, b = grid.nodes(), grid.a, grid.b
    ts = np.concatenate([xs - a, xs + a, xs + b])
    ks = KernelSet(stable_spec)
    tracemalloc.start()
    try:
        ks.jump_tail(ts, Z_MAX_FACTOR * (b - a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"jump_tail peaked at {peak / 1e6:.1f} MB traced"


@pytest.mark.parametrize("budget", [np.array([600, 600]), np.full(4, 600), np.full((3, 1), 600)])
def test_batch_refuses_a_budget_of_the_wrong_length(budget):
    # refused by name before the integrand is called
    calls = []
    f = lambda x: calls.append(x) or np.exp(-x)
    with pytest.raises(ConfigError, match=r"budget must be a scalar or one entry per row \(3 rows\)"):
        integrate_adaptive_batch(f, np.zeros(3), np.ones(3), budget=budget)
    assert not calls


@pytest.mark.parametrize("col", [np.ones(2), np.ones(4), np.ones((3, 1)), 1.0])
def test_batch_refuses_an_args_column_of_the_wrong_length(col):
    calls = []
    f = lambda x, c, s: calls.append(x) or s * np.exp(-c * x)
    with pytest.raises(ConfigError, match=r"args\[1\] must hold one entry per row \(3 rows\)"):
        integrate_adaptive_batch(f, np.zeros(3), np.ones(3), args=(np.ones(3), col))
    assert not calls
