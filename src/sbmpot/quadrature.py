"""Deterministic adaptive quadrature on the half line.

This is the engine behind ``KernelSet``: every integral of a kernel the
solvers and the checks read (the jump coefficients, jump tails, the band
coefficient, the wall correction, u^q, h and the walk's mean step) is run
by a ``KernelSet`` method through one of two engines.  Outside
``kernels.py`` only the CLI's ``quad selftest`` calls them.

Each engine runs many integrals at once, in lockstep, and a single
integral is its one row: there is one adaptive loop and one cosine-tail
loop.  The adaptive loop runs its rows in consecutive blocks of
_ROW_BLOCK (2048), which bounds its working arrays however many rows a
caller passes; a row gets the same bits in any block.

``integrate_adaptive_batch``
    Globally adaptive 15-point Kronrod / 7-point Gauss quadrature over many
    finite intervals: each round every unfinished interval of a row block
    splits its worst panel, and all new panels of the block go to the
    integrand in one call.
    ``integrate_adaptive`` is one interval, [a, b] with b possibly inf:
    integrable endpoint singularities are handled by a power substitution
    chosen from a caller-supplied exponent hint, and ``b = inf`` is folded
    onto a finite range by inverting the variable beyond a cut.

``integrate_oscillatory_cos_batch``
    Integrals of ``(1 - cos(lam*x)) g(lam)`` and ``cos(lam*x) g(lam)`` over
    ``lam in (0, inf)`` for slowly varying nonnegative ``g``, at many x.
    The range is split where the cosine starts oscillating; the head and
    tail integrals run on the adaptive engine, whose integrand can read
    per-row parameters (x, a substitution's end and span) and whose budget
    is per row.  The remainder is summed over half-periods between
    consecutive zeros, the chunks of all rows still summing going to the
    integrand in one call a block, and the alternating series is
    accelerated by repeated averaging of partial sums.  An x = 0 row is 0
    with no evaluation (1 - cos); in cos mode it takes the route of every
    x < 1/32, which at x = 0 is int_0^inf g as ``integrate_adaptive`` runs
    it.  ``integrate_oscillatory_cos`` is one x, as one row.

All loops evaluate their panels through one GK15 routine,
``_gk15_panels``, which sends a stack of panels to the integrand as one
(panels, 15) array and rates them all by one error model, QUADPACK's
(Piessens et al. 1983); the oscillatory tail stacks the half-period chunks
between two of its convergence tests.  So integrands, oscillatory ones
included, must be elementwise over numpy arrays.  A panel in a stack gets
the bits it would get alone, and all decisions are pure functions of
integrand values, so repeated runs are bit-identical.  Non-finite integrand
values raise QuadratureError immediately rather than poisoning the sum.
``converged_value`` is the one rule for callers that need a converged
result: the value, or QuadratureError.

The accuracy contract is fixed: absolute tolerance ABS_TOL = 1e-10,
relative tolerance REL_TOL = 1e-9, and at most MAX_EVALS = 200,000
integrand evaluations per integral.  No caller passes its own.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, QuadratureError

__all__ = [
    "QuadResult",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "integrate_oscillatory_cos",
    "integrate_oscillatory_cos_batch",
]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  Positive half of
# the node set; even-indexed entries are Kronrod-only, odd-indexed are the
# embedded Gauss-7 nodes.
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# Full sorted arrays; Gauss nodes sit at odd positions 1, 3, ..., 13.
_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_EPS = np.finfo(float).eps

# relative error floor of a panel: roundoff of the 15-term sum
_ERR_FLOOR = float(50.0 * _EPS)

# panels an adaptive run starts from
_N_INIT = 4

# rows integrate_adaptive_batch runs at once: its per-round arrays grow with
# the rows in flight, so a block bounds them (the 6144 tail starts of the
# largest caller, a 2048-cell kind-Z generator, peak at 5.4 MB traced, 15.5
# MB in one block); blocks of 1024 to 4096 rows ran alike
_ROW_BLOCK = 2048

# The accuracy contract of every integral: a run stops once its error
# estimate drops below max(ABS_TOL, REL_TOL * |I|), or gives up
# (converged=False) once MAX_EVALS integrand evaluations are spent.
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_EVALS = 200_000


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    evals: int
    converged: bool


def _check_finite(fx, x):
    """Raise QuadratureError naming the first abscissa x where the integrand
    values fx are not finite."""
    if not np.all(np.isfinite(fx)):
        fx, x = np.broadcast_arrays(fx, x)
        bad = x[~np.isfinite(fx)][0]
        raise QuadratureError(
            f"integrand returned a non-finite value near x = {float(bad)!r}"
        )


def _gk15_values(f, x, args=()):
    """Integrand values at the nodes x, checked for shape and finiteness."""
    fx = np.asarray(f(x, *args), dtype=float)
    if fx.shape != x.shape:
        raise QuadratureError("integrand must be vectorized (ndarray in, ndarray out)")
    _check_finite(fx, x)
    return fx


def _gk15_sums(fx, h):
    """Kronrod-15 value, Gauss-7 value and the |f - f(centre)| sum of panels
    with half width h and node values fx (last axis): one panel or a stack.

    np.vecdot reduces each row with the same BLAS dot as ``fx @ _WK`` on one
    panel, so a stacked panel gets the bits it would get alone.
    """
    vk = h * np.vecdot(fx, _WK)
    vg = h * np.vecdot(fx[..., 1::2], _WG)
    resasc = h * np.vecdot(np.abs(fx - fx[..., 7:8]), _WK)
    return vk, vg, resasc


def _gk15_err(vk, vg, resasc):
    """Error estimate of every panel of a stack from its _gk15_sums, as an
    array: QUADPACK's scaled difference, |K15 - G7| sharpened by the
    panel's total variation proxy, so smooth panels are not over-refined
    while rough panels keep the conservative raw difference.

    The power is Python's float ``**``, not numpy's, whose SIMD power
    differs from the C library's in the last bit.
    """
    raw = np.abs(vk - vg)
    sharp = ((resasc > 0.0) & (raw > 0.0)).nonzero()[0]
    q = 200.0 * raw[sharp] / resasc[sharp]
    err = raw
    err[sharp] = resasc[sharp] * np.minimum(1.0, [t**1.5 for t in q.tolist()])
    return np.maximum(err, _ERR_FLOOR * np.abs(vk))


def _gk15_panels(f, a, b, args=()):
    """Kronrod-15 / Gauss-7 passes over the panels [a[k], b[k]] in one
    integrand call ``f(nodes, *args)``: (values, err_ests) as arrays.
    ``args`` holds per-panel parameter columns of shape (panels, 1)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _XK
    vk, vg, resasc = _gk15_sums(_gk15_values(f, x, args), h)
    return vk, _gk15_err(vk, vg, resasc)


def converged_value(r, what):
    """``r.value``, or QuadratureError "<what> did not converge" with the
    error estimate when ``r`` missed its tolerance.  For a batched ``r``,
    ``what(i)`` names row i and the first unconverged row is reported.
    """
    ok = np.asarray(r.converged)
    if ok.all():
        return r.value
    err = r.err_est
    if ok.ndim:
        i = int(np.argmin(ok))
        what, err = what(i), float(err[i])
    raise QuadratureError(f"{what} did not converge", err_est=err)


def integrate_adaptive_batch(f, a, b, *, args=(), budget=None):
    """Adaptive quadrature of ``f`` over every finite interval [a[i], b[i]],
    in lockstep.

    ``a`` and ``b`` are 1-d arrays of finite endpoints with a < b.  Each row
    starts from _N_INIT equal panels.  Each round, every row still above its
    tolerance max(ABS_TOL, REL_TOL |value|) with 30 evaluations left in its
    budget takes one step on its worst panel: it splits it in two, or, when
    the panel is at the width floor (a few ulps), freezes it with error key
    0 instead, so an unhinted endpoint singularity ends in an honest
    converged=False rather than an endless loop.  Ties go to the panel made
    first, and a row whose panels are all frozen stops.  The rows run in
    consecutive blocks of _ROW_BLOCK, one block after another, and each
    round the child panels of a block's rows are evaluated in one call of
    ``f`` on a (panels, 15) array, so ``f`` must be elementwise.  A row's
    running sums add its panels in that order and its result is the
    ``math.fsum`` of its panels, so a row gets the same bits alone as in
    any batch and in any block.  A non-finite integrand value is refused
    in the block that meets it; the blocks before it have run.

    ``args`` lets the rows' integrands differ: a tuple of 1-d arrays, one
    entry per row, that ``f`` receives after the nodes as ``f(nodes,
    *cols)``, each column (panels, 1) holding the entries of the panels'
    rows.  ``budget`` caps each row's evaluations (a scalar or one entry
    per row); by default MAX_EVALS.  A budget or an ``args`` column of any
    other length is refused before ``f`` is called.  A row whose budget
    cannot hold the 60 evaluations of its starting panels is not run: value
    0, err_est inf, evals 0, unconverged.

    Returns a QuadResult of arrays: value, err_est, evals, converged.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ConfigError("a and b must be 1-d arrays of the same length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("batched endpoints must be finite")
    bad = np.flatnonzero(~(b > a))
    if bad.size:
        raise DomainError(f"need a < b, got [{a[bad[0]]}, {b[bad[0]]}]")
    m = a.size
    budget = MAX_EVALS if budget is None else budget
    if np.ndim(budget) != 0 and np.shape(budget) != (m,):
        raise ConfigError(
            f"budget must be a scalar or one entry per row ({m} rows), got shape {np.shape(budget)}"
        )
    for i, c in enumerate(args):
        if np.shape(c) != (m,):
            raise ConfigError(
                f"args[{i}] must hold one entry per row ({m} rows), got shape {np.shape(c)}"
            )
    budget = np.broadcast_to(budget, (m,))
    blocks = [
        _lockstep(f, a[k:k + _ROW_BLOCK], b[k:k + _ROW_BLOCK],
                  tuple(c[k:k + _ROW_BLOCK] for c in args), budget[k:k + _ROW_BLOCK])
        for k in range(0, max(m, 1), _ROW_BLOCK)  # no rows: one empty block
    ]
    return QuadResult(*(np.concatenate(col) for col in zip(*blocks)))


def _lockstep(f, a, b, args, budget):
    """The lockstep rounds of ``integrate_adaptive_batch`` over one block of
    its rows, on checked endpoints and a budget entry per row: the arrays
    (value, err_est, evals, converged)."""
    m = a.size
    run = budget >= 15 * _N_INIT  # a row that cannot pay for its starting panels is not run
    value = np.zeros(m)
    err_est = np.where(run, 0.0, np.inf)
    evals = np.where(run, 15 * _N_INIT, 0)
    rows = np.flatnonzero(run)  # the block's index of each working row
    n = rows.size
    if n == 0:
        return value, err_est, evals, np.zeros(m, dtype=bool)

    def cols(idx):
        # the per-row parameters of panels from rows idx, as columns
        return tuple(c[idx, None] for c in args)

    # panel slots per row in the order made; key = err (0 once frozen), and
    # -inf marks a split or unused slot, so argmax takes the worst, oldest
    cap = _N_INIT + 16
    edges = np.linspace(a[rows], b[rows], _N_INIT + 1, axis=1)
    LO = np.zeros((n, cap))
    HI = np.zeros((n, cap))
    LO[:, :_N_INIT] = edges[:, :-1]
    HI[:, :_N_INIT] = edges[:, 1:]
    v0, e0 = _gk15_panels(
        f, LO[:, :_N_INIT].ravel(), HI[:, :_N_INIT].ravel(),
        cols(np.repeat(rows, _N_INIT)),
    )
    V = np.zeros((n, cap))
    E = np.zeros((n, cap))
    V[:, :_N_INIT] = v0.reshape(n, _N_INIT)
    E[:, :_N_INIT] = e0.reshape(n, _N_INIT)
    KEY = np.full((n, cap), -np.inf)
    KEY[:, :_N_INIT] = E[:, :_N_INIT]
    total = np.zeros(n)
    total_err = np.zeros(n)
    for k in range(_N_INIT):  # panel by panel, in slot order
        total += V[:, k]
        total_err += E[:, k]
    nslot = np.full(n, _N_INIT)
    halted = np.zeros(n, dtype=bool)

    while rows.size:
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(total))
        go = (total_err > tol) & (evals[rows] + 30 <= budget[rows]) & ~halted
        if not go.all():
            # drift-free recomputation of the running sums of rows that stop
            live = KEY[~go] > -np.inf
            done = rows[~go]
            value[done] = [math.fsum(r) for r in np.where(live, V[~go], 0.0).tolist()]
            err_est[done] = [math.fsum(r) for r in np.where(live, E[~go], 0.0).tolist()]
            rows = rows[go]
            LO, HI, V, E, KEY = LO[go], HI[go], V[go], E[go], KEY[go]
            total, total_err, nslot, halted = total[go], total_err[go], nslot[go], halted[go]
            if not rows.size:
                break
        if nslot.max() + 2 > cap:
            grow = ((0, 0), (0, cap))
            LO, HI, V, E = (np.pad(X, grow) for X in (LO, HI, V, E))
            KEY = np.pad(KEY, grow, constant_values=-np.inf)
            cap *= 2
        r = np.arange(rows.size)
        s = KEY.argmax(axis=1)
        lo, hi, v, e = LO[r, s], HI[r, s], V[r, s], E[r, s]
        KEY[r, s] = -np.inf
        mid = 0.5 * (lo + hi)
        width_floor = 4.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        frozen = (hi - lo <= width_floor) | (mid <= lo) | (mid >= hi)

        # cannot subdivide further in float; keep the panel as-is
        fr, j = r[frozen], nslot[frozen]
        LO[fr, j], HI[fr, j] = lo[frozen], hi[frozen]
        V[fr, j], E[fr, j], KEY[fr, j] = v[frozen], e[frozen], 0.0
        nslot[fr] += 1
        halted[fr] = KEY[fr].max(axis=1) == 0.0

        split = ~frozen
        if not split.any():
            continue
        sp, j = r[split], nslot[split]
        lo, mid, hi = lo[split], mid[split], hi[split]
        cv, ce = _gk15_panels(
            f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
            cols(np.concatenate([rows[sp], rows[sp]])),
        )
        v1, v2 = cv[: sp.size], cv[sp.size:]
        e1, e2 = ce[: sp.size], ce[sp.size:]
        total[sp] += (v1 + v2) - v[split]
        total_err[sp] += (e1 + e2) - e[split]
        LO[sp, j], HI[sp, j], V[sp, j], E[sp, j], KEY[sp, j] = lo, mid, v1, e1, e1
        LO[sp, j + 1], HI[sp, j + 1] = mid, hi
        V[sp, j + 1], E[sp, j + 1], KEY[sp, j + 1] = v2, e2, e2
        nslot[sp] += 2
        evals[rows[sp]] += 30

    converged = err_est <= np.maximum(ABS_TOL, REL_TOL * np.abs(value))
    return value, err_est, evals, converged


def _run_pieces(pieces, budget=None):
    """Integrals split into pieces, per row: each piece is (integrand, lo,
    hi, args) with one entry per row in lo, hi and every array of args, run
    by ``integrate_adaptive_batch`` on the row's equal share of what the
    pieces before it left of its budget (a scalar or one entry per row; by
    default MAX_EVALS).  Convergence is judged on the combined value, not
    piece by piece."""
    m = pieces[0][1].size
    value = np.zeros(m)
    err = np.zeros(m)
    evals = np.zeros(m, dtype=int)
    ok = np.ones(m, dtype=bool)
    for k, (g, lo, hi, args) in enumerate(pieces):
        share = ((MAX_EVALS if budget is None else budget) - evals) // (len(pieces) - k)
        r = integrate_adaptive_batch(g, lo, hi, args=args, budget=share)
        value += r.value
        err += r.err_est
        evals += r.evals
        ok &= r.converged
    ok |= err <= np.maximum(ABS_TOL, REL_TOL * np.abs(value))
    return QuadResult(value, err, evals, ok)


def _first_row(r):
    """Row 0 of a batched QuadResult, as Python scalars."""
    return QuadResult(
        float(r.value[0]), float(r.err_est[0]), int(r.evals[0]), bool(r.converged[0])
    )


def _power_sub_rows(f, end, other, m, args=()):
    """Map [end, other] of an integrand ~ (x - end)^p onto t in [0, 1], per
    row: the piece (integrand, 0, 1, args) of ``_run_pieces``.

    x = end + (other-end) t^m with m = _sub_power(p) turns the integrand
    into O(t^{m(1+p)-1}) = O(t) or better, which the Kronrod rule digests.
    The integrand takes (t, end, span, *args) and passes ``args`` on to
    ``f``.  A non-finite value of ``f`` is refused naming its own abscissa
    end + span t^m, not t.
    """

    def g(t, e, s, *rest):
        tm = np.power(t, m)
        x = e + s * tm
        fx = f(x, *rest)
        _check_finite(fx, x)
        return fx * (s * m) * np.power(t, m - 1)

    n = end.size
    return g, np.zeros(n), np.ones(n), (end, other - end, *args)


def _sub_power(p):
    """The power m of the substitution t -> t^m for an integrand ~ x^p at
    its left end, or 1 (no substitution) where p is 0 or at least 1."""
    if p <= -1.0:
        raise DomainError(f"endpoint exponent {p} is not integrable")
    return math.ceil(2.0 / (1.0 + p)) if p < 1.0 and p != 0.0 else 1


def _piece(f, lo, hi, p, args=()):
    """The piece [lo, hi] of ``_run_pieces`` for an integrand ~ (x - lo)^p,
    through the power substitution where p asks for one (None: never)."""
    m = 1 if p is None else _sub_power(p)
    return (f, lo, hi, args) if m == 1 else _power_sub_rows(f, lo, hi, m, args)


def _inverted(f):
    """The tail inverted: int_cut^inf f = int_0^{1/cut} f(1/u)/u^2 du."""

    def g(u, *args):
        x = 1.0 / u
        return f(x, *args) * x * x

    return g


def _tail_power(q):
    """The power u^(q-2) at u = 0 that f(x) ~ x^-q becomes under u = 1/x
    (None for no hint); a q <= 1 raises DomainError."""
    if q is not None and q <= 1.0:
        raise DomainError(f"tail exponent {q} is not integrable at infinity")
    return None if q is None else float(q) - 2.0


def _to_inf_pieces(f, a, left_exponent, tail_exponent):
    """The pieces of int_a^inf f per row: [a, cut] and, mapped by u = 1/x,
    the rest beyond cut = a + max(1, |a|) (or 1 where that is not
    positive).  ``tail_exponent`` hints f(x) ~ x^-p, which the map turns
    into u^(p-2) at u = 0."""
    tail_p = _tail_power(tail_exponent)
    cut = a + np.maximum(1.0, np.abs(a))
    cut = np.where(cut > 0.0, cut, 1.0)
    return [
        _piece(f, a, cut, left_exponent),
        _piece(_inverted(f), np.zeros(a.size), 1.0 / cut, tail_p),
    ]


def integrate_adaptive(f, a, b, *, left_exponent=0.0, tail_exponent=None):
    """Integrate ``f`` over [a, b], b possibly ``inf``: one row of
    ``integrate_adaptive_batch``.

    ``left_exponent`` hints the power behavior f(x) ~ (x-a)^p at the left
    endpoint; a hint in (-1, 1) routes it through a smoothing substitution.
    For ``b = inf``, the range beyond a cut is mapped by u = 1/x, and
    ``tail_exponent`` (optional) hints f(x) ~ x^{-p}, which sharpens that
    mapping.  Exponents at or below the integrability boundary raise
    DomainError.

    Returns QuadResult of Python scalars.  converged=False means the
    evaluation budget ran out first; the value and error estimate are still
    the best available.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("lower endpoint must be finite")
    if math.isinf(b):
        if b < 0:
            raise DomainError("only b = +inf is supported")
        return _first_row(_run_pieces(
            _to_inf_pieces(f, np.array([a]), left_exponent, tail_exponent)
        ))
    b = float(b)
    if not (b > a):
        raise DomainError(f"need a < b, got [{a}, {b}]")
    return _first_row(_run_pieces([_piece(f, np.array([a]), np.array([b]), left_exponent)]))


def _sin2_head(lam, x, g):
    """(1 - cos(lam x)) g(lam) as 2 sin^2(lam x / 2) g(lam), exact near 0."""
    s = np.sin(0.5 * x * lam)
    return 2.0 * s * s * g(lam)


def _cos_times(lam, x, g):
    return np.cos(lam * x) * g(lam)


def integrate_oscillatory_cos_batch(g, x, *, mode, left_exponent=0.0, tail_exponent=None):
    """Oscillatory cosine integrals against a slowly varying envelope, at
    every x[i] of a 1-d array of finite x >= 0, in lockstep.

    mode="one_minus_cos": int_0^inf (1 - cos(lam x)) g(lam) dlam
    mode="cos":           int_0^inf cos(lam x) g(lam) dlam

    ``left_exponent`` describes g(lam) ~ lam^p as lam -> 0 (the engine adds
    the +2 from 1-cos itself); ``tail_exponent`` describes g(lam) ~ lam^{-q}
    as lam -> inf and is required in "one_minus_cos" mode, where int g over
    the tail must exist on its own.

    An x = 0 row is 0 with no evaluation (one_minus_cos), or in cos mode
    int_0^inf g by the cut route below, as ``integrate_adaptive`` gives it.
    The tail exponent is checked only where a row integrates g to infinity:
    the int g tail of one_minus_cos, and an x = 0 row in cos mode.

    At x > 0 both modes integrate a head up to lam = 2/x and add the cosine
    tail beyond it (``_cos_tail_chunked_batch``) with sign -1 (one_minus_cos)
    or +1 (cos).  The cosine factor is never evaluated as 1 - cos directly:
    the head uses 2 sin^2(lam x / 2), which is exact near zero, and int g
    over [2/x, inf) comes separately.  In cos mode a head that reaches past
    lam = 64 (x < 1/32, x = 0 included) is cut at lam = 1, and its part
    beyond runs mapped by u = 1/lam with the tail exponent's substitution,
    as for b = inf in ``integrate_adaptive``: its first panels would
    otherwise step over the bulk of g, and at a tiny x read the integral as
    below ABS_TOL.  Head and tail integrals run as the pieces of
    ``integrate_adaptive_batch``, each row's x, substitution end and span
    reaching the integrand as per-row parameters.  A row's stages run in
    turn on what the stages before it left of MAX_EVALS: head, int g tail,
    then the cosine tail.

    Returns a QuadResult of arrays; an unconverged row is flagged, not
    raised.
    """
    if mode not in ("one_minus_cos", "cos"):
        raise ConfigError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigError("x must be a 1-d array")
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise DomainError("batched x must be finite and nonnegative")
    if mode == "one_minus_cos" and tail_exponent is None:
        raise ConfigError("one_minus_cos mode needs tail_exponent for the int g tail")
    value, err = np.zeros(x.size), np.zeros(x.size)
    evals, ok = np.zeros(x.size, dtype=int), np.ones(x.size, dtype=bool)

    def add(rows, r):
        # a stage's results onto rows (a mask of x), added in stage order
        value[rows] += r.value
        err[rows] += r.err_est
        evals[rows] += r.evals
        ok[rows] &= r.converged

    pos = x > 0.0
    xp = x[pos]
    if mode == "one_minus_cos" and xp.size:
        lam_split, zeros = 2.0 / xp, np.zeros(xp.size)
        # built first, so a tail exponent that fails raises before any work
        beyond = _to_inf_pieces(g, lam_split, 0.0, tail_exponent)
        head_f = functools.partial(_sin2_head, g=g)
        add(pos, _run_pieces([_piece(head_f, zeros, lam_split, left_exponent + 2.0, (xp,))]))
        add(pos, _run_pieces(beyond, MAX_EVALS - evals[pos]))
    elif mode == "cos":
        # a q <= 1 is refused only where an x = 0 row integrates g to infinity
        q = tail_exponent
        tail_p = None if q is not None and q <= 1.0 and pos.all() else _tail_power(q)
        f = functools.partial(_cos_times, g=g)
        cut = x < 0.03125  # the head 2/x reaches past lam = 64, x = 0 included
        xn, xc = x[~cut], x[cut]
        ones = np.ones(xc.size)
        add(~cut, _run_pieces([_piece(f, np.zeros(xn.size), 2.0 / xn, left_exponent, (xn,))]))
        add(cut, _run_pieces([
            _piece(f, np.zeros(xc.size), ones, left_exponent, (xc,)),
            _piece(_inverted(f), 0.5 * xc, ones, tail_p, (xc,)),
        ]))

    if xp.size:
        osc_v, osc_e, osc_n, osc_ok = _cos_tail_chunked_batch(g, xp, MAX_EVALS - evals[pos])
        sign = 1.0 if mode == "cos" else -1.0
        add(pos, QuadResult(sign * osc_v, osc_e, osc_n, osc_ok))
    return QuadResult(value, err, evals, ok)


def integrate_oscillatory_cos(g, x, *, mode="one_minus_cos", left_exponent=0.0, tail_exponent=None):
    """``integrate_oscillatory_cos_batch`` at one x >= 0, as its one row.

    Returns QuadResult of Python scalars.
    """
    x = float(x)
    if x < 0.0:
        raise DomainError("x must be nonnegative (kernels are even; pass |x|)")
    return _first_row(integrate_oscillatory_cos_batch(
        g, np.array([x]), mode=mode,
        left_exponent=left_exponent, tail_exponent=tail_exponent,
    ))


# chunks the cosine tail sums at most
_N_CHUNKS_MAX = 600


def _block_size(k):
    """Chunks from chunk k up to the next convergence test (every 4 chunks
    from chunk 8 on), within the chunk cap."""
    return min(max(8, k + 4 - k % 4) - k, _N_CHUNKS_MAX - k)


def _averaged_limit(partials):
    """Limit of an alternating-tail sequence by repeated adjacent averaging.

    Standard Euler-style acceleration: each sweep replaces the sequence by
    midpoints of neighbors; the last entry converges fast for alternating
    remainders with slowly varying amplitude.  Takes a (rows, k) array of
    sequences and returns arrays (limit, err_est), each row reduced as it
    would be alone.
    """
    row = partials[:, -40:]
    if row.shape[1] == 1:
        est, err = row[:, 0], np.abs(row[:, 0])
    else:
        est = row[:, -1]
        prev = est
        while row.shape[1] > 1:
            row = 0.5 * (row[:, :-1] + row[:, 1:])
            prev = est
            est = row[:, -1]
        err = np.abs(est - prev) + 4.0 * _EPS * np.abs(est)
    return est, err


_NOT_DECAYING = (
    "oscillatory tail: chunk magnitudes are not decaying; "
    "g may not be eventually monotone, falling back to the raw partial sum"
)


def _cos_tail_chunked_batch(g, x, budget):
    """int cos(lam x) g(lam) over [2/x, inf) by half-period chunks, for
    every x[i] on budget[i] evaluations, in lockstep.

    A bridge integral, on half of a row's budget, reaches from 2/x to the
    first zero of cos(lam x) beyond it, 1.5 pi / x; the chunks get what it
    leaves.  From there chunk k spans consecutive zeros; the
    alternating series of chunks is fed to _averaged_limit, tested every 4
    chunks from chunk 8 on, and a row stops once two tests in a row move
    its limit by less than a quarter of its tolerance.  The rows share the
    chunk count k until they stop, so each round sends the chunks up to the
    next test, for every row still summing, to the integrand in one call,
    and the partial sums are a (rows, k) array that ``_averaged_limit``
    reduces row by row.  A row whose budget cuts its block takes the chunks
    that fit and stops unconverged, as does a row at the 600-chunk cap.  If
    a row's chunk magnitudes fail to decay (g not eventually monotone), it
    emits a RuntimeWarning, falls back to the raw partial sum and reports
    converged=False.  Returns arrays (value, err, evals, converged).
    """
    z0 = 1.5 * math.pi / x
    f = functools.partial(_cos_times, g=g)
    bridge = _run_pieces([(f, 2.0 / x, z0, (x,))], budget // 2)
    value, err = bridge.value, bridge.err_est
    evals, ok = bridge.evals, bridge.converged
    tol = np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(value), 1.0))

    live = np.arange(x.size)  # the rows still summing
    room = 16  # columns held per row, doubled as k grows
    vals = np.zeros((live.size, room))  # chunk values, errors and partial sums
    errs = np.zeros((live.size, room))
    partials = np.zeros((live.size, room))
    run = np.zeros(live.size)
    increase_count = np.zeros(live.size, dtype=int)
    stable_hits = np.zeros(live.size, dtype=int)
    est_prev = limit = lim_err = None

    def finish(sel, n, stable):
        # rows sel (of live) stop with n chunks each, after a stable test or not
        for i, r, k in zip(sel.tolist(), live[sel].tolist(), n.tolist()):
            if increase_count[i] >= 3:
                warnings.warn(_NOT_DECAYING, RuntimeWarning)
                lim = (partials[i, k - 1], abs(vals[i, k - 1])) if k else (0.0, 0.0)
                ok[r] = False
            elif stable:
                lim = (limit[i], lim_err[i])
            elif k:
                lim = [a[0] for a in _averaged_limit(partials[i:i + 1, :k])]
            else:
                lim = (0.0, 0.0)
            value[r] += lim[0]
            err[r] += lim[1] + math.fsum(errs[i, :k].tolist())

    k = 0
    while live.size:
        nominal = _block_size(k)
        size = np.minimum(nominal, (budget[live] - evals[live]) // 15)
        if k + nominal > room:
            room *= 2
            vals, errs, partials = (
                np.pad(X, ((0, 0), (0, room - X.shape[1]))) for X in (vals, errs, partials)
            )
        # the chunks up to the next convergence test, as far as the chunk cap
        # and each row's budget allow
        block = np.arange(nominal) < size[:, None]
        j = k + np.arange(nominal)
        lo = (z0[live, None] + j * math.pi / x[live, None])[block]
        step = np.broadcast_to(math.pi / x[live, None], block.shape)[block]
        xcol = np.broadcast_to(x[live, None], block.shape)[block]
        vs, es = _gk15_panels(f, lo, lo + step, (xcol[:, None],))
        evals[live] += 15 * np.maximum(size, 0)
        vals[:, k:k + nominal][block] = vs
        errs[:, k:k + nominal][block] = es
        for c in range(k, k + nominal):
            run = run + vals[:, c]
            partials[:, c] = run
            if c >= 2:
                up = np.abs(vals[:, c]) > np.abs(vals[:, c - 1]) * (1.0 + 1e-12)
                increase_count += up & (c < k + size)
        k += nominal

        # a block cut short, or none at all past the chunk cap, ends the row
        # unconverged
        cut = (size < nominal) | (nominal == 0)
        ok[live[cut]] = False
        finish(cut.nonzero()[0], k - nominal + np.maximum(size[cut], 0), False)
        stop = cut
        if nominal and k >= 8 and k % 4 == 0:
            limit, lim_err = _averaged_limit(partials[:, :k])
            if est_prev is not None:
                near = np.abs(limit - est_prev) < 0.25 * tol[live]
                stable_hits = np.where(near, stable_hits + 1, 0)
            stable = (stable_hits >= 2) & ~cut
            finish(stable.nonzero()[0], np.full(stable.sum(), k), True)
            stop = stop | stable
            est_prev = limit
        if stop.any():
            keep = ~stop
            live, run, increase_count, stable_hits = (
                live[keep], run[keep], increase_count[keep], stable_hits[keep]
            )
            vals, errs, partials = vals[keep], errs[keep], partials[keep]
            if est_prev is not None:
                est_prev = est_prev[keep]
    return value, err, evals, ok


# the smallest node of the first of the _N_INIT starting panels on [0, 1]
_T0 = 0.5 * (1.0 - _XK_HALF[0]) / _N_INIT


def oscillatory_head_reach(p):
    """lam * x at the smallest lam where ``integrate_oscillatory_cos``, for
    x >= 2, evaluates g before any refinement, given a head integrand
    ~ lam^p at 0 (``left_exponent``, plus 2 in "one_minus_cos" mode).

    That lam is the smallest node of the first panel of the head
    int_0^{2/x}, after the power substitution for p.  Refinement can only
    add nodes nearer 0.
    """
    return float(2.0 * _T0 ** _sub_power(p))


def oscillatory_reach(tail_exponent):
    """lam * x at the largest lam where ``integrate_oscillatory_cos`` in
    "one_minus_cos" mode, for x <= 2, evaluates g before any refinement.

    That lam is the smallest node u of the first panel of the inverted
    tail int_{4/x}^inf g = int_0^{x/4} g(1/u) u^-2 du, after the power
    substitution for ``tail_exponent``.  Refinement can only add nodes
    nearer u = 0.  Returns inf when the node underflows.
    """
    with np.errstate(over="ignore"):
        return float(4.0 * _T0 ** -_sub_power(float(tail_exponent) - 2.0))
