"""Kernel catalog bound to one Bernstein function.

A KernelSet owns a PhiSpec and exposes the kernels the interval solvers
and verification checks consume:

* ``psi``            characteristic exponent psi(xi) = phi(xi^2)
* ``levy_j``         jump density of the subordinate process
* ``uq``             q-resolvent kernel on the line
* ``h_comp``         compensated potential kernel (renewal-type, increasing)
* ``green_free_x0``  Green function of the process absorbed at the origin
* ``green_free_z``   Green function of the origin-absorbed process folded
                     onto the half line (symmetrized jumps)
* ``jump_i``         folded jump kernel i(x, y) = j(|x-y|) + j(x+y)
* ``phi_cap``        scale function Phi(x) = 1/phi(x^{-2}) and its inverse
* ``gx_estimate``    two-sided Green comparator built from Phi
* ``band_coefficient``, ``wall_correction``
                     the generator's near-diagonal band and wall-cell terms
* ``mean_abs_step``  mean absolute step E|X_dt| of the Monte Carlo walk

The jump density reduces exactly to a finite power sum: substituting
u = x^2/(4s) in the subordination integral gives

    j(x) = sum_i w_i (d_i/Gamma(1-d_i)) 4^{d_i} I(d_i) / sqrt(pi)
           * |x|^{-1-2 d_i},
    I(d) = int_0^inf u^{d-1/2} e^{-u} du,

because the Levy density of each mixture term is itself a pure power.  The
I(d) factors are computed once per instance by the adaptive engine; after
that ``levy_j`` is a vectorized power sum, cheap enough to fill dense
generator matrices.  Nothing else is cached: ``uq`` and ``h_comp`` send
the distinct points of one call to the oscillatory engine together, through
one table route, and ``jump_tail`` does the same with its tail starts and
the adaptive engine.  Each point, x = 0 included, is one row of the
engine's lockstep pass and gets the same bits alone as in any batch, so
every value depends only on its own argument; callers gather the points
of one solve into one call.

This class is the one owner of kernel integrals: the interval solvers and
the certification checks read kernel values from it and never call the
quadrature engine themselves.  Whether an integral is a quadrature or a
closed power sum is decided here.  Every quadrature runs under the engine's
fixed contract (abs 1e-10, rel 1e-9, 200,000 evaluations), and a result
that misses it raises QuadratureError naming the integral.
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import PhiSpec, _as_positive_array, _float_if_0d, phi_eval
from .errors import ConfigError, DomainError
from .quadrature import (
    QuadResult,
    converged_value,
    integrate_adaptive,
    integrate_adaptive_batch,
    integrate_oscillatory_cos_batch,
    oscillatory_head_reach,
    oscillatory_reach,
)

__all__ = ["KernelSet"]

_SQRT_PI = math.sqrt(math.pi)

# e^{-u} below ~1e-52 contributes nothing at double precision
_GAMMA_CUT = 120.0

# lam * lam stays a factor 4 below overflow up to this lam, and a factor 4
# above the normal doubles down to _LAM_MIN, which leaves room for the
# rounding of the quadrature nodes
_LAM_MAX = 2.0**511
_LAM_MIN = 2.0**-510

# the normal doubles: phi_cap and phi_cap_inv serve x only where x^-2 is one
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _check_normal(t, what):
    """Raise DomainError unless every t = x^-2 is a finite normal double:
    beyond them phi is evaluated at inf, 0 or a subnormal, and the result is
    0 or loses digits without an error."""
    if not np.all((t >= _TINY) & (t <= _HUGE)):
        raise DomainError(
            f"{what}: x^-2 leaves the normal doubles (x must lie in "
            f"[{_HUGE**-0.5:.4g}, {_TINY**-0.5:.4g}])"
        )


class KernelSet:
    """All kernels derived from one Bernstein function.

    ``h_floor`` and ``h_ceiling`` are the smallest and the largest nonzero
    |x| that ``h_comp`` accepts.
    """

    def __init__(self, phi: PhiSpec):
        if not isinstance(phi, PhiSpec):
            raise ConfigError("phi must be a PhiSpec")
        self.phi = phi
        self.delta_min = phi.delta_min
        self.delta_max = phi.delta_max
        # h's integrand 1/phi(lam^2) decays like lam^(-2 delta_max); with
        # delta_max <= 1/2 h diverges and the engine rejects the tail itself
        self.h_floor = (
            oscillatory_reach(2.0 * self.delta_max) / _LAM_MAX
            if self.delta_max > 0.5
            else 0.0
        )
        # the head's first pass keeps lam >= _LAM_MIN up to it
        self.h_ceiling = oscillatory_head_reach(2.0 - 2.0 * self.delta_min) / _LAM_MIN
        self._jump_coefs = None  # [(coef, 2*d)] per mixture term

    # -- characteristic exponent -------------------------------------------

    def psi(self, xi):
        """psi(xi) = phi(xi^2), even, psi(0) = 0."""
        arr = np.asarray(xi, dtype=float)
        out = np.zeros_like(arr)
        nz = arr != 0.0
        if np.any(nz):
            out[nz] = phi_eval(self.phi, arr[nz] * arr[nz])
        return _float_if_0d(out)

    # -- jump density and its tails ----------------------------------------

    def _coefs(self):
        if self._jump_coefs is None:
            coefs = []
            for w, d in zip(self.phi.weights(), self.phi.exponents()):
                le = d - 0.5
                r = integrate_adaptive(
                    lambda u, _d=d: np.power(u, _d - 0.5) * np.exp(-u),
                    0.0,
                    _GAMMA_CUT,
                    left_exponent=le,
                )
                gamma = converged_value(r, f"gamma-type factor for exponent {d}")
                c = w * (d / math.gamma(1.0 - d)) * (4.0**d) * gamma / _SQRT_PI
                coefs.append((c, 2.0 * d))
            self._jump_coefs = tuple(coefs)
        return self._jump_coefs

    def levy_j(self, x):
        """Jump density j(|x|); strictly decreasing in |x|, blows up at 0."""
        arr = _as_positive_array(np.abs(x), "|x| (levy_j is singular at 0)")
        out = np.zeros_like(arr)
        for c, a in self._coefs():
            out += c * np.power(arr, -1.0 - a)
        return _float_if_0d(out)

    def jump_tail_closed(self, t, weight_exponent=0.0):
        """int_t^inf j(z) z^{-p} dz in closed form (power sum), t > 0.

        Each term c z^{-1-a} integrates to c t^{-(a+p)} / (a+p), which is
        finite only for a + p > 0, so p must be finite and above
        -2 delta_min; any other p is refused by name.
        """
        arr = _as_positive_array(t, "tail start")
        p = float(weight_exponent)
        if not (math.isfinite(p) and p > -2.0 * self.delta_min):
            raise DomainError(
                f"the weighted jump tail needs a finite p > -2 delta_min = "
                f"{-2.0 * self.delta_min}, got p = {p}"
            )
        out = np.zeros_like(arr)
        for c, a in self._coefs():
            out += c * np.power(arr, -(a + p)) / (a + p)
        return _float_if_0d(out)

    def jump_tail(self, t, cutoff):
        """int_t^inf j(z) dz: adaptive quadrature on [t, t+cutoff], closed
        power tail beyond.  ``t`` may be array-like (the result has its
        shape) or a scalar (the result is a float).

        Not memoized: each distinct t of one call is integrated once, all of
        them in one pass of the adaptive engine, and each value equals a
        call at its own t alone bit for bit.  A t that does not converge
        raises QuadratureError naming it; a cutoff that is not finite and
        positive raises ConfigError naming it.
        """
        arr = _as_positive_array(t, "tail start")
        cutoff = float(cutoff)
        if not (math.isfinite(cutoff) and cutoff > 0.0):
            raise ConfigError(
                f"the jump tail's cutoff must be finite and positive, got cutoff = {cutoff}"
            )
        ts, inv = np.unique(arr.ravel(), return_inverse=True)
        r = integrate_adaptive_batch(self.levy_j, ts, ts + cutoff)
        head = converged_value(r, lambda i: f"jump tail integral at t={ts[i]}")
        vals = head + self.jump_tail_closed(ts + cutoff)
        return _float_if_0d(vals[inv].reshape(arr.shape))

    def band_coefficient(self, dx):
        """Second-difference coefficient of the generator's near-diagonal
        band on a lattice of spacing ``dx``.

        The symmetric principal-value part within |y - x| < 3 dx / 2
        (everything the far cells do not cover), int_0^{3 dx/2} u^2 j(u) du
        / dx^2, with exponent hint 1 - 2 delta_max.
        """
        return converged_value(
            integrate_adaptive(
                lambda u: u * u * self.levy_j(u),
                0.0,
                1.5 * dx,
                left_exponent=1.0 - 2.0 * self.delta_max,
            ),
            f"band coefficient at dx={dx}",
        ) / (dx * dx)

    def wall_correction(self, dx):
        """Extra wall-node kill mass from profile-weighted collocation.

        Solutions vanish like d^delta toward an absorbing wall while the kill
        rate grows like the jump tail; weighting the wall cell's rate by the
        d^delta profile (instead of sampling both at the midpoint) multiplies
        the singular component by gamma = avg(rate * d^dm) / (rate * d^dm at
        midpoint) > 1.  Returned is the additive correction (gamma - 1) * rate.
        """
        dm = self.delta_max
        prof = converged_value(
            integrate_adaptive(
                lambda d: self.jump_tail_closed(d) * d**dm,
                0.0,
                dx,
                left_exponent=-dm,
            ),
            f"wall correction at dx={dx}",
        )
        near = float(self.jump_tail_closed(0.5 * dx))
        gamma = prof / (dx * near * (0.5 * dx) ** dm)
        return (gamma - 1.0) * near

    # -- resolvent and compensated kernels ----------------------------------

    def _cos_table(self, x, g, mode, left_exponent, lo, hi, name, refusal):
        """(1/pi) int_0^inf of ``g`` times the cosine factor of ``mode`` at
        every |x|: a float for a scalar x, else an array of its shape.  The
        distinct |x|, 0 included, run as the rows of one engine pass (no
        memo), each with the bits it gets alone.  The entries before the
        first |x| that is not finite, lies in (0, lo) or exceeds hi are
        served, and the first of them that missed the contract raises
        QuadratureError naming ``name(|x|)``; then that |x| raises
        DomainError(``refusal(|x|)``).
        """
        arr = np.asarray(x, dtype=float)
        flat = np.abs(arr.ravel())
        bad = ~np.isfinite(flat) | ((0.0 < flat) & (flat < lo)) | (flat > hi)
        n = int(bad.argmax()) if bad.any() else flat.size
        ux, inv = np.unique(flat[:n], return_inverse=True)
        r = integrate_oscillatory_cos_batch(
            g, ux, mode=mode, left_exponent=left_exponent, tail_exponent=2.0 * self.delta_max
        )
        # in input order, so the first entry that missed is the one named
        r = QuadResult(r.value[inv], r.err_est[inv], None, r.converged[inv])
        vals = converged_value(r, lambda i: name(float(flat[i]))) / math.pi
        if n < flat.size:
            raise DomainError(refusal(float(flat[n])))
        return _float_if_0d(vals.reshape(arr.shape))

    def uq(self, q, x):
        """q-resolvent kernel u^q(x) = (1/pi) int_0^inf cos(lam x)/(q + psi(lam)) dlam.

        Takes x as ``h_comp`` does.  A q outside (0, inf) raises DomainError
        naming it, and so do a nan or infinite x and an |x| whose quadrature
        would square a lam below the normal doubles (from about 1e150), where
        phi cannot be evaluated.
        """
        q = float(q)
        if not (0.0 < q < math.inf):
            raise DomainError(f"uq needs a positive finite q, got q = {q}")
        x_max = oscillatory_head_reach(0.0) / _LAM_MIN

        def g(lam):
            # past lam = 1.3e154 lam^2 overflows and g reads 0, its limit
            with np.errstate(over="ignore"):
                return 1.0 / (q + phi_eval(self.phi, lam * lam))

        def refusal(x):
            if not math.isfinite(x):
                return f"uq needs a finite x, got x = {x}"
            return f"uq({q}, {x}): x is above {x_max:.6g}, where the integrand's lam^2 underflows"

        return self._cos_table(x, g, "cos", 0.0, 0.0, x_max, lambda x: f"uq({q}, {x})", refusal)

    def _h_integrand(self, lam):
        return 1.0 / phi_eval(self.phi, lam * lam)

    def h_comp(self, x):
        """Compensated potential kernel h(x) = (1/pi) int (1 - cos(lam x))/psi(lam) dlam.

        Increasing in |x| with h(0) = 0; the q->0 limit of u^q(0) - u^q(x).
        A scalar x gives a float, an array-like x an array of its shape.

        A nan or infinite x raises DomainError, and so does a nonzero |x|
        below ``h_floor``: from half of it down, the quadrature's first pass
        squares a lam past the float range, so the integrand reads 0 on part
        of the tail and h comes out low (the factor 2 is margin for the
        rounding of the nodes).  So does an |x| above ``h_ceiling``: from
        twice it up, the first pass squares a lam below the normal doubles,
        where phi loses digits, and further up to 0, which phi refuses.  The
        entries before it are served first, and the first in input order
        that misses the contract raises QuadratureError naming it.
        """

        def refusal(x):
            if not math.isfinite(x):
                return f"h needs a finite x, got x = {x}"
            if x > self.h_ceiling:
                return (f"h({x}) is above h_ceiling = {self.h_ceiling:.6g}, where the "
                        "integrand's lam^2 underflows")
            return (f"h({x}) is below h_floor = {self.h_floor:.6g}, where the "
                    "integrand's lam^2 overflows")

        return self._cos_table(
            x, self._h_integrand, "one_minus_cos", -2.0 * self.delta_min,
            self.h_floor, self.h_ceiling, lambda x: f"h({x})", refusal,
        )

    # perfbench/spans.py wraps KernelSet methods by name, this second name
    # of h_comp among them; nothing in the package calls it
    h_many = h_comp

    # -- the walk's step -------------------------------------------------------

    def mean_abs_step(self, dt):
        """E|X_dt| = (2/pi) int_0^inf (1 - exp(-dt psi(xi))) xi^-2 dxi.

        Near 0 the integrand is ~ xi^(2 delta_min - 2), so the mean is finite
        only for delta_min > 1/2; below that ConfigError.  Where xi^2 falls
        below the normal doubles (the substitution for delta_min near 1/2
        takes its nodes there), 1 - exp(-dt psi) is dt psi to the last bit,
        and the integrand is read as dt sum_i w_i xi^(2 d_i - 2).  From
        delta_min near 0.505 down xi itself underflows to 0, where that
        reads inf, and the engine raises QuadratureError.
        """
        dm = self.delta_min
        if not dm > 0.5:
            raise ConfigError(f"mean walk step is infinite for delta_min = {dm:g} <= 1/2")
        terms = list(zip(self.phi.weights(), self.phi.exponents()))

        def f(xi):
            xi2 = xi * xi
            low = xi2 < _TINY
            xi2[low] = 1.0
            out = -np.expm1(-dt * phi_eval(self.phi, xi2)) / xi2
            out[low] = dt * sum(w * xi[low] ** (2.0 * d - 2.0) for w, d in terms)
            return out

        r = integrate_adaptive(
            f, 0.0, math.inf, left_exponent=2.0 * dm - 2.0, tail_exponent=2.0
        )
        return 2.0 / math.pi * converged_value(r, f"mean walk step at dt={dt:g}")

    # -- free Green functions ------------------------------------------------

    def green_free_x0(self, x, y):
        """Green function of the line process absorbed at the origin.

        G(x, y) = h(x) + h(y) - h(x - y) for x, y != 0.  ``x`` and ``y``
        broadcast; one ``h_comp`` call serves every h.
        """
        xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if np.any((xa == 0.0) | (ya == 0.0)):
            raise DomainError("green_free_x0 needs nonzero arguments")
        hx, hy, hd = self.h_comp(np.stack([xa, ya, xa - ya]))
        return _float_if_0d(hx + hy - hd)

    def green_free_z(self, x, y):
        """Green function of the absorbed process folded onto the half line.

        G(x, y) = 2h(x) + 2h(y) - h(x - y) - h(x + y) for x, y > 0; equals
        the absorbed-process Green function summed over both sign choices.
        ``x`` and ``y`` broadcast; one ``h_comp`` call serves every h.
        """
        xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if not np.all((xa > 0.0) & (ya > 0.0)):
            raise DomainError("green_free_z lives on the open half line")
        hx, hy, hd, hs = self.h_comp(np.stack([xa, ya, xa - ya, xa + ya]))
        return _float_if_0d(2.0 * hx + 2.0 * hy - hd - hs)

    def jump_i(self, x, y):
        """Folded jump kernel i(x, y) = j(|x - y|) + j(x + y), x, y > 0, x != y."""
        xa = _as_positive_array(x, "x (jump_i lives on the open half line)")
        ya = _as_positive_array(y, "y (jump_i lives on the open half line)")
        if np.any(xa == ya):
            raise DomainError("jump_i is singular on the diagonal")
        return _float_if_0d(self.levy_j(xa - ya) + self.levy_j(xa + ya))

    # -- scale function and comparator ---------------------------------------

    def phi_cap(self, x):
        """Phi(x) = 1/phi(x^{-2}), increasing on (0, inf).

        An x whose x^{-2} is not a normal double raises DomainError.
        """
        arr = _as_positive_array(x, "phi_cap argument")
        with np.errstate(over="ignore"):
            t = np.power(arr, -2.0)
        _check_normal(t, "phi_cap")
        return _float_if_0d(1.0 / phi_eval(self.phi, t))

    def phi_cap_inv(self, y):
        """Inverse of phi_cap, solved by bisection on log(x^{-2}).

        Brackets come in closed form from the extreme mixture terms, then
        up to 100 bisection steps pin the root to full double precision.  A
        step that leaves both ends unchanged has reached the fixed point,
        since each step is a function of the ends alone; the loop stops
        there with the bits of all 100 steps (a pure power's bracket is
        exact, so it stops at the first).  The round trip
        phi_cap(phi_cap_inv(y)) = y holds to ~1e-13 relative.
        A bracket that leaves the normal doubles raises DomainError, as
        ``phi_cap`` does.  Each distinct y is bisected once (the Green
        comparator's amplitudes repeat): its steps and their fixed point
        depend on its value alone, so it keeps the bits it gets alone.
        """
        arr = _as_positive_array(y, "phi_cap_inv argument")
        if not np.all(np.isfinite(arr)):
            raise DomainError("phi_cap_inv needs finite arguments")
        ys, inv = np.unique(arr.ravel(), return_inverse=True)
        u = 1.0 / ys  # solve phi(t) = u, then x = t^{-1/2}
        ws = np.asarray(self.phi.weights())
        ds = np.asarray(self.phi.exponents())
        kk = float(len(ws))
        # phi(t) >= w_i t^{d_i} gives the upper bracket; phi(t) <= k max_i w_i t^{d_i}
        # gives the lower one
        with np.errstate(over="ignore", under="ignore"):
            cand_hi = np.min(
                np.power(u[..., None] / ws, 1.0 / ds), axis=-1
            )
            cand_lo = np.min(
                np.power(u[..., None] / (kk * ws), 1.0 / ds), axis=-1
            )
        _check_normal(cand_lo, "phi_cap_inv")
        _check_normal(cand_hi, "phi_cap_inv")
        s_lo = np.log(cand_lo)
        s_hi = np.log(cand_hi)
        for _ in range(100):
            s_mid = 0.5 * (s_lo + s_hi)
            too_low = phi_eval(self.phi, np.exp(s_mid)) < u
            lo, hi = np.where(too_low, s_mid, s_lo), np.where(too_low, s_hi, s_mid)
            if np.array_equal(lo, s_lo) and np.array_equal(hi, s_hi):
                break
            s_lo, s_hi = lo, hi
        t = np.exp(0.5 * (s_lo + s_hi))
        return _float_if_0d((1.0 / np.sqrt(t))[inv].reshape(arr.shape))

    def gx_estimate(self, a, b, x, y):
        """Two-sided Green comparator on the interval (a, b).

        With dist(x) = min(x - a, b - x) and A = sqrt(Phi(dist x) Phi(dist y)),
        returns min(A / PhiInv(A), A / |x - y|), the second branch dropped on
        the diagonal.  Strictly positive and finite for interior points.
        """
        a = float(a)
        b = float(b)
        if not (a < b) or not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError("need a finite interval a < b")
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if np.any((xa <= a) | (xa >= b) | (ya <= a) | (ya >= b)):
            raise DomainError("points must lie strictly inside (a, b)")
        dx = np.minimum(xa - a, b - xa)
        dy = np.minimum(ya - a, b - ya)
        amp = np.sqrt(self.phi_cap(dx) * self.phi_cap(dy))
        base = amp / self.phi_cap_inv(amp)
        gap = np.abs(xa - ya)
        with np.errstate(divide="ignore"):
            alt = np.where(gap > 0.0, amp / np.where(gap > 0.0, gap, 1.0), np.inf)
        return _float_if_0d(np.minimum(base, alt))
