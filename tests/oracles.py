"""Independent reference values and the recipes that regenerate them.

Everything here is computed by routes disjoint from the package code:
special-function closed forms, transforms turned into smooth integrals
(a contour rotated onto the imaginary axis, a Laplace representation)
and summed by the trapezoid rule, a convergent alternating series for the
one-sided stable law and a sampler of it by its product representation
(the subordinated route of the walk's increments), and the classical interval exit laws of the
symmetric stable process and its Green function killed at the origin.
Four exceptions take package parts: the full-matrix generator assembly
takes the package's kernel inputs and is independent only in how it
assembles them, the heap loop of adaptive quadrature takes the
package's GK15 panel rule and is independent only in the order it refines,
the one-panel error model takes the engine's error floor and is
independent only in running on floats, and the scale function's inverse
takes the package's phi and is independent only in running all its
bisection steps.
Frozen constants carry their regeneration
function; tests assert the two agree, so a stale constant cannot hide.
"""

import heapq
import math

import numpy as np

import sbmpot.quadrature as quad
from sbmpot.bernstein import phi_eval
from sbmpot.errors import DomainError
from sbmpot.interval_solver import _exit_rates


# -- closed forms for the pure stable family (alpha = 2 delta) ---------------------


def h1_closed(delta):
    """h(1) for psi(xi) = xi^(2 delta), delta in (1/2, 1).

    (1/pi) int_0^inf (1 - cos u) u^(-2 delta) du
        = Gamma(2 - 2 delta) cos(pi (2 delta - 1) / 2) / ((2 delta - 1) pi).
    """
    s = 2.0 * delta - 1.0
    return math.gamma(2.0 - 2.0 * delta) * math.cos(0.5 * math.pi * s) / (s * math.pi)


def uq0_closed(q, alpha):
    """u^q(0) = (1/pi) int_0^inf dxi/(q + xi^alpha) = q^(1/alpha - 1)/(alpha sin(pi/alpha))."""
    return q ** (1.0 / alpha - 1.0) / (alpha * math.sin(math.pi / alpha))


def uq_rotated(terms, q, x, h=0.01):
    """u^q(x) = (1/pi) int_0^inf cos(lam x)/(q + psi(lam)) dlam for
    psi(lam) = sum_k w_k lam^(2 d_k), 1/2 < d_k < 1, x >= 0, by turning the
    contour onto the imaginary axis: q + psi has no zero in the first
    quadrant, where every term has an argument in (0, pi), so
    u^q(x) = (1/pi) int_0^inf e^(-r x) Im psi(ir) / |q + psi(ir)|^2 dr,
    with psi(ir) = sum_k w_k r^(2 d_k) e^(i pi d_k).  The integrand has no
    oscillation; it is summed by the trapezoid rule in log r."""
    r = np.exp(np.arange(-60.0, 120.0 + h, h))
    psi = sum(w * r ** (2.0 * d) * np.exp(1j * math.pi * d) for w, d in terms)
    f = np.exp(-r * x) * r * psi.imag / np.abs(q + psi) ** 2
    return h * math.fsum(f) / math.pi


def cos_half_power(x, h=0.005):
    """int_0^inf cos(x t) t^(-1/2) / (1 + t) dt for x >= 0, from
    1/(1 + t) = int_0^inf e^(-s (1 + t)) ds and the Laplace transform of
    t^(-1/2) cos(x t): sqrt(pi) int_0^inf e^(-s) Re (s - i x)^(-1/2) ds,
    summed by the trapezoid rule in log s.  At x = 0 it is pi."""
    s = np.exp(np.arange(-90.0, 4.0 + h, h))
    f = s * np.exp(-s) * ((s - 1j * x) ** -0.5).real
    return math.sqrt(math.pi) * h * math.fsum(f)


def levy_c_closed(alpha):
    """Jump-density constant: j(x) = c(alpha) |x|^(-1-alpha) with
    c(alpha) = alpha 2^(alpha-1) Gamma((alpha+1)/2) / (sqrt(pi) Gamma(1 - alpha/2))."""
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma(0.5 * (alpha + 1.0))
        / (math.sqrt(math.pi) * math.gamma(1.0 - 0.5 * alpha))
    )


def stable_mean_abs(alpha, dt):
    """E|X_dt| for the symmetric alpha-stable process with psi(xi) = |xi|^alpha,
    alpha > 1: X_dt = dt^(1/alpha) X_1 and E|X_1| = (2/pi) Gamma(1 - 1/alpha)."""
    return 2.0 / math.pi * math.gamma(1.0 - 1.0 / alpha) * dt ** (1.0 / alpha)


def getoor_exit(alpha, R, u):
    """Mean exit time of the symmetric alpha-stable process from (-R, R),
    started at u: (R^2 - u^2)^(alpha/2) Gamma(1/2) / (2^alpha Gamma((1+alpha)/2) Gamma(1+alpha/2))."""
    lam = (
        2.0 ** alpha
        * math.gamma(0.5 * (1.0 + alpha))
        * math.gamma(1.0 + 0.5 * alpha)
        / math.gamma(0.5)
    )
    return (R * R - u * u) ** (0.5 * alpha) / lam


def bgr_density(alpha, x, d, side=1.0):
    """Exit-position density from (-1, 1) for the symmetric alpha-stable
    process started at x: sin(pi alpha/2)/pi (1-x^2)^(a/2) (v^2-1)^(-a/2) / |v - x|,
    at v = side (1 + d), a distance d > 0 beyond the wall (side = +1 or -1).

    Taking d rather than v keeps v^2 - 1 = d (2 + d) free of cancellation
    next to the wall.
    """
    C = math.sin(0.5 * math.pi * alpha) / math.pi
    return (
        C * (1.0 - x * x) ** (0.5 * alpha) * (d * (2.0 + d)) ** (-0.5 * alpha)
        / (1.0 + d - side * x)
    )


def bgr_wall_mass(alpha, eps, kmax=60):
    """Exit mass within eps of either wall of (-1, 1) for the symmetric
    alpha-stable process started at 0.

    With u = v^2 - 1 the two-sided mass of bgr_density(alpha, 0, .) is
        sin(pi alpha/2)/pi int_0^U u^(-alpha/2) / (1 + u) du,   U = (1 + eps)^2 - 1,
    summed termwise from the geometric series of 1/(1 + u) (needs U < 1).
    """
    U = (1.0 + eps) ** 2 - 1.0
    if not U < 1.0:
        raise ValueError("series needs (1 + eps)^2 < 2")
    s = 1.0 - 0.5 * alpha
    tot = sum((-1.0) ** k * U ** (k + s) / (k + s) for k in range(kmax))
    return math.sin(0.5 * math.pi * alpha) / math.pi * tot


def bgr_I(alpha, w, nodes=256):
    """I(w) = int_0^w r^(alpha/2 - 1) (1 + r)^(-1/2) dr, elementwise over w.

    Split at r = 1, each piece summed by Gauss-Legendre.  On [0, min(w, 1)]
    the substitution r = u^(2/alpha) gives (2/alpha)
    int_0^(min(w, 1)^(alpha/2)) (1 + u^(2/alpha))^(-1/2) du with a smooth
    integrand.  On [1, w] the substitution r = e^t gives
    int_0^(log w) e^(alpha t/2) (1 + e^t)^(-1/2) dt, smooth and analytic in
    the strip |Im t| < pi, so 256 nodes serve w up to 1e30 (within 4e-12
    of 4096 nodes at alpha 1.2 to 1.8).  One rule over the whole
    [0, w^(alpha/2)] does not resolve the unit scale once w is large: it
    read I(1e16) = 39388 at alpha 1.5.
    """
    w = np.asarray(w, dtype=float)
    t, wt = np.polynomial.legendre.leggauss(nodes)
    top = np.minimum(w, 1.0)[..., None] ** (0.5 * alpha)
    u = 0.5 * top * (t + 1.0)
    head = (2.0 / alpha) * 0.5 * top[..., 0] * np.sum(
        wt / np.sqrt(1.0 + u ** (2.0 / alpha)), axis=-1
    )
    span = np.log(np.maximum(w, 1.0))[..., None]
    s = 0.5 * span * (t + 1.0)
    tail = 0.5 * span[..., 0] * np.sum(
        wt * np.exp(0.5 * alpha * s) / np.sqrt(1.0 + np.exp(s)), axis=-1
    )
    return head + tail


def bgr_green(alpha, x, y):
    """Green function of (-1, 1) for the symmetric alpha-stable process with
    psi(xi) = |xi|^alpha, 1 < alpha < 2, x != y (Blumenthal-Getoor-Ray):
        G(x, y) = |x - y|^(alpha-1) I(w) / (2^alpha Gamma(alpha/2)^2),
        w = (1 - x^2)(1 - y^2)/(x - y)^2.
    Elementwise over arrays x, y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = (1.0 - x * x) * (1.0 - y * y) / (x - y) ** 2
    c = 2.0 ** alpha * math.gamma(0.5 * alpha) ** 2
    return np.abs(x - y) ** (alpha - 1.0) * bgr_I(alpha, w) / c


def bgr_killed_exit_alive(alpha, x, nodes=256):
    """P_x(|X| leaves (0, 1) before X hits 0) for the symmetric alpha-stable
    process, 1 < alpha <= 2, 0 < x < 1.

    For a symmetric process with 0 regular, P_x(T_0 < tau) = G(x, 0)/G(0, 0),
    with the Blumenthal-Getoor-Ray Green function of (-1, 1) (see
    bgr_green), whose I(w) has the diagonal limit 2/(alpha - 1) times
    |x - y|^(1-alpha).  So the probability is
    1 - x^(alpha-1) I((1 - x^2)/x^2) (alpha - 1)/2.  At alpha = 2 this is x,
    the Brownian ruin probability.
    """
    w = (1.0 - x * x) / (x * x)
    integral = float(bgr_I(alpha, w, nodes))
    return 1.0 - x ** (alpha - 1.0) * integral * 0.5 * (alpha - 1.0)


def bgr_killed_green(alpha, x, y):
    """Green function of |X| killed at 0 and on leaving (0, 1), for the
    symmetric alpha-stable process, 1 < alpha < 2, 0 < x, y < 1, x != y.

    Point killing at 0 turns the Green function G of (-1, 1) (see
    bgr_green) into G(x, y) - G(x, 0) G(0, y) / G(0, 0), and folding onto
    |X| adds the same at -y.  G(0, 0) is the diagonal limit that
    bgr_killed_exit_alive uses, 2 / ((alpha - 1) 2^alpha Gamma(alpha/2)^2).
    Elementwise over arrays x, y.  Near 0 the two terms cancel, which costs
    about log10(1/x^(alpha-1)) of the digits of I(w).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g00 = 2.0 / ((alpha - 1.0) * 2.0 ** alpha * math.gamma(0.5 * alpha) ** 2)

    def killed(u, v):
        return bgr_green(alpha, u, v) - bgr_green(alpha, u, 0.0) * bgr_green(alpha, 0.0, v) / g00

    return killed(x, y) + killed(x, -y)


# -- power-sum integrals of the solver's band and wall treatment ----------------------


def _jump_terms(terms):
    """(c_k, 2 delta_k) of j(u) = sum_k c_k u^(-1 - 2 delta_k) for
    phi = sum_k w_k lam^delta_k, from the stable constant levy_c_closed."""
    return [(w * levy_c_closed(2.0 * d), 2.0 * d) for w, d in terms]


def band_coefficient(terms, dx):
    """dx^-2 int_0^(1.5 dx) u^2 j(u) du = dx^-2 sum_k c_k (1.5 dx)^(2-2d_k) / (2-2d_k)."""
    return sum(
        c * (1.5 * dx) ** (2.0 - a) / (2.0 - a) for c, a in _jump_terms(terms)
    ) / (dx * dx)


def wall_correction(terms, dx):
    """(gamma - 1) T(dx/2) with T(d) = int_d^inf j = sum_k (c_k/2d_k) d^(-2d_k) and
    gamma = int_0^dx T(d) d^dm dd / (dx T(dx/2) (dx/2)^dm), dm = max_k d_k:
    the profile integral is sum_k (c_k/2d_k) dx^(1+dm-2d_k) / (1+dm-2d_k)."""
    jt = _jump_terms(terms)
    dm = max(d for _, d in terms)
    prof = sum(c / a * dx ** (1.0 + dm - a) / (1.0 + dm - a) for c, a in jt)
    near = sum(c / a * (0.5 * dx) ** -a for c, a in jt)
    gamma = prof / (dx * near * (0.5 * dx) ** dm)
    return (gamma - 1.0) * near


# -- the full-matrix generator assembly -----------------------------------------------


def dense_generator_matrix(ks, grid, kind):
    """The generator of ``build_generator`` assembled on the whole n x n
    matrix at once, by array expressions over every entry.

    The package builds it from the upper triangle in row blocks; this is the
    independent route for that assembly.  Its inputs are the package's own
    (closed kernel tail, band coefficient and kill rates), since only the
    assembly is under test, and the two must agree bit for bit.
    """
    n, dx = grid.n, grid.dx
    xs = grid.nodes()
    D = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(D, 1.0)
    A = ks.jump_tail_closed(D - 0.5 * dx) - ks.jump_tail_closed(D + 0.5 * dx)
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A[1:], 0.0)
    np.fill_diagonal(A[:, 1:], 0.0)
    c2 = ks.band_coefficient(dx)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = c2
    A[idx + 1, idx] = c2
    if kind == "Z":
        S = xs[:, None] + xs[None, :]
        A += ks.jump_tail_closed(S - 0.5 * dx) - ks.jump_tail_closed(S + 0.5 * dx)
    lo, hi, dk = _exit_rates(ks, grid, kind)
    kappa = lo + hi
    kappa[0] += dk
    kappa[n - 1] += dk
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -(A.sum(axis=1) + kappa))
    return A


def dense_green_matrix(A, dx):
    """The Green matrix of ``green_matrix`` by whole-matrix expressions:
    (G, asymmetry) with G0 = inv(-A), G = (0.5/dx) (G0 + G0.T) and the
    asymmetry max|G0 - G0.T| / max|G0|.

    The package negates inv(A) in place and symmetrizes in row blocks; this
    is the independent route for that, and the two must agree bit for bit.
    """
    G0 = np.linalg.inv(-A)
    scale = float(np.max(np.abs(G0)))
    return (0.5 / dx) * (G0 + G0.T), float(np.max(np.abs(G0 - G0.T))) / scale


def full_green_drift(coarse, fine, n_probe=16):
    """``green_drift`` read from the whole Green matrices: the probe pairs
    interpolated bilinearly over every node pair and along the whole
    diagonal.  The package reads only the block around the probes; this is
    the route over the whole matrix, and the two must agree bit for bit."""

    def interpolate(green):
        xs, dx, G = green.grid.nodes(), green.grid.dx, green.G
        px = green.grid.a + (green.grid.b - green.grid.a) * (np.arange(n_probe) + 0.5) / n_probe
        i = np.clip(np.searchsorted(xs, px) - 1, 0, xs.size - 2)
        t = np.clip((px - xs[i]) / dx, 0.0, 1.0)
        ii, jj = np.meshgrid(i, i, indexing="ij")
        ti, tj = np.meshgrid(t, t, indexing="ij")
        out = (
            (1 - ti) * (1 - tj) * G[ii, jj]
            + ti * (1 - tj) * G[ii + 1, jj]
            + (1 - ti) * tj * G[ii, jj + 1]
            + ti * tj * G[ii + 1, jj + 1]
        )
        out[np.arange(n_probe), np.arange(n_probe)] = np.interp(px, xs, np.diag(G))
        return out

    Pc, Pf = interpolate(coarse), interpolate(fine)
    return float(np.max(np.abs(Pc - Pf) / Pf))


# -- adaptive quadrature as a heap loop --------------------------------------------


def adaptive_finite(f, a, b, budget):
    """Worst-first adaptive refinement on a finite interval, one panel at a
    time from a heap: the reference that the lockstep panel order of
    ``integrate_adaptive_batch`` is held to, bit for bit.

    ``budget`` caps integrand evaluations for this piece (callers split
    MAX_EVALS across several pieces, at least 60 each, so the _N_INIT
    starting panels always fit).  Panels narrower than a few ulps
    are frozen instead of split, so an unhinted endpoint singularity degrades
    into an honest converged=False rather than an infinite loop.  The
    tolerances are read from the engine at call time, so a test's override
    of the contract reaches both loops.
    """
    if not (b > a):
        raise DomainError(f"need a < b, got [{a}, {b}]")
    edges = np.linspace(a, b, quad._N_INIT + 1)
    vs, es = quad._gk15_panels(f, edges[:-1], edges[1:])
    heap = []
    total = 0.0
    total_err = 0.0
    for seq, (lo, hi, v, e) in enumerate(
        zip(edges[:-1].tolist(), edges[1:].tolist(), vs.tolist(), es.tolist())
    ):
        heap.append((-e, seq, lo, hi, v, e))
        total += v
        total_err += e
    heapq.heapify(heap)
    seq = quad._N_INIT
    evals = 15 * quad._N_INIT

    def tol():
        return max(quad.ABS_TOL, quad.REL_TOL * abs(total))

    while total_err > tol() and evals + 30 <= budget:
        neg_e, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        width_floor = 4.0 * quad._EPS * max(abs(lo), abs(hi), 1.0)
        if hi - lo <= width_floor or mid <= lo or mid >= hi:
            # cannot subdivide further in float; keep the panel as-is
            heapq.heappush(heap, (0.0, seq, lo, hi, v, e))
            seq += 1
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        (v1, v2), (e1, e2) = (
            s.tolist() for s in quad._gk15_panels(f, np.array([lo, mid]), np.array([mid, hi]))
        )
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, hi, v2, e2))
        seq += 1
        evals += 30

    # drift-free recomputation of the running sums
    total = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    return quad.QuadResult(total, total_err, evals, total_err <= tol())


def _panel_err(vk, vg, resasc):
    """Error estimate of one panel from its _gk15_sums, as floats: the
    reference that the engine's stacked error model ``_gk15_err`` is held
    to, bit for bit.

    The usual scaled-difference recipe: |K15 - G7| sharpened by the panel's
    total variation proxy, so smooth panels are not over-refined while rough
    panels keep the conservative raw difference.
    """
    raw = abs(vk - vg)
    if resasc > 0.0 and raw > 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return max(err, quad._ERR_FLOOR * abs(vk))


# -- one-sided stable law by convergent series --------------------------------------


def stable_tail_series(delta, x, kmax=400):
    """P(S > x) for the standard delta-stable subordinator.

    Alternating series (1/pi) sum_k (-1)^(k+1) Gamma(k delta) sin(pi k delta)
    x^(-k delta) / k!; convergent for every x > 0, but floating point loses
    the alternation once terms outgrow ~e^40, so small x raises instead of
    silently returning noise.  At delta = 1/2 this reproduces erf(1/(2 sqrt(x)))
    to machine precision.
    """
    tot = 0.0
    for k in range(1, kmax + 1):
        lg = math.lgamma(k * delta) - math.lgamma(k + 1) - k * delta * math.log(x)
        if lg > 40.0:
            raise ValueError(f"series unstable at x={x} for delta={delta}")
        term = math.sin(math.pi * k * delta) * math.exp(lg)
        tot += -term if k % 2 == 0 else term
    return tot / math.pi


def stable_median_series(delta, lo=0.5, hi=50.0):
    """Median of the standard delta-stable subordinator by bisection on the series."""
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if stable_tail_series(delta, mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return mid


def sample_stable_subordinator(delta, size, rng):
    """Draws of the standard stable subordinator S with E exp(-lam S) = exp(-lam^delta).

    Uses the product representation
        A(u) = [sin(delta pi u)^delta sin((1-delta) pi u)^(1-delta) / sin(pi u)]^(1/(1-delta)),
        S = (A(U) / E)^((1-delta)/delta),
    with U uniform on (0,1) and E unit exponential.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0,1)")
    u = rng.random(size)
    # keep u strictly inside (0,1); endpoint draws would divide by sin(0)
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    e = rng.standard_exponential(size)
    pu = math.pi * u
    logA = (
        delta * np.log(np.sin(delta * pu))
        + (1.0 - delta) * np.log(np.sin((1.0 - delta) * pu))
        - np.log(np.sin(pu))
    ) / (1.0 - delta)
    return np.exp((1.0 - delta) / delta * (logA - np.log(e)))


# -- frozen values -------------------------------------------------------------------

# regenerate: stable_median_series(delta)
STABLE_MEDIAN = {
    0.6: 0.9787367133941359,
    0.75: 0.8915880177298795,
    0.9: 0.886770167717133,
}

# regenerate: stable_tail_series(0.75, 100.0)
STABLE_TAIL_100_D075 = 0.008864448265886015

# regenerate: h1_closed(delta)
H1_CLOSED = {
    0.6: 1.7622403312499397,
    0.75: 0.7978845608028654,  # = sqrt(2/pi)
    0.9: 0.5644623929465977,
}

# regenerate: uq0_closed(q, 1.5)
UQ0_ALPHA15 = {
    1.0: 0.769800358919501,
    2.0: 0.6109909497771566,
    0.25: 1.2219818995543135,
}

# regenerate: levy_c_closed(1.5)
LEVY_C_ALPHA15 = 0.2992067103010746


# -- the scale function's inverse ---------------------------------------------------


def phi_cap_inv_full(ks, y):
    """``KernelSet.phi_cap_inv`` for an array y whose brackets are normal
    doubles, with all 100 bisection steps run: the reference for the
    package's loop, which stops at the fixed point."""
    u = 1.0 / np.asarray(y, dtype=float)
    ws = np.asarray(ks.phi.weights())
    ds = np.asarray(ks.phi.exponents())
    with np.errstate(over="ignore", under="ignore"):
        s_hi = np.log(np.min(np.power(u[..., None] / ws, 1.0 / ds), axis=-1))
        s_lo = np.log(np.min(np.power(u[..., None] / (len(ws) * ws), 1.0 / ds), axis=-1))
    for _ in range(100):
        s_mid = 0.5 * (s_lo + s_hi)
        too_low = phi_eval(ks.phi, np.exp(s_mid)) < u
        s_lo = np.where(too_low, s_mid, s_lo)
        s_hi = np.where(too_low, s_hi, s_mid)
    return 1.0 / np.sqrt(np.exp(0.5 * (s_lo + s_hi)))
