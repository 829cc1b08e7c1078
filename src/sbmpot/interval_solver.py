"""Dense interval solvers for the three killed forms of the process.

Kinds:
  X : the free process killed on exiting the interval (a, b)
  Y : the half-line censored process killed on exiting (a, b)
  Z : the folded absolute-value process killed on exiting (a, b)

All three discretize the same way: midpoint lattice x_i = a + (i + 1/2) D,
off-diagonal generator entries kernel(x_i, x_j) * D for |i - j| >= 2, a
second-difference coefficient for the singular near-diagonal band, and an
exactly-integrated per-node killing rate so the row-sum identity
(-A) 1 = kappa holds to quadrature accuracy.  Every kernel integral this
takes (cell masses, jump tails, the band coefficient and the wall
correction) is a value read from the KernelSet, which alone decides how it
is computed; this module runs no quadrature itself.  Everything downstream
is dense linear algebra.

On the midpoint lattice every off-diagonal cell mass depends on |i - j| (a
Toeplitz part), plus, for kind Z, on i + j (the fold's Hankel part).  So
the negated generator of every kind is also held as O(n) per-offset masses
and its diagonal (``StructuredGenerator``), whose closed jump tails are its
kill rates as well, so it integrates no tail by quadrature.  ``solve
green`` (the refinement drift's probe pairs and the middle node, or every
entry for its table) and the small-interval floor (its window) solve for
their Green entries on that form: -A is gathered one panel of columns at a
time, each panel factored in place by blocked Cholesky as it is reached,
keeping the lower block triangle alone (about half of an n x n array),
and the unit columns of those entries are solved for.  A shelf's exit
problem is solved without forming any matrix: conjugate gradients with
FFT products and T. Chan's optimal circulant preconditioner (SIAM J. Sci.
Stat. Comput. 9, 1988).

The certificate's readers of the whole Green function (the Poisson
kernels, gauge ratios, 3G, the comparator band, its cached Green matrices)
get the scaled inverse of the dense per-entry generator, whose kill rates
are quadrature tails; those lose their digits on long intervals, so each
build holds them against the closed tails at the same starts and refuses a
gap above _TAIL_GAP_MAX.  Poisson kernels are Green-kernel products against
an exterior mesh, and the empirical certificates (gauge ratios, 3G,
Harnack, boundary ratios, small-interval floor) are reductions over those
matrices.

The left endpoint of (0, R) problems is always approximated from inside by a
small absorbing shelf a > 0; the shelf correction h(a)/h(R) brackets the
re-entry mass, following the same limit argument the continuum objects are
defined by.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SolverError, check_integer
from .kernels import KernelSet

__all__ = [
    "Grid",
    "GeneratorMatrix",
    "GreenMatrix",
    "StructuredGenerator",
    "ZGrid",
    "PoissonTable",
    "BoundaryData",
    "build_generator",
    "green_matrix",
    "exit_time",
    "default_zgrid",
    "poisson_kernel",
    "harmonic_extend",
    "default_shelf",
    "exit_alive_prob",
    "gauge_ratios",
    "three_g_sup",
    "harnack_sup_ratio",
    "bhp_sup_ratio",
    "small_interval_lower",
    "green_drift",
    "GreenBlock",
    "probe_block",
    "block_drift",
    "default_boundary_fset",
]

# exterior integrals switch from quadrature to the closed power tail here
Z_MAX_FACTOR = 50.0

# near-origin probe fraction for boundary-ratio and small-interval checks
DEFAULT_LAMBDA1 = 0.25

# default absorbing shelf and the (0, R) bracketing ladder, as fractions of R:
# the (0, R) solvers scale them by R, so for a stable process every (0, R)
# answer depends on x/R alone
DEFAULT_SHELF = 0.004
DEFAULT_A_SEQ = (DEFAULT_SHELF, DEFAULT_SHELF / 4, DEFAULT_SHELF / 16)

# cells across each shelf, and the cap on a shelf's cell count.  No shelf
# forms its matrix, so the cap bounds solve time, not memory; the certified
# exit constants were measured with it in place
SHELF_CELLS = 4.0
SHELF_N_CAP = 4096

# interior probe points per axis for refinement drift
N_PROBE = 16

# rows per block of the generator assembly (at n = 4096, kind Z, 16 to 64
# rows timed alike and 128 or more were slower) and of the Green matrix's
# in-place symmetrization
_BLOCK = 64

# offsets of the shelf operator's Toeplitz part applied directly, as a
# stencil; the farther ones and the fold go through the FFT, whose rounding
# scales with the largest entry it carries.  On the 3996- and 4096-cell
# shelves of both fixtures, with every offset in the FFT p_exit sat up to
# 5.7e-11 from a dense LU solve, with 8 direct ones within 1.3e-12
_NEAR = 8

# the shelf solve's conjugate gradients stop a column at ||r|| <= _CG_RTOL
# ||b||; the default shelves of both fixtures take 30-67 iterations
_CG_RTOL = 1e-15
_CG_MAX_ITER = 1000

# the widest relative gap the dense generator's quadrature kill rates may
# keep from the closed tails at the same starts.  On (r/4, 11r/4), n = 256
# and 2048, kind Z's 3n starts: at most 6.5e-15 for r <= 1 (stable 0.75,
# stable 0.6 and the mixture fixture), 3.3e-11 to 1.3e-9 at r = 1e4, 6.7e-10
# to 1.4e-7 at 1e5, and from 3.3e-8 up at 1e6 (0.16 at 1e7, 0.999 at 1e8):
# the tails fall under the engine's 1e-10 absolute tolerance.  The bar is
# ten times the engine's 1e-9 relative tolerance
_TAIL_GAP_MAX = 1e-8

_KINDS = ("X", "Y", "Z")


def _kind(kind):
    """``kind`` as one of _KINDS, case-insensitively."""
    kind = str(kind).upper()
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {_KINDS}")
    return kind


def _form(grid, kind):
    """``kind`` as one of _KINDS, refusing a form that ``grid`` cannot hold."""
    kind = _kind(kind)
    if kind in ("Y", "Z") and grid.a <= 0.0:
        raise DomainError(f"kind {kind} needs a > 0 (forms live on the half line)")
    if grid.n < 8:
        raise ConfigError("need at least 8 cells for the near-diagonal treatment")
    return kind


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint lattice on (a, b): x_i = a + (i + 1/2) dx."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError("grid endpoints must be finite")
        if not (0.0 <= self.a < self.b):
            raise ConfigError(f"need 0 <= a < b, got ({self.a}, {self.b})")
        check_integer("n", self.n, 1)

    @property
    def dx(self):
        return (self.b - self.a) / self.n

    def nodes(self):
        return self.a + (np.arange(self.n) + 0.5) * self.dx


@dataclass
class GeneratorMatrix:
    """Discrete generator A with the (lo, hi, dk) split of _exit_rates it
    was built from; the row-sum gap of A is lo + hi, plus dk at the walls."""

    kind: str
    grid: Grid
    A: np.ndarray = field(repr=False)
    exit_rates: tuple = field(repr=False)


@dataclass
class GreenMatrix:
    """G = (-A)^{-1} / dx with the exit_rates split of its generator."""

    kind: str
    grid: Grid
    G: np.ndarray = field(repr=False)
    exit_rates: tuple = field(repr=False)
    asymmetry: float = 0.0


def _kill_split(T, n, kind):
    """The (lo, hi) rates of jumping below a and above b, from the jump
    tails T of the n nodes laid out as x - a, then x (kind Y) or x + a and
    x + b (kind Z).

    With T(t) = int_t^inf j: kind X is killed by every jump out of (a, b);
    kind Y suppresses the jumps below 0, so only landings in (0, a) kill
    below; kind Z folds a landing y onto |y|, so (-a, a) kills below and
    y < -b adds to the rate above.  On the midpoint lattice node i's
    distance to b is node n-1-i's distance to a, so the rates above reuse
    the wall distances reversed.
    """
    lo = T[:n]
    hi = lo[::-1]
    if kind != "X":
        lo = lo - T[n : 2 * n]
    if kind == "Z":
        hi = hi + T[2 * n :]
    return lo, hi


def _exit_rates(ks: KernelSet, grid: Grid, kind: str):
    """The _kill_split of one ``jump_tail`` call, and the wall correction
    dk: the kill rate of node i is lo[i] + hi[i], plus dk at the two wall
    nodes.

    The quadrature tails are held against ``jump_tail_closed`` at the same
    starts; a worst relative gap above _TAIL_GAP_MAX (a long interval,
    whose tails fall below the engine's absolute tolerance) raises
    SolverError naming the interval and the gap.  The tails that pass are
    returned as they are.
    """
    a, b = grid.a, grid.b
    xs = grid.nodes()
    folds = {"X": [], "Y": [xs], "Z": [xs + a, xs + b]}[kind]
    t = np.concatenate([xs - a, *folds])
    T = ks.jump_tail(t, Z_MAX_FACTOR * (b - a))
    closed = ks.jump_tail_closed(t)
    gap = float(np.max(np.abs(T - closed) / closed))
    if not gap <= _TAIL_GAP_MAX:  # a nan gap is refused too
        raise SolverError(
            f"kill rates on ({a:g}, {b:g}): the quadrature jump tails sit {gap:.3g} "
            f"(relative) from the closed ones, above {_TAIL_GAP_MAX:g}; the closed "
            "rates that serve every scale are ROADMAP item 4"
        )
    return *_kill_split(T, grid.n, kind), ks.wall_correction(grid.dx)


def build_generator(ks: KernelSet, grid: Grid, kind: str) -> GeneratorMatrix:
    """Assemble the discrete generator of one killed form.

    Off the band |i - j| <= 1 an entry is the exact kernel mass of cell j
    seen from node i, a function of |x_i - x_j| (plus, for kind Z, of
    x_i + x_j).  Both are symmetric in IEEE arithmetic: x_j - x_i is
    -(x_i - x_j) exactly and addition commutes.  So the matrix is built
    from its upper triangle, _BLOCK rows at a time over the columns from
    the block's first row on, and each block is mirrored into the lower
    triangle; the result is bitwise the full-matrix assembly, with half the
    kernel powers and no n x n temporaries.

    The diagonal is set to -(off-diagonal row sum + kappa_i), which makes
    the matrix symmetric by construction and pins the row-sum gap to the
    exactly-integrated killing rate: Poisson row masses then measure only
    the exterior-mesh quality, not assembly error.
    """
    kind = _form(grid, kind)
    n = grid.n
    xs = grid.nodes()
    dx = grid.dx
    c2 = ks.band_coefficient(dx)

    # exact per-cell kernel masses: the kernel is a power sum, so the cell
    # integral is a closed tail difference; midpoint sampling would carry an
    # O(1) relative error on the steep cells nearest the band
    A = np.empty((n, n))
    for r0 in range(0, n, _BLOCK):
        r1 = min(r0 + _BLOCK, n)
        k = np.arange(r1 - r0)
        D = np.abs(xs[r0:r1, None] - xs[None, r0:])
        D[k, k] = dx  # any positive distance; the diagonal is rebuilt below
        blk = ks.jump_tail_closed(D - 0.5 * dx) - ks.jump_tail_closed(D + 0.5 * dx)
        # the off-diagonals of the band are the cell treatment's c2 (the
        # last row has no super-diagonal)
        up = k[: n - r0 - 1]
        blk[up, up + 1] = c2
        blk[k[1:], k[:-1]] = c2
        if kind == "Z":
            # folded-part cell masses; the own-cell entry is overwritten when
            # the diagonal is rebuilt, so no correction is needed there
            S = xs[r0:r1, None] + xs[None, r0:]
            blk += ks.jump_tail_closed(S - 0.5 * dx) - ks.jump_tail_closed(S + 0.5 * dx)
        A[r0:r1, r0:] = blk
        A[r0:, r0:r1] = blk.T

    # kill rate lo + hi, plus dk at the walls: the rate grows like
    # d^{-2 delta} toward a wall where solutions vanish like d^delta, so a
    # midpoint sample underweights a wall cell's absorption by an O(1)
    # factor; dk reweights it by the profile average (near-second-order)
    lo, hi, dk = rates = _exit_rates(ks, grid, kind)
    kappa = lo + hi
    kappa[[0, -1]] += dk
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -(A.sum(axis=1) + kappa))
    return GeneratorMatrix(kind=kind, grid=grid, A=A, exit_rates=rates)


def _check_green(G):
    """Refuse a Green matrix, or some of its columns, with a non-finite or
    a non-positive entry."""
    if not np.all(np.isfinite(G)):
        raise SolverError("Green matrix has non-finite entries")
    if np.min(G) <= 0.0:
        raise SolverError("Green matrix lost positivity; grid too coarse for this kernel")


def green_matrix(gen: GeneratorMatrix) -> GreenMatrix:
    """G = (-A)^{-1} / dx, symmetrized, with the raw asymmetry recorded.

    For the callers that read all of G; a caller that reads a few entries
    solves for their columns on the structured form instead
    (``_green_block``).  The only n x n array made is the one returned.  A
    is inverted and the inverse negated in place: pivoting and every
    rounding of the LU solve commute with negation, so that is bitwise
    inv(-A).  It is then symmetrized in place,
    _BLOCK rows of its upper triangle at a time over the columns from the
    block's first row on: each block and its mirror read (0.5/dx) (up + lo),
    bitwise (0.5/dx) (G0 + G0.T) since addition commutes, and the asymmetry
    max|G0 - G0.T| / max|G0| is read on the way.  A failed inversion, a
    non-finite entry and a non-positive one raise SolverError.
    """
    try:
        G = np.linalg.inv(gen.A)
    except np.linalg.LinAlgError as e:
        raise SolverError(f"generator inversion failed: {e}") from e
    np.negative(G, out=G)
    scale = float(max(G.max(), -G.min()))
    c = 0.5 / gen.grid.dx
    n = G.shape[0]
    diff = 0.0
    for r0 in range(0, n, _BLOCK):
        r1 = min(r0 + _BLOCK, n)
        up = G[r0:r1, r0:]
        lo = G[r0:, r0:r1].T
        diff = max(diff, float(np.max(np.abs(up - lo))))
        blk = c * (up + lo)
        G[r0:r1, r0:] = blk
        G[r0:, r0:r1] = blk.T
    asym = diff / scale if scale > 0 else 0.0
    _check_green(G)
    return GreenMatrix(
        kind=gen.kind, grid=gen.grid, G=G, exit_rates=gen.exit_rates, asymmetry=asym
    )


# columns per block of the Cholesky factorization behind the few-column
# Green solves.  Each LAPACK call sees one diagonal block, so none copies a
# panel, and the work between blocks is matrix products.  Factoring and
# solving 33 columns at n = 256, 1024 and 2048 took 1.0-1.7, 11-12 and 56 ms
# with blocks of 64, against 5.2, 20 and 71 ms with blocks of 256 (2 vCPUs)
_CHOL_BLOCK = 64

# columns per storage panel of that factorization, which gathers and keeps
# -A one panel at a time, n (n + _CHOL_PANEL) / 2 doubles in all.  Solving
# 33 columns at n = 2048 (kind Z, mixture fixture, 2 vCPUs, median of 15
# interleaved) took 76.8, 73.9, 69.4 and 65.9 ms with panels of 64, 128,
# 256 and 512 columns, for 18.0, 18.5, 19.6 and 23.1 MB traced; the whole
# gathered matrix took 64-73 ms for 35.2 MB
_CHOL_PANEL = 256


def _blocks(w):
    """(k0, k1) of each _CHOL_BLOCK-column block of a panel w columns wide."""
    return [(k, min(k + _CHOL_BLOCK, w)) for k in range(0, w, _CHOL_BLOCK)]


def _cholesky_solve(op, idx, what):
    """The columns idx of M^{-1}, where M = -A is the negated generator of
    the structured form ``op`` and is symmetric positive definite.

    M = L L^T is factored left-looking (Golub & Van Loan, Matrix
    Computations, 4th ed., section 4.2) one storage panel of _CHOL_PANEL
    columns at a time.  Panel M[c0:, c0:c1] is gathered (``op.gather(c0,
    c1)``) only when it is reached, takes off the product of each earlier
    panel's rows, and is factored _CHOL_BLOCK columns at a time: its
    diagonal block by ``np.linalg.cholesky``, the rows below it multiplied by
    the inverse of that block's factor, and the inverse kept in the block's
    place.  So only the lower block triangle is held, about
    n (n + _CHOL_PANEL) / 2 doubles.  The unit columns idx then run through
    L by forward substitution, which sums over the panels to the left, and
    through L^T by back substitution, which reads the block's own panel.  A
    diagonal block that is not positive definite raises SolverError naming
    ``what``.
    """
    n = op.grid.n
    panels = []  # (c0, L[c0:, c0:c1] with each diagonal block inverted)
    for c0 in range(0, n, _CHOL_PANEL):
        P = op.gather(c0, min(c0 + _CHOL_PANEL, n))
        w = P.shape[1]
        for q0, Q in panels:
            R = Q[c0 - q0 :]
            P -= R @ R[:w].T
        for k0, k1 in _blocks(w):
            D = P[k0:, k0:k1]
            D -= P[k0:, :k0] @ P[k0:k1, :k0].T
            try:
                L = np.linalg.cholesky(D[: k1 - k0])
            except np.linalg.LinAlgError as e:
                raise SolverError(
                    f"{what}: the generator lost positive definiteness (the Cholesky "
                    f"factorization breaks down in rows {c0 + k0} to {c0 + k1 - 1})"
                ) from e
            D[: k1 - k0] = Li = np.linalg.inv(L)
            D[k1 - k0 :] = D[k1 - k0 :] @ Li.T
        panels.append((c0, P))
    X = np.zeros((n, idx.size))
    X[idx, np.arange(idx.size)] = 1.0
    for p, (c0, P) in enumerate(panels):
        Y = X[c0 : c0 + P.shape[1]]
        for q0, Q in panels[:p]:
            Y -= Q[c0 - q0 : c0 - q0 + len(Y)] @ X[q0 : q0 + Q.shape[1]]
        for k0, k1 in _blocks(P.shape[1]):
            Y[k0:k1] = P[k0:k1, k0:k1] @ (Y[k0:k1] - P[k0:k1, :k0] @ Y[:k0])
    for c0, P in reversed(panels):
        for k0, k1 in reversed(_blocks(P.shape[1])):
            Y = X[c0 + k0 : c0 + k1]
            Y[:] = P[k0:k1, k0:k1].T @ (Y - P[k1:, k0:k1].T @ X[c0 + k1 :])
    return X


def _green_block(op: StructuredGenerator, idx) -> np.ndarray:
    """``green_matrix(build_generator(ks, grid, kind)).G[np.ix_(idx, idx)]``
    for ascending distinct node indices ``idx``, from the structured form
    ``op`` of that generator and the columns idx of (-A)^{-1} alone.

    -A is gathered and factored one panel at a time (``_cholesky_solve``),
    which keeps its lower block triangle alone, so no n x n array is made.
    The two assemblies differ in their kill rates (closed tails here,
    quadrature tails there) and in how the diagonal is summed, so the block
    agrees with green_matrix's to about 1e-12 relative, not to the last
    bits.  The columns are refused as green_matrix refuses G (a non-finite
    or a non-positive entry anywhere in them); the columns left out go
    unchecked.  The block is symmetrized as green_matrix does,
    (0.5/dx) (B + B.T).
    """
    idx = np.asarray(idx)
    g = op.grid
    X = _cholesky_solve(op, idx, f"Green solve on ({g.a:g}, {g.b:g})")
    _check_green(X)
    B = X[idx]
    return (0.5 / g.dx) * (B + B.T)


def exit_time(green: GreenMatrix):
    """E[tau](x_i) = sum_j G[i][j] dx."""
    return green.G.sum(axis=1) * green.grid.dx


# -- exterior mesh and Poisson kernel ----------------------------------------


@dataclass
class ZGrid:
    """Exterior mesh: cell midpoints, widths, and the analytic-tail cuts.

    ``cut_hi`` is where the upper exterior switches to the closed power
    tail; ``cut_lo`` likewise for kind X (None when the lower exterior is
    the bounded set (0, a), which the mesh covers completely).
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    below: np.ndarray = field(repr=False)  # mask: exterior cell lies below the interval
    cut_lo: float | None
    cut_hi: float


def _graded_edges(start, width, m, reverse=False):
    # quartic grading toward `start`; cells of width ~ width/m^4 at the wall
    t = (np.arange(m + 1) / m) ** 4
    return start - width * t if reverse else start + width * t


def default_zgrid(grid: Grid, kind: str) -> ZGrid:
    """Exterior mesh tied to the interior resolution.

    Each side gets a quartic-graded zone one interval-width deep (so the
    kernel singularity at the wall is resolved far below the interior cell
    scale) plus a geometric zone out to Z_MAX_FACTOR interval-widths.
    Beyond that the callers integrate the kernel tail in closed form.
    """
    kind = _kind(kind)
    a, b = grid.a, grid.b
    width = b - a
    m = max(48, grid.n // 4)
    m2 = max(24, m // 3)
    cut_hi = b + Z_MAX_FACTOR * width

    up1 = _graded_edges(b, width, m)
    up2 = b + width * np.geomspace(1.0, Z_MAX_FACTOR, m2 + 1)
    up_edges = np.concatenate([up1, up2[1:]])

    if kind == "X":
        lo1 = _graded_edges(a, width, m, reverse=True)
        lo2 = a - width * np.geomspace(1.0, Z_MAX_FACTOR, m2 + 1)
        lo_edges = np.concatenate([lo1, lo2[1:]])[::-1]  # ascending
        cut_lo = a - Z_MAX_FACTOR * width
    else:
        # cover (0, a) entirely, graded toward the wall at a
        t = (np.arange(m + 1) / m) ** 4
        lo_edges = (a * (1.0 - t))[::-1]
        cut_lo = None

    def cells(edges):
        wdt = np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        keep = wdt > 0.0
        return mid[keep], wdt[keep]

    lo_n, lo_w = cells(lo_edges)
    up_n, up_w = cells(up_edges)
    nodes = np.concatenate([lo_n, up_n])
    wgt = np.concatenate([lo_w, up_w])
    below = np.concatenate([np.ones(lo_n.size, bool), np.zeros(up_n.size, bool)])
    return ZGrid(nodes=nodes, weights=wgt, below=below, cut_lo=cut_lo, cut_hi=cut_hi)


@dataclass
class PoissonTable:
    """Exit law of each interior node: density K on the exterior cells and
    closed tails beyond the mesh (tail_lo is zero unless kind X).  The wall
    node's extra kill mass dk (profile-weighted collocation) exits through
    the wall side: the first row's lower columns and tail carry 1 + dk/lo[0],
    the last row's upper ones 1 + dk/hi[-1].  So the harmonic extension of
    f = 1 with tail (1, 0), plus tail_lo, is row_mass() exactly."""

    kind: str
    grid: Grid
    zgrid: ZGrid = field(repr=False)
    K: np.ndarray = field(repr=False)  # exit density over exterior cells
    tail_lo: np.ndarray = field(repr=False)
    tail_hi: np.ndarray = field(repr=False)
    green: GreenMatrix = field(repr=False)
    ks: KernelSet = field(repr=False)

    def row_mass(self):
        return self.K @ self.zgrid.weights + self.tail_lo + self.tail_hi

    def mass_below(self):
        m = self.zgrid.below
        return self.K[:, m] @ self.zgrid.weights[m] + self.tail_lo

    def mass_near_walls(self, eps: float):
        """Exit mass per row landing within eps of either endpoint.

        Each exterior cell contributes the part of its width inside
        [a - eps, a] or [b, b + eps]; the density is taken flat across a cell.
        """
        g, zg = self.grid, self.zgrid
        lo = zg.nodes - 0.5 * zg.weights
        hi = zg.nodes + 0.5 * zg.weights
        near = np.clip(np.minimum(hi, g.a) - np.maximum(lo, g.a - eps), 0.0, None)
        near += np.clip(np.minimum(hi, g.b + eps) - np.maximum(lo, g.b), 0.0, None)
        return self.K @ near

    def cdf(self, i: int):
        """Exit-position CDF for row i: returns (z, F) step samples.

        z is the ascending exterior node sequence; F[m] is the exit
        probability mass at or below cell m (lower analytic tail included),
        normalized by the row mass.
        """
        z = self.zgrid.nodes
        pm = self.K[i] * self.zgrid.weights
        F = np.cumsum(pm) + self.tail_lo[i]
        return z, F / self.row_mass()[i]


def _rate_beyond(ks: KernelSet, green: GreenMatrix, cut_hi: float, p: float = 0.0):
    """Per-node rate of jumping beyond cut_hi (kind Z: also below -cut_hi),
    weighted by z^-p, with the last row scaled by 1 + dk/hi[-1]."""
    xs = green.grid.nodes()
    rate = ks.jump_tail_closed(cut_hi - xs, weight_exponent=p)
    if green.kind == "Z":
        rate = rate + ks.jump_tail_closed(cut_hi + xs, weight_exponent=p)
    _, hi, dk = green.exit_rates
    rate[-1] *= 1.0 + dk / hi[-1]
    return rate


def poisson_kernel(green: GreenMatrix, ks: KernelSet) -> PoissonTable:
    """Exit-position density table K[i][m] = sum_j dx G[i][j] kernel(x_j, z_m).

    The upper exterior beyond cut_hi enters through the closed kernel tail;
    for kind X the mirrored lower tail does the same.
    """
    grid = green.grid
    zg = default_zgrid(grid, green.kind)
    z = zg.nodes

    xs = grid.nodes()
    if green.kind == "Z":
        KERN = ks.jump_i(xs[:, None], z[None, :])
    else:
        KERN = ks.levy_j(xs[:, None] - z[None, :])

    lo, hi, dk = green.exit_rates
    s_lo = 1.0 + dk / lo[0]
    KERN[0, zg.below] *= s_lo
    KERN[-1, ~zg.below] *= 1.0 + dk / hi[-1]

    P = green.G * grid.dx  # = (-A)^{-1}
    K = P @ KERN

    tail_hi = P @ _rate_beyond(ks, green, zg.cut_hi)
    if green.kind == "X":
        lo_rate = ks.jump_tail_closed(xs - zg.cut_lo)
        lo_rate[0] *= s_lo
        tail_lo = P @ lo_rate
    else:
        tail_lo = np.zeros_like(tail_hi)

    return PoissonTable(
        kind=green.kind, grid=grid, zgrid=zg, K=K,
        tail_lo=tail_lo, tail_hi=tail_hi, green=green, ks=ks,
    )


def harmonic_extend(pt: PoissonTable, f, f_tail=None):
    """u(x_i) = sum_m K[i][m] f[m] w_m (+ declared tail term).

    ``f`` holds the data at the exterior mesh nodes; it must be
    nonnegative.  ``f_tail = (c, p)`` declares
    f(z) ~ c z^{-p} beyond cut_hi, integrated against the leading kernel
    tail (the shelf at cut_hi = many interval widths keeps this term tiny,
    so the leading order suffices).  The tail rate is tail_hi's, wall row
    scaled, so f = 1 with tail (1, 0) gives row_mass() - tail_lo exactly.
    """
    zg = pt.zgrid
    fz = np.asarray(f, dtype=float)
    if fz.shape != zg.nodes.shape:
        raise ConfigError("boundary data shape does not match the exterior mesh")
    if np.any(fz < 0.0):
        raise DomainError("harmonic extension needs nonnegative boundary data")
    u = pt.K @ (fz * zg.weights)
    if f_tail is not None:
        c, p = float(f_tail[0]), float(f_tail[1])
        if not c >= 0.0:  # nan fails too
            raise DomainError("tail coefficient must be nonnegative")
        rate = c * _rate_beyond(pt.ks, pt.green, zg.cut_hi, p)
        u = u + (pt.green.G * pt.grid.dx) @ rate
    return u


# -- exit statistics over (0, R) ----------------------------------------------


def default_shelf(R):
    """The absorbing shelf of a (0, R) solve given none: DEFAULT_SHELF R."""
    return DEFAULT_SHELF * R


@dataclass
class ExitAliveReport:
    """a -> 0 bracket for P_x(exit (0, R) through [R, inf) before dying at 0)."""

    x: np.ndarray
    value: np.ndarray
    bracket: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    per_a: tuple
    shrank: bool


class StructuredGenerator:
    """The negated generator -A of ``build_generator(ks, grid, kind)``, held
    as O(n) per-offset cell masses and its diagonal: applied to a block of
    columns by ``matvec``, written out whole by ``gather``, with its two exit
    columns ``exits``.

    With T = ``jump_tail_closed`` and x_i = a + (i + 1/2) dx, the cell
    mass of node j seen from node i is t[|i - j|], plus h[i + j] for kind Z:
      t[1] = c2 (the band), t[k] = T((k - 1/2) dx) - T((k + 1/2) dx),
      h[s] = T(2a + (s + 1/2) dx) - T(2a + (s + 3/2) dx), s < 2n - 1,
    the fold h entering the band as well, as in build_generator.  Kinds X
    and Y share the Toeplitz part t and have no fold.  That takes about n
    kernel powers per term (3n for kind Z), against about n^2 for the
    dense build.

    The same closed tails are the kill rates, through _kill_split: kind X
    reads T at x - a, which is T((k + 1/2) dx); kind Y reads it at x - a
    and x; kind Z at x - a, x + a and x + b, which is T(2a + (s + 1/2) dx)
    for s < 2n.  So no tail is integrated twice, and none by quadrature;
    the dense build's quadrature rates agree to about 3e-13 relative.
    ``exits`` is (n, 2): the rate of exiting above b, then below a, each
    with the wall correction dk at its wall node, so that the two exit
    routes partition the whole probability.

    The diagonal is the off-diagonal row sum plus the row sum of ``exits``,
    with each off-diagonal sum telescoped rather than added up: the
    Toeplitz part of one side with m neighbours is
    c2 + T(3 dx/2) - T((m + 1/2) dx) (c2 alone for m = 1), and kind Z's
    fold is T(x_i + a) - T(x_i + b) - h[2i].  A cumulative sum of h
    differenced instead put p_exit up to 2.1e-11 from a dense LU solve on
    the mixture's 4096-cell shelf, where the telescoped sums stay within
    1.3e-12.
    """

    def __init__(self, ks: KernelSet, grid: Grid, kind: str):
        self.kind = kind = _form(grid, kind)
        self.grid = grid
        n, dx = grid.n, grid.dx
        c2 = ks.band_coefficient(dx)
        # T((k + 1/2) dx) for k = 0 .. n - 1, then the kind's fold starts:
        # T(x_k) (kind Y), or T(2a + (s + 1/2) dx) for s = 0 .. 2n - 1 (kind Z)
        tw = ks.jump_tail_closed((np.arange(n) + 0.5) * dx)
        th = {
            "X": np.empty(0),
            "Y": ks.jump_tail_closed(grid.nodes()),
            "Z": ks.jump_tail_closed(2.0 * grid.a + (np.arange(2 * n) + 0.5) * dx),
        }[kind]
        t = np.zeros(n)
        t[1] = c2
        t[2:] = tw[1:-1] - tw[2:]

        lo, hi = _kill_split(np.concatenate([tw, th]), n, kind)
        self.exits = np.column_stack([hi, lo])
        self.exits[[-1, 0], [0, 1]] += ks.wall_correction(dx)
        m = np.arange(n)  # neighbours on the left of node i; n - 1 - i on the right
        side = np.where(m >= 1, c2, 0.0) + np.where(m >= 2, tw[1] - tw, 0.0)
        if kind == "Z":
            # the row sum with the fold's own-cell mass h[2i] kept in:
            # matvec applies the whole Hankel part and the diagonal takes
            # h[2i] back
            self._h = th[:-1] - th[1:]
            self._dd = side + side[::-1] + (th[:n] - th[n:]) + self.exits.sum(axis=1)
            self.diag = self._dd - self._h[::2]
        else:
            self._h = None
            self.diag = self._dd = side + side[::-1] + self.exits.sum(axis=1)

        # the band and the nearest offsets as a stencil; the far Toeplitz
        # tail (circulant of size 2n) and the fold (a correlation, with no
        # wrap at size 2n) share one FFT pair per product
        self._near = t[1 : _NEAR + 1]
        far = np.zeros(2 * n)
        far[_NEAR + 1 : n] = t[_NEAR + 1 :]
        far[n + 1 :] = far[n - 1 : 0 : -1]
        self._far_f = np.fft.rfft(far)
        self._fold_f = None if self._h is None else np.fft.rfft(self._h, 2 * n)
        self._t = t

    def matvec(self, X):
        """-A X for an (n, k) block X."""
        n = X.shape[0]
        Y = self._dd[:, None] * X
        for k, tk in enumerate(self._near, 1):
            Y[k:] -= tk * X[:-k]
            Y[:-k] -= tk * X[k:]
        F = np.fft.rfft(X, 2 * n, axis=0)
        P = self._far_f[:, None] * F
        if self._fold_f is not None:
            P += self._fold_f[:, None] * F.conj()
        Y -= np.fft.irfft(P, 2 * n, axis=0)[:n]
        return Y

    def gather(self, c0, c1):
        """-A[c0:, c0:c1] as one new array.  Row i of the Toeplitz part is a
        window of the vector (t[n-1], .., t[1], t[0], t[1], .., t[n-1]), and
        row i of the fold is the window h[i : i + n], so -A is written
        through strided views of t and h, cut to the columns c0:c1: no index
        array and no temporary."""
        n, t = self.grid.n, self._t
        w = c1 - c0
        M = np.empty((n - c0, w))
        np.negative(_windows(np.concatenate([t[:0:-1], t]), w)[c0:n][::-1], out=M)
        if self._h is not None:
            M -= _windows(self._h, w)[2 * c0 : n + c0]
        np.fill_diagonal(M, self.diag[c0:c1])
        return M

    def circulant_eigenvalues(self):
        """Eigenvalues of T. Chan's optimal circulant approximation of
        mean(diag) I minus the Toeplitz part: first column
        c[k] = ((n - k) a[k] + k a[n - k]) / n of the Toeplitz column a."""
        n = self._t.size
        col = -self._t
        col[0] = np.mean(self.diag)
        k = np.arange(n)
        c = ((n - k) * col + k * np.roll(col[::-1], 1)) / n
        return np.fft.rfft(c).real


_windows = np.lib.stride_tricks.sliding_window_view


def _pcg(op, B, what):
    """Solve op X = B for the columns of B by preconditioned conjugate
    gradients in lockstep; returns X and the number of iterations.

    A column stops at ||r|| <= _CG_RTOL ||b||.  A non-positive eigenvalue
    of the preconditioner, a curvature p^T A p <= 0 (the operator is not
    positive definite) and _CG_MAX_ITER iterations raise SolverError
    naming ``what``.
    """
    lam = op.circulant_eigenvalues()
    if not np.min(lam) > 0.0:
        raise SolverError(
            f"{what}: the circulant preconditioner has a non-positive eigenvalue "
            f"({np.min(lam):.3g})"
        )
    n = B.shape[0]

    def precondition(R):
        return np.fft.irfft(np.fft.rfft(R, axis=0) / lam[:, None], n, axis=0)

    X = np.zeros_like(B)
    R = B.copy()
    stop = _CG_RTOL * np.linalg.norm(B, axis=0)
    act = np.flatnonzero(np.linalg.norm(R, axis=0) > stop)  # columns still running
    Z = precondition(R[:, act])
    P = Z
    rz = np.vecdot(R[:, act], Z, axis=0)
    it = 0
    while act.size:
        if it == _CG_MAX_ITER:
            res = np.linalg.norm(R[:, act], axis=0) / np.linalg.norm(B[:, act], axis=0)
            raise SolverError(
                f"{what}: conjugate gradients did not converge in {_CG_MAX_ITER} "
                f"iterations (relative residual {np.max(res):.3g})"
            )
        it += 1
        Q = op.matvec(P)
        pq = np.vecdot(P, Q, axis=0)
        if not np.all(pq > 0.0):
            raise SolverError(
                f"{what}: the generator lost positive definiteness "
                f"(p^T A p = {np.min(pq):.3g} at iteration {it})"
            )
        alpha = rz / pq
        X[:, act] += alpha * P
        R[:, act] -= alpha * Q
        run = np.linalg.norm(R[:, act], axis=0) > stop[act]
        act, P, rz = act[run], P[:, run], rz[run]
        Z = precondition(R[:, act])
        rz_new = np.vecdot(R[:, act], Z, axis=0)
        P = Z + (rz_new / rz) * P
        rz = rz_new
    return X, it


def _shelf_solve(ks: KernelSet, a: float, R: float):
    """(grid, P, stats) for the kind Z problem on (a, R): P[:, 0] is the
    probability of exiting above R, P[:, 1] that of being absorbed at the
    shelf, and stats holds the solve's iteration count and its recomputed
    relative residual.  The right-hand sides are the operator's own exit
    columns.  No n x n array is made, and no jump tail is integrated.
    """
    n = int(np.clip(round(SHELF_CELLS * (R - a) / a), 256, SHELF_N_CAP))
    grid = Grid(a, R, n)
    op = StructuredGenerator(ks, grid, "Z")
    P, iters = _pcg(op, op.exits, f"exit solve failed at shelf a={a}")
    resid = np.linalg.norm(op.exits - op.matvec(P), axis=0) / np.linalg.norm(op.exits, axis=0)
    # -A 1 = up + down, so the two columns sum to 1 up to the solve's roundoff
    gap = float(np.max(np.abs(P[:, 0] + P[:, 1] - 1.0)))
    if not gap <= 1e-9:
        raise SolverError(
            f"exit solve at shelf a={a}: p_exit + p_shelf misses 1 by {gap:.3g}"
        )
    return grid, P, {"cg_iterations": iters, "residual": float(resid.max())}


def exit_alive_prob(
    ks: KernelSet,
    R: float,
    x,
    a_seq=None,
) -> ExitAliveReport:
    """Bracketed P_x(exit (0, R) alive), approaching the origin by shelves.

    The shelves are ``a_seq``, by default ``DEFAULT_A_SEQ`` times R.  For
    each shelf a the kind=Z problem on (a, R) is solved for the
    harmonic extension of the indicator of [R, inf) (a lower bound: paths
    absorbed at the shelf might still have escaped), and the complementary
    mass is bounded by the h(a)/h(R) escape factor from below the shelf
    (the upper bound).  The literal exterior integrals enter as exact
    per-node jump-tail rates in closed form, so no exterior mesh is
    involved, and for a stable exponent the answer depends on x/R alone
    (to about 5e-11 relative from R = 1e-8 to 1e12).

    Each shelf is solved matrix-free (``StructuredGenerator``, ``_pcg``): its
    generator is held as O(n) per-offset cell masses and never formed, and
    both columns run by circulant-preconditioned conjugate gradients with
    FFT products.  ``per_a`` records, per shelf, its cell count ``n``,
    the iteration count ``cg_iterations`` and the recomputed relative
    residual ``residual``.  A shelf that ``a_seq`` repeats raises
    ConfigError: it would be solved twice and show a refinement drift of
    0.  An operator that is not positive definite, a solve that does not
    converge within _CG_MAX_ITER iterations, and exit and shelf
    probabilities that do not sum to 1 within 1e-9, raise SolverError.
    """
    R = float(R)
    if not (0.0 < R < math.inf):
        raise DomainError(f"R must be positive and finite, got {R!r}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if a_seq is None:
        a_seq = [f * R for f in DEFAULT_A_SEQ]
    a_list = sorted((float(av) for av in a_seq), reverse=True)
    if not a_list or not all(0.0 < av < math.inf for av in a_list):
        raise ConfigError("a_seq must contain finite positive shelf values")
    if len(set(a_list)) < len(a_list):
        raise ConfigError(f"a_seq repeats the shelf {max(a_list, key=a_list.count)!r}")
    if not np.all((x_arr > 0.0) & (x_arr < R)):
        raise DomainError("evaluation points must lie in (0, R)")
    if not np.all(x_arr > 2.0 * a_list[0]):
        raise DomainError("evaluation points must sit well above the largest shelf")

    hR, *h_shelves = ks.h_comp([R, *a_list])
    lowers, uppers, per_a = [], [], []
    for a, ha in zip(a_list, h_shelves):
        grid, P, stats = _shelf_solve(ks, a, R)
        xs = grid.nodes()
        p_up = np.interp(x_arr, xs, P[:, 0])
        p_dn = np.interp(x_arr, xs, P[:, 1])
        corr = ha / hR
        lowers.append(p_up)
        uppers.append(p_up + (1.0 - p_up) * corr)
        per_a.append({"a": a, "n": grid.n, "p_exit": p_up, "p_shelf": p_dn, **stats})

    lower = np.maximum.reduce(lowers)
    upper = np.minimum.reduce(uppers)
    widths = [float(np.max(u - l)) for l, u in zip(lowers, uppers)]
    shrank = all(w2 <= w1 * (1.0 + 1e-9) for w1, w2 in zip(widths[:-1], widths[1:]))
    if not shrank:
        warnings.warn(
            "exit_alive_prob: bracket did not shrink along the shelf sequence",
            RuntimeWarning,
        )
    upper = np.maximum(upper, lower)
    return ExitAliveReport(
        x=x_arr,
        value=0.5 * (lower + upper),
        bracket=upper - lower,
        lower=lower,
        upper=upper,
        per_a=tuple(per_a),
        shrank=shrank,
    )


# -- comparability reductions --------------------------------------------------


def gauge_ratios(gX: GreenMatrix, gZ: GreenMatrix) -> tuple:
    """(inf, sup) of the entrywise ratio G^Z / G^X on a common grid, two floats."""
    if (gX.kind, gZ.kind) != ("X", "Z"):
        raise ConfigError("pass the two kinds in order (X, Z)")
    if gZ.grid != gX.grid:
        raise ConfigError("gauge ratios need a common grid")
    r = gZ.G / gX.G
    return float(r.min()), float(r.max())


def three_g_sup(green: GreenMatrix, ks: KernelSet) -> float:
    """The 3G constant: sup over node triples of
    G(x,y) G(y,z) / G(x,z) * dist(y)^2 / Phi(dist(y)), as a float.

    The weight tames the diagonal blow-up of the raw triple ratio; the
    supremum is a Kato-type constant expected finite and refinement-stable.
    """
    if green.kind != "X":
        raise ConfigError("the triple-ratio reduction is defined for kind X")
    G = green.G
    xs = green.grid.nodes()
    dist = np.minimum(xs - green.grid.a, green.grid.b - xs)
    wgt = dist * dist / ks.phi_cap(dist)
    # np.max keeps a nan, which Python's max folds away
    return float(np.max([
        (np.outer(G[:, k], G[k, :]) / G).max() * wgt[k] for k in range(xs.size)
    ]))


@dataclass(frozen=True)
class HarnackReport:
    c6: float
    window: tuple


def harnack_sup_ratio(ks: KernelSet, r: float, a_frac: float = 0.5, *, n: int = 512) -> HarnackReport:
    """Worst Poisson-kernel column ratio over the middle window.

    Geometry: solve kind Z on (a_frac r / 2, (3 - a_frac/2) r) and compare
    kernel rows across interior points of (a_frac r, (3 - a_frac) r).  The
    resulting constant dominates u(x1)/u(x2) for every nonnegative function
    harmonic across the window, whatever its exterior data.
    """
    if not (0.0 < r < math.inf):
        raise DomainError(f"r must be positive and finite, got {r!r}")
    if not (0.0 < a_frac < 1.0):
        raise ConfigError("a_frac must lie in (0, 1)")
    b1, b4 = 0.5 * a_frac * r, (3.0 - 0.5 * a_frac) * r
    grid = Grid(b1, b4, n)
    pt = poisson_kernel(green_matrix(build_generator(ks, grid, "Z")), ks)
    xs = grid.nodes()
    w1, w2 = a_frac * r, (3.0 - a_frac) * r
    mask = (xs > w1) & (xs < w2)
    if mask.sum() < 2:
        raise ConfigError("interior window holds fewer than two nodes")
    Kin = pt.K[mask]
    col_ratio = Kin.max(axis=0) / Kin.min(axis=0)
    tail = pt.tail_hi[mask]
    c6 = float(np.max([col_ratio.max(), tail.max() / tail.min()]))
    return HarnackReport(c6=c6, window=(w1, w2))


@dataclass(frozen=True)
class BoundaryData:
    """Exterior data with values in [0, 1]."""

    name: str
    fn: object = field(repr=False)
    tail: tuple | None  # (c, p) power tail beyond the mesh, or None


def default_boundary_fset(r: float):
    """Five qualitatively different data supported in [3r, inf).

    Every datum takes values in [0, 1]: the shelf bracket of
    ``bhp_sup_ratio`` bounds the mass that re-enters from below the shelf
    by its sup, and takes that sup to be 1.
    """
    s = 3.0 * r

    def step(lo, hi):
        return lambda z: ((z >= lo) & (z <= hi)).astype(float)

    bump = lambda z: np.where(z >= s, np.exp(-(((z - 4.0 * r) / (0.5 * r)) ** 2)), 0.0)
    power = lambda z: np.where(z >= s, (np.maximum(z, s) / s) ** -3.0, 0.0)
    return [
        BoundaryData("step-3r-4r", step(s, 4.0 * r), None),
        BoundaryData("step-4r-6r", step(4.0 * r, 6.0 * r), None),
        BoundaryData("bump-4r", bump, None),
        BoundaryData("power-tail", power, (s**3.0, 3.0)),
        BoundaryData("step-3r-3.3r", step(s, 3.3 * r), None),
    ]


@dataclass(frozen=True)
class BhpReport:
    c7: float
    c7_upper: float
    per_f: tuple
    a: float  # the shelf


def bhp_sup_ratio(
    ks: KernelSet, r: float, lambda1: float = DEFAULT_LAMBDA1, *, n: int = 512
) -> BhpReport:
    """Boundary ratio constant: sup of u(x) h(y) / (u(y) h(x)) near the origin.

    Solves kind Z on (a, 3r) with a shelf of SHELF_CELLS cells, a = 12 r / n,
    extends each datum of ``default_boundary_fset(r)`` harmonically, and
    compares the profile to h over every node below lambda1 r.  A shelf not
    below lambda1 r / 4 (n <= 48 / lambda1) raises ConfigError before any
    solve.  The shelf correction gives a bracketed variant: paths absorbed
    below a could still reach the data, adding at most
    mass_below * h(a)/h(3r) * sup f to u, with sup f = 1 for every datum.
    """
    if not (0.0 < r < math.inf):
        raise DomainError(f"r must be positive and finite, got {r!r}")
    if not (0.0 < lambda1 < 0.5):
        raise ConfigError("lambda1 must lie in (0, 1/2)")
    check_integer("n", n, 1)
    a = SHELF_CELLS * (3.0 * r) / n
    if not (0.0 < a < lambda1 * r / 4.0):
        raise ConfigError("shelf a must be small against the probe window")

    grid = Grid(a, 3.0 * r, n)
    pt = poisson_kernel(green_matrix(build_generator(ks, grid, "Z")), ks)
    zg = pt.zgrid
    xs = grid.nodes()
    wmask = xs < lambda1 * r
    if wmask.sum() < 2:
        raise ConfigError("probe window holds fewer than two nodes")
    h = ks.h_comp(np.append(xs[wmask], [a, 3.0 * r]))
    h_vec = h[:-2]
    shelf_corr = h[-2] / h[-1]
    dmass = pt.mass_below()[wmask]

    per_f = []
    for bd in default_boundary_fset(r):
        u = harmonic_extend(pt, bd.fn(zg.nodes), f_tail=bd.tail)
        uw = u[wmask]
        if not np.min(uw) > 0.0:  # a nan is refused too
            raise SolverError(f"boundary datum {bd.name} is invisible from the window")
        rho = uw / h_vec
        sup_f = float(rho.max() / rho.min())
        rho_up = (uw + dmass * shelf_corr) / h_vec
        sup_f_up = float(rho_up.max() / rho.min())
        per_f.append({"name": bd.name, "sup": sup_f, "sup_upper": sup_f_up})

    return BhpReport(
        c7=float(np.max([f["sup"] for f in per_f])),
        c7_upper=float(np.max([f["sup_upper"] for f in per_f])),
        per_f=tuple(per_f),
        a=a,
    )


def small_interval_lower(
    ks: KernelSet,
    R: float,
    lambda1: float = DEFAULT_LAMBDA1,
    a: float | None = None,
    *,
    n: int = 512,
) -> tuple:
    """Certified floor lambda2 and its halved-shelf companion, two floats:
    the min of G^Z / h(R) over the nodes of one window (a, lambda1 R), with
    G^Z on n cells of (a, R) and then of (a/2, R).  The shelf a defaults to
    ``default_shelf(R)``.  Domain monotonicity (the (a, R) Green function
    sits below the (0, R) one) makes each a lower certificate for the
    shelf-free object, and the second >= the first.  Each grid solves for
    its window's columns alone (``_green_block``), and a window without a
    node raises ConfigError before the solve.  The positivity and
    finiteness guards read those columns, every row of them: an entry of
    G with both nodes outside the window is neither solved for nor checked.
    """
    if not (0.0 < R < math.inf):
        raise DomainError(f"R must be positive and finite, got {R!r}")
    if not (0.0 < lambda1 < 0.5):
        raise ConfigError("lambda1 must lie in (0, 1/2)")
    if a is None:
        a = default_shelf(R)
    if not (0.0 < a < lambda1 * R / 4.0):
        raise ConfigError("shelf a must satisfy a < lambda1 R / 4")
    hR = ks.h_comp(R)
    floors = []
    for shelf in (a, 0.5 * a):
        grid = Grid(shelf, R, n)
        xs = grid.nodes()
        window = np.flatnonzero((xs > a) & (xs < lambda1 * R))
        if window.size < 1:
            raise ConfigError("no grid nodes inside the probe window")
        G = _green_block(StructuredGenerator(ks, grid, "Z"), window)
        floors.append(float(G.min() / hR))
    return tuple(floors)


# -- refinement diagnostics ----------------------------------------------------


def _probes(grid: Grid):
    """The N_PROBE probes a + (b - a)(k + 1/2)/N_PROBE, the node i of each
    probe's interpolation cell (x_i, x_i+1), and the probe's offset in it
    in cells, clipped to [0, 1]."""
    xs = grid.nodes()
    px = grid.a + (grid.b - grid.a) * (np.arange(N_PROBE) + 0.5) / N_PROBE
    i = np.clip(np.searchsorted(xs, px) - 1, 0, grid.n - 2)
    t = np.clip((px - xs[i]) / grid.dx, 0.0, 1.0)
    return px, i, t


def _probe_index(grid: Grid):
    """The nodes _bilinear reads, ascending: both ends of every probe's
    cell, at most 2 N_PROBE of them."""
    _, i, _ = _probes(grid)
    return np.union1d(i, i + 1)


@dataclass(frozen=True)
class GreenBlock:
    """The principal block B = G[np.ix_(idx, idx)] of the Green matrix on
    ``grid``, for ascending node indices ``idx``: what a caller that reads
    some entries of G holds instead of a GreenMatrix.  With idx every node,
    B is the whole of G."""

    grid: Grid
    idx: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)

    def at(self, i: int) -> float:
        """G[i, i] for a node i in idx."""
        p = int(np.searchsorted(self.idx, i))
        if p == self.idx.size or self.idx[p] != i:
            raise ConfigError(f"node {i} is not in the block")
        return float(self.B[p, p])


def probe_block(op: StructuredGenerator, extra=()) -> GreenBlock:
    """The block of G on the nodes green_drift reads (both ends of every
    probe's cell, at most 2 N_PROBE of them) and on the nodes ``extra``,
    solved for on the structured generator ``op`` (``_green_block``), so no
    dense generator is built.  With every node in ``extra`` the block is
    the whole of G.
    """
    idx = np.union1d(_probe_index(op.grid), np.asarray(extra, dtype=np.intp))
    return GreenBlock(op.grid, idx, _green_block(op, idx))


def _bilinear(block: GreenBlock):
    """The Green function at every pair of probes, interpolated from a
    block whose idx holds ``_probe_index(block.grid)``."""
    grid, B, idx = block.grid, block.B, block.idx
    px, i, t = _probes(grid)
    p = np.searchsorted(idx, i)  # node i sits at p in idx, node i + 1 at p + 1
    pi, pj = np.meshgrid(p, p, indexing="ij")
    ti, tj = np.meshgrid(t, t, indexing="ij")
    out = (
        (1 - ti) * (1 - tj) * B[pi, pj]
        + ti * (1 - tj) * B[pi + 1, pj]
        + (1 - ti) * tj * B[pi, pj + 1]
        + ti * tj * B[pi + 1, pj + 1]
    )
    # on the diagonal, bilinear cells straddle the |x - y| kink of the
    # Green function; interpolate along the diagonal section instead.  Each
    # probe lies in its own cell, whose two ends idx holds, so the section
    # through idx's nodes alone interpolates as the whole diagonal does
    k = np.arange(px.size)
    out[k, k] = np.interp(px, grid.nodes()[idx], np.diag(B))
    return out


def block_drift(coarse: GreenBlock, fine: GreenBlock) -> float:
    """green_drift between two blocks on one interval, each holding the
    nodes around the probes: a ``probe_block``, or the whole of G."""
    ga, gb = coarse.grid, fine.grid
    if (ga.a, ga.b) != (gb.a, gb.b):
        raise ConfigError("refinement drift needs a common interval")
    Pc, Pf = _bilinear(coarse), _bilinear(fine)
    return float(np.max(np.abs(Pc - Pf) / Pf))


def green_drift(coarse: GreenMatrix, fine: GreenMatrix) -> float:
    """Sup relative Green difference over a fixed interior probe lattice.

    Probes at a + (b - a)(k + 1/2)/N_PROBE with interpolation on both
    lattices; comparing raw corner entries instead would pin distinct
    continuum points against each other and never converge.  Each matrix
    is read as the block of every node; the interpolation reads only the
    nodes around the probes, which are all that a ``probe_block`` holds.
    """
    coarse, fine = (GreenBlock(g.grid, np.arange(g.grid.n), g.G) for g in (coarse, fine))
    return block_drift(coarse, fine)
