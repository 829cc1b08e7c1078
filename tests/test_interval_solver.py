import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sbmpot import (
    ConfigError,
    DomainError,
    Grid,
    KernelSet,
    PhiSpec,
    QuadratureError,
    SolverError,
    bhp_sup_ratio,
    build_generator,
    default_boundary_fset,
    default_zgrid,
    exit_alive_prob,
    exit_time,
    gauge_ratios,
    green_drift,
    green_matrix,
    harmonic_extend,
    harnack_sup_ratio,
    poisson_kernel,
    small_interval_lower,
    three_g_sup,
)
from sbmpot import interval_solver
from sbmpot.interval_solver import (
    _BLOCK,
    _CG_MAX_ITER,
    _CHOL_BLOCK,
    _CHOL_PANEL,
    _TAIL_GAP_MAX,
    GreenBlock,
    StructuredGenerator,
    _cholesky_solve,
    _exit_rates,
    _green_block,
    _kill_split,
    _probe_index,
    _shelf_solve,
    block_drift,
    probe_block,
)

from oracles import (
    band_coefficient,
    bgr_I,
    bgr_density,
    bgr_green,
    bgr_killed_exit_alive,
    bgr_killed_green,
    bgr_wall_mass,
    dense_generator_matrix,
    dense_green_matrix,
    full_green_drift,
    getoor_exit,
    wall_correction,
)


@pytest.fixture(scope="module")
def green_x_256(stable_ks):
    return green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 256), "X"))


@pytest.fixture(scope="module")
def poisson_x_256(stable_ks, green_x_256):
    return poisson_kernel(green_x_256, stable_ks)


def test_grid_validation():
    g = Grid(1.0, 2.0, 8)
    assert g.dx == pytest.approx(0.125)
    assert np.all((g.nodes() > 1.0) & (g.nodes() < 2.0))
    with pytest.raises(ConfigError):
        Grid(-0.5, 1.0, 8)
    with pytest.raises(ConfigError):
        Grid(2.0, 1.0, 8)
    with pytest.raises(ConfigError):
        Grid(1.0, 2.0, 0)
    # a float or a bool is no cell count, though 256.0 == 256 and True == 1
    for n in (256.0, True, "256"):
        with pytest.raises(ConfigError, match="n must be an integer"):
            Grid(1.0, 2.0, n)
    assert Grid(1.0, 2.0, np.int64(256)).n == 256
    with pytest.raises(ConfigError):
        Grid(1.0, math.inf, 8)


def test_generator_kind_validation(stable_ks):
    with pytest.raises(ConfigError):
        build_generator(stable_ks, Grid(1.0, 2.0, 16), "W")


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("kind, a", [("X", 1.0), ("Y", 1.0), ("Z", 1.0), ("X", 0.0)])
def test_kill_rate_is_the_exterior_jump_tail(request, monkeypatch, ks_name, kind, a):
    ks = request.getfixturevalue(ks_name)
    grid = Grid(a, a + 1.0, 64)
    gen = build_generator(ks, grid, kind)
    # the diagonal closes every row on the kill rate lo + hi, plus dk at the walls
    lo, hi, dk = gen.exit_rates
    kappa = lo + hi
    kappa[[0, -1]] += dk
    np.testing.assert_allclose(-gen.A @ np.ones(grid.n), kappa, rtol=1e-12)
    calls = []
    real = ks.jump_tail
    monkeypatch.setattr(ks, "jump_tail", lambda t, c: calls.append(t) or real(t, c))
    lo, hi, dk = _exit_rates(ks, grid, kind)
    # one jump_tail call per generator; the rates above are the wall
    # distances reversed
    assert len(calls) == 1
    if kind == "X":
        np.testing.assert_array_equal(hi, lo[::-1])
    # the generator keeps the split it was built from, bit for bit
    np.testing.assert_array_equal(gen.exit_rates[0], lo)
    np.testing.assert_array_equal(gen.exit_rates[1], hi)
    assert gen.exit_rates[2] == dk
    # the rates are the jump tails into the killing set, in closed form
    T, xs, b = ks.jump_tail_closed, grid.nodes(), grid.b
    lo_want = {"X": T(xs - a), "Y": T(xs - a) - T(xs), "Z": T(xs - a) - T(xs + a)}[kind]
    hi_want = T(b - xs) + (T(xs + b) if kind == "Z" else 0.0)
    np.testing.assert_allclose(lo, lo_want, rtol=1e-9)
    np.testing.assert_allclose(hi, hi_want, rtol=1e-9)


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
def test_kill_rates_refuse_quadrature_tails_that_lost_their_digits(request, ks_name):
    # on (r/4, 11r/4) the quadrature tails sit about 4e-15 from the closed
    # ones at r = 1 and 1e-9 or less at 1e4, where they pass as they are;
    # at r = 1e8 they are 9e-4 (mixture) to 0.999 (stable 0.75) off
    ks = request.getfixturevalue(ks_name)
    for r in (1.0, 1e4):
        grid = Grid(0.25 * r, 2.75 * r, 256)
        xs, a, b = grid.nodes(), grid.a, grid.b
        T = ks.jump_tail(np.concatenate([xs - a, xs + a, xs + b]), 50.0 * (b - a))
        lo, hi, dk = _exit_rates(ks, grid, "Z")
        for got, want in zip((lo, hi), _kill_split(T, grid.n, "Z")):
            assert np.array_equal(got, want)
    with pytest.raises(SolverError, match=r"\(2\.5e\+07, 2\.75e\+08\).*ROADMAP item 4") as e:
        _exit_rates(ks, Grid(0.25e8, 2.75e8, 256), "Z")
    gap = float(str(e.value).split(" sit ")[1].split()[0])
    assert gap > 1e3 * _TAIL_GAP_MAX
    with pytest.raises(SolverError, match="kill rates"):
        harnack_sup_ratio(ks, 1e8, n=64)


# n below, at and above one row block, and a non-multiple of it
_BLOCK_NS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 4 * _BLOCK + 44)


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize(
    "kind, a, n",
    # and the wall grid (0, 2) of kind X; and, on a grid from near the
    # origin, the fewest cells a generator takes and sizes of a few and of
    # many blocks
    [(kind, 1.0, n) for kind in "XYZ" for n in _BLOCK_NS]
    + [("X", 0.0, _BLOCK_NS[-1])]
    + [(kind, 0.004, n) for kind in "XYZ" for n in (8, 63, 65, 200, 1000, 1100)],
)
def test_blocked_assembly_equals_the_dense_one(request, ks_name, kind, a, n):
    ks = request.getfixturevalue(ks_name)
    grid = Grid(a, 2.0, n)
    A = build_generator(ks, grid, kind).A
    assert np.array_equal(A, dense_generator_matrix(ks, grid, kind))


def test_generator_with_cells_wider_than_two(stable_ks):
    # the own-cell distance is a placeholder that must stay a valid tail start
    grid = Grid(1.0, 41.0, 8)
    gen = build_generator(stable_ks, grid, "Z")
    assert np.all(np.isfinite(gen.A))
    np.testing.assert_array_equal(gen.A, gen.A.T)


def test_unconverged_solver_quadrature_raises(stable_spec, quad_contract):
    ks = KernelSet(stable_spec)
    ks._coefs()  # the jump coefficients converge under the fixed contract
    quad_contract(abs_tol=1e-300, rel_tol=0.0, max_evals=100)
    with pytest.raises(QuadratureError, match="band coefficient"):
        build_generator(ks, Grid(1.0, 2.0, 64), "X")
    with pytest.raises(QuadratureError, match="wall correction"):
        ks.wall_correction(1.0 / 64)


def test_poisson_kernel_reuses_the_generator_exit_rates(stable_spec, monkeypatch):
    # the Green matrix carries its generator's (lo, hi, dk) split, so the
    # Poisson table makes no second wall-correction quadrature
    calls = []
    real = KernelSet.wall_correction
    monkeypatch.setattr(
        KernelSet, "wall_correction", lambda ks, dx: calls.append(dx) or real(ks, dx)
    )
    ks = KernelSet(stable_spec)
    harnack_sup_ratio(ks, 1.0, n=256)
    assert len(calls) == 1
    # and the table is the one a fresh split gives, bit for bit
    grid = Grid(0.25, 2.75, 256)  # harnack_sup_ratio's geometry at r = 1
    green = green_matrix(build_generator(ks, grid, "Z"))
    fresh = dataclasses.replace(green, exit_rates=_exit_rates(ks, grid, "Z"))
    pt, want = poisson_kernel(green, ks), poisson_kernel(fresh, ks)
    for name in ("K", "tail_lo", "tail_hi"):
        np.testing.assert_array_equal(getattr(pt, name), getattr(want, name))


def test_green_symmetric_positive(green_x_256):
    G = green_x_256.G
    assert np.all(G > 0.0)
    assert np.max(np.abs(G - G.T)) / np.max(G) < 1e-10
    assert green_x_256.asymmetry < 1e-10


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("n", [8, _BLOCK - 1, _BLOCK, _BLOCK + 1, 200, 1000])
@pytest.mark.parametrize("kind", "XYZ")
def test_green_matrix_equals_the_dense_one(request, ks_name, kind, n):
    # in-place negation and row-block symmetrization against whole-matrix
    # expressions, on either side of a block boundary and with a last
    # partial block
    ks = request.getfixturevalue(ks_name)
    gen = build_generator(ks, Grid(1.0, 2.0, n), kind)
    green = green_matrix(gen)
    G, asym = dense_green_matrix(gen.A, gen.grid.dx)
    assert np.array_equal(green.G, G)
    assert green.asymmetry == asym


# a solve for some columns on the structured generator and green_matrix on
# the dense one are two assemblies (closed against quadrature kill rates, a
# telescoped against a summed diagonal) and two factorizations (Cholesky
# against LU): at n <= 1000 their Green entries sat at most 1.32e-12
# relative apart (X, Y and Z on (1, 2), both fixtures)
_SOLVE_RTOL = 1.5e-12


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("n", [8, _BLOCK - 1, _BLOCK, _BLOCK + 1, 200, 1000])
@pytest.mark.parametrize("kind", "XYZ")
def test_green_block_is_the_green_matrix_block(request, ks_name, kind, n):
    # the probes' nodes plus the middle one (what `solve green` reads), a
    # window (what small_interval_lower reads), a lone node and every node,
    # each from one solve for its columns; the sizes straddle the blocks of
    # the factorization as well as those of the assembly
    assert _CHOL_BLOCK == _BLOCK
    ks = request.getfixturevalue(ks_name)
    grid = Grid(1.0, 2.0, n)
    G = green_matrix(build_generator(ks, grid, kind)).G
    op = StructuredGenerator(ks, grid, kind)
    xs = grid.nodes()
    for idx in (
        probe_block(op, [n // 2]).idx,
        np.flatnonzero((xs > 1.1) & (xs < 1.3)),
        np.array([n // 3]),
        np.arange(n),
    ):
        np.testing.assert_allclose(
            _green_block(op, idx), G[np.ix_(idx, idx)], rtol=_SOLVE_RTOL, atol=0.0
        )


def test_probe_block_solves_a_generator_for_the_green_matrix_block(stable_ks):
    grid = Grid(1.0, 2.0, 200)
    green = green_matrix(build_generator(stable_ks, grid, "Z"))
    solved = probe_block(StructuredGenerator(stable_ks, grid, "Z"), [100, 3])
    idx = np.union1d(_probe_index(grid), [3, 100])
    assert np.array_equal(solved.idx, idx)
    np.testing.assert_allclose(solved.B, green.G[np.ix_(idx, idx)], rtol=_SOLVE_RTOL, atol=0.0)
    p = np.searchsorted(idx, [100, 3])
    assert solved.at(100) == solved.B[p[0], p[0]] and solved.at(3) == solved.B[p[1], p[1]]
    for i in (2, 199, 200):
        with pytest.raises(ConfigError, match=f"node {i} is not in the block"):
            solved.at(i)


def test_green_block_solves_only_its_columns(stable_ks, monkeypatch):
    # one factorization, gathered one panel at a time, and a solve for the
    # 33 unit columns; no LAPACK call sees more than one diagonal block, so
    # none copies a panel (np.linalg.solve would, where tracemalloc does not
    # see it).  Only the lower block triangle is kept, n (n + 256) / 2
    # doubles, and the peak is at the last panel, which holds that plus one
    # more 256 x 256 block for the product of the panels to its left: 0.69 of
    # an n x n array at n = 1024 (0.58 at 2048), against 1.10 when -A was
    # gathered whole
    n = 1024
    op = StructuredGenerator(stable_ks, Grid(1.0, 2.0, n), "Z")
    idx = np.union1d(_probe_index(op.grid), [n // 2])
    calls, panels, sizes = [], [], []
    real, gather = interval_solver._cholesky_solve, op.gather

    def counted(op, cols, what):
        calls.append((op.grid.n, cols.tolist()))
        return real(op, cols, what)

    def sized(f):
        return lambda A: sizes.append(A.shape[0]) or f(A)

    monkeypatch.setattr(interval_solver, "_cholesky_solve", counted)
    monkeypatch.setattr(op, "gather", lambda c0, c1: panels.append((c0, c1)) or gather(c0, c1))
    monkeypatch.setattr(np.linalg, "cholesky", sized(np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "inv", sized(np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", None)
    tracemalloc.start()
    try:
        _green_block(op, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [(n, idx.tolist())]
    assert panels == [(c, c + _CHOL_PANEL) for c in range(0, n, _CHOL_PANEL)]
    assert sizes and max(sizes) == _CHOL_BLOCK
    assert peak < 0.7 * 8 * n**2


def test_green_block_of_every_node_symmetrizes_the_solved_columns_in_place(stable_ks):
    # with idx every node the solved columns are the block, symmetrized in
    # place: bitwise (0.5/dx) (X + X.T), and no n x n array beyond the
    # solve's own, so the peak is _cholesky_solve's (1.88 of an n x n array
    # at n = 1024; a row copy X[idx] and B + B.T took it to 3.01)
    n = 1024
    op = StructuredGenerator(stable_ks, Grid(1.0, 2.0, n), "Z")
    idx = np.arange(n)
    out, peak = [], []
    for solve in (lambda: _cholesky_solve(op, idx, "test"), lambda: _green_block(op, idx)):
        tracemalloc.start()
        try:
            out.append(solve())
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    X, B = out
    assert np.array_equal(B, (0.5 / op.grid.dx) * (X + X.T))
    assert peak[1] < peak[0] + 0.05 * 8 * n**2, [p / (8 * n**2) for p in peak]


@pytest.mark.parametrize("kind", "XYZ")
@pytest.mark.parametrize("n", [_CHOL_PANEL - 1, _CHOL_PANEL, _CHOL_PANEL + 1, 600])
def test_gather_of_a_panel_is_the_slice_of_the_whole(stable_ks, kind, n):
    op = StructuredGenerator(stable_ks, Grid(1.0, 2.0, n), kind)
    M = op.gather(0, n)
    assert M.shape == (n, n)
    for c0 in range(0, n, _CHOL_PANEL):
        c1 = min(c0 + _CHOL_PANEL, n)
        assert np.array_equal(op.gather(c0, c1), M[c0:, c0:c1])
    assert np.array_equal(op.gather(5, 7), M[5:, 5:7])


@pytest.mark.parametrize(
    "n",
    [1, 7, _CHOL_BLOCK - 1, _CHOL_BLOCK, _CHOL_BLOCK + 1, 3 * _CHOL_BLOCK + 5,
     _CHOL_PANEL - 1, _CHOL_PANEL, _CHOL_PANEL + 1, 3 * _CHOL_PANEL + 5],
)
def test_cholesky_solve_is_the_inverse(n, monkeypatch):
    # against numpy's inverse and factor of a random well-conditioned SPD
    # matrix; one, some and every column, across the edges of the blocks and
    # of the panels.  The factor is held by the diagonal blocks LAPACK
    # returns, each of which the solve then replaces by its inverse
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    M0 = B @ B.T / n + np.eye(n)
    want, L = np.linalg.inv(M0), np.linalg.cholesky(M0)
    factors, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda D: factors.append(cholesky(D)) or factors[-1])
    for idx in (np.array([n // 2]), np.arange(0, n, 3), np.arange(n)):
        factors.clear()
        X = _cholesky_solve(_hand_op(-M0), idx, "test")
        np.testing.assert_allclose(X, want[:, idx], rtol=0.0, atol=1e-13 * np.max(want))
        k0 = 0
        for F in factors:
            k1 = k0 + F.shape[0]
            np.testing.assert_allclose(F, L[k0:k1, k0:k1], rtol=0.0, atol=1e-13 * np.max(L))
            k0 = k1
        assert k0 == n


def test_cholesky_solve_names_the_block_that_breaks_down():
    # in the second block of the first panel, and in the second panel
    for row in (_CHOL_BLOCK + 5, _CHOL_PANEL + _CHOL_BLOCK + 5):
        M = np.eye(3 * _CHOL_PANEL)
        M[row, row] = -1.0
        k0 = row - row % _CHOL_BLOCK
        rows = f"rows {k0} to {k0 + _CHOL_BLOCK - 1}"
        with pytest.raises(
            SolverError, match=f"^solve: the generator lost positive definiteness .*{rows}"
        ):
            _cholesky_solve(_hand_op(-M), np.arange(3), "solve")


def test_green_matrix_makes_one_n_by_n_array(stable_ks):
    # the result is 8 MB at n = 1024; whole-matrix expressions made four
    gen = build_generator(stable_ks, Grid(1.0, 2.0, 1024), "Z")
    tracemalloc.start()
    try:
        green_matrix(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * gen.grid.n**2


def _hand_built(A):
    A = np.array(A, dtype=float)
    grid = Grid(1.0, 2.0, A.shape[0])
    zero = np.zeros(grid.n)
    return interval_solver.GeneratorMatrix("X", grid, A, (zero, zero, 0.0))


def _hand_op(A):
    # what _green_block reads of a StructuredGenerator: its grid and the
    # panels -A[c0:, c0:c1], each a new array
    A = np.array(A, dtype=float)
    return SimpleNamespace(
        grid=Grid(1.0, 2.0, A.shape[0]), gather=lambda c0, c1: -A[c0:, c0:c1]
    )


# the two routes to Green entries, the whole matrix and a block of its
# columns on the structured form, refuse alike but for a generator that is
# not negative definite: green_matrix's LU inverts a symmetric indefinite
# one, which the Cholesky factorization refuses by name
_ROUTES = (
    lambda A: green_matrix(_hand_built(A)),
    lambda A: _green_block(_hand_op(A), np.arange(len(A))),
)


def test_green_matrix_refuses_a_singular_generator():
    with pytest.raises(SolverError, match="generator inversion failed"):
        _ROUTES[0](-np.ones((3, 3)))
    with pytest.raises(SolverError, match=r"\(1, 2\): the generator lost positive definiteness"):
        _ROUTES[1](-np.ones((3, 3)))


def test_green_matrix_refuses_a_non_finite_inverse():
    A = -4.0 * np.eye(3) + 1.0
    A[2, 1] = np.nan
    for route in _ROUTES:
        # OpenBLAS's Cholesky carries a nan into the factor; a LAPACK that
        # tests each pivot for nan refuses it there
        with pytest.raises(SolverError, match="non-finite entries|lost positive definiteness"):
            route(A)


def test_green_matrix_refuses_a_negative_entry():
    # inv([[2, 1], [1, 2]]) = [[2, -1], [-1, 2]] / 3, and [[2, 1], [1, 2]]
    # is positive definite, so the Cholesky route reaches the guard too
    for route in _ROUTES:
        with pytest.raises(SolverError, match="lost positivity"):
            route(-np.array([[2.0, 1.0], [1.0, 2.0]]))


@pytest.mark.parametrize("i, j", [(0, 0), (64, 0), (0, 64), (64, 64), (63, 64), (64, 63)])
@pytest.mark.parametrize("bad, match", [(np.nan, "non-finite"), (-3.0, "lost positivity")])
def test_green_matrix_guards_read_every_entry(monkeypatch, i, j, bad, match):
    # one bad entry of (-A)^{-1}, in the first block or across the boundary
    # of the last, partial one (65 = _BLOCK + 1 rows), reaches its guard
    n = _BLOCK + 1
    inv = -np.ones((n, n))
    inv[i, j] = -bad
    monkeypatch.setattr(np.linalg, "inv", lambda A: inv.copy())
    with pytest.raises(SolverError, match=match):
        green_matrix(_hand_built(-np.eye(n)))


@pytest.mark.parametrize("i, j", [(0, 0), (64, 0), (0, 64), (64, 64), (63, 64), (64, 63)])
@pytest.mark.parametrize("bad, match", [(np.nan, "non-finite"), (-3.0, "lost positivity")])
def test_green_block_guards_read_every_solved_entry(monkeypatch, i, j, bad, match):
    # the bad entry's column j alone is solved for, so its row i lies
    # outside the block but inside the solved column, where the guard reads
    n = _BLOCK + 1
    inv = -np.ones((n, n))
    inv[i, j] = -bad
    monkeypatch.setattr(interval_solver, "_cholesky_solve", lambda op, idx, what: -inv[:, idx])
    op = _hand_op(-np.eye(n))
    with pytest.raises(SolverError, match=match):
        _green_block(op, np.array([j]))
    # and a block that leaves column j out never sees it
    _green_block(op, np.array([(j + 2) % n, (j + 3) % n]))


def test_exit_time_matches_interval_exit_law(stable_ks):
    # mean exit time of the free stable process from an interval
    grid = Grid(1.0, 2.0, 256)
    E = exit_time(stable_ks, grid, "X")
    xs = grid.nodes()
    for x in (1.5, 1.25):
        want = getoor_exit(1.5, 0.5, x - 1.5)
        got = float(np.interp(x, xs, E))
        assert got == pytest.approx(want, rel=1e-2)


def test_exit_time_shape(stable_ks):
    E = exit_time(stable_ks, Grid(1.0, 2.0, 256), "X")
    assert np.all(E > 0.0)
    # decays toward both walls
    assert E[0] < E[len(E) // 2] and E[-1] < E[len(E) // 2]


@pytest.mark.parametrize("kind", ["X", "Z"])
def test_exit_time_is_scale_free(stable_ks, kind):
    # the structured generator's kill rates are closed tails, so for a
    # stable 0.75 process E scales as R^(2 delta): (1e8, 2e8) reads 1e12
    # times (1, 2) (at most 6.8e-14 apart at n = 1024)
    for n in (256, 1024):
        E1 = exit_time(stable_ks, Grid(1.0, 2.0, n), kind)
        E8 = exit_time(stable_ks, Grid(1e8, 2e8, n), kind)
        np.testing.assert_allclose(E8, 1e12 * E1, rtol=1e-9, atol=0.0)


def test_poisson_density_matches_exit_law(stable_ks, poisson_x_256):
    pt = poisson_x_256
    xs = pt.grid.nodes()
    i0 = int(np.argmin(np.abs(xs - 1.5)))
    xt = 2.0 * (xs[i0] - 1.5)
    z = pt.zgrid.nodes
    for ztar in (0.25, 0.75, 2.25, 2.5, 3.0):
        m = int(np.argmin(np.abs(z - ztar)))
        # distance beyond the wall, in the units of (-1, 1)
        d = 2.0 * max(z[m] - 2.0, 1.0 - z[m])
        want = 2.0 * bgr_density(1.5, xt, d, 1.0 if z[m] > 2.0 else -1.0)
        assert pt.K[i0, m] == pytest.approx(want, rel=2e-2)


# the tail (c, p) of data 1 above the mesh: f = 1 with it, and with the
# constant 1 below, is the whole exit law
_ONE = (1.0, 0.0)
_NONE = (0.0, 0.0)


@pytest.fixture(scope="module")
def op_x_256(stable_ks):
    return StructuredGenerator(stable_ks, Grid(1.0, 2.0, 256), "X")


def _mesh(op):
    return default_zgrid(op.grid, op.kind)


def test_poisson_row_mass_near_one(op_x_256):
    mass = harmonic_extend(op_x_256, np.ones(_mesh(op_x_256).nodes.size), _ONE, 1.0)
    assert np.max(np.abs(mass - 1.0)) < 1e-2


def test_poisson_mass_split(stable_ks, mixture_ks):
    # the mass below a, with the lower tail (kind X), and the mass above b,
    # with the upper one, add up to the whole, within one solve
    for ks in (stable_ks, mixture_ks):
        for kind in ("X", "Y", "Z"):
            op = StructuredGenerator(ks, Grid(1.0, 2.0, 256), kind)
            zg = _mesh(op)
            below = 1.0 if kind == "X" else 0.0
            F = np.column_stack([zg.below, ~zg.below, np.ones(zg.nodes.size)])
            U = harmonic_extend(op, F, [_NONE, _ONE, _ONE], [below, 0.0, below])
            np.testing.assert_allclose(U[:, 0] + U[:, 1], U[:, 2], rtol=1e-12, atol=0.0, err_msg=kind)


def test_poisson_cdf_monotone(op_x_256):
    # mc-exit-law's exit-position law: column m extends the data 1 on the
    # cells up to m and on the lower tail, the last column the whole law
    M = _mesh(op_x_256).nodes.size
    F = np.column_stack([np.triu(np.ones((M, M))), np.ones(M)])
    U = harmonic_extend(op_x_256, F, [_NONE] * M + [_ONE], 1.0)
    cdf = U[128, :M] / U[128, M]
    assert np.all(np.diff(cdf) >= -1e-15)
    assert 0.0 <= cdf[0] and cdf[-1] == pytest.approx(1.0, abs=2e-3)


def test_near_wall_exit_mass(stable_ks):
    # centred on (1, 2) the alpha = 1.5 exit law puts 12.7% of its mass
    # within 1e-4 of the walls (4.0% within 1e-6), so no walk step can keep
    # the near-wall share under 1%; widths double on the way to (-1, 1)
    want = bgr_wall_mass(1.5, 2e-4)
    # independent route: d = eps s^p beyond the wall flattens the wall
    # singularity for a Gauss-Legendre rule in s
    eps, p = 2e-4, 1.0 / (1.0 - 0.75)
    t, w = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (t + 1.0)
    dens = np.array([bgr_density(1.5, 0.0, eps * si ** p) for si in s])
    quad = 2.0 * float(np.sum(0.5 * w * dens * eps * p * s ** (p - 1.0)))
    assert quad == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.127, abs=5e-4)
    assert bgr_wall_mass(1.5, 2e-6) == pytest.approx(0.040, abs=5e-4)
    # the n = 512 solver smears the singularity over its wall cell, so its
    # near-wall mass stays below the continuum value
    op = StructuredGenerator(stable_ks, Grid(1.0, 2.0, 512), "X")
    zg = _mesh(op)
    F = np.column_stack([np.ones(zg.nodes.size), zg.near_walls(op.grid, 1e-4)])
    U = harmonic_extend(op, F, [_ONE, _NONE], [1.0, 0.0])
    got = float(np.interp(1.5, op.grid.nodes(), U[:, 1] / U[:, 0]))
    assert 0.0 < got < want


def test_near_wall_mass_is_part_of_the_row_mass(op_x_256):
    zg = _mesh(op_x_256)
    # the whole graded zone, one interval-width deep on each side
    d = np.minimum(np.abs(zg.nodes - 1.0), np.abs(zg.nodes - 2.0))
    F = np.column_stack(
        [zg.near_walls(op_x_256.grid, eps) for eps in (0.0, 1e-4, 1e-2, 1.0)]
        + [d < 1.0, np.ones(zg.nodes.size)]
    )
    zero, small, wide, deep, graded, whole = harmonic_extend(op_x_256, F, [_NONE] * 5 + [_ONE], [0.0] * 5 + [1.0]).T
    assert np.all(zero == 0.0)
    assert np.all((0.0 < small) & (small < wide) & (wide < whole))
    assert np.allclose(deep, graded, rtol=1e-12)


def test_exterior_mesh_shapes(stable_ks):
    grid = Grid(1.0, 2.0, 64)
    zg = default_zgrid(grid, "X")
    assert zg.nodes.shape == zg.weights.shape == zg.below.shape
    assert zg.cut_lo is not None
    assert np.all((zg.nodes < 1.0) | (zg.nodes > 2.0))
    zgz = default_zgrid(grid, "Z")
    assert zgz.cut_lo is None
    assert np.all(zgz.nodes > 0.0)
    with pytest.raises(ConfigError):
        default_zgrid(grid, "Q")


def _dense_extensions(ks, grid, kind, F, hi, lo):
    """The extensions of the columns of F by the dense route: the Poisson
    table of the inverted dense generator, K (F w), plus each declared
    tail, (c, p) above and the constant c below, through that generator's
    Green matrix, the last row's rate above scaled by its own (lo, hi, dk)
    split as the table's tail_hi is."""
    green = green_matrix(build_generator(ks, grid, kind))
    pt = poisson_kernel(green, ks)
    zg, xs = pt.zgrid, grid.nodes()
    dk, hi_rate = green.exit_rates[2], green.exit_rates[1]
    U = pt.K @ (F * zg.weights[:, None]) + np.outer(pt.tail_lo, lo)
    for j, (c, p) in enumerate(hi):
        rate = ks.jump_tail_closed(zg.cut_hi - xs, weight_exponent=p)
        if kind == "Z":
            rate = rate + ks.jump_tail_closed(zg.cut_hi + xs, weight_exponent=p)
        rate[-1] *= 1.0 + dk / hi_rate[-1]
        U[:, j] += c * (green.G * grid.dx) @ rate
    return U


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("kind", ["X", "Y", "Z"])
def test_harmonic_extension_of_unit_data(request, ks_name, kind):
    # f = 1 everywhere outside reproduces the dense table's full exit mass,
    # K w + tail_lo + tail_hi, to the two routes' gap: the tail beyond the
    # mesh carries the same wall-row factor as the table's tail_hi (without
    # it the last rows missed by 1.2e-7 to 5.1e-7)
    ks = request.getfixturevalue(ks_name)
    grid = Grid(1.0, 2.0, 256)
    op = StructuredGenerator(ks, grid, kind)
    u = harmonic_extend(op, np.ones(_mesh(op).nodes.size), _ONE, 1.0 if kind == "X" else None)
    pt = poisson_kernel(green_matrix(build_generator(ks, grid, kind)), ks)
    row_mass = pt.K @ pt.zgrid.weights + pt.tail_lo + pt.tail_hi
    np.testing.assert_allclose(u, row_mass, rtol=5e-12, atol=0.0)


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("kind", ["X", "Y", "Z"])
def test_harmonic_extension_matches_the_dense_table(request, ks_name, kind, n):
    # the structured solve against the dense Poisson table, for f = 1 with
    # its tails, the indicator of the lower exterior (with the lower tail
    # for kind X) and bhp's five data at r = 2/3, supported on [b, inf),
    # one with a z^-3 tail: at most 2.6e-12 apart (mixture, kinds X and Y,
    # n = 1024)
    ks = request.getfixturevalue(ks_name)
    grid = Grid(1.0, 2.0, n)
    op = StructuredGenerator(ks, grid, kind)
    zg = _mesh(op)
    below = 1.0 if kind == "X" else 0.0
    data = default_boundary_fset(2.0 / 3.0)
    F = np.column_stack([np.ones(zg.nodes.size), zg.below] + [bd.fn(zg.nodes) for bd in data])
    hi = [_ONE, _NONE] + [bd.tail or _NONE for bd in data]
    lo = [below, below] + [0.0] * len(data)
    assert (8.0, 3.0) in hi  # the power tail, (3r)^3 z^-3
    got = harmonic_extend(op, F, hi, lo)
    want = _dense_extensions(ks, grid, kind, F, hi, lo)
    np.testing.assert_allclose(got, want, rtol=5e-12, atol=0.0)


def test_harmonic_extension_validation(op_x_256, stable_ks):
    op = op_x_256
    ones = np.ones(_mesh(op).nodes.size)
    with pytest.raises(ConfigError):
        harmonic_extend(op, np.ones(3))
    with pytest.raises(DomainError):
        harmonic_extend(op, -ones)
    # one tail per column, or one for all
    with pytest.raises(ValueError, match="broadcast"):
        harmonic_extend(op, np.column_stack([ones, ones]), [_ONE] * 3)
    # kinds Y and Z have no exterior below the mesh, which covers (0, a)
    op_z = StructuredGenerator(stable_ks, Grid(1.0, 2.0, 64), "Z")
    with pytest.raises(ConfigError, match="kind Z has no exterior below"):
        harmonic_extend(op_z, np.ones(_mesh(op_z).nodes.size), _ONE, 1.0)
    # a column whose data are not finite extends to nan, not to 0
    U = harmonic_extend(op, np.column_stack([ones, np.full_like(ones, np.nan)]))
    assert np.all(U[:, 0] > 0.0) and np.all(np.isnan(U[:, 1]))


def test_harmonic_extension_refuses_a_divergent_tail(op_x_256):
    # f ~ c z^-p against the kernel's z^(-1 - 2 delta) tail converges only
    # for p > -2 delta_min, -1.5 on stable 0.75
    op = op_x_256
    ones = np.ones(_mesh(op).nodes.size)
    u = harmonic_extend(op, ones, (1.0, -1.0))
    assert np.all(np.isfinite(u)) and np.all(u > 0.0)
    assert np.all(u > harmonic_extend(op, ones, _ONE))
    for p in (-1.5, -2.0, -math.inf, math.nan):
        with pytest.raises(DomainError, match=f"got p = {p}$"):
            harmonic_extend(op, ones, (1.0, p))
    with pytest.raises(DomainError, match="^tail coefficient must be nonnegative$"):
        harmonic_extend(op, ones, (math.nan, 0.0))
    with pytest.raises(DomainError, match="^tail coefficient must be nonnegative$"):
        harmonic_extend(op, ones, None, -1.0)


def test_exit_alive_bracket(stable_ks):
    rep = exit_alive_prob(stable_ks, 1.0, [0.3, 0.5, 0.7])
    assert np.all(rep.lower <= rep.value) and np.all(rep.value <= rep.upper)
    assert np.all(rep.bracket < 0.02)
    assert np.all(np.diff(rep.value) > 0.0)  # increasing in x
    assert rep.shrank
    # the shelf and the far exterior share out the whole probability, up to
    # the roundoff of the matrix-free solve at n ~ 4000 (6.4e-13 on the
    # 4096-cell shelf)
    for p in rep.per_a:
        np.testing.assert_allclose(p["p_exit"] + p["p_shelf"], 1.0, rtol=0.0, atol=1e-11)
        assert 0 < p["cg_iterations"] < _CG_MAX_ITER
        assert p["residual"] < 1e-13


# the default shelves of (0, 1) and two at the 256-cell floor and above it
SHELVES = [(0.05, 256), (4.0 / 304.0, 300), (0.004, 996), (0.001, 3996), (0.00025, 4096)]


@pytest.mark.parametrize("a, n", SHELVES, ids=[str(n) for _, n in SHELVES])
@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
def test_matrix_free_shelf_solve_matches_lu(ks_name, a, n, request):
    # the matrix-free solve against a dense LU solve of the same generator
    ks = request.getfixturevalue(ks_name)
    grid, P, _ = _shelf_solve(ks, a, 1.0)
    assert grid == Grid(a, 1.0, n)
    gen = build_generator(ks, grid, "Z")
    lo, hi, dk = gen.exit_rates
    B = np.column_stack([hi, lo])
    B[-1, 0] += dk
    B[0, 1] += dk
    want = np.linalg.solve(-gen.A, B)
    del gen
    np.testing.assert_allclose(P, want, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("n", [8, 10, 300, 996, 3996])
@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
def test_shelf_operator_matvec_is_the_generator(ks_name, n, request):
    # the per-offset masses, the telescoped diagonal and the FFT products
    # apply -A, and the gather writes it, for every kind; at n = 8 and 10
    # every or nearly every offset is direct
    ks = request.getfixturevalue(ks_name)
    grid = Grid(4.0 / (n + 4.0), 1.0, n)
    x = np.random.default_rng(n).standard_normal((n, 2))
    for kind in "XYZ":
        op = StructuredGenerator(ks, grid, kind)
        gen = build_generator(ks, grid, kind)
        assert op.kind == gen.kind
        # the exit columns come from the operator's own closed tails; the
        # dense build integrates the same tails by quadrature, an
        # independent route (they agree within 3.0e-13 relative on both
        # fixtures)
        lo, hi, dk = gen.exit_rates
        want = np.column_stack([hi, lo])
        want[-1, 0] += dk
        want[0, 1] += dk
        np.testing.assert_allclose(op.exits, want, rtol=1e-12, atol=0.0)
        for got, split in zip(op.exit_rates, gen.exit_rates):
            np.testing.assert_allclose(got, split, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(op.diag, -np.diag(gen.A), rtol=1e-13, atol=0.0)
        want = -gen.A @ x
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(op.matvec(x), want, rtol=0.0, atol=1e-12 * scale)
        if n <= 1000:
            # the gather against the dense build: they part by the kill rates
            # of the wall nodes (closed against quadrature tails, 1.2e-14 of
            # the largest entry at most on these grids)
            M = op.gather(0, n)
            np.testing.assert_allclose(M, -gen.A, rtol=0.0, atol=2e-14 * np.max(M))
            assert np.array_equal(M, M.T)
            del M
        del gen


def test_shelf_solve_makes_no_n_by_n_array(stable_ks):
    # an n x n array of doubles is 8 MB at n = 1024; the whole solve, kill
    # rates included, keeps O(n) arrays: at 1024 and 4096 cells it peaks at
    # 58 and 38 n doubles traced (647 and 186 with quadrature rates)
    for a, n in ((4.0 / 1028.0, 1024), (0.00025, 4096)):
        tracemalloc.start()
        try:
            assert _shelf_solve(stable_ks, a, 1.0)[0] == Grid(a, 1.0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 8 * n, f"n = {n}: peaked at {peak / (8 * n):.0f} n doubles"


def test_exit_solve_rejects_an_indefinite_generator(stable_ks, mixture_ks, monkeypatch):
    make = interval_solver.StructuredGenerator

    def indefinite(ks, grid, kind):
        op = make(ks, grid, kind)
        op._dd[200] -= 2.0 * op.diag[200]  # a negative diagonal entry of -A
        op.diag[200] *= -1.0
        return op

    monkeypatch.setattr(interval_solver, "StructuredGenerator", indefinite)
    with pytest.raises(SolverError, match="a=0.004: the generator lost positive"):
        exit_alive_prob(stable_ks, 1.0, 0.5, a_seq=(0.004,))
    # the mixture's entry takes the mean diagonal below what the Toeplitz
    # part needs, so the preconditioner refuses it before any iteration
    with pytest.raises(SolverError, match="a=0.004: the circulant preconditioner has a non-pos"):
        exit_alive_prob(mixture_ks, 1.0, 0.5, a_seq=(0.004,))


def test_exit_solve_rejects_a_broken_partition(stable_ks, monkeypatch):
    # exit and shelf probabilities must sum to 1 at every node
    pcg = interval_solver._pcg

    def off(op, B, what):
        X, iters = pcg(op, B, what)
        return X * (1.0 + 1e-8), iters

    monkeypatch.setattr(interval_solver, "_pcg", off)
    with pytest.raises(SolverError, match="p_exit \\+ p_shelf misses 1"):
        exit_alive_prob(stable_ks, 1.0, 0.5, a_seq=(0.004,))


def test_exit_solve_rejects_an_iteration_cap(stable_ks, monkeypatch):
    monkeypatch.setattr(interval_solver, "_CG_MAX_ITER", 2)
    with pytest.raises(SolverError, match="a=0.004: conjugate gradients did not converge in 2 "):
        exit_alive_prob(stable_ks, 1.0, 0.5, a_seq=(0.004,))


def test_bgr_killed_oracle_is_brownian_ruin_at_alpha_2():
    # alpha = 2: I(w) = 2 (sqrt(1 + w) - 1) in closed form, and the
    # probability of leaving (0, 1) upwards before 0 is x
    for x in np.linspace(0.05, 0.95, 19):
        assert bgr_killed_exit_alive(2.0, x) == pytest.approx(x, rel=1e-12)


def test_bgr_green_integrates_to_the_mean_exit_time():
    # int G(x, y) dy over (-1, 1) is E_x[tau], Getoor's closed form; a
    # 2000-node Gauss-Legendre rule on each side of the kink at y = x.  The
    # gap is 2.1e-10 at worst (5.4e-6 while I(w) was one rule over
    # [0, w^(alpha/2)], which lost digits near the diagonal)
    t, wt = np.polynomial.legendre.leggauss(2000)
    for x in (-0.9, -0.5, 0.0, 0.3, 0.7, 0.95):
        total = 0.0
        for lo, hi in ((-1.0, x), (x, 1.0)):
            y = lo + 0.5 * (hi - lo) * (t + 1.0)
            total += 0.5 * (hi - lo) * float(np.sum(wt * bgr_green(1.5, x, y)))
        assert total == pytest.approx(getoor_exit(1.5, 1.0, x), rel=2e-5)


def test_green_matrix_matches_the_bgr_green_function(stable_ks):
    # kind X of the stable fixture (alpha = 1.5) on (0, 2), the translate of
    # (-1, 1), on a 15 x 15 lattice of nodes off the diagonal.  At n = 512
    # the matrix sits 0.29% to 0.57% below the exact function (0.40% to
    # 0.67% at n = 256), so the bar is 0.65%; G scaled by 1.01 misses it
    n = 512
    green = green_matrix(build_generator(stable_ks, Grid(0.0, 2.0, n), "X"))
    idx = (np.arange(1, 16) * n) // 16
    xs = green.grid.nodes()[idx] - 1.0
    x, y = np.meshgrid(xs, xs, indexing="ij")
    off = ~np.eye(idx.size, dtype=bool)
    ratio = green.G[np.ix_(idx, idx)][off] / bgr_green(1.5, x[off], y[off])
    assert np.max(np.abs(ratio - 1.0)) < 6.5e-3
    assert np.max(np.abs(1.01 * ratio - 1.0)) > 6.5e-3


def _tracks_the_killed_green_function(ratios):
    # ratios: G_Z / exact on the lattice, for a = 0.004, 0.002, 0.001
    gaps = [float(np.max(1.0 - r)) for r in ratios]
    s2 = math.sqrt(2.0)
    extrapolated = (s2 * ratios[2] - ratios[1]) / (s2 - 1.0)
    return (
        all(float(np.max(r)) < 1.0 for r in ratios)
        and all(1.3 < g0 / g1 < 1.5 for g0, g1 in zip(gaps, gaps[1:]))
        and gaps[2] < 0.095
        and float(np.max(np.abs(extrapolated - 1.0))) < 6e-3
    )


def test_killed_green_matrix_approaches_the_bgr_killed_green_function(stable_ks):
    # kind Z on (a, 1) is |X| killed on entering (0, a] or on leaving (0, 1):
    # a smaller domain than |X| killed at 0 alone, so on a 15 x 15 lattice
    # of nodes off the diagonal it sits below the exact bgr_killed_green,
    # by a shelf gap that goes like a^(alpha - 1) = a^(1/2).  At n = 512
    # the worst gaps are 17.5%, 12.6% and 9.0% for a = 0.004, 0.002, 0.001
    # (1.39 and 1.40 per halving; bars 1.3 to 1.5, and 9.5% at a = 0.001).
    # The a^(1/2) extrapolation of the last two sits 0.18% to 0.49% below
    # the exact function, the kind-X matrix's own bias (bar 0.6%).  G
    # scaled by 1.01 fails.
    n = 512
    idx = (np.arange(1, 16) * n) // 16
    off = ~np.eye(idx.size, dtype=bool)
    ratios = []
    for a in (0.004, 0.002, 0.001):
        green = green_matrix(build_generator(stable_ks, Grid(a, 1.0, n), "Z"))
        x, y = np.meshgrid(green.grid.nodes()[idx], green.grid.nodes()[idx], indexing="ij")
        exact = bgr_killed_green(1.5, x[off], y[off])
        ratios.append(green.G[np.ix_(idx, idx)][off] / exact)
    assert _tracks_the_killed_green_function(ratios)
    assert not _tracks_the_killed_green_function([1.01 * r for r in ratios])


def test_bgr_I_holds_its_digits_for_large_w():
    # alpha = 2 has the closed form 2 (sqrt(1 + w) - 1); at alpha = 1.5 the
    # 256-node rule agrees with 4096 nodes (a single rule over
    # [0, w^(alpha/2)] read 39388 at w = 1e16, 4096 nodes of it 39904)
    w = np.array([0.5, 1.0, 10.0, 1e4, 1e8, 1e16, 1e24])
    np.testing.assert_allclose(bgr_I(2.0, w), 2.0 * (np.sqrt(1.0 + w) - 1.0), rtol=1e-13)
    np.testing.assert_allclose(bgr_I(1.5, w), bgr_I(1.5, w, nodes=4096), rtol=1e-11)


def test_bgr_killed_green_halves_near_the_origin():
    # G(x, y) ~ x^(alpha - 1) = x^(1/2) at the origin, so G(x, y)/G(4x, y)
    # tends to 1/2: measured 1.9e-5 and 4.7e-6 off at x = 2.5e-4 and 1e-4
    # (0.620 and 0.848 with the single-rule I(w), which G(x, 0) reads at
    # w ~ 1/x^2)
    y = np.array([0.3, 0.5, 0.7, 0.9])
    for x0 in (2.5e-4, 1e-4):
        ratio = bgr_killed_green(1.5, x0, y) / bgr_killed_green(1.5, 4.0 * x0, y)
        np.testing.assert_allclose(ratio, 0.5, atol=1e-4)


def test_bgr_killed_green_is_symmetric_and_vanishes_at_the_origin():
    # point killing makes the oracle symmetric, positive inside, and
    # vanishing like x^(alpha - 1) = x^(1/2) at the origin, where the
    # process is killed: a quarter of the distance halves it (measured
    # within 1.2e-3 of 1/2)
    x = np.linspace(0.05, 0.95, 10)
    X, Y = np.meshgrid(x, x, indexing="ij")
    off = ~np.eye(x.size, dtype=bool)
    K = bgr_killed_green(1.5, X[off], Y[off])
    assert np.all(K > 0.0)
    np.testing.assert_allclose(K, bgr_killed_green(1.5, Y[off], X[off]), rtol=1e-13)
    y = np.array([0.3, 0.5, 0.7, 0.9])
    for x0 in (4e-3, 1e-3):
        ratio = bgr_killed_green(1.5, x0, y) / bgr_killed_green(1.5, 4.0 * x0, y)
        np.testing.assert_allclose(ratio, 0.5, atol=5e-3)


@pytest.mark.parametrize("ks_name, terms", [
    ("stable_ks", ((1.0, 0.75),)),
    ("mixture_ks", ((1.0, 0.6), (1.0, 0.9))),
])
def test_band_and_wall_quadratures_match_their_closed_forms(request, ks_name, terms):
    # the generator's band coefficient and wall correction are quadratures
    # of power sums; the oracles integrate the same sums term by term, with
    # the coefficients from the stable closed form (gaps near 4.6e-13)
    ks = request.getfixturevalue(ks_name)
    for grid in (Grid(1.0, 2.0, 64), Grid(1.0, 2.0, 256), Grid(1.0, 2.0, 512),
                 Grid(0.25, 2.75, 512)):
        gen = build_generator(ks, grid, "X")
        assert gen.A[0, 1] == pytest.approx(band_coefficient(terms, grid.dx), rel=1e-11)
        assert ks.wall_correction(grid.dx) == pytest.approx(
            wall_correction(terms, grid.dx), rel=1e-11
        )


def test_exit_alive_bracket_contains_bgr_exact(stable_ks):
    # the stable fixture is alpha = 1.5; the bracket must hold the exact value
    xs = np.arange(1, 10) / 10.0
    rep = exit_alive_prob(stable_ks, 1.0, xs)
    exact = np.array([bgr_killed_exit_alive(1.5, x) for x in xs])
    assert np.all(rep.lower <= exact) and np.all(exact <= rep.upper)


def test_exit_alive_prob_is_scale_free(stable_ks):
    # the stable killed process is self-similar, so P_x(exit (0, R) alive)
    # depends on x/R alone; the default shelves are fractions of R, so the
    # discrete problems at R and at 1 are rescalings of one another
    xs = np.array([0.1, 0.3, 0.5, 0.9])
    ref = exit_alive_prob(stable_ks, 1.0, xs)
    for R in (0.01, 4.0):
        rep = exit_alive_prob(stable_ks, R, R * xs)
        assert [p["a"] for p in rep.per_a] == [R * p["a"] for p in ref.per_a]
        np.testing.assert_allclose(rep.value, ref.value, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rep.bracket, ref.bracket, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("delta", [0.75, 0.6])
def test_exit_alive_prob_is_scale_free_over_twenty_decades(delta):
    # the stable killed process is self-similar, so the exit probability
    # depends on x/R alone.  The shelf's kill rates are its closed jump
    # tails: by quadrature under the engine's 1e-10 absolute tolerance, the
    # tails of a long interval keep only a few digits (x = R/2 read
    # 0.621139 at R = 1e8 against 0.619882 at R = 1, stable 0.75)
    ks = KernelSet(PhiSpec.stable(delta))
    xs = np.array([0.3, 0.5, 0.7])
    ref = exit_alive_prob(ks, 1.0, xs)
    for R in (1e-8, 1e4, 1e8, 1e12):
        rep = exit_alive_prob(ks, R, R * xs)
        for name in ("value", "lower", "upper"):
            np.testing.assert_allclose(
                getattr(rep, name), getattr(ref, name), rtol=1e-9, atol=0.0, err_msg=f"{name} at R = {R}"
            )


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "solve, name",
    [
        (lambda ks, v: exit_alive_prob(ks, v, 0.5), "R"),
        (lambda ks, v: small_interval_lower(ks, v, n=128), "R"),
        (lambda ks, v: harnack_sup_ratio(ks, v, n=128), "r"),
        (lambda ks, v: bhp_sup_ratio(ks, v, n=256), "r"),
    ],
    ids=["exit_alive_prob", "small_interval_lower", "harnack_sup_ratio", "bhp_sup_ratio"],
)
def test_lengths_must_be_finite(stable_ks, solve, name, bad):
    # an infinite or nan length used to reach the grid or the quadrature
    # and fail there with an error that named neither
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
        solve(stable_ks, bad)


def test_exit_alive_validation(stable_ks):
    with pytest.raises(DomainError):
        exit_alive_prob(stable_ks, -1.0, 0.5)
    with pytest.raises(DomainError):
        exit_alive_prob(stable_ks, 1.0, 1.5)
    with pytest.raises(DomainError):
        exit_alive_prob(stable_ks, 1.0, 0.001)  # below the largest shelf
    with pytest.raises(ConfigError):
        exit_alive_prob(stable_ks, 1.0, 0.5, a_seq=())
    # a nan compares false both ways, so each rule must ask for what holds
    nan = float("nan")
    for x in (nan, [0.5, nan]):
        with pytest.raises(DomainError, match=r"\(0, R\)"):
            exit_alive_prob(stable_ks, 1.0, x)
    for a_seq in ((nan,), (0.004, nan), (0.004, math.inf)):
        with pytest.raises(ConfigError, match="finite positive"):
            exit_alive_prob(stable_ks, 1.0, 0.5, a_seq=a_seq)
    # one shelf solved twice would show a refinement drift of 0.0
    for a_seq, twin in (((0.004, 0.004), "0.004"), ((0.004, 0.001, 0.004), "0.004"),
                        ((1e-3, 0.004, 0.001), "0.001")):
        with pytest.raises(ConfigError, match=f"^a_seq repeats the shelf {twin}$"):
            exit_alive_prob(stable_ks, 1.0, 0.5, a_seq=a_seq)


def test_gauge_ratios_ordering(stable_ks):
    gs = {
        k: green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 64), k))
        for k in ("X", "Y", "Z")
    }
    inf_zx, sup_zx = gauge_ratios(gs["X"], gs["Z"])
    ratio = gs["Z"].G / gs["X"].G
    assert (inf_zx, sup_zx) == (float(ratio.min()), float(ratio.max()))
    # deleting the down-crossing jumps (Y) can only raise the Green function;
    # folding them (Z) keeps the return routes, so Z sits between X and Y
    assert inf_zx >= 1.0 - 1e-9
    assert np.all(gs["Z"].G <= gs["Y"].G * (1.0 + 1e-9))
    for pair in ((gs["Z"], gs["X"]), (gs["X"], gs["Y"])):
        with pytest.raises(ConfigError, match="order"):
            gauge_ratios(*pair)
    coarse_z = green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 32), "Z"))
    with pytest.raises(ConfigError, match="common grid"):
        gauge_ratios(gs["X"], coarse_z)


def test_three_g_kind_restriction(stable_ks, green_x_256):
    sup = three_g_sup(green_x_256, stable_ks)
    assert isinstance(sup, float) and math.isfinite(sup) and sup > 0.0
    # the sup over every (x, y, z) triple of a small lattice, in one array
    green = green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 32), "X"))
    G, xs = green.G, green.grid.nodes()
    dist = np.minimum(xs - 1.0, 2.0 - xs)
    wgt = dist * dist / stable_ks.phi_cap(dist)
    triples = G[:, :, None] * G[None, :, :] / G[:, None, :] * wgt[None, :, None]
    assert three_g_sup(green, stable_ks) == pytest.approx(float(triples.max()), rel=1e-14)
    gz = green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 32), "Z"))
    with pytest.raises(ConfigError):
        three_g_sup(gz, stable_ks)


def test_harnack_constant(stable_ks):
    rep = harnack_sup_ratio(stable_ks, 1.0, n=128)
    assert rep.c6 > 1.0 and math.isfinite(rep.c6)
    assert rep.window[0] == pytest.approx(0.5) and rep.window[1] == pytest.approx(2.5)
    with pytest.raises(ConfigError):
        harnack_sup_ratio(stable_ks, 1.0, a_frac=1.5)
    with pytest.raises(DomainError):
        harnack_sup_ratio(stable_ks, -1.0)


def test_bhp_report(stable_ks):
    rep = bhp_sup_ratio(stable_ks, 1.0, n=256)
    assert rep.c7 > 1.0 and math.isfinite(rep.c7)
    assert rep.c7_upper >= rep.c7
    assert len(rep.per_f) == 5
    assert {p["name"] for p in rep.per_f} == {
        "step-3r-4r", "step-4r-6r", "bump-4r", "power-tail", "step-3r-3.3r",
    }
    with pytest.raises(ConfigError):
        bhp_sup_ratio(stable_ks, 1.0, n=128)  # shelf 12/128 > lambda1/4: needs n > 192
    with pytest.raises(ConfigError):
        bhp_sup_ratio(stable_ks, 1.0, lambda1=0.7)
    # n is checked before the shelf 12r/n divides by it
    for bad in (0, 256.0):
        with pytest.raises(ConfigError, match="n must be an integer|n must be at least"):
            bhp_sup_ratio(stable_ks, 1.0, n=bad)


def test_bhp_is_scale_free(stable_ks):
    # the extensions solve on the structured generator, whose kill rates
    # are closed tails, so a stable r = 1e8 solves (the dense build's
    # quadrature rates were refused there) and reads the constants of
    # r = 1 (3.8e-14 apart)
    ref = bhp_sup_ratio(stable_ks, 1.0, n=512)
    rep = bhp_sup_ratio(stable_ks, 1e8, n=512)
    for name in ("c7", "c7_upper"):
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-9, abs=0.0)


def test_three_g_sup_keeps_a_nan(stable_ks):
    # Python's max(best, nan) is best, so a nan triple used to vanish
    green = green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 32), "X"))
    G = green.G.copy()
    G[3, 5] = np.nan
    assert math.isnan(three_g_sup(dataclasses.replace(green, G=G), stable_ks))


def test_harnack_keeps_a_nan_tail(stable_ks, monkeypatch):
    # a nan tail ratio used to fold away, leaving the finite column sup
    real = interval_solver.poisson_kernel

    def nan_tail(green, ks):
        pt = real(green, ks)
        tail = pt.tail_hi.copy()
        tail[tail.size // 2] = np.nan
        return dataclasses.replace(pt, tail_hi=tail)

    monkeypatch.setattr(interval_solver, "poisson_kernel", nan_tail)
    assert math.isnan(harnack_sup_ratio(stable_ks, 1.0, n=128).c6)


def test_bhp_refuses_a_nan_datum(stable_ks, monkeypatch):
    # np.min(uw) <= 0.0 is False for a nan, so a nan extension used to pass
    # the guard and drop out of the sup
    real = interval_solver.default_boundary_fset
    nan_datum = interval_solver.BoundaryData("nan", lambda z: np.full(z.shape, np.nan), None)
    monkeypatch.setattr(interval_solver, "default_boundary_fset", lambda r: real(r) + [nan_datum])
    with pytest.raises(SolverError, match="invisible"):
        bhp_sup_ratio(stable_ks, 1.0, n=256)


def test_bhp_keeps_a_nan_ratio(stable_spec, monkeypatch):
    # a nan profile ratio used to fold to the starting 0.0
    ks = KernelSet(stable_spec)
    real = ks.h_comp

    def nan_h(xs):
        h = real(xs)
        h[0] = np.nan
        return h

    monkeypatch.setattr(ks, "h_comp", nan_h)
    rep = bhp_sup_ratio(ks, 1.0, n=256)
    assert math.isnan(rep.c7) and math.isnan(rep.c7_upper)


def test_boundary_data_vanish_below_3r():
    # bhp_sup_ratio extends these data from the kind-Z mesh of (12r/n, 3r),
    # so each must vanish on the whole lower exterior (0, 12r/n) and on
    # every mesh node below 3r, and stay in [0, 1], as the shelf bracket
    # of bhp_sup_ratio takes sup f = 1
    for r in (0.5, 1.0, 2.0):
        zg = default_zgrid(Grid(12.0 * r / 512, 3.0 * r, 512), "Z")
        z = np.concatenate([zg.nodes, np.linspace(0.0, 3.0 * r, 3001)[1:-1]])
        above = z >= 3.0 * r
        data = default_boundary_fset(r)
        assert len(data) == 5
        for bd in data:
            fz = bd.fn(z)
            assert np.all(fz[~above] == 0.0), bd.name
            assert np.all((fz >= 0.0) & (fz <= 1.0)), bd.name
            assert np.max(fz[above]) > 0.0, bd.name


def test_small_interval_lower(stable_ks):
    lam2, lam2_half = small_interval_lower(stable_ks, 1.0)
    assert isinstance(lam2, float) and lam2 > 0.0
    # shrinking the shelf grows the domain, so the floor can only rise
    assert isinstance(lam2_half, float) and lam2_half >= lam2 - 1e-12
    # the companion is the (a/2, R) Green matrix over the window (a, lambda1
    # R), within the two routes' gap (a solve for the window's columns on
    # the structured generator)
    green = green_matrix(build_generator(stable_ks, Grid(0.002, 1.0, 512), "Z"))
    xs = green.grid.nodes()
    win = (xs > 0.004) & (xs < 0.25)
    want = float(green.G[np.ix_(win, win)].min() / stable_ks.h_comp(1.0))
    assert lam2_half == pytest.approx(want, rel=_SOLVE_RTOL, abs=0.0)
    with pytest.raises(TypeError):
        small_interval_lower(stable_ks, 1.0, a=0.002, window_lo=0.004)


@pytest.mark.parametrize(
    "solve",
    [
        lambda ks: exit_alive_prob(ks, 1.0, [0.5], a_seq=[0.1, 0.05, 0.025]),
        lambda ks: bhp_sup_ratio(ks, 1.0, n=256),
        lambda ks: small_interval_lower(ks, 1.0, n=128),
    ],
    ids=["exit_alive_prob", "bhp_sup_ratio", "small_interval_lower"],
)
def test_each_solve_reads_h_in_one_call(stable_spec, monkeypatch, solve):
    # exit_alive_prob used to read h once plus once per shelf, bhp_sup_ratio
    # a window table plus h(a) and h(3r), small_interval_lower h(R) per shelf
    ks = KernelSet(stable_spec)
    real, calls = ks.h_comp, []

    def counted(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(ks, "h_comp", counted)
    solve(ks)
    assert len(calls) == 1


def test_small_interval_lower_scales_its_shelf(stable_ks):
    # the default shelf is a fraction of R: at R = 0.01 the old absolute
    # 0.004 sat above the window edge lambda1 R / 4 and was refused, and for
    # the stable fixture the floor G^Z / h(R) is scale free
    ref = small_interval_lower(stable_ks, 1.0, n=128)
    for R in (0.01, 4.0):
        np.testing.assert_allclose(
            small_interval_lower(stable_ks, R, n=128), ref, rtol=1e-12, atol=0.0
        )


def test_small_interval_lower_guards_read_its_window_columns(stable_ks, monkeypatch):
    # the floor solves for its window's columns alone, and its guards read
    # every row of them: a bad entry in the last row, outside the window, is
    # refused; an entry whose two nodes both lie outside the window, such as
    # G[n - 1, n - 1], is neither solved for nor checked
    real, cols = interval_solver._cholesky_solve, []

    def solve(op, idx, what):
        cols.append(idx)
        X = real(op, idx, what)
        X[-1, 0] = -X[-1, 0]
        return X

    monkeypatch.setattr(interval_solver, "_cholesky_solve", solve)
    with pytest.raises(SolverError, match="lost positivity"):
        small_interval_lower(stable_ks, 1.0, n=64)
    shelf = interval_solver.default_shelf(1.0)
    xs = Grid(shelf, 1.0, 64).nodes()
    window = np.flatnonzero((xs > shelf) & (xs < 0.25))
    assert len(cols) == 1 and np.array_equal(cols[0], window)
    assert 63 not in window


@pytest.mark.parametrize("kind", "XYZ")
def test_green_block_is_scale_free_at_long_range(stable_ks, kind):
    # for stable 0.75 (alpha = 1.5) the Green function of (r, 2r) is
    # r^(alpha - 1) times that of (1, 2).  The structured route reads closed
    # tails only, so it holds at r = 1e8 and 1e12, where the dense build's
    # quadrature kill rates are refused
    n = 256
    mid = n // 2

    def at(r):
        op = StructuredGenerator(stable_ks, Grid(r, 2.0 * r, n), kind)
        return probe_block(op, [mid]).at(mid)

    ref = at(1.0)
    for r in (1e8, 1e12):
        assert at(r) == pytest.approx(math.sqrt(r) * ref, rel=1e-12, abs=0.0)
    with pytest.raises(SolverError, match="ROADMAP item 4"):
        build_generator(stable_ks, Grid(1e8, 2e8, n), kind)


@pytest.mark.parametrize("ks_name", ["stable_ks", "mixture_ks"])
@pytest.mark.parametrize("kind", "XYZ")
@pytest.mark.parametrize("n", [8, 64, 65, 200])
def test_green_drift_reads_the_probe_block_as_the_whole_matrix(request, ks_name, kind, n):
    # the drift interpolates from the nodes around the probes alone, at most
    # 32 of them; over the whole matrix, with the whole diagonal, it reads
    # the same bits, and so does the block of those nodes that probe_block
    # holds
    ks = request.getfixturevalue(ks_name)
    coarse = green_matrix(build_generator(ks, Grid(1.0, 2.0, n), kind))
    fine = green_matrix(build_generator(ks, Grid(1.0, 2.0, 2 * n), kind))
    want = full_green_drift(coarse, fine)
    assert green_drift(coarse, fine) == want

    def probes(green):
        idx = _probe_index(green.grid)
        assert idx.size <= 32
        return GreenBlock(green.grid, idx, green.G[np.ix_(idx, idx)])

    assert block_drift(probes(coarse), probes(fine)) == want


def test_green_drift_zero_on_self(stable_ks, green_x_256):
    assert green_drift(green_x_256, green_x_256) == pytest.approx(0.0, abs=1e-14)


def test_green_drift_coarse_fine(stable_ks, green_x_256):
    fine = green_matrix(build_generator(stable_ks, Grid(1.0, 2.0, 512), "X"))
    d = green_drift(green_x_256, fine)
    assert 0.0 < d < 0.05
