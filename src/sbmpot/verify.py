"""Certification suite: re-measures every quantitative claim the toolkit makes.

Each check recomputes named constants with a deterministic recipe and holds
them against an explicit bar.  A failing check is recorded, never raised;
the report is the product.  Identical configuration (including the seed)
reproduces every measured constant bit for bit on the same machine with
the same BLAS thread count (the dense solves round differently under
another thread count); only the wall-clock fields (runtime, *_s) vary
between runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .bernstein import PhiSpec
from .errors import ConfigError, check_integer, check_seed, check_steps
from .kernels import KernelSet
from .interval_solver import (
    Grid,
    StructuredGenerator,
    bhp_sup_ratio,
    block_drift,
    build_generator,
    default_shelf,
    default_zgrid,
    exit_alive_prob,
    exit_time,
    gauge_ratios,
    green_matrix,
    harmonic_extend,
    harnack_sup_ratio,
    probe_block,
    small_interval_lower,
    three_g_sup,
)
from .montecarlo import PathConfig, keyed_stream, sample_increment, simulate_exit

FIXTURE_STABLE = PhiSpec.stable(0.75)
FIXTURE_MIXTURE = PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9)))

# reserved keyed_stream index, above any path index, so the Laplace draws
# never share a stream with a walk
_STREAM_LAPLACE = 2 ** 32 + 1


@dataclass(frozen=True)
class RunConfig:
    """Inputs of a verification run; the digest keys the report to them."""

    specs: tuple = (FIXTURE_STABLE, FIXTURE_MIXTURE)
    interval: tuple = (1.0, 2.0)
    n_coarse: int = 256
    n_fine: int = 512
    R: float = 1.0
    mc_paths: int = 100000
    mc_dt: tuple = (1e-2, 1e-3, 1e-4)
    mc_x0: float = 1.5
    mc_tmax: float = 50.0
    seed: int = 20260813

    def __post_init__(self):
        specs = tuple(self.specs)
        if not specs:
            raise ConfigError("at least one spec is required")
        labels = set()
        for s in specs:
            if not isinstance(s, PhiSpec):
                raise ConfigError("specs must be PhiSpec instances")
            if s.label() in labels:  # the label names the spec's checks
                raise ConfigError(f"two specs share the label {s.label()!r}")
            labels.add(s.label())
        object.__setattr__(self, "specs", specs)
        a, b = (float(v) for v in self.interval)
        if not (0.0 < a < b and math.isfinite(b)):  # kinds Y and Z need a > 0
            raise ConfigError(f"interval must satisfy 0 < a < b, got {self.interval!r}")
        object.__setattr__(self, "interval", (a, b))
        dts = tuple(sorted((float(d) for d in self.mc_dt), reverse=True))
        if not dts or dts[-1] <= 0.0:
            raise ConfigError("mc_dt must hold positive steps")
        object.__setattr__(self, "mc_dt", dts)
        check_integer("n_coarse", self.n_coarse, 8)
        check_integer("n_fine", self.n_fine, self.n_coarse + 1)
        check_integer("mc_paths", self.mc_paths, 100)
        if not (dts[0] < self.mc_tmax < math.inf):
            raise ConfigError(
                f"mc_tmax must be finite and exceed the largest mc_dt {dts[0]!r}, "
                f"got {self.mc_tmax!r}"
            )
        check_steps(self.mc_tmax, dts[-1])  # the smallest step walks longest
        if not (self.interval[0] < self.mc_x0 < self.interval[1]):
            raise ConfigError("mc_x0 must lie inside the interval")
        if not (0.0 < self.R < math.inf):
            raise ConfigError(f"R must be positive and finite, got {self.R!r}")
        check_seed(self.seed)
        for name in ("R", "mc_x0", "mc_tmax"):  # a numpy float32 would solve in float32
            object.__setattr__(self, name, float(getattr(self, name)))

    def to_dict(self):
        return {
            "specs": [s.to_dict() for s in self.specs],
            "interval": list(self.interval),
            "n_coarse": int(self.n_coarse),
            "n_fine": int(self.n_fine),
            "R": float(self.R),
            "mc_paths": int(self.mc_paths),
            "mc_dt": list(self.mc_dt),
            "mc_x0": float(self.mc_x0),
            "mc_tmax": float(self.mc_tmax),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("run config must be a JSON object")
        kw = dict(d)
        try:
            if "specs" in kw:
                kw["specs"] = tuple(PhiSpec.from_dict(s) for s in kw["specs"])
            if "interval" in kw:
                kw["interval"] = tuple(kw["interval"])
            if "mc_dt" in kw:
                kw["mc_dt"] = tuple(kw["mc_dt"])
            return cls(**kw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad run config field: {e}") from e

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class CheckResult:
    name: str
    anchor: str
    measured: dict
    tol: str
    passed: bool
    runtime: float

    def to_dict(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "measured": dict(self.measured),
            "tol": self.tol,
            "pass": self.passed,
            "runtime": self.runtime,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            name=d["name"],
            anchor=d["anchor"],
            measured=dict(d["measured"]),
            tol=d["tol"],
            passed=bool(d["pass"]),
            runtime=float(d["runtime"]),
        )


@dataclass
class CheckReport:
    checks: list
    config_digest: str

    def all_pass(self):
        return all(c.passed for c in self.checks)

    def exit_code(self):
        return 0 if self.all_pass() else 1

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "config_digest": self.config_digest,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            checks=[CheckResult.from_dict(c) for c in d["checks"]],
            config_digest=d["config_digest"],
        )


# -- shared, lazily built inputs -------------------------------------------------


class _Context:
    """One spec's kernels and cached intermediates; every entry is a pure
    function of (cfg, spec), so no cache is shared across specs."""

    def __init__(self, cfg: RunConfig, spec: PhiSpec):
        self.cfg = cfg
        self.spec = spec
        self.ks = KernelSet(spec)
        self._store = {}

    def _get(self, key, build):
        if key not in self._store:
            self._store[key] = build()
        return self._store[key]

    def green(self, kind, n):
        a, b = self.cfg.interval
        build = lambda: green_matrix(build_generator(self.ks, Grid(a, b, n), kind))
        return self._get(("green", kind, n), build)

    def exit_masses(self):
        """Kind X's grid at n_fine, and per node its whole exit mass, that
        landing below a and that within _CREEP_EPS of a wall: one solve."""
        def build():
            grid = Grid(*self.cfg.interval, self.cfg.n_fine)
            zg = default_zgrid(grid, "X")
            F = np.column_stack([np.ones(zg.nodes.size), zg.below, zg.near_walls(grid, _CREEP_EPS)])
            op = StructuredGenerator(self.ks, grid, "X")
            return grid, harmonic_extend(op, F, [(1, 0), (0, 0), (0, 0)], [1, 1, 0])

        return self._get("exit-masses", build)

    def walk(self, dt):
        def build():
            cfg = self.cfg
            pc = PathConfig(
                dt=dt,
                t_max=cfg.mc_tmax,
                x0=cfg.mc_x0,
                interval=cfg.interval,
                n_paths=cfg.mc_paths,
                seed=cfg.seed,
            )
            # through the module global, which a caller may wrap to count walks
            return simulate_exit(pc, self.spec)

        return self._get(("walk", dt), build)


# -- the checks -------------------------------------------------------------------


def _is_canonical_stable(spec):
    return spec.family == "stable" and abs(spec.delta - 0.75) < 1e-12


def _check_h_value(ctx):
    t0 = time.perf_counter()
    h1 = ctx.ks.h_comp(1.0)
    dev = abs(h1 - math.sqrt(2.0 / math.pi))
    rt = time.perf_counter() - t0
    clauses = [("abs dev <= 1e-06", dev <= 1e-6), ("eval < 1 s", rt < 1.0)]
    return {"h1": h1, "dev": dev, "eval_s": rt}, clauses


def _check_h_homogeneity(ctx):
    ks = ctx.ks
    target = 2.0 ** (2.0 * ctx.spec.delta - 1.0)
    xs = np.array([0.01, 0.1, 1.0, 10.0])
    h = ks.h_comp(np.concatenate([2.0 * xs, xs]))
    dev = float(np.max(np.abs(h[:4] / h[4:] - target)))
    return {"target": target, "max_dev": dev}, [("max abs dev <= 1e-06", dev <= 1e-6)]


def _check_green_sandwich(ctx):
    t0 = time.perf_counter()
    k = np.arange(1, 101)
    # every |x - y| and x + y lands back on the 0.1-lattice: one h table serves all
    hd = np.zeros(201)
    hd[1:] = ctx.ks.h_comp(0.1 * np.arange(1, 201))
    hv = hd[k]
    i, j = np.meshgrid(k, k, indexing="ij")
    G = 2.0 * hd[i] + 2.0 * hd[j] - hd[np.abs(i - j)] - hd[i + j]
    hmin = np.minimum.outer(hv, hv)
    lo_slack = float(np.min(G - hmin))
    hi_slack = float(np.max(G - 4.0 * hmin))
    rt = time.perf_counter() - t0
    m = {
        "lo_slack": lo_slack,
        "hi_slack": hi_slack,
        "min_ratio": float(np.min(G / hmin)),
        "max_ratio": float(np.max(G / hmin)),
        "eval_s": rt,
    }
    return m, [
        ("lower slack >= -1e-09", lo_slack >= -1e-9),
        ("upper slack <= 1e-09", hi_slack <= 1e-9),
        ("eval < 30 s", rt < 30.0),
    ]


def _check_h_psi_band(ctx):
    ks = ctx.ks
    xs = np.logspace(-3.0, 3.0, 41)
    r = ks.h_comp(xs) * xs * ks.psi(1.0 / xs)
    m, M = float(r.min()), float(r.max())
    return {"m": m, "M": M, "ratio": M / m}, [("M/m < 50", M / m < 50.0)]


def _check_self_convergence(ctx):
    # solve green's refinement drift: each kind's G on the probes' nodes alone
    cfg = ctx.cfg
    out = {}
    for kind in ("X", "Y", "Z"):
        grids = (Grid(*cfg.interval, n) for n in (cfg.n_coarse, cfg.n_fine))
        coarse, fine = (probe_block(StructuredGenerator(ctx.ks, g, kind)) for g in grids)
        out[f"drift_{kind}"] = block_drift(coarse, fine)
    # np.max keeps a nan, which fails the bar; max(0.0, nan) is 0.0
    out["worst"] = float(np.max(list(out.values())))
    return out, [("sup relative probe drift < 0.05 per kind", out["worst"] < 0.05)]


def _check_poisson_row_mass(ctx):
    fine = ctx.cfg.n_fine
    e = {}
    for n in (fine, 2 * fine):
        op = StructuredGenerator(ctx.ks, Grid(*ctx.cfg.interval, n), "Z")
        mass = harmonic_extend(op, np.ones(default_zgrid(op.grid, "Z").nodes.size), (1.0, 0.0))
        e[n] = float(np.max(np.abs(mass - 1.0)))
    return {"err_fine": e[fine], "err_double": e[2 * fine]}, [
        ("max |mass - 1| < 0.01", e[fine] < 1e-2),
        ("decreasing under doubling", e[2 * fine] < e[fine]),
    ]


def _check_exit_prob_sandwich(ctx):
    ks, R = ctx.ks, ctx.cfg.R
    xs = np.round(np.arange(1, 10) * 0.1, 10) * R
    rep = exit_alive_prob(ks, R, xs)
    h = ks.h_comp(np.append(xs, R))
    hr = h[:-1] / h[-1]
    lo_margin = float(np.min(rep.value - (hr / 8.0 - 0.02)))
    hi_margin = float(np.min(hr + 0.02 - rep.value))
    width = float(np.max(rep.bracket))
    m = {
        "lo_margin": lo_margin,
        "hi_margin": hi_margin,
        "max_width": width,
        "shrank": float(rep.shrank),
    }
    return m, [
        ("value >= h/8h(R) - 0.02", lo_margin >= 0.0),
        ("value <= h/h(R) + 0.02", hi_margin >= 0.0),
        ("width < 0.02", width < 0.02),
        ("bracket shrinking", rep.shrank),
    ]


def _check_exit_time_bound(ctx):
    ks, R, fine = ctx.ks, ctx.cfg.R, ctx.cfg.n_fine
    probes = np.linspace(0.02, 0.1, 17) * R
    h_probes = ks.h_comp(probes)
    c3, ratio = {}, {}
    for n in (fine, 2 * fine):
        g = Grid(default_shelf(R), R, n)
        E = exit_time(ks, g, "Z")
        xs = g.nodes()
        ratio[n] = float(np.max(E / (4.0 * R * ks.h_comp(xs))))
        c3[n] = float(np.min(np.interp(probes, xs, E) / h_probes))
    drift = abs(c3[2 * fine] / c3[fine] - 1.0)
    max_ratio = float(np.max(list(ratio.values())))  # np.max keeps a nan, as above
    m = {
        "max_ratio_4Rh": max_ratio,
        "c3_fine": c3[fine],
        "c3_double": c3[2 * fine],
        "c3_drift": drift,
    }
    return m, [
        ("E <= 4 R h * 1.05 everywhere", max_ratio <= 1.05),
        ("near-origin floor c3 > 0", c3[fine] > 0.0),
        ("c3 drift < 0.15", drift < 0.15),
    ]


def _check_green_comparability(ctx):
    cfg = ctx.cfg
    inf_c, sup_c = gauge_ratios(ctx.green("X", cfg.n_coarse), ctx.green("Z", cfg.n_coarse))
    inf_f, sup_f = gauge_ratios(ctx.green("X", cfg.n_fine), ctx.green("Z", cfg.n_fine))
    sup_drift = abs(sup_c / sup_f - 1.0)
    inf_drift = abs(inf_c / inf_f - 1.0)
    yx_gap = float(np.min(ctx.green("Y", cfg.n_fine).G - ctx.green("X", cfg.n_fine).G))
    m = {
        "sup_zx": sup_f,
        "inf_zx": inf_f,
        "sup_drift": sup_drift,
        "inf_drift": inf_drift,
        "min_yx_gap": yx_gap,
    }
    return m, [
        ("finite ratios", np.isfinite([sup_f, inf_f]).all()),
        ("inf G_Z/G_X > 0", inf_f > 0.0),
        ("sup drift < 0.10", sup_drift < 0.10),
        ("inf drift < 0.10", inf_drift < 0.10),
        ("min(G_Y - G_X) >= -1e-08", yx_gap >= -1e-8),
    ]


def _check_gx_band(ctx):
    cfg = ctx.cfg
    a, b = cfg.interval
    band = {}
    for n in (cfg.n_coarse, cfg.n_fine):
        green = ctx.green("X", n)
        xs = green.grid.nodes()
        ratio = green.G / ctx.ks.gx_estimate(a, b, xs[:, None], xs[None, :])
        band[n] = float(ratio.max() / ratio.min())
    drift = abs(band[cfg.n_coarse] / band[cfg.n_fine] - 1.0)
    m = {
        "band_coarse": band[cfg.n_coarse],
        "band_fine": band[cfg.n_fine],
        "drift": drift,
    }
    return m, [("band width drift < 0.10", drift < 0.10)]


def _check_harnack(ctx):
    vals = {r: harnack_sup_ratio(ctx.ks, r, 0.5, n=ctx.cfg.n_fine).c6 for r in (0.5, 1.0, 2.0)}
    arr = np.array(list(vals.values()))
    spread = float(arr.max() / arr.min() - 1.0)
    m = {
        "c6_r_half": vals[0.5],
        "c6_r_one": vals[1.0],
        "c6_r_two": vals[2.0],
        "spread": spread,
    }
    clauses = [("c6 finite each r", np.isfinite(arr).all())]
    if ctx.spec.family == "stable":
        clauses.append(("scale spread < 0.10", spread < 0.10))
    return m, clauses


def _check_bhp(ctx):
    cfg = ctx.cfg
    # the shelf is tied to the mesh (a = 12r/n, four cells), so one ladder
    # refines the grid and sends the shelf to 0 together; splitting the axes
    # parks the window edge at a fixed number of cells and never converges
    ladder = (cfg.n_coarse, cfg.n_fine, 2 * cfg.n_fine)
    rungs = [bhp_sup_ratio(ctx.ks, cfg.R, n=n) for n in ladder]
    c7s = [rep.c7 for rep in rungs]
    d1 = abs(c7s[0] / c7s[1] - 1.0)
    d2 = abs(c7s[1] / c7s[2] - 1.0)
    fine = rungs[-1]
    m = {
        "c7": fine.c7,
        "c7_mid": c7s[1],
        "c7_coarse": c7s[0],
        "c7_upper": fine.c7_upper,
        "drift_mid": d1,
        "drift_fine": d2,
        "a_fine": fine.a,
        "n_data": float(len(fine.per_f)),
    }
    return m, [
        ("c7 finite and > 0 on each rung", all(math.isfinite(c) and c > 0.0 for c in c7s)),
        ("5 data", len(fine.per_f) == 5),
        ("ladder drift < 0.15", d2 < 0.15),
        ("ladder drift shrinking", d2 < d1),
    ]


def _check_small_interval(ctx):
    lam2, lam2_half = small_interval_lower(ctx.ks, ctx.cfg.R, n=ctx.cfg.n_fine)
    return {"lambda2": lam2, "lambda2_half_shelf": lam2_half}, [
        ("lambda2 > 0", lam2 > 0.0),
        ("lambda2 at the halved shelf >= lambda2 - 1e-12", lam2_half >= lam2 - 1e-12),
    ]


def _check_three_g(ctx):
    cfg = ctx.cfg
    sup = {n: three_g_sup(ctx.green("X", n), ctx.ks) for n in (cfg.n_coarse, cfg.n_fine)}
    drift = abs(sup[cfg.n_coarse] / sup[cfg.n_fine] - 1.0)
    m = {"sup_coarse": sup[cfg.n_coarse], "sup_fine": sup[cfg.n_fine], "drift": drift}
    return m, [
        ("weighted triple-ratio sup finite", math.isfinite(sup[cfg.n_fine])),
        ("drift < 0.10", drift < 0.10),
    ]


def _check_mc_laplace(ctx):
    # subordination: E cos(xi X_dt) = E exp(-xi^2 S_dt) = exp(-dt psi(xi)),
    # read at the xi with dt psi(xi) = 1
    cfg = ctx.cfg
    rng = keyed_stream(cfg.seed, _STREAM_LAPLACE)
    m, clauses = {}, []
    for k, dt in enumerate(cfg.mc_dt):
        xi = 1.0 / ctx.ks.phi_cap_inv(dt)
        # through the module global, which a test may wrap to perturb the walk
        vals = np.cos(xi * sample_increment(ctx.spec, dt, cfg.mc_paths, rng))
        dev = abs(float(vals.mean()) - math.exp(-1.0))
        se3 = 3.0 * float(vals.std(ddof=1)) / math.sqrt(cfg.mc_paths)
        m.update({f"dev_{k}": dev, f"se3_{k}": se3, f"xi_{k}": xi})
        clauses.append((f"|mean cos(xi X_dt) - exp(-1)| < 3 stderr at dt {dt:g}", dev < se3))
    return m, clauses


def _reference_table_n(cfg, ks, dt):
    # reference resolution tied to the walk: a lattice walk cannot localize
    # exits below its own step scale, so the solver table is built with the
    # wall cell spanning one mean absolute step (clipped to sane sizes)
    step = ks.mean_abs_step(dt)
    a, b = cfg.interval
    return int(np.clip(round((b - a) / (2.0 * step)), 64, 512)), step


def _check_mc_exit_law(ctx):
    cfg = ctx.cfg
    dt = cfg.mc_dt[-1]
    st = ctx.walk(dt)
    pos = np.sort(st.exit_pos[st.exited])
    n_ref, step = _reference_table_n(cfg, ctx.ks, dt)
    grid = Grid(*cfg.interval, n_ref)
    z = default_zgrid(grid, "X").nodes
    # column m extends 1 on the exterior cells up to m and below the mesh,
    # the exit law at or below z_m; the last column the whole law
    F = np.column_stack([np.triu(np.ones((z.size, z.size))), np.ones(z.size)])
    hi = [(0.0, 0.0)] * z.size + [(1.0, 0.0)]
    U = harmonic_extend(StructuredGenerator(ctx.ks, grid, "X"), F, hi, 1.0)
    u = U[int(np.argmin(np.abs(grid.nodes() - cfg.mc_x0)))]
    Fx = np.interp(pos, z, u[:-1] / u[-1])
    n = pos.size
    i = np.arange(1, n + 1)
    ks_stat = float(max(np.max(i / n - Fx), np.max(Fx - (i - 1) / n)))
    dkw = math.sqrt(math.log(2.0 / 0.05) / (2.0 * n))
    bar = 3.0 * dkw + 0.02
    m = {
        "ks": ks_stat,
        "bar": bar,
        "dkw": dkw,
        "n_ref": float(n_ref),
        "mean_step": step,
        "n_exited": float(n),
    }
    return m, [("KS < 3 DKW(95%) + 0.02 at the smallest dt", ks_stat < bar)]


def _check_mc_exit_time(ctx):
    cfg = ctx.cfg
    grid = Grid(*cfg.interval, cfg.n_fine)
    E_ref = float(np.interp(cfg.mc_x0, grid.nodes(), exit_time(ctx.ks, grid, "X")))
    m, clauses, means = {"solver_E": E_ref}, [], []
    for k, dt in enumerate(cfg.mc_dt):
        st = ctx.walk(dt)
        tau = st.exit_time[st.exited]
        mean = float(tau.mean())
        band = 3.0 * float(tau.std(ddof=1)) / math.sqrt(tau.size) + dt ** 0.55
        m[f"bias_{k}"] = mean - E_ref
        m[f"band_{k}"] = band
        clauses.append((f"|bias| < 3 stderr + dt^0.55 at dt {dt:g}", abs(mean - E_ref) < band))
        means.append(mean)
    trend = all(m1 >= m2 for m1, m2 in zip(means[:-1], means[1:]))
    m["trend_down"] = float(trend)
    return m, clauses + [("bias not growing as dt shrinks", trend)]


# near-wall band of the no-creeping check
_CREEP_EPS = 1e-4


def _check_mc_creep(ctx):
    # the continuum exit law itself puts mass near the walls (about 12.7%
    # within 1e-4 for alpha = 1.5 on (1, 2)), so an absolute ceiling on the
    # near-wall share cannot certify no-creeping; instead no exit may land
    # on an endpoint, and the near-wall share may not exceed the solver's
    # exit mass in the same band.  The solver smears the wall singularity
    # over its wall cell, so its mass is a ceiling only while the walk's
    # step is coarser than that cell.
    cfg = ctx.cfg
    a, b = cfg.interval
    dx = (b - a) / cfg.n_fine
    _, step = _reference_table_n(cfg, ctx.ks, cfg.mc_dt[-1])
    if step < dx:
        raise ConfigError(
            f"solver reference under-resolved: walk mean step {step:.3g} at "
            f"dt={cfg.mc_dt[-1]:g} is below the solver cell width dx={dx:.3g}, "
            "so the solver near-wall mass is no ceiling for the walk"
        )
    fractions, landed, m = [], 0, {}
    for k, dt in enumerate(cfg.mc_dt):
        st = ctx.walk(dt)
        frac = st.creep_count(_CREEP_EPS) / cfg.mc_paths
        fractions.append(frac)
        m[f"creep_{k}"] = frac
        m[f"landed_{k}"] = st.landing_count()
        landed += m[f"landed_{k}"]
    pairs = list(zip(fractions[:-1], fractions[1:]))
    mono = all(u <= v for u, v in pairs) or all(u >= v for u, v in pairs)
    m["final"] = fractions[-1]
    m["monotone"] = float(mono)
    m["landed"] = landed
    # shares at the smallest dt are taken over exited paths
    st = ctx.walk(cfg.mc_dt[-1])
    n_exited = st.n_paths - st.censored
    near = st.creep_count(_CREEP_EPS) / n_exited
    grid, U = ctx.exit_masses()
    ref = float(np.interp(cfg.mc_x0, grid.nodes(), U[:, 2] / U[:, 0]))
    se3 = 3.0 * math.sqrt(ref * (1.0 - ref) / n_exited)
    m.update(
        near_frac=near,
        solver_near=ref,
        se3=se3,
        excess_se3=(near - ref) / se3,
        mean_step=step,
        dx=dx,
        n_exited=n_exited,
    )
    return m, [
        ("no exit on an endpoint at any dt", landed == 0),
        ("near-wall (1e-4) exit share at the smallest dt <= solver mass + 3 stderr",
         near - ref <= se3),
        ("monotone across the dt ladder", mono),
    ]


def _check_mc_exit_side(ctx):
    cfg = ctx.cfg
    st = ctx.walk(cfg.mc_dt[-1])
    pos = st.exit_pos[st.exited]
    p = float(np.mean(pos <= cfg.interval[0]))
    grid, U = ctx.exit_masses()
    ref = float(np.interp(cfg.mc_x0, grid.nodes(), U[:, 1] / U[:, 0]))
    se3 = 3.0 * math.sqrt(p * (1.0 - p) / pos.size)
    dev = abs(p - ref)
    m = {"walk_below": p, "solver_below": ref, "dev": dev, "se3": se3}
    return m, [("|walk - solver| lower-side mass < 3 stderr", dev < se3)]


@dataclass(frozen=True)
class _CheckDef:
    name: str
    anchor: str
    fn: object
    applies: object = None  # predicate on the spec, None = all


_CHECKS = (
    _CheckDef(
        "h-value",
        "h(1) = sqrt(2/pi) for the stable exponent delta = 3/4",
        _check_h_value,
        _is_canonical_stable,
    ),
    _CheckDef(
        "h-homogeneity",
        "h(2x)/h(x) = 2^(2 delta - 1) exactly for stable exponents",
        _check_h_homogeneity,
        lambda s: s.family == "stable",
    ),
    _CheckDef(
        "green-sandwich",
        "h(x & y) <= G_Z(x, y) <= 4 h(x & y) on the quarter plane",
        _check_green_sandwich,
    ),
    _CheckDef(
        "h-psi-band",
        "x h(x) psi(1/x) stays between two positive constants",
        _check_h_psi_band,
    ),
    _CheckDef(
        "green-self-convergence",
        "interval Green matrices converge under grid doubling",
        _check_self_convergence,
    ),
    _CheckDef(
        "poisson-row-mass",
        "the exit measure of the interval has unit total mass",
        _check_poisson_row_mass,
    ),
    _CheckDef(
        "exit-prob-sandwich",
        "h(x)/(8 h(R)) <= P_x(exit (0,R) alive) <= h(x)/h(R)",
        _check_exit_prob_sandwich,
    ),
    _CheckDef(
        "exit-time-bound",
        "E_x[time to leave (0,R)] <= 4 R h(x); E/h floored near 0",
        _check_exit_time_bound,
    ),
    _CheckDef(
        "green-comparability",
        "G_Z/G_X bounded between positive constants; G_Y >= G_X",
        _check_green_comparability,
    ),
    _CheckDef(
        "gx-band",
        "G_X sits in a stable multiplicative band around the scale surrogate",
        _check_gx_band,
    ),
    _CheckDef(
        "harnack",
        "u(x) <= c6 u(y) across the centred window for nonnegative harmonic u",
        _check_harnack,
    ),
    _CheckDef(
        "bhp",
        "u(x) h(y) <= c7 u(y) h(x) near the absorbing endpoint",
        _check_bhp,
    ),
    _CheckDef(
        "small-interval",
        "G_Z(x, y) >= lambda2 h(R) on the near-origin window",
        _check_small_interval,
    ),
    _CheckDef(
        "three-g",
        "G(x,y) G(y,z) / G(x,z), distance-weighted, has a finite sup",
        _check_three_g,
    ),
    _CheckDef(
        "mc-laplace",
        "the walk's increments keep E cos(xi X_dt) = E exp(-xi^2 S_dt) = "
        "exp(-dt psi(xi)), read where dt psi(xi) = 1",
        _check_mc_laplace,
    ),
    _CheckDef(
        "mc-exit-law",
        "skeleton exit positions reproduce the solver harmonic measure",
        _check_mc_exit_law,
        _is_canonical_stable,
    ),
    _CheckDef(
        "mc-exit-time",
        "walk mean exit time matches the solver within noise plus lattice bias",
        _check_mc_exit_time,
    ),
    _CheckDef(
        "mc-creep",
        "exits happen by jumping across: no landing on an endpoint, and "
        "near-wall exits no likelier than under the solver exit law",
        _check_mc_creep,
    ),
    _CheckDef(
        "mc-exit-side",
        "walk exit-side frequencies match the solver exterior masses",
        _check_mc_exit_side,
    ),
)

CHECK_NAMES = tuple(c.name for c in _CHECKS)


def run_verify(cfg: RunConfig, only=None) -> CheckReport:
    """Execute the check list for every configured spec.

    ``only`` restricts to matching base names or full bracketed names.  An
    unknown name, or a selection that matches no check of the configured
    specs, raises ConfigError.  Checks never abort the run: exceptions are
    recorded as failures.
    """
    if not isinstance(cfg, RunConfig):
        raise ConfigError("run_verify needs a RunConfig")
    if only is not None:
        only = set(only)
        known = {c.name for c in _CHECKS}
        for name in only:
            if name.split("[")[0] not in known:
                raise ConfigError(f"unknown check name {name!r}")
    digest = cfg.digest()
    results = []
    for spec in cfg.specs:
        results += _run_spec(cfg, spec, [
            d for d in _CHECKS
            if (d.applies is None or d.applies(spec))
            and (only is None or d.name in only or f"{d.name}[{spec.label()}]" in only)
        ])
    if only is not None and not results:
        raise ConfigError(f"no check of the configured specs matches {sorted(only)}")
    return CheckReport(checks=results, config_digest=digest)


def _run_spec(cfg, spec, defs):
    """Run one spec's checks in a context of its own, dropped on return.  A
    check passes when all its (text, holds) clauses hold; tol joins the texts."""
    ctx = _Context(cfg, spec)
    results = []
    for defn in defs:
        t0 = time.perf_counter()
        try:
            measured, clauses = defn.fn(ctx)
            measured = {k: float(v) for k, v in measured.items()}
            clauses = [(text, bool(holds)) for text, holds in clauses]
        except Exception as e:  # recorded, never propagated
            measured, clauses = {}, [(f"raised {type(e).__name__}: {e}", False)]
        results.append(
            CheckResult(
                name=f"{defn.name}[{spec.label()}]",
                anchor=defn.anchor,
                measured=measured,
                tol="; ".join(text for text, _ in clauses),
                passed=all(holds for _, holds in clauses),
                runtime=time.perf_counter() - t0,
            )
        )
    return results


# -- report emission ---------------------------------------------------------------


def render_text(report: CheckReport):
    lines = []
    width = max((len(c.name) for c in report.checks), default=10)
    for c in report.checks:
        token = "PASS" if c.passed else "FAIL"
        keys = sorted(c.measured)
        shown = ", ".join(f"{k}={c.measured[k]:.6g}" for k in keys[:4])
        if len(keys) > 4:
            shown += ", ..."
        line = f"{token}  {c.name:<{width}}  {c.runtime:7.2f}s  {shown}"
        if not c.passed:
            line += f"  [{c.tol}]"
        lines.append(line)
    n_fail = sum(not c.passed for c in report.checks)
    lines.append(
        f"{len(report.checks)} checks, {n_fail} failed  (config {report.config_digest})"
    )
    return "\n".join(lines) + "\n"


def emit_report(report: CheckReport, path):
    """Write the report to ``path`` (a str or a Path), in the format its
    suffix names: ``.csv`` flattens one row per constant, ``.txt`` or
    ``.text`` is the rendered text, anything else is JSON, which
    ``load_report`` reads back."""
    if not report.checks:
        raise ConfigError("refusing to emit an empty report")
    name = os.fspath(path)
    if name.endswith(".csv"):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["check", "constant", "value", "tol", "pass", "runtime"])
            for c in report.checks:
                for k in sorted(c.measured):
                    w.writerow(
                        [c.name, k, repr(c.measured[k]), c.tol, c.passed, f"{c.runtime:.3f}"]
                    )
    elif name.endswith((".txt", ".text")):
        with open(path, "w") as fh:
            fh.write(render_text(report))
    else:
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_report(path) -> CheckReport:
    with open(path) as fh:
        return CheckReport.from_dict(json.load(fh))
