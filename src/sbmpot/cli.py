"""Command line front end.

Numbers go to CSV ("%.12e"), run metadata to JSON on stdout.  Exit codes:
0 success (verify: all checks pass), 1 verify found failing checks,
2 bad configuration or input, 3 a quadrature or dense solve could not
deliver its result.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bernstein import PhiSpec, phi_eval, scaling_exponents
from .errors import ConfigError, DomainError, QuadratureError, SolverError
from .kernels import KernelSet
from .interval_solver import (
    DEFAULT_LAMBDA1,
    Grid,
    StructuredGenerator,
    bhp_sup_ratio,
    block_drift,
    default_shelf,
    exit_alive_prob,
    harnack_sup_ratio,
    probe_block,
    small_interval_lower,
)
from .montecarlo import PathConfig, simulate_exit
from .quadrature import integrate_adaptive, integrate_oscillatory_cos
from .verify import RunConfig, emit_report, render_text, run_verify

_FMT = "%.12e"


def _load_spec(path):
    if path is None:
        return PhiSpec.stable(0.75)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read spec file {path!r}: {e}") from e
    return PhiSpec.from_json(text)


def _floats(text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"bad numeric list {text!r}") from e
    if not vals:
        raise ConfigError(f"empty numeric list {text!r}")
    return vals


def _emit_diag(kind, grid, value, bracket=None, refinement_drift=None):
    diag = {
        "kind": kind,
        "grid": grid,
        "value": value,
        "bracket": bracket,
        "refinement_drift": refinement_drift,
    }
    print(json.dumps(diag, sort_keys=True))


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- solve ------------------------------------------------------------------------


def _cmd_solve_green(args):
    spec = _load_spec(args.spec)
    ks = KernelSet(spec)
    n = args.n
    grid = Grid(args.a, args.b, n)
    xs = grid.nodes()
    mid = int(np.argmin(np.abs(xs - 0.5 * (args.a + args.b))))
    # G is solved for on the structured generator, in the columns the
    # request reads: the probes' nodes and mid for the value and the drift,
    # every node for --out; the same solve gives the same value either way
    op = StructuredGenerator(ks, grid, args.process)
    fine = probe_block(op, np.arange(n) if args.out else [mid])
    drift = None
    if n >= 64 and n % 2 == 0:
        half = StructuredGenerator(ks, Grid(args.a, args.b, n // 2), op.kind)
        drift = block_drift(probe_block(half), fine)
    if args.out:
        # one % a row over the row's joined format: the bytes of the
        # per-entry _FMT join in three quarters of its time
        row = ",".join([_FMT] * (n + 1))
        header = ["x"] + [_FMT % y for y in xs]
        rows = ([row % (xs[i], *fine.B[i].tolist())] for i in range(n))
        _write_rows(args.out, header, rows)
    _emit_diag(
        kind=f"green-{op.kind}",
        grid={"a": args.a, "b": args.b, "n": n, "spec": spec.label()},
        value=fine.at(mid),
        refinement_drift=drift,
    )
    return 0


def _cmd_solve_exit(args):
    spec = _load_spec(args.spec)
    ks = KernelSet(spec)
    xs = _floats(args.x)
    rep = exit_alive_prob(ks, args.R, xs, _floats(args.aseq) if args.aseq else None)
    if args.out:
        rows = (
            [_FMT % rep.x[i], _FMT % rep.value[i], _FMT % rep.lower[i],
             _FMT % rep.upper[i], _FMT % rep.bracket[i]]
            for i in range(rep.x.size)
        )
        _write_rows(args.out, ["x", "value", "lower", "upper", "width"], rows)
    drift = None
    if len(rep.per_a) >= 2:
        drift = float(np.max(np.abs(rep.per_a[-1]["p_exit"] - rep.per_a[-2]["p_exit"])))
    _emit_diag(
        kind="exit-alive",
        grid={"R": args.R, "a_seq": [p["a"] for p in rep.per_a],
              "spec": spec.label()},
        value=[float(v) for v in rep.value],
        bracket=[float(w) for w in rep.bracket],
        refinement_drift=drift,
    )
    return 0


def _half_n_drift(solve, n, value):
    """|solve(n // 2) / value - 1|, or None where the solver refuses n // 2 cells."""
    try:
        return abs(solve(n // 2) / value - 1.0)
    except ConfigError:
        return None


def _cmd_solve_harnack(args):
    spec = _load_spec(args.spec)
    ks = KernelSet(spec)
    rep = harnack_sup_ratio(ks, args.r, args.afrac, n=args.n)
    drift = _half_n_drift(lambda n: harnack_sup_ratio(ks, args.r, args.afrac, n=n).c6,
                          args.n, rep.c6)
    _emit_diag(
        kind="harnack",
        grid={"r": args.r, "a_frac": args.afrac, "n": args.n,
              "window": list(rep.window), "spec": spec.label()},
        value=rep.c6,
        refinement_drift=drift,
    )
    return 0


def _cmd_solve_bhp(args):
    spec = _load_spec(args.spec)
    ks = KernelSet(spec)
    rep = bhp_sup_ratio(ks, args.r, args.lambda1, n=args.n)
    drift = _half_n_drift(lambda n: bhp_sup_ratio(ks, args.r, args.lambda1, n=n).c7,
                          args.n, rep.c7)
    _emit_diag(
        kind="bhp",
        grid={"r": args.r, "lambda1": args.lambda1, "a": rep.a, "n": args.n,
              "spec": spec.label()},
        value=rep.c7,
        bracket=[rep.c7, rep.c7_upper],
        refinement_drift=drift,
    )
    return 0


def _cmd_solve_small(args):
    spec = _load_spec(args.spec)
    ks = KernelSet(spec)
    a = default_shelf(args.R) if args.a is None else args.a
    lam2, lam2_half = small_interval_lower(ks, args.R, args.lambda1, a, n=args.n)
    _emit_diag(
        kind="small-interval",
        grid={"R": args.R, "lambda1": args.lambda1, "a": a, "n": args.n,
              "spec": spec.label()},
        value=lam2,
        refinement_drift=abs(lam2_half / lam2 - 1.0),
    )
    return 0


# -- mc ---------------------------------------------------------------------------


def _cmd_mc_exit(args):
    spec = _load_spec(args.spec)
    pc = PathConfig(
        dt=args.dt,
        t_max=args.tmax,
        x0=args.x0,
        interval=(args.a, args.b),
        n_paths=args.paths,
        seed=args.seed,
        fold=args.fold,
    )
    st = simulate_exit(pc, spec)
    if args.out:
        def rows():
            for i in range(st.n_paths):
                if st.exited[i]:
                    side = "low" if st.exit_pos[i] <= args.a else "high"
                    yield [_FMT % st.exit_time[i], _FMT % st.exit_pos[i], side, "0"]
                else:
                    yield ["nan", "nan", "none", "1"]
        _write_rows(args.out, ["exit_time", "exit_position", "side", "censored"], rows())
    exited = st.exited
    pos = st.exit_pos[exited]
    tau = st.exit_time[exited]
    _emit_diag(
        "mc-exit",
        {"a": args.a, "b": args.b, "x0": args.x0, "dt": args.dt,
         "paths": args.paths, "seed": args.seed, "spec": spec.label()},
        {
            "n_exited": int(exited.sum()),
            "censored": int(st.censored),
            "mean_exit_time": float(tau.mean()) if tau.size else None,
            "frac_low": float(np.mean(pos <= args.a)) if pos.size else None,
            "creep_1e-4": st.creep_count(1e-4) / st.n_paths,
        },
    )
    return 0


# -- verify -----------------------------------------------------------------------


def _load_run_config(path):
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} is not valid JSON: {e}") from e
    return RunConfig.from_dict(data)


def _cmd_verify(args):
    cfg = _load_run_config(args.config)
    report = run_verify(cfg, only=None if args.name is None else [args.name])
    sys.stdout.write(render_text(report))
    if args.out:
        emit_report(report, args.out)
    return report.exit_code()


# -- small utilities ---------------------------------------------------------------


def _cmd_phi_eval(args):
    spec = _load_spec(args.spec)
    lam = np.asarray(_floats(args.lam))
    vals = phi_eval(spec, lam)
    print("lam,phi")
    for l, v in zip(lam, np.atleast_1d(vals)):
        print(f"{_FMT % l},{_FMT % v}")
    return 0


def _cmd_phi_show(args):
    spec = _load_spec(args.spec)
    print(spec.to_json())
    return 0


def _cmd_phi_scaling(args):
    spec = _load_spec(args.spec)
    rep = scaling_exponents(spec)
    print(json.dumps(rep.to_dict(), sort_keys=True))
    return 0


def _cmd_kernel_table(args):
    spec = _load_spec(args.spec)
    ks = KernelSet(spec)
    xs = np.asarray(_floats(args.xs))
    what = args.what
    if what == "psi":
        vals = ks.psi(xs)
    elif what == "j":
        vals = ks.levy_j(xs)
    elif what == "uq":
        vals = ks.uq(args.q, xs)
    elif what == "h":
        vals = ks.h_comp(xs)
    elif what == "gz":
        if args.y is None:
            raise ConfigError("gz needs --y")
        vals = ks.green_free_z(xs, args.y)
    elif what == "gx0":
        if args.y is None:
            raise ConfigError("gx0 needs --y")
        vals = ks.green_free_x0(xs, args.y)
    else:  # argparse choices make this unreachable
        raise ConfigError(f"unknown kernel {what!r}")
    lines = [f"{_FMT % x},{_FMT % v}" for x, v in zip(xs, vals)]
    body = "x,value\n" + "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


_SELFTEST = (
    ("int_0^1 x^-1/2 dx = 2",
     lambda: integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0, left_exponent=-0.5),
     2.0),
    ("int_0^inf exp(-x) dx = 1",
     lambda: integrate_adaptive(lambda x: np.exp(-x), 0.0, math.inf),
     1.0),
    ("int_0^inf (1-cos t) t^-3/2 dt = sqrt(2 pi)",
     lambda: integrate_oscillatory_cos(
         lambda t: t ** -1.5, 1.0, left_exponent=-1.5, tail_exponent=1.5),
     math.sqrt(2.0 * math.pi)),
    ("int_0^inf cos(t)/(1+t^2) dt = pi/(2 e)",
     lambda: integrate_oscillatory_cos(
         lambda t: 1.0 / (1.0 + t * t), 1.0, mode="cos", tail_exponent=2.0),
     0.5 * math.pi / math.e),
)


def _cmd_quad_selftest(args):
    failures = 0
    for label, run, target in _SELFTEST:
        res = run()
        err = abs(res.value - target)
        ok = res.converged and err < 1e-8
        failures += not ok
        token = "PASS" if ok else "FAIL"
        print(f"{token}  {label}  value={_FMT % res.value}  abs_err={err:.3e}  "
              f"evals={res.evals}")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------------


def _add_spec(p):
    p.add_argument("--spec", default=None, metavar="PHI_JSON",
                   help="Bernstein spec JSON file (default: stable delta=0.75)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sbmpot",
        description="potential-theory toolkit for subordinate Brownian motion "
                    "killed at the origin",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("phi", help="Bernstein function utilities")
    psub = p.add_subparsers(dest="sub", required=True)
    q = psub.add_parser("eval", help="evaluate phi on a grid")
    _add_spec(q)
    q.add_argument("--lam", required=True, help="comma list of arguments")
    q.set_defaults(fn=_cmd_phi_eval)
    q = psub.add_parser("show", help="print the spec as canonical JSON")
    _add_spec(q)
    q.set_defaults(fn=_cmd_phi_show)
    q = psub.add_parser("scaling", help="exact two-sided scaling envelope")
    _add_spec(q)
    q.set_defaults(fn=_cmd_phi_scaling)

    p = sub.add_parser("kernel", help="pointwise kernel tables")
    psub = p.add_subparsers(dest="sub", required=True)
    q = psub.add_parser("table", help="tabulate a kernel on points")
    _add_spec(q)
    q.add_argument("--what", required=True,
                   choices=("psi", "j", "uq", "h", "gz", "gx0"))
    q.add_argument("--xs", required=True, help="comma list of points")
    q.add_argument("--q", type=float, default=1.0, help="rate for uq")
    q.add_argument("--y", type=float, default=None, help="second argument for gz/gx0")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_kernel_table)

    p = sub.add_parser("quad", help="quadrature utilities")
    psub = p.add_subparsers(dest="sub", required=True)
    q = psub.add_parser("selftest", help="closed-form integral battery")
    q.set_defaults(fn=_cmd_quad_selftest)

    p = sub.add_parser("solve", help="interval solver")
    psub = p.add_subparsers(dest="sub", required=True)

    q = psub.add_parser("green", help="interval Green matrix")
    _add_spec(q)
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--n", type=int, default=512)
    q.add_argument("--process", default="Z", type=str.upper, choices=("X", "Y", "Z"))
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_solve_green)

    q = psub.add_parser("exit", help="bracketed survival exit probability")
    _add_spec(q)
    q.add_argument("--R", type=float, required=True)
    q.add_argument("--x", required=True, help="comma list of starting points")
    q.add_argument("--aseq", default=None,
                   help="comma list of shelf heights (default: the solver's, fractions of R)")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_solve_exit)

    q = psub.add_parser("harnack", help="uniform Harnack constant")
    _add_spec(q)
    q.add_argument("--r", type=float, required=True)
    q.add_argument("--afrac", type=float, default=0.5)
    q.add_argument("--n", type=int, default=512)
    q.set_defaults(fn=_cmd_solve_harnack)

    q = psub.add_parser("bhp", help="boundary Harnack constant at the origin")
    _add_spec(q)
    q.add_argument("--r", type=float, required=True)
    q.add_argument("--lambda1", type=float, default=DEFAULT_LAMBDA1)
    q.add_argument("--n", type=int, default=512)
    q.set_defaults(fn=_cmd_solve_bhp)

    q = psub.add_parser("small", help="near-origin Green lower constant")
    _add_spec(q)
    q.add_argument("--R", type=float, required=True)
    q.add_argument("--lambda1", type=float, default=DEFAULT_LAMBDA1)
    q.add_argument("--a", type=float, default=None,
                   help="absorbing shelf (default: the solver's, a fraction of R)")
    q.add_argument("--n", type=int, default=512)
    q.set_defaults(fn=_cmd_solve_small)

    p = sub.add_parser("mc", help="skeleton-walk Monte Carlo")
    psub = p.add_subparsers(dest="sub", required=True)
    q = psub.add_parser("exit", help="first-exit sampling on an interval")
    _add_spec(q)
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--dt", type=float, required=True)
    q.add_argument("--paths", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tmax", type=float, default=50.0)
    q.add_argument("--fold", action="store_true",
                   help="reflect the driving walk at 0 (kind Z geometry)")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_mc_exit)

    p = sub.add_parser("verify", help="certification suite")
    psub = p.add_subparsers(dest="sub", required=True)
    q = psub.add_parser("all", help="run every check")
    q.add_argument("--config", default=None, help="RunConfig JSON")
    q.add_argument("--out", default=None,
                   help="report file; .csv and .txt/.text pick the format, else JSON")
    q.set_defaults(fn=_cmd_verify, name=None)
    q = psub.add_parser("one", help="run a single named check")
    q.add_argument("--name", required=True)
    q.add_argument("--config", default=None, help="RunConfig JSON")
    q.add_argument("--out", default=None,
                   help="report file; .csv and .txt/.text pick the format, else JSON")
    q.set_defaults(fn=_cmd_verify)

    return ap


@functools.cache
def _parser():
    # built on the first call of main, not at import: a process that calls
    # main many times builds the argparse tree once
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    except (QuadratureError, SolverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
