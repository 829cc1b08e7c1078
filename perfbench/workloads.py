"""The benchmark's three workloads: request catalogues, plans and execution.

certify    one ``run_verify`` over both fixture specs at a reduced size
cli-solve  a stream of in-process ``sbmpot solve`` / ``kernel table`` /
           ``mc exit`` commands, each building a cold KernelSet
walk       a stream of in-process ``sbmpot mc exit`` commands

The cli-solve and walk requests come from a fixed catalogue stored with its
reference outputs in ``reference/<workload>.json``.  The catalogue is
stratified into classes, and no two of its requests share a lattice.  Every
run makes the whole catalogue; the seed sets only the order, so that runs
differ only by machine noise: with about twenty requests a run, a seeded
subset would move the median latency more than the noise does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np

import compare

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("certify", "cli-solve", "walk")

# certify: defaults except a Monte Carlo part cut to a small share;
# n_coarse must stay above 192 or bhp raises ConfigError
CERTIFY_CONFIG = {"n_coarse": 200, "n_fine": 256, "mc_paths": 2000, "mc_dt": [1e-2, 1e-3]}

CATALOGUE_SEED = 20261017
WALK_PATHS = 500
CLI_MC_PATHS = 1000

STABLE = {"family": "stable", "delta": 0.75}
MIXTURE = {"family": "mixture", "terms": [[1.0, 0.6], [1.0, 0.9]]}


def _num(v):
    return "%.6g" % v


def _spec(rng, j):
    """Fixture stable, fixture mixture, or a random stable exponent, in turn."""
    if j % 3 == 0:
        return STABLE
    if j % 3 == 1:
        return MIXTURE
    return {"family": "stable", "delta": float(_num(rng.uniform(0.6, 0.9)))}


def _interval(rng):
    a = rng.uniform(0.3, 1.5)
    return a, a + rng.uniform(0.6, 1.6)


def _green(n, kinds="zxy"):
    def make(rng, k):
        a, b = _interval(rng)
        argv = ["solve", "green", "--a", _num(a), "--b", _num(b), "--n", str(n),
                "--process", kinds[k % len(kinds)]]
        # n=512 requests also write their matrix as CSV
        if n == 512:
            argv += ["--out", "{out}"]
        return argv
    return make


def _aux(cmd, n):
    def make(rng, k):
        r = _num(rng.uniform(0.5, 2.0))
        if cmd == "harnack":
            return ["solve", "harnack", "--r", r, "--afrac", _num(rng.uniform(0.35, 0.65)),
                    "--n", str(n)]
        if cmd == "bhp":
            return ["solve", "bhp", "--r", r, "--lambda1", _num(rng.uniform(0.22, 0.3)),
                    "--n", str(n)]
        R = float(r)
        return ["solve", "small", "--R", r, "--a", _num(R * rng.uniform(0.003, 0.006)),
                "--n", str(n)]
    return make


def _exit(rng, k):
    R = rng.uniform(0.6, 1.6)
    shelves = sorted((R * rng.uniform(0.02, 0.04), R * rng.uniform(0.008, 0.015)), reverse=True)
    xs = np.sort(R * rng.uniform(0.12, 0.9, size=3))
    return ["solve", "exit", "--R", _num(R), "--x", ",".join(_num(x) for x in xs),
            "--aseq", ",".join(_num(a) for a in shelves)]


def _kernel_h(rng, k):
    xs = np.sort(10.0 ** rng.uniform(-2.0, 1.0, size=int(rng.integers(6, 13))))
    return ["kernel", "table", "--what", "h", "--xs", ",".join(_num(x) for x in xs)]


def _kernel_gz(rng, k):
    xs = np.sort(rng.uniform(0.05, 3.0, size=6))
    return ["kernel", "table", "--what", "gz", "--y", _num(rng.uniform(0.2, 2.5)),
            "--xs", ",".join(_num(x) for x in xs)]


def _mc(rng, a, b, x0, dt, paths, fold):
    argv = ["mc", "exit", "--a", _num(a), "--b", _num(b), "--x0", _num(x0), "--dt", dt,
            "--paths", str(paths), "--seed", str(int(rng.integers(0, 2**31)))]
    return argv + ["--fold"] if fold else argv


def _cli_mc(rng, k):
    a = rng.uniform(0.8, 1.2)
    b = a + rng.uniform(0.8, 1.4)
    return _mc(rng, a, b, a + (b - a) * rng.uniform(0.3, 0.7), "1e-2", CLI_MC_PATHS, False)


# class -> (requests in the catalogue, request maker, spec or None for a mix of
# specs); n = 2048 stays a minority, and the two largest sizes use the
# heaviest kind so that peak memory does not depend on the seed
CLI_CLASSES = {
    "kernel-h": (3, _kernel_h, None),
    "kernel-gz": (2, _kernel_gz, None),
    "mc-exit": (3, _cli_mc, None),
    "green-256": (5, _green(256), None),
    "green-512": (1, _green(512), None),
    "green-1024": (1, _green(1024, "z"), None),
    "green-2048": (1, _green(2048, "z"), None),
    "harnack-256": (2, _aux("harnack", 256), None),
    "bhp-256": (3, _aux("bhp", 256), None),
    "small-256": (1, _aux("small", 256), None),
    "exit": (1, _exit, None),
}

# start position as a fraction of the interval, mirrored at random
_X0_FRACTIONS = {
    "mid": (0.4, 0.6),
    "offset": (0.2, 0.3),
    "wall": (0.03, 0.08),
    "fold-mid": (0.35, 0.65),
    "fold-wall": (0.05, 0.1),
}


def _walk(dt, where):
    def make(rng, k):
        fold = where.startswith("fold")
        if fold:
            # an interval close to the origin, where folding matters
            a = rng.uniform(0.03, 0.08)
            b = a + rng.uniform(0.45, 0.75)
        else:
            a = rng.uniform(0.8, 1.2)
            b = a + rng.uniform(0.8, 1.4)
        u = rng.uniform(*_X0_FRACTIONS[where])
        if rng.random() < 0.5:
            u = 1.0 - u
        return _mc(rng, a, b, a + (b - a) * u, dt, WALK_PATHS, fold)
    return make


WALK_CLASSES = {
    f"{label}-{dt}-{where}": (2, _walk(dt, where), spec)
    for label, spec in (("stable", STABLE), ("mix", MIXTURE))
    for dt in ("1e-2", "1e-3", "1e-4")
    for where in _X0_FRACTIONS
}
CLASSES = {"cli-solve": CLI_CLASSES, "walk": WALK_CLASSES}


def catalogue(workload):
    """Every catalogue request of a workload, grouped by class.

    A pure function of CATALOGUE_SEED; the reference files store its output.
    """
    out = {}
    j = 0  # running entry index: spreads the specs across classes
    for ci, (name, (count, maker, spec)) in enumerate(sorted(CLASSES[workload].items())):
        rng = np.random.default_rng([CATALOGUE_SEED, ci])
        entries = []
        for k in range(count):
            entry_spec = spec or _spec(rng, j)
            entries.append({"argv": maker(rng, k), "spec": entry_spec})
            j += 1
        out[name] = entries
    return out


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def plan(workload, seed, reference):
    """The run's requests, (class, index) pairs: the whole catalogue in an
    order that is a pure function of the seed."""
    rng = np.random.default_rng([seed, 0x5BB])
    chosen = [(name, idx) for name, entries in sorted(reference["classes"].items())
              for idx in range(len(entries))]
    return [chosen[i] for i in rng.permutation(len(chosen))]


# -- execution ----------------------------------------------------------------


class Request:
    """One bound CLI request: argv with its spec file and output path filled in."""

    def __init__(self, op_id, cls, idx, entry, spec_path, workdir):
        self.op_id = op_id
        self.cls = cls
        self.idx = idx
        self.entry = entry
        self.out_path = None
        argv = list(entry["argv"])
        if "{out}" in argv:
            self.out_path = str(workdir / f"out-{op_id}.csv")
            argv[argv.index("{out}")] = self.out_path
        self.argv = argv[:2] + ["--spec", spec_path] + argv[2:]


def bind(workload, seed, reference, workdir):
    """Write the spec files and bind the run's requests to them."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_paths = {}
    requests = []
    for op_id, (cls, idx) in enumerate(plan(workload, seed, reference)):
        entry = reference["classes"][cls][idx]
        key = json.dumps(entry["spec"], sort_keys=True)
        if key not in spec_paths:
            path = workdir / f"spec-{len(spec_paths)}.json"
            path.write_text(key)
            spec_paths[key] = str(path)
        requests.append(Request(op_id, cls, idx, entry, spec_paths[key], workdir))
    return requests


def call_cli(argv):
    """``sbmpot`` in-process; returns (exit code, captured stdout).

    ``main`` is looked up at call time so that a tracer's wrapper applies.
    """
    import sbmpot.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code
        except Exception as e:  # an op that raises counts as failed
            rc = f"raised {type(e).__name__}: {e}"
    return rc, buf.getvalue()


def run_cli_batch(requests, tracer=None):
    """Run requests back to back; compare outputs after the timed loop.

    Returns a dict with per-op latencies, outputs, failures and wall time.
    """
    clock = time.perf_counter
    lat, raw = [], []
    start = clock()
    for req in requests:
        t0 = clock()
        if tracer is None:
            rc, text = call_cli(req.argv)
        else:
            rc, text = tracer.run_op(req.op_id, call_cli, req.argv)
        lat.append(clock() - t0)
        raw.append((rc, text))
    wall = clock() - start
    outputs, failures, out_bytes, paths = [], [], 0, 0
    for req, (rc, text) in zip(requests, raw):
        out_bytes += len(text.encode())
        try:
            obs = compare.observe(req.entry["argv"], rc, text, req.out_path if rc == 0 else None)
            bad = compare.check_cli(req.entry["argv"], obs, req.entry["expect"])
        except (ValueError, KeyError, TypeError) as e:
            obs, bad = {"rc": rc, "error": str(e)}, [f"unreadable output: {e}"]
        if req.out_path is not None and os.path.exists(req.out_path):
            out_bytes += os.path.getsize(req.out_path)
            os.remove(req.out_path)
        if req.argv[:2] == ["mc", "exit"]:
            paths += int(req.entry["expect"]["diag"]["grid"]["paths"])
        outputs.append(obs)
        if bad:
            failures.append({"op": req.op_id, "class": req.cls, "entry": req.idx,
                             "why": bad[:3]})
    return {
        "wall_s": wall,
        "latencies": lat,
        "outputs": outputs,
        "failures": failures,
        "attempted": len(requests),
        "out_bytes": out_bytes,
        "paths": paths,
    }


def certify_config():
    from sbmpot import RunConfig

    kw = dict(CERTIFY_CONFIG)
    kw["mc_dt"] = tuple(kw["mc_dt"])
    return RunConfig(**kw)


def run_certify(cfg, reference, tracer=None):
    """One certification, checked against the reference verdicts."""
    import sbmpot.verify as verify

    # exit paths the certification walks, for paths_per_s
    paths = []
    inner = verify.simulate_exit

    def counted_walk(pc, spec):
        st = inner(pc, spec)
        paths.append(st.n_paths)
        return st

    verify.simulate_exit = counted_walk
    try:
        t0 = time.perf_counter()
        if tracer is None:
            report = verify.run_verify(cfg)
        else:
            report = tracer.run_op(0, lambda: verify.run_verify(cfg))
        wall = time.perf_counter() - t0
    finally:
        verify.simulate_exit = inner
    obs = compare.certify_observation(report)
    bad = compare.check_certify(obs, reference["checks"])
    # the certification is the request; its 35 checks are the attempted items
    return {
        "wall_s": wall,
        "latencies": [wall],
        "outputs": [obs],
        "failures": [{"check": k, "why": v[:3]} for k, v in bad.items() if v],
        "attempted": len(bad),
        "out_bytes": 0,
        "paths": sum(paths),
    }
