"""sbmpot benchmark: one workload per process, closed loop, single client.

    python3 perfbench/run.py --workload {certify,cli-solve,walk} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; sbmpot is imported from ./src.  The last
line of stdout is the result: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it records the
environment, the tail percentile and any failed ops.  Scratch files go to
.bench_out/ and are removed; the span file of a traced run stays there.

Every run makes its workload's whole fixed batch, so --seconds is accepted
for the common command line but does not change the work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "paths_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=("certify", "cli-solve", "walk"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up, print the monotonic clock, exit")
    return ap.parse_args(argv)


def import_sbmpot():
    """Import sbmpot from this checkout's source tree, never from elsewhere."""
    if not (SRC / "sbmpot" / "__init__.py").is_file():
        fail(f"no sbmpot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sbmpot

    if Path(sbmpot.__file__).resolve().parent != (SRC / "sbmpot").resolve():
        fail(f"imported sbmpot from {sbmpot.__file__}, not from {SRC}")
    return sbmpot


def setup(args, workdir):
    """Everything a run does before its first op; returns the bound batch."""
    import_sbmpot()
    import workloads

    ref = workloads.load_reference(args.workload)
    if args.workload == "certify":
        cfg = workloads.certify_config()
        if cfg.digest() != ref["digest"]:
            fail("certify RunConfig differs from the one the reference was made with")
        return {"cfg": cfg, "reference": ref}
    reqs = workloads.bind(args.workload, args.seed, ref, workdir)
    return {"requests": reqs, "reference": ref}


def measure_setup(args):
    """Median over fresh interpreters of interpreter start to first op."""
    samples = []
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        t0 = time.monotonic()
        # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples), samples


def run_batch(args, state, tracer=None):
    import workloads

    if args.workload == "certify":
        return workloads.run_certify(state["cfg"], state["reference"], tracer)
    return workloads.run_cli_batch(state["requests"], tracer)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def blas_threads():
    """Thread count of the BLAS numpy loaded, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args, state, load_before):
    import numpy as np
    import sbmpot

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sbmpot": sbmpot.__version__,
        "machine": platform.machine(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "load_model": "closed loop, one client, no threads of its own",
    }
    if "cfg" in state:
        env["certify_digest"] = state["cfg"].digest()
        env["certify_config"] = state["cfg"].to_dict()
    return env


def end_to_end(res, setup_s):
    p50 = statistics.median(res["latencies"])
    tail_s, pct, n = tail(res["latencies"])
    values = {
        "setup_s": setup_s,
        "wall_s": res["wall_s"],
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "paths_per_s": res["paths"] / res["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    extra = {"op_tail_pct": pct, "op_count": n,
             "fail_frac": len(res["failures"]) / res["attempted"]}
    return metrics, extra


def traced_run(args, state):
    """Per-layer metrics of one traced batch.

    The batch runs untraced first: its wall time is what the tracing
    overhead is measured against, and both passes must print the same.
    Returns the attempted and failed ops of both passes together.
    """
    import layers
    import spans

    plain = run_batch(args, state)
    tracer = spans.Tracer().install()
    try:
        traced = run_batch(args, state, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    metrics = layers.layer_metrics(tracer, traced, plain["wall_s"])
    failures = plain["failures"] + traced["failures"]
    if traced["outputs"] != plain["outputs"]:
        failures.append({"why": ["traced outputs differ from untraced"]})
    res = {"attempted": plain["attempted"] + traced["attempted"], "failures": failures}
    return res, metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_probe:
        try:
            setup(args, workdir)
            print(time.monotonic())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    if not (SRC / "sbmpot" / "__init__.py").is_file():
        fail(f"no sbmpot sources under {SRC}")
    load_before = os.getloadavg()
    record = {}
    if args.trace == 0:
        setup_s, record["setup_samples_s"] = measure_setup(args)
    try:
        state = setup(args, workdir)
        if args.trace == 0:
            res = run_batch(args, state)
            metrics, extra = end_to_end(res, setup_s)
            record.update(extra)
        else:
            res, metrics = traced_run(args, state)
            record["fail_frac"] = len(res["failures"]) / res["attempted"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = environment(args, state, load_before)
    record["failures"] = res["failures"][:20]
    print(json.dumps({"record": record}, sort_keys=True))
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
