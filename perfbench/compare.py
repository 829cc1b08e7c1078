"""Turn sbmpot outputs into comparable observations and hold them against
the stored reference.

Rules:
* certify: every check's pass/fail verdict is identical, and the measured
  constants of every check outside ``mc-*`` agree to 1e-9 relative
  (timing keys excluded).
* CLI diagnostics and tables: every number agrees to 1e-9 relative.
* ``mc exit`` summaries: the path count is exact; the mean exit time and
  the low-side fraction lie within 4 standard errors of the difference of
  two independent estimates, so a change that re-keys the random streams
  but keeps the law still passes while a broken walk does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL = 1e-9
MC_SIGMAS = 4.0


def close(a, b, rel=REL):
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def diff_tree(got, want, path="", rel=REL):
    """Mismatches between two JSON-like trees, numbers compared to ``rel``."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        return [] if close(float(got), float(want), rel) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: shape differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff_tree(g, w, f"{path}[{i}]", rel)
        return out
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: not an object"]
        if set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in sorted(want):
            out += diff_tree(got[k], want[k], f"{path}.{k}", rel)
        return out
    raise TypeError(f"unexpected reference value {want!r} at {path}")


# -- observations ---------------------------------------------------------


def matrix_csv_summary(path):
    """Shape and a few reductions of a Green-matrix CSV written by ``--out``."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    nodes = np.array([float(v) for v in header[1:]])
    G = body[:, 1:]
    return {
        "shape": list(G.shape),
        "nodes_sum": float(nodes.sum()),
        "rows_sum": float(body[:, 0].sum()),
        "sum": float(G.sum()),
        "trace": float(np.trace(G)),
        "max": float(G.max()),
        "min": float(G.min()),
        "first_row_sum": float(G[0].sum()),
        "corner": float(G[0, -1]),
    }


def table_rows(text):
    """Rows of the ``x,value`` CSV that ``kernel table`` prints."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "x,value":
        raise ValueError("not a kernel table")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def observe(argv, rc, stdout, out_path=None):
    """What a CLI request produced, in the form the reference stores."""
    obs = {"rc": rc}
    if rc != 0:
        return obs
    if argv[:2] == ["kernel", "table"]:
        obs["table"] = table_rows(stdout)
    else:
        obs["diag"] = json.loads(stdout)
    if out_path is not None:
        obs["out"] = matrix_csv_summary(out_path)
    return obs


# -- comparisons ------------------------------------------------------------


def mc_standard_errors(diag, csv_path):
    """Standard errors of the mean exit time and low-side fraction, from the
    per-path CSV that ``mc exit --out`` writes."""
    with open(csv_path) as fh:
        fh.readline()
        tau = [float(line.split(",")[0]) for line in fh if ",none," not in line]
    tau = np.asarray(tau)
    n = tau.size
    p = min(max(diag["value"]["frac_low"], 1.0 / n), 1.0 - 1.0 / n)
    return {
        "mean_exit_time": float(tau.std(ddof=1) / math.sqrt(n)),
        "frac_low": math.sqrt(p * (1.0 - p) / n),
    }


def check_mc(got, want):
    """``mc exit`` summary against its reference (see the module docstring)."""
    if got.get("rc") != 0:
        return [f"rc={got.get('rc')}"]
    g, w = got["diag"], want["diag"]
    out = diff_tree(g["grid"], w["grid"], "grid")
    gv, wv = g["value"], w["value"]
    if gv["n_exited"] + gv["censored"] != w["grid"]["paths"]:
        out.append("path count differs")
    for key, se in want["se"].items():
        if gv[key] is None:
            out.append(f"{key} missing")
            continue
        band = MC_SIGMAS * math.sqrt(2.0) * se
        if abs(gv[key] - wv[key]) > band:
            out.append(f"{key}: {gv[key]!r} vs {wv[key]!r} beyond {band:.3g}")
    return out


def check_cli(argv, got, want):
    if argv[:2] == ["mc", "exit"]:
        return check_mc(got, want)
    return diff_tree(got, want)


def is_timing_key(key):
    return key.endswith("_s")


def certify_observation(report):
    """Verdicts and measured constants of a CheckReport, keyed by check;
    timing keys such as eval_s are left out."""
    return {
        c.name: {
            "pass": bool(c.passed),
            "measured": {k: v for k, v in c.measured.items() if not is_timing_key(k)},
        }
        for c in report.checks
    }


def check_certify(got, want):
    """Per-check mismatch lists; a check missing on either side mismatches."""
    out = {}
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            out[name] = ["missing"]
            continue
        g, w = got[name], want[name]
        bad = [] if g["pass"] == w["pass"] else [f"verdict {g['pass']} != {w['pass']}"]
        if not name.startswith("mc-"):
            bad += diff_tree(g["measured"], w["measured"], "measured")
        out[name] = bad
    return out
