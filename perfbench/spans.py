"""Span recorder that traces sbmpot from outside the package.

``Tracer.install`` replaces sbmpot's public callables, wherever a module
binds them, with wrappers that record one span per call: name, start, end,
parent span and op id.  Spans live in flat arrays until the run ends, so
recording a span costs two clock reads and five appends.  ``uninstall``
puts every original back.  No package file is edited.

A span's self time is its duration minus the time its child spans cover;
``layer_metrics`` folds spans and the counters gathered by the wrappers
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from array import array

import numpy as np

# interval_solver functions that only reduce matrices the solvers built
REDUCTIONS = (
    "exit_time",
    "default_zgrid",
    "harmonic_extend",
    "gauge_ratios",
    "three_g_sup",
    "harnack_sup_ratio",
    "bhp_sup_ratio",
    "small_interval_lower",
    "green_drift",
    "default_boundary_fset",
)
SOLVERS = ("build_generator", "green_matrix", "poisson_kernel", "exit_alive_prob")
# levy_j is left unwrapped: as the integrand of the jump-tail quadrature it
# is called about a million times per certification, and a span on each call
# would double the tracing cost; its time stays in its caller's self time
KERNEL_METHODS = (
    "psi",
    "jump_tail_closed",
    "jump_tail",
    "uq",
    "h_comp",
    "h_many",
    "green_free_x0",
    "green_free_z",
    "jump_i",
    "phi_cap",
    "phi_cap_inv",
    "gx_estimate",
)
VERIFY_CHECKS = (
    "h-value",
    "h-homogeneity",
    "green-sandwich",
    "h-psi-band",
    "green-self-convergence",
    "poisson-row-mass",
    "exit-prob-sandwich",
    "exit-time-bound",
    "green-comparability",
    "gx-band",
    "harnack",
    "bhp",
    "small-interval",
    "three-g",
    "mc-laplace",
    "mc-exit-law",
    "mc-exit-time",
    "mc-creep",
    "mc-exit-side",
)

# every span name falls in exactly one bucket, so bucket self times add up
# to the summed self time of all spans
BUCKETS = (
    "harness",
    "cli",
    "verify",
    "interval_solver.build_generator",
    "interval_solver.green_matrix",
    "interval_solver.poisson_kernel",
    "interval_solver.exit_alive_prob",
    "interval_solver.reductions",
    "interval_solver.factor",
    "kernels.h_comp",
    "kernels.jump_tail",
    "kernels.jump_tail_closed",
    "kernels.other",
    "quadrature.adaptive",
    "quadrature.oscillatory",
    "bernstein.phi_eval",
    "montecarlo.sample_increment",
    "montecarlo.walk",
)


def bucket_of(name):
    """Layer bucket of a span name."""
    if name == "op":
        return "harness"
    if name == "cli.main":
        return "cli"
    if name.startswith("verify."):
        return "verify"
    if name in ("numpy.linalg.inv", "numpy.linalg.solve"):
        return "interval_solver.factor"
    if name.startswith("interval_solver."):
        fn = name.split(".", 1)[1]
        return name if fn in SOLVERS else "interval_solver.reductions"
    if name.startswith("kernels."):
        return name if name in (
            "kernels.h_comp", "kernels.jump_tail", "kernels.jump_tail_closed"
        ) else "kernels.other"
    if name == "montecarlo.simulate_exit":
        return "montecarlo.walk"
    if name in BUCKETS:
        return name
    raise KeyError(f"span {name!r} has no layer bucket")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_box = [-1]
        self.counters = {}
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def parent_name(self):
        """Name of the innermost open span, or None outside every span."""
        idx = self.stack[-1]
        return None if idx < 0 else self.names[self.name[idx]]

    def wrap(self, name, fn, after=None):
        """Wrapper around ``fn`` recording a span; ``after(args, kw, result)``
        runs once the span has closed, with its parent open again."""
        nid = self._id(name)
        names, parents, ops = self.name, self.parent, self.op
        t0s, t1s, stack, op_box = self.t0, self.t1, self.stack, self.op_box
        clock = time.perf_counter

        def traced(*args, **kw):
            idx = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op_box[0])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                res = fn(*args, **kw)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kw, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn`` as op ``op_id`` under a root span named "op"."""
        self.op_box[0] = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op_box[0] = -1

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every loaded sbmpot module."""
        hit = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sbmpot" or modname.startswith("sbmpot.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, wrapper)
                    hit = True
        if not hit:
            raise RuntimeError(f"{original!r} is bound nowhere in sbmpot")

    def install(self):
        """Wrap sbmpot's public callables; returns self."""
        import sbmpot.bernstein as bernstein
        import sbmpot.cli as cli
        import sbmpot.interval_solver as isol
        import sbmpot.kernels as kernels
        import sbmpot.montecarlo as mc
        import sbmpot.quadrature as quad
        import sbmpot.verify as verify

        c = _Counters(self)
        wrap = self.wrap
        for fn, name, after in (
            (quad.integrate_adaptive, "quadrature.adaptive", c.adaptive),
            (quad.integrate_oscillatory_cos, "quadrature.oscillatory", c.oscillatory),
            (bernstein.phi_eval, "bernstein.phi_eval", None),
            (mc.sample_increment, "montecarlo.sample_increment", c.sample_increment),
            (mc.simulate_exit, "montecarlo.simulate_exit", c.simulate_exit),
            (verify.run_verify, "verify.run_verify", None),
        ):
            self._patch_everywhere(fn, wrap(name, fn, after))
        hooks = {
            "build_generator": c.build_generator,
            "green_matrix": c.green_matrix,
            "poisson_kernel": c.poisson_kernel,
            "exit_alive_prob": c.exit_alive_prob,
        }
        for fname in SOLVERS + REDUCTIONS:
            fn = getattr(isol, fname)
            self._patch_everywhere(
                fn, wrap(f"interval_solver.{fname}", fn, hooks.get(fname))
            )
        kset = kernels.KernelSet
        for meth in KERNEL_METHODS:
            after = c.jump_tail_closed if meth == "jump_tail_closed" else None
            self._patch(kset, meth, wrap(f"kernels.{meth}", vars(kset)[meth], after))
        self._patch(np.linalg, "inv", wrap("numpy.linalg.inv", np.linalg.inv, c.inv))
        self._patch(np.linalg, "solve", wrap("numpy.linalg.solve", np.linalg.solve, c.solve))
        # run_verify reads its check table at call time; the table holds the
        # check bodies, which no module binds by a public name
        self._patch(verify, "_CHECKS", tuple(
            dataclasses.replace(d, fn=wrap(f"verify.check.{d.name}", d.fn))
            for d in verify._CHECKS
        ))
        self._patch(cli, "main", wrap("cli.main", cli.main))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, op id, start, end."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
            np.frombuffer(self.t0, dtype=np.float64),
            np.frombuffer(self.t1, dtype=np.float64),
        )

    def self_times(self):
        """(duration, self time, child count) per span."""
        _, parent, _, t0, t1 = self.arrays()
        dur = t1 - t0
        covered = np.zeros(dur.size)
        nchild = np.zeros(dur.size, dtype=np.int64)
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        np.add.at(nchild, parent[has], 1)
        return dur, dur - covered, nchild

    def save(self, path):
        name, parent, op, t0, t1 = self.arrays()
        # uncompressed: compressing a certification's spans takes over 1 s
        np.savez(
            path, names=np.array(self.names), name=name, parent=parent,
            op=op, start=t0, end=t1,
        )


class _Counters:
    """Work and health counters gathered at the wrapped call boundaries."""

    def __init__(self, tracer):
        self.t = tracer

    def adaptive(self, args, kw, res):
        t = self.t
        t.add("quadrature.adaptive.evals", res.evals)
        if not res.converged:
            t.add("quadrature.adaptive.unconverged", 1)
            # KernelSet checks .converged and raises; the interval solvers
            # (_wall_correction, the band coefficient c2) read .value unchecked
            parent = t.parent_name() or ""
            if parent.startswith("interval_solver."):
                t.add("quadrature.adaptive.unconverged_unchecked", 1)

    def oscillatory(self, args, kw, res):
        self.t.add("quadrature.oscillatory.evals", res.evals)
        if not res.converged:
            self.t.add("quadrature.oscillatory.unconverged", 1)

    def jump_tail_closed(self, args, kw, res):
        self.t.add("kernels.jump_tail_closed.elements", int(np.size(res)))

    def build_generator(self, args, kw, res):
        n = res.grid.n
        self.t.add("interval_solver.build_generator.entries", n * n)
        self.t.peak("interval_solver.matrix_bytes_max", 8 * n * n)

    def green_matrix(self, args, kw, res):
        t = self.t
        t.peak("interval_solver.green_matrix.asymmetry_max", float(res.asymmetry))
        if (t.parent_name() or "").startswith("verify.check."):
            t.add("verify.green_matrix.calls", 1)

    def poisson_kernel(self, args, kw, res):
        self.t.add("interval_solver.poisson_kernel.entries", int(res.K.size))

    def exit_alive_prob(self, args, kw, res):
        n_max = max(int(p["n"]) for p in res.per_a)
        self.t.peak("interval_solver.exit_alive_prob.n_max", n_max)
        self.t.peak("interval_solver.matrix_bytes_max", 8 * n_max * n_max)

    def inv(self, args, kw, res):
        n = res.shape[-1]
        self.t.add("interval_solver.factor.flops_computed", 2.0 * n ** 3)

    def solve(self, args, kw, res):
        n = res.shape[0]
        k = 1 if res.ndim == 1 else res.shape[1]
        self.t.add(
            "interval_solver.factor.flops_computed",
            2.0 / 3.0 * n ** 3 + 2.0 * n * n * k,
        )

    def sample_increment(self, args, kw, res):
        if self.t.parent_name() == "montecarlo.simulate_exit":
            self.t.add("montecarlo.simulate_exit.increments_drawn", int(np.size(res)))

    def simulate_exit(self, args, kw, st):
        cfg = args[0] if args else kw["cfg"]
        n_max = int(math.ceil(cfg.t_max / cfg.dt))
        steps = np.rint(st.exit_time[st.exited] / st.dt).sum() + st.censored * n_max
        self.t.add("montecarlo.simulate_exit.paths", st.n_paths)
        self.t.add("montecarlo.simulate_exit.steps_used", int(steps))
