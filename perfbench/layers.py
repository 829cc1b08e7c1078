"""Per-layer metrics of a traced batch.

Counts marked "computed" are derived from sizes (n, k), not measured:
factor flops are 2 n^3 for ``inv`` and 2/3 n^3 + 2 n^2 k for ``solve``,
assembly entries n^2 per generator, Poisson entries n times the exterior
node count, matrix bytes 8 n^2.
"""

from __future__ import annotations

import numpy as np

from spans import BUCKETS, VERIFY_CHECKS, bucket_of


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


# (metric, unit) in report order; every traced run reports all of them
METRICS = (
    [
        ("quadrature.adaptive.calls", "count"),
        ("quadrature.adaptive.evals", "count"),
        ("quadrature.adaptive.unconverged", "count"),
        ("quadrature.adaptive.unconverged_unchecked", "count"),
        ("quadrature.oscillatory.calls", "count"),
        ("quadrature.oscillatory.evals", "count"),
        ("quadrature.oscillatory.unconverged", "count"),
        ("bernstein.phi_eval.calls", "count"),
        ("kernels.h_comp.calls", "count"),
        ("kernels.h_comp.hit_ratio", "1"),
        ("kernels.h_comp.s", "s"),
        ("kernels.jump_tail.calls", "count"),
        ("kernels.jump_tail.hit_ratio", "1"),
        ("kernels.jump_tail.s", "s"),
        ("kernels.jump_tail_closed.calls", "count"),
        ("kernels.jump_tail_closed.elements", "count"),
        ("interval_solver.build_generator.calls", "count"),
        ("interval_solver.build_generator.entries", "count"),
        ("interval_solver.factor.calls", "count"),
        ("interval_solver.factor.flops_computed", "flop"),
        ("interval_solver.factor.s", "s"),
        ("interval_solver.factor.gflops_computed", "GFLOP/s"),
        ("interval_solver.green_matrix.calls", "count"),
        ("interval_solver.green_matrix.asymmetry_max", "1"),
        ("interval_solver.poisson_kernel.entries", "count"),
        ("interval_solver.exit_alive_prob.s", "s"),
        ("interval_solver.exit_alive_prob.n_max", "count"),
        ("interval_solver.matrix_bytes_max", "B"),
        ("montecarlo.simulate_exit.s", "s"),
        ("montecarlo.simulate_exit.paths", "count"),
        ("montecarlo.simulate_exit.steps_used", "count"),
        ("montecarlo.simulate_exit.increments_drawn", "count"),
        ("montecarlo.simulate_exit.useful_ratio", "1"),
        ("montecarlo.simulate_exit.ns_per_step", "ns"),
        ("montecarlo.sample_increment.calls", "count"),
        ("verify.green_matrix.calls", "count"),
        ("cli.out_bytes", "B"),
    ]
    + [(f"{b}.self_s", "s") for b in BUCKETS]
    + [(f"verify.check.{name}.s", "s") for name in VERIFY_CHECKS]
    + [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_frac", "1"),
        ("trace.self_sum_s", "s"),
        ("trace.self_sum_frac", "1"),
        ("trace.spans", "count"),
    ]
)


def layer_metrics(tracer, traced, untraced_wall):
    """Every metric of METRICS from a tracer, its batch result and the
    untraced wall time of the same batch."""
    name_ids, _, _, _, _ = tracer.arrays()
    dur, self_t, nchild = tracer.self_times()
    names = np.array(tracer.names, dtype=object)
    span_names = names[name_ids] if name_ids.size else np.array([], dtype=object)

    def sel(name):
        return span_names == name

    v = dict(tracer.counters)
    for name, key in (
        ("quadrature.adaptive", "quadrature.adaptive.calls"),
        ("quadrature.oscillatory", "quadrature.oscillatory.calls"),
        ("bernstein.phi_eval", "bernstein.phi_eval.calls"),
        ("kernels.h_comp", "kernels.h_comp.calls"),
        ("kernels.jump_tail", "kernels.jump_tail.calls"),
        ("kernels.jump_tail_closed", "kernels.jump_tail_closed.calls"),
        ("interval_solver.build_generator", "interval_solver.build_generator.calls"),
        ("interval_solver.green_matrix", "interval_solver.green_matrix.calls"),
        ("montecarlo.sample_increment", "montecarlo.sample_increment.calls"),
    ):
        v[key] = int(sel(name).sum())

    # a memo hit returns without running a quadrature: no child span
    for name in ("kernels.h_comp", "kernels.jump_tail"):
        m = sel(name)
        v[f"{name}.hit_ratio"] = _ratio((nchild[m] == 0).sum(), m.sum())
        v[f"{name}.s"] = float(dur[m].sum())

    factor = sel("numpy.linalg.inv") | sel("numpy.linalg.solve")
    v["interval_solver.factor.calls"] = int(factor.sum())
    v["interval_solver.factor.s"] = float(dur[factor].sum())
    v["interval_solver.factor.gflops_computed"] = _ratio(
        v.get("interval_solver.factor.flops_computed", 0.0), 1e9 * v["interval_solver.factor.s"]
    )
    v["interval_solver.exit_alive_prob.s"] = float(dur[sel("interval_solver.exit_alive_prob")].sum())

    walk = sel("montecarlo.simulate_exit")
    walk_s = float(dur[walk].sum())
    steps = v.get("montecarlo.simulate_exit.steps_used", 0)
    v["montecarlo.simulate_exit.s"] = walk_s
    v["montecarlo.simulate_exit.useful_ratio"] = _ratio(
        steps, v.get("montecarlo.simulate_exit.increments_drawn", 0)
    )
    v["montecarlo.simulate_exit.ns_per_step"] = _ratio(1e9 * walk_s, steps)

    for b in BUCKETS:
        v[f"{b}.self_s"] = 0.0
    for nid, name in enumerate(tracer.names):
        v[f"{bucket_of(name)}.self_s"] += float(self_t[name_ids == nid].sum())
    for check in VERIFY_CHECKS:
        v[f"verify.check.{check}.s"] = float(dur[sel(f"verify.check.{check}")].sum())

    v["cli.out_bytes"] = traced["out_bytes"]
    v["trace.wall_s"] = traced["wall_s"]
    v["trace.untraced_wall_s"] = untraced_wall
    v["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    v["trace.self_sum_s"] = float(self_t.sum())
    v["trace.self_sum_frac"] = float(self_t.sum()) / traced["wall_s"]
    v["trace.spans"] = int(dur.size)
    return {key: {"value": v.get(key, 0), "unit": unit} for key, unit in METRICS}
