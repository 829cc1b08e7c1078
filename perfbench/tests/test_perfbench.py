"""Tests of the benchmark itself: plans, span arithmetic, comparator, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import time

import numpy as np
import pytest

import compare
import layers
import run
import spans
import workloads


@pytest.fixture(scope="module")
def refs():
    return {w: workloads.load_reference(w) for w in workloads.WORKLOADS}


# -- plans ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["cli-solve", "walk"])
def test_plan_is_a_pure_function_of_the_seed(refs, workload):
    ref = refs[workload]
    a = workloads.plan(workload, 7, ref)
    assert a == workloads.plan(workload, 7, copy.deepcopy(ref))
    assert a != workloads.plan(workload, 8, ref)


@pytest.mark.parametrize("workload", ["cli-solve", "walk"])
def test_plan_makes_every_catalogue_entry_once(refs, workload):
    ref = refs[workload]
    whole = sorted((name, idx) for name, entries in ref["classes"].items()
                   for idx in range(len(entries)))
    for seed in (3, 4):
        assert sorted(workloads.plan(workload, seed, ref)) == whole


@pytest.mark.parametrize("workload", ["cli-solve", "walk"])
def test_stored_catalogue_matches_the_generator(refs, workload):
    stored = {
        name: [{"argv": e["argv"], "spec": e["spec"]} for e in entries]
        for name, entries in refs[workload]["classes"].items()
    }
    assert stored == workloads.catalogue(workload)


def test_certify_reference_matches_its_config(refs):
    assert workloads.certify_config().digest() == refs["certify"]["digest"]


def test_tail_keeps_ten_samples_beyond():
    lat = list(range(40))
    value, pct, n = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert (pct, n) == (75.0, 40)


# -- span arithmetic -------------------------------------------------------------


def _synthetic(tracer, rows):
    for name, parent, t0, t1 in rows:
        tracer.name.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.t0.append(t0)
        tracer.t1.append(t1)


def test_self_time_of_a_nested_span_tree():
    tr = spans.Tracer()
    _synthetic(tr, [
        ("op", -1, 0.0, 10.0),
        ("cli.main", 0, 1.0, 9.0),
        ("interval_solver.build_generator", 1, 2.0, 5.0),
        ("kernels.jump_tail", 2, 2.5, 3.0),
        ("numpy.linalg.inv", 1, 6.0, 8.5),
    ])
    dur, self_t, nchild = tr.self_times()
    np.testing.assert_allclose(dur, [10.0, 8.0, 3.0, 0.5, 2.5])
    np.testing.assert_allclose(self_t, [2.0, 2.5, 2.5, 0.5, 2.5])
    assert list(nchild) == [1, 2, 1, 0, 0]
    assert self_t.sum() == pytest.approx(dur[0])


def test_wrapped_calls_record_parents_and_layer_sums():
    tr = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = tr.wrap("kernels.levy_j", leaf)
    mid = tr.wrap("interval_solver.build_generator", lambda: [leaf_w() for _ in range(3)])
    tr.run_op(5, mid)
    names = [tr.names[i] for i in tr.name]
    assert names == ["op", "interval_solver.build_generator"] + ["kernels.levy_j"] * 3
    assert list(tr.parent) == [-1, 0, 1, 1, 1]
    assert set(tr.op) == {5}
    res = {"wall_s": float(tr.t1[0] - tr.t0[0]), "out_bytes": 0}
    m = layers.layer_metrics(tr, res, res["wall_s"])
    total = sum(m[f"{b}.self_s"]["value"] for b in spans.BUCKETS)
    assert total == pytest.approx(m["trace.self_sum_s"]["value"])
    assert m["trace.self_sum_frac"]["value"] == pytest.approx(1.0)
    assert m["kernels.other.self_s"]["value"] >= 0.006


def test_every_layer_metric_is_reported_once():
    keys = [k for k, _ in layers.METRICS]
    assert len(keys) == len(set(keys))
    bench = json.loads((workloads.HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == keys
    assert {m["name"] for m in bench["end_to_end"]} == set(run.E2E_UNITS)


# -- comparator --------------------------------------------------------------------


def test_comparator_flags_a_perturbed_constant_and_a_flipped_verdict(refs):
    want = refs["certify"]["checks"]
    assert not any(compare.check_certify(copy.deepcopy(want), want).values())

    got = copy.deepcopy(want)
    got["three-g[stable-0.75]"]["measured"]["sup_fine"] *= 1.0 + 1e-7
    assert compare.check_certify(got, want)["three-g[stable-0.75]"]

    got = copy.deepcopy(want)
    got["bhp[mix-0.6-0.9]"]["pass"] = not got["bhp[mix-0.6-0.9]"]["pass"]
    assert compare.check_certify(got, want)["bhp[mix-0.6-0.9]"]

    assert "eval_s" not in want["h-value[stable-0.75]"]["measured"]


def test_comparator_on_cli_outputs(refs):
    entry = refs["cli-solve"]["classes"]["green-512"][0]
    want = entry["expect"]
    assert compare.check_cli(entry["argv"], copy.deepcopy(want), want) == []
    got = copy.deepcopy(want)
    got["diag"]["value"] *= 1.0 + 1e-8
    assert compare.check_cli(entry["argv"], got, want)
    got = copy.deepcopy(want)
    got["out"]["trace"] *= 1.0 - 1e-8
    assert compare.check_cli(entry["argv"], got, want)

    entry = refs["cli-solve"]["classes"]["kernel-h"][0]
    got = copy.deepcopy(entry["expect"])
    got["table"][2][1] *= 1.0 + 1e-8
    assert compare.check_cli(entry["argv"], got, entry["expect"])


def test_mc_comparator_tolerates_noise_but_not_a_broken_walk(refs):
    entry = refs["walk"]["classes"]["stable-1e-3-mid"][0]
    want = {k: v for k, v in entry["expect"].items()}
    se = want["se"]["mean_exit_time"]
    got = copy.deepcopy(want)
    got["diag"]["value"]["mean_exit_time"] += 2.0 * se
    assert compare.check_mc(got, want) == []
    got["diag"]["value"]["mean_exit_time"] += 6.0 * se
    assert compare.check_mc(got, want)
    got = copy.deepcopy(want)
    got["diag"]["value"]["censored"] += 1
    assert compare.check_mc(got, want)


# -- tracing ---------------------------------------------------------------------------


def test_traced_and_untraced_runs_give_identical_outputs(refs, tmp_path):
    run.import_sbmpot()
    import sbmpot.cli as cli
    import sbmpot.kernels as kernels

    ref = refs["cli-solve"]
    picks = [("kernel-h", 0), ("kernel-gz", 1), ("mc-exit", 2), ("green-256", 0)]
    reqs = [
        workloads.Request(i, cls, idx, ref["classes"][cls][idx],
                          str(_spec_file(tmp_path, ref["classes"][cls][idx])), tmp_path)
        for i, (cls, idx) in enumerate(picks)
    ]
    plain = workloads.run_cli_batch(reqs)
    original = (cli.main, kernels.KernelSet.h_comp, np.linalg.inv)
    tr = spans.Tracer().install()
    try:
        traced = workloads.run_cli_batch(reqs, tr)
    finally:
        tr.uninstall()
    assert (cli.main, kernels.KernelSet.h_comp, np.linalg.inv) == original
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["outputs"] == traced["outputs"]
    m = layers.layer_metrics(tr, traced, plain["wall_s"])
    assert m["kernels.h_comp.calls"]["value"] > 0
    assert m["montecarlo.simulate_exit.paths"]["value"] == workloads.CLI_MC_PATHS
    assert 0.0 < m["montecarlo.simulate_exit.useful_ratio"]["value"] <= 1.0
    assert m["interval_solver.factor.flops_computed"]["value"] == 2.0 * (256**3 + 128**3)


def _spec_file(tmp_path, entry):
    path = tmp_path / f"spec-{abs(hash(json.dumps(entry['spec'], sort_keys=True)))}.json"
    path.write_text(json.dumps(entry["spec"], sort_keys=True))
    return path
