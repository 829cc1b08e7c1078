import json
import math
import warnings

import pytest

import numpy as np

from sbmpot import (
    Grid,
    KernelSet,
    PhiSpec,
    RunConfig,
    bhp_sup_ratio,
    build_generator,
    green_drift,
    green_matrix,
    load_report,
    small_interval_lower,
)
from sbmpot.interval_solver import StructuredGenerator, probe_block
from sbmpot.cli import main


def _run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_phi_show_round_trips(capsys):
    rc, out, _ = _run(capsys, "phi", "show")
    assert rc == 0
    assert PhiSpec.from_json(out) == PhiSpec.stable(0.75)


def test_phi_eval_values(capsys):
    rc, out, _ = _run(capsys, "phi", "eval", "--lam", "1.0,4.0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lam,phi"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == pytest.approx(4.0 ** 0.75, rel=1e-12)


def test_phi_scaling_recovers_pure_power(capsys):
    rc, out, _ = _run(capsys, "phi", "scaling")
    assert rc == 0
    rep = json.loads(out)
    assert rep == {
        "delta1": 0.75, "delta2": 0.75, "delta1_above_half": True, "delta2_warn": False,
    }


def test_phi_scaling_reads_a_crossing_mixture_exactly(capsys, tmp_path):
    # the terms cross near r = 1e-7, far below any fitting window, and
    # int_0 dxi / psi < inf: 0 is not regular, so the verdict is false
    spec = tmp_path / "spec.json"
    spec.write_text(PhiSpec.mixture(((1.0, 0.45), (1000.0, 0.9))).to_json())
    rc, out, _ = _run(capsys, "phi", "scaling", "--spec", str(spec))
    assert rc == 0
    rep = json.loads(out)
    assert (rep["delta1"], rep["delta2"]) == (0.45, 0.9)
    assert rep["delta1_above_half"] is False


def test_kernel_table_h(capsys):
    rc, out, _ = _run(capsys, "kernel", "table", "--what", "h", "--xs", "1.0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-9
    )


def test_kernel_table_takes_negative_points_after_an_equals_sign(capsys):
    # argparse reads "--xs -0.5,0.5" as an option, not a value, and exits 2;
    # "--xs=-0.5,0.5" passes the list, and psi is even
    with pytest.raises(SystemExit) as e:
        main(["kernel", "table", "--what", "psi", "--xs", "-0.5,0.5"])
    assert e.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    rc, out, _ = _run(capsys, "kernel", "table", "--what", "psi", "--xs=-0.5,0.5")
    assert rc == 0
    (x0, v0), (x1, v1) = (line.split(",") for line in out.strip().splitlines()[1:])
    assert (float(x0), float(x1)) == (-0.5, 0.5)
    assert v0 == v1


def test_kernel_table_green_free(capsys):
    # one call per table: each row is the kernel at its own x
    ks = KernelSet(PhiSpec.stable(0.75))
    for what, g in (("gz", ks.green_free_z), ("gx0", ks.green_free_x0)):
        rc, out, _ = _run(capsys, "kernel", "table", "--what", what, "--y", "1", "--xs", "0.5,1,2")
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [v for _, v in rows] == ["%.12e" % g(x, 1.0) for x in (0.5, 1.0, 2.0)]


def test_kernel_table_uq_is_one_point_calls(capsys):
    # one uq call per table, x = 0, a tiny x and a repeat among its rows:
    # each row prints what a one-point table prints
    xs = ("0.5", "0", "1e-40", "0.5", "3")
    rc, out, _ = _run(capsys, "kernel", "table", "--what", "uq", "--xs", ",".join(xs))
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    alone = []
    for x in xs:
        rc, one, _ = _run(capsys, "kernel", "table", "--what", "uq", "--xs", x)
        assert rc == 0
        alone.append(one.strip().splitlines()[1])
    assert rows == alone


def test_kernel_table_gz_needs_y(capsys):
    rc, _, err = _run(capsys, "kernel", "table", "--what", "gz", "--xs", "1.0")
    assert rc == 2
    assert "error:" in err


def test_kernel_table_bad_list(capsys):
    rc, _, err = _run(capsys, "kernel", "table", "--what", "h", "--xs", "1.0,oops")
    assert rc == 2
    assert "error:" in err


def test_numerical_failure_exits_3(capsys):
    # u^q at q = 1e-300 does not converge: a QuadratureError, which must
    # not leave as a traceback or as the "verify failed" code 1
    rc, out, err = _run(capsys, "kernel", "table", "--what", "uq", "--q", "1e-300", "--xs", "1")
    assert rc == 3
    assert err.startswith("error:")
    assert out == ""


def test_h_below_its_floor_exits_2(capsys):
    rc, out, err = _run(capsys, "kernel", "table", "--what", "h", "--xs", "1e-160")
    assert rc == 2
    assert err.startswith("error:") and "h_floor" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, name",
    [(("--what", "h", "--xs", "0.5,1e160"), "h(1e+160) is above h_ceiling"),
     (("--what", "uq", "--xs", "0.5,1e160"), "uq(1.0, 1e+160): x is above")],
    ids=["h", "uq"],
)
def test_huge_x_exits_2_naming_it(capsys, argv, name):
    rc, out, err = _run(capsys, "kernel", "table", *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--spec", '{"family": "stable"}'),
        ("--spec", "[1, 2]"),
        ("--spec", '{"family": "mixture", "terms": [[1.0]]}'),
        ("--spec", '{"family": "stable", "delta": "abc"}'),
        ("--spec", '{"family": "mixture", "terms": [[Infinity, 0.6]]}'),
        ("--config", '{"n_coarse": "abc"}'),
        ("--config", '{"interval": 5}'),
        # kinds Y and Z need a > 0, so three checks could only fail
        ("--config", '{"interval": [0, 2], "mc_x0": 1}'),
        ("--config", '{"R": -1}'),
        ("--config", '{"seed": -1}'),
        ("--config", '{"specs": [{"family": "stable"}]}'),
        # two specs of one label would report two results under one check name
        ("--config", '{"specs": [{"family": "mixture", "terms": [[1, 0.6], [1, 0.9]]}, '
                     '{"family": "mixture", "terms": [[1, 0.6], [1000, 0.9]]}]}'),
    ],
    ids=[
        "spec-no-delta", "spec-not-an-object", "spec-short-term", "spec-bad-delta",
        "spec-infinite-weight", "config-bad-n", "config-bad-interval",
        "config-interval-at-origin", "config-negative-R", "config-negative-seed",
        "config-bad-spec", "config-shared-label",
    ],
)
def test_malformed_input_file_exits_2(capsys, tmp_path, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    if flag == "--spec":
        argv = ["phi", "show", "--spec", str(path)]
    else:
        argv = ["verify", "one", "--name", "h-value", "--config", str(path)]
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_quad_selftest(capsys):
    rc, out, _ = _run(capsys, "quad", "selftest")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_solve_green(capsys, tmp_path):
    out_file = tmp_path / "green.csv"
    rc, out, _ = _run(
        capsys, "solve", "green", "--a", "1", "--b", "2", "--n", "64",
        "--process", "x", "--out", str(out_file),
    )
    assert rc == 0
    diag = json.loads(out)
    assert diag["kind"] == "green-X"
    assert diag["value"] > 0.0
    assert diag["refinement_drift"] is not None and diag["refinement_drift"] < 0.2
    assert len(out_file.read_text().strip().splitlines()) == 65


def test_solve_green_out_writes_each_entry_in_the_table_format(capsys, tmp_path):
    # the rows are written with one % each over a joined format; the bytes
    # are those of the per-entry join of the solved G, exactly symmetric
    out_file = tmp_path / "green.csv"
    rc, _, _ = _run(
        capsys, "solve", "green", "--a", "1", "--b", "2", "--n", "40",
        "--process", "z", "--out", str(out_file),
    )
    assert rc == 0
    fmt = "%.12e"
    grid = Grid(1.0, 2.0, 40)
    op = StructuredGenerator(KernelSet(PhiSpec.stable(0.75)), grid, "z")
    G, xs = probe_block(op, np.arange(40)).B, grid.nodes()
    assert np.array_equal(G, G.T)
    lines = [",".join(["x"] + [fmt % y for y in xs])]
    lines += [",".join([fmt % xs[i]] + [fmt % v for v in G[i]]) for i in range(40)]
    assert out_file.read_bytes() == "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("kind, n", [("x", 64), ("y", 200), ("z", 256), ("z", 65)])
def test_solve_green_prints_the_green_matrix_values(capsys, tmp_path, kind, n):
    # the CLI solves on the structured generator, for the probes' and the
    # middle node's columns alone, or for every column with --out; it prints
    # green_matrix's G[mid, mid] and green_drift's value within the two
    # assemblies' gap (at most 4.5e-13 relative in the value and 1.3e-13 in
    # the drift up to n = 1000), and the same bits with and without --out
    # (an odd n has no drift)
    ks = KernelSet(PhiSpec.stable(0.75))
    fine = green_matrix(build_generator(ks, Grid(1.0, 2.0, n), kind))
    mid = int(np.argmin(np.abs(fine.grid.nodes() - 1.5)))
    drift = None
    if n % 2 == 0:
        half = green_matrix(build_generator(ks, Grid(1.0, 2.0, n // 2), kind))
        drift = green_drift(half, fine)
    argv = ["solve", "green", "--a", "1", "--b", "2", "--n", str(n), "--process", kind]
    diags = []
    for extra in ([], ["--out", str(tmp_path / "green.csv")]):
        rc, out, _ = _run(capsys, *argv, *extra)
        assert rc == 0
        diags.append(diag := json.loads(out))
        assert diag["value"] == pytest.approx(float(fine.G[mid, mid]), rel=1.5e-12, abs=0.0)
        if drift is None:
            assert diag["refinement_drift"] is None
        else:
            assert diag["refinement_drift"] == pytest.approx(drift, rel=0.0, abs=1.5e-12)
    assert diags[0]["value"] == diags[1]["value"]
    assert diags[0]["refinement_drift"] == diags[1]["refinement_drift"]


def test_solve_green_serves_a_long_interval(capsys, tmp_path):
    # no kill rate of `solve green` is a quadrature tail, with or without
    # --out, so (1e8, 2e8) solves where the dense build's rates are refused
    # (exit 3); the table's middle entry is the printed value
    out_file = tmp_path / "green.csv"
    argv = ["solve", "green", "--a", "1e8", "--b", "2e8", "--n", "128"]
    for extra in ([], ["--out", str(out_file)]):
        rc, out, err = _run(capsys, *argv, *extra)
        assert rc == 0 and err == ""
        diag = json.loads(out)
        assert math.isfinite(diag["value"]) and diag["value"] > 0.0
        assert diag["refinement_drift"] is not None
    table = np.loadtxt(out_file, delimiter=",", skiprows=1)
    G = table[:, 1:]
    assert G.shape == (128, 128)
    assert np.all(np.isfinite(G)) and np.all(G > 0.0) and np.array_equal(G, G.T)
    mid = int(np.argmin(np.abs(Grid(1e8, 2e8, 128).nodes() - 1.5e8)))
    assert G[mid, mid] == float("%.12e" % diag["value"])


def test_solve_harnack_refuses_a_scale_its_kill_rates_cannot_reach(capsys):
    # at r = 1e8 the quadrature kill rates sit 0.999 from the closed tails
    rc, out, err = _run(capsys, "solve", "harnack", "--r", "1e8", "--n", "64")
    assert rc == 3 and out == ""
    assert "kill rates" in err and "ROADMAP item 4" in err
    rc, out, _ = _run(capsys, "solve", "harnack", "--r", "1", "--n", "64")
    assert rc == 0


def test_solve_exit(capsys, tmp_path):
    out_file = tmp_path / "exit.csv"
    rc, out, _ = _run(
        capsys, "solve", "exit", "--R", "1", "--x", "0.5",
        "--aseq", "0.04,0.02,0.01", "--out", str(out_file),
    )
    assert rc == 0
    diag = json.loads(out)
    assert 0.0 < diag["value"][0] < 1.0
    assert diag["bracket"][0] < 0.1
    assert diag["refinement_drift"] is not None
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,value,lower,upper,width"
    assert len(lines) == 2


@pytest.mark.parametrize(
    "extra",
    [("--x", "nan"), ("--x", "0.5,nan"), ("--x", "0.5", "--aseq", "nan"),
     ("--x", "0.5", "--aseq", "0.004,inf"), ("--x", "0.5", "--aseq", "0.004,0.004")],
    ids=["x-nan", "x-list-nan", "aseq-nan", "aseq-inf", "aseq-repeated"],
)
def test_solve_exit_refuses_non_finite_input(capsys, extra):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any shelf is solved
        rc, out, err = _run(capsys, "solve", "exit", "--R", "1", *extra)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_solve_harnack(capsys):
    rc, out, _ = _run(capsys, "solve", "harnack", "--r", "1", "--n", "128")
    assert rc == 0
    diag = json.loads(out)
    assert diag["value"] > 1.0
    assert diag["refinement_drift"] is not None


def test_solve_bhp(capsys):
    rc, out, _ = _run(capsys, "solve", "bhp", "--r", "1", "--n", "256")
    assert rc == 0
    diag = json.loads(out)
    assert diag["value"] > 1.0
    assert diag["bracket"][1] >= diag["bracket"][0] == diag["value"]
    # n//2 = 128 cannot hold the default shelf, so no companion run
    assert diag["refinement_drift"] is None
    # bhp's extensions take closed kill rates, so r = 1e8 solves where the
    # dense build's quadrature rates are refused (exit 3 for harnack) and,
    # for the stable fixture, prints the constant of r = 1
    rc, out, err = _run(capsys, "solve", "bhp", "--r", "1e8", "--n", "256")
    assert rc == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(diag["value"], rel=1e-9, abs=0.0)


def test_solve_bhp_refuses_zero_cells(capsys):
    rc, out, err = _run(capsys, "solve", "bhp", "--r", "1", "--n", "0")
    assert rc == 2 and out == ""
    assert "n must be at least 1" in err


def test_solve_harnack_drops_a_refused_companion(capsys):
    # n//2 = 6 cells is below the generator's 8, so, as for bhp, the drift
    # is null rather than the valid n = 12 run exiting 2
    rc, out, _ = _run(capsys, "solve", "harnack", "--r", "1", "--n", "12")
    assert rc == 0
    diag = json.loads(out)
    assert diag["value"] > 1.0
    assert diag["refinement_drift"] is None


def test_solve_bhp_companion_is_bhp_sup_ratio_at_half_n(capsys):
    # the CLI keeps no copy of the shelf bound: it asks bhp_sup_ratio at
    # n//2, here 208 > 48 / lambda1 = 192, which bhp_sup_ratio accepts
    rc, out, _ = _run(capsys, "solve", "bhp", "--r", "1", "--n", "417")
    assert rc == 0
    diag = json.loads(out)
    ks = KernelSet(PhiSpec.stable(0.75))
    full, half = bhp_sup_ratio(ks, 1.0, n=417), bhp_sup_ratio(ks, 1.0, n=208)
    assert diag["value"] == full.c7
    assert diag["refinement_drift"] == abs(half.c7 / full.c7 - 1.0)


def test_solve_small(capsys):
    rc, out, _ = _run(capsys, "solve", "small", "--R", "1", "--n", "128")
    assert rc == 0
    diag = json.loads(out)
    assert diag["value"] > 0.0
    # the drift compares the floor with its halved-shelf companion
    lam2, lam2_half = small_interval_lower(KernelSet(PhiSpec.stable(0.75)), 1.0, n=128)
    assert diag["value"] == lam2
    assert diag["refinement_drift"] == abs(lam2_half / lam2 - 1.0)


def test_solve_small_scales_its_shelf_with_R(capsys):
    # with no --a the shelf is the solver's, a fraction of R, and the
    # diagnostic prints the shelf that was used
    rc, out, _ = _run(capsys, "solve", "small", "--R", "0.01", "--n", "128")
    assert rc == 0
    diag = json.loads(out)
    assert diag["grid"]["a"] == 0.004 * 0.01
    lam2, _ = small_interval_lower(KernelSet(PhiSpec.stable(0.75)), 0.01, n=128)
    assert diag["value"] == lam2


@pytest.mark.parametrize(
    "argv, name",
    [
        (("solve", "exit", "--R", "inf", "--x", "0.5"), "R"),
        (("solve", "small", "--R", "inf"), "R"),
        (("solve", "harnack", "--r", "inf"), "r"),
        (("solve", "bhp", "--r", "inf"), "r"),
        (("kernel", "table", "--what", "h", "--xs", "nan"), "x"),
        (("kernel", "table", "--what", "uq", "--xs", "inf"), "x"),
        (("kernel", "table", "--what", "uq", "--xs", "0.5,nan"), "x"),
        (("kernel", "table", "--what", "uq", "--q", "inf", "--xs", "1"), "q"),
        (("mc", "exit", "--a", "1", "--b", "inf", "--x0", "1.5", "--dt", "1e-2",
          "--paths", "10"), "b"),
    ],
    ids=["exit-R", "small-R", "harnack-r", "bhp-r", "h-x", "uq-x-inf", "uq-x-nan",
         "uq-q", "mc-exit-b"],
)
def test_non_finite_lengths_exit_2_naming_the_argument(capsys, argv, name):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{name} " in err and "finite" in err


def test_mc_exit(capsys, tmp_path):
    out_file = tmp_path / "paths.csv"
    rc, out, _ = _run(
        capsys, "mc", "exit", "--a", "1", "--b", "2", "--x0", "1.5",
        "--dt", "1e-2", "--paths", "500", "--seed", "7", "--out", str(out_file),
    )
    assert rc == 0
    summary = json.loads(out)
    v = summary["value"]
    assert v["n_exited"] + v["censored"] == 500
    assert 0.0 < v["frac_low"] < 1.0
    assert v["mean_exit_time"] > 0.0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 501
    assert lines[0] == "exit_time,exit_position,side,censored"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_mc_exit_bad_seed_exits_2(capsys, seed):
    rc, out, err = _run(
        capsys, "mc", "exit", "--a", "1", "--b", "2", "--x0", "1.5",
        "--dt", "1e-2", "--paths", "10", "--seed", seed,
    )
    assert rc == 2
    assert err.startswith("error:") and "seed" in err
    assert out == ""


@pytest.mark.parametrize("tmax", ["inf", "1e307"])
def test_mc_exit_unbounded_horizon_exits_2(capsys, tmp_path, tmax):
    # t_max/dt overflows to inf: refused as bad input, not an OverflowError
    rc, out, err = _run(
        capsys, "mc", "exit", "--a", "1", "--b", "2", "--x0", "1.5",
        "--dt", "1e-2", "--paths", "10", "--tmax", tmax,
    )
    assert rc == 2
    assert err.startswith("error:") and "t_max/dt" in err
    assert out == ""
    # and a run config whose smallest step does the same
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mc_tmax": 1e307, "mc_dt": [1e-2]}))
    rc, out, err = _run(capsys, "verify", "all", "--config", str(cfg))
    assert rc == 2 and "t_max/dt" in err and out == ""


def test_verify_one(capsys, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(RunConfig(specs=(PhiSpec.stable(0.75),)).to_dict()))
    out_file = tmp_path / "report.json"
    rc, out, _ = _run(
        capsys, "verify", "one", "--name", "h-value",
        "--config", str(cfg_file), "--out", str(out_file),
    )
    assert rc == 0
    assert out.startswith("PASS")
    assert "1 checks, 0 failed" in out
    rep = load_report(out_file)
    assert len(rep.checks) == 1 and rep.checks[0].passed


def test_verify_one_csv_format_inferred(capsys, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(RunConfig(specs=(PhiSpec.stable(0.75),)).to_dict()))
    out_file = tmp_path / "report.csv"
    rc, _, _ = _run(
        capsys, "verify", "one", "--name", "h-value",
        "--config", str(cfg_file), "--out", str(out_file),
    )
    assert rc == 0
    assert out_file.read_text().startswith("check,constant,value,tol,pass,runtime")


def test_verify_rejects_unknown_name(capsys):
    rc, _, err = _run(capsys, "verify", "one", "--name", "no-such-check")
    assert rc == 2
    assert "error:" in err


def test_verify_selecting_no_check_exits_2(capsys, tmp_path):
    # a label no configured spec has: bad input, reported before any check
    # runs and before any report file is written
    out_file = tmp_path / "report.json"
    rc, out, err = _run(
        capsys, "verify", "one", "--name", "h-value[stable-0.6]", "--out", str(out_file)
    )
    assert rc == 2
    assert err.startswith("error:") and "no check" in err
    assert out == "" and not out_file.exists()

    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps(
        RunConfig(specs=(PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9))),)).to_dict()
    ))
    rc, out, err = _run(capsys, "verify", "one", "--name", "h-value", "--config", str(mix))
    assert rc == 2 and "no check" in err and out == ""


def test_verify_rejects_bad_config_sizes(capsys, tmp_path):
    for text in ('{"mc_tmax": 0.001}', '{"mc_paths": 1000.7}', '{"n_fine": "600"}'):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc, out, err = _run(capsys, "verify", "all", "--config", str(cfg))
        assert rc == 2, text
        assert err.startswith("error:") and out == ""


def test_verify_rejects_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = _run(capsys, "verify", "one", "--name", "h-value", "--config", str(bad))
    assert rc == 2
    assert "error:" in err

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"specs": []}))
    rc, _, err = _run(capsys, "verify", "one", "--name", "h-value", "--config", str(empty))
    assert rc == 2
    assert "error:" in err


def test_missing_spec_file(capsys, tmp_path):
    rc, _, err = _run(capsys, "phi", "show", "--spec", str(tmp_path / "none.json"))
    assert rc == 2
    assert "error:" in err


def _outcome(capsys, argv):
    # (exit code, stdout, stderr) of one main call; argparse rejects a
    # request by raising SystemExit
    try:
        rc = main(list(argv))
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_one_process_runs_many_commands_on_one_parser(capsys, tmp_path):
    # main builds its parser once per process: commands run back to back,
    # a rejected one among them, print what each prints on a fresh parser
    import sbmpot.cli as cli

    walk = ("mc", "exit", "--a", "0.05", "--b", "0.6", "--x0", "0.3",
            "--dt", "1e-2", "--paths", "200", "--seed", "3")
    requests = [
        walk + ("--fold",),
        ("solve", "green", "--a", "1", "--b", "2", "--n", "32", "--process", "z"),
        ("mc", "exit", "--a", "1", "--b", "2", "--dt", "1e-2"),  # no --x0: exit 2
        walk,
        ("phi", "eval", "--lam", "0.5,2"),
        ("solve", "green", "--a", "1", "--b", "2", "--n", "32", "--process", "x",
         "--out", str(tmp_path / "green.csv")),
        walk + ("--fold", "--seed", "4"),
    ]
    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in requests]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0]
    assert "--x0" in shared[2][2]
    assert shared[0][1] != shared[3][1]  # the fold changes the walk
