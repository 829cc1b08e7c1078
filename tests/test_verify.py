import json

import numpy as np
import pytest

from sbmpot import (
    CHECK_NAMES,
    CheckReport,
    CheckResult,
    ConfigError,
    ExitAliveReport,
    KernelSet,
    PhiSpec,
    QuadratureError,
    RunConfig,
    emit_report,
    load_report,
    run_verify,
)
from sbmpot import verify as vf

from oracles import stable_mean_abs


@pytest.fixture(scope="module")
def small_cfg():
    return RunConfig(specs=(PhiSpec.stable(0.75),))


@pytest.fixture(scope="module")
def small_report(small_cfg):
    return run_verify(small_cfg, only=["h-value", "h-homogeneity"])


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(specs=())
    with pytest.raises(ConfigError):
        RunConfig(specs=("stable",))
    with pytest.raises(ConfigError):
        RunConfig(interval=(2.0, 1.0))
    # kinds Y and Z are killed at the origin and need a > 0; the walk's
    # PathConfig and the solver's Grid keep a = 0 for kind X and folding
    for interval in ((0.0, 2.0), (-1.0, 2.0), (float("nan"), 2.0)):
        with pytest.raises(ConfigError, match="0 < a < b"):
            RunConfig(interval=interval, mc_x0=1.0)
    with pytest.raises(ConfigError):
        RunConfig(mc_dt=())
    with pytest.raises(ConfigError):
        RunConfig(mc_dt=(1e-2, 0.0))
    with pytest.raises(ConfigError):
        RunConfig(n_coarse=4)
    with pytest.raises(ConfigError):
        RunConfig(n_coarse=512, n_fine=256)
    with pytest.raises(ConfigError):
        RunConfig(mc_paths=10)
    with pytest.raises(ConfigError):
        RunConfig(mc_x0=5.0)
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            RunConfig(R=bad)
    for bad in (-1, 1.5, "7", 2**64):
        with pytest.raises(ConfigError):
            RunConfig(seed=bad)
    # each check is named by its spec's label, which drops the weights
    twin = PhiSpec.mixture(((1.0, 0.6), (1000.0, 0.9)))
    for specs, label in (
        ((vf.FIXTURE_MIXTURE, twin), "mix-0.6-0.9"),
        ((vf.FIXTURE_STABLE, vf.FIXTURE_MIXTURE, vf.FIXTURE_STABLE), "stable-0.75"),
    ):
        with pytest.raises(ConfigError, match=f"two specs share the label '{label}'"):
            RunConfig(specs=specs)


def test_config_rejects_bool_seeds():
    # a bool is a numbers.Integral, but True is no seed: accepted, it keyed
    # the report to "seed": true, another digest than seed 1
    for bad in (True, False):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RunConfig(seed=bad)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RunConfig.from_dict({"seed": bad})
    # numpy integers are integers, and serialize as the same digest
    assert RunConfig(seed=np.uint64(1)).digest() == RunConfig(seed=1).digest()
    assert RunConfig(n_coarse=np.int64(200)).digest() == RunConfig(n_coarse=200).digest()


def test_config_rejects_non_integral_sizes_and_short_horizons():
    # accepted, each of these would fail every Monte Carlo check of the
    # run (or walk a truncated path count), so it is refused up front
    for field, bad in (
        ("n_coarse", 256.5), ("n_coarse", 256.0), ("n_fine", "600"),
        ("n_fine", True), ("mc_paths", 1000.7), ("mc_paths", None),
    ):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            RunConfig(**{field: bad})
    for bad in (-1.0, 0.0, 1e-2, 1e-3, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="mc_tmax"):
            RunConfig(mc_tmax=bad)
    with pytest.raises(ConfigError, match="mc_tmax"):
        RunConfig.from_dict({"mc_tmax": 0.001})
    # the largest step bounds the horizon, whatever order mc_dt comes in
    RunConfig(mc_dt=(1e-4, 0.5), mc_tmax=0.6)
    with pytest.raises(ConfigError, match="mc_tmax"):
        RunConfig(mc_dt=(1e-4, 0.5), mc_tmax=0.5)
    # the smallest step must leave a finite step count, as PathConfig asks
    for tmax, dts in ((1e307, (1e-2,)), (1e305, (1e-2, 1e-4))):
        with pytest.raises(ConfigError, match="t_max/dt"):
            RunConfig(mc_tmax=tmax, mc_dt=dts)
    RunConfig(mc_tmax=1e305, mc_dt=(1e-2,))
    # numpy integers are integers; the accepted configs keep their digests
    assert RunConfig(n_coarse=np.int64(256)).n_coarse == 256
    certify = RunConfig(n_coarse=200, n_fine=256, mc_paths=2000, mc_dt=(1e-2, 1e-3))
    assert certify.digest() == "ccfe7a87178d890e"


def test_config_normalizes_dt_order():
    cfg = RunConfig(mc_dt=(1e-4, 1e-2, 1e-3))
    assert cfg.mc_dt == (1e-2, 1e-3, 1e-4)


def test_config_digest_and_round_trip():
    a, b = RunConfig(), RunConfig()
    # the key that ties saved reports to their inputs; it moves only when
    # a default or the serialized form of RunConfig changes
    assert a.digest() == "5b842578ce636d0c"
    assert a.digest() == b.digest()
    assert a.digest() != RunConfig(seed=1).digest()
    c = RunConfig.from_dict(a.to_dict())
    assert c == a and c.digest() == a.digest()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"no_such_field": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict([1, 2])


def test_config_digest_takes_numpy_floats():
    # a numpy float32 R, mc_x0 or mc_tmax made digest() raise TypeError,
    # which run_verify met only after every check had run
    cfg = RunConfig(R=np.float32(1.0), mc_x0=np.float32(1.5), mc_tmax=np.float32(50.0))
    assert cfg.digest() == RunConfig().digest() == "5b842578ce636d0c"
    # the fields are held as floats, so the run behind that digest solves
    # in float64 (a float32 R moved c7 and lambda2 in the eighth digit)
    assert all(type(v) is float for v in (cfg.R, cfg.mc_x0, cfg.mc_tmax))


@pytest.mark.parametrize("delta", [0.51, 0.52, 0.53, 0.55, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4])
def test_mean_step_matches_the_stable_closed_form(delta, dt):
    # held to the quadrature contract's rel_tol; at delta = 0.75 the two
    # agree to about 3e-15.  Near delta = 1/2 the left-end substitution
    # puts nodes where xi^2 underflows, which read as dt xi^(2 delta - 2)
    got = KernelSet(PhiSpec.stable(delta)).mean_abs_step(dt)
    assert got == pytest.approx(stable_mean_abs(2.0 * delta, dt), rel=1e-9, abs=0.0)


def test_reference_table_size():
    # the wall cell of the reference table spans one mean walk step
    cfg = RunConfig()
    stable = KernelSet(PhiSpec.stable(0.75))
    mix = KernelSet(PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9))))
    assert [vf._reference_table_n(cfg, stable, dt)[0] for dt in cfg.mc_dt] == [64, 64, 136]
    assert vf._reference_table_n(cfg, mix, 1e-4)[0] == 64
    # the mixture moves more than its slowest term alone
    assert mix.mean_abs_step(1e-4) > KernelSet(PhiSpec.stable(0.6)).mean_abs_step(1e-4)


def test_mean_step_needs_delta_min_above_half():
    # E|X_dt| is infinite once delta_min <= 1/2
    for spec in (PhiSpec.stable(0.5), PhiSpec.mixture(((1.0, 0.4), (1.0, 0.9)))):
        with pytest.raises(ConfigError):
            KernelSet(spec).mean_abs_step(1e-3)


def test_mean_step_refusal_names_xi():
    # from delta_min near 0.505 down xi itself underflows at the left end:
    # the refusal names the integrand's xi = 0.0, not the substitution's t
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(QuadratureError) as e:
        KernelSet(PhiSpec.stable(0.505)).mean_abs_step(1e-2)
    assert str(e.value) == "integrand returned a non-finite value near x = 0.0"


def test_run_verify_validates_inputs(small_cfg):
    with pytest.raises(ConfigError):
        run_verify("not a config")
    with pytest.raises(ConfigError):
        run_verify(small_cfg, only=["no-such-check"])


def test_run_verify_is_deterministic(small_cfg, small_report):
    again = run_verify(small_cfg, only=["h-value", "h-homogeneity"])
    names = [c.name for c in small_report.checks]
    assert names == [c.name for c in again.checks]
    assert names == ["h-value[stable-0.75]", "h-homogeneity[stable-0.75]"]
    for c1, c2 in zip(small_report.checks, again.checks):
        # every key except the wall-clock ones must reproduce bit for bit
        num1 = {k: v for k, v in c1.measured.items() if not k.endswith("_s")}
        num2 = {k: v for k, v in c2.measured.items() if not k.endswith("_s")}
        assert num1 == num2
        assert c1.passed == c2.passed
    assert small_report.config_digest == small_cfg.digest()


def test_tol_names_every_clause_of_the_verdict(monkeypatch):
    # a bracket that did not shrink fails exit-prob-sandwich, whose tol
    # says so; the values themselves sit inside the band
    def not_shrinking(ks, R, xs):
        value = 0.5 * ks.h_comp(xs) / ks.h_comp(R)
        zero = np.zeros_like(xs)
        return ExitAliveReport(xs, value, zero, value, value, (), shrank=False)

    monkeypatch.setattr(vf, "exit_alive_prob", not_shrinking)
    cfg = RunConfig(specs=(PhiSpec.stable(0.75),), n_coarse=200, n_fine=256)
    # the other verdicts also test a positivity their tol used to leave out
    clauses = {
        "exit-prob-sandwich": "shrinking",
        "exit-time-bound": "c3 > 0",
        "green-comparability": "inf G_Z/G_X > 0",
        "bhp": "> 0 on each rung",
    }
    rep = run_verify(cfg, only=list(clauses))
    checks = {c.name.split("[")[0]: c for c in rep.checks}
    sandwich = checks["exit-prob-sandwich"]
    assert not sandwich.passed and sandwich.measured["shrank"] == 0.0
    assert sandwich.measured["lo_margin"] >= 0.0 and sandwich.measured["hi_margin"] >= 0.0
    assert sandwich.measured["max_width"] == 0.0
    for name, clause in clauses.items():
        assert clause in checks[name].tol, name


def test_exit_prob_sandwich_at_a_small_R():
    # the default shelves are fractions of R: an absolute 0.004 sat above the
    # probes 0.1 R at R = 0.01, and the check raised instead of measuring
    cfg = RunConfig(specs=(vf.FIXTURE_STABLE,), R=0.01)
    (check,) = run_verify(cfg, only=["exit-prob-sandwich"]).checks
    assert check.passed, check.tol


def test_a_nan_drift_or_ratio_fails_its_check(monkeypatch):
    # both used to fold with max from 0.0, and max(0.0, nan) is 0.0: all
    # three drifts nan read worst = 0.0 and passed
    monkeypatch.setattr(vf, "green_drift", lambda coarse, fine: float("nan"))
    real_exit_times = vf._exit_times

    def nan_at_the_wall(gen):
        E = real_exit_times(gen)
        E[-1] = float("nan")  # far from the c3 probes, so only the 4Rh ratio sees it
        return E

    monkeypatch.setattr(vf, "_exit_times", nan_at_the_wall)
    cfg = RunConfig(specs=(PhiSpec.stable(0.75),), n_coarse=32, n_fine=64)
    rep = run_verify(cfg, only=["green-self-convergence", "exit-time-bound"])
    conv, bound = rep.checks
    assert np.isnan(conv.measured["worst"]) and not conv.passed
    assert np.isnan(bound.measured["max_ratio_4Rh"]) and not bound.passed
    assert np.isfinite(bound.measured["c3_drift"])


@pytest.mark.parametrize("spec", [vf.FIXTURE_STABLE, vf.FIXTURE_MIXTURE], ids=lambda s: s.label())
def test_mc_laplace_catches_a_scaled_walk(monkeypatch, spec):
    # mc-laplace draws the walk's own increments: scaling them by 1.02 moves
    # E cos(xi X_dt) off exp(-1) by more than 3 stderr at 1e5 paths
    cfg = RunConfig(specs=(spec,))
    (clean,) = run_verify(cfg, only=["mc-laplace"]).checks
    assert clean.passed, clean.tol
    ks = KernelSet(spec)
    for k, dt in enumerate(cfg.mc_dt):
        assert dt * ks.psi(clean.measured[f"xi_{k}"]) == pytest.approx(1.0, rel=1e-12)
    real = vf.sample_increment
    monkeypatch.setattr(vf, "sample_increment", lambda *args: 1.02 * real(*args))
    (scaled,) = run_verify(cfg, only=["mc-laplace"]).checks
    assert not scaled.passed


def test_applicability_filters_by_spec():
    # h-value applies to the canonical stable spec only
    mix = PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9)))
    rep = run_verify(RunConfig(specs=(PhiSpec.stable(0.75), mix)), only=["h-value"])
    assert [c.name for c in rep.checks] == ["h-value[stable-0.75]"]
    # so under a mixture-only config it selects nothing, which is bad input
    with pytest.raises(ConfigError, match="no check"):
        run_verify(RunConfig(specs=(mix,)), only=["h-value"])


def test_selection_matching_no_check_raises_before_running(monkeypatch):
    # a well-formed label that no configured spec has selects nothing: an
    # error, not an empty report that passes
    def boom(ctx):
        raise AssertionError("no check may run")

    monkeypatch.setattr(vf, "_CHECKS", tuple(
        vf._CheckDef(d.name, d.anchor, boom, d.applies) for d in vf._CHECKS
    ))
    for only in (["h-value[stable-0.6]"], ["bhp[stable-0.6]", "h-value[mix-0.6-0.9]"], []):
        with pytest.raises(ConfigError, match="no check"):
            run_verify(RunConfig(), only=only)


def test_verdict_and_tol_come_from_the_clauses(monkeypatch, small_cfg):
    def stub(ctx):
        return {"v": 1.0}, [("a holds", True), ("b fails", False)]

    monkeypatch.setattr(vf, "_CHECKS", (vf._CheckDef("h-value", "anchor", stub),))
    (c,) = run_verify(small_cfg).checks
    assert not c.passed
    assert c.tol == "a holds; b fails"
    assert c.measured == {"v": 1.0}


def test_each_spec_runs_alone():
    # one context per spec: a run over two specs is the two one-spec runs
    # back to back, bit for bit (walks, Green matrices and Poisson tables
    # included), so the specs can be run apart
    specs = (PhiSpec.stable(0.75), PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9))))
    kw = dict(n_coarse=32, n_fine=64, mc_paths=200, mc_dt=(1e-2,))
    only = ["green-self-convergence", "mc-laplace", "mc-exit-time", "mc-exit-side"]

    def rows(rep):
        return [(c.name, c.measured, c.tol, c.passed) for c in rep.checks]

    both = run_verify(RunConfig(specs=specs, **kw), only=only)
    apart = [run_verify(RunConfig(specs=(s,), **kw), only=only) for s in specs]
    assert len(both.checks) == 8
    assert rows(both) == rows(apart[0]) + rows(apart[1])


def test_check_names_cover_both_fixtures():
    assert "bhp" in CHECK_NAMES and "mc-creep" in CHECK_NAMES
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES)) == 19


def test_exceptions_become_recorded_failures(monkeypatch, small_cfg):
    def boom(ctx):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(vf, "_CHECKS", (vf._CheckDef("h-value", "anchor", boom),))
    rep = run_verify(small_cfg)
    assert len(rep.checks) == 1
    c = rep.checks[0]
    assert not c.passed
    assert c.measured == {}
    assert "raised RuntimeError: synthetic failure" in c.tol
    assert rep.exit_code() == 1


def test_emit_json_round_trip(small_report, tmp_path):
    p = tmp_path / "report.json"
    emit_report(small_report, p)
    loaded = load_report(p)
    assert loaded.to_dict() == small_report.to_dict()


def test_emit_csv_layout(small_report, tmp_path):
    p = tmp_path / "report.csv"
    emit_report(small_report, p)
    lines = p.read_text().strip().splitlines()
    want = 1 + sum(len(c.measured) for c in small_report.checks)
    assert len(lines) == want
    assert lines[0] == "check,constant,value,tol,pass,runtime"


def test_emit_text_tokens(small_report, tmp_path):
    p = tmp_path / "report.txt"
    emit_report(small_report, p)
    text = p.read_text()
    for c in small_report.checks:
        assert c.name in text
    assert text.strip().endswith(f"(config {small_report.config_digest})")
    assert f"{len(small_report.checks)} checks" in text


@pytest.mark.parametrize("name, head", [("r.text", ("PASS  ", "FAIL  ")), ("r.out", "{")])
def test_emit_format_follows_the_suffix(small_report, tmp_path, name, head):
    # .csv, .txt and .json are covered above with Path arguments; a str works too
    p = tmp_path / name
    emit_report(small_report, str(p))
    assert p.read_text().startswith(head)


def test_emit_rejects_bad_requests(small_report, tmp_path):
    with pytest.raises(ConfigError):
        emit_report(CheckReport(checks=[], config_digest="x"), tmp_path / "r.json")
    with pytest.raises(OSError):
        emit_report(small_report, tmp_path / "missing" / "r.json")


def test_exit_code_tracks_failures():
    ok = CheckResult("a", "x", {"v": 1.0}, "v < 2", True, 0.1)
    bad = CheckResult("b", "x", {"v": 3.0}, "v < 2", False, 0.1)
    assert CheckReport([ok], "d").exit_code() == 0
    assert CheckReport([ok, bad], "d").exit_code() == 1


def test_mc_creep_reports_old_and_new_statistics():
    cfg = RunConfig(
        specs=(PhiSpec.stable(0.75),),
        n_coarse=200,
        n_fine=256,
        mc_paths=2000,
        mc_dt=(1e-2, 1e-3),
    )
    (c,) = run_verify(cfg, only=["mc-creep"]).checks
    m = c.measured
    # the old near-wall fractions over all paths, unchanged
    for key in ("creep_0", "creep_1", "final", "monotone"):
        assert key in m
    assert m["final"] == m["creep_1"]
    # exact endpoint landings per dt, and the share held against the solver
    assert m["landed"] == m["landed_0"] + m["landed_1"] == 0.0
    assert m["near_frac"] - m["solver_near"] <= m["se3"]
    assert m["mean_step"] > m["dx"]
    assert c.passed


def test_mc_creep_refuses_a_walk_finer_than_the_solver():
    # the mean step at dt = 1e-6 is below the n_fine = 512 cell width
    cfg = RunConfig(specs=(PhiSpec.stable(0.75),), mc_dt=(1e-6,), mc_paths=100)
    (c,) = run_verify(cfg, only=["mc-creep"]).checks
    assert not c.passed
    assert c.measured == {}
    assert "under-resolved" in c.tol and "below the solver cell width" in c.tol
