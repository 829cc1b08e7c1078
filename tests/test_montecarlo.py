import math
import os
import pickle
import select
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sbmpot.montecarlo as mc
from sbmpot import (
    ConfigError,
    DomainError,
    ExitStats,
    PathConfig,
    PhiSpec,
    phi_eval,
    sample_increment,
    simulate_exit,
)

from oracles import STABLE_MEDIAN, STABLE_TAIL_100_D075, sample_stable_subordinator


def _rng(seed, sub=0):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, sub], dtype=np.uint64))
    )


def _ks2(x, y):
    # two-sample Kolmogorov distance via the pooled order statistic
    xs, ys = np.sort(x), np.sort(y)
    z = np.concatenate([xs, ys])
    Fx = np.searchsorted(xs, z, side="right") / xs.size
    Fy = np.searchsorted(ys, z, side="right") / ys.size
    return float(np.max(np.abs(Fx - Fy)))


def test_path_config_validation():
    good = dict(dt=1e-2, t_max=1.0, x0=1.5, interval=(1.0, 2.0), n_paths=10, seed=1)
    PathConfig(**good)
    with pytest.raises(ConfigError):
        PathConfig(**{**good, "dt": 0.0})
    with pytest.raises(ConfigError):
        PathConfig(**{**good, "t_max": 1e-2})
    # t_max/dt must count finitely many steps
    for t_max, dt in ((math.inf, 1e-2), (1e307, 1e-2), (1.0, 5e-324)):
        with pytest.raises(ConfigError, match="t_max/dt"):
            PathConfig(**{**good, "t_max": t_max, "dt": dt})
    with pytest.raises(ConfigError):
        PathConfig(**{**good, "interval": (2.0, 1.0)})
    # an infinite endpoint used to walk and report "b": Infinity, not JSON
    for interval in ((1.0, math.inf), (-math.inf, 2.0), (1.0, math.nan)):
        with pytest.raises(ConfigError, match="endpoints a and b must be finite"):
            PathConfig(**{**good, "interval": interval})
    with pytest.raises(ConfigError):
        PathConfig(**{**good, "interval": (-1.0, 2.0), "x0": 0.5, "fold": True})
    with pytest.raises(DomainError):
        PathConfig(**{**good, "x0": 2.5})
    with pytest.raises(ConfigError):
        PathConfig(**{**good, "n_paths": 0})
    for n in (10.7, 10.0, "10", True):
        with pytest.raises(ConfigError, match="n_paths must be an integer"):
            PathConfig(**{**good, "n_paths": n})
    # a bool is a numbers.Integral, but False is no seed
    for seed in (-1, 2**64, 1.5, "7", False, True):
        with pytest.raises(ConfigError, match="seed"):
            PathConfig(**{**good, "seed": seed})
    PathConfig(**{**good, "seed": 2**64 - 1})


def test_subordinator_domain():
    for d in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            sample_stable_subordinator(d, 10, _rng(1))


def test_subordinator_laplace_transform():
    # E exp(-S_1) = exp(-1) for every stability index
    n = 100_000
    for d in (0.6, 0.75, 0.9):
        s = sample_stable_subordinator(d, n, _rng(7))
        w = np.exp(-s)
        se = float(np.std(w)) / math.sqrt(n)
        assert abs(float(np.mean(w)) - math.exp(-1.0)) < 4.0 * se


def test_subordinator_median():
    n = 100_000
    for d, med in STABLE_MEDIAN.items():
        s = sample_stable_subordinator(d, n, _rng(11))
        frac = float(np.mean(s <= med))
        assert abs(frac - 0.5) < 2.0 / math.sqrt(n)


def test_subordinator_tail():
    n = 100_000
    s = sample_stable_subordinator(0.75, n, _rng(13))
    p0 = STABLE_TAIL_100_D075
    se = math.sqrt(p0 * (1.0 - p0) / n)
    assert abs(float(np.mean(s > 100.0)) - p0) < 4.0 * se


def test_increment_self_similarity(stable_spec):
    # alpha = 1.5: doubling dt scales the walk increment by 2^(2/3)
    n = 20_000
    a = sample_increment(stable_spec, 0.2, n, _rng(17))
    b = 2.0 ** (2.0 / 3.0) * sample_increment(stable_spec, 0.1, n, _rng(19))
    assert _ks2(a, b) < 1.628 * math.sqrt(2.0 / n)


def test_increment_characteristic_function(stable_spec, mixture_spec):
    # one-step CF is exp(-dt phi(xi^2)) exactly, whatever the lattice step
    n, dt = 100_000, 0.37
    for spec in (stable_spec, mixture_spec):
        inc = sample_increment(spec, dt, n, _rng(23))
        for xi in (0.5, 2.0, 8.0):
            c = np.cos(xi * inc)
            target = math.exp(-dt * phi_eval(spec, xi * xi))
            se = float(np.std(c)) / math.sqrt(n)
            assert abs(float(np.mean(c)) - target) < 4.0 * se


def _product_increment(spec, dt, n, rng):
    # the subordinated form sqrt(2 S_dt) N, one subordinator per term
    s = np.zeros(n)
    for w, d in zip(spec.weights(), spec.exponents()):
        s += (w * dt) ** (1.0 / d) * sample_stable_subordinator(d, n, rng)
    return np.sqrt(2.0 * s) * rng.standard_normal(n)


def test_increment_matches_the_subordinated_product(stable_spec, mixture_spec):
    # the direct stable draw has the law of the subordinated Gaussian; at
    # delta = 0.5 (alpha = 1) it reduces to a scaled tan V
    n = 20_000
    for k, spec in enumerate((stable_spec, mixture_spec, PhiSpec.stable(0.5))):
        for dt in (1e-3, 0.37):
            direct = sample_increment(spec, dt, n, _rng(31, k))
            product = _product_increment(spec, dt, n, _rng(37, k))
            assert _ks2(direct, product) < 1.95 * math.sqrt(2.0 / n)


class _EndpointStub:
    """Uniform source returning only 0.0 and 1 - 2^-53, every combination."""

    def random(self, shape):
        k = shape[-1]
        combos = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
        lo_hi = np.where(combos == 1, 1.0 - 2.0 ** -53, 0.0)
        rows = int(np.prod(shape[:-1]))
        return np.resize(lo_hi, (rows, k)).reshape(shape)


def test_increment_endpoint_uniforms_stay_finite(stable_spec, mixture_spec):
    for spec in (stable_spec, mixture_spec, PhiSpec.stable(0.5)):
        inc = sample_increment(spec, 1e-3, 64, _EndpointStub())
        assert inc.shape == (64,)
        assert np.all(np.isfinite(inc))


def test_increment_reads_its_keyed_slice(mixture_spec):
    # increment s takes uniforms [k s, k s + k) of the stream, k = 2 x terms
    full = sample_increment(mixture_spec, 1e-3, 10, _rng(41))
    gen = _rng(41)
    head = sample_increment(mixture_spec, 1e-3, 4, gen)
    tail = sample_increment(mixture_spec, 1e-3, (2, 3), gen)
    assert np.array_equal(full, np.concatenate([head, tail.ravel()]))


def test_increment_validation(stable_spec):
    with pytest.raises(ConfigError):
        sample_increment(stable_spec, 0.0, 10, _rng(1))


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_rewound_stream_matches_a_fresh_philox(seed):
    gen = mc.keyed_stream(3, 4)
    gen.random(5)  # mid-stream, with a part-used buffer
    for index in (0, 1, 255, 2**64 - 1):
        got = mc._rewind(gen, seed, index).random(9)
        want = _rng(seed, index).random(9)
        assert np.array_equal(got, want)


def test_simulate_exit_deterministic(stable_spec):
    cfg = PathConfig(dt=1e-2, t_max=50.0, x0=1.5, interval=(1.0, 2.0), n_paths=100, seed=99)
    s1 = simulate_exit(cfg, stable_spec)
    s2 = simulate_exit(cfg, stable_spec)
    assert np.array_equal(s1.exited, s2.exited)
    assert np.array_equal(s1.exit_pos, s2.exit_pos, equal_nan=True)
    assert np.array_equal(s1.exit_time, s2.exit_time, equal_nan=True)
    # path i is keyed (seed, i): a shorter run is a prefix of a longer one
    half = simulate_exit(
        PathConfig(dt=1e-2, t_max=50.0, x0=1.5, interval=(1.0, 2.0), n_paths=50, seed=99),
        stable_spec,
    )
    assert np.array_equal(half.exit_pos, s1.exit_pos[:50], equal_nan=True)


def _walk_per_path(cfg, spec):
    # one path at a time, over the same keyed uniforms and chunk length
    a, b = cfg.interval
    n_max = int(math.ceil(cfg.t_max / cfg.dt))
    pos_out = np.full(cfg.n_paths, np.nan)
    time_out = np.full(cfg.n_paths, np.nan)
    for i in range(cfg.n_paths):
        gen = _rng(cfg.seed, i)
        x, done = cfg.x0, 0
        while done < n_max:
            m = min(mc._CHUNK, n_max - done)
            raw = x + np.cumsum(sample_increment(spec, cfg.dt, m, gen))
            pos = np.abs(raw) if cfg.fold else raw
            out = (pos <= a) | (pos >= b)
            k = int(np.argmax(out))
            if out[k]:
                pos_out[i], time_out[i] = pos[k], (done + k + 1) * cfg.dt
                break
            x, done = raw[-1], done + m
    return pos_out, time_out


_LOCKSTEP_CASES = [
    # t_max = 0.3 is 300 steps: two full chunks and a short one, then censoring
    dict(dt=1e-3, t_max=0.3, x0=1.5, interval=(1.0, 2.0), n_paths=50, seed=8),
    dict(dt=1e-3, t_max=0.3, x0=0.2, interval=(0.05, 1.5), n_paths=50, seed=9, fold=True),
    dict(dt=1e-2, t_max=50.0, x0=1.1, interval=(1.0, 2.0), n_paths=50, seed=10),
]


@pytest.mark.parametrize("case", range(len(_LOCKSTEP_CASES)))
def test_lockstep_walk_equals_a_per_path_loop(case, stable_spec, mixture_spec, monkeypatch):
    cfg = PathConfig(**_LOCKSTEP_CASES[case])
    for spec in (stable_spec, mixture_spec):
        ref_pos, ref_time = _walk_per_path(cfg, spec)
        st = simulate_exit(cfg, spec)
        assert np.array_equal(st.exit_pos, ref_pos, equal_nan=True)
        assert np.array_equal(st.exit_time, ref_time, equal_nan=True)
        assert np.array_equal(st.exited, np.isfinite(ref_pos))
        if case < 2:
            assert 0 < st.censored < cfg.n_paths
        for lanes in (1, 7):
            monkeypatch.setattr(mc, "_LANES", lanes)
            blk = simulate_exit(cfg, spec)
            monkeypatch.undo()
            assert np.array_equal(blk.exit_pos, st.exit_pos, equal_nan=True)
            assert np.array_equal(blk.exit_time, st.exit_time, equal_nan=True)


def _assert_same_walk(got, want):
    assert np.array_equal(got.exited, want.exited)
    assert np.array_equal(got.exit_pos, want.exit_pos, equal_nan=True)
    assert np.array_equal(got.exit_time, want.exit_time, equal_nan=True)


def _in_process(cfg, spec, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(mc, "_usable_cpus", lambda: 1)
        return simulate_exit(cfg, spec)


needs_cores = pytest.mark.skipif(
    mc._usable_cpus() < 2, reason="the walk fans out only on two or more usable CPUs"
)


@pytest.fixture
def fanned(monkeypatch):
    """Whether each walk since the fixture was made went to the worker pool."""
    seen = []
    real = mc._walk_pool

    def spy(blocks):
        pool = real(blocks)
        seen.append(pool is not None)
        return pool

    monkeypatch.setattr(mc, "_walk_pool", spy)
    return seen


# two full lane blocks and a short one; t_max = 0.3 at dt 1e-3 censors at 300 steps
_FAN_OUT_CASES = [
    dict(dt=1e-3, t_max=0.3, x0=1.5, interval=(1.0, 2.0), seed=8),
    dict(dt=1e-3, t_max=0.3, x0=0.2, interval=(0.05, 1.5), seed=9, fold=True),
    dict(dt=1e-2, t_max=50.0, x0=1.1, interval=(1.0, 2.0), seed=10),
]


@needs_cores
@pytest.mark.parametrize("case", range(len(_FAN_OUT_CASES)))
def test_fan_out_equals_the_in_process_walk(case, stable_spec, mixture_spec, monkeypatch, fanned):
    cfg = PathConfig(n_paths=2 * mc._LANES + 5, **_FAN_OUT_CASES[case])
    for spec in (stable_spec, mixture_spec):
        st = simulate_exit(cfg, spec)
        assert fanned[-1]
        _assert_same_walk(st, _in_process(cfg, spec, monkeypatch))
        if case < 2:
            assert 0 < st.censored < cfg.n_paths


@needs_cores
def test_fan_out_warns_once_in_the_caller(stable_spec, fanned):
    cfg = PathConfig(
        dt=1e-2, t_max=2.5e-2, x0=0.0, interval=(-1e6, 1e6),
        n_paths=2 * mc._LANES + 5, seed=3,
    )
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        st = simulate_exit(cfg, stable_spec)
    assert fanned == [True]
    assert [w.category for w in seen] == [RuntimeWarning]
    assert st.censored == cfg.n_paths


def test_one_block_makes_no_pool(stable_spec, monkeypatch):
    monkeypatch.setattr(mc, "_pool", None)
    cfg = PathConfig(dt=1e-2, t_max=50.0, x0=1.5, interval=(1.0, 2.0), n_paths=mc._LANES, seed=4)
    simulate_exit(cfg, stable_spec)
    assert mc._pool is None


_TWO_BLOCKS = dict(dt=1e-2, t_max=50.0, x0=1.5, interval=(1.0, 2.0), seed=12)


@needs_cores
def test_a_patched_sampler_walks_in_process(stable_spec, monkeypatch, fanned):
    cfg = PathConfig(n_paths=mc._LANES + 1, **_TWO_BLOCKS)
    base = simulate_exit(cfg, stable_spec)
    assert fanned == [True] and mc._pool.pid == os.getpid()
    real = mc.sample_increment
    monkeypatch.setattr(mc, "sample_increment", lambda *args: 1.02 * real(*args))
    scaled = simulate_exit(cfg, stable_spec)
    # the workers hold the unscaled sampler, so a fan-out would return base
    assert fanned == [True, False]
    assert not np.array_equal(scaled.exit_pos, base.exit_pos, equal_nan=True)
    _assert_same_walk(scaled, _in_process(cfg, stable_spec, monkeypatch))


@needs_cores
def test_a_forked_child_walks_in_process(stable_spec, monkeypatch):
    cfg = PathConfig(n_paths=mc._LANES + 1, **_TWO_BLOCKS)
    simulate_exit(cfg, stable_spec)
    assert mc._pool is not None and mc._pool.pid == os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            st = simulate_exit(cfg, stable_spec)
            out = (mc._walk_pool(2) is None, st.exited, st.exit_pos, st.exit_time)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(out, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        if not select.select([fh], [], [], 60.0)[0]:
            os.kill(pid, signal.SIGKILL)
        data = fh.read()
    os.waitpid(pid, 0)
    assert data, "the forked child returned no walk within 60 s"
    no_pool, exited, pos, etime = pickle.loads(data)
    assert no_pool
    _assert_same_walk(
        ExitStats(cfg.n_paths, cfg.dt, cfg.interval, exited, pos, etime),
        _in_process(cfg, stable_spec, monkeypatch),
    )


def test_import_leaves_the_pool_modules_out():
    src = str(Path(mc.__file__).resolve().parents[1])
    code = (
        "import sys, sbmpot; "
        "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_the_pool_is_shut_down_at_exit():
    # a walk of two blocks makes the pool; the module is kept alive past
    # module teardown from sys, as a test runner's modules keep it, which
    # without the exit shutdown printed "Exception ignored in ...
    # weakref_cb" from the executor collected there
    src = str(Path(mc.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from sbmpot import PhiSpec, montecarlo\n"
        "montecarlo._usable_cpus = lambda: 2\n"
        "cfg = montecarlo.PathConfig(dt=1e-2, t_max=1.0, x0=1.5, interval=(1.0, 2.0), "
        "n_paths=2 * montecarlo._LANES, seed=1)\n"
        "montecarlo.simulate_exit(cfg, PhiSpec.stable(0.75))\n"
        "print(*(p.pid for p in montecarlo._pool.executor._processes.values()))\n"
        "sys._walk_module = montecarlo\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    assert out.stderr == ""
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 2
    for pid in pids:  # joined by the exiting process, so not even a zombie
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_simulate_exit_statistics(stable_spec):
    cfg = PathConfig(dt=1e-2, t_max=50.0, x0=1.5, interval=(1.0, 2.0), n_paths=100, seed=99)
    st = simulate_exit(cfg, stable_spec)
    ex = st.exited
    assert st.censored == 100 - int(ex.sum())
    assert np.all(np.isnan(st.exit_pos[~ex]))
    p = st.exit_pos[ex]
    assert np.all((p <= 1.0) | (p >= 2.0))
    assert np.all(st.exit_time[ex] > 0.0)
    assert np.all(st.exit_time[ex] <= 50.0 + 1e-12)


def test_folded_walk_exits_through_the_top(stable_spec):
    cfg = PathConfig(
        dt=1e-2, t_max=50.0, x0=0.5, interval=(0.0, 1.0), n_paths=200, seed=5, fold=True
    )
    st = simulate_exit(cfg, stable_spec)
    assert st.exited.all()
    assert np.all(st.exit_pos[st.exited] >= 1.0)


def test_all_censored_warns(stable_spec):
    cfg = PathConfig(
        dt=1e-2, t_max=2.5e-2, x0=0.0, interval=(-1e6, 1e6), n_paths=4, seed=3
    )
    with pytest.warns(RuntimeWarning):
        st = simulate_exit(cfg, stable_spec)
    assert st.censored == 4
    assert np.all(np.isnan(st.exit_pos))


def test_creep_count_synthetic():
    st = ExitStats(
        n_paths=4,
        dt=1e-2,
        interval=(0.0, 1.0),
        exited=np.array([True, True, True, False]),
        exit_pos=np.array([1.00005, 1.5, -0.00002, np.nan]),
        exit_time=np.array([0.1, 0.2, 0.3, np.nan]),
    )
    assert st.censored == 1
    assert st.creep_count(1e-4) == 2
    assert st.creep_count(1e-6) == 0


def test_landing_count_synthetic():
    st = ExitStats(
        n_paths=6,
        dt=1e-2,
        interval=(1.0, 2.0),
        exited=np.array([True, True, True, True, False, True]),
        exit_pos=np.array([1.0, 2.0, 2.0 + 1e-15, 0.99999, np.nan, 2.0]),
        exit_time=np.array([0.1, 0.2, 0.3, 0.4, np.nan, 0.5]),
    )
    assert st.landing_count() == 3
    assert st.creep_count(1e-4) == 5
    # a censored path never counts, whatever its stored position
    st.exit_pos[4] = 1.0
    assert st.landing_count() == 3
