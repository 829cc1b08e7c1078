"""Skeleton-walk Monte Carlo for the subordinate random walk.

The process is simulated on a fixed time lattice: each step adds, for every
term w lam^delta of phi, a symmetric 2 delta-stable draw with scale
(w dt)^(1/(2 delta)), which is the law of sqrt(2 S_dt) N for the term's
subordinator increment S_dt.  The one-step characteristic function is
therefore exp(-dt phi(xi^2)) exactly.  Only the exit detection is
approximate (the walk can straddle the interval boundary between lattice
times), which biases exit times upward by O(dt) and is the object of the
dt-sweep cross-checks.

Every path owns a counter-based RNG substream keyed by (seed, path index),
and its step s reads a fixed slice of that stream, so results are bitwise
reproducible and independent of batching, execution order or the process
that walks the path.  The walk advances a lane block of paths in lockstep,
one fixed-length chunk of steps per round.  A walk of two or more blocks
fans its blocks out to a pool of forked worker processes, one per usable
CPU, and stitches their results back in path order.  It walks in-process
on one usable CPU, on a platform without ``os.sched_getaffinity`` (where
``fork`` is unsafe or absent), in a process forked from the one that made
the pool, and when `sample_increment` is no longer the function the
workers were forked with (a patched or traced sampler).
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .bernstein import PhiSpec
from .errors import ConfigError, DomainError, check_integer, check_seed, check_steps

__all__ = [
    "PathConfig",
    "ExitStats",
    "sample_increment",
    "simulate_exit",
]

# steps per lockstep round; fixed, because the running sum is carried across
# chunk boundaries and rounds differently if they move
_CHUNK = 128
# paths per lane block; caps one round at _LANES x _CHUNK increments
_LANES = 256
# the walk's worker pool, made by the first walk that fans out and kept for
# the life of the process
_pool = None
_pool_lock = threading.Lock()
# per thread: the Philox generators that lane blocks are rewound onto
_generators = threading.local()


@dataclass(frozen=True)
class PathConfig:
    """Walk parameters: lattice step, horizon, start, interval, paths, seed.

    ``fold`` runs the walk on the absolute value (reflection at the origin),
    matching the folded form of the interval problems.
    """

    dt: float
    t_max: float
    x0: float
    interval: tuple
    n_paths: int
    seed: int
    fold: bool = False

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        object.__setattr__(self, "interval", (a, b))
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if not (self.t_max > self.dt):
            raise ConfigError("t_max must exceed dt")
        check_steps(self.t_max, self.dt)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(
                f"interval endpoints a and b must be finite, got a = {a}, b = {b}"
            )
        if not (a < b):
            raise ConfigError("interval must satisfy a < b")
        if self.fold and a < 0.0:
            raise ConfigError("folded walks need a >= 0")
        if not (a < self.x0 < b):
            raise DomainError("x0 must start inside the interval")
        check_integer("n_paths", self.n_paths, 1)
        check_seed(self.seed)


@dataclass
class ExitStats:
    """First-exit record per path; censored paths carry NaN entries."""

    n_paths: int
    dt: float
    interval: tuple
    exited: np.ndarray = field(repr=False)  # bool mask
    exit_pos: np.ndarray = field(repr=False)
    exit_time: np.ndarray = field(repr=False)

    @property
    def censored(self) -> int:
        return int(self.n_paths - np.count_nonzero(self.exited))

    def creep_count(self, eps: float) -> int:
        """Exited paths landing within eps of either interval endpoint."""
        a, b = self.interval
        p = self.exit_pos[self.exited]
        return int(np.count_nonzero(np.minimum(np.abs(p - a), np.abs(p - b)) < eps))

    def landing_count(self) -> int:
        """Exited paths whose exit position equals an interval endpoint exactly."""
        a, b = self.interval
        p = self.exit_pos[self.exited]
        return int(np.count_nonzero((p == a) | (p == b)))


def sample_increment(spec: PhiSpec, dt: float, size, rng) -> np.ndarray:
    """One lattice increment of the walk per entry of an array of shape size.

    For one term w lam^delta of phi, sqrt(2 S_dt) N with S_dt the
    subordinator increment is symmetric alpha-stable, alpha = 2 delta, with
    E exp(i xi X) = exp(-w dt |xi|^alpha).  It is drawn directly by
    Chambers-Mallows-Stuck from V uniform on (-pi/2, pi/2) and W unit
    exponential,
        X = (w dt)^(1/alpha) sin(alpha V) / cos V
            * [cos((1 - alpha) V) / (W cos V)]^((1 - alpha)/alpha),
    which is (w dt) tan V at alpha = 1.  A mixture adds one draw per term.

    Stream contract: one call reads ``rng.random(size + (k,))``, k = 2 x the
    number of terms, so increment s (in C order) takes uniforms
    [k s, k s + k) of the stream; term j turns uniform 2j into V and 2j + 1
    into W.  Any object with that ``random(shape)`` method serves as rng.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    shape = (size,) if np.isscalar(size) else tuple(size)
    terms = list(zip(spec.weights(), spec.exponents()))
    u = rng.random((*shape, 2 * len(terms)))
    # keep u strictly inside (0,1); u = 0 would give cos V = 0 and W = 0
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    inc = np.zeros(shape)
    for j, (w, d) in enumerate(terms):
        alpha = 2.0 * d
        v = math.pi * (u[..., 2 * j] - 0.5)
        cv = np.cos(v)
        w_cv = -np.log(u[..., 2 * j + 1]) * cv
        x = np.sin(alpha * v) / cv
        x *= (np.cos((1.0 - alpha) * v) / w_cv) ** ((1.0 - alpha) / alpha)
        inc += (w * dt) ** (1.0 / alpha) * x
    return inc


def keyed_stream(seed, index):
    """The counter-based substream keyed (seed, index), at its start."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )


def _rewind(gen, seed, index):
    """Put the Philox generator ``gen`` at the start of the substream keyed
    (seed, index): counter 0 and an empty buffer, as a fresh
    `keyed_stream` starts.  A fresh Philox costs several times more, since
    numpy draws OS entropy for it even when the key is given."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class _LaneStreams:
    """The keyed streams of paths [lo, hi), read as one generator: row i of
    ``random(shape)`` continues the stream of the block's i-th live path.

    The generators come from one pool per thread, as many as the widest
    block it has walked, rewound onto this block's paths."""

    def __init__(self, seed, lo, hi):
        pool = _generators.__dict__.setdefault("pool", [])
        pool += [keyed_stream(seed, i) for i in range(lo + len(pool), hi)]
        self.live = [_rewind(g, seed, i) for g, i in zip(pool, range(lo, hi))]

    def keep(self, mask):
        self.live = [g for g, k in zip(self.live, mask) if k]

    def random(self, shape):
        u = np.empty(shape)
        for gen, row in zip(self.live, u):
            gen.random(out=row)
        return u


def _walk_block(cfg, spec, lo, hi):
    """Walk paths [lo, hi) of cfg as one lane block, all live lanes one
    _CHUNK of steps per round; a lane leaves the block when it exits.
    Returns the block's (exited, exit_pos, exit_time)."""
    a, b = cfg.interval
    n_max = int(math.ceil(cfg.t_max / cfg.dt))
    exited = np.zeros(hi - lo, bool)
    epos = np.full(hi - lo, np.nan)
    etime = np.full(hi - lo, np.nan)
    streams = _LaneStreams(cfg.seed, lo, hi)
    lanes = np.arange(hi - lo)
    x = np.full(lanes.size, float(cfg.x0))  # unfolded coordinate
    done = 0
    while lanes.size and done < n_max:
        m = min(_CHUNK, n_max - done)
        inc = sample_increment(spec, cfg.dt, (lanes.size, m), streams)
        raw = x[:, None] + np.cumsum(inc, axis=1)
        pos = np.abs(raw) if cfg.fold else raw
        out = (pos <= a) | (pos >= b)
        k = np.argmax(out, axis=1)
        hit = out[np.arange(lanes.size), k]
        epos[lanes[hit]] = pos[hit, k[hit]]
        etime[lanes[hit]] = (done + k[hit] + 1) * cfg.dt
        exited[lanes[hit]] = True
        lanes, x = lanes[~hit], raw[~hit, -1]
        streams.keep(~hit)
        done += m
    return exited, epos, etime


def _usable_cpus():
    # 1 where os.sched_getaffinity is missing (macOS, Windows): there fork is
    # unsafe or absent, so the walk stays in-process
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _Pool:
    """Worker processes forked for the walk, with the pid that forked them
    and the `sample_increment` they were forked with.  Workers ignore
    SIGINT, so an interrupted walk leaves the pool usable.

    The pool is shut down at interpreter exit, before module teardown: left
    to be collected there, its executor's callback could run after
    ``concurrent.futures.process`` was torn down and print "Exception
    ignored in ... weakref_cb", depending on import order.  A process forked
    from the one that made the pool does not shut it down.
    """

    def __init__(self):
        # kept out of `import sbmpot`, which never walks
        import atexit
        import multiprocessing
        import signal
        from concurrent.futures import ProcessPoolExecutor

        self.pid = os.getpid()
        self.sampler = sample_increment
        self.executor = ProcessPoolExecutor(
            _usable_cpus(),
            mp_context=multiprocessing.get_context("fork"),
            initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        atexit.register(self.shutdown)

    def shutdown(self):
        if os.getpid() == self.pid:
            self.executor.shutdown(wait=True, cancel_futures=True)


def _walk_pool(blocks):
    """The executor to walk ``blocks`` lane blocks on, or None to walk them
    in-process.  The workers run the code they were forked with, so they
    serve only the process that forked them, and only while its
    `sample_increment` is the one they hold."""
    global _pool
    if blocks < 2 or _usable_cpus() < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = _Pool()
    if _pool.pid != os.getpid() or _pool.sampler is not sample_increment:
        return None
    return _pool.executor


def simulate_exit(cfg: PathConfig, spec: PhiSpec) -> ExitStats:
    """First-exit statistics over cfg.n_paths independent walks.

    Path i uses the Philox substream keyed (seed, i), and its step s the
    uniforms [k s, k s + k) of that stream (k as in `sample_increment`), so
    path i is a pure function of (seed, i): identical seeds give
    bitwise-identical results whatever the execution order, lane block or
    process, and a shorter run is a prefix of a longer one.  Paths walk in
    lane blocks of _LANES.  Two or more blocks go one per task to the
    forked worker pool (see the module docstring for when the walk stays
    in-process instead); the results come back to this process in path
    order.  All paths censoring at t_max is downgraded to a warning result.
    """
    n = int(cfg.n_paths)
    lo = range(0, n, _LANES)
    hi = [min(i + _LANES, n) for i in lo]
    pool = _walk_pool(len(lo))
    walk = map if pool is None else pool.map
    parts = list(walk(_walk_block, repeat(cfg), repeat(spec), lo, hi))
    exited, epos, etime = (np.concatenate(p) for p in zip(*parts))
    if not exited.any():
        warnings.warn(
            "simulate_exit: every path was censored at t_max", RuntimeWarning
        )
    return ExitStats(
        n_paths=n, dt=cfg.dt, interval=cfg.interval,
        exited=exited, exit_pos=epos, exit_time=etime,
    )
