import time

import pytest

from sbmpot import KernelSet, PhiSpec, RunConfig, run_verify


@pytest.fixture(scope="session")
def stable_spec():
    return PhiSpec.stable(0.75)


@pytest.fixture(scope="session")
def mixture_spec():
    return PhiSpec.mixture(((1.0, 0.6), (1.0, 0.9)))


@pytest.fixture(scope="session")
def stable_ks(stable_spec):
    return KernelSet(stable_spec)


@pytest.fixture(scope="session")
def mixture_ks(mixture_spec):
    return KernelSet(mixture_spec)


@pytest.fixture
def quad_contract(monkeypatch):
    """Override the quadrature engine's fixed accuracy contract for one
    test: call the returned function with any of abs_tol, rel_tol and
    max_evals."""
    import sbmpot.quadrature as quad

    def override(abs_tol=quad.ABS_TOL, rel_tol=quad.REL_TOL, max_evals=quad.MAX_EVALS):
        monkeypatch.setattr(quad, "ABS_TOL", abs_tol)
        monkeypatch.setattr(quad, "REL_TOL", rel_tol)
        monkeypatch.setattr(quad, "MAX_EVALS", max_evals)

    return override


@pytest.fixture(scope="session")
def full_verify():
    """One full certification run over both fixture specs, shared by the
    acceptance tests.  Returns (config, report, wall seconds)."""
    cfg = RunConfig()
    t0 = time.perf_counter()
    report = run_verify(cfg)
    return cfg, report, time.perf_counter() - t0
