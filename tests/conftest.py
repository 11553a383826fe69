"""Shared fixtures and helpers for the test suite.

Seed policy: every randomized test derives its draws from an explicit
integer seed (hypothesis ``@given(st.integers(...))`` with the
``derandomized`` profile below, or a parametrized seed list), never from
global RNG state.  That keeps the suite order-independent and safe under
parallel runners — each test's randomness is a pure function of its own
parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.materials import acoustic, elastic

try:
    from hypothesis import settings as _hyp_settings
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass
else:
    _hyp_settings.register_profile("repro", derandomize=True, deadline=None)
    _hyp_settings.load_profile("repro")


@pytest.fixture
def rock():
    """Generic crustal rock (cp=6000, cs=3464, rho=2700)."""
    return elastic(2700.0, 6000.0, 3464.0)


@pytest.fixture
def water():
    """Standard ocean water (c=1500, rho=1000)."""
    return acoustic(1000.0, 1500.0)


@pytest.fixture
def plan_cache_on(monkeypatch):
    """Pin the operator-plan cache on: a test of plan sharing means the
    same in a ``REPRO_PLAN_CACHE=0`` environment."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", "1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_unit_vector(rng):
    """Uniformly random unit vector (face normal / rotation axis)."""
    while True:
        n = rng.normal(size=3)
        norm = np.linalg.norm(n)
        if norm > 1e-6:
            return n / norm


def random_material(rng, kind=None):
    """Random physically-plausible material for property-based tests.

    ``kind`` is ``"elastic"``, ``"acoustic"`` or ``None`` (choose
    randomly).  Densities span soft sediment to mantle rock, cp spans
    water to fast crust, and cs/cp stays inside the physical Poisson
    range.
    """
    if kind is None:
        kind = ("elastic", "acoustic")[int(rng.integers(2))]
    rho = float(rng.uniform(800.0, 4000.0))
    cp = float(rng.uniform(1000.0, 9000.0))
    if kind == "acoustic":
        return acoustic(rho, cp)
    return elastic(rho, cp, float(rng.uniform(0.3, 0.65)) * cp)


def l2_error(solver, exact_fn, t):
    """Global L2 error of a CoupledSolver state against ``exact_fn(x, t)``."""
    ref = solver.op.ref
    mesh = solver.mesh
    pts = mesh.map_points(np.arange(mesh.n_elements), ref.vol_points)
    num = np.einsum("qb,ebn->eqn", ref.V, solver.Q)
    ex = exact_fn(pts.reshape(-1, 3), t).reshape(num.shape)
    return float(
        np.sqrt(np.einsum("e,q,eqn->", mesh.det_jac, ref.vol_weights, (num - ex) ** 2))
    )
