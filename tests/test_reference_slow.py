"""Slow lane for the reference QP: a seeded fuzz, set-up beyond the desk
size over three seeds, and set-up at the desk size over twelve seeds, where
the crash phase of every drawn instance's QP must find the optimum.

Deselected by default; run with `pytest -m slow`.
"""

import numpy as np
import pytest

from simalm import reference
from simalm.experiments import ExperimentConfig, make_sectors, prepare_bundle
from simalm.inner_apg import grad_nu, lipschitz_nu
from simalm.linalg import frozen
from simalm.reference import ReferenceSolveError, active_set_qp
from test_reference import _no_crash

pytestmark = pytest.mark.slow

DRAWS = 2000    # QPs per family, 6,000 in all


def _rotated(rng, n, floor):
    """Symmetric Q with eigenvalues in [floor, 1] in a random orthonormal basis."""
    U = np.linalg.qr(rng.uniform(-1.0, 1.0, (n, n)))[0]
    Q = (U * rng.uniform(floor, 1.0, n)) @ U.T
    return 0.5 * (Q + Q.T)


def _property_qp(rng):
    # the distribution of test_crash_start_matches_the_cold_start: zero,
    # all-ones and duplicate rows, rows active at the uniform point
    n, m = int(rng.integers(2, 13)), int(rng.integers(0, 6))
    G = np.zeros((m, n))
    for i in range(m):
        kind = rng.choice(["random", "zero", "ones", "duplicate"])
        if kind == "random":
            G[i] = rng.random(n) < 0.5
        elif kind == "ones":
            G[i] = 1.0
        elif kind == "duplicate" and i > 0:
            G[i] = G[rng.integers(0, i)]
    d = G.sum(axis=1) / n + rng.choice([0.0, 0.01, 0.1, 0.5], m)
    return _rotated(rng, n, 1e-6), rng.uniform(-1.0, 1.0, n), G, d


def _gaussian_qp(rng):
    # signed Gaussian caps, 30 % of them active at the uniform point
    n, m = int(rng.integers(2, 40)), int(rng.integers(0, 8))
    G = rng.standard_normal((m, n))
    d = G.mean(axis=1) + np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 0.3, m))
    return _rotated(rng, n, 10.0 ** rng.uniform(-6, 0)), rng.standard_normal(n), G, d


def _sector_qp(rng):
    # overlapping sector caps just above the uniform load
    n = int(rng.integers(6, 25))
    s = int(rng.integers(2, max(3, n // 3)))
    G = make_sectors(n, s, rng)
    d = np.full(s, G.sum(axis=1).max() / n + rng.uniform(1e-3, 0.1))
    return _rotated(rng, n, 10.0 ** rng.uniform(-4, 0)), rng.uniform(-1.0, 1.0, n), G, d


def _answer(Q, c, G, d, solve):
    try:
        return solve(Q, c, G, d)
    except ReferenceSolveError:
        return None


FAMILIES = {"property": (_property_qp, 1), "gaussian": (_gaussian_qp, 2),
            "sector": (_sector_qp, 3)}


@pytest.mark.parametrize("family", FAMILIES)
def test_fuzz_answers_meet_kkt_and_agree(family):
    draw, seed = FAMILIES[family]
    rng = np.random.default_rng(seed)
    refused = []
    for i in range(DRAWS):
        Q, c, G, d = draw(rng)
        crash = _answer(Q, c, G, d, active_set_qp)
        cold = _answer(Q, c, G, d, _no_crash)
        for out in (crash, cold):
            assert out is None or out["kkt_residual"] <= reference.KKT_TOL, (family, i)
        if crash is None:
            refused.append(i)
        elif cold is not None:
            np.testing.assert_allclose(crash["x"], cold["x"], rtol=0.0,
                                       atol=1e-12 / np.linalg.eigvalsh(Q).min(),
                                       err_msg=f"{family} draw {i}")
    if family == "sector":
        assert refused == []


@pytest.fixture
def crash_flags(monkeypatch):
    """The crash flag of every reference._active_set call from now on; a
    False is the rerun of a QP whose crash phase gave up."""
    flags, run = [], reference._active_set

    def recorded(*args, crash):
        flags.append(crash)
        return run(*args, crash=crash)

    monkeypatch.setattr(reference, "_active_set", recorded)
    return flags


# config seeds per size whose accepted draws differ (at (200, 20) seeds
# 11-14 all land on draw 14)
BEYOND_SEEDS = {(200, 20): (12, 15, 17), (400, 40): (12, 13, 17)}


@pytest.mark.parametrize("n, s", list(BEYOND_SEEDS))
def test_setup_beyond_the_desk_size(monkeypatch, crash_flags, n, s):
    # at n = 400 a run from the uniform point without the crash phase takes
    # hundreds of solves, one fresh dense factorisation each; no drawn
    # instance's QP reruns without it
    qp, solves = reference.active_set_qp, []

    def counted(*args, **kwargs):
        out = qp(*args, **kwargs)
        solves.append(out["iterations"])
        return out

    monkeypatch.setattr(reference, "active_set_qp", counted)
    draws = set()
    for seed in BEYOND_SEEDS[n, s]:
        solves.clear()
        crash_flags.clear()
        bundle = prepare_bundle(ExperimentConfig(n=n, s=s, seed=seed))
        assert crash_flags and all(crash_flags), seed
        draws.add(bundle.instance.seed)
        assert bundle.reference.kkt_residual <= reference.KKT_TOL, seed
        assert bundle.binding.any(), seed
        assert solves and max(solves) <= 20, seed
    assert len(draws) == len(BEYOND_SEEDS[n, s])


@pytest.mark.parametrize("seed", range(1, 13))
def test_setup_at_the_desk_size_over_seeds(crash_flags, seed):
    # at (100, 10), seeds 1-12: the crash phase of every drawn instance's QP
    # finds the optimum, so none reruns; the reference optimum meets its
    # KKT conditions to 1e-9; the instance's arrays and Sigma* are frozen
    # and refuse writes, since every cache meets a frozen array by
    # identity; and the bundle's problem builds its forward map, whose step
    # is the composed gradient step up to rounding
    bundle = prepare_bundle(ExperimentConfig(n=100, s=10, seed=seed))
    assert crash_flags and all(crash_flags)
    ref = bundle.reference
    assert ref.kkt_residual <= 1e-9
    inst = bundle.instance
    for array in (inst.sector_matrix, inst.sector_limits, inst.mu, inst.sigma,
                  bundle.sigma_star):
        assert frozen(array)
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0
    problem = bundle.problem()
    theta, rho = bundle.sigma_star, 2.0
    L = lipschitz_nu(problem, rho, theta)
    step = problem.forward(problem)(theta, ref.lam, rho, L)
    for y in (ref.x, np.full(inst.n, 1.0 / inst.n)):
        want = y - grad_nu(problem, y, ref.lam, rho, theta) / L
        np.testing.assert_allclose(step(y), want, rtol=0.0, atol=1e-13)
