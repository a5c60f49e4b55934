"""Slow lane for the reference QP: a seeded fuzz and set-up beyond the desk size.

Deselected by default; run with `pytest -m slow`.
"""

import numpy as np
import pytest

from simalm import reference
from simalm.experiments import ExperimentConfig, make_sectors, prepare_bundle
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


@pytest.mark.parametrize("n, s", [(200, 20), (400, 40)])
def test_setup_beyond_the_desk_size(monkeypatch, n, s):
    # at n = 400 a run from the uniform point without the crash phase takes
    # hundreds of solves, one fresh dense factorisation each
    qp, solves = reference.active_set_qp, []

    def counted(*args, **kwargs):
        out = qp(*args, **kwargs)
        solves.append(out["iterations"])
        return out

    monkeypatch.setattr(reference, "active_set_qp", counted)
    bundle = prepare_bundle(ExperimentConfig(n=n, s=s, seed=12))
    assert bundle.reference.kkt_residual <= reference.KKT_TOL
    assert bundle.binding.any()
    assert solves and max(solves) <= 20
