import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.model import (NonFiniteError, PortfolioInstance,
                          constraint_value, evaluate_f, infeasibility,
                          portfolio_problem, project_simplex, simplex_prox)
from conftest import make_small_portfolio, random_simplex_point


def brute_force_simplex_projection(v):
    """Exact projection by enumerating support sets (dims <= 5)."""
    v = np.asarray(v, float)
    n = v.size
    best, best_val = None, np.inf
    for r in range(1, n + 1):
        for T in itertools.combinations(range(n), r):
            z = np.zeros(n)
            shift = (v[list(T)].sum() - 1.0) / r
            z[list(T)] = v[list(T)] - shift
            if np.all(z >= -1e-12):
                val = np.sum((z - v) ** 2)
                if val < best_val:
                    best, best_val = z, val
    return best


def test_simplex_prox_examples():
    np.testing.assert_allclose(simplex_prox([1.2, 0.8], np.zeros(2), 1.0), [0.7, 0.3])
    np.testing.assert_allclose(simplex_prox([2.0, -1.0], np.zeros(2), 1.0), [1.0, 0.0])
    y = np.array([0.25, 0.5, 0.25])
    np.testing.assert_allclose(simplex_prox(y, np.zeros(3), 2.0), y, atol=1e-14)


def test_simplex_prox_requires_positive_curvature():
    with pytest.raises(ValueError):
        simplex_prox([0.5, 0.5], np.zeros(2), 0.0)


def test_simplex_projection_against_brute_force(rng):
    for n in (2, 3, 4, 5):
        for _ in range(30):
            v = rng.standard_normal(n) * 2.0
            got = project_simplex(v)
            want = brute_force_simplex_projection(v)
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_simplex_projection_properties(rng):
    for _ in range(200):
        v = rng.standard_normal(17) * 5.0
        x = project_simplex(v)
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)))
def test_simplex_projection_is_optimal(v):
    # p is the projection iff <v - p, z - p> <= 0 for every z on the simplex,
    # i.e. iff max_i (v - p)_i <= <v - p, p>. The threshold's rounding error
    # grows like n max|v|^2 eps, so the absolute 1e-12 is for unit-scale v.
    p = project_simplex(v)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    r = v - p
    assert r.max() <= r @ p + 1e-12


@pytest.mark.parametrize("v", [[np.nan, np.nan], [np.inf, 1.0], [np.nan, 1.0],
                               [1.0, np.nan, 0.2], [-np.inf, 1.0],
                               [1e17, 0.0], [-1e17, -1e17]])
def test_simplex_projection_rejects_non_finite(v):
    with pytest.raises(NonFiniteError, match="simplex projection"):
        project_simplex(v)


def test_portfolio_objective_known_values():
    n = 4
    instance = PortfolioInstance(
        n=n, s=1, sector_matrix=np.ones((1, n)), sector_limits=np.array([1.0]),
        mu=np.zeros(n), risk_tradeoff=0.1, sigma=np.eye(n))
    problem = portfolio_problem(instance)
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert evaluate_f(problem, e1, np.eye(n)) == pytest.approx(0.5)
    uniform = np.full(n, 1.0 / n)
    assert evaluate_f(problem, uniform, np.eye(n)) == pytest.approx(1.0 / (2 * n))


def test_portfolio_objective_matches_naive(rng):
    instance, problem = make_small_portfolio()
    for _ in range(20):
        x = random_simplex_point(rng, instance.n)
        sigma = instance.sigma * rng.uniform(0.5, 1.5)
        naive = 0.5 * x @ sigma @ x - instance.risk_tradeoff * instance.mu @ x
        assert evaluate_f(problem, x, sigma) == pytest.approx(naive, rel=1e-12)


def test_constraint_value_and_infeasibility(rng):
    instance, problem = make_small_portfolio()
    x = random_simplex_point(rng, instance.n)
    h = constraint_value(problem, x, instance.sigma)
    np.testing.assert_allclose(h, instance.sector_matrix @ x - instance.sector_limits)
    # orthant cone: infeasibility is the norm of the positive part
    want = np.linalg.norm(np.maximum(h, 0.0))
    assert infeasibility(problem, x, instance.sigma) == pytest.approx(want)
    assert infeasibility(problem, x, instance.sigma) == pytest.approx(
        float(problem.cone.dist_neg(h)))


def test_infeasibility_examples():
    instance, problem = make_small_portfolio(n=6, s=2, sector_limit=10.0)
    # generous limits: any simplex point is feasible
    assert infeasibility(problem, np.full(6, 1.0 / 6), instance.sigma) == 0.0


def test_gradient_matches_finite_differences(rng, toy_problem):
    h = 1e-6
    for _ in range(10):
        x = random_simplex_point(rng, 3)
        theta = rng.standard_normal(2)
        _, g = toy_problem.smooth_value_grad(x, theta)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fp, _ = toy_problem.smooth_value_grad(x + e, theta)
            fm, _ = toy_problem.smooth_value_grad(x - e, theta)
            fd[i] = (fp - fm) / (2 * h)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-6


def test_constraint_lipschitz_in_theta(rng, toy_problem):
    cst = toy_problem.constants
    for _ in range(20):
        x = random_simplex_point(rng, 3)
        t1 = rng.standard_normal(2)
        t2 = rng.standard_normal(2)
        lhs = np.linalg.norm(constraint_value(toy_problem, x, t1)
                             - constraint_value(toy_problem, x, t2))
        assert lhs <= cst.L_h_theta * np.linalg.norm(t1 - t2) + 1e-12


def test_portfolio_constraints_theta_free(rng):
    instance, problem = make_small_portfolio()
    x = random_simplex_point(rng, instance.n)
    h1 = constraint_value(problem, x, instance.sigma)
    h2 = constraint_value(problem, x, 2.0 * instance.sigma)
    np.testing.assert_allclose(h1, h2)
    assert problem.constants.L_h_theta == 0.0


def test_instance_json_round_trip(tmp_path):
    instance, _ = make_small_portfolio()
    path = tmp_path / "instance.json"
    instance.to_json(path)
    loaded = PortfolioInstance.from_json(path)
    np.testing.assert_allclose(loaded.sigma, instance.sigma)
    np.testing.assert_allclose(loaded.sector_matrix, instance.sector_matrix)
    np.testing.assert_allclose(loaded.mu, instance.mu)
    assert loaded.seed == instance.seed
    # schema keys are fixed
    payload = json.loads(instance.to_json())
    assert sorted(payload) == ["A", "b", "mu", "n", "risk_tradeoff", "s",
                               "seed", "sigma_true"]


def test_instance_validation():
    with pytest.raises(ValueError):
        PortfolioInstance(n=2, s=1, sector_matrix=np.array([[1.0, 0.5]]),
                          sector_limits=np.array([0.5]), mu=np.zeros(2),
                          risk_tradeoff=0.1, sigma=np.eye(2))
    with pytest.raises(ValueError):
        PortfolioInstance(n=2, s=1, sector_matrix=np.ones((1, 2)),
                          sector_limits=np.array([0.5]), mu=np.zeros(2),
                          risk_tradeoff=0.1,
                          sigma=np.array([[1.0, 0.4], [0.1, 1.0]]))
