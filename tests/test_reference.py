import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from simalm import reference
from simalm.reference import (ReferenceSolveError, active_set_qp,
                              portfolio_reference, simplex_qp)
from conftest import make_small_portfolio


def scipy_qp(Q, c, G, d):
    n = c.size
    cons = [{"type": "eq", "fun": lambda z: np.sum(z) - 1.0,
             "jac": lambda z: np.ones(n)}]
    if G is not None and len(G):
        cons.append({"type": "ineq", "fun": lambda z: d - G @ z,
                     "jac": lambda z: -G})
    res = minimize(lambda z: 0.5 * z @ Q @ z + c @ z, np.full(n, 1.0 / n),
                   jac=lambda z: Q @ z + c, bounds=[(0, None)] * n,
                   constraints=cons, method="SLSQP",
                   options={"maxiter": 800, "ftol": 1e-14})
    return res.x, res.fun


def test_active_set_matches_scipy(rng):
    for _ in range(15):
        n = int(rng.integers(4, 30))
        m = int(rng.integers(1, 5))
        F = rng.standard_normal((n, n))
        Q = F @ F.T / n + 0.1 * np.eye(n)
        c = rng.standard_normal(n) * 0.4
        G = (rng.random((m, n)) < 0.35).astype(float)
        G[G.sum(axis=1) == 0, 0] = 1.0
        d = rng.uniform(0.2, 0.7, m)
        if np.any(G @ np.full(n, 1.0 / n) >= d):
            continue
        out = active_set_qp(Q, c, G, d)
        _, f_scipy = scipy_qp(Q, c, G, d)
        f_as = 0.5 * out["x"] @ Q @ out["x"] + c @ out["x"]
        assert out["kkt_residual"] <= 1e-10
        assert f_as == pytest.approx(f_scipy, abs=1e-8)


def test_simplex_qp_against_brute_force(rng):
    # small enough to enumerate supports exactly
    import itertools

    for _ in range(10):
        n = 5
        F = rng.standard_normal((n, n))
        Q = F @ F.T / n + 0.2 * np.eye(n)
        c = rng.standard_normal(n) * 0.5
        x, f_val, kkt = simplex_qp(Q, c)
        assert kkt <= 1e-10
        best = np.inf
        for r in range(1, n + 1):
            for T in itertools.combinations(range(n), r):
                T = list(T)
                K = np.zeros((r + 1, r + 1))
                K[:r, :r] = Q[np.ix_(T, T)]
                K[:r, r] = 1.0
                K[r, :r] = 1.0
                rhs = np.concatenate([-c[T], [1.0]])
                try:
                    sol = np.linalg.solve(K, rhs)
                except np.linalg.LinAlgError:
                    continue
                z = np.zeros(n)
                z[T] = sol[:r]
                if np.all(z >= -1e-12):
                    best = min(best, 0.5 * z @ Q @ z + c @ z)
        assert f_val == pytest.approx(best, abs=1e-10)


def test_portfolio_reference_multiplier_sign_and_complementarity():
    instance, _ = make_small_portfolio(sector_limit=0.45)
    ref = portfolio_reference(instance)
    assert ref.kkt_residual <= 1e-9
    assert np.all(ref.lam >= 0.0)
    slack = instance.sector_limits - instance.sector_matrix @ ref.x
    assert np.all(slack >= -1e-10)
    np.testing.assert_allclose(ref.lam * slack, 0.0, atol=1e-9)
    assert abs(ref.x.sum() - 1.0) <= 1e-10


def test_portfolio_reference_unconstrained_limits():
    # generous caps never bind: multiplier is identically zero
    instance, _ = make_small_portfolio(sector_limit=5.0)
    ref = portfolio_reference(instance)
    np.testing.assert_allclose(ref.lam, 0.0, atol=1e-12)


def test_infeasible_start_rejected():
    Q = np.eye(2)
    c = np.zeros(2)
    with pytest.raises(ValueError):
        active_set_qp(Q, c, G=np.array([[1.0, 1.0]]), d=np.array([0.4]))


def _small_qp():
    gen = np.random.default_rng(5)
    F = gen.standard_normal((4, 4))
    return F @ F.T / 4 + 0.1 * np.eye(4), -np.eye(4)


def test_row_active_at_the_uniform_start():
    # x1 + x2 <= 1/2 holds with equality at the start; it enters the
    # working set only through the ratio test
    Q, cs = _small_qp()
    for c in cs:
        out = active_set_qp(Q, c, G=np.array([[1.0, 1.0, 0.0, 0.0]]), d=np.array([0.5]))
        assert out["kkt_residual"] <= 1e-12
        assert out["x"].min() >= 0.0


def test_row_parallel_to_the_simplex_row():
    # sum(x) <= 1 is parallel to sum(x) = 1: it never enters the working set,
    # so nu carries the whole multiplier and the solution is the simplex one
    Q, cs = _small_qp()
    for c in cs:
        out = active_set_qp(Q, c, G=np.ones((1, 4)), d=np.array([1.0]))
        assert out["kkt_residual"] <= 1e-12
        assert out["lam"][0] == 0.0
        np.testing.assert_array_equal(out["x"], simplex_qp(Q, c)[0])


def test_singular_step_raises_naming_the_iteration():
    with pytest.raises(ReferenceSolveError, match="singular .* at iteration 1$"):
        active_set_qp(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(reference, "CAP_PER_ROW", 0)
    with pytest.raises(ReferenceSolveError, match="no optimum within 0 iterations"):
        active_set_qp(np.eye(3), np.zeros(3))


def test_kkt_residual_above_tolerance_raises(monkeypatch):
    monkeypatch.setattr(reference, "_kkt_residual", lambda *args: 1.0)
    with pytest.raises(ReferenceSolveError, match="KKT residual 1.000e[+]00"):
        simplex_qp(np.eye(3), np.zeros(3))
    instance, _ = make_small_portfolio(sector_limit=0.45)
    with pytest.raises(ReferenceSolveError, match="KKT residual"):
        portfolio_reference(instance)
    assert issubclass(ReferenceSolveError, RuntimeError)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_active_set_meets_kkt_conditions(data):
    n = data.draw(st.integers(2, 12))
    m = data.draw(st.integers(0, 4))
    F = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    Q = F @ F.T + 0.1 * np.eye(n)
    c = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    G = data.draw(hnp.arrays(bool, (m, n))).astype(float)
    # the uniform point is strictly feasible
    d = G.sum(axis=1) / n + data.draw(hnp.arrays(np.float64, m, elements=st.floats(0.01, 0.5)))
    out = active_set_qp(Q, c, G, d)
    x, lam, nu, eta = out["x"], out["lam"], out["nu"], out["eta"]
    slack = G @ x - d
    assert np.max(np.abs(Q @ x + c + nu + G.T @ lam - eta)) <= 1e-10
    assert abs(x.sum() - 1.0) <= 1e-10
    assert x.min() >= -1e-10
    assert np.all(slack <= 1e-10)
    assert lam.min(initial=0.0) >= 0.0 and eta.min() >= 0.0
    assert np.max(np.abs(lam * slack), initial=0.0) <= 1e-10
    assert np.max(np.abs(eta * x)) <= 1e-10
