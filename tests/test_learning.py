import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.experiments import _certified_rate
from simalm.learning import (AdmmScsLearner, ScsProblem, SyntheticLearner,
                             admm_solve, eigh_clip, scs_admm_step, scs_init)
from simalm.linalg import symmetrize
from simalm.model import NonFiniteError


def make_scs(n=5, seed=0, upsilon=0.2, psd_floor=1e-2):
    # p = n/2 samples: rank-deficient S, so the eigenvalue floor is active
    gen = np.random.default_rng(seed)
    p = max(n // 2, 2)
    F = gen.standard_normal((n, p))
    S = F @ F.T / p
    return ScsProblem(S=S, upsilon=upsilon, psd_floor=psd_floor)


def clip_lapack(M, floor):
    """Eigenvalue floor via LAPACK, written out apart from the library's eigh_clip."""
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    out = (V * np.maximum(w, floor)) @ V.T
    return 0.5 * (out + out.T)


def projected_subgradient_scs(problem, max_iter=200_000, delta_min=1e-12):
    """Projected subgradient with adaptive Polyak-type target steps."""
    sigma = clip_lapack(problem.S, problem.psd_floor)
    f_best, sigma_best = problem.objective(sigma), sigma.copy()
    delta = 0.1 * max(f_best, 1.0)
    stalled = 0
    for _ in range(max_iter):
        g = (sigma - problem.S) + problem.upsilon * np.sign(
            sigma - np.diag(np.diag(sigma)))
        step = (problem.objective(sigma) - (f_best - delta)) / np.sum(g * g)
        sigma = clip_lapack(sigma - step * g, problem.psd_floor)
        f = problem.objective(sigma)
        if f < f_best - 0.1 * delta:
            f_best, sigma_best, stalled = f, sigma.copy(), 0
        else:
            stalled += 1
            if stalled > 50:
                delta, stalled = 0.5 * delta, 0
        if delta < delta_min:
            break
    return sigma_best, f_best


def dykstra_scs(problem, iters=5000):
    """Alternating-prox (Dykstra) solve of the same composite problem."""
    from simalm.linalg import soft_threshold_offdiag

    x = problem.S.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = soft_threshold_offdiag(x + p, problem.upsilon)
        p = x + p - y
        x_new = clip_lapack(y + q, problem.psd_floor)
        q = y + q - x_new
        if np.linalg.norm(x_new - x, "fro") < 1e-15:
            return x_new
        x = x_new
    return x


def test_synthetic_learner_exact_rate():
    theta_star = np.array([1.0, -2.0])
    theta0 = theta_star + np.array([0.6, 0.8])  # unit distance
    learner = SyntheticLearner(theta_star, theta0, tau=0.5)
    errs = [np.linalg.norm(learner.theta - theta_star)]
    for _ in range(4):
        errs.append(np.linalg.norm(learner.step() - theta_star))
    assert errs[0] == pytest.approx(1.0)
    assert errs[3] == pytest.approx(0.125)
    for k in range(4):
        assert errs[k + 1] / errs[k] == pytest.approx(0.5, abs=1e-12)


def test_synthetic_learner_already_converged():
    theta_star = np.array([2.0, 3.0])
    learner = SyntheticLearner(theta_star, theta_star, tau=0.9)
    for _ in range(3):
        np.testing.assert_allclose(learner.step(), theta_star)


def test_synthetic_learner_validates_tau():
    with pytest.raises(ValueError):
        SyntheticLearner(np.zeros(2), np.ones(2), tau=1.0)


def test_eigh_clip_floors_spectrum(rng):
    M = symmetrize(rng.standard_normal((8, 8)))
    out = eigh_clip(M, 0.5)
    w = np.linalg.eigvalsh(out)
    assert w.min() >= 0.5 - 1e-10
    np.testing.assert_allclose(out, out.T, atol=1e-12)


@st.composite
def clip_cases(draw):
    """(M, floor, Y): a symmetric M, a floor > 0 and a Y >= floor * I."""
    n = draw(st.integers(1, 12))
    A = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3)))
    B = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    floor = draw(st.floats(1e-3, 10.0))
    return symmetrize(A), floor, B @ B.T + floor * np.eye(n)


@settings(max_examples=150, deadline=None)
@given(clip_cases())
def test_eigh_clip_is_the_projection_onto_the_floored_cone(case):
    M, floor, Y = case
    scale = max(1.0, np.linalg.norm(M, 2))
    P = eigh_clip(M, floor)
    np.testing.assert_array_equal(P, P.T)
    assert np.linalg.eigvalsh(P).min() >= floor - 1e-12 * scale
    # variational inequality of the projection onto a closed convex set
    assert np.sum((M - P) * (Y - P)) <= 1e-10 * scale ** 2
    # a matrix already in the set is its own projection
    shift = floor - np.linalg.eigvalsh(M).min() + 1e-9 * scale
    feasible = M + max(shift, 0.0) * np.eye(M.shape[0])
    np.testing.assert_allclose(eigh_clip(feasible, floor), feasible,
                               rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(feasible, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_eigh_clip_rejects_non_finite(bad):
    M = np.eye(4)
    M[1, 2] = M[2, 1] = bad
    with pytest.raises(NonFiniteError, match="NaN or infinite"):
        eigh_clip(M, 0.1)


def test_scs_fixed_point_for_diagonal_feasible_s():
    # S diagonal and already feasible, upsilon irrelevant on the diagonal:
    # one sweep returns S and stays there
    S = np.diag([1.0, 2.0, 3.0])
    problem = ScsProblem(S=S, upsilon=0.4, psd_floor=0.5)
    state = scs_init(problem)
    sigma, state = scs_admm_step(problem, state)
    np.testing.assert_allclose(sigma, S, atol=1e-12)
    sigma2, state = scs_admm_step(problem, state)
    np.testing.assert_allclose(sigma2, S, atol=1e-12)
    assert state.primal_residual <= 1e-12


def test_scs_large_upsilon_kills_offdiagonals():
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    problem = ScsProblem(S=S, upsilon=50.0, psd_floor=1e-3)
    sigma, info = admm_solve(problem, tol=1e-10)
    assert abs(sigma[0, 1]) <= 1e-8


def test_scs_iterates_stay_feasible_and_symmetric():
    problem = make_scs(n=6, seed=3)
    state = scs_init(problem)
    for _ in range(15):
        sigma, state = scs_admm_step(problem, state)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-10)
        assert np.linalg.eigvalsh(sigma).min() >= problem.psd_floor - 1e-10


def test_scs_admm_matches_projected_subgradient_oracle():
    problem = make_scs(n=5, seed=1)
    sigma_admm, info = admm_solve(problem, tol=1e-10)
    assert max(info["primal_residual"], info["dual_residual"]) <= 1e-10
    _, f_sub = projected_subgradient_scs(problem)
    assert problem.objective(sigma_admm) == pytest.approx(f_sub, abs=1e-6)


def test_scs_admm_matches_dykstra_oracle():
    for seed in (0, 2, 5):
        problem = make_scs(n=6, seed=seed)
        sigma_admm, _ = admm_solve(problem, tol=1e-11)
        sigma_dyk = dykstra_scs(problem)
        np.testing.assert_allclose(sigma_admm, sigma_dyk, atol=1e-8)


def test_admm_residuals_trend_to_zero():
    problem = make_scs(n=8, seed=4)
    state = scs_init(problem)
    residuals = []
    for _ in range(120):
        _, state = scs_admm_step(problem, state)
        residuals.append(state.primal_residual)
    # monotone-trending: transient increases allowed up to 10%
    for a, b in zip(residuals, residuals[1:]):
        assert b <= 1.1 * a + 1e-12
    assert residuals[-1] < residuals[0]


def test_learner_facade_records_errors():
    problem = make_scs(n=6, seed=2)
    sigma_star, _ = admm_solve(problem, tol=1e-11)
    learner = AdmmScsLearner(problem)
    errors = [np.linalg.norm(learner.theta - sigma_star, "fro")]
    for k in range(12):
        revealed = learner.step()
        np.testing.assert_array_equal(revealed, learner.theta)
        assert learner.steps_taken == k + 1
        errors.append(np.linalg.norm(revealed - sigma_star, "fro"))
    # the history the test records certifies a linear rate in (0, 1)
    assert 0.0 < _certified_rate(errors) < 1.0


def test_scs_problem_validation():
    with pytest.raises(ValueError):
        ScsProblem(S=np.array([[1.0, 0.2], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        ScsProblem(S=np.eye(2), upsilon=0.0)


def test_scs_json_round_trip(tmp_path):
    problem = make_scs(n=4)
    path = tmp_path / "scs.json"
    problem.to_json(path)
    payload = json.loads(path.read_text())
    np.testing.assert_allclose(np.array(payload["S"]), problem.S)
    assert payload["upsilon"] == problem.upsilon
    assert payload["psd_floor"] == problem.psd_floor
    # schema keys are fixed
    assert sorted(payload) == ["S", "admm_penalty", "psd_floor", "upsilon"]


def test_start_factorisation_is_shared_read_only_and_per_problem(monkeypatch):
    import dataclasses

    from simalm import learning

    problem = make_scs(n=8, seed=4)
    first = AdmmScsLearner(problem)
    eigensolves = []
    eigh = learning.jacobi_eigh

    def counted_eigh(M):
        eigensolves.append(M)
        return eigh(M)

    def factors_of_S(prob):
        return [np.array_equal(M, prob.S) for M in eigensolves]

    monkeypatch.setattr(learning, "jacobi_eigh", counted_eigh)
    # a second learner on the same problem skips the start factorisation of
    # S: it runs only the sweep consumed at construction
    second = AdmmScsLearner(problem)
    assert factors_of_S(problem) == [False]
    copied_problem = dataclasses.replace(problem)
    copied = AdmmScsLearner(copied_problem)
    assert factors_of_S(copied_problem) == [False, True, False]
    for _ in range(5):
        theta = first.step()
        np.testing.assert_array_equal(second.step(), theta)
        np.testing.assert_array_equal(copied.step(), theta)

    Sigma0 = problem.start
    assert problem.start is Sigma0
    with pytest.raises(ValueError):
        Sigma0[0, 0] = 1.0

    raised = dataclasses.replace(problem, psd_floor=0.5)
    assert raised.start is not Sigma0
    assert np.linalg.eigvalsh(raised.start).min() >= 0.5 - 1e-10
    assert np.linalg.eigvalsh(Sigma0).min() < 0.5
