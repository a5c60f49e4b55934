import dataclasses
import logging
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.al_core import eval_L
from simalm.inner_apg import (MAX_ITERATIONS, ApgConfig, BudgetError,
                              apg_solve, certified_solve, fista, grad_nu,
                              iteration_budget, lipschitz_nu, nu_value)
from simalm.linalg import spectral_norm
from simalm.learning import FrozenLearner
from simalm.model import NonFiniteError, constraint_value, simplex_prox
from simalm.outer_alm import StopRule, alm_run, make_constant_schedule
from simalm.reference import simplex_qp
from conftest import make_small_portfolio, make_toy_problem, random_simplex_point


def test_momentum_recurrence_values():
    # m_{t+1} = (1 + sqrt(1 + 4 m_t^2)) / 2 starting at m_1 = 1
    ms = [1.0]
    for _ in range(3):
        ms.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ms[-1] ** 2)))
    assert ms[1] == pytest.approx(1.618033988749895, abs=1e-12)
    assert ms[2] == pytest.approx(2.193527085331054, abs=1e-12)
    assert ms[3] == pytest.approx(2.749791340120445, abs=1e-12)


def test_momentum_drives_fista_iterates():
    # capture the implied (m-1)/m_next coefficients from a linear problem
    seen = []

    def grad(y):
        return np.zeros(1)

    def prox(y, g, L):
        seen.append(float(y[0]))
        return y + 1.0  # z_t = t for a unit drift

    fista(grad, prox, 1.0, np.zeros(1), 3)
    # y_2 = z_1 (m_1 = 1), y_3 = z_2 + ((m_2 - 1)/m_3)(z_2 - z_1)
    coef = (1.618033988749895 - 1.0) / 2.193527085331054
    assert seen[1] == pytest.approx(1.0)
    assert seen[2] == pytest.approx(2.0 + coef)


def test_one_dimensional_clamped_quadratic():
    # minimize (1/2)(x - 3)^2 over [0, 1]: one prox step from anywhere
    def grad(y):
        return y - 3.0

    def prox(y, g, L):
        return np.clip(y - g / L, 0.0, 1.0)

    x, steps = fista(grad, prox, 1.0, np.array([0.2]), 1)
    assert steps == 1
    assert x[0] == pytest.approx(1.0)


def test_lipschitz_constant_formula(rng, toy_problem):
    theta = rng.standard_normal(2)
    A = toy_problem.constraint_matrix(theta)
    base = toy_problem.smooth_curvature(theta)[0]
    assert lipschitz_nu(toy_problem, 0.0, theta) == pytest.approx(base)
    got = lipschitz_nu(toy_problem, 2.0, theta)
    assert got == pytest.approx(base + 2.0 * np.linalg.norm(A, 2) ** 2, rel=1e-8)
    # monotone in rho
    assert got < lipschitz_nu(toy_problem, 5.0, theta)
    with pytest.raises(ValueError):
        lipschitz_nu(toy_problem, -0.1, theta)


def test_identity_constraint_matrix_curvature():
    # A = I, rho = 2, L_p = 1 -> 3
    from simalm.cones import NonnegativeOrthant
    from simalm.model import ParametricProblem, ProblemConstants

    n = 3
    problem = ParametricProblem(
        smooth_grad=lambda x, th: np.asarray(x, float),
        smooth_value_grad=lambda x, th: (0.5 * float(x @ x), np.asarray(x, float)),
        nonsmooth_value=lambda x, th: 0.0,
        prox_step=lambda y, g, L, th: simplex_prox(y, g, L),
        constraint_matrix=lambda th: np.eye(n),
        constraint_offset=lambda th: np.zeros(n),
        cone=NonnegativeOrthant(n),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (1.0, 0.0),
    )
    assert lipschitz_nu(problem, 2.0, None) == pytest.approx(3.0, rel=1e-9)


def test_portfolio_curvature_is_spectral(rng):
    instance, problem = make_small_portfolio()
    rho = 3.0
    got = lipschitz_nu(problem, rho, instance.sigma)
    want = spectral_norm(instance.sigma) + rho * spectral_norm(instance.sector_matrix) ** 2
    assert got == pytest.approx(want, rel=1e-8)


@pytest.fixture
def decompositions(monkeypatch):
    # the dense factorisations behind L and mu, as (kind, matrix shape):
    # np.linalg.eigvalsh (the portfolio's curvature oracle) and the spectral
    # norms (SVDs), counted at both module names that bind spectral_norm
    from simalm import inner_apg, model

    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(M):
        calls.append(("eigvalsh", np.shape(M)))
        return eigvalsh(M)

    def counting_norm(M):
        calls.append(("svd", np.shape(M)))
        return spectral_norm(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(inner_apg, "spectral_norm", counting_norm)
    monkeypatch.setattr(model, "spectral_norm", counting_norm)
    return calls


def _portfolio_lipschitz(theta, A, rho):
    # max |eigenvalue| widened by the max(n, 32) eps rounding margin, plus rho ||A||^2
    eig = np.linalg.eigvalsh(theta)
    top = max(-eig[0], eig[-1])
    margin = max(eig.size, 32) * np.finfo(float).eps * top
    return top + margin + rho * spectral_norm(A) ** 2


def test_lipschitz_norms_computed_once_per_theta(decompositions):
    instance, problem = make_small_portfolio()
    A = instance.sector_matrix
    theta = instance.sigma.copy()
    other = theta.copy()
    other[3, 4] = other[4, 3] = other[3, 4] + 1e-3
    fresh = _portfolio_lipschitz(theta, A, 2.0)
    want_other = _portfolio_lipschitz(other, A, 2.0)
    want_doubled = _portfolio_lipschitz(2.0 * other, A, 2.0)
    # one spectrum of theta (no SVD of it) and one norm of A per distinct theta
    once = [("eigvalsh", theta.shape), ("svd", A.shape)]
    decompositions.clear()
    assert lipschitz_nu(problem, 2.0, theta) == fresh
    assert decompositions == once
    # a bit-equal copy, and another rho, reuse the entry
    assert lipschitz_nu(problem, 2.0, theta.copy()) == fresh
    lipschitz_nu(problem, 5.0, theta)
    assert iteration_budget(problem, 2.0, theta, 1e-3) > 0
    assert decompositions == once
    # one entry off recomputes
    assert lipschitz_nu(problem, 2.0, other) == want_other
    assert decompositions == 2 * once
    # mutating the caller's array in place cannot hit the stale entry
    other *= 2.0
    assert lipschitz_nu(problem, 2.0, other) == want_doubled
    assert decompositions == 3 * once
    # dataclasses.replace starts an empty memo
    assert lipschitz_nu(dataclasses.replace(problem), 2.0, other) == want_doubled
    assert decompositions == 4 * once
    # lipschitz_nu, iteration_budget and apg_solve on one theta share one
    # decomposition, which also gives apg_solve its mu
    decompositions.clear()
    unused = dataclasses.replace(problem)
    lam, x0 = np.ones(instance.s), np.full(instance.n, 1.0 / instance.n)
    lipschitz_nu(unused, 2.0, theta)
    iteration_budget(unused, 2.0, theta, 1e-3)
    apg_solve(unused, x0, lam, 2.0, theta, ApgConfig(alpha=1e-3))
    assert decompositions == once
    # so does a run of several epochs on a frozen estimate
    decompositions.clear()
    schedule = make_constant_schedule(1e-2, 2.0, learner_known=True)
    trace = alm_run(dataclasses.replace(problem), FrozenLearner(theta), schedule,
                    x0=x0, theta_star=instance.sigma,
                    stop=StopRule(max_outer=4))
    assert len(trace) == 4
    assert decompositions == once


def test_lipschitz_memo_follows_theta_dependent_constraints(decompositions):
    # the toy problem's A depends on theta, so its norm must follow theta
    toy = make_toy_problem()
    decompositions.clear()  # lambda_min(P), taken when the toy is built
    for theta in (np.array([0.3, 1.0]), np.array([-0.7, 1.0]), np.array([0.3, 1.0])):
        A = toy.constraint_matrix(theta)
        want = toy.smooth_curvature(theta)[0] + 3.0 * spectral_norm(A) ** 2
        assert lipschitz_nu(toy, 3.0, theta) == want
        assert lipschitz_nu(toy, 3.0, theta) == want
    assert decompositions == 3 * [("svd", (2, 3))]


def test_lipschitz_memo_is_consistent_across_threads():
    # threads sharing one problem never read one theta's norms for another
    instance, problem = make_small_portfolio(n=4, s=2)
    thetas = [instance.sigma, 2.0 * instance.sigma, instance.sigma + np.eye(instance.n)]
    want = [lipschitz_nu(dataclasses.replace(problem), 3.0, t) for t in thetas]
    wrong = []

    def work(offset):
        for i in range(2000):
            j = (i + offset) % len(thetas)
            if lipschitz_nu(problem, 3.0, thetas[j]) != want[j]:
                wrong.append(j)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, (12, 12), elements=st.floats(-2.0, 2.0)),
       st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_memoized_lipschitz_bounds_gradient_differences(F, rho, seed):
    # ||grad nu(x) - grad nu(y)|| <= L ||x - y|| with L read back from the memo
    instance, problem = make_small_portfolio()
    theta = F @ F.T
    gen = np.random.default_rng(seed)
    lam = np.abs(gen.standard_normal(instance.s))
    L = lipschitz_nu(problem, rho, theta)
    assert lipschitz_nu(problem, rho, theta.copy()) == L
    for _ in range(10):
        x = random_simplex_point(gen, instance.n)
        y = random_simplex_point(gen, instance.n)
        diff = grad_nu(problem, x, lam, rho, theta) - grad_nu(problem, y, lam, rho, theta)
        assert np.linalg.norm(diff) <= L * np.linalg.norm(x - y) * (1 + 1e-10) + 1e-12


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, 2, elements=st.floats(-5.0, 5.0)),
       st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_memoized_lipschitz_bounds_toy_gradient_differences(theta, rho, seed):
    # as above, on the toy problem, whose A(theta) = A0 + theta_0 A1 moves
    # with theta, so the penalty's curvature rho ||A(theta)||^2 does too
    toy = make_toy_problem()
    gen = np.random.default_rng(seed)
    lam = np.abs(gen.standard_normal(2))
    L = lipschitz_nu(toy, rho, theta)
    assert lipschitz_nu(toy, rho, theta.copy()) == L
    for _ in range(10):
        x = random_simplex_point(gen, 3)
        y = random_simplex_point(gen, 3)
        diff = grad_nu(toy, x, lam, rho, theta) - grad_nu(toy, y, lam, rho, theta)
        assert np.linalg.norm(diff) <= L * np.linalg.norm(x - y) * (1 + 1e-10) + 1e-12


def test_grad_nu_reduces_to_objective_gradient_when_slack(rng):
    instance, problem = make_small_portfolio(sector_limit=10.0)
    x = random_simplex_point(rng, instance.n)
    g = grad_nu(problem, x, np.zeros(instance.s), 1.0, instance.sigma)
    _, gp = problem.smooth_value_grad(x, instance.sigma)
    np.testing.assert_allclose(g, gp, atol=1e-13)


def test_grad_nu_matches_finite_differences(rng, toy_problem):
    h = 1e-6
    for _ in range(10):
        theta = rng.standard_normal(2)
        x = random_simplex_point(rng, 3)
        lam = np.abs(rng.standard_normal(2))
        rho = rng.uniform(0.5, 4.0)
        g = grad_nu(toy_problem, x, lam, rho, theta)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (nu_value(toy_problem, x + e, lam, rho, theta)
                     - nu_value(toy_problem, x - e, lam, rho, theta)) / (2 * h)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-6


def test_composite_value_splits_augmented_lagrangian(rng, toy_problem):
    theta = rng.standard_normal(2)
    x = random_simplex_point(rng, 3)
    lam = np.abs(rng.standard_normal(2))
    rho = 2.5
    total = toy_problem.nonsmooth_value(x, theta) + nu_value(toy_problem, x, lam, rho, theta)
    assert total == pytest.approx(eval_L(toy_problem, x, lam, rho, theta), rel=1e-12)


def test_prox_fixed_point_at_solution():
    # minimize (1/2)||x - v||^2 over the simplex; the solution is the
    # projection of v and must be a fixed point of the prox-gradient map
    from simalm.cones import NonnegativeOrthant
    from simalm.model import ParametricProblem, ProblemConstants, project_simplex

    n = 4
    v = np.array([0.9, -0.3, 0.25, 0.4])
    problem = ParametricProblem(
        smooth_grad=lambda x, th: np.asarray(x, float) - v,
        smooth_value_grad=lambda x, th: (0.5 * float((x - v) @ (x - v)),
                                         np.asarray(x, float) - v),
        nonsmooth_value=lambda x, th: 0.0,
        prox_step=lambda y, g, L, th: simplex_prox(y, g, L),
        constraint_matrix=lambda th: np.zeros((1, n)),
        constraint_offset=lambda th: np.array([-1.0]),
        cone=NonnegativeOrthant(1),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (1.0, 0.0),
    )
    x_star = project_simplex(v)
    g = grad_nu(problem, x_star, np.zeros(1), 1.0, None)
    np.testing.assert_allclose(problem.prox_step(x_star, g, 1.0, None), x_star,
                               atol=1e-12)


def _simplex_qp_problem(Q, c):
    from simalm.cones import NonnegativeOrthant
    from simalm.model import ParametricProblem, ProblemConstants

    n = c.size
    L_Q = float(np.linalg.norm(Q, 2))
    mu_Q = float(np.linalg.eigvalsh(Q)[0])

    def vertex(g):
        out = np.zeros(n)
        out[int(np.argmin(g))] = 1.0
        return out

    return ParametricProblem(
        smooth_grad=lambda x, th: Q @ x + c,
        smooth_value_grad=lambda x, th: (0.5 * float(x @ Q @ x) + float(c @ x),
                                         Q @ x + c),
        nonsmooth_value=lambda x, th: 0.0,
        prox_step=lambda y, g, L, th: simplex_prox(y, g, L),
        constraint_matrix=lambda th: np.zeros((1, n)),
        constraint_offset=lambda th: np.array([-1.0]),  # h = -1 <= 0: inert
        cone=NonnegativeOrthant(1),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (L_Q, mu_Q),
        linear_minimizer=vertex,
    )


def test_fista_rate_against_oracle(rng):
    # random 20-d simplex-constrained QP with an exact active-set solution
    n = 20
    F = rng.standard_normal((n, n))
    Q = F @ F.T / n + 0.2 * np.eye(n)
    c = rng.standard_normal(n) * 0.5
    x_star, f_star, kkt = simplex_qp(Q, c)
    assert kkt <= 1e-9
    problem = _simplex_qp_problem(Q, c)
    L = float(np.linalg.norm(Q, 2))
    x0 = np.full(n, 1.0 / n)
    values = {}

    def track(t, z):
        if t in (5, 10, 50):
            values[t] = 0.5 * float(z @ Q @ z) + float(c @ z)

    def grad(y):
        return Q @ y + c

    fista(grad, lambda y, g, Lc: simplex_prox(y, g, Lc), L, x0, 50, callback=track)
    r2 = float((x0 - x_star) @ (x0 - x_star))
    for t in (5, 10, 50):
        assert values[t] - f_star <= 2.0 * L * r2 / (t + 1) ** 2 + 1e-12


def test_iteration_count_suffices_for_target_gap(rng):
    # running ceil(sqrt(2L/alpha) ||x0 - x*||) steps certifies gap <= alpha
    n = 15
    F = rng.standard_normal((n, n))
    Q = F @ F.T / n + 0.25 * np.eye(n)
    c = rng.standard_normal(n) * 0.4
    x_star, f_star, _ = simplex_qp(Q, c)
    L = float(np.linalg.norm(Q, 2))
    x0 = np.full(n, 1.0 / n)
    r = float(np.linalg.norm(x0 - x_star))
    for alpha in (1e-2, 1e-4, 1e-6):
        steps = math.ceil(math.sqrt(2.0 * L / alpha) * r)
        z, _ = fista(lambda y: Q @ y + c,
                     lambda y, g, Lc: simplex_prox(y, g, Lc), L, x0, steps)
        assert 0.5 * float(z @ Q @ z) + float(c @ z) - f_star <= alpha


def test_warm_budget_reaches_alpha_on_random_simplex_qps(monkeypatch):
    # Q = FF'/n + delta I is delta-strongly convex; the constraint is inert,
    # so the subproblem is the QP and the run must end within alpha of f*.
    # Across the examples both loops run: the strongly convex one (mu > 0)
    # where its linear-rate budget is shorter, FISTA's (mu = 0) elsewhere.
    # The certified solve of the same subproblem runs the same loop, with
    # the same step limit and momentum, and must also end within alpha of
    # f*, in no more steps
    from simalm import inner_apg

    loops = []  # (step limit, mu) of each fista call

    def recording_fista(grad, prox, L, x0, max_steps, mu=0.0, **kwargs):
        loops.append((max_steps, mu))
        return fista(grad, prox, L, x0, max_steps, mu=mu, **kwargs)

    monkeypatch.setattr(inner_apg, "fista", recording_fista)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.floats(0.01, 1.0), st.floats(-6.0, -1.0),
           st.integers(0, 2**32 - 1))
    @example(2, 0.01, -1.0, 0)  # ill conditioned: FISTA's budget is shorter
    @example(12, 1.0, -6.0, 0)  # well conditioned: the linear-rate budget is shorter
    def check(n, delta, log_alpha, seed):
        gen = np.random.default_rng(seed)
        F = gen.standard_normal((n, n))
        Q = F @ F.T / n + delta * np.eye(n)
        c = gen.standard_normal(n)
        _, f_star, _ = simplex_qp(Q, c)
        problem = _simplex_qp_problem(Q, c)
        alpha = 10.0 ** log_alpha
        x0 = random_simplex_point(gen, n)
        x, steps = apg_solve(problem, x0, np.zeros(1), 1.0, None, ApgConfig(alpha=alpha))
        assert 0.5 * float(x @ Q @ x) + float(c @ x) - f_star <= alpha + 1e-12
        assert steps <= iteration_budget(problem, 1.0, None, alpha)
        # the certificate only shortens the same solve
        x, _, _, early = certified_solve(problem, x0, np.zeros(1), 1.0, None,
                                         gap_tol=alpha)
        assert 0.5 * float(x @ Q @ x) + float(c @ x) - f_star <= alpha + 1e-12
        assert early <= steps
        assert loops[-1] == loops[-2] == (steps, loops[-1][1])

    check()
    moduli = [mu for _, mu in loops]
    assert 0.0 in moduli and max(moduli) > 0.0


def test_budget_solve_logs_one_debug_line(caplog, toy_problem):
    theta, lam, rho, alpha = np.array([0.1, -0.2]), np.ones(2), 2.0, 1e-3
    x0 = np.full(3, 1 / 3)
    with caplog.at_level(logging.DEBUG, logger="simalm"):
        _, steps = apg_solve(toy_problem, x0, lam, rho, theta,
                             ApgConfig(alpha=alpha), epoch=4)
    [record] = caplog.records
    assert record.name == "simalm" and record.levelno == logging.DEBUG
    message = record.getMessage()
    fields = dict(tok.split("=") for tok in message.split() if "=" in tok)
    grad = _reference_grad(toy_problem, lam, rho, theta)
    g = grad(x0)
    mu = _hessian_min_eig(toy_problem, theta, 3)
    L = lipschitz_nu(toy_problem, rho, theta)
    fista_budget, _, linear_budget = _warm_budget(grad, L, alpha, x0, mu)
    assert fields["epoch"] == "4"
    assert float(fields["L"]) == pytest.approx(L, rel=1e-5)
    assert float(fields["mu"]) == pytest.approx(mu, rel=1e-5)
    assert float(fields["gap"]) == pytest.approx(float(g @ x0 - g.min()), rel=1e-5)
    assert int(fields["a_priori_budget"]) == iteration_budget(toy_problem, rho, theta, alpha)
    # budget= comes last and is the count run, here the linear-rate one
    assert message.endswith(f" fista_budget={fista_budget} budget={steps}")
    assert steps == linear_budget < fista_budget
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="simalm"):
        apg_solve(toy_problem, x0, lam, rho, theta, ApgConfig(alpha=alpha))
    assert caplog.records == []


def test_budget_formula(toy_problem):
    theta = np.zeros(2)
    alpha = 1e-3
    L = lipschitz_nu(toy_problem, 2.0, theta)
    want = math.ceil(math.sqrt(2.0 * L / alpha) * toy_problem.constants.D_x)
    assert iteration_budget(toy_problem, 2.0, theta, alpha) == want


def _hessian_min_eig(problem, theta, n):
    # p is quadratic: the columns of its Hessian are gradient differences
    zero = problem.smooth_grad(np.zeros(n), theta)
    H = np.column_stack([problem.smooth_grad(e, theta) - zero for e in np.eye(n)])
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])


def _warm_budget(grad, L, alpha, x0, mu):
    # (T, R, T_sc): FISTA's T = ceil(sqrt(2L/alpha) R), R = min(D_x = 1,
    # sqrt(2 gap / mu)), gap the vertex certificate <g, x0> - min_i g_i at
    # the warm start, and T_sc the fewest steps of the strongly convex loop
    # with (1 - sqrt(mu/L))^T_sc 2 gap <= alpha, counted one by one
    g = grad(x0)
    gap = max(float(g @ x0) - float(g.min()), 0.0)
    radius = min(1.0, math.sqrt(2.0 * gap / mu))
    linear = 1
    while (1.0 - math.sqrt(mu / L)) ** linear * 2.0 * gap > alpha:
        linear += 1
    return max(1, math.ceil(math.sqrt(2.0 * L / alpha) * radius)), radius, linear


def test_budget_mode_runs_exact_budget(rng, toy_problem):
    theta = np.array([0.1, -0.2])
    lam, rho, alpha = np.zeros(2), 1.0, 1e-2
    x0 = np.full(3, 1 / 3)
    grad = _reference_grad(toy_problem, lam, rho, theta)
    L = lipschitz_nu(toy_problem, rho, theta)
    fista_budget, radius, want = _warm_budget(
        grad, L, alpha, x0, _hessian_min_eig(toy_problem, theta, 3))
    assert radius < 1.0
    x, steps = apg_solve(toy_problem, x0, lam, rho, theta, ApgConfig(alpha=alpha))
    assert steps == want < fista_budget < iteration_budget(toy_problem, rho, theta, alpha)
    assert toy_problem.membership(x)
    # without a convexity modulus (mu = 0) or a certificate the a-priori
    # budget runs
    L_p = toy_problem.smooth_curvature(theta)[0]
    for fallback in ({"linear_minimizer": None},
                     {"smooth_curvature": lambda th: (L_p, 0.0)}):
        plain = dataclasses.replace(toy_problem, **fallback)
        _, steps = apg_solve(plain, x0, lam, rho, theta, ApgConfig(alpha=alpha))
        assert steps == iteration_budget(toy_problem, rho, theta, alpha)


def test_budget_cap_error_names_epoch(toy_problem):
    # with mu = 0 only FISTA's budget is available, and it exceeds the cap;
    # the certified solve runs the same budget, so it fails the same way
    # before taking a step
    L_p = toy_problem.smooth_curvature(np.zeros(2))[0]
    plain = dataclasses.replace(toy_problem, smooth_curvature=lambda th: (L_p, 0.0))
    args = (np.full(3, 1 / 3), np.zeros(2), 50.0, np.zeros(2))
    assert iteration_budget(plain, 50.0, np.zeros(2), 1e-12) > MAX_ITERATIONS
    with pytest.raises(BudgetError, match="epoch 7"):
        apg_solve(plain, *args, ApgConfig(alpha=1e-12), epoch=7)
    with pytest.raises(BudgetError, match="epoch 7"):
        certified_solve(plain, *args, gap_tol=1e-12, epoch=7)


def test_non_finite_warm_start_gradient_raises_naming_epoch():
    # a NaN gradient at the warm start makes the gap NaN; unchecked,
    # min(D_x, NaN) picks D_x and FISTA's budget runs silently to a finite x
    # (146 steps here, against 35 from a finite gradient), so both stopping
    # rules must refuse it before the first step
    instance, problem = make_small_portfolio(n=10, s=2, seed=8)
    calls = []

    def nan_on_first_call(x, theta):
        calls.append(1)
        grad = problem.smooth_grad(x, theta)
        return np.full_like(grad, np.nan) if len(calls) == 1 else grad

    bad = dataclasses.replace(problem, smooth_grad=nan_on_first_call)
    args = (np.full(instance.n, 0.1), np.zeros(instance.s), 1.0, instance.sigma)
    message = "non-finite gradient at the warm start at epoch 3$"
    for solve in (lambda: apg_solve(bad, *args, ApgConfig(alpha=1e-3), epoch=3),
                  lambda: certified_solve(bad, *args, gap_tol=1e-3, epoch=3)):
        calls.clear()
        with pytest.raises(NonFiniteError, match=message):
            solve()
        assert len(calls) == 1


def test_short_linear_budget_is_not_refused(toy_problem):
    # the cap applies to the budget run: FISTA's exceeds it, the linear-rate
    # one of the same solve does not
    theta, lam, rho, alpha = np.zeros(2), np.zeros(2), 50.0, 1e-12
    x0 = np.full(3, 1 / 3)
    grad = _reference_grad(toy_problem, lam, rho, theta)
    L = lipschitz_nu(toy_problem, rho, theta)
    fista_budget, _, linear = _warm_budget(grad, L, alpha, x0,
                                           _hessian_min_eig(toy_problem, theta, 3))
    assert linear < MAX_ITERATIONS < fista_budget
    x, steps = apg_solve(toy_problem, x0, lam, rho, theta, ApgConfig(alpha=alpha),
                         epoch=7)
    assert steps == linear
    assert toy_problem.membership(x)


@pytest.mark.parametrize("mu", [-1e-9, 2.0 * (1.0 + 1e-12), math.nan, math.inf])
def test_fista_rejects_modulus_outside_zero_to_L(mu):
    # a modulus above L would make the momentum negative
    with pytest.raises(ValueError, match="mu must lie in"):
        fista(lambda y: y, lambda y, g, L: y - g / L, 2.0, np.zeros(2), 3, mu=mu)
    fista(lambda y: y, lambda y, g, L: y - g / L, 2.0, np.zeros(2), 3, mu=2.0)


def test_zero_modulus_runs_the_fista_sequence_bit_for_bit(rng):
    # mu = 0 (the default) runs the FISTA momentum sequence: every iterate
    # equals that of the loop written out in the test
    instance, problem = make_small_portfolio(sector_limit=0.35)
    lam = np.abs(rng.standard_normal(instance.s))
    grad = _reference_grad(problem, lam, 4.0, instance.sigma)
    L = lipschitz_nu(problem, 4.0, instance.sigma)

    def prox(y, g, Lc):
        return simplex_prox(y, g, Lc)

    x0 = np.full(instance.n, 1.0 / instance.n)
    want = _reference_loop(grad, prox, L, x0, 0.0, steps=40)
    for kwargs in ({}, {"mu": 0.0}):
        seen = []
        z, steps = fista(grad, prox, L, x0, 40,
                         callback=lambda t, z: seen.append(z), **kwargs)
        assert steps == 40 and np.array_equal(z, want[-1])
        assert all(np.array_equal(a, b) for a, b in zip(seen, want, strict=True))
    # so does a budget solve of a problem without a modulus
    L_p = problem.smooth_curvature(instance.sigma)[0]
    plain = dataclasses.replace(problem, smooth_curvature=lambda th: (L_p, 0.0))
    x, steps = apg_solve(plain, x0, lam, 4.0, instance.sigma, ApgConfig(alpha=1e-1))
    assert steps == iteration_budget(plain, 4.0, instance.sigma, 1e-1)
    assert np.array_equal(x, _reference_loop(grad, prox, L, x0, 0.0, steps=steps)[-1])


def test_certified_solve_gap_certificate(rng):
    n = 10
    F = rng.standard_normal((n, n))
    Q = F @ F.T / n + 0.3 * np.eye(n)
    c = rng.standard_normal(n) * 0.3
    problem = _simplex_qp_problem(Q, c)
    _, f_star, _ = simplex_qp(Q, c)
    x, value, cert, steps = certified_solve(problem, np.full(n, 1.0 / n),
                                            np.zeros(1), 1.0, None,
                                            gap_tol=1e-9)
    # certificate is sound: true gap is below it
    shift = value - (0.5 * float(x @ Q @ x) + float(c @ x))
    assert (value - shift) - f_star <= cert + 1e-12


def test_step_certificate_bounds_the_gap_at_every_step():
    # every step z = prox(y) of a certified solve is certified by its own
    # gradient mapping: cert >= F(z) - F*, also where the momentum point y
    # has left the simplex. A certified solve started at y with an infinite
    # tolerance takes that one step and returns (z, F(z), cert, 1).
    instance, portfolio = make_small_portfolio(n=6, s=2)
    toy = make_toy_problem()
    outside = []

    @settings(max_examples=30, deadline=None)
    @given(st.booleans(), st.floats(0.05, 1.0), st.floats(0.0, 3.0),
           st.floats(0.1, 30.0), st.integers(0, 2**32 - 1))
    def check(on_portfolio, delta, lam_scale, rho, seed):
        gen = np.random.default_rng(seed)
        if on_portfolio:
            problem, n, m = portfolio, instance.n, instance.s
            F = gen.standard_normal((n, n))
            theta = F @ F.T / n + delta * np.eye(n)
        else:
            problem, n, m, theta = toy, 3, 2, gen.uniform(-3.0, 3.0, 2)
        lam = lam_scale * np.abs(gen.standard_normal(m))
        x0 = random_simplex_point(gen, n)
        _, f_ref, _, _ = certified_solve(problem, x0, lam, rho, theta, gap_tol=1e-12)
        points = []

        def prox_step(y, g, L, th):
            points.append(y)
            return problem.prox_step(y, g, L, th)

        recording = dataclasses.replace(problem, prox_step=prox_step)
        _, _, _, steps = certified_solve(recording, x0, lam, rho, theta, gap_tol=1e-7)
        assert len(points) == steps
        for y in points:
            _, f_z, cert, one = certified_solve(problem, y, lam, rho, theta,
                                                gap_tol=math.inf)
            assert one == 1
            assert cert >= f_z - f_ref - 1e-12
        outside.append(sum(1 for y in points if y.min() < 0.0))

    check()
    assert sum(outside) > 0


def test_certified_step_evaluates_one_gradient(toy_problem):
    # one smooth_grad per step under both stopping rules: the first step
    # reuses the warm-start gradient of the gap, and the certificate reuses
    # the step's gradient
    instance, portfolio = make_small_portfolio()
    calls = []
    for problem, theta, lam, x0 in (
            (portfolio, instance.sigma, np.full(instance.s, 0.3),
             np.full(instance.n, 1.0 / instance.n)),
            (toy_problem, np.array([0.7, -0.4]), np.ones(2), np.full(3, 1.0 / 3))):
        def counting(x, th, grad=problem.smooth_grad):
            calls.append(1)
            return grad(x, th)

        counted = dataclasses.replace(problem, smooth_grad=counting)
        for solve in (
                lambda: certified_solve(counted, x0, lam, 2.0, theta, gap_tol=1e-7)[3],
                lambda: apg_solve(counted, x0, lam, 2.0, theta, ApgConfig(alpha=1e-7))[1]):
            calls.clear()
            steps = solve()
            assert steps > 1
            assert len(calls) == steps


def test_iterates_stay_in_domain(rng, toy_problem):
    seen = []

    theta = np.array([0.2, 0.1])
    config = ApgConfig(alpha=1e-3)
    x, _ = apg_solve(toy_problem, np.full(3, 1 / 3), np.ones(2), 2.0, theta,
                        config)
    assert toy_problem.membership(x)


def test_config_validation():
    with pytest.raises(ValueError):
        ApgConfig(alpha=0.0)


def _reference_grad(problem, lam, rho, theta):
    # gradient of nu_rho written from the public oracles, re-fetched per call
    def grad(y):
        A = np.asarray(problem.constraint_matrix(theta), dtype=float)
        h = constraint_value(problem, y, theta)
        _, gp = problem.smooth_value_grad(y, theta)
        return gp + rho * (A.T @ problem.cone.project_dual(h + lam / rho))

    return grad


def _pinning_cases(rng):
    instance, portfolio = make_small_portfolio(sector_limit=0.35)
    toy = make_toy_problem()
    lam = np.abs(rng.standard_normal(instance.s))
    uniform = np.full(instance.n, 1.0 / instance.n)
    # a warm start 60 plain FISTA steps in, where sqrt(2 gap / mu) < D_x
    warm, _ = fista(_reference_grad(portfolio, lam, 4.0, instance.sigma),
                    lambda y, g, Lc: simplex_prox(y, g, Lc),
                    lipschitz_nu(portfolio, 4.0, instance.sigma), uniform, 60)
    # a modulus so small that sqrt(2 gap / mu) > D_x and FISTA's budget runs
    # at alpha = 1e-4 (the linear-rate one at 1e-7), and one smaller still,
    # where FISTA's budget is the shorter at 1e-7 too
    L_P = toy.smooth_curvature(None)[0]
    flat = dataclasses.replace(toy, smooth_curvature=lambda th: (L_P, 1e-4))
    flatter = dataclasses.replace(toy, smooth_curvature=lambda th: (L_P, 1e-6))
    return [
        (portfolio, instance.sigma, lam, 4.0, uniform),
        (portfolio, instance.sigma, lam, 4.0, warm),
        (toy, np.array([0.7, -0.4]), np.abs(rng.standard_normal(2)), 3.0,
         np.full(3, 1.0 / 3)),
        (flat, np.array([0.7, -0.4]), np.abs(rng.standard_normal(2)), 3.0,
         np.full(3, 1.0 / 3)),
        (flatter, np.array([0.7, -0.4]), np.abs(rng.standard_normal(2)), 3.0,
         np.full(3, 1.0 / 3)),
    ]


def _reference_loop(grad, prox, L, x0, mu, steps, gap_tol=None):
    # plain accelerated loop of at most `steps` steps, returning every
    # iterate z_1, z_2, ...: the momentum is (m_t - 1) / m_{t+1} with m_1 =
    # 1, m_{t+1} = (1 + sqrt(1 + 4 m_t^2)) / 2 for mu = 0, and (sqrt(L/mu) -
    # 1) / (sqrt(L/mu) + 1) for mu > 0. With gap_tol it stops earlier, at the
    # first step z = prox(y) whose gradient-mapping bound max_{x in X} L
    # <y - z, y - x> - (L/2) ||y - z||^2 on F(z) - F* is at most gap_tol;
    # over the simplex the max of <e, y - x> is <e, y> - min_i e_i
    iterates = []
    z, y, m = x0, x0, 1.0
    for _ in range(steps):
        z_new = prox(y, grad(y), L)
        iterates.append(z_new)
        e = y - z_new
        if gap_tol is not None and (
                L * (float(e @ y) - float(e.min()) - 0.5 * float(e @ e)) <= gap_tol):
            return iterates
        if mu > 0.0:
            coef = (math.sqrt(L / mu) - 1.0) / (math.sqrt(L / mu) + 1.0)
        else:
            m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * m * m))
            coef, m = (m - 1.0) / m_next, m_next
        y = z_new + coef * (z_new - z)
        z = z_new
    return iterates


def test_solvers_match_reference_loop_bit_for_bit(rng):
    # both stopping rules must produce exactly the iterates of the loop
    # written out in the test, driven by the independently written gradient
    # and the oracle's mu. Both run the shorter of FISTA's warm-start count
    # and the strongly convex count for their alpha, computed from the gap,
    # with the momentum of that count (the strongly convex loop runs only
    # when its count is shorter); the certified rule stops earlier, at the
    # first step whose gradient-mapping certificate is at most its alpha
    radii, linear, certified_linear = [], [], []
    for problem, theta, lam, rho, x0 in _pinning_cases(rng):
        grad = _reference_grad(problem, lam, rho, theta)
        L = lipschitz_nu(problem, rho, theta)
        mu = problem.smooth_curvature(theta)[1]

        def prox(y, g, Lc):
            return problem.prox_step(y, g, Lc, theta)

        alpha = 1e-4
        fista_budget, radius, linear_budget = _warm_budget(grad, L, alpha, x0, mu)
        radii.append(radius)
        linear.append(linear_budget < fista_budget)
        budget = min(fista_budget, linear_budget)
        want = _reference_loop(grad, prox, L, x0, mu if linear[-1] else 0.0,
                               steps=budget)
        got, steps = apg_solve(problem, x0, lam, rho, theta, ApgConfig(alpha=alpha))
        assert steps == len(want) == budget
        assert np.array_equal(got, want[-1])

        gap_tol = 1e-7
        fista_budget, _, linear_budget = _warm_budget(grad, L, gap_tol, x0, mu)
        certified_linear.append(linear_budget < fista_budget)
        budget = min(fista_budget, linear_budget)
        want = _reference_loop(grad, prox, L, x0, mu if certified_linear[-1] else 0.0,
                               steps=budget, gap_tol=gap_tol)
        got, _, _, steps = certified_solve(problem, x0, lam, rho, theta, gap_tol=gap_tol)
        assert steps == len(want) <= budget
        assert np.array_equal(got, want[-1])

        x = random_simplex_point(rng, x0.size)
        assert np.array_equal(grad_nu(problem, x, lam, rho, theta), grad(x))
    assert radii[0] == 1.0 and radii[1] < 0.1
    assert linear == [True, True, True, False, False]
    assert certified_linear == [True, True, True, True, False]


def test_inconsistent_constraint_shapes_raise(toy_problem):
    bad = dataclasses.replace(toy_problem, constraint_offset=lambda th: np.zeros(3))
    x0, lam, theta = np.full(3, 1 / 3), np.zeros(2), np.zeros(2)
    with pytest.raises(ValueError, match="inconsistent"):
        apg_solve(bad, x0, lam, 1.0, theta, ApgConfig(alpha=1e-2))
    with pytest.raises(ValueError, match="inconsistent"):
        certified_solve(bad, x0, lam, 1.0, theta, gap_tol=1e-6)
    with pytest.raises(ValueError, match="inconsistent"):
        grad_nu(bad, x0, lam, 1.0, theta)
