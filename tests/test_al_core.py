import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.al_core import dual_update, eval_L, grad_lambda_L
from simalm.inner_apg import certified_solve
from simalm.model import constraint_value, evaluate_f, infeasibility
from conftest import (ALL_CONES, cone_member, make_small_portfolio,
                      make_toy_problem, random_simplex_point)


def test_value_reduces_to_objective_when_feasible(rng):
    instance, problem = make_small_portfolio(sector_limit=10.0)
    x = random_simplex_point(rng, instance.n)
    lam = np.zeros(instance.s)
    val = eval_L(problem, x, lam, 2.0, instance.sigma)
    assert val == pytest.approx(evaluate_f(problem, x, instance.sigma))


def test_value_zero_multiplier_penalty_form(rng):
    instance, problem = make_small_portfolio(sector_limit=0.01)
    x = random_simplex_point(rng, instance.n)
    rho = 3.0
    val = eval_L(problem, x, np.zeros(instance.s), rho, instance.sigma)
    want = evaluate_f(problem, x, instance.sigma) \
        + 0.5 * rho * infeasibility(problem, x, instance.sigma) ** 2
    assert val == pytest.approx(want)


def test_value_matches_brute_force_inner_minimization(rng, toy_problem):
    # definitional oracle: L = min_{z in K} f + lam'(h + z) + (rho/2)||h+z||^2
    # over a fine grid of the m=2 orthant
    theta = np.array([0.3, -0.2])
    x = random_simplex_point(rng, 3)
    lam = np.abs(rng.standard_normal(2))
    rho = 1.7
    h = constraint_value(toy_problem, x, theta)
    f = evaluate_f(toy_problem, x, theta)
    grid = np.linspace(0.0, 6.0, 1201)
    z0, z1 = np.meshgrid(grid, grid, indexing="ij")
    vals = (f + lam[0] * (h[0] + z0) + lam[1] * (h[1] + z1)
            + 0.5 * rho * ((h[0] + z0) ** 2 + (h[1] + z1) ** 2))
    brute = vals.min()
    assert eval_L(toy_problem, x, lam, rho, theta) == pytest.approx(brute, abs=1e-4)


def test_gradient_trivial_cases():
    instance, problem = make_small_portfolio(n=6, s=2, sector_limit=10.0)
    x = np.full(6, 1.0 / 6)
    # strictly feasible, zero multiplier: gradient vanishes
    g = grad_lambda_L(problem, x, np.zeros(2), 1.0, instance.sigma)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_gradient_positive_part_example(rng, toy_problem):
    # orthant cone, lam = 0: gradient is the positive part of h
    theta = rng.standard_normal(2)
    x = random_simplex_point(rng, 3)
    h = constraint_value(toy_problem, x, theta)
    g = grad_lambda_L(toy_problem, x, np.zeros(2), 2.0, theta)
    np.testing.assert_allclose(g, np.maximum(h, 0.0), atol=1e-14)


def test_gradient_two_closed_forms_agree(rng, toy_problem):
    for _ in range(20):
        theta = rng.standard_normal(2)
        x = random_simplex_point(rng, 3)
        lam = np.abs(rng.standard_normal(2)) * 2.0
        rho = rng.uniform(0.2, 5.0)
        h = constraint_value(toy_problem, x, theta)
        g1 = grad_lambda_L(toy_problem, x, lam, rho, theta)
        g2 = h - toy_problem.cone.project_neg(lam / rho + h)
        np.testing.assert_allclose(g1, g2, atol=1e-10)


def test_gradient_matches_finite_differences(rng, toy_problem):
    h_step = 1e-6
    for _ in range(10):
        theta = rng.standard_normal(2)
        x = random_simplex_point(rng, 3)
        lam = np.abs(rng.standard_normal(2)) * 1.5 + 0.1
        rho = rng.uniform(0.5, 4.0)
        g = grad_lambda_L(toy_problem, x, lam, rho, theta)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h_step
            fd[i] = (eval_L(toy_problem, x, lam + e, rho, theta)
                     - eval_L(toy_problem, x, lam - e, rho, theta)) / (2 * h_step)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-3) < 1e-6


def test_dual_update_examples(rng, toy_problem):
    instance, problem = make_small_portfolio(sector_limit=10.0)
    x = random_simplex_point(rng, instance.n)
    # feasible point, zero multiplier stays zero
    lam = dual_update(problem, np.zeros(instance.s), 2.0, x, instance.sigma)
    np.testing.assert_allclose(lam, 0.0, atol=1e-14)


def test_dual_update_orthant_arithmetic(toy_problem):
    # lam = [1, 0], rho = 2, h = [1, -3]: clamp(lam + rho h) = [3, 0]
    lam = np.array([1.0, 0.0])
    rho = 2.0
    h = np.array([1.0, -3.0])
    updated = toy_problem.cone.project_dual(lam + rho * h)
    np.testing.assert_allclose(updated, [3.0, 0.0])


def test_dual_update_equals_gradient_step(rng, toy_problem):
    for _ in range(20):
        theta = rng.standard_normal(2)
        x = random_simplex_point(rng, 3)
        lam = np.abs(rng.standard_normal(2))
        rho = rng.uniform(0.2, 4.0)
        new = dual_update(toy_problem, lam, rho, x, theta)
        step = lam + rho * grad_lambda_L(toy_problem, x, lam, rho, theta)
        np.testing.assert_allclose(new, step, atol=1e-10)
        # stays in the dual cone
        assert np.all(new >= 0.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dual_update_stays_in_dual_cone(data):
    # lam + rho h(x; theta) projected onto K*, for every cone and any lam,
    # rho and h: the multiplier lands in K*
    cone = data.draw(st.sampled_from(ALL_CONES), label="cone")
    vector = hnp.arrays(np.float64, cone.dim, elements=st.floats(-1e3, 1e3))
    lam, b = data.draw(vector, label="lam"), data.draw(vector, label="b")
    rho = data.draw(st.floats(1e-3, 1e3), label="rho")
    A = data.draw(hnp.arrays(np.float64, (cone.dim, 3),
                             elements=st.floats(-10.0, 10.0)), label="A")
    problem = dataclasses.replace(make_toy_problem(m=cone.dim), cone=cone,
                                  constraint_matrix=lambda th: A,
                                  constraint_offset=lambda th: b)
    x = random_simplex_point(np.random.default_rng(data.draw(
        st.integers(0, 2**32 - 1), label="seed")), 3)
    theta = np.zeros(2)
    new = dual_update(problem, lam, rho, x, theta)
    step = lam + rho * constraint_value(problem, x, theta)
    assert cone_member(cone, new, 1e-12 * (1.0 + float(np.linalg.norm(step))),
                       dual=True)


def test_value_upper_bounds_dual_function(rng, toy_problem):
    # L(x, lam) >= g(lam) for every x; proxy g by a certified solve
    theta = np.array([0.1, 0.4])
    lam = np.array([0.3, 0.8])
    rho = 2.0
    _, value, cert, _ = certified_solve(toy_problem, np.full(3, 1 / 3), lam, rho,
                                        theta, gap_tol=1e-10)
    g_lower = value - cert
    for _ in range(20):
        x = random_simplex_point(rng, 3)
        assert eval_L(toy_problem, x, lam, rho, theta) >= g_lower - 1e-12


def test_dual_gradient_lipschitz_in_multiplier(rng, toy_problem):
    # ||grad g(l1) - grad g(l2)|| <= ||l1 - l2|| / rho, checked through
    # certified inner solves with their inexactness slack added
    theta = np.array([-0.2, 0.3])
    rho = 1.5
    alpha = 1e-10
    slack = 2.0 * np.sqrt(2.0 * alpha / rho)
    x0 = np.full(3, 1 / 3)
    for _ in range(10):
        l1 = np.abs(rng.standard_normal(2)) * 2.0
        l2 = np.abs(rng.standard_normal(2)) * 2.0
        x1, _, _, _ = certified_solve(toy_problem, x0, l1, rho, theta, gap_tol=alpha)
        x2, _, _, _ = certified_solve(toy_problem, x0, l2, rho, theta, gap_tol=alpha)
        g1 = grad_lambda_L(toy_problem, x1, l1, rho, theta)
        g2 = grad_lambda_L(toy_problem, x2, l2, rho, theta)
        assert np.linalg.norm(g1 - g2) <= np.linalg.norm(l1 - l2) / rho + slack + 1e-9


def test_rejects_nonpositive_rho(rng, toy_problem):
    x = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        eval_L(toy_problem, x, np.zeros(2), 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        grad_lambda_L(toy_problem, x, np.zeros(2), -1.0, np.zeros(2))
