"""The traced benchmark run finds every simalm name it wraps.

bench/tracing.py wraps functions at the names their callers look up; a
renamed or removed name would break ``bench/run.py --trace 1`` without
failing any library test. These guards install the tracer and check that
every wrapper is removed again, and wrap a built problem's oracles the way
the traced run does.
"""

import importlib.util
from pathlib import Path

import numpy as np

from simalm import outer_alm
from simalm.inner_apg import ApgConfig, apg_solve, iteration_budget
from simalm.model import evaluate_f

from conftest import make_small_portfolio

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapper():
    tracing = load_tracing()
    assert tracing.leftover_wrappers() == []
    with tracing.Tracer().installed():
        assert tracing.leftover_wrappers()
    assert tracing.leftover_wrappers() == []


def test_wrapped_problem_builds_and_solves_bit_equal():
    # a change to the ParametricProblem fields must not break wrap_problem,
    # and the timed oracles must not change a single iterate
    tracing = load_tracing()
    instance, problem = make_small_portfolio()
    tracer = tracing.Tracer()
    traced = tracer.wrap_problem(problem)
    x0 = np.full(instance.n, 1.0 / instance.n)
    lam = np.full(instance.s, 0.3)
    args = (x0, lam, 2.0, instance.sigma, ApgConfig(alpha=1e-4))
    x, steps = apg_solve(problem, *args)
    x_traced, steps_traced = apg_solve(traced, *args)
    assert steps_traced == steps
    np.testing.assert_array_equal(x_traced, x)
    assert evaluate_f(traced, x, instance.sigma) == evaluate_f(problem, x, instance.sigma)
    assert tracer.calls["model.prox"] == steps
    # one projection per step's gradient; the first step's is the one taken
    # at the warm start for its gap
    assert tracer.calls["cones.project_dual"] == steps
    assert tracer.calls["model.grad"] == 1


def test_traced_solves_count_steps_and_budget():
    # the traced run reads the steps off each solve's return value and adds
    # iteration_budget for the same arguments; a changed signature of either
    # solver or of iteration_budget must fail here, not only in --trace 1
    tracing = load_tracing()
    instance, problem = make_small_portfolio()
    theta = instance.sigma
    lam = np.full(instance.s, 0.3)
    x0 = np.full(instance.n, 1.0 / instance.n)
    for alpha, certified, solve in (
            (1e-4, False, lambda: outer_alm.apg_solve(problem, x0, lam, 2.0, theta,
                                                      ApgConfig(alpha=1e-4), epoch=0)[1]),
            (1e-6, True, lambda: outer_alm.certified_solve(problem, x0, lam, 2.0, theta,
                                                           gap_tol=1e-6)[3])):
        tracer = tracing.Tracer()
        with tracer.installed():
            steps = solve()
        assert steps > 0
        assert tracer.calls["inner_apg.solve"] == 1
        assert tracer.counts["inner_apg.iters"] == steps
        assert tracer.counts["inner_apg.budget"] == iteration_budget(
            problem, 2.0, theta, alpha)
        # one inner_apg.loop span per solve, and the certified solve runs
        # its loop through fista(stop=...), where each certificate is timed
        # as an inner_apg.cert span; the budget solve has none
        assert tracer.calls["inner_apg.loop"] == 1
        assert tracer.calls["inner_apg.cert"] == (steps if certified else 0)
