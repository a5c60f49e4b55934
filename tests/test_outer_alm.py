import csv
import logging
import math
import re

import numpy as np
import pytest

from simalm.bounds import BoundInputs, bound_curves, bound_report
from simalm.cones import NonnegativeOrthant
from simalm.inner_apg import certified_solve
from simalm.learning import FrozenLearner, SyntheticLearner
from simalm.linalg import spectral_norm
from simalm.model import (ParametricProblem, ProblemConstants, evaluate_f,
                          infeasibility, project_simplex)
from simalm.outer_alm import (NonFiniteError, Schedule, ScheduleError,
                              StopRule, alm_run, make_constant_schedule,
                              make_increasing_schedule, sequential_baseline,
                              write_csv, TRACE_COLUMNS)
from simalm.reference import ReferenceSolution, portfolio_reference
from conftest import make_small_portfolio


def tiny_capped_qp():
    """n=2 simplex QP with one binding cap; solved by hand.

    minimize 0.5||x||^2 - x_1 over {x >= 0, x_1 + x_2 = 1, x_1 <= 0.3}.
    KKT: x* = (0.3, 0.7), sector multiplier 1.4, f* = -0.01.
    """
    n = 2
    A = np.array([[1.0, 0.0]])
    b = np.array([0.3])

    def grad(x, theta):
        return np.asarray(x, float) - np.array([1.0, 0.0])

    def svg(x, theta):
        x = np.asarray(x, float)
        return 0.5 * float(x @ x) - float(x[0]), grad(x, theta)

    problem = ParametricProblem(
        smooth_value_grad=svg,
        prox_step=project_simplex,
        constraint_matrix=lambda th: A,
        constraint_offset=lambda th: -b,
        cone=NonnegativeOrthant(1),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (1.0, 0.0),
        membership=lambda x: bool(np.all(np.asarray(x) >= -1e-9)
                                  and abs(float(np.sum(x)) - 1.0) <= 1e-9),
        linear_min=lambda g: float(g.min()),
    )
    reference = ReferenceSolution(x=np.array([0.3, 0.7]), lam=np.array([1.4]),
                                  f_value=-0.01, kkt_residual=0.0)
    return problem, reference


def test_constant_schedule_known_case():
    schedule = make_constant_schedule(0.01, 1.0, learner_known=True)
    assert schedule.rho(0) == pytest.approx(100.0)
    assert not schedule.is_geometric


def test_constant_schedule_learning_case():
    schedule = make_constant_schedule(0.01, 1.0, learner_known=False)
    assert schedule.rho(5) == pytest.approx(1.0)


def test_constant_schedule_alpha0_value():
    # rho = 1, c = 1: sqrt(alpha0) * zeta(2) = 1/sqrt(2)
    schedule = make_constant_schedule(0.5, 0.5, learner_known=True, c=1.0)
    want = 1.0 / (2.0 * (np.pi ** 2 / 6.0) ** 2)
    assert schedule.alpha0 == pytest.approx(want, rel=1e-10)


def test_constant_schedule_alpha0_condition():
    # independent partial sum with integral-test tail
    for rho_o, eps, c in [(1.0, 0.01, 1.0), (2.0, 0.1, 1e-3), (0.7, 0.3, 0.4)]:
        schedule = make_constant_schedule(eps, rho_o, True, c=c)
        rho = schedule.rho(0)
        k = np.arange(1, 2_000_000, dtype=float)
        head = np.sum(k ** -(1.0 + c))
        K = 2_000_000.0
        tail = K ** (-c) / c + 0.5 * K ** -(1.0 + c)
        series = head + tail
        assert abs(math.sqrt(schedule.alpha0) * series - 1.0 / math.sqrt(2.0 * rho)) <= 1e-10


def test_constant_schedule_validates_epsilon():
    with pytest.raises(ScheduleError):
        make_constant_schedule(1.5, 1.0, True)
    with pytest.raises(ScheduleError):
        make_constant_schedule(0.1, -1.0, True)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"),
                               0.0, -0.5])
def test_constant_schedule_refuses_a_bad_exponent(c):
    # a c that is not finite and positive is refused by name, before the
    # series sum(k^-(1+c)) is taken
    with pytest.raises(ScheduleError, match="c must be finite and positive"):
        make_constant_schedule(0.1, 1.0, True, c=c)


@pytest.mark.parametrize("rho_o", [float("nan"), float("inf"), -float("inf"),
                                   0.0, -1.0])
@pytest.mark.parametrize("known", [True, False])
def test_constant_schedule_refuses_a_bad_penalty(rho_o, known):
    # a rho_o that is not finite and positive is refused by its own name,
    # not as the Schedule's derived rho0
    with pytest.raises(ScheduleError, match="rho_o must be finite and positive"):
        make_constant_schedule(0.1, rho_o, known)


def test_increasing_schedule_accepts_compatible_rate():
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.91)
    assert schedule.is_geometric
    assert schedule.rho(10) == pytest.approx(1.05 ** 10)
    assert schedule.rho(10) == pytest.approx(1.6289, abs=5e-5)
    # alpha decays with the extra geometric factor
    assert schedule.alpha(3) == pytest.approx(1.0 / (4.0 ** (2 * 1.001) * 1.05 ** 3))


def test_increasing_schedule_rejects_fast_growth():
    with pytest.raises(ScheduleError, match="beta \\* tau"):
        make_increasing_schedule(1.0, 1.2, 1.0, 1e-3, 0.91)
    with pytest.raises(ScheduleError):
        make_increasing_schedule(1.0, 1.0, 1.0, 1e-3, 0.5)
    with pytest.raises(ScheduleError):
        make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 1.0)


@pytest.mark.parametrize("max_outer", [2.5, 3.0, True, "3", None])
def test_stop_rule_refuses_a_non_integer_epoch_cap(max_outer):
    StopRule(max_outer=np.int64(3))
    with pytest.raises(ScheduleError, match="max_outer must be an integer"):
        StopRule(max_outer=max_outer)


@pytest.mark.parametrize("epsilon", [True, math.inf, math.nan, 0.0, -0.1])
def test_stop_rule_refuses_a_non_positive_or_non_finite_epsilon(epsilon):
    # epsilon = inf stopped every run after its first epoch, and True read as 1.0
    StopRule(max_outer=3, epsilon=np.float64(0.1))
    with pytest.raises(ScheduleError, match="epsilon must be positive and finite"):
        StopRule(max_outer=3, epsilon=epsilon)


def test_seq_vs_sim_refuses_a_non_integer_epoch_cap():
    from simalm.experiments import ExperimentConfig, prepare_bundle, run_seq_vs_sim

    config = ExperimentConfig(n=30, s=5, seed=3)
    with pytest.raises(ScheduleError, match="max_outer must be an integer"):
        run_seq_vs_sim(config, prepare_bundle(config), max_outer=2.5)


@pytest.mark.parametrize("field, value, match", [
    ("tau", 5.0, "tau = 5 must lie in \\(0, 1\\)"),
    ("tau", 1.0, "tau = 1 must lie in \\(0, 1\\)"),
    ("tau", 0.0, "tau = 0 must lie in \\(0, 1\\)"),
    ("tau", float("nan"), "tau must be finite"),
    ("rho0", float("nan"), "rho0 must be finite"),
    ("alpha0", float("nan"), "alpha0 must be finite"),
    ("c", float("inf"), "c must be finite"),
    ("beta", float("nan"), "beta must be finite"),
    ("beta", float("inf"), "beta must be finite"),
])
@pytest.mark.parametrize("beta", [1.0, 1.05])
def test_schedule_rejects_invalid_fields(field, value, match, beta):
    # at either regime; a NaN beta would otherwise read as the constant one
    fields = {"rho0": 1.0, "alpha0": 1.0, "c": 1.0, "beta": beta, "tau": 0.5}
    Schedule(**fields)
    with pytest.raises(ScheduleError, match=match):
        Schedule(**{**fields, field: value})


def test_run_tiny_qp_reaches_kkt_solution():
    problem, reference = tiny_capped_qp()
    theta = np.zeros(1)
    learner = SyntheticLearner(theta, theta, 0.5)
    schedule = make_constant_schedule(1e-4, 10.0, learner_known=True)
    trace = alm_run(problem, learner, schedule,
                    x0=np.array([0.5, 0.5]), theta_star=theta,
                    stop=StopRule(max_outer=50, epsilon=1e-2),
                    reference=reference, apg_mode="certified")
    x_bar = trace.reported_x
    assert abs(evaluate_f(problem, x_bar, theta) - reference.f_value) <= 1e-4
    assert infeasibility(problem, x_bar, theta) <= 1e-4
    assert len(trace) <= 50


def test_budget_run_logs_one_debug_line_per_epoch(caplog):
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    learner = SyntheticLearner(instance.sigma, 1.4 * instance.sigma, 0.6)
    schedule = make_constant_schedule(1e-2, 1.0, learner_known=False)
    with caplog.at_level(logging.DEBUG, logger="simalm"):
        trace = alm_run(problem, learner, schedule,
                        x0=np.full(instance.n, 0.1), theta_star=instance.sigma,
                        stop=StopRule(max_outer=6))
    lines = [r.getMessage() for r in caplog.records if r.name == "simalm"]
    assert len(lines) == len(trace) == 6
    linear = 0
    for k, (line, rec) in enumerate(zip(lines, trace.records)):
        assert f"epoch={k} " in line
        # FISTA's budget, then last the budget run, the shorter one
        fista_budget, budget = map(int, re.search(
            r" fista_budget=(\d+) budget=(\d+)$", line).groups())
        assert budget == rec.inner_iterations <= fista_budget
        linear += budget < fista_budget
    assert linear > 0


def test_certified_run_matches_a_certified_solve_loop_without_values(monkeypatch):
    # apg_mode="certified" takes the same steps as certified_solve, epoch by
    # epoch on one anchor, bit for bit, but evaluates no augmented
    # Lagrangian value; the certificate exits before the budget
    from simalm import inner_apg
    from simalm.al_core import dual_update
    from simalm.inner_apg import CurvatureAnchor

    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    x0 = np.full(instance.n, 0.1)
    epochs = 8

    def new_learner():
        return SyntheticLearner(instance.sigma, 1.4 * instance.sigma, 0.6)

    def run(apg_mode):
        return alm_run(problem, new_learner(), schedule, x0, theta_star=instance.sigma,
                       stop=StopRule(max_outer=epochs), apg_mode=apg_mode)

    learner = new_learner()
    anchor = CurvatureAnchor()
    x, lam = x0, np.zeros(problem.cone.dim)
    want = []
    for k in range(epochs):
        theta = learner.theta if k == 0 else learner.step()
        rho = schedule.rho(k)
        x, _, _, steps = certified_solve(problem, x, lam, rho, theta,
                                         gap_tol=schedule.alpha(k), epoch=k,
                                         anchor=anchor)
        lam = dual_update(problem, lam, rho, x, theta)
        want.append((x, lam, steps))

    values = []
    monkeypatch.setattr(inner_apg, "eval_L", lambda *args: values.append(args))
    trace = run("certified")
    assert values == []
    assert len(trace) == epochs
    for rec, (x, lam, steps) in zip(trace.records, want):
        assert rec.x.tobytes() == x.tobytes()
        assert rec.lam.tobytes() == lam.tobytes()
        assert rec.inner_iterations == steps
    assert trace.total_inner < run("budget").total_inner


def test_run_with_slack_constraints_keeps_zero_multiplier(rng):
    # minimizer strictly inside the capped region: multiplier stays zero
    n = 4
    v = np.array([0.4, 0.3, 0.2, 0.1])
    A = np.ones((1, n))

    problem = ParametricProblem(
        smooth_value_grad=lambda x, th: (0.5 * float((x - v) @ (x - v)),
                                         np.asarray(x, float) - v),
        prox_step=project_simplex,
        constraint_matrix=lambda th: A,
        constraint_offset=lambda th: np.array([-10.0]),
        cone=NonnegativeOrthant(1),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (1.0, 0.0),
        linear_min=lambda g: float(g.min()),
    )
    theta = np.zeros(1)
    learner = SyntheticLearner(theta, theta, 0.9)
    schedule = make_constant_schedule(1e-3, 1.0, learner_known=True)
    trace = alm_run(problem, learner, schedule,
                    x0=np.full(n, 0.25), theta_star=theta,
                    stop=StopRule(max_outer=6), apg_mode="certified")
    for rec in trace.records:
        np.testing.assert_allclose(rec.lam, 0.0, atol=1e-12)
    np.testing.assert_allclose(trace.reported_x, v, atol=1e-3)


def _misspecified_small_run(regime, tau=0.6, max_outer=25):
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    sigma0 = sigma_star * 1.4  # scaled start keeps every estimate feasible
    learner = SyntheticLearner(sigma_star, sigma0, tau)
    reference = portfolio_reference(instance, sigma=sigma_star)
    if regime == "constant":
        schedule = make_constant_schedule(1e-2, 1.0, learner_known=False, tau=tau)
    else:
        schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, tau)
    trace = alm_run(problem, learner, schedule,
                    x0=np.full(instance.n, 0.1), theta_star=sigma_star,
                    stop=StopRule(max_outer=max_outer), reference=reference)
    # certified sensitivity constant for this family: every revealed
    # covariance has smallest eigenvalue above the smaller endpoint
    mu_min = min(np.linalg.eigvalsh(sigma_star).min(),
                 np.linalg.eigvalsh(sigma0).min())
    kappa = spectral_norm(instance.sector_matrix) / mu_min
    inputs = BoundInputs(
        schedule,
        theta0_err=float(np.linalg.norm(sigma0 - sigma_star, "fro")),
        lambda_star_norm=reference.lambda_norm,
        kappa=kappa, L_f=0.5, L_h_theta=0.0,
    )
    return problem, trace, reference, inputs, sigma_star


def test_dual_iterates_stay_in_dual_cone_and_average_invariant():
    problem, trace, *_ = _misspecified_small_run("constant", max_outer=15)
    xs = []
    for rec in trace.records:
        assert np.all(rec.lam >= 0.0)
        xs.append(rec.x)
        np.testing.assert_allclose(rec.x_bar, np.mean(xs, axis=0), atol=1e-12)
        assert rec.learner_steps == rec.k - 1  # revelation discipline


def test_dual_radius_bound_on_perfectly_specified_run():
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    reference = portfolio_reference(instance)
    learner = SyntheticLearner(instance.sigma, instance.sigma, 0.5)
    schedule = make_constant_schedule(1e-2, 1.0, learner_known=True, tau=0.5)
    trace = alm_run(problem, learner, schedule,
                    x0=np.full(instance.n, 0.1), theta_star=instance.sigma,
                    stop=StopRule(max_outer=20, epsilon=1e-2),
                    reference=reference)
    inputs = BoundInputs(schedule, theta0_err=0.0,
                         lambda_star_norm=reference.lambda_norm)
    radius = bound_report(inputs)["constants"]["c_lambda"]
    for rec in trace.records:
        assert np.linalg.norm(rec.lam - reference.lam) <= radius + 1e-9


def test_constant_rate_bounds_majorize_small_run():
    problem, trace, reference, inputs, sigma_star = _misspecified_small_run(
        "constant", max_outer=12)
    curves = bound_curves(inputs, trace.column("k"))
    # infeasibility of the averaged iterate against the bound curve
    assert np.all(trace.column("infeas_at_theta_star")
                  <= curves["v_k_bound"] + 1e-12)
    # dual gap of the averaged multiplier against b_g / k
    lam_sum = np.zeros_like(trace.records[0].lam)
    warm = trace.records[0].x
    for i, rec in enumerate(trace.records):
        lam_sum += rec.lam
        lam_bar = lam_sum / (i + 1.0)
        warm, value, cert, _ = certified_solve(problem, warm, lam_bar, rec.rho,
                                               sigma_star, gap_tol=1e-9)
        gap_high = max(reference.f_value - value, 0.0) + cert
        assert gap_high <= curves["dual_gap_bound"][i] + 1e-12


def test_increasing_rate_bounds_majorize_small_run():
    problem, trace, reference, inputs, sigma_star = _misspecified_small_run(
        "increasing", max_outer=25)
    # row k holds epoch k - 1, against B_{k-1} / beta^(k-1) and the
    # infeasibility bound at that epoch
    curves = bound_curves(inputs, trace.column("k"))
    sub = np.abs(trace.column("f_at_theta_star") - reference.f_value)
    assert np.all(sub <= curves["subopt_upper_bound"] + 1e-12)
    assert np.all(trace.column("infeas_at_theta_star")
                  <= curves["v_k_bound"] + 1e-12)


def test_write_csv_cell_rule(tmp_path):
    # the one cell format of every artifact: strings verbatim, bools and
    # integers (numpy's too) as integers, every other number as float .12g
    path = tmp_path / "cells.csv"
    write_csv(path, ("name", "a", "b"), [
        ("ints", 7, np.int64(-3)),
        ("big", 10 ** 13, np.int32(2 ** 31 - 1)),
        ("bools", True, False),
        ("floats", np.float64(1.0) / 3.0, 2.0),
        ("large", 1e13, np.float64(-1e-5)),
        ("narrow", np.float32(0.1), -np.inf),
        ("nan", np.nan, float("nan")),
        ("1e-3", "text", "0.5"),
    ])
    assert path.read_bytes() == (
        b"name,a,b\n"
        b"ints,7,-3\n"
        b"big,10000000000000,2147483647\n"
        b"bools,1,0\n"
        b"floats,0.333333333333,2\n"
        b"large,1e+13,-1e-05\n"
        b"narrow,0.10000000149,-inf\n"
        b"nan,nan,nan\n"
        b"1e-3,text,0.5\n")


def test_trace_csv_rejects_a_misaligned_bound_curve(tmp_path):
    _, trace, _, _, _ = _misspecified_small_run("constant", max_outer=6)
    short = np.zeros(len(trace) - 1)
    with pytest.raises(ValueError):
        trace.to_csv(tmp_path / "trace.csv", bound_curves={"v_k_bound": short})


def test_trace_csv_round_trip(tmp_path):
    _, trace, reference, inputs, _ = _misspecified_small_run("constant",
                                                             max_outer=6)
    path = tmp_path / "trace.csv"
    curves = bound_curves(inputs, trace.column("k"))
    trace.to_csv(path, bound_curves={"v_k_bound": curves["v_k_bound"]})
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace)
    assert tuple(rows[0].keys())[:9] == TRACE_COLUMNS
    assert tuple(rows[0].keys())[9] == "v_k_bound"
    got = [float(r["infeas"]) for r in rows]
    np.testing.assert_allclose(got, trace.column("infeas_at_theta_star"),
                               rtol=1e-10)


def test_sequential_baseline_phases():
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    learner = SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6)
    reference = portfolio_reference(instance, sigma=sigma_star)
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    trace = sequential_baseline(problem, learner, 5, schedule,
                                x0=np.full(instance.n, 0.1),
                                theta_star=sigma_star,
                                stop=StopRule(max_outer=15),
                                reference=reference)
    learn = [r for r in trace.records if r.phase == "learn"]
    opt = trace.opt_records
    assert len(learn) == 5
    assert len(opt) == 15
    # learning rows are flat in x and consume no inner iterations; they
    # share one read-only x0, as x and x_bar, and one read-only zero
    # multiplier
    for rec in learn:
        np.testing.assert_allclose(rec.x, np.full(instance.n, 0.1))
        assert rec.inner_iterations == 0
        assert rec.x is rec.x_bar is learn[0].x and rec.lam is learn[0].lam
    assert not (learn[0].x.flags.writeable or learn[0].lam.flags.writeable)
    assert learn[0].lam.tolist() == [0.0] * instance.s
    # parameter error improves during learning, then freezes
    errs = [r.theta_err for r in trace.records]
    assert errs[4] < errs[0]
    assert errs[5] == pytest.approx(errs[-1])
    # k is contiguous across phases
    assert [r.k for r in trace.records] == list(range(1, 21))


def test_theta_errors_are_computed_once_per_revealed_theta(monkeypatch, distances):
    # a FrozenLearner reveals its one read-only array every epoch, so the
    # run computes its distance from theta* once and the later epochs read
    # frobenius_distance's memo; a SyntheticLearner reveals a new array
    # every epoch, and each epoch computes it. The runs' scale ||theta*||_F
    # of the frozen theta* is computed once, by the first run
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    norm, scales = np.linalg.norm, []

    def counting_norm(x, *args, **kwargs):
        if x is sigma_star:
            scales.append(args)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    run = dict(x0=np.full(instance.n, 0.1), theta_star=sigma_star,
               stop=StopRule(max_outer=6))

    def from_theta_star():
        return [pair for pair in distances if pair[1] == id(sigma_star)]

    frozen = alm_run(problem, FrozenLearner(1.4 * sigma_star), schedule, **run)
    assert len(from_theta_star()) == 1
    assert len(set(frozen.column("theta_err"))) == 1
    distances.clear()
    alm_run(problem, SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6),
            schedule, **run)
    assert len(from_theta_star()) == 6
    # one writable array revealed every epoch may have changed in place
    writable = FrozenLearner(1.4 * sigma_star)
    writable.theta = writable.theta.copy()
    distances.clear()
    alm_run(problem, writable, schedule, **run)
    assert from_theta_star() == [(id(writable.theta), id(sigma_star))] * 6
    assert scales == [()]
    # each record keeps arrays of its own epoch
    for name in ("x", "lam", "x_bar"):
        assert len({id(getattr(r, name)) for r in frozen.records}) == len(frozen)


def test_sequential_plateau_above_zero_budget_zero():
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    reference = portfolio_reference(instance, sigma=sigma_star)
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    learner = SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6)
    trace = sequential_baseline(problem, learner, 0, schedule,
                                x0=np.full(instance.n, 0.1),
                                theta_star=sigma_star,
                                stop=StopRule(max_outer=30),
                                reference=reference)
    plateau = abs(trace.records[-1].f_at_theta_star - reference.f_value)
    assert plateau > 1e-6  # solving at the wrong covariance cannot reach f*


@pytest.mark.parametrize("learn_budget", [2.5, np.float64(2.0), True, "2", None])
def test_sequential_baseline_refuses_a_non_integer_budget(learn_budget):
    # range() would fail on 2.5 with a bare TypeError, and True would run
    # one learning step and shift every k by 1
    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    run = dict(x0=np.full(instance.n, 0.1), theta_star=sigma_star,
               stop=StopRule(max_outer=2))
    trace = sequential_baseline(problem, SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6),
                                np.int64(1), schedule, **run)
    assert [r.k for r in trace.records] == [1, 2, 3]
    assert all(type(r.k) is int for r in trace.records)
    with pytest.raises(ValueError, match="learn_budget must be an integer"):
        sequential_baseline(problem, SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6),
                            learn_budget, schedule, **run)


class NanAtStepLearner(SyntheticLearner):
    """Geometric learner whose estimate turns NaN from step `bad_step` on."""

    def __init__(self, theta_star, theta0, tau, bad_step):
        super().__init__(theta_star, theta0, tau)
        self.bad_step = bad_step

    def step(self):
        theta = super().step().copy()  # the learner's own theta is read-only
        if self.steps_taken >= self.bad_step:
            theta[0, 0] = np.nan
        return theta


def test_non_finite_estimate_raises_naming_epoch_and_quantity():
    import simalm

    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    run = dict(x0=np.full(instance.n, 0.1), theta_star=sigma_star,
               stop=StopRule(max_outer=10))
    assert issubclass(simalm.NonFiniteError, RuntimeError)
    learner = NanAtStepLearner(sigma_star, 1.4 * sigma_star, 0.6, bad_step=2)
    with pytest.raises(NonFiniteError, match="non-finite theta at epoch 2$"):
        alm_run(problem, learner, schedule, **run)
    learner = NanAtStepLearner(sigma_star, 1.4 * sigma_star, 0.6, bad_step=2)
    with pytest.raises(NonFiniteError,
                       match="theta at epoch 2 of the learning phase"):
        sequential_baseline(problem, learner, 4, schedule, **run)


def test_non_finite_gradient_inside_inner_solve_raises_naming_epoch():
    import dataclasses

    instance, problem = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    sigma_star = instance.sigma
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    probe = SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6)
    probe.step()
    theta_2 = probe.step()
    calls = []

    def nan_midway_through_epoch_2(x, theta):
        # call 1 is the warm-start gap and step 1, then one per step: NaN
        # from step 2 on
        value, grad = problem.smooth_value_grad(x, theta)
        if np.array_equal(theta, theta_2):
            calls.append(1)
            if len(calls) > 1:
                grad = np.full_like(grad, np.nan)
        return value, grad

    def nan_map_in_epoch_2(bad):
        # the forward map takes every step after the first: its step's
        # first call is step 2, here on a NaN point, so w = W y is NaN and
        # the projection of the map's result refuses it
        retarget = problem.forward(bad)

        def nan_retarget(theta, lam, rho, L):
            step = retarget(theta, lam, rho, L)
            if not np.array_equal(theta, theta_2):
                return step

            def nan_step(y):
                calls.append(1)
                return step(np.full_like(y, np.nan))

            return nan_step

        return nan_retarget

    # the generic forward map, on the replaced oracle, then the portfolio's
    for bad, want_calls in (
            (dataclasses.replace(problem, smooth_value_grad=nan_midway_through_epoch_2,
                                 forward=None), 2),
            (dataclasses.replace(problem, forward=nan_map_in_epoch_2), 1)):
        calls.clear()
        with pytest.raises(NonFiniteError,
                           match="non-finite x at epoch 2: simplex projection"):
            alm_run(bad, SyntheticLearner(sigma_star, 1.4 * sigma_star, 0.6),
                    schedule, x0=np.full(instance.n, 0.1),
                    theta_star=sigma_star, stop=StopRule(max_outer=10))
        assert len(calls) == want_calls


@pytest.mark.parametrize("apg_mode", ["budget", "certified"])
def test_non_finite_warm_start_gradient_names_quantity_and_epoch_once(apg_mode):
    # the inner solve's own message reaches the caller: it names the
    # gradient, not x, and the epoch once
    import dataclasses

    instance, problem = make_small_portfolio(n=10, s=2, seed=8)
    sigma = instance.sigma
    calls = []

    def nan_on_first_call(x, theta):
        calls.append(1)
        value, grad = problem.smooth_value_grad(x, theta)
        return value, (np.full_like(grad, np.nan) if len(calls) == 1 else grad)

    # the portfolio's forward map refuses a replaced smooth_value_grad, so
    # the replaced problem drops it for the generic one
    bad = dataclasses.replace(problem, smooth_value_grad=nan_on_first_call,
                              forward=None)
    schedule = make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.6)
    with pytest.raises(NonFiniteError) as err:
        alm_run(bad, SyntheticLearner(sigma, sigma, 0.6), schedule,
                x0=np.full(instance.n, 0.1), theta_star=sigma,
                stop=StopRule(max_outer=3), apg_mode=apg_mode)
    assert str(err.value) == "non-finite gradient at the warm start at epoch 0"
    assert len(calls) == 1


@pytest.mark.parametrize("oracle, quantity, corrupt", [
    ("apg_solve", "x", lambda out: (np.full_like(out[0], np.nan), out[1])),
    ("dual_update", "lam", lambda out: np.full_like(out, np.inf)),
])
def test_non_finite_iterate_raises_naming_epoch_and_quantity(monkeypatch, oracle,
                                                             quantity, corrupt):
    from simalm import outer_alm

    original = getattr(outer_alm, oracle)
    calls = []

    def corrupt_from_epoch_1(*args, **kwargs):
        calls.append(1)
        out = original(*args, **kwargs)
        return corrupt(out) if len(calls) > 1 else out

    monkeypatch.setattr(outer_alm, oracle, corrupt_from_epoch_1)
    problem, _ = tiny_capped_qp()
    theta = np.zeros(1)
    schedule = make_constant_schedule(1e-2, 1.0, learner_known=True)
    with pytest.raises(NonFiniteError, match=f"non-finite {quantity} at epoch 1$"):
        alm_run(problem, SyntheticLearner(theta, theta, 0.5), schedule,
                x0=np.array([0.5, 0.5]), theta_star=theta,
                stop=StopRule(max_outer=5))


def test_stop_rule_validation():
    with pytest.raises(ScheduleError):
        StopRule(max_outer=0)
    with pytest.raises(ScheduleError):
        StopRule(max_outer=5, epsilon=0.0)
