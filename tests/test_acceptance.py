"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale fixtures
(n = 100 portfolio, learned covariance limit, reference optimum) are built
once per session; each criterion times its own workload against the stated
runtime cap.
"""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from simalm.al_core import eval_L, grad_lambda_L
from simalm.bounds import BoundInputs, bound_curves
from simalm.cones import (NonnegativeOrthant, ProductCone, SecondOrderCone,
                          ZeroCone)
from simalm import experiments
from simalm.experiments import (ExperimentConfig, bound_curves_for_trace,
                                bound_inputs_for_run, dual_gap_estimates,
                                prepare_bundle, run_seq_vs_sim, run_solve,
                                _certified_rate, _schedule)
from simalm.inner_apg import grad_nu
from simalm.learning import (AdmmScsLearner, ScsProblem, SyntheticLearner,
                             admm_solve, scs_admm_step, scs_init)
from simalm.linalg import spectral_norm
from simalm.model import simplex_prox
from simalm.outer_alm import (ScheduleError, StopRule, alm_run,
                              make_constant_schedule, make_increasing_schedule)
from simalm.reference import simplex_qp

from conftest import (count_factorisations, csv_without_timing, overlay_margin,
                      rate_violations)

ROOT = Path(__file__).resolve().parent.parent
DESK = ExperimentConfig(n=100, s=10, seed=12, epsilon=(1e-1, 1e-2))


def _report(number, detail, elapsed, limit):
    assert elapsed < limit, f"criterion {number} exceeded {limit:.0f} s ({elapsed:.1f} s)"
    print(f"\n[criterion {number:2d}] PASS {detail} ({elapsed:.1f} s < {limit:.0f} s)")


@pytest.fixture(scope="session")
def desk_bundle():
    return prepare_bundle(DESK)


@pytest.fixture(scope="session")
def desk_problem(desk_bundle):
    return desk_bundle.problem()


def test_criterion_1_cone_property_suite():
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    variants = [
        ZeroCone(6),
        NonnegativeOrthant(8),
        SecondOrderCone(5),
        ProductCone([ZeroCone(2), NonnegativeOrthant(3), SecondOrderCone(4)]),
    ]
    n_samples = 10_000
    for cone in variants:
        y = gen.standard_normal((n_samples, cone.dim)) * 4.0
        y2 = gen.standard_normal((n_samples, cone.dim)) * 4.0
        p = cone.project(y)
        # idempotence
        assert np.max(np.linalg.norm(cone.project(p) - p, axis=-1)) <= 1e-12
        # nonexpansiveness
        lhs = np.linalg.norm(p - cone.project(y2), axis=-1)
        assert np.all(lhs <= np.linalg.norm(y - y2, axis=-1) + 1e-12)
        # Moreau decomposition with orthogonal parts
        neg = cone.project_neg(y)
        dual = cone.project_dual(y)
        assert np.max(np.linalg.norm(neg + dual - y, axis=-1)) <= 1e-10
        assert np.max(np.abs(np.sum(neg * dual, axis=-1))) <= 1e-10
        # distance triangle inequality d(y + y') <= d(y) + ||y'||
        lhs = cone.dist(y + y2)
        assert np.all(lhs <= cone.dist(y) + np.linalg.norm(y2, axis=-1) + 1e-10)
    _report(1, f"{n_samples} vectors x {len(variants)} variants",
            time.perf_counter() - t0, 5.0)


def test_criterion_2_gradient_correctness(desk_bundle, desk_problem):
    t0 = time.perf_counter()
    gen = np.random.default_rng(202)
    sigma_star = desk_bundle.sigma_star
    n, s = DESK.n, DESK.s
    h_fd = 1e-6
    worst_lam, worst_x = 0.0, 0.0
    for trial in range(100):
        x = gen.dirichlet(np.ones(n))
        lam = np.abs(gen.standard_normal(s)) * 0.5
        rho = float(gen.uniform(0.5, 20.0))
        scale = float(gen.uniform(0.8, 1.25))
        theta = scale * sigma_star
        # multiplier gradient vs central differences of the value
        g = grad_lambda_L(desk_problem, x, lam, rho, theta)
        fd = np.zeros(s)
        for i in range(s):
            e = np.zeros(s)
            e[i] = h_fd
            fd[i] = (eval_L(desk_problem, x, lam + e, rho, theta)
                     - eval_L(desk_problem, x, lam - e, rho, theta)) / (2 * h_fd)
        worst_lam = max(worst_lam,
                        np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0))
        # smooth-part gradient vs central differences (subsampled coords)
        gx = grad_nu(desk_problem, x, lam, rho, theta)
        idx = gen.choice(n, size=12, replace=False)
        fdx = np.zeros(idx.size)
        for j, i in enumerate(idx):
            e = np.zeros(n)
            e[i] = h_fd
            # L_rho's x-gradient is grad nu
            fdx[j] = (eval_L(desk_problem, x + e, lam, rho, theta)
                      - eval_L(desk_problem, x - e, lam, rho, theta)) / (2 * h_fd)
        worst_x = max(worst_x,
                      np.linalg.norm(fdx - gx[idx]) / max(np.linalg.norm(gx), 1.0))
    assert worst_lam <= 1e-6
    assert worst_x <= 1e-6
    _report(2, f"100 points, worst rel err {max(worst_lam, worst_x):.1e}",
            time.perf_counter() - t0, 10.0)


def test_criterion_3_fista_rate():
    t0 = time.perf_counter()
    gen = np.random.default_rng(303)
    n = 20
    F = gen.standard_normal((n, n))
    Q = F @ F.T / n + 0.2 * np.eye(n)
    c = gen.standard_normal(n) * 0.5
    x_star, f_star, kkt = simplex_qp(Q, c)
    assert kkt <= 1e-9
    L = float(np.linalg.norm(Q, 2))
    x0 = np.full(n, 1.0 / n)
    values = []

    def track(y, z):
        values.append(0.5 * float(z @ Q @ z) + float(c @ z))
        return False

    from simalm.inner_apg import fista
    fista(lambda y: simplex_prox(y, Q @ y + c, L), L, x0, 50, stop=track)
    r2 = float((x0 - x_star) @ (x0 - x_star))
    for t in (5, 10, 50):
        bound = 2.0 * L * r2 / (t + 1) ** 2
        gap = values[t - 1] - f_star
        assert gap <= bound + 1e-12, (t, gap, bound)
    _report(3, "objective gap within 2L||x0-x*||^2/(t+1)^2 at t in {5,10,50}",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_perfectly_specified_constant_penalty(desk_bundle):
    for eps in (1e-1, 1e-2, 1e-3):
        t0 = time.perf_counter()
        trace, _ = run_solve(DESK, eps, desk_bundle, specification="known",
                             regime="constant")
        last = trace.records[-1]
        assert trace.converged
        assert last.f_rel_subopt <= eps
        assert last.infeas_at_theta_star <= eps
        assert len(trace) <= 10
        _report(4, f"eps={eps:g}: rel_subopt {last.f_rel_subopt:.1e}, "
                   f"infeas {last.infeas_at_theta_star:.1e}, outer {len(trace)}",
                time.perf_counter() - t0, 120.0)


def test_criterion_5_misspecified_constant_penalty(desk_bundle, desk_problem):
    for eps in (1e-1, 1e-2):
        t0 = time.perf_counter()
        trace, _ = run_solve(DESK, eps, desk_bundle, specification="learned",
                             regime="constant")
        last = trace.records[-1]
        assert trace.converged
        assert last.f_rel_subopt <= eps
        assert last.infeas_at_theta_star <= eps
        if eps == 1e-2:
            assert len(trace) <= 9  # single-digit outer count
        schedule = _schedule(DESK, desk_bundle, eps, "learned", "constant")
        inputs = bound_inputs_for_run(desk_bundle, schedule, "learned")
        curves = bound_curves(inputs, trace.column("k"))
        infeas = trace.column("infeas_at_theta_star")
        assert np.all(infeas <= curves["v_k_bound"])
        gaps = dual_gap_estimates(desk_problem, trace, desk_bundle.sigma_star,
                                  desk_bundle.reference.f_value)
        assert np.all(gaps <= curves["dual_gap_bound"])
        _report(5, f"eps={eps:g}: errors within target, V(k) and B_g/k "
                   f"majorize at all {len(trace)} epochs",
                time.perf_counter() - t0, 300.0)


GRID = [(regime, spec, eps) for regime in ("constant", "increasing")
        for spec in ("known", "learned") for eps in (1e-1, 1e-2, 1e-3)]


@pytest.mark.parametrize("certify", [False, True], ids=["budget", "certified"])
def test_bound_overlays_majorize_every_grid_run(desk_bundle, monkeypatch, certify):
    # every run of the regime x specification x eps grid lies under its
    # overlay curves: infeasibility under v_k_bound, and the relative
    # suboptimality under the upper bound above f*, the lower one below it;
    # under both inner exits, the budget's end and the step certificate.
    # Every run converges under the budget exit. Under the certificate exit,
    # where every inner solve stops once its certificate reaches alpha_k,
    # no further, as the theory describes, all converge but
    # constant/learned at eps=1e-3, which stops at its 400-epoch cap: its
    # reported average carries the under-solved first epochs with weight 1/k
    from simalm import experiments

    monkeypatch.setattr(experiments, "alm_run",
                        functools.partial(alm_run, certify=certify))
    t0 = time.perf_counter()
    margins = {}
    for regime, spec, eps in GRID:
        trace, curves = run_solve(DESK, eps, desk_bundle,
                                  specification=spec, regime=regime)
        capped = certify and (regime, spec, eps) == ("constant", "learned", 1e-3)
        assert trace.converged != capped, (regime, spec, eps)
        if capped:
            assert len(trace) == 400
        margins[regime, spec, eps] = overlay_margin(
            trace, curves, desk_bundle.reference.f_value)
        assert margins[regime, spec, eps] >= 1.0, (regime, spec, eps)
    worst = min(margins, key=margins.get)
    inner_exit = "certified" if certify else "budget"
    _report(5, f"overlays majorize all {len(margins)} {inner_exit} grid runs, smallest "
               f"ratio {margins[worst]:.3g} on {'/'.join(map(str, worst))}",
            time.perf_counter() - t0, 60.0)


@pytest.mark.parametrize("seed, certify", [
    pytest.param(seed, certify, id=f"{seed}-certified" if certify else str(seed))
    for certify in (False, True) for seed in (1, 2, 3, 4, 5)])
def test_grid_converges_under_its_overlays_on_other_instances(seed, certify,
                                                              monkeypatch):
    # the desk grid on other instance seeds: learner targets near the
    # eigenvalue floor, budgets, carried curvature and overlays on data the
    # desk never shows, under both inner exits. As on the desk, only
    # constant/learned at eps=1e-3 under the certificate exit stops at its
    # epoch cap
    from simalm import experiments

    monkeypatch.setattr(experiments, "alm_run",
                        functools.partial(alm_run, certify=certify))
    config = ExperimentConfig(n=DESK.n, s=DESK.s, seed=seed)
    bundle = prepare_bundle(config)
    for regime, spec, eps in GRID:
        trace, curves = run_solve(config, eps, bundle,
                                  specification=spec, regime=regime)
        last = trace.records[-1]
        capped = certify and (regime, spec, eps) == ("constant", "learned", 1e-3)
        assert trace.converged != capped, (regime, spec, eps)
        if trace.converged:
            assert last.f_rel_subopt <= eps and last.infeas_at_theta_star <= eps
        assert overlay_margin(trace, curves, bundle.reference.f_value) >= 1.0


def test_desk_counts_of_one_benchmark_round(desk_bundle):
    # one round of the benchmark's calls on the desk instance (bench/run.py):
    # the known and the learned grid, where every run converges, and
    # run_seq_vs_sim with budgets (0, 2, 4, 6). Their inner/outer totals
    # are pinned, so a change of arithmetic that moves an iterate shows here
    totals = {}
    for spec in ("known", "learned"):
        inner = outer = 0
        for regime, eps in [(r, e) for r in ("constant", "increasing")
                            for e in (1e-1, 1e-2, 1e-3)]:
            trace, _ = run_solve(DESK, eps, desk_bundle, specification=spec,
                                 regime=regime)
            assert trace.converged, (spec, regime, eps)
            inner += trace.total_inner
            outer += len(trace)
        totals[spec] = inner, outer
    assert DESK.sequential_budgets == (0, 2, 4, 6)
    inner = outer = 0
    for curve in run_seq_vs_sim(DESK, desk_bundle).values():
        # work counts learning steps and inner iterations: a sequential run
        # first takes `budget` steps, the simultaneous one (budget -1) one
        # step per epoch after the first
        budget = curve["budget"]
        epochs = len(curve["work"]) - max(budget, 0)
        inner += int(curve["work"][-1]) - (budget if budget >= 0 else epochs - 1)
        outer += epochs
    totals["seqsim"] = inner, outer
    assert totals == {"known": (2180, 13), "learned": (285, 30),
                      "seqsim": (2855, 250)}


def test_learner_meets_its_certified_rate_past_the_record(monkeypatch, desk_bundle):
    # every learned schedule and overlay rests on ||theta_k - Sigma*|| <=
    # tau_hat^k ||theta_0 - Sigma*||, which _certified_rate certifies over
    # the recorded sweeps only; it must hold at every step past them too
    sweeps, sigma_star, tau = (desk_bundle.learner_errors.size, desk_bundle.sigma_star,
                               desk_bundle.tau_hat)
    learner = AdmmScsLearner(desk_bundle.scs)
    errors = [np.linalg.norm(learner.theta - sigma_star, "fro")]
    errors += [np.linalg.norm(learner.step() - sigma_star, "fro")
               for _ in range(2 * sweeps)]
    assert rate_violations(range(len(errors)), errors, tau, sweeps) == []
    # ... and at every epoch of seqsim's simultaneous run, which passes them
    traces = []
    run = experiments.alm_run

    def kept_run(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(experiments, "alm_run", kept_run)
    run_seq_vs_sim(DESK, desk_bundle)
    [trace] = traces
    steps = trace.column("learner_steps")
    assert steps[-1] > sweeps
    assert rate_violations(steps, trace.column("theta_err"), tau, sweeps) == []


def test_desk_factorisations_of_one_benchmark_round(monkeypatch, desk_bundle):
    # the same workloads, each twice on its own copy of the desk bundle: a
    # cold pass factors 1 / 4 / 7 thetas (known / learned / seqsim) and the
    # second none, since the runs share the copy's one problem and its
    # curvature memo; A takes at most one SVD per copy
    def grid(spec):
        def run(bundle):
            for regime in ("constant", "increasing"):
                for eps in (1e-1, 1e-2, 1e-3):
                    run_solve(DESK, eps, bundle, specification=spec, regime=regime)
        return run

    workloads = {"known": grid("known"), "learned": grid("learned"),
                 "seqsim": lambda bundle: run_seq_vs_sim(DESK, bundle)}
    calls = count_factorisations(monkeypatch)
    spectrum = ("eigh", desk_bundle.sigma_star.shape)
    norm = ("svd", desk_bundle.instance.sector_matrix.shape)
    counts = {}
    for name, run in workloads.items():
        bundle = dataclasses.replace(desk_bundle)
        counts[name], svds = [], 0
        for _ in range(2):
            calls.clear()
            run(bundle)
            counts[name].append(calls.count(spectrum))
            svds += calls.count(norm)
        assert svds <= 1, name
    assert counts == {"known": [1, 0], "learned": [4, 0], "seqsim": [7, 0]}


def test_known_runs_repeat_the_synthetic_learner_at_sigma_star(tmp_path, desk_bundle):
    # the known runs freeze Sigma*; the learner they ran before,
    # SyntheticLearner(Sigma*, Sigma*, 0.5), revealed Sigma* + 0.5^k * 0 =
    # Sigma* every epoch, so every desk trace CSV repeats that run's byte
    # for byte once its wall-clock columns are cut
    sigma_star, f_star = desk_bundle.sigma_star, desk_bundle.reference.f_value
    for regime in ("constant", "increasing"):
        for eps in (1e-1, 1e-2, 1e-3):
            schedule = _schedule(DESK, desk_bundle, eps, "known", regime)
            old = alm_run(desk_bundle.problem(),
                          SyntheticLearner(sigma_star, sigma_star, 0.5), schedule,
                          np.full(DESK.n, 1.0 / DESK.n), theta_star=sigma_star,
                          stop=StopRule(max_outer=experiments._MAX_OUTER[regime]["known"],
                                        epsilon=eps),
                          reference=desk_bundle.reference)
            old_curves = bound_curves_for_trace(
                old, bound_inputs_for_run(desk_bundle, schedule, "known"), f_star)
            new, new_curves = run_solve(DESK, eps, desk_bundle,
                                        specification="known", regime=regime)
            old.to_csv(tmp_path / "old.csv", bound_curves=old_curves)
            new.to_csv(tmp_path / "new.csv", bound_curves=new_curves)
            assert (csv_without_timing(tmp_path / "new.csv")
                    == csv_without_timing(tmp_path / "old.csv")), (regime, eps)


def test_desk_run_builds_its_forward_map_once(desk_bundle, desk_problem):
    # a run's anchor builds the portfolio's forward map at its first solve
    # and retargets it at every later one, also in the increasing regime,
    # where L moves every epoch; the run repeats, bit for bit, the one on
    # the problem as built
    builds = []

    def counting(own):
        builds.append(1)
        return desk_problem.forward(own)

    counted = dataclasses.replace(desk_problem, forward=counting)
    for spec in ("known", "learned"):
        schedule = _schedule(DESK, desk_bundle, 1e-2, spec, "increasing")
        stop = StopRule(max_outer=experiments._MAX_OUTER["increasing"][spec],
                        epsilon=1e-2)
        builds.clear()
        traces = [alm_run(problem, experiments._learner(desk_bundle, spec),
                          schedule, np.full(DESK.n, 1.0 / DESK.n),
                          theta_star=desk_bundle.sigma_star, stop=stop,
                          reference=desk_bundle.reference)
                  for problem in (counted, desk_problem)]
        assert len(builds) == 1 and len(traces[0]) > 1, spec
        assert len(traces[0]) == len(traces[1])
        for ours, built in zip(traces[0].records, traces[1].records):
            assert ours.x.tobytes() == built.x.tobytes()
            assert ours.lam.tobytes() == built.lam.tobytes()


def test_seqsim_work_repeats_the_per_scheme_count(monkeypatch, desk_bundle):
    # every curve's work is learner_steps plus the cumulative inner
    # iterations; written out per scheme it is k on a learn-phase row, the
    # budget plus the cumulative inner iterations on a sequential run's
    # rows, and the learner steps plus the cumulative inner iterations on
    # the simultaneous run
    traces = []
    for name in ("alm_run", "sequential_baseline"):
        def kept_run(*args, _run=getattr(experiments, name), **kwargs):
            traces.append(_run(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(experiments, name, kept_run)
    curves = run_seq_vs_sim(DESK, desk_bundle)
    budgets = (*DESK.sequential_budgets, -1)  # the order of the runs
    assert len(traces) == len(budgets) == len(curves)
    f_star = desk_bundle.reference.f_value
    for budget, trace in zip(budgets, traces):
        curve = curves["simultaneous" if budget < 0 else f"sequential_{budget}"]
        work, inner = [], 0
        for rec in trace.records:
            inner += rec.inner_iterations
            if rec.phase == "learn":
                work.append(rec.k)
            elif budget < 0:
                work.append(rec.learner_steps + inner)
            else:
                work.append(budget + inner)
        assert curve["work"].dtype == float and curve["work"].tolist() == work
        assert curve["subopt"].tolist() == [abs(rec.f_at_theta_star - f_star)
                                            for rec in trace.records]


def test_criterion_6_increasing_penalty_geometric_rate(desk_bundle, desk_problem):
    t0 = time.perf_counter()
    beta, tau = 1.05, 0.91
    sigma_star = desk_bundle.sigma_star
    sigma0 = 1.3 * sigma_star
    learner = SyntheticLearner(sigma_star, sigma0, tau)
    schedule = make_increasing_schedule(1.0, beta, 1.0, 1e-3, tau)
    trace = alm_run(desk_problem, learner, schedule,
                    np.full(DESK.n, 1.0 / DESK.n), theta_star=sigma_star,
                    stop=StopRule(max_outer=40),
                    reference=desk_bundle.reference)
    errs = np.array([abs(r.f_at_theta_star - desk_bundle.reference.f_value)
                     for r in trace.records])
    ks = np.arange(1, errs.size + 1)
    sel = ks >= 5
    slope = np.polyfit(ks[sel], np.log(np.maximum(errs[sel], 1e-16)), 1)[0]
    assert slope <= -math.log(beta) + 0.02
    mu_min = min(np.linalg.eigvalsh(sigma_star).min(),
                 np.linalg.eigvalsh(sigma0).min())
    inputs = BoundInputs(
        schedule,
        theta0_err=float(np.linalg.norm(sigma0 - sigma_star, "fro")),
        lambda_star_norm=desk_bundle.reference.lambda_norm,
        kappa=spectral_norm(desk_bundle.instance.sector_matrix) / mu_min,
        L_f=0.5, L_h_theta=0.0)
    # row k holds epoch k - 1: B_{k-1} / beta^(k-1) and the infeasibility
    # bound at epoch k - 1
    curves = bound_curves(inputs, ks)
    assert np.all(errs <= curves["subopt_upper_bound"])
    assert np.all(trace.column("infeas_at_theta_star") <= curves["v_k_bound"])
    _report(6, f"slope {slope:.3f} <= {-math.log(beta) + 0.02:.3f}, "
               f"bounds majorize over {errs.size} epochs",
            time.perf_counter() - t0, 120.0)


def test_criterion_7_schedule_validators():
    t0 = time.perf_counter()
    with pytest.raises(ScheduleError):
        make_increasing_schedule(1.0, 1.2, 1.0, 1e-3, 0.91)  # beta*tau = 1.092
    make_increasing_schedule(1.0, 1.05, 1.0, 1e-3, 0.91)  # beta*tau = 0.9555
    for rho_o, eps, c in [(1.0, 1e-2, 1.0), (1.0, 1e-2, 1e-3), (3.0, 0.2, 0.7)]:
        schedule = make_constant_schedule(eps, rho_o, True, c=c)
        rho = schedule.rho(0)
        # independent series evaluation: long partial sum + integral tail
        k = np.arange(1, 2_000_000, dtype=float)
        series = float(np.sum(k ** -(1.0 + c)))
        K = 2_000_000.0
        series += K ** (-c) / c + 0.5 * K ** -(1.0 + c)
        residual = abs(math.sqrt(schedule.alpha0) * series
                       - 1.0 / math.sqrt(2.0 * rho))
        assert residual <= 1e-10
    _report(7, "growth validator and inexactness normalization verified",
            time.perf_counter() - t0, 30.0)


def test_criterion_8_scs_learner():
    t0 = time.perf_counter()
    # desk-sample iterates stay symmetric and above the eigenvalue floor
    gen = np.random.default_rng(808)
    F = gen.standard_normal((40, 20))
    scs = ScsProblem(S=F @ F.T / 20, upsilon=0.4, psd_floor=1e-2)
    state = scs_init(scs)
    for _ in range(12):
        state = scs_admm_step(scs, state)
        assert np.allclose(state.Sigma, state.Sigma.T, atol=1e-10)
        assert np.linalg.eigvalsh(state.Sigma).min() >= scs.psd_floor - 1e-10

    # n = 5: limit matches a projected-subgradient oracle in objective
    from test_learning import make_scs, projected_subgradient_scs
    for seed in (1, 4):
        small = make_scs(n=5, seed=seed)
        sigma_admm, _ = admm_solve(small, tol=1e-10)
        _, f_sub = projected_subgradient_scs(small)
        assert abs(small.objective(sigma_admm) - f_sub) <= 1e-6

    # the certified rate of the learner's error history lies in (0, 1)
    sigma_ref, _ = admm_solve(scs, tol=1e-10)
    learner = AdmmScsLearner(scs)
    errors = [np.linalg.norm(learner.theta - sigma_ref, "fro")]
    errors += [np.linalg.norm(learner.step() - sigma_ref, "fro")
               for _ in range(12)]
    tau = _certified_rate(errors)
    assert 0.0 < tau < 1.0
    _report(8, f"floor respected, oracle match <= 1e-6, tau_hat {tau:.3f}",
            time.perf_counter() - t0, 30.0)


def test_criterion_9_sequential_vs_simultaneous(desk_bundle):
    t0 = time.perf_counter()
    curves = run_seq_vs_sim(DESK, desk_bundle)
    sim_final = curves["simultaneous"]["plateau"]
    seq = sorted((c["budget"], c["plateau"]) for c in curves.values()
                 if c["budget"] >= 0)
    assert len(seq) >= 2
    for _, plateau in seq:
        assert plateau > sim_final
    plateaus = [p for _, p in seq]
    assert all(a >= b for a, b in zip(plateaus, plateaus[1:]))
    _report(9, f"plateaus {['%.1e' % p for p in plateaus]} all above "
               f"simultaneous {sim_final:.1e}, monotone in budget",
            time.perf_counter() - t0, 300.0)


def test_criterion_10_table_determinism(tmp_path):
    t0 = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        payload = {"n": 40, "s": 10, "seed": 7, "epsilon": [0.1, 0.01],
                   "regime": "constant", "specification": "learned",
                   "rho_o": 1.0, "beta": 1.05, "c": 1.0,
                   "sequential_budgets": [0, 2], "output_dir": str(out)}
        cfg = tmp_path / f"config{run}.json"
        cfg.write_text(json.dumps(payload))
        res = subprocess.run(
            [sys.executable, "-m", "simalm.cli", "table", "--config", str(cfg)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outputs.append((out / "table_constant_learned.csv").read_bytes())
    assert outputs[0] == outputs[1]
    _report(10, f"byte-identical table CSVs ({len(outputs[0])} bytes)",
            time.perf_counter() - t0, 300.0)
