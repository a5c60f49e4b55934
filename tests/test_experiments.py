import csv
import dataclasses
import json

import numpy as np
import pytest

from simalm import experiments
from simalm.bounds import BoundInputs, bound_report
from simalm.experiments import (ExperimentConfig, band_covariance,
                                bound_curves_for_trace, bound_inputs_for_run,
                                generate_instance, make_sectors,
                                portfolio_kappa, prepare_bundle,
                                run_seq_vs_sim, run_solve, run_table,
                                write_seqsim, write_table, _certified_rate,
                                _schedule)
from simalm.learning import AdmmScsLearner
from simalm.linalg import spectral_norm
from simalm.outer_alm import (AlmRecord, AlmTrace, Schedule, ScheduleError,
                              TRACE_COLUMNS, BOUND_COLUMNS)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(n=30, s=5, seed=3, epsilon=(0.1,),
                            regime="constant", specification="learned")


@pytest.fixture(scope="module")
def small_bundle(small_config):
    return prepare_bundle(small_config)


def test_band_covariance_values():
    sigma = band_covariance(15)
    assert sigma[0, 0] == 1.0
    assert sigma[0, 5] == 0.5   # |i - j| = 5
    assert sigma[0, 10] == 0.0  # |i - j| = 10
    assert np.all(np.linalg.eigvalsh(sigma) > 0)


def test_sample_counts_and_reproducibility():
    config = ExperimentConfig(n=30, s=5, seed=3, epsilon=(0.1,))
    inst1, scs1, sample1 = generate_instance(config)
    inst2, scs2, sample2 = generate_instance(config)
    assert sample1.samples.shape == (15, 30)  # p = n / 2
    assert inst1.to_json() == inst2.to_json()
    np.testing.assert_array_equal(sample1.samples, sample2.samples)
    np.testing.assert_array_equal(scs1.S, scs2.S)


def test_sectors_cover_every_asset(rng):
    A = make_sectors(40, 7, rng)
    assert np.all(A.sum(axis=0) >= 1)
    assert np.all((A == 0) | (A == 1))
    assert np.all(A.sum(axis=1) >= 1)


def test_generated_instance_is_well_posed(small_bundle):
    inst = small_bundle.instance
    # uniform start strictly feasible
    load = inst.sector_matrix.sum(axis=1) / inst.n
    assert np.all(load < inst.sector_limits)
    # at least one cap binds at the learned covariance limit
    assert small_bundle.binding.any()
    assert abs(small_bundle.reference.f_value) >= 1e-3
    assert small_bundle.reference.kkt_residual <= 1e-9


def test_setup_runs_each_solve_once(monkeypatch, small_config):
    import dataclasses

    from simalm import experiments, reference
    from simalm.learning import admm_solve

    calls = {"admm": 0, "qp": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "admm_solve", counted("admm", admm_solve))
    monkeypatch.setattr(reference, "active_set_qp",
                        counted("qp", reference.active_set_qp))
    bundle = prepare_bundle(small_config)
    # one ADMM solve; two QPs: the cap-free simplex_qp and the reference
    assert calls == {"admm": 1, "qp": 2}
    monkeypatch.undo()

    # recomputed from scratch on a fresh problem (no cached factorisation)
    scs = dataclasses.replace(bundle.scs)
    sigma_star, info = admm_solve(scs, tol=1e-9, collect_history=True)
    errors = np.array([np.linalg.norm(S - sigma_star, "fro")
                       for S in info["history"][1:]])
    ref = reference.portfolio_reference(bundle.instance, sigma=sigma_star)
    np.testing.assert_array_equal(bundle.sigma_star, sigma_star)
    np.testing.assert_array_equal(bundle.learner_errors, errors)
    assert bundle.tau_hat == _certified_rate(errors)
    assert bundle.reference.f_value == ref.f_value
    assert bundle.admm_sweeps == info["sweeps"]


def test_learner_error_alignment(small_bundle):
    # errors[k] is the error of the k-th estimate a fresh learner reveals
    learner = AdmmScsLearner(small_bundle.scs)
    sigma_star = small_bundle.sigma_star
    for k in range(4):
        theta = learner.theta if k == 0 else learner.step()
        assert np.linalg.norm(theta - sigma_star, "fro") == pytest.approx(
            small_bundle.learner_errors[k])
    assert small_bundle.theta0_err == small_bundle.learner_errors[0]


def test_increasing_schedule_overlays_and_errors_share_one_rate(small_config,
                                                                small_bundle):
    config = dataclasses.replace(small_config, regime="increasing")
    tau = small_bundle.tau_hat
    schedule = _schedule(config, small_bundle, 0.1)
    assert schedule.tau == tau
    assert bound_inputs_for_run(small_bundle, schedule, "learned").tau == tau
    # a fresh learner's errors stay under that rate's envelope until they
    # reach the floor below which the ADMM limit itself is inexact
    learner = AdmmScsLearner(small_bundle.scs)
    errors = [np.linalg.norm(learner.theta - small_bundle.sigma_star, "fro")]
    errors += [np.linalg.norm(learner.step() - small_bundle.sigma_star, "fro")
               for _ in range(small_bundle.admm_sweeps - 2)]
    checked = [k for k, err in enumerate(errors) if err > 1e-10 * errors[0]]
    assert len(checked) > 10
    for k in checked:
        assert errors[k] <= tau ** k * errors[0] * (1.0 + 1e-12)
    # and beta * tau < 1 is enforced against that same rate
    _schedule(dataclasses.replace(config, beta=0.99 / tau), small_bundle, 0.1)
    with pytest.raises(ScheduleError, match="beta \\* tau = 1.01 "):
        _schedule(dataclasses.replace(config, beta=1.01 / tau), small_bundle, 0.1)


def test_certified_rate_of_error_histories():
    assert _certified_rate([2.0 * 0.5 ** k for k in range(10)]) == \
        pytest.approx(0.5, abs=1e-12)
    for short in ([1.0], [1.0, 1e-12]):
        with pytest.raises(ValueError, match=f"length {len(short)}"):
            _certified_rate(short)
    rising = _certified_rate([1.0, 2.0, 4.0, 8.0])
    assert rising >= 1.0
    for beta in (1.0, np.nextafter(1.0, 2.0), 1.05):
        with pytest.raises(ScheduleError):
            Schedule(rho0=1.0, alpha0=1.0, c=1.0, beta=beta, tau=rising)


def test_portfolio_kappa_formula(small_bundle):
    inst = small_bundle.instance
    got = portfolio_kappa(inst, small_bundle.scs.psd_floor)
    assert got == pytest.approx(
        spectral_norm(inst.sector_matrix) / small_bundle.scs.psd_floor)


def test_run_table_rows_meet_targets(small_config, small_bundle):
    rows = run_table(small_config, small_bundle)
    assert len(rows) == 1
    row = rows[0]
    assert not row.flagged
    assert row.rel_subopt <= row.epsilon
    assert row.infeas <= row.epsilon
    assert row.outer >= 1 and row.inner_total >= 1


def test_run_table_deterministic(small_config, small_bundle):
    rows1 = run_table(small_config, small_bundle)
    rows2 = run_table(small_config, small_bundle)
    assert rows1[0].rel_subopt == rows2[0].rel_subopt
    assert rows1[0].inner_total == rows2[0].inner_total


def test_write_table_csv(tmp_path, small_config, small_bundle):
    rows = run_table(small_config, small_bundle)
    path = tmp_path / "table.csv"
    timing = tmp_path / "timing.csv"
    write_table(rows, path, timing)
    parsed = list(csv.DictReader(open(path)))
    assert list(parsed[0]) == ["epsilon", "rel_subopt", "infeas", "outer",
                               "inner", "flagged"]
    assert float(parsed[0]["epsilon"]) == 0.1
    timing_rows = list(csv.DictReader(open(timing)))
    assert list(timing_rows[0]) == ["epsilon", "cpu_learn_s", "cpu_opt_s"]


def test_trivially_loose_accuracy_converges_fast(small_config, small_bundle):
    trace, _ = run_solve(small_config, 0.5, small_bundle)
    assert trace.converged
    assert len(trace) <= 2


def test_trivially_feasible_instance_converges_at_first_epoch(small_bundle):
    # caps so generous the constraints never bind: one epoch suffices
    from simalm.learning import SyntheticLearner
    from simalm.model import PortfolioInstance, portfolio_problem
    from simalm.outer_alm import StopRule, alm_run, make_constant_schedule
    from simalm.reference import portfolio_reference

    base = small_bundle.instance
    inst = PortfolioInstance(
        n=base.n, s=base.s, sector_matrix=base.sector_matrix,
        sector_limits=np.full(base.s, 10.0), mu=base.mu,
        risk_tradeoff=base.risk_tradeoff, sigma=small_bundle.sigma_star,
        seed=base.seed)
    problem = portfolio_problem(inst)
    reference = portfolio_reference(inst)
    schedule = make_constant_schedule(0.5, 1.0, learner_known=True)
    learner = SyntheticLearner(inst.sigma, inst.sigma, 0.5)
    trace = alm_run(problem, learner, schedule,
                    x0=np.full(inst.n, 1.0 / inst.n), theta_star=inst.sigma,
                    stop=StopRule(max_outer=10, epsilon=0.5),
                    reference=reference)
    assert trace.converged
    assert len(trace) == 1
    assert trace.records[0].infeas_at_theta_star == 0.0


def test_increasing_schedule_is_checked_against_the_admm_rate(
        monkeypatch, small_config, small_bundle):
    # the ADMM learner reports no rate at epoch 0, so the schedule's tau_hat
    # is what stops a penalty that outgrows the learner, before any epoch
    config = dataclasses.replace(small_config, regime="increasing",
                                 beta=1.83 / small_bundle.tau_hat)
    monkeypatch.setattr(experiments, "alm_run",
                        lambda *args, **kwargs: pytest.fail("an epoch ran"))
    with pytest.raises(ScheduleError, match="beta \\* tau = 1.83 "):
        run_solve(config, 0.1, small_bundle)
    # and no geometric schedule exists without a rate to check
    with pytest.raises(ScheduleError, match="learning rate tau"):
        Schedule(rho0=1.0, alpha0=1.0, c=1e-3, beta=1.05)


def test_known_schedule_is_checked_against_the_known_rate(small_config,
                                                          small_bundle):
    config = dataclasses.replace(small_config, regime="increasing",
                                 specification="known")
    assert _schedule(config, small_bundle, 0.1).tau == 0.5
    with pytest.raises(ScheduleError, match="beta \\* tau = 1.1 "):
        _schedule(dataclasses.replace(config, beta=2.2), small_bundle, 0.1)


def test_solve_emits_bound_overlay_columns(tmp_path, small_config, small_bundle):
    trace, curves = run_solve(small_config, 0.1, small_bundle)
    assert set(curves) == set(BOUND_COLUMNS)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, bound_curves=curves)
    parsed = list(csv.DictReader(open(path)))
    assert tuple(parsed[0])[:9] == TRACE_COLUMNS
    assert set(tuple(parsed[0])[9:]) == set(BOUND_COLUMNS)
    # overlay soundness on this run
    for rec, row in zip(trace.records, parsed):
        assert rec.infeas_at_theta_star <= float(row["v_k_bound"])
        assert rec.f_rel_subopt <= float(row["subopt_upper_bound"])


def test_increasing_overlay_majorizes(small_config, small_bundle):
    trace, curves = run_solve(small_config, 0.1, small_bundle,
                              regime="increasing", specification="learned")
    for i, rec in enumerate(trace.records):
        assert rec.infeas_at_theta_star <= curves["v_k_bound"][i]
        assert rec.f_rel_subopt <= curves["subopt_upper_bound"][i]


def test_seq_vs_sim_shape(small_config, small_bundle):
    curves = run_seq_vs_sim(small_config, small_bundle, max_outer=30)
    sim = curves["simultaneous"]["plateau"]
    seq = sorted((c["budget"], c["plateau"]) for k, c in curves.items()
                 if c["budget"] >= 0)
    assert len(seq) >= 2
    assert all(p > sim for _, p in seq)
    plateaus = [p for _, p in seq]
    assert all(a >= b for a, b in zip(plateaus, plateaus[1:]))
    # sequential curves are flat while learning
    zero_budget = curves["sequential_0"]
    assert zero_budget["work"][0] >= 1


def test_write_seqsim_csv(tmp_path, small_config, small_bundle):
    curves = run_seq_vs_sim(small_config, small_bundle, max_outer=10)
    path = tmp_path / "seqsim.csv"
    write_seqsim(curves, path)
    parsed = list(csv.DictReader(open(path)))
    assert list(parsed[0]) == ["scheme", "step", "cum_work", "abs_subopt"]
    schemes = {row["scheme"] for row in parsed}
    assert "simultaneous" in schemes


def test_config_json_round_trip(tmp_path):
    config = ExperimentConfig(n=24, s=4, seed=9, epsilon=(0.2, 0.1),
                              regime="increasing", specification="learned",
                              rho_o=2.0, beta=1.04, c=0.5,
                              sequential_budgets=(0, 3), output_dir="x")
    path = tmp_path / "config.json"
    config.to_json(path)
    loaded = ExperimentConfig.from_json(path)
    assert loaded == config
    payload = json.loads(config.to_json())
    assert sorted(payload) == ["beta", "c", "epsilon", "n", "output_dir",
                               "regime", "rho_o", "s", "seed",
                               "sequential_budgets", "specification"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=5, s=6)
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(regime="warp")
    with pytest.raises(ValueError):
        ExperimentConfig(specification="psychic")
    # n // 2 samples: below n = 4 the sample covariance divides by zero
    for n in (2, 3):
        with pytest.raises(ValueError, match="n >= 4"):
            ExperimentConfig(n=n, s=1)
    ExperimentConfig(n=4, s=1)
    for name in ("rho_o", "beta", "c"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ExperimentConfig(**{name: bad})


@pytest.mark.parametrize("regime, beta", [("constant", 1.0), ("increasing", 1.05)])
def test_trace_overlays_are_the_bound_report_curves(regime, beta):
    inputs = BoundInputs(rho0=2.0, beta=beta, alpha0=1e-3, c=1.0, tau=0.5,
                         theta0_err=0.3, lambda0_err=0.7, lambda_star_norm=0.7,
                         kappa=4.0, L_f=0.5)
    x = np.full(3, 1.0 / 3.0)
    records = [AlmRecord(k=k, rho=2.0, alpha=1e-3, inner_iterations=1, x=x,
                         lam=np.zeros(1), x_bar=x, theta_err=0.0,
                         theta_err_rel=0.0, f_at_theta_star=0.0,
                         infeas_at_theta_star=0.0, f_rel_subopt=0.0,
                         learner_steps=k, cpu_learn_s=0.0, cpu_opt_s=0.0)
               for k in range(1, 9)]
    f_star = -0.05
    got = bound_curves_for_trace(AlmTrace(records=records, regime=regime),
                                 inputs, f_star)
    want = bound_report(inputs, k_max=8)["curves"]
    assert set(got) == set(BOUND_COLUMNS)
    for name in ("subopt_upper_bound", "subopt_lower_bound"):
        want[name] = want[name] / abs(f_star)
    for name in BOUND_COLUMNS:
        np.testing.assert_array_equal(got[name], want[name])
