import csv
import dataclasses
import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from simalm import experiments, inner_apg
from simalm.bounds import BoundInputs, bound_report
from simalm.experiments import (ExperimentConfig, band_covariance,
                                bound_curves_for_trace, bound_inputs_for_run,
                                make_sectors, prepare_bundle, run_seq_vs_sim,
                                run_solve, run_table, write_seqsim,
                                write_table, _certified_rate, _schedule)
from simalm.learning import AdmmScsLearner
from simalm.linalg import spectral_norm
from simalm.model import NonFiniteError, _curvature_pair, portfolio_problem
from simalm.outer_alm import (AlmRecord, AlmTrace, Schedule, ScheduleError,
                              StopRule, TRACE_COLUMNS, BOUND_COLUMNS, alm_run)
from conftest import count_factorisations, read_only


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
    bundle1, bundle2 = prepare_bundle(config), prepare_bundle(config)
    # p = n // 2 = 15 centred samples span a sample covariance of rank p - 1
    assert np.linalg.matrix_rank(bundle1.scs.S) == 14
    assert bundle1.instance.to_json() == bundle2.instance.to_json()
    np.testing.assert_array_equal(bundle1.scs.S, bundle2.scs.S)


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
    qp, qp_iterations = reference.active_set_qp, []

    def qp_counted(*args, **kwargs):
        out = qp(*args, **kwargs)
        qp_iterations.append(out["iterations"])
        return out

    monkeypatch.setattr(reference, "active_set_qp", counted("qp", qp_counted))
    bundle = prepare_bundle(small_config)
    # one ADMM solve; two QPs: the cap-free simplex_qp and the reference
    assert calls == {"admm": 1, "qp": 2}
    # KKT solves of each QP; the uniform start alone took 20 and 24
    assert qp_iterations[0] <= 5 and qp_iterations[1] <= 9
    monkeypatch.undo()

    # the history is the bundle's record itself, every sweep the solve ran
    record = bundle.scs.record
    assert len(record.sigmas) == bundle.learner_errors.size
    _, info = admm_solve(bundle.scs, tol=1e-9)
    assert all(a is b for a, b in zip(info["history"], record.sigmas, strict=True))

    # recomputed from scratch on a fresh problem (no recorded sweeps)
    scs = dataclasses.replace(bundle.scs)
    sigma_star, info = admm_solve(scs, tol=1e-9)
    errors = np.array([np.linalg.norm(S - sigma_star, "fro")
                       for S in info["history"]])
    ref = reference.portfolio_reference(bundle.instance, sigma=sigma_star)
    np.testing.assert_array_equal(bundle.sigma_star, sigma_star)
    np.testing.assert_array_equal(bundle.learner_errors, errors)
    assert bundle.tau_hat == _certified_rate(errors)
    assert bundle.reference.f_value == ref.f_value
    assert bundle.learner_errors.size == info["sweeps"]


def test_bundle_shares_the_record_sigma_star(small_bundle):
    # the bundle keeps the ADMM record's read-only Sigma*, and a known run's
    # FrozenLearner holds that very array, uncopied
    sigma_star = small_bundle.sigma_star
    assert sigma_star is small_bundle.scs.record.sigmas[small_bundle.learner_errors.size - 1]
    with pytest.raises(ValueError, match="read-only"):
        sigma_star[0, 0] = 0.0
    assert experiments._learner(small_bundle, "known").theta is sigma_star


def test_learned_grid_replays_the_bundle_record(monkeypatch, small_config):
    from simalm import learning

    bundle = prepare_bundle(small_config)
    counts = {"sweeps": 0, "eigh": 0}
    learners = []
    sweep, eigh = learning.scs_admm_step, learning.jacobi_eigh

    def counted_sweep(problem, state):
        counts["sweeps"] += 1
        return sweep(problem, state)

    def counted_eigh(M):
        counts["eigh"] += 1
        return eigh(M)

    class KeptLearner(AdmmScsLearner):
        def __init__(self, problem):
            super().__init__(problem)
            learners.append(self)

    monkeypatch.setattr(learning, "scs_admm_step", counted_sweep)
    monkeypatch.setattr(learning, "jacobi_eigh", counted_eigh)
    monkeypatch.setattr(experiments, "AdmmScsLearner", KeptLearner)
    for regime in ("constant", "increasing"):
        for eps in (1e-1, 1e-2, 1e-3):
            run_solve(small_config, eps, bundle, specification="learned",
                      regime=regime)
    assert len(learners) == 6
    # step k reveals sweep k + 1, and the record holds one sweep per learner
    # error: a learner past the record holds its last sweep, Sigma*, and
    # runs none
    beyond = [learner for learner in learners
              if learner.steps_taken >= bundle.learner_errors.size]
    assert beyond
    for learner in beyond:
        np.testing.assert_array_equal(learner.theta, bundle.sigma_star)
        assert learner.theta is bundle.scs.record.sigmas[-1]
    assert counts == {"sweeps": 0, "eigh": 0}
    assert len(bundle.scs.record.sigmas) == bundle.learner_errors.size
    with pytest.raises(ValueError):
        AdmmScsLearner(bundle.scs).theta[0, 0] = 1.0


def test_learned_grid_computes_each_distance_once(distances, small_config):
    # prepare_bundle takes the distance of every recorded Sigma_k from
    # Sigma*, which every run's theta errors then read from the memo; the
    # grid's six runs add only the anchors' Weyl shifts between recorded
    # thetas, and no pair is computed twice
    bundle = prepare_bundle(small_config)
    record = bundle.scs.record.sigmas
    assert distances == [(id(S), id(bundle.sigma_star)) for S in record]
    for regime in ("constant", "increasing"):
        for eps in (1e-1, 1e-2, 1e-3):
            run_solve(small_config, eps, bundle, specification="learned",
                      regime=regime)
    shifts = distances[len(record):]
    assert shifts
    recorded = {id(S) for S in record}
    assert all(a in recorded and b in recorded for a, b in shifts)
    assert len(set(distances)) == len(distances)


def _count_spectra(monkeypatch):
    """The bytes of every theta np.linalg.eigh factors from now on."""
    seen = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        seen.append(np.asarray(M).tobytes())
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return seen


def _csv_without_timing(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0])
            if name not in ("cpu_learn_s", "cpu_opt_s")]
    return [[row[i] for i in keep] for row in rows]


def test_bundle_runs_factor_each_theta_once_bit_for_bit(monkeypatch, tmp_path,
                                                        small_config):
    # a fresh bundle: the module's small_bundle carries a warm memo
    bundle = prepare_bundle(small_config)
    seen = _count_spectra(monkeypatch)

    def outputs(tag):
        out = {}
        for regime in ("constant", "increasing"):
            for eps in (1e-1, 1e-2, 1e-3):
                trace, curves = run_solve(small_config, eps, bundle,
                                          specification="learned", regime=regime)
                path = tmp_path / f"{tag}_{regime}_{eps:g}.csv"
                trace.to_csv(path, bound_curves=curves)
                out[regime, eps] = (
                    [(r.x, r.lam, r.x_bar) for r in trace.records],
                    (trace.total_inner, len(trace)), _csv_without_timing(path))
        return out

    def assert_equal(got, want):
        assert got.keys() == want.keys()
        for key, (iterates, counts, csv_rows) in want.items():
            assert got[key][1] == counts and got[key][2] == csv_rows
            for a, b in zip(got[key][0], iterates, strict=True):
                for u, v in zip(a, b, strict=True):
                    np.testing.assert_array_equal(u, v)

    cold = outputs("cold")
    assert 0 < len(seen) == len(set(seen))  # once per distinct theta
    factored = len(seen)
    assert_equal(outputs("warm"), cold)
    assert len(seen) == factored
    path = tmp_path / "seqsim.csv"
    write_seqsim(run_seq_vs_sim(small_config, bundle, max_outer=30), path)
    seqsim = path.read_bytes()
    assert len(seen) == len(set(seen))

    # the same runs on the problem without the memo
    def plain(self, kappa=None):
        problem = portfolio_problem(self.instance,
                                    kappa=self.kappa if kappa is None else kappa)
        return dataclasses.replace(problem, smooth_curvature=_curvature_pair)

    monkeypatch.setattr(experiments.InstanceBundle, "problem", plain)
    assert_equal(cold, outputs("plain"))
    write_seqsim(run_seq_vs_sim(small_config, bundle, max_outer=30), path)
    assert path.read_bytes() == seqsim


def test_curvature_memo_skips_non_finite_thetas(monkeypatch, small_config):
    bundle = prepare_bundle(small_config)
    problem = bundle.problem()
    raw = _curvature_pair

    def answer(oracle, theta):
        # the pair, or the error of a LAPACK build that refuses theta
        try:
            return repr(oracle(theta))
        except np.linalg.LinAlgError as exc:
            return repr(exc)

    for bad in (np.nan, np.inf):
        for i, j in ((0, 0), (0, 1)):
            theta = bundle.sigma_star.copy()
            theta[i, j] = theta[j, i] = bad
            want = answer(raw, theta)
            seen = _count_spectra(monkeypatch)
            assert [answer(problem.smooth_curvature, theta)
                    for _ in range(2)] == [want, want]
            assert len(seen) == 2
            monkeypatch.undo()
    # a run still stops at a non-finite estimate, before its solve
    learner = AdmmScsLearner(bundle.scs)
    step = learner.step

    def nan_step():
        theta = step().copy()  # the learner hands out read-only record entries
        theta[0, 0] = np.nan
        return theta

    learner.step = nan_step
    with pytest.raises(NonFiniteError, match="non-finite theta at epoch 1$"):
        alm_run(problem, learner, _schedule(small_config, bundle, 0.1),
                np.full(small_config.n, 1.0 / small_config.n),
                theta_star=bundle.sigma_star, stop=StopRule(max_outer=5))


def test_curvature_memo_answers_a_read_only_theta_by_identity_per_bundle(
        monkeypatch, small_config):
    # a read-only theta is factored once per problem and met again by
    # identity, each entry as long as its theta lives; another bundle, a
    # copy of this one included, starts with no entries
    bundle = prepare_bundle(small_config)
    record = bundle.scs.record.sigmas
    assert not record[0].flags.writeable
    pairs = [bundle.problem().smooth_curvature(theta) for theta in record[:3]]
    seen = _count_spectra(monkeypatch)
    problem = bundle.problem()
    assert [problem.smooth_curvature(theta) for theta in record[:3]] == pairs
    assert seen == []
    other = dataclasses.replace(bundle)
    assert other.problem().smooth_curvature(record[2]) == pairs[2]
    assert len(seen) == 1


def test_curvature_memo_factors_a_writable_theta_at_every_call(monkeypatch,
                                                              small_config):
    # a writable theta, even a copy of a read-only theta the memo holds, is
    # factored at every call, bit for bit as the read-only one
    bundle = prepare_bundle(small_config)
    problem = bundle.problem()
    theta = bundle.sigma_star
    pair = problem.smooth_curvature(theta)
    seen = _count_spectra(monkeypatch)
    writable = theta.copy()
    assert [problem.smooth_curvature(writable) for _ in range(2)] == [pair, pair]
    assert len(seen) == 2
    assert problem.smooth_curvature(theta) == pair
    assert len(seen) == 2


def test_curvature_memo_entry_dies_with_its_theta(monkeypatch, small_config):
    # the oracle is a frozen_memo of the problem's own: an entry holds its
    # theta by weak reference and goes when theta is collected, so the memo
    # holds no pair of a dead theta; a lookup answers only for the very
    # array an entry refers to, so an entry left at the address of another
    # array is factored past
    bundle = prepare_bundle(small_config)
    problem = bundle.problem()
    memo = problem.smooth_curvature.entries
    thetas = [read_only(bundle.sigma_star * (1.0 + 0.01 * j)) for j in range(5)]
    pairs = [problem.smooth_curvature(theta) for theta in thetas]
    assert len(memo) == 5
    del thetas[1:]
    gc.collect()
    assert len(memo) == 1
    seen = _count_spectra(monkeypatch)
    assert problem.smooth_curvature(thetas[0]) == pairs[0]
    assert seen == []
    other = read_only(2.0 * bundle.sigma_star)
    memo[(id(other),)] = (pairs[0], weakref.ref(thetas[0]))
    assert problem.smooth_curvature(other) == _curvature_pair(other)
    assert len(seen) == 2


def test_curvature_memo_is_consistent_across_threads(small_config):
    # threads sharing a bundle's problem, storing entries and dropping them
    # with their thetas all the time, never read one theta's pair for
    # another and never fail
    bundle = prepare_bundle(small_config)
    problem = bundle.problem()
    thetas = bundle.scs.record.sigmas[:4]
    raw = _curvature_pair
    want = [raw(theta) for theta in thetas]
    wrong = []

    def work(offset):
        try:
            for i in range(300):
                j = (i + offset) % len(thetas)
                # every third call a read-only copy, which dies after it
                theta = read_only(thetas[j]) if i % 3 == 0 else thetas[j]
                if problem.smooth_curvature(theta) != want[j]:
                    wrong.append(j)
        except Exception as exc:  # a thread's error would not fail the test
            wrong.append(exc)

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


def test_bundle_norm_answers_only_its_own_A(monkeypatch, small_config):
    # a bundle's problem reads ||A|| from spectral_norm's memo while A is
    # the read-only array it last normed, bit for bit what an SVD gives; a
    # replaced A, or a writable copy of A, takes an SVD at every call, and
    # the copy written in place gives its new norm. The instance's own A
    # refuses the write
    from simalm.inner_apg import lipschitz_nu

    bundle = prepare_bundle(small_config)
    problem = bundle.problem()
    A = bundle.instance.sector_matrix
    theta = bundle.sigma_star
    L_p = problem.smooth_curvature(theta)[0]
    writable = A.copy()
    mutated = A.copy()
    mutated[0, 0] = 1.0 - mutated[0, 0]
    want = [L_p + 2.0 * float(np.linalg.norm(M, 2)) ** 2
            for M in (A, 2.0 * A, mutated)]
    calls = count_factorisations(monkeypatch)

    def svds():
        return [shape for kind, shape in calls if kind == "svd"]

    assert lipschitz_nu(portfolio_problem(bundle.instance), 2.0, theta) == want[0]
    assert svds() == [A.shape]
    assert lipschitz_nu(problem, 2.0, theta) == want[0]
    assert svds() == [A.shape]
    offset = problem.constraint(theta)[1]
    doubled = dataclasses.replace(problem, constraint=lambda th: (2.0 * A, offset))
    assert lipschitz_nu(doubled, 2.0, theta) == want[1]
    assert len(svds()) == 2
    copied = dataclasses.replace(problem, constraint=lambda th: (writable, offset))
    assert lipschitz_nu(copied, 2.0, theta) == want[0]
    assert len(svds()) == 3
    writable[0, 0] = 1.0 - writable[0, 0]
    assert lipschitz_nu(copied, 2.0, theta) == want[2]
    assert len(svds()) == 4
    assert lipschitz_nu(problem, 2.0, theta) == want[0]
    assert len(svds()) == 4
    with pytest.raises(ValueError):
        A[0, 0] = 1.0 - A[0, 0]
    assert lipschitz_nu(problem, 2.0, theta) == want[0]
    assert len(svds()) == 4


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
    # a fresh learner's errors stay under that rate's envelope until they
    # reach the floor below which the ADMM limit itself is inexact
    learner = AdmmScsLearner(small_bundle.scs)
    errors = [np.linalg.norm(learner.theta - small_bundle.sigma_star, "fro")]
    errors += [np.linalg.norm(learner.step() - small_bundle.sigma_star, "fro")
               for _ in range(small_bundle.learner_errors.size - 2)]
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
    # kappa = ||A|| D_x / psd_floor, with D_x = 1 on the simplex
    assert small_bundle.kappa == (spectral_norm(small_bundle.instance.sector_matrix)
                                  / small_bundle.scs.psd_floor)


def test_kappa_is_computed_once_per_bundle(monkeypatch, small_config, small_bundle):
    # each run reads the bundle's one problem for its solve and for its
    # overlays; across both grids, from an empty spectral_norm memo, one
    # SVD of A is taken, behind kappa and every solve's ||A||^2
    calls = count_factorisations(monkeypatch)
    bundle = dataclasses.replace(small_bundle)
    for spec in ("known", "learned"):
        for regime in ("constant", "increasing"):
            for eps in (1e-1, 1e-2, 1e-3):
                trace, _ = run_solve(small_config, eps, bundle,
                                     specification=spec, regime=regime)
                assert trace.converged, (spec, regime, eps)
    assert [shape for kind, shape in calls if kind == "svd"] == \
        [bundle.instance.sector_matrix.shape]
    assert bundle.problem().constants.kappa == bundle.kappa
    assert bound_inputs_for_run(bundle, _schedule(small_config, bundle, 0.5),
                                "learned").kappa == bundle.kappa


def test_run_table_rows_meet_targets(small_config, small_bundle):
    rows = run_table(small_config, small_bundle)
    assert len(rows) == 1
    row = rows[0]
    assert not row.flagged
    assert row.rel_subopt <= row.epsilon
    assert row.infeas <= row.epsilon
    assert row.outer >= 1 and row.inner_total >= 1


@pytest.mark.parametrize("fault", ["budget_cap", "nan_theta"])
def test_run_table_flags_only_cap_failures(monkeypatch, small_config,
                                          small_bundle, fault):
    # a BudgetError, the one cap failure, flags its row; any other error
    # propagates, a NaN estimate at epoch 2 among them
    if fault == "budget_cap":
        monkeypatch.setattr(inner_apg, "MAX_ITERATIONS", 0)
        [row] = run_table(small_config, small_bundle)
        assert row.flagged and row.outer == 0 and np.isnan(row.rel_subopt)
        return
    make_learner = experiments._learner

    def nan_from_step_2(bundle, specification):
        learner = make_learner(bundle, specification)
        step = learner.step

        def faulty_step():
            theta = np.array(step(), copy=True)
            if learner.steps_taken >= 2:
                theta[0, 0] = np.nan
            return theta

        learner.step = faulty_step
        return learner

    monkeypatch.setattr(experiments, "_learner", nan_from_step_2)
    with pytest.raises(NonFiniteError, match="theta at epoch 2$"):
        run_table(small_config, small_bundle)


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
    from simalm.model import PortfolioInstance
    from simalm.outer_alm import make_constant_schedule
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


@pytest.mark.parametrize("regime", ["constant", "increasing"])
@pytest.mark.parametrize("specification", ["known", "learned"])
def test_rate_is_chosen_once(small_config, small_bundle, regime, specification):
    config = dataclasses.replace(small_config, regime=regime,
                                 specification=specification)
    schedule = _schedule(config, small_bundle, 0.1)
    if specification == "learned":
        assert schedule.tau == small_bundle.tau_hat
    else:
        assert schedule.tau == experiments._KNOWN_RATE
    inputs = bound_inputs_for_run(small_bundle, schedule, specification)
    assert inputs.schedule is schedule


def test_constant_schedule_is_checked_against_the_learned_rate(
        monkeypatch, small_config, small_bundle):
    # a certified rate >= 1 is refused when the schedule is built, before
    # any epoch runs
    bundle = dataclasses.replace(small_bundle, tau_hat=1.2)
    monkeypatch.setattr(experiments, "alm_run",
                        lambda *args, **kwargs: pytest.fail("an epoch ran"))
    with pytest.raises(ScheduleError, match="tau = 1.2 must lie in"):
        run_solve(small_config, 0.1, bundle, specification="learned",
                  regime="constant")


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


def test_seq_vs_sim_csv_does_not_depend_on_the_budget_order(tmp_path, small_config):
    # each run keeps its curvature carry on its own anchor, and the memos
    # of the curvature pair and of ||A|| answer as the pure oracles do, so
    # the order of the runs, and of the memos' fill, cannot change a byte
    # of the CSV; a fresh bundle, so the first order runs on a cold memo
    small_bundle = prepare_bundle(small_config)
    written = []
    for budgets in ((0, 2, 4, 6), (6, 2, 0, 4)):
        config = dataclasses.replace(small_config, sequential_budgets=budgets)
        path = tmp_path / f"seqsim_{budgets[0]}.csv"
        write_seqsim(run_seq_vs_sim(config, small_bundle, max_outer=30), path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


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
    path.write_text(config.to_json() + "\n")
    loaded = ExperimentConfig.from_json(path.read_text())
    assert loaded == config
    payload = json.loads(config.to_json())
    assert sorted(payload) == ["beta", "c", "epsilon", "n", "output_dir",
                               "regime", "rho_o", "s", "seed",
                               "sequential_budgets", "specification"]


@pytest.mark.parametrize("n, s, peak", [(20, 4, 0.3), (100, 3, 0.39), (10, 2, 0.5)])
def test_sector_overload_in_every_draw_is_a_config_error(n, s, peak):
    # the uniform portfolio loads some sector to at least the 0.3 cap in
    # every draw, so no seed can give a usable instance: a ValueError that
    # names n, s, the least peak load and the cap, not a convergence failure
    with pytest.raises(ValueError) as info:
        prepare_bundle(ExperimentConfig(n=n, s=s, seed=0))
    message = str(info.value)
    assert f"n={n}, s={s}" in message
    assert f"smallest peak uniform load {peak:g}" in message
    assert "sector cap 0.3" in message


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
        # a JSON true passed as 1.0 and was written back as true, and a
        # string died in math.isfinite, naming no field
        for bad in (True, "1.0"):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                ExperimentConfig(**{name: bad})
    for name, bad in (("n", 30.0), ("s", True), ("seed", 3.5),
                      ("sequential_budgets", (0, 2.0))):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: bad})
    with pytest.raises(ValueError, match="must be nonnegative"):
        ExperimentConfig(sequential_budgets=(0, -2))
    # a negative seed passed and failed at the first draw, in numpy
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ExperimentConfig(seed=-3)
    ExperimentConfig(seed=0)
    # a repeated budget ran its baseline twice for one sequential_<b> curve
    for repeated in ((2, 2), (0, 4, np.int64(0))):
        with pytest.raises(ValueError, match="sequential_budgets must be distinct"):
            ExperimentConfig(sequential_budgets=repeated)
    # each epsilon names one trace file, trace_*_eps{epsilon:g}.csv: a
    # repeated one ran twice into one file
    for repeated in ((0.1, 0.1), (0.1, 0.01, np.float64(0.1)), (0.1, 0.1000001)):
        with pytest.raises(ValueError, match="epsilon values must be distinct"):
            ExperimentConfig(epsilon=repeated)
    # a scalar failed with "'float' object is not iterable", and a string
    # was read one character at a time; so for the budgets
    for name, bad in (("epsilon", 0.1), ("epsilon", "0.1"), ("epsilon", np.float64(0.1)),
                      ("sequential_budgets", 2), ("sequential_budgets", "024")):
        with pytest.raises(ValueError, match=f"{name} must be a sequence"):
            ExperimentConfig(**{name: bad})
    # numpy integers are counts too, stored as ints so the config serializes
    config = ExperimentConfig(n=np.int64(30), s=np.int32(5), seed=np.uint8(3),
                              sequential_budgets=np.arange(3))
    assert ExperimentConfig.from_json(config.to_json()) == config
    assert type(config.n) is int and config.sequential_budgets == (0, 1, 2)


def test_empty_epsilon_is_refused():
    # an empty accuracy list ran no solve, wrote header-only tables, and
    # made bounds index its first report
    for empty in ((), []):
        with pytest.raises(ValueError, match="epsilon must hold at least one"):
            ExperimentConfig(epsilon=empty)


@pytest.mark.parametrize("regime, beta", [("constant", 1.0), ("increasing", 1.05)])
def test_trace_overlays_are_the_bound_report_curves(regime, beta):
    schedule = Schedule(rho0=2.0, alpha0=1e-3, c=1.0, beta=beta, tau=0.5)
    inputs = BoundInputs(schedule, theta0_err=0.3, lambda_star_norm=0.7,
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
