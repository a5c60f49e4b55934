import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.experiments import _certified_rate
from simalm.learning import (ADMM_PENALTY, AdmmScsLearner, FrozenLearner,
                             ScsProblem, SyntheticLearner, admm_solve,
                             eigh_clip, scs_admm_step, scs_init)
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


def eigenvalues(M):
    """Ascending eigenvalues of a symmetric M from LAPACK's eigh path.

    The values-only path behind np.linalg.eigvalsh is not accurate enough to
    check a projection on every build: with OpenBLAS 0.3.31 it returns
    +-14.408 for the 4 x 4 M that holds 14.5 at (0, 1) and (1, 0) and 1e-160
    everywhere else, whose extreme eigenvalues are +-14.5. eigh, the path
    eigh_clip itself takes, returns them to the last bits.
    """
    return np.linalg.eigh(M)[0]


def _tiny_with(n, tiny, entries):
    """Symmetric n x n matrix of `tiny` but for the given (i, j): value pairs."""
    M = np.full((n, n), tiny)
    for (i, j), value in entries.items():
        M[i, j] = M[j, i] = value
    return M


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


@pytest.mark.parametrize("make", [
    lambda S: SyntheticLearner(S, 1.5 * S, 0.5),
    lambda S: FrozenLearner(S),
    lambda S: AdmmScsLearner(ScsProblem(S=S)),
], ids=["synthetic", "frozen", "admm"])
def test_every_learner_hands_out_a_read_only_theta(make):
    learner = make(make_scs(n=5, seed=1).S)
    for _ in range(3):
        for theta in (learner.theta, learner.step()):
            with pytest.raises(ValueError, match="read-only"):
                theta[0, 0] = 1.0


def test_frozen_learner_holds_one_array_and_learns_nothing():
    writable = make_scs(n=4, seed=2).S.copy()
    frozen = FrozenLearner(writable)
    assert frozen.theta is not writable  # a writable input is copied
    np.testing.assert_array_equal(frozen.theta, writable)
    writable[0, 0] += 1.0
    assert frozen.theta[0, 0] != writable[0, 0]
    read_only = frozen.theta
    assert FrozenLearner(read_only).theta is read_only  # taken as is
    for _ in range(3):
        assert frozen.step() is read_only
    assert frozen.steps_taken == 0


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
# tiny entries around a few O(1) ones, on which eigvalsh's extreme eigenvalues
# can be off by more than the 1e-9 margin below (see eigenvalues)
@example((_tiny_with(4, 1.86e-157, {(0, 1): 14.5}), 1.0, np.eye(4)))
@example((_tiny_with(4, 1e-160, {(0, 1): 14.5}), 1.0, np.eye(4)))
@example((_tiny_with(7, 1.7528827788540596e-156, {(0, 2): 11.0, (0, 3): 1.5,
                                                    (3, 5): 100.5}), 1.0, np.eye(7)))
def test_eigh_clip_is_the_projection_onto_the_floored_cone(case):
    M, floor, Y = case
    scale = max(1.0, np.linalg.norm(M, 2))
    P = eigh_clip(M, floor)
    np.testing.assert_array_equal(P, P.T)
    assert eigenvalues(P).min() >= floor - 1e-12 * scale
    # variational inequality of the projection onto a closed convex set
    assert np.sum((M - P) * (Y - P)) <= 1e-10 * scale ** 2
    # a matrix already in the set is its own projection
    shift = floor - eigenvalues(M).min() + 1e-9 * scale
    feasible = M + max(shift, 0.0) * np.eye(M.shape[0])
    np.testing.assert_allclose(eigh_clip(feasible, floor), feasible,
                               rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(feasible, 2)))


@st.composite
def near_floor_cases(draw):
    """(M, floor): a symmetric M shifted so that its smallest eigenvalue
    lies within 4 ulps of floor, up to the rounding of the shift."""
    n = draw(st.integers(1, 12))
    A = symmetrize(draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3))))
    floor = draw(st.floats(1e-3, 10.0))
    ulps = draw(st.integers(-4, 4))
    margin = ulps * np.spacing(floor)
    shift = floor + margin - eigenvalues(A)[0]
    return A + shift * np.eye(n), floor


@settings(max_examples=150, deadline=None)
@given(clip_cases(), st.floats(1e-6, 1.0))
def test_eigh_clip_returns_in_cone_input_unchanged(case, margin):
    # the Cholesky cone test accepts a matrix inside the floored cone and
    # hands back its symmetrization, bit for bit
    M, floor, _ = case
    n = M.shape[0]
    scale = max(1.0, np.linalg.norm(M, 2))
    inside = M + (floor + margin * scale - eigenvalues(M)[0]) * np.eye(n)
    skew = np.triu(np.full((n, n), 1e-3), 1)
    skewed = inside + skew - skew.T
    np.testing.assert_array_equal(eigh_clip(skewed, floor), symmetrize(skewed))


@settings(max_examples=200, deadline=None)
@given(near_floor_cases())
def test_eigh_clip_near_the_floor_stays_within_the_stated_slack(case):
    # a smallest eigenvalue a few ulps either side of the floor: whichever
    # path takes it, the output is floored and within the slack of the
    # eigh projection, counting the slack once for the cone test and once
    # for the rounding of the eigensolvers that check it
    M, floor = case
    n = M.shape[0]
    slack = 2.0 * n * (n + 1) * 2.0 ** -52 * (np.linalg.norm(M, 2) + floor)
    P = eigh_clip(M, floor)
    np.testing.assert_array_equal(P, P.T)
    assert eigenvalues(P)[0] >= floor - slack
    assert np.linalg.norm(P - clip_lapack(M, floor), 2) <= slack


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_eigh_clip_rejects_non_finite(bad):
    # without the bad entry the first base passes the Cholesky cone test and
    # the second goes to eigh. LAPACK's Cholesky carries NaN, and an
    # infinite diagonal, into the factor without failing, so the fast path
    # needs its own check; eigh fails to converge on some positions
    for base in (np.diag([2.0, 2.0, 2.0, 2.0]), np.diag([-1.0, 2.0, 2.0, 2.0])):
        for at in [(0, 0), (3, 3), (1, 2), (3, 0)]:  # diagonal, off it, last row
            M = base.copy()
            M[at] = bad
            with pytest.raises(NonFiniteError, match="NaN or infinite"):
                eigh_clip(M, 0.1)


def test_scs_fixed_point_for_diagonal_feasible_s():
    # S diagonal and already feasible, upsilon irrelevant on the diagonal:
    # one sweep returns S and stays there
    S = np.diag([1.0, 2.0, 3.0])
    problem = ScsProblem(S=S, upsilon=0.4, psd_floor=0.5)
    state = scs_init(problem)
    state = scs_admm_step(problem, state)
    np.testing.assert_allclose(state.Sigma, S, atol=1e-12)
    state = scs_admm_step(problem, state)
    np.testing.assert_allclose(state.Sigma, S, atol=1e-12)
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
        state = scs_admm_step(problem, state)
        np.testing.assert_allclose(state.Sigma, state.Sigma.T, atol=1e-10)
        assert np.linalg.eigvalsh(state.Sigma).min() >= problem.psd_floor - 1e-10


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
        state = scs_admm_step(problem, state)
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


def test_scs_json_round_trip():
    problem = make_scs(n=4)
    payload = json.loads(problem.to_json())
    np.testing.assert_allclose(np.array(payload["S"]), problem.S)
    assert payload["upsilon"] == problem.upsilon
    assert payload["psd_floor"] == problem.psd_floor
    # schema keys are fixed; the splitting penalty is no field but the
    # module's ADMM_PENALTY, which the file keeps under admm_penalty
    assert sorted(payload) == ["S", "admm_penalty", "psd_floor", "upsilon"]
    assert [f.name for f in dataclasses.fields(ScsProblem)] == ["S", "upsilon", "psd_floor"]
    assert payload["admm_penalty"] == ADMM_PENALTY == 1.0


@pytest.fixture
def sweeps_run(monkeypatch):
    """The problem of every ADMM sweep run from here on, in order."""
    from simalm import learning

    run, sweep = [], learning.scs_admm_step

    def counted_sweep(problem, state):
        run.append(problem)
        return sweep(problem, state)

    monkeypatch.setattr(learning, "scs_admm_step", counted_sweep)
    return run


def test_start_factorisation_is_shared_read_only_and_per_problem(monkeypatch,
                                                                 sweeps_run):
    from simalm import learning

    problem = make_scs(n=8, seed=4)
    eigensolves = []
    eigh = learning.jacobi_eigh

    def counted_eigh(M):
        eigensolves.append(M)
        return eigh(M)

    def factors_of_S(prob):
        return [np.array_equal(M, prob.S) for M in eigensolves]

    monkeypatch.setattr(learning, "jacobi_eigh", counted_eigh)
    # the cold start factors S, then the target of the first sweep, which
    # lies outside the floored cone: once per problem. The first learner's
    # solve runs on through warm sweeps whose targets lie inside the cone
    first = AdmmScsLearner(problem)
    assert factors_of_S(problem) == [True, False]
    record = problem.record
    sweeps = len(record.sigmas)
    assert len(sweeps_run) == sweeps  # the cold start's sweep included
    # the record ends at admm_solve's converged sweep ...
    assert max(record.residuals[-1]) <= 1e-9 < max(record.residuals[-2])
    assert admm_solve(problem)[1]["sweeps"] == sweeps
    # ... and a second learner on the problem runs no sweep and no eigh
    eigensolves.clear()
    sweeps_run.clear()
    second = AdmmScsLearner(problem)
    assert eigensolves == [] and sweeps_run == []
    copied_problem = dataclasses.replace(problem)
    copied = AdmmScsLearner(copied_problem)
    assert factors_of_S(copied_problem) == [True, False]
    assert len(sweeps_run) == sweeps
    eigensolves.clear()
    sweeps_run.clear()
    for _ in range(2 * sweeps):
        theta = first.step()
        assert second.step() is theta
        np.testing.assert_array_equal(copied.step(), theta)
    assert eigensolves == [] and sweeps_run == []
    assert problem.record is record and len(record.sigmas) == sweeps

    start = record.sigmas[0]
    for block in (start, record.last.Sigma, record.last.Phi, record.last.U):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    # a fresh learner reveals the record entries themselves, read-only
    fresh = AdmmScsLearner(problem)
    assert fresh.theta is start
    with pytest.raises(ValueError):
        fresh.theta[0, 0] = 1.0
    revealed = fresh.step()
    assert revealed is record.sigmas[1] is fresh.theta
    with pytest.raises(ValueError):
        revealed[0, 0] = 1.0

    raised = dataclasses.replace(problem, psd_floor=0.5)
    assert raised.record is not record
    assert np.linalg.eigvalsh(raised.record.sigmas[0]).min() >= 0.5 - 1e-10
    assert np.linalg.eigvalsh(start).min() < 0.5


def test_learner_replays_the_record_and_holds_sigma_star(sweeps_run):
    recorded = make_scs(n=8, seed=4)
    sigma_star, info = admm_solve(recorded)
    sweeps = info["sweeps"]
    # the solve hands out the record's read-only Sigma*, uncopied
    assert sigma_star is info["history"][-1] is recorded.record.sigmas[sweeps - 1]
    assert not sigma_star.flags.writeable
    unrecorded = dataclasses.replace(recorded)  # has run no sweep yet
    sweeps_run.clear()
    replay = AdmmScsLearner(recorded)
    assert sweeps_run == []
    # on a problem without the record, the learner runs the solve
    fresh = AdmmScsLearner(unrecorded)
    assert len(sweeps_run) == sweeps
    assert all(problem is unrecorded for problem in sweeps_run)
    sweeps_run.clear()
    np.testing.assert_array_equal(replay.theta, fresh.theta)
    for k in range(1, 2 * sweeps):
        np.testing.assert_array_equal(replay.step(), fresh.step())
        np.testing.assert_array_equal(replay.theta, fresh.theta)
        # step k reveals sweep k + 1 up to the converged sweep, then holds it
        assert replay.theta is recorded.record.sigmas[min(k, sweeps - 1)]
        assert replay.steps_taken == fresh.steps_taken == k
    np.testing.assert_array_equal(replay.theta, sigma_star)
    assert sweeps_run == []
    assert len(recorded.record.sigmas) == len(unrecorded.record.sigmas) == sweeps


@pytest.mark.parametrize("tol", [np.nan, -1e-9, -np.inf])
def test_admm_solve_refuses_a_nan_or_negative_tol(tol, sweeps_run):
    # refused before any sweep; tol = 0 stays legal, as the cap checks of
    # test_admm_solve_reads_the_record_and_extends_it_only_past_its_end use it
    problem = make_scs(n=6, seed=2)
    with pytest.raises(ValueError, match="tol must be a non-negative number"):
        admm_solve(problem, tol=tol)
    assert sweeps_run == []


def test_admm_solve_reads_the_record_and_extends_it_only_past_its_end(monkeypatch):
    from simalm import learning

    problem = make_scs(n=6, seed=2)
    admm_solve(problem, tol=1e-8)
    record = problem.record
    recorded = len(record.sigmas)

    # a looser tol stops inside the record, as a fresh problem does
    sigma, info = admm_solve(problem, tol=1e-5)
    sigma_fresh, info_fresh = admm_solve(dataclasses.replace(problem), tol=1e-5)
    np.testing.assert_array_equal(sigma, sigma_fresh)
    for key in ("sweeps", "primal_residual", "dual_residual"):
        assert info[key] == info_fresh[key]
    assert info["sweeps"] < recorded == len(record.sigmas)

    # a tighter one runs on from the record's end and appends what it runs
    sigma, info = admm_solve(problem, tol=1e-11)
    sigma_fresh, info_fresh = admm_solve(dataclasses.replace(problem), tol=1e-11)
    np.testing.assert_array_equal(sigma, sigma_fresh)
    for key in ("sweeps", "primal_residual", "dual_residual"):
        assert info[key] == info_fresh[key]
    assert info["sweeps"] == len(record.sigmas) > recorded

    # the sweep cap holds inside the record and past its end
    recorded = len(record.sigmas)
    for cap in (3, recorded + 2):
        monkeypatch.setattr(learning, "_MAX_SWEEPS", cap)
        with pytest.raises(RuntimeError, match=f"within {cap} sweeps"):
            admm_solve(problem, tol=0.0)
        assert len(record.sigmas) == max(recorded, cap)
