import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from simalm import reference
from simalm.reference import (ReferenceSolveError, active_set_qp,
                              portfolio_reference, simplex_qp)
from simalm.experiments import make_sectors
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


def test_singular_step_raises_naming_the_iteration(monkeypatch):
    # a positive definite Q keeps every reduced KKT system nonsingular in
    # exact arithmetic, so the solve of the first step is made to fail
    def singular(K, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(reference.np.linalg, "solve", singular)
    with pytest.raises(ReferenceSolveError, match="singular .* at iteration 1$"):
        active_set_qp(np.eye(3), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("Q, message", [
    (-np.eye(4), "positive definite"),  # its maximizer, the uniform point, has KKT residual 0
    (np.zeros((4, 4)), "positive definite"),
    (np.diag([1.0, 1.0, 1.0, 0.0]), "positive definite"),
    (np.eye(4) + np.triu(np.full((4, 4), 0.1), 1), "symmetric"),
    (np.diag([1.0, 1.0, np.nan, 1.0]), "finite"),
    (np.eye(3), "finite n x n"),
], ids=["negative_definite", "zero", "singular", "nonsymmetric", "nan", "wrong_shape"])
def test_q_outside_the_contract_is_refused(Q, message):
    # Q must be symmetric positive definite; the nonsymmetric one has a
    # positive definite lower triangle, the only part Cholesky reads
    with pytest.raises(ValueError, match=message):
        active_set_qp(Q, np.zeros(4))


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


@pytest.mark.parametrize("c, G, d, message", [
    (np.zeros(3), np.ones((1, 3)), None, "G and d must be given together"),
    (np.zeros(3), None, np.ones(1), "G and d must be given together"),
    (np.zeros(3), np.ones((1, 3)), np.array([np.nan]), "d must be a finite vector"),
    (np.zeros(3), np.ones((1, 3)), np.ones(2), "d must be a finite vector"),
    (np.array([0.0, np.nan, 0.0]), None, None, "c must be a finite vector"),
    (np.zeros((3, 1)), None, None, "c must be a finite vector"),
    (np.zeros(3), np.ones((1, 2)), np.ones(1), "G must be a finite m x n"),
    (np.zeros(3), np.array([[np.inf, 0.0, 0.0]]), np.ones(1), "G must be a finite m x n"),
], ids=["G_without_d", "d_without_G", "nan_d", "d_wrong_length", "nan_c", "c_not_a_vector",
        "G_wrong_width", "infinite_G"])
def test_inputs_outside_the_contract_are_refused(c, G, d, message):
    # each used to be dropped or run: G without d (or a NaN d) lost the cap
    # rows, a NaN c ran to the iteration cap, a short d failed in numpy
    with pytest.raises(ValueError, match=message):
        active_set_qp(np.eye(3), c, G, d)


def test_nan_kkt_residual_raises(monkeypatch):
    # a NaN term wins the maximum wherever it sits, and fails the gate
    Q, c, G, d = np.eye(3), np.zeros(3), np.ones((1, 3)), np.ones(1)
    x = np.full(3, 1.0 / 3)
    # a NaN cap: stationarity is finite, the slack terms are NaN
    assert np.isnan(reference._kkt_residual(Q, c, G, np.array([np.nan]), x,
                                            np.zeros(1), -1.0 / 3, np.zeros(3)))
    monkeypatch.setattr(reference, "_kkt_residual", lambda *args: np.nan)
    with pytest.raises(ReferenceSolveError, match="KKT residual nan"):
        active_set_qp(Q, c, G, d)


def _no_crash(Q, c, G=None, d=None):
    """active_set_qp with its loop run without the crash phase."""
    run = reference._active_set
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "_active_set", lambda *args, crash: run(*args, crash=False))
        return active_set_qp(Q, c, G, d)


def _runs(monkeypatch):
    """Record the `crash` flag of every run of the loop."""
    run, runs = reference._active_set, []

    def recorded(*args, crash):
        runs.append(crash)
        return run(*args, crash=crash)

    monkeypatch.setattr(reference, "_active_set", recorded)
    return runs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_crash_start_matches_the_cold_start(data):
    n = data.draw(st.integers(2, 12))
    m = data.draw(st.integers(0, 5))
    # Q with eigenvalues down to 1e-6, in a drawn orthonormal basis
    F = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    U = np.linalg.qr(F)[0]
    Q = (U * data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-6, 1.0)))) @ U.T
    Q = 0.5 * (Q + Q.T)
    c = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    # degenerate rows: zero, all ones, duplicates, and rows active at the
    # uniform point (no slack)
    G = np.zeros((m, n))
    for i in range(m):
        kind = data.draw(st.sampled_from(["random", "zero", "ones", "duplicate"]))
        if kind == "random":
            G[i] = data.draw(hnp.arrays(bool, n))
        elif kind == "ones":
            G[i] = 1.0
        elif kind == "duplicate" and i > 0:
            G[i] = G[data.draw(st.integers(0, i - 1))]
    slack = data.draw(hnp.arrays(np.float64, m, elements=st.sampled_from([0.0, 0.01, 0.1, 0.5])))
    d = G.sum(axis=1) / n + slack
    # both answer every draw, flat objectives (Q near 1e-6 I) included
    cold = _no_crash(Q, c, G, d)
    crash = active_set_qp(Q, c, G, d)
    assert cold["kkt_residual"] <= reference.KKT_TOL
    assert crash["kkt_residual"] <= reference.KKT_TOL
    # a rounding error delta in the gradient moves the minimizer by up to
    # delta / lambda_min(Q), so the two answers agree to 1e-12 at
    # lambda_min = 1 and more loosely on flatter objectives
    np.testing.assert_allclose(crash["x"], cold["x"], rtol=0.0,
                               atol=1e-12 / np.linalg.eigvalsh(Q).min())


def test_crash_gives_up_on_a_singular_system(monkeypatch):
    # x2 comes out negative and is fixed, and the violated row x1 + x3 <= 11/12
    # is then held: on the free coordinates x1, x3 it is parallel to the
    # simplex row, so the crash run's second system is singular
    Q, c = np.diag([2.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0])
    G = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    d = G.sum(axis=1) / 3 + np.array([0.25, 0.05, 0.05])
    with pytest.raises(ReferenceSolveError, match="singular .* at iteration 2$"):
        reference._active_set(reference._ReducedKKT(Q, G), Q, c, G, d, crash=True)
    cold = _no_crash(Q, c, G, d)
    runs = _runs(monkeypatch)
    out = active_set_qp(Q, c, G, d)
    assert runs == [True, False]
    for key in ("x", "lam", "nu", "eta", "kkt_residual"):
        np.testing.assert_array_equal(out[key], cold[key])
    # the two solves of the crash run count too
    assert out["iterations"] == 2 + cold["iterations"]

    # one free coordinate under the simplex row and a held row: LAPACK
    # returns x1 = 0 here without flagging the singular system, a point that
    # meets every cap but misses the simplex row, and the solve refuses it
    kkt = reference._ReducedKKT(np.eye(3), np.array([[0.3, 0.5, -1.5]]))
    fixed, held = np.array([False, True, True]), np.array([True])
    K = kkt.full[np.ix_([0, 3, 4], [0, 3, 4])]
    assert np.linalg.solve(K, [0.0, 1.0, -0.2])[0] == 0.0
    with pytest.raises(np.linalg.LinAlgError, match="misses its equality rows"):
        kkt.solve(fixed, held, np.zeros(1), np.array([1.0, -0.2]))


def test_cold_start_answers_when_the_crash_run_fails(monkeypatch):
    Q, cs = _small_qp()
    G, d = np.array([[1.0, 1.0, 0.0, 0.0]]), np.array([0.5])
    cold = _no_crash(Q, cs[0], G, d)
    run, runs = reference._active_set, []

    def fail_first(*args, crash):
        runs.append(crash)
        if len(runs) == 1:
            raise ReferenceSolveError("injected")
        return run(*args, crash=crash)

    monkeypatch.setattr(reference, "_active_set", fail_first)
    out = active_set_qp(Q, cs[0], G, d)
    # the first run had the crash phase, the second did not
    assert runs == [True, False]
    for key in ("x", "lam", "nu", "eta", "kkt_residual"):
        np.testing.assert_array_equal(out[key], cold[key])

    # when both runs fail, the second run's error is the one raised
    def fail_both(*args, crash):
        raise ReferenceSolveError(f"injected, crash={crash}")

    monkeypatch.setattr(reference, "_active_set", fail_both)
    with pytest.raises(ReferenceSolveError, match="crash=False"):
        active_set_qp(Q, cs[0], G, d)


def test_a_cycle_ends_at_the_first_repeated_working_set(monkeypatch):
    # a solve that cycles: without the row x1 <= 0.6 held the target breaks
    # it, and with the row held the target is feasible but the row's
    # multiplier is negative, so the loop adds and drops it forever
    def cycling(self, fixed, held, top, bottom):
        self.solves += 1
        return np.array([0.6, 0.4, 0.0, -1.0]) if held.any() else np.array([0.8, 0.2, 0.0])

    monkeypatch.setattr(reference._ReducedKKT, "solve", cycling)
    Q, c, G, d = np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([0.6])
    kkt = reference._ReducedKKT(Q, G)
    # the crash phase holds the row and ends at the feasible target; the
    # sets it saw do not count against the loop after it
    with pytest.raises(ReferenceSolveError, match="working set repeated at iteration 5$"):
        reference._active_set(kkt, Q, c, G, d, crash=True)
    assert kkt.solves == 4
    with pytest.raises(ReferenceSolveError, match="working set repeated at iteration 3$"):
        active_set_qp(Q, c, G, d)


@pytest.mark.parametrize("crash", [True, False])
def test_flat_objective_answers(crash):
    # Q = 1e-6 I up to rounding: the rounding in a step is about
    # eps |c| / 1e-6, far above any fixed step tolerance, while the first
    # target is feasible and ends the loop
    U = np.linalg.qr(np.full((3, 3), 1e-6))[0]
    Q = (U * np.full(3, 1e-6)) @ U.T
    out = (active_set_qp if crash else _no_crash)(Q, np.ones(3))
    assert out["kkt_residual"] <= reference.KKT_TOL
    assert out["iterations"] == 1


def test_rows_that_pin_a_coordinate_with_the_simplex_row():
    # rows x1 <= 0.2 and x2 + ... + x5 <= 0.8 pin x1 = 0.2 with the simplex
    # row; on this flat objective the targets are about 1e5 in size, and the
    # second pinning row must not read as broken by the rounding of x1
    Q, c = 1e-6 * np.eye(5), np.array([0.6578368251438275, 0.0, 0.0, 0.0, 0.5])
    G = np.array([np.ones(5), np.eye(5)[0], np.zeros(5), [0.0, 1.0, 1.0, 1.0, 1.0], np.ones(5)])
    d = np.array([1.0, 0.2, 0.0, 0.8, 1.0])
    for out in (active_set_qp(Q, c, G, d), _no_crash(Q, c, G, d)):
        assert out["kkt_residual"] <= reference.KKT_TOL
        np.testing.assert_allclose(out["x"], [0.2, 0.8 / 3, 0.8 / 3, 0.8 / 3, 0.0], atol=1e-12)


def test_a_target_entry_just_below_zero_is_feasible():
    # the optimum (1, 0) is a degenerate vertex where the cap x1 <= 1, x2 >= 0
    # and the simplex row meet; the target that reaches it has x2 = -1.1e-16,
    # and fixing x2 there would leave the cap and the simplex row on x1 alone,
    # a singular system
    Q, c = np.diag([1.0, 0.5]), np.array([-0.9, 0.8])
    G, d = np.array([[1.0, 0.0]]), np.array([1.0])
    for out in (active_set_qp(Q, c, G, d), _no_crash(Q, c, G, d)):
        assert out["kkt_residual"] <= reference.KKT_TOL
        np.testing.assert_allclose(out["x"], [1.0, 0.0], rtol=0.0, atol=1e-15)


def test_crash_phase_alone_answers_a_sector_qp(monkeypatch):
    # caps just above the uniform load: holding every violated cap at once
    # makes a reduced system singular here, while holding the most violated
    # one per round reaches a feasible guess that the loop then verifies
    # (a run from the uniform point without the guess takes 13 solves)
    rng = np.random.default_rng(131)
    F = rng.standard_normal((12, 12))
    Q, c = F @ F.T / 12 + 0.1 * np.eye(12), rng.uniform(-1.0, 1.0, 12)
    G = make_sectors(12, 4, rng)
    d = np.full(4, G.sum(axis=1).max() / 12 + 0.01)
    runs = _runs(monkeypatch)
    out = active_set_qp(Q, c, G, d)
    assert runs == [True]
    assert out["kkt_residual"] <= reference.KKT_TOL
    assert out["iterations"] <= 3
