import dataclasses
import functools
import logging
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm import inner_apg, outer_alm
from simalm.al_core import eval_L
from simalm.inner_apg import (MAX_ITERATIONS, ApgConfig, BudgetError,
                              CurvatureAnchor, _gap, apg_solve, certified_solve,
                              fista, grad_nu, iteration_budget, lipschitz_nu)
from simalm.linalg import frobenius_distance, spectral_norm, symmetrize
from simalm.learning import FrozenLearner, SyntheticLearner
from simalm.model import (NonFiniteError, _curvature_pair, constraint_value,
                          portfolio_problem, project_simplex, simplex_prox)
from simalm.outer_alm import StopRule, alm_run, make_constant_schedule
from simalm.reference import simplex_qp
from conftest import (count_factorisations, make_small_portfolio,
                      make_toy_problem, random_simplex_point, read_only)

EPS = float(np.finfo(float).eps)


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

    def step(y):
        seen.append(float(y[0]))
        return y + 1.0  # z_t = t for a unit drift

    fista(step, 1.0, np.zeros(1), 3)
    # y_2 = z_1 (m_1 = 1), y_3 = z_2 + ((m_2 - 1)/m_3)(z_2 - z_1)
    coef = (1.618033988749895 - 1.0) / 2.193527085331054
    assert seen[1] == pytest.approx(1.0)
    assert seen[2] == pytest.approx(2.0 + coef)


def test_one_dimensional_clamped_quadratic():
    # minimize (1/2)(x - 3)^2 over [0, 1]: one prox step from anywhere
    def step(y):
        return np.clip(y - (y - 3.0) / 1.0, 0.0, 1.0)

    x, steps = fista(step, 1.0, np.array([0.2]), 1)
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


@pytest.mark.parametrize("rho", [math.nan, math.inf, -1.0, 0.0])
def test_rho_not_finite_and_positive_is_refused_before_any_oracle_call(rho):
    # the solves divide by rho and scale by it, so they refuse it up front
    # rather than blame a NaN gradient; lipschitz_nu takes rho = 0, the
    # curvature of p alone
    instance, portfolio = make_small_portfolio()
    called = []

    def spy(name):
        oracle = getattr(portfolio, name)

        def wrapped(*args):
            called.append(name)
            return oracle(*args)

        return wrapped

    spied = dataclasses.replace(portfolio, **{name: spy(name) for name in (
        "smooth_value_grad", "prox_step", "constraint_matrix",
        "constraint_offset", "smooth_curvature", "linear_min",
        "forward")})
    args = (spied, np.full(instance.n, 1.0 / instance.n), np.ones(instance.s),
            rho, instance.sigma)
    for solve in (lambda: apg_solve(*args, ApgConfig(alpha=1e-3)),
                  lambda: apg_solve(*args, ApgConfig(alpha=1e-3), certify=True),
                  lambda: certified_solve(*args, gap_tol=1e-3),
                  lambda: grad_nu(spied, *args[1:3], rho, instance.sigma)):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            solve()
    assert called == []
    if rho == 0.0:
        assert lipschitz_nu(portfolio, rho, instance.sigma) == \
            portfolio.smooth_curvature(instance.sigma)[0]
    else:
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            lipschitz_nu(portfolio, rho, instance.sigma)


def test_identity_constraint_matrix_curvature():
    # A = I, rho = 2, L_p = 1 -> 3
    from simalm.cones import NonnegativeOrthant
    from simalm.model import ParametricProblem, ProblemConstants

    n = 3
    problem = ParametricProblem(
        smooth_value_grad=lambda x, th: (0.5 * float(x @ x), np.asarray(x, float)),
        prox_step=project_simplex,
        constraint_matrix=lambda th: np.eye(n),
        constraint_offset=lambda th: np.zeros(n),
        cone=NonnegativeOrthant(n),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (1.0, 0.0),
        linear_min=lambda g: float(g.min()),
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
    # np.linalg.eigh (the portfolio's curvature oracle) and the SVDs
    # spectral_norm takes, the misses of its memo, which starts empty
    return count_factorisations(monkeypatch)


def _portfolio_lipschitz(theta, A, rho):
    # the curvature oracle's L_p without its memo, plus rho ||A||^2, each
    # from its own factorisation
    return _curvature_pair(theta)[0] + rho * float(np.linalg.norm(A, 2)) ** 2


def test_lipschitz_norms_computed_once_per_theta(decompositions):
    # lipschitz_nu and iteration_budget hold no cache of their own, but the
    # portfolio's curvature oracle keeps the pair of each frozen theta it
    # factored and spectral_norm the norm of each frozen matrix while it
    # lives: on one problem a frozen theta is factored once, and the
    # instance's frozen A normed once; a writable copy of theta is factored
    # at every call. A new problem factors theta again; norming another
    # matrix keeps A's entry, so a run on a frozen estimate on a new problem
    # factors theta once and takes no SVD
    instance, problem = make_small_portfolio()
    A = problem.constraint_matrix(instance.sigma)  # the instance's own array
    theta = instance.sigma
    assert not (A.flags.writeable or theta.flags.writeable)
    fresh = _portfolio_lipschitz(theta, A, 2.0)
    spectrum, norm = ("eigh", theta.shape), ("svd", A.shape)
    decompositions.clear()
    assert lipschitz_nu(problem, 2.0, theta) == fresh
    assert decompositions == [spectrum, norm]
    assert iteration_budget(problem, 2.0, theta, 1e-3) > 0
    assert decompositions == [spectrum, norm]
    assert lipschitz_nu(problem, 2.0, theta.copy()) == fresh
    assert decompositions == [spectrum, norm, spectrum]
    assert lipschitz_nu(portfolio_problem(instance), 2.0, theta) == fresh
    assert decompositions == [spectrum, norm, spectrum, spectrum]
    assert spectral_norm(read_only(np.eye(2))) == 1.0
    problem = portfolio_problem(instance)
    decompositions.clear()
    schedule = make_constant_schedule(1e-2, 2.0, learner_known=True)
    lam, x0 = np.ones(instance.s), np.full(instance.n, 1.0 / instance.n)
    trace = alm_run(problem, FrozenLearner(theta), schedule, x0=x0,
                    theta_star=instance.sigma, stop=StopRule(max_outer=4))
    assert len(trace) == 4
    assert decompositions == [spectrum]
    # a writable theta or A is recomputed at every call: after the caller
    # writes either in place, a solve on the anchor runs bit for bit as a
    # solve without an anchor. The portfolio's map serves only the
    # instance's own A, so the writable one is stepped without a map
    writable_theta, writable_A = theta.copy(), A.copy()
    own = dataclasses.replace(problem, constraint_matrix=lambda th: writable_A,
                              forward=None)
    anchor, config = CurvatureAnchor(), ApgConfig(alpha=1e-3)
    for mutate in (lambda: None, lambda: writable_theta.__imul__(2.0),
                   lambda: writable_A.__setitem__((0, 0), 1.0 - writable_A[0, 0])):
        mutate()
        decompositions.clear()
        x, steps = apg_solve(own, x0, lam, 2.0, writable_theta, config,
                             anchor=anchor)
        assert decompositions == [norm, spectrum]
        x_own, steps_own = apg_solve(own, x0, lam, 2.0, writable_theta, config)
        assert steps == steps_own
        np.testing.assert_array_equal(x, x_own)


def test_anchor_keeps_a_read_only_theta_and_meets_it_by_identity(monkeypatch):
    # a read-only theta is kept uncopied and answered without comparing
    # its entries; a writable one is not kept, as the in-place writes of
    # test_lipschitz_norms_computed_once_per_theta check. Whether the
    # frozen theta is finite is read once, for every anchor that factors it
    instance, problem = make_small_portfolio()
    theta = FrozenLearner(instance.sigma).theta
    isfinite, checks = np.isfinite, []

    def counting_isfinite(x, *args, **kwargs):
        checks.append(x is theta)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    anchor = CurvatureAnchor()
    L_p, mu, _ = anchor.curvature(problem, theta)
    assert CurvatureAnchor().curvature(problem, theta) == (L_p, mu, None)
    assert checks.count(True) == 1
    monkeypatch.setattr(np, "array_equal", None)
    assert anchor.curvature(problem, theta) == (L_p, mu, 0.0)


def test_no_cache_serves_a_read_only_view_of_a_writable_array_stale():
    # a write through its base changes a read-only view of a writable
    # array, so the view is not frozen (linalg.frozen): every cache of what
    # an array determines answers it as it is at the call, bit for bit as
    # from a fresh copy, and FrozenLearner holds a copy of it
    instance, problem = make_small_portfolio()
    theta_base, A_base = instance.sigma.copy(), instance.sector_matrix.copy()
    theta, A = theta_base[:], A_base[:]
    theta.flags.writeable = A.flags.writeable = False
    learner = FrozenLearner(theta)
    anchor, held = CurvatureAnchor(), problem.forward(problem)
    lam, rho, L = np.ones(instance.s), 2.0, 40.0
    y = np.full(instance.n, 1.0 / instance.n)
    stale = []
    for write in range(3):
        fresh_theta, fresh_A = theta.copy(), A.copy()
        pair = _curvature_pair(fresh_theta)
        served = {
            "spectral_norm": (spectral_norm(A), float(np.linalg.norm(fresh_A, 2))),
            "frobenius_distance": (frobenius_distance(theta, instance.sigma),
                                   float(np.linalg.norm(fresh_theta - instance.sigma))),
            "smooth_curvature": (problem.smooth_curvature(theta), pair),
            "CurvatureAnchor": (anchor.curvature(problem, theta), (*pair, None)),
            "forward map": (held(theta, lam, rho, L)(y).tolist(),
                            problem.forward(problem)(fresh_theta, lam, rho, L)(y).tolist()),
        }
        stale += [(name, write) for name, (got, want) in served.items() if got != want]
        theta_base *= 3.0
        A_base *= 2.0
    assert stale == []
    assert learner.theta.tolist() == instance.sigma.tolist()


def test_curvature_carried_only_with_a_lipschitz_constant(monkeypatch,
                                                         decompositions):
    # a run on the geometric thetas of a SyntheticLearner: without
    # L_curv_theta every distinct theta is factored; with the portfolio's
    # 1.0 fewer are. A carried solve runs as many steps as the same solve
    # on theta's own constants, so no budget solve runs more steps than
    # iteration_budget computed from them. Each run has a problem of its
    # own, so its curvature memo starts empty; A is normed once, by the
    # first run, and the second reads spectral_norm's memo
    instance, _ = make_small_portfolio(n=10, s=2, seed=8, sector_limit=0.65)
    schedule = make_constant_schedule(1e-2, 1.0, learner_known=False)
    solves = []

    def recording(problem, x_init, lam, rho, theta, config, **kwargs):
        x, steps = apg_solve(problem, x_init, lam, rho, theta, config, **kwargs)
        solves.append((problem, x_init.copy(), lam.copy(), rho, theta.copy(),
                       config, steps))
        return x, steps

    monkeypatch.setattr(outer_alm, "apg_solve", recording)
    spectra, svds = {}, {}
    for lipschitz in (None, 1.0):
        problem = portfolio_problem(instance)
        run_problem = dataclasses.replace(
            problem, constants=dataclasses.replace(problem.constants,
                                                   L_curv_theta=lipschitz))
        learner = SyntheticLearner(instance.sigma, 1.4 * instance.sigma, 0.3)
        decompositions.clear()
        trace = alm_run(run_problem, learner, schedule,
                        x0=np.full(instance.n, 0.1), theta_star=instance.sigma,
                        stop=StopRule(max_outer=12))
        assert len(trace) == 12
        spectra[lipschitz] = decompositions.count(("eigh", instance.sigma.shape))
        svds[lipschitz] = decompositions.count(("svd", instance.sector_matrix.shape))
    assert spectra[None] == 12
    assert svds == {None: 1, 1.0: 0}
    assert 0 < spectra[1.0] < 12
    assert len(solves) == 24
    for run_problem, x_init, lam, rho, theta, config, steps in solves:
        assert apg_solve(run_problem, x_init, lam, rho, theta, config)[1] == steps
        assert steps <= iteration_budget(run_problem, rho, theta, config.alpha)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.sampled_from(["definite", "singular", "indefinite"]),
       st.sampled_from([None, 0, -1]), st.floats(-15.0, 0.0),
       st.integers(0, 2**32 - 1))
@example(6, "definite", None, -12.0, 0)
def test_carried_curvature_bounds_the_factored_pair(n, kind, aligned, log_scale,
                                                    seed):
    # Weyl: carried from theta_a by d >= ||theta - theta_a||_F, the pair
    # bounds the curvature oracle's pair at theta = theta_a + E, L_p from
    # above and mu from below, for a positive definite, a singular positive
    # semidefinite and an indefinite theta_a. Both pairs bound the exact
    # spectrum, which neither computes, so they are compared to within the
    # oracle's rounding margin max(n, 32) eps max|eigenvalue|. An aligned E
    # lies along the eigenvector of theta_a's smallest (0) or largest (-1)
    # eigenvalue, where Weyl's bound is tight. A constant budget makes the
    # anchor carry whenever 2 d <= L_a - mu_a; the example's tiny E does.
    _, problem = make_small_portfolio(n=n, s=1)
    gen = np.random.default_rng(seed)
    F = gen.standard_normal((n, n))
    theta_a = read_only({"definite": F @ F.T / n + 0.1 * np.eye(n),
                         "singular": F[:, 1:] @ F[:, 1:].T / n,
                         "indefinite": symmetrize(F)}[kind])
    scale = 10.0 ** log_scale * gen.choice([-1.0, 1.0])
    if aligned is None:
        E = scale * symmetrize(gen.standard_normal((n, n)))
    else:
        v = np.linalg.eigh(theta_a)[1][:, aligned]
        E = scale * np.outer(v, v)
    theta = theta_a + E
    anchor = CurvatureAnchor()
    pair_a = problem.smooth_curvature(theta_a)
    assert anchor.curvature(problem, theta_a) == (*pair_a, None)
    L_c, mu_c, d = anchor.curvature(problem, theta, lambda L_p, mu: (1, 1))
    L_p, mu = problem.smooth_curvature(theta)
    shift = np.linalg.norm(theta - theta_a)
    if 2.0 * (1.0 + 1e-9) * shift <= pair_a[0] - pair_a[1]:
        assert d is not None
    if d is None:
        assert (L_c, mu_c) == (L_p, mu)
        return
    margin = max(n, 32) * np.finfo(float).eps * L_p
    assert d >= shift
    assert L_c >= L_p - margin
    assert mu_c <= mu + margin
    # a carry leaves the anchor where it was
    assert anchor.curvature(problem, theta_a) == (*pair_a, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.floats(-12.0, -0.1), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 2**32 - 1))
@example(2, -3.0, 1.0, 0)
def test_weyl_shift_bounds_the_exact_norm_at_the_tight_case(n, log_scale, sign,
                                                            seed):
    # E = theta - theta_a is rank one along theta_a's top eigenvector, so
    # ||E||_2 = ||E||_F and Weyl's bound is attained: a shift short of the
    # exact ||E||_F by an ulp would undercut it. np.linalg.norm rounds that
    # norm down for about half of these E (the example among them), so the
    # carried d must be rounded up past it, and the pair shifted by d, all
    # checked in exact arithmetic
    from fractions import Fraction

    _, problem = make_small_portfolio(n=n, s=1)
    gen = np.random.default_rng(seed)
    F = gen.standard_normal((n, n))
    theta_a = read_only(F @ F.T / n + 0.1 * np.eye(n))
    L_a, mu_a = problem.smooth_curvature(theta_a)
    v = np.linalg.eigh(theta_a)[1][:, -1]
    theta = theta_a + sign * 10.0 ** log_scale * 0.5 * (L_a - mu_a) * np.outer(v, v)
    anchor = CurvatureAnchor()
    anchor.curvature(problem, theta_a)
    L_c, mu_c, d = anchor.curvature(problem, theta, lambda L_p, mu: (1, 1))
    assert d is not None
    exact_sq = sum((Fraction(t) - Fraction(t_a)) ** 2
                   for t, t_a in zip(theta.ravel().tolist(), theta_a.ravel().tolist()))
    assert Fraction(d) ** 2 >= exact_sq
    assert Fraction(L_c) >= Fraction(L_a) + Fraction(d)
    assert Fraction(mu_c) <= max(Fraction(0), Fraction(mu_a) - Fraction(d))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_theta_is_always_factored(caplog, bad):
    # the QP ignores theta, so its solves run to the end; only the choice
    # between a carried and a factored curvature sees theta, and an anchor
    # at a non-finite theta carries nothing either. The thetas are
    # read-only, as a learner hands them out, so the anchor may hold them
    from simalm.model import ProblemConstants

    n = 6
    gen = np.random.default_rng(4)
    F = gen.standard_normal((n, n))
    qp = _simplex_qp_problem(F @ F.T / n + 0.2 * np.eye(n), gen.standard_normal(n))
    problem = dataclasses.replace(qp, constants=ProblemConstants(
        L_h_theta=0.0, L_f=0.0, D_x=1.0, L_curv_theta=1.0))
    theta = read_only(np.zeros(3))
    near = read_only(theta + 1e-12)
    broken = theta.copy()
    broken[1] = bad
    broken = read_only(broken)
    anchor = CurvatureAnchor()
    x0 = np.full(n, 1.0 / n)
    thetas = (theta, near, broken, near, near, broken, broken)
    with caplog.at_level(logging.DEBUG, logger="simalm"):
        for th in thetas:
            apg_solve(problem, x0, np.zeros(1), 1.0, th, ApgConfig(alpha=1e-6),
                      anchor=anchor)
    kinds = [re.search(r" curvature=(\w+) ", r.getMessage()).group(1)
             for r in caplog.records]
    assert kinds == ["factored", "carried", "factored", "factored", "carried",
                     "factored", "factored"]
    # the last solve left no anchor; without budgets an anchor factors; and
    # one carries nothing to a non-finite theta, even under a budget that
    # always allows a carry
    def always(L_p, mu):
        return 1, 1

    assert anchor.curvature(problem, near, always)[2] is None
    assert anchor.curvature(problem, theta)[2] is None
    assert anchor.curvature(problem, near, always)[2] > 0.0
    assert anchor.curvature(problem, broken, always)[2] is None


class _ScriptedLearner:
    """Reveals the given read-only thetas in order, one per epoch, uncopied."""

    def __init__(self, thetas):
        assert not any(t.flags.writeable for t in thetas)
        self._thetas = thetas
        self.steps_taken = 0

    @property
    def theta(self):
        return self._thetas[self.steps_taken]

    def step(self):
        self.steps_taken += 1
        return self.theta


def test_lipschitz_memo_follows_theta_dependent_constraints(monkeypatch,
                                                            decompositions):
    # the toy problem's A = A0 + theta_0 A1 is a fresh, writable array at
    # every call, so the run's solves take an SVD of A at every solve; the
    # learner reveals one read-only array until theta changes, and the
    # run's anchor factors the curvature only when it does, also without
    # L_curv_theta, and every solve runs the exact L of its theta
    from simalm import inner_apg

    toy = make_toy_problem()
    assert toy.constants.L_curv_theta is None
    factored = []

    def curvature(theta):
        factored.append(theta.tolist())
        return toy.smooth_curvature(theta)

    first, second, third = (read_only(t) for t in ([0.3, 1.0], [0.3, 2.0],
                                                    [-0.7, 1.0]))
    thetas = [first, first, second, third, second]
    used = []
    fista = inner_apg.fista

    def recording(step, L, *args, **kwargs):
        used.append(L)
        return fista(step, L, *args, **kwargs)

    monkeypatch.setattr(inner_apg, "fista", recording)
    decompositions.clear()  # lambda_min(P), taken when the toy is built
    trace = alm_run(dataclasses.replace(toy, smooth_curvature=curvature),
                    _ScriptedLearner(thetas),
                    make_constant_schedule(1e-2, 3.0, learner_known=False),
                    x0=np.full(3, 1.0 / 3.0), theta_star=first,
                    stop=StopRule(max_outer=len(thetas)))
    assert len(trace) == len(thetas)
    assert decompositions == len(thetas) * [("svd", (2, 3))]
    assert factored == [t.tolist() for t in thetas[:1] + thetas[2:]]
    assert used == [lipschitz_nu(toy, 3.0, t) for t in thetas]


def test_lipschitz_is_consistent_across_threads_sharing_a_problem():
    # threads sharing one problem never read one theta's norms for another
    instance, problem = make_small_portfolio(n=4, s=2)
    thetas = [instance.sigma, 2.0 * instance.sigma, instance.sigma + np.eye(instance.n)]
    want = [lipschitz_nu(problem, 3.0, t) for t in thetas]
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
def test_lipschitz_bounds_gradient_differences(F, rho, seed):
    # ||grad nu(x) - grad nu(y)|| <= L ||x - y||, with the same L on a copy
    # of theta
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
def test_lipschitz_bounds_toy_gradient_differences(theta, rho, seed):
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
            # L_rho's x-gradient is grad nu
            fd[i] = (eval_L(toy_problem, x + e, lam, rho, theta)
                     - eval_L(toy_problem, x - e, lam, rho, theta)) / (2 * h)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-6


def test_prox_fixed_point_at_solution():
    # minimize (1/2)||x - v||^2 over the simplex; the solution is the
    # projection of v and must be a fixed point of the prox-gradient map
    from simalm.cones import NonnegativeOrthant
    from simalm.model import ParametricProblem, ProblemConstants

    n = 4
    v = np.array([0.9, -0.3, 0.25, 0.4])
    problem = ParametricProblem(
        smooth_value_grad=lambda x, th: (0.5 * float((x - v) @ (x - v)),
                                         np.asarray(x, float) - v),
        prox_step=project_simplex,
        constraint_matrix=lambda th: np.zeros((1, n)),
        constraint_offset=lambda th: np.array([-1.0]),
        cone=NonnegativeOrthant(1),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (1.0, 0.0),
        linear_min=lambda g: float(g.min()),
    )
    x_star = project_simplex(v)
    g = grad_nu(problem, x_star, np.zeros(1), 1.0, None)
    np.testing.assert_allclose(problem.prox_step(x_star - g), x_star,
                               atol=1e-12)


def _simplex_qp_problem(Q, c):
    from simalm.cones import NonnegativeOrthant
    from simalm.model import ParametricProblem, ProblemConstants

    n = c.size
    L_Q = float(np.linalg.norm(Q, 2))
    mu_Q = float(np.linalg.eigvalsh(Q)[0])

    return ParametricProblem(
        smooth_value_grad=lambda x, th: (0.5 * float(x @ Q @ x) + float(c @ x),
                                         Q @ x + c),
        prox_step=project_simplex,
        constraint_matrix=lambda th: np.zeros((1, n)),
        constraint_offset=lambda th: np.array([-1.0]),  # h = -1 <= 0: inert
        cone=NonnegativeOrthant(1),
        constants=ProblemConstants(L_h_theta=0.0, L_f=0.0, D_x=1.0),
        smooth_curvature=lambda th: (L_Q, mu_Q),
        linear_min=lambda g: float(g.min()),
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
    values = []

    def track(y, z):
        values.append(0.5 * float(z @ Q @ z) + float(c @ z))
        return False

    def step(y):
        return simplex_prox(y, Q @ y + c, L)

    fista(step, L, x0, 50, stop=track)
    r2 = float((x0 - x_star) @ (x0 - x_star))
    for t in (5, 10, 50):
        assert values[t - 1] - f_star <= 2.0 * L * r2 / (t + 1) ** 2 + 1e-12


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
        z, _ = fista(lambda y: simplex_prox(y, Q @ y + c, L), L, x0, steps)
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

    def recording_fista(step, L, x0, max_steps, mu=0.0, **kwargs):
        loops.append((max_steps, mu))
        return fista(step, L, x0, max_steps, mu=mu, **kwargs)

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
    # theta is read-only, as a learner hands it out, so an anchor may hold it
    theta, lam, rho, alpha = read_only([0.1, -0.2]), np.ones(2), 2.0, 1e-3
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
    # without an anchor the solve factors theta
    assert fields["curvature"] == "factored" and float(fields["shift"]) == 0.0
    # a run's anchor carries the pair to a nearby theta, shifted by at least
    # the distance, and the line keeps budget= last
    carrying = dataclasses.replace(
        toy_problem, constants=dataclasses.replace(toy_problem.constants,
                                                   L_curv_theta=1.0))
    anchor, near = CurvatureAnchor(), theta + np.array([3e-9, -4e-9])
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="simalm"):
        for th in (theta, near):
            apg_solve(carrying, x0, lam, rho, th, ApgConfig(alpha=alpha),
                      epoch=4, anchor=anchor)
    first, second = (dict(tok.split("=") for tok in r.getMessage().split()
                          if "=" in tok) for r in caplog.records)
    assert first["curvature"] == "factored" and second["curvature"] == "carried"
    assert float(first["shift"]) == 0.0 and float(second["shift"]) >= 5e-9
    assert float(second["L"]) >= float(first["L"])
    assert list(second)[-1] == "budget"
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
    def grad(x):
        return problem.smooth_value_grad(x, theta)[1]

    zero = grad(np.zeros(n))
    H = np.column_stack([grad(e) - zero for e in np.eye(n)])
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
    # without a convexity modulus (mu = 0) the a-priori budget runs
    L_p = toy_problem.smooth_curvature(theta)[0]
    plain = dataclasses.replace(toy_problem,
                                smooth_curvature=lambda th: (L_p, 0.0))
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
        value, grad = problem.smooth_value_grad(x, theta)
        return value, (np.full_like(grad, np.nan) if len(calls) == 1 else grad)

    # the portfolio's forward map refuses a replaced smooth_value_grad, so
    # the replaced problem drops it for the generic one
    bad = dataclasses.replace(problem, smooth_value_grad=nan_on_first_call,
                              forward=None)
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
        fista(lambda y: y - y / 2.0, 2.0, np.zeros(2), 3, mu=mu)
    fista(lambda y: y - y / 2.0, 2.0, np.zeros(2), 3, mu=2.0)


def test_zero_modulus_runs_the_fista_sequence_bit_for_bit(rng):
    # mu = 0 (the default) runs the FISTA momentum sequence: every iterate
    # equals that of the loop written out in the test
    instance, problem = make_small_portfolio(sector_limit=0.35)
    lam = np.abs(rng.standard_normal(instance.s))
    grad = _reference_grad(problem, lam, 4.0, instance.sigma)
    L = lipschitz_nu(problem, 4.0, instance.sigma)

    def prox(y, g, Lc):
        return simplex_prox(y, g, Lc)

    def step(y):
        return prox(y, grad(y), L)

    x0 = np.full(instance.n, 1.0 / instance.n)
    want = _reference_loop(step, L, x0, 0.0, steps=40)
    for kwargs in ({}, {"mu": 0.0}):
        seen = []

        def record(y, z):
            seen.append(z)
            return False

        z, steps = fista(step, L, x0, 40, stop=record, **kwargs)
        assert steps == 40 and np.array_equal(z, want[-1])
        assert all(np.array_equal(a, b) for a, b in zip(seen, want, strict=True))
    # so does a budget solve of a problem without a modulus, on the
    # portfolio's forward map after a first step from the warm start's
    # gradient, and on the generic forward map without it, each step
    # projecting with the solve's support hint
    L_p = problem.smooth_curvature(instance.sigma)[0]
    plain = dataclasses.replace(problem, smooth_curvature=lambda th: (L_p, 0.0))
    for run_problem in (plain, dataclasses.replace(plain, forward=None)):
        x, steps = apg_solve(run_problem, x0, lam, 4.0, instance.sigma,
                             ApgConfig(alpha=1e-1))
        assert steps == iteration_budget(plain, 4.0, instance.sigma, 1e-1)
        run_step, first = _reference_steps(run_problem, grad, lam, 4.0,
                                           instance.sigma, L)
        want = _reference_loop(run_step, L, x0, 0.0, steps=steps, first=first)
        assert np.array_equal(x, want[-1])


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


def test_certified_value_is_the_augmented_lagrangian(rng, toy_problem):
    # the certified value is eval_L's, bit for bit
    instance, portfolio = make_small_portfolio()
    for problem, theta, m in ((portfolio, instance.sigma, instance.s),
                              (toy_problem, np.array([0.3, -0.5]), 2)):
        n = problem.constraint_matrix(theta).shape[1]
        for _ in range(3):
            lam = np.abs(rng.standard_normal(m))
            rho = rng.uniform(0.5, 4.0)
            x, value, _, _ = certified_solve(problem, np.full(n, 1.0 / n), lam,
                                             rho, theta, gap_tol=1e-6)
            assert value == eval_L(problem, x, lam, rho, theta)


def test_anchorless_solve_runs_on_a_fresh_anchor(rng, toy_problem):
    # a solve without an anchor is the same call on an empty CurvatureAnchor:
    # the same x, steps and certificate, bit for bit, with and without a
    # Lipschitz constant of the curvature
    instance, portfolio = make_small_portfolio()
    for problem, theta, m in ((portfolio, 1.1 * instance.sigma, instance.s),
                              (toy_problem, np.array([0.3, -0.5]), 2)):
        n = problem.constraint_matrix(theta).shape[1]
        x0 = random_simplex_point(rng, n)
        lam = np.abs(rng.standard_normal(m))
        args = (problem, x0, lam, 2.0, theta)
        x, steps = apg_solve(*args, ApgConfig(alpha=1e-4))
        x_a, steps_a = apg_solve(*args, ApgConfig(alpha=1e-4),
                                 anchor=CurvatureAnchor())
        assert steps == steps_a
        np.testing.assert_array_equal(x, x_a)
        x, value, cert, steps = certified_solve(*args, gap_tol=1e-6)
        got = certified_solve(*args, gap_tol=1e-6, anchor=CurvatureAnchor())
        np.testing.assert_array_equal(x, got[0])
        assert (value, cert, steps) == got[1:]


def test_projection_hint_lives_only_as_long_as_its_solve(rng):
    # each solve starts its projections without a hint, so a solve gives
    # the same x and steps, bit for bit, before and after other solves on
    # the same problem: on the portfolio's map and on the generic one, in
    # budget mode and with certify=True. The solves start near their
    # optimum, where a support left over from an earlier solve would pass
    # its test at the first step and move the iterates by rounding
    instance, portfolio = make_small_portfolio()
    n, theta = instance.n, instance.sigma
    for problem in (portfolio, dataclasses.replace(portfolio, forward=None)):
        for certify in (False, True):
            def solve(x_init, lam, rho, theta, alpha):
                return apg_solve(problem, x_init, lam, rho, theta,
                                 ApgConfig(alpha=alpha), certify=certify)

            for _ in range(3):
                lam = np.abs(rng.standard_normal(instance.s))
                warm, _ = solve(random_simplex_point(rng, n), lam, 3.0, theta, 1e-3)
                solve(random_simplex_point(rng, n), 10.0 * lam, 5.0, 2.0 * theta, 1e-4)
                x, steps = solve(warm, lam, 3.0, theta, 1e-9)
                solve(warm, lam, 3.0, theta, 1e-6)
                x_again, steps_again = solve(warm, lam, 3.0, theta, 1e-9)
                assert steps_again == steps
                assert x_again.tobytes() == x.tobytes()


def test_step_certificate_bounds_the_gap_at_every_step():
    # every step z = prox(y) of a certified solve is certified by its own
    # gradient mapping: cert >= F(z) - F*, also where the momentum point y
    # has left the simplex. A certified solve started at y with an infinite
    # tolerance takes that one step and returns (z, F(z), cert, 1). The
    # momentum points after the warm start are recorded by a forward map
    # that takes the generic step y - grad nu(y) / L, on the toy and in
    # place of the portfolio's own map.
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
        points = [x0]

        def forward(own):
            def retarget(theta, lam, rho, L):
                def recording(y):
                    points.append(y)
                    return y - grad_nu(own, y, lam, rho, theta) / L

                return recording

            return retarget

        recording = dataclasses.replace(problem, forward=forward)
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


def _vertex(g):
    # the vertex s of the simplex minimizing <g, s>
    s = np.zeros(g.size)
    s[int(np.argmin(g))] = 1.0
    return s


def _vertex_certificate(L, y, e):
    return L * (float(e @ (y - _vertex(e))) - 0.5 * float(e @ e))


def _certificate_rounding(L, y, e):
    # |closed form - vertex form| of the certificate L (gap(e, y) - ||e||^2
    # / 2): each form's <e, .> over n terms errs by at most n eps (|e| @
    # |y| + max |e|), y - s by eps |y_j - 1| in one entry, and the two
    # subtractions and the product by L by eps of their results, each at
    # most |e| @ |y| + max |e| + ||e||^2 before L
    n = e.size
    scale = float(np.abs(e) @ np.abs(y)) + float(np.abs(e).max()) + float(e @ e)
    return (2 * n + 8) * EPS * L * scale


def test_closed_form_gap_and_certificate_equal_the_vertex_forms():
    # the gap at x in the simplex, <g, x> - min_i g_i, and the certificate
    # L (<e, y> - min_i e_i - ||e||^2 / 2) at any y, the forms the inner
    # solve computes through the portfolio's linear_min, equal the forms
    # with the minimizing vertex s built here, <g, x - s> and L (<e, y - s>
    # - ||e||^2 / 2), within their rounding: for the gap (3 n + 6) eps max
    # |g|, as <g, x> errs by n eps max |g| (x >= 0 sums to 1), <g, x - s>
    # by 2 (n + 1) eps max |g| and the closed form's difference by eps
    # |gap| <= 2 eps max |g|; for the certificate _certificate_rounding.
    # Entries reach far outside X's range [0, 1]
    _, portfolio = make_small_portfolio()
    linear_min = portfolio.linear_min
    entries = st.floats(-1e12, 1e12, allow_nan=False, allow_subnormal=False)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=entries),
        hnp.arrays(float, n, elements=entries),
        hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))),
        st.floats(1e-3, 1e6), st.integers(0, 2**32 - 1))
    @example((np.array([1e12, -1e12, 3.0]), np.array([-1e12, 0.5, 1e12]),
              np.zeros(3)), 1.0, 0)
    def check(vectors, L, seed):
        g, y, weights = vectors
        n = g.size
        x = np.random.default_rng(seed).dirichlet(np.ones(n))
        x[weights > 0.5] = 0.0  # faces of the simplex too
        x = x / x.sum() if x.sum() > 0.0 else _vertex(weights)
        gap = _gap(linear_min, g, x)
        want = float(g @ (x - _vertex(g)))
        assert abs(gap - want) <= (3 * n + 6) * EPS * float(np.abs(g).max())
        e = g  # the step's e = y - z ranges as freely as a gradient
        cert = L * (_gap(linear_min, e, y) - 0.5 * float(e @ e))
        assert abs(cert - _vertex_certificate(L, y, e)) <= \
            _certificate_rounding(L, y, e)

    check()


def test_fused_step_certificate_bounds_the_gap_at_every_step(monkeypatch):
    # the twin of the test above on the portfolio's forward map: every step
    # after the first is one call of the map, and its (y, z) with z the
    # projection of the map's point is certified by its own gradient
    # mapping, cert = L (<e, y - s> - ||e||^2 / 2) >= F(z) - F* with e = y
    # - z and s the vertex minimizing <e, .>, also where the momentum point
    # y has left the simplex. The certificate certified_solve returns, the
    # closed form L (<e, y> - min_i e_i - ||e||^2 / 2) at the (y, z) its
    # last step passed to the stopping test, equals that vertex form within
    # _certificate_rounding
    instance, portfolio = make_small_portfolio(n=6, s=2)
    n, m = instance.n, instance.s
    records, outside, tested = [], [], []
    loop = inner_apg.fista

    def recording_fista(step, L, x0, max_steps, stop=None, mu=0.0, first=None):
        def recording_stop(y, z):
            tested.append((y, z, L))
            return stop(y, z)

        return loop(step, L, x0, max_steps, stop=recording_stop, mu=mu,
                    first=first)

    monkeypatch.setattr(inner_apg, "fista", recording_fista)

    def forward(own):
        retarget = portfolio.forward(own)

        def recording_map(theta, lam, rho, L):
            step = retarget(theta, lam, rho, L)

            def recording(y):
                v = step(y)
                records.append((y, portfolio.prox_step(v), L))
                return v

            return recording

        return recording_map

    recording = dataclasses.replace(portfolio, forward=forward)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.0, 3.0), st.floats(0.1, 30.0),
           st.integers(0, 2**32 - 1))
    def check(delta, lam_scale, rho, seed):
        gen = np.random.default_rng(seed)
        F = gen.standard_normal((n, n))
        theta = F @ F.T / n + delta * np.eye(n)
        lam = lam_scale * np.abs(gen.standard_normal(m))
        x0 = random_simplex_point(gen, n)
        _, f_ref, _, _ = certified_solve(portfolio, x0, lam, rho, theta, gap_tol=1e-12)
        records.clear()
        tested.clear()
        _, _, last, steps = certified_solve(recording, x0, lam, rho, theta,
                                            gap_tol=1e-7)
        assert len(records) == steps - 1 and len(tested) == steps
        for y, z, L in records:
            cert = _vertex_certificate(L, y, y - z)
            assert cert >= eval_L(portfolio, z, lam, rho, theta) - f_ref - 1e-12
        y, z, L = tested[-1]
        assert abs(last - _vertex_certificate(L, y, y - z)) <= \
            _certificate_rounding(L, y, y - z)
        outside.append(sum(1 for y, _, _ in records if y.min() < 0.0))

    check()
    assert sum(outside) > 0


def test_certified_step_evaluates_one_gradient(toy_problem):
    # one smooth_value_grad per step under both stopping rules: the first
    # step reuses the warm-start gradient of the gap, and the certificate
    # reuses the step's gradient; certified_solve takes one more for the
    # value eval_L it returns. The portfolio's forward map is cleared, so
    # every step takes the generic one (its twin is below)
    instance, portfolio = make_small_portfolio()
    calls = []
    for problem, theta, lam, x0 in (
            (portfolio, instance.sigma, np.full(instance.s, 0.3),
             np.full(instance.n, 1.0 / instance.n)),
            (toy_problem, np.array([0.7, -0.4]), np.ones(2), np.full(3, 1.0 / 3))):
        def counting(x, th, oracle=problem.smooth_value_grad):
            calls.append(1)
            return oracle(x, th)

        counted = dataclasses.replace(problem, smooth_value_grad=counting,
                                      forward=None)
        for solve, value_calls in (
                (lambda: certified_solve(counted, x0, lam, 2.0, theta, gap_tol=1e-7)[3], 1),
                (lambda: apg_solve(counted, x0, lam, 2.0, theta, ApgConfig(alpha=1e-7))[1], 0)):
            calls.clear()
            steps = solve()
            assert steps > 1
            assert len(calls) == steps + value_calls


def test_fused_solve_evaluates_one_gradient_and_one_map_per_later_step():
    # on the portfolio's forward map, under both stopping rules: one
    # smooth_value_grad, at the warm start for the gap, whose gradient also
    # takes the first step (certified_solve takes one more for the value
    # eval_L it returns); one map built per anchor, so per solve without
    # one and per run with one, and retargeted once per solve; one call of
    # its step per later step; and one projection per step. The counting
    # oracle is a functools.wraps wrapper, which the map takes for the
    # oracle it wraps
    instance, portfolio = make_small_portfolio()
    theta, lam = instance.sigma, np.full(instance.s, 0.3)
    x0 = np.full(instance.n, 1.0 / instance.n)
    grads, builds, retargets, maps, projections = [], [], [], [], []

    @functools.wraps(portfolio.smooth_value_grad)
    def counting_grad(x, th):
        grads.append(1)
        return portfolio.smooth_value_grad(x, th)

    def counting_forward(own):
        builds.append(1)
        retarget = portfolio.forward(own)

        def counting_map(*args):
            retargets.append(1)
            step = retarget(*args)

            def counting_step(y):
                maps.append(1)
                return step(y)

            return counting_step

        return counting_map

    def counting_prox(v, warm):
        projections.append(1)
        return portfolio.prox_step(v, warm)

    counted = dataclasses.replace(portfolio, smooth_value_grad=counting_grad,
                                  forward=counting_forward, prox_step=counting_prox)
    anchor = CurvatureAnchor()
    for solve, value_calls, built in (
            (lambda: certified_solve(counted, x0, lam, 2.0, theta, gap_tol=1e-7)[3], 1, 1),
            (lambda: apg_solve(counted, x0, lam, 2.0, theta, ApgConfig(alpha=1e-7))[1], 0, 1),
            (lambda: apg_solve(counted, x0, lam, 2.0, theta, ApgConfig(alpha=1e-7),
                               anchor=anchor)[1], 0, 1),
            (lambda: apg_solve(counted, x0, 2.0 * lam, 5.0, theta, ApgConfig(alpha=1e-7),
                               anchor=anchor)[1], 0, 0)):
        for calls in (grads, builds, retargets, maps, projections):
            calls.clear()
        steps = solve()
        assert steps > 1
        assert (len(grads), len(builds), len(retargets), len(maps), len(projections)) == \
            (1 + value_calls, built, 1, steps - 1, steps)


def test_iterates_stay_in_domain(rng, toy_problem):
    seen = []

    theta = np.array([0.2, 0.1])
    config = ApgConfig(alpha=1e-3)
    x, _ = apg_solve(toy_problem, np.full(3, 1 / 3), np.ones(2), 2.0, theta,
                        config)
    assert toy_problem.membership(x)


def test_config_validation(toy_problem):
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive"):
            ApgConfig(alpha=alpha)
    # certified_solve's gap_tol is the same alpha, refused before any solve
    x0, lam, theta = np.full(3, 1 / 3), np.ones(2), np.array([0.2, 0.1])
    with pytest.raises(ValueError, match="alpha must be positive"):
        certified_solve(toy_problem, x0, lam, 2.0, theta, gap_tol=math.nan)


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
    L = lipschitz_nu(portfolio, 4.0, instance.sigma)
    grad = _reference_grad(portfolio, lam, 4.0, instance.sigma)
    warm, _ = fista(lambda y: simplex_prox(y, grad(y), L), L, uniform, 60)
    # a modulus so small that sqrt(2 gap / mu) > D_x and FISTA's budget runs
    # at alpha = 1e-4 (the linear-rate one at 1e-7), and one smaller still,
    # where FISTA's budget is the shorter at 1e-7 too
    L_P = toy.smooth_curvature(None)[0]
    flat = dataclasses.replace(toy, smooth_curvature=lambda th: (L_P, 1e-4))
    flatter = dataclasses.replace(toy, smooth_curvature=lambda th: (L_P, 1e-6))
    return [
        (portfolio, instance.sigma, lam, 4.0, uniform),
        (portfolio, instance.sigma, lam, 4.0, warm),
        (dataclasses.replace(portfolio, forward=None), instance.sigma,
         lam, 4.0, warm),
        (toy, np.array([0.7, -0.4]), np.abs(rng.standard_normal(2)), 3.0,
         np.full(3, 1.0 / 3)),
        (flat, np.array([0.7, -0.4]), np.abs(rng.standard_normal(2)), 3.0,
         np.full(3, 1.0 / 3)),
        (flatter, np.array([0.7, -0.4]), np.abs(rng.standard_normal(2)), 3.0,
         np.full(3, 1.0 / 3)),
    ]


def _hinted_projection():
    # the simplex projection of one solve written out: a held support, a
    # 0/1 mask of size k, gives t = (v . mask - 1) / k, and max(v - t, 0) is
    # the result when t is finite and it sums to within n eps of 1; else the
    # support of max(v - t, 0) is tested next, three supports in all, and
    # then, as at the first call, the unhinted project_simplex (pinned by
    # test_model) runs. The support that passed, or the sorted result's, is
    # held from then on
    held = []

    def project(v):
        if held:
            mask, k = held
            for _ in range(3):
                t = (float(np.vdot(v, mask)) - 1.0) / k
                if not math.isfinite(t):
                    break
                x = np.maximum(v - t, 0.0)
                if abs(x.dot(np.ones(v.size)) - 1.0) <= v.size * np.finfo(float).eps:
                    held[:] = [mask, k]
                    return x
                mask, k = np.sign(x), np.count_nonzero(x)
                if k == 0:
                    break
        x = project_simplex(v)
        held[:] = [np.sign(x), np.count_nonzero(x)]
        return x

    return project


def _reference_steps(problem, grad, lam, rho, theta, L):
    # (step, first) of one solve, sharing a fresh hinted projection: first
    # projects the gradient step y - grad(y) / L, and so does step, or on a
    # problem with a forward map it projects the map written out below
    project = _hinted_projection()

    def generic(y):
        return project(y - grad(y) / L)

    if problem.forward is None:
        return generic, generic
    return _fused_reference(problem, lam, rho, theta, L, project), generic


def _fused_reference(problem, lam, rho, theta, L, project):
    # the portfolio's forward map and the projection written out from the
    # public oracles, in the arithmetic the library uses: the augmented
    # product w = [[I - theta/L, gamma mu / L], [A, b + lam/rho]] [y; 1],
    # where -gamma mu = grad p(0), then r = max(w[n:], 0) and project(w[:n]
    # - r (rho/L) A)
    A = problem.constraint_matrix(theta)
    n = A.shape[1]
    d = -problem.smooth_value_grad(np.zeros(n), theta)[1] / L
    c = problem.constraint_offset(theta) + lam / rho
    W = np.block([[np.eye(n) - theta / L, d[:, None]], [A, c[:, None]]])
    B = (rho / L) * A

    def step(y):
        w = W @ np.append(y, 1.0)
        r = np.maximum(w[n:], 0.0)
        return project(w[:n] - r @ B)

    return step


def _reference_loop(step, L, x0, mu, steps, gap_tol=None, first=None):
    # plain accelerated loop of at most `steps` steps z = step(y), the first
    # one z_1 = first(x0) when given, returning every iterate z_1, z_2, ...:
    # the momentum is (m_t - 1) / m_{t+1} with m_1 =
    # 1, m_{t+1} = (1 + sqrt(1 + 4 m_t^2)) / 2 for mu = 0, and (sqrt(L/mu) -
    # 1) / (sqrt(L/mu) + 1) for mu > 0. With gap_tol it stops earlier, at the
    # first step z = prox(y) whose gradient-mapping bound max_{x in X} L
    # <y - z, y - x> - (L/2) ||y - z||^2 on F(z) - F* is at most gap_tol;
    # over the simplex the max of <e, y - x> is <e, y> - min_i e_i
    iterates = []
    z, y, m = x0, x0, 1.0
    for t in range(steps):
        z_new = first(y) if t == 0 and first is not None else step(y)
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
    # and the oracle's mu: the first step from the warm start's gradient,
    # the later ones on the portfolio's forward map written out in the
    # test, or on the projected gradient step for a problem without the map
    # (the toys, and the portfolio with it cleared), each step projecting
    # with the solve's support hint, also written out. Both
    # run the shorter of FISTA's warm-start count
    # and the strongly convex count for their alpha, computed from the gap,
    # with the momentum of that count (the strongly convex loop runs only
    # when its count is shorter); the certified rule stops earlier, at the
    # first step whose gradient-mapping certificate is at most its alpha
    radii, linear, certified_linear = [], [], []
    for problem, theta, lam, rho, x0 in _pinning_cases(rng):
        grad = _reference_grad(problem, lam, rho, theta)
        L = lipschitz_nu(problem, rho, theta)
        mu = problem.smooth_curvature(theta)[1]
        alpha = 1e-4
        fista_budget, radius, linear_budget = _warm_budget(grad, L, alpha, x0, mu)
        radii.append(radius)
        linear.append(linear_budget < fista_budget)
        budget = min(fista_budget, linear_budget)
        step, first = _reference_steps(problem, grad, lam, rho, theta, L)
        want = _reference_loop(step, L, x0, mu if linear[-1] else 0.0,
                               steps=budget, first=first)
        got, steps = apg_solve(problem, x0, lam, rho, theta, ApgConfig(alpha=alpha))
        assert steps == len(want) == budget
        assert np.array_equal(got, want[-1])

        gap_tol = 1e-7
        fista_budget, _, linear_budget = _warm_budget(grad, L, gap_tol, x0, mu)
        certified_linear.append(linear_budget < fista_budget)
        budget = min(fista_budget, linear_budget)
        step, first = _reference_steps(problem, grad, lam, rho, theta, L)
        want = _reference_loop(step, L, x0, mu if certified_linear[-1] else 0.0,
                               steps=budget, gap_tol=gap_tol, first=first)
        got, _, _, steps = certified_solve(problem, x0, lam, rho, theta, gap_tol=gap_tol)
        assert steps == len(want) <= budget
        assert np.array_equal(got, want[-1])

        x = random_simplex_point(rng, x0.size)
        assert np.array_equal(grad_nu(problem, x, lam, rho, theta), grad(x))
    assert radii[0] == 1.0 and radii[1] < 0.1 and radii[2] == radii[1]
    assert linear == [True, True, True, True, False, False]
    assert certified_linear == [True, True, True, True, True, False]


def test_inconsistent_constraint_shapes_raise(toy_problem):
    bad = dataclasses.replace(toy_problem, constraint_offset=lambda th: np.zeros(3))
    x0, lam, theta = np.full(3, 1 / 3), np.zeros(2), np.zeros(2)
    with pytest.raises(ValueError, match="inconsistent"):
        apg_solve(bad, x0, lam, 1.0, theta, ApgConfig(alpha=1e-2))
    with pytest.raises(ValueError, match="inconsistent"):
        certified_solve(bad, x0, lam, 1.0, theta, gap_tol=1e-6)
    with pytest.raises(ValueError, match="inconsistent"):
        grad_nu(bad, x0, lam, 1.0, theta)
