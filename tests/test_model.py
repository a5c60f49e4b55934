import copy
import dataclasses
import functools
import gc
import itertools
import json
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simalm.al_core import dual_update, eval_L
from simalm.inner_apg import ApgConfig, apg_solve, certified_solve, grad_nu
from simalm.learning import FrozenLearner
from simalm.model import (NonFiniteError, PortfolioInstance,
                          constraint_value, evaluate_f, infeasibility,
                          portfolio_problem, project_simplex, simplex_prox)
from simalm.outer_alm import StopRule, alm_run, make_constant_schedule
from conftest import make_small_portfolio, random_simplex_point, read_only


def brute_force_simplex_projection(v):
    """Exact projection by enumerating support sets (dims <= 5)."""
    v = np.asarray(v, float)
    n = v.size
    best, best_val = None, np.inf
    for r in range(1, n + 1):
        for T in itertools.combinations(range(n), r):
            z = np.zeros(n)
            shift = (v[list(T)].sum() - 1.0) / r
            z[list(T)] = v[list(T)] - shift
            if np.all(z >= -1e-12):
                val = np.sum((z - v) ** 2)
                if val < best_val:
                    best, best_val = z, val
    return best


def test_simplex_prox_examples():
    np.testing.assert_allclose(simplex_prox([1.2, 0.8], np.zeros(2), 1.0), [0.7, 0.3])
    np.testing.assert_allclose(simplex_prox([2.0, -1.0], np.zeros(2), 1.0), [1.0, 0.0])
    y = np.array([0.25, 0.5, 0.25])
    np.testing.assert_allclose(simplex_prox(y, np.zeros(3), 2.0), y, atol=1e-14)


def test_simplex_prox_requires_positive_curvature():
    for L in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="must be positive"):
            simplex_prox([0.5, 0.5], np.zeros(2), L)


def test_simplex_projection_against_brute_force(rng):
    for n in (2, 3, 4, 5):
        for _ in range(30):
            v = rng.standard_normal(n) * 2.0
            got = project_simplex(v)
            want = brute_force_simplex_projection(v)
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_simplex_projection_properties(rng):
    for _ in range(200):
        v = rng.standard_normal(17) * 5.0
        x = project_simplex(v)
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)))
def test_simplex_projection_is_optimal(v):
    # p is the projection iff <v - p, z - p> <= 0 for every z on the simplex,
    # i.e. iff max_i (v - p)_i <= <v - p, p>. The threshold's rounding error
    # grows like n max|v|^2 eps, so the absolute 1e-12 is for unit-scale v.
    p = project_simplex(v)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    r = v - p
    assert r.max() <= r @ p + 1e-12


def reference_project_simplex(v):
    """The descending stable sort-and-threshold projection, written plainly."""
    v = np.asarray(v, dtype=float)
    u = -np.sort(-v, kind="stable")
    cssv = np.cumsum(u) - 1.0
    if not np.isfinite(cssv[-1]):
        raise NonFiniteError("simplex projection")
    passing = np.nonzero(u - cssv / np.arange(1, v.size + 1) > 0)[0]
    if passing.size == 0:
        raise NonFiniteError("simplex projection")
    rho = int(passing[-1])
    return np.maximum(v - cssv[rho] / (rho + 1.0), 0.0)


@st.composite
def tied_vectors(draw):
    # entries drawn from a small pool (+-0.0 included), so ties are common
    pool = draw(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0]),
                         min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    scale = draw(st.sampled_from([1.0, 0.2, 3.0, 1e8, 1e15]))
    return np.array([pool[i] for i in picks]) * scale


@settings(max_examples=400, deadline=None)
@given(tied_vectors()
       | hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e15, 1e15))
       | hnp.arrays(np.float64, 1, elements=st.floats(-1e15, 1e15)))
@example(np.array([-0.8, -0.8, 0.2]))
@example(np.array([0.0, -0.0, -0.0, 0.0]))
def test_simplex_projection_matches_reference_bit_for_bit(v):
    # [-0.8, -0.8, 0.2] passes the threshold test at sorted indices 0 and 2
    # but not 1; taking the count of passing indices instead of the last
    # one would return exact zeros where the reference returns 1.1e-16.
    try:
        want = reference_project_simplex(v)
    except NonFiniteError:
        with pytest.raises(NonFiniteError, match="simplex projection"):
            project_simplex(v)
        return
    assert project_simplex(v).tobytes() == want.tobytes()


def exact_simplex_projection(v):
    """The projection of the float vector v in rational arithmetic."""
    q = [Fraction(e) for e in v.tolist()]
    total, tau = Fraction(0), None
    for j, e in enumerate(sorted(q, reverse=True), 1):
        total += e
        if e > (total - 1) / j:  # the passing ranks are a prefix
            tau = (total - 1) / j
    return [max(e - tau, Fraction(0)) for e in q]


HINTS = ("true", "stale", "other", "full", "single")


def held_support(kind, v, j, other):
    """A projection hint for v: the support of v's own projection, that
    support with entry j flipped (unless that empties it), the support of
    other's projection, every entry, or entry j alone."""
    n = v.size
    if kind == "full":
        return {"mask": np.ones(n), "k": n}
    if kind == "single":
        mask = np.zeros(n)
        mask[j] = 1.0
        return {"mask": mask, "k": 1}
    warm = {}
    project_simplex(other if kind == "other" else v, warm)
    if kind == "stale" and warm["k"] - warm["mask"][j] > 0:
        mask = warm["mask"].copy()
        mask[j] = 1.0 - mask[j]
        warm = {"mask": mask, "k": int(np.count_nonzero(mask))}
    return warm


@st.composite
def hinted_cases(draw):
    v = draw(tied_vectors()
             | hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)))
    other = draw(hnp.arrays(np.float64, v.size, elements=st.floats(-1.0, 1.0)))
    return v, draw(st.sampled_from(HINTS)), draw(st.integers(0, v.size - 1)), other


def test_hinted_simplex_projection_is_the_projection():
    # whatever support the hint holds, a projection is the unhinted sort
    # path's, bit for bit, or one whose tested support passed, within (2 n +
    # 1) eps of the exact projection (project_simplex's docstring); the held
    # support passing keeps the hint as it is, and any other outcome holds a
    # 0/1 mask and its size. On unit-scale v the result passes the
    # optimality test of test_simplex_projection_is_optimal. The examples
    # make every kind of hint pass its test at least once, and the full
    # hint on [0.3, 0.2, -0.4] fails where its refinement, the support of
    # max(v - t, 0), passes. At 1e15, sum v - 1 rounds to sum v, so the
    # true support's t is the entries' value and max(v - t, 0) sums to 0,
    # which a one-sided test, sum <= 1 + n eps, would return
    passed = set()

    @settings(max_examples=400, deadline=None)
    @given(hinted_cases())
    @example((np.array([0.3, 0.2, -0.4]), "true", 0, np.zeros(3)))
    @example((np.array([0.5, 0.5, 0.0]), "stale", 2, np.zeros(3)))
    @example((np.array([0.3, 0.2, -0.4]), "other", 0, np.array([0.5, 0.6, -0.1])))
    @example((np.array([0.4, 0.5, 0.3]), "full", 1, np.zeros(3)))
    @example((np.array([0.3, 0.2, -0.4]), "full", 1, np.zeros(3)))
    @example((np.array([0.9, -0.5, -0.8]), "single", 0, np.zeros(3)))
    @example((np.array([-0.8, -0.8, 0.2]), "single", 1, np.zeros(3)))
    @example((np.full(10, 1e15), "true", 0, np.zeros(10)))
    def check(case):
        v, kind, j, other = case
        try:
            want = project_simplex(v)
        except NonFiniteError:
            warm = held_support(kind, other, j, other)
            with pytest.raises(NonFiniteError, match="simplex projection"):
                project_simplex(v, warm)
            return
        warm = held_support(kind, v, j, other)
        held = warm["mask"]
        got = project_simplex(v, warm)
        if warm["mask"] is held:
            passed.add(kind)
        if warm["mask"] is held or got.tobytes() != want.tobytes():
            bound = Fraction((2 * v.size + 1) * np.finfo(float).eps)
            exact = exact_simplex_projection(v)
            assert all(abs(Fraction(g) - e) <= bound
                       for g, e in zip(got.tolist(), exact))
        assert set(warm["mask"].tolist()) <= {0.0, 1.0}
        assert warm["k"] == np.count_nonzero(warm["mask"]) > 0
        if np.abs(v).max() <= 1.0:
            assert got.min() >= 0.0
            assert abs(got.sum() - 1.0) <= 1e-12
            r = v - got
            assert r.max() <= r @ got + 1e-12

    check()
    assert passed == set(HINTS)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [[0], [3], [0, 3], [1, 2, 3]])
def test_hinted_simplex_projection_rejects_non_finite(bad, where):
    # a NaN or infinite entry, inside the held support {0, 1}, outside it or
    # both, raises NonFiniteError and no RuntimeWarning (no inf - inf in
    # v - t), under every kind of hint
    v = np.array([0.9, 0.5, -0.4, -0.8, 0.1])
    for kind in HINTS:
        warm = held_support(kind, v, 2, -v)
        assert kind != "true" or warm["mask"].tolist() == [1, 1, 0, 0, 0]
        w = v.copy()
        w[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="NaN or infinite entries"):
                project_simplex(w, warm)


# (v, the supports a hint holds for it, the error's message). In the last
# three a hinted test overflowed: v - t in the first, the sum of x in the
# others, after a t of -1e308 in the second and of -0.5 in the third
EXTREMES = [
    ([np.inf, -np.inf], [[0, 1], [0], [1]], "NaN or infinite entries"),
    ([1e308, 1e308], [[0, 1], [0], [1]], "entries beyond float precision"),
    ([1e308, -1e308], [[1]], "entries beyond float precision"),
    ([-1e308, -1e308, 0.5, 0.5], [[0]], "entries beyond float precision"),
    ([1e308, 1e308, 0.5], [[2]], "entries beyond float precision")]


@pytest.mark.parametrize("v, held, message", EXTREMES,
                         ids=[f"v{i}-{case[2]}" for i, case in enumerate(EXTREMES)])
def test_simplex_projection_of_extremes_raises_without_warning(v, held, message):
    # inf - inf and an overflowing partial sum in the sort path, and an
    # overflow in a hinted test, raise the typed error, not a RuntimeWarning,
    # without a hint, with an empty one and with each held support; the
    # overflow names no NaN or inf
    v = np.array(v)
    warms = [None, {}]
    for support in held:
        mask = np.zeros(v.size)
        mask[support] = 1.0
        warms.append({"mask": mask, "k": len(support)})
    for warm in warms:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=message):
                project_simplex(v, warm)


@pytest.mark.parametrize("v", [[np.nan, np.nan], [np.inf, 1.0], [np.nan, 1.0],
                               [1.0, np.nan, 0.2], [-np.inf, 1.0],
                               [1e17, 0.0], [-1e17, -1e17]])
def test_simplex_projection_rejects_non_finite(v):
    with pytest.raises(NonFiniteError, match="simplex projection"):
        project_simplex(v)


def test_portfolio_objective_known_values():
    n = 4
    instance = PortfolioInstance(
        n=n, s=1, sector_matrix=np.ones((1, n)), sector_limits=np.array([1.0]),
        mu=np.zeros(n), risk_tradeoff=0.1, sigma=np.eye(n))
    problem = portfolio_problem(instance)
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert evaluate_f(problem, e1, np.eye(n)) == pytest.approx(0.5)
    uniform = np.full(n, 1.0 / n)
    assert evaluate_f(problem, uniform, np.eye(n)) == pytest.approx(1.0 / (2 * n))


def test_portfolio_objective_matches_naive(rng):
    instance, problem = make_small_portfolio()
    for _ in range(20):
        x = random_simplex_point(rng, instance.n)
        sigma = instance.sigma * rng.uniform(0.5, 1.5)
        naive = 0.5 * x @ sigma @ x - instance.risk_tradeoff * instance.mu @ x
        assert evaluate_f(problem, x, sigma) == pytest.approx(naive, rel=1e-12)


def test_constraint_value_and_infeasibility(rng):
    instance, problem = make_small_portfolio()
    x = random_simplex_point(rng, instance.n)
    h = constraint_value(problem, x, instance.sigma)
    np.testing.assert_allclose(h, instance.sector_matrix @ x - instance.sector_limits)
    # orthant cone: infeasibility is the norm of the positive part
    want = np.linalg.norm(np.maximum(h, 0.0))
    assert infeasibility(problem, x, instance.sigma) == pytest.approx(want)
    assert infeasibility(problem, x, instance.sigma) == pytest.approx(
        float(problem.cone.dist_neg(h)))


def _counted_constraint(problem, calls):
    """problem with its constraint oracle wrapped to record each theta it
    is called with; functools.wraps keeps it the portfolio's own oracle
    for its forward map."""
    oracle = problem.constraint

    @functools.wraps(oracle)
    def constraint(theta):
        calls.append(theta)
        return oracle(theta)

    return dataclasses.replace(problem, constraint=constraint)


_CONSTRAINT_READERS = {
    "apg_solve": lambda p, x, lam, th: apg_solve(p, x, lam, 1.0, th,
                                                  ApgConfig(alpha=1e-2)),
    "certified_solve": lambda p, x, lam, th: certified_solve(p, x, lam, 1.0, th,
                                                              gap_tol=1e-6),
    "dual_update": lambda p, x, lam, th: dual_update(p, lam, 1.0, x, th),
    "eval_L": lambda p, x, lam, th: eval_L(p, x, lam, 1.0, th),
    "grad_nu": lambda p, x, lam, th: grad_nu(p, x, lam, 1.0, th),
    "infeasibility": lambda p, x, lam, th: infeasibility(p, x, th),
}


@pytest.mark.parametrize("reader", sorted(_CONSTRAINT_READERS))
@pytest.mark.parametrize("misshapen", ["offset", "1-d matrix"])
def test_constraint_shapes_are_checked_in_one_place(toy_problem, reader, misshapen):
    # every reader of the constraint oracle fetches (A, b) through
    # constraint_pair, the one function that raises the shape error: a b
    # with a length other than A's row count, or a 1-d A, is refused there
    # before any gradient, projection or curvature oracle runs
    def constraint(theta):
        A, b = toy_problem.constraint(theta)
        return (A, np.zeros(b.size + 1)) if misshapen == "offset" else (A[0], b[:1])

    called = []

    def spy(name):
        oracle = getattr(toy_problem, name)

        def wrapped(*args):
            called.append(name)
            return oracle(*args)

        return wrapped

    bad = dataclasses.replace(toy_problem, constraint=constraint, **{
        name: spy(name) for name in ("smooth_value_grad", "prox_step",
                                     "smooth_curvature", "linear_min")})
    x0, lam, theta = np.full(3, 1 / 3), np.zeros(2), np.zeros(2)
    with pytest.raises(ValueError, match="constraint shapes are inconsistent") as err:
        _CONSTRAINT_READERS[reader](bad, x0, lam, theta)
    assert err.traceback[-1].name == "constraint_pair"
    assert called == []


def test_one_constraint_call_per_inner_solve(rng, toy_problem):
    # an inner solve reads the constraint oracle once, for its gradient and
    # for ||A||, under either exit; certified_solve reads it once more for
    # its eval_L value, and a run's epoch reads it three times: its solve,
    # its dual update and its report's infeasibility
    instance, portfolio = make_small_portfolio()
    for problem, theta, m in ((portfolio, instance.sigma, instance.s),
                              (toy_problem, np.array([0.3, -0.5]), 2)):
        calls = []
        counting = _counted_constraint(problem, calls)
        n = problem.constraint(theta)[0].shape[1]
        x0, lam = random_simplex_point(rng, n), np.abs(rng.standard_normal(m))
        for certify in (False, True):
            calls.clear()
            apg_solve(counting, x0, lam, 2.0, theta, ApgConfig(alpha=1e-4),
                      certify=certify)
            assert len(calls) == 1 and calls[0] is theta
        calls.clear()
        certified_solve(counting, x0, lam, 2.0, theta, gap_tol=1e-4)
        assert len(calls) == 2
    calls = []
    counting = _counted_constraint(portfolio, calls)
    schedule = make_constant_schedule(1e-2, 2.0, learner_known=True)
    trace = alm_run(counting, FrozenLearner(instance.sigma), schedule,
                    x0=np.full(instance.n, 1.0 / instance.n),
                    theta_star=instance.sigma, stop=StopRule(max_outer=4))
    assert len(calls) == 3 * len(trace) == 12


def test_infeasibility_examples():
    instance, problem = make_small_portfolio(n=6, s=2, sector_limit=10.0)
    # generous limits: any simplex point is feasible
    assert infeasibility(problem, np.full(6, 1.0 / 6), instance.sigma) == 0.0


def test_gradient_matches_finite_differences(rng, toy_problem):
    h = 1e-6
    for _ in range(10):
        x = random_simplex_point(rng, 3)
        theta = rng.standard_normal(2)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fp, _ = toy_problem.smooth_value_grad(x + e, theta)
            fm, _ = toy_problem.smooth_value_grad(x - e, theta)
            fd[i] = (fp - fm) / (2 * h)
        g = toy_problem.smooth_value_grad(x, theta)[1]
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-6


def test_gradient_oracles_agree_bit_for_bit(rng, toy_problem):
    # smooth_value_grad is the one oracle for p: evaluate_f returns its
    # value, and where the penalty vanishes (h(x) <= 0 and lam = 0) the
    # inner solver's gradient grad_nu is its gradient, bit for bit
    instance, portfolio = make_small_portfolio(sector_limit=10.0)
    cases = [(toy_problem, 3, 2, lambda: rng.standard_normal(2)),
             (portfolio, instance.n, instance.s,
              lambda: instance.sigma * rng.uniform(0.5, 1.5))]
    for problem, n, m, draw_theta in cases:
        for _ in range(20):
            x, theta = random_simplex_point(rng, n), draw_theta()
            value, grad = problem.smooth_value_grad(x, theta)
            assert evaluate_f(problem, x, theta) == value
            if problem is portfolio:
                got = grad_nu(problem, x, np.zeros(m), 2.0, theta)
                assert got.tobytes() == grad.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["definite", "singular", "indefinite"]),
       st.booleans(), st.floats(-2.0, 3.0), st.floats(0.0, 1e3),
       st.floats(1e-3, 1e4), st.floats(1.0, 100.0), st.integers(0, 2**32 - 1))
@example(12, "indefinite", False, 3.0, 1e3, 1e-3, 1.0, 0)
def test_portfolio_forward_backward_matches_the_composed_step(
        n, kind, inside, log_y, lam_scale, rho, L_factor, seed):
    # the projection of the fused forward map's point equals the generic
    # step prox_step(y - grad nu(y) / L) up to rounding for y on and off the
    # simplex, lam >= 0, a symmetric theta of either sign and any L >=
    # lipschitz_nu: both project a point v whose entries are at most
    # max(|y|, |grad|/L) in size, and the projection is 1-Lipschitz, so
    # they agree to 1e-12 relative to that size
    from simalm.inner_apg import lipschitz_nu

    s = max(1, n // 3)
    _, problem = make_small_portfolio(n=n, s=s, seed=seed % 1000)
    gen = np.random.default_rng(seed)
    F = gen.standard_normal((n, n))
    theta = {"definite": F @ F.T / n + 0.1 * np.eye(n),
             "singular": F[:, 1:] @ F[:, 1:].T / n,
             "indefinite": 0.5 * (F + F.T)}[kind]
    lam = lam_scale * np.abs(gen.standard_normal(s))
    L = L_factor * lipschitz_nu(problem, rho, theta)
    forward = problem.forward(problem)(theta, lam, rho, L)
    for _ in range(5):
        y = (random_simplex_point(gen, n) if inside
             else 10.0 ** log_y * gen.standard_normal(n))
        g = grad_nu(problem, y, lam, rho, theta)
        want = problem.prox_step(y - g / L)
        got = problem.prox_step(forward(y))
        scale = max(1.0, float(np.abs(y).max()), float(np.abs(g).max()) / L)
        assert np.abs(got - want).max() <= 1e-12 * scale
        assert got.min() >= 0.0 and abs(got.sum() - 1.0) <= 1e-12


def test_portfolio_forward_backward_refuses_a_non_finite_w():
    # a NaN in y or theta makes w = [I - theta/L; A] y NaN, and an infinite
    # y makes it NaN, numpy warning on the infinite products first; the
    # simplex projection of the map's point refuses either. A y of 1e308
    # leaves w finite but so large that its partial sums would overflow,
    # which the projection refuses with no warning
    instance, problem = make_small_portfolio()
    lam, x = np.ones(instance.s), np.full(instance.n, 1.0 / instance.n)
    bad_theta = instance.sigma.copy()
    bad_theta[1, 2] = bad_theta[2, 1] = np.nan
    nan_y = x.copy()
    nan_y[3] = np.nan
    for theta, y in ((bad_theta, x), (instance.sigma, nan_y)):
        forward = problem.forward(problem)(theta, lam, 2.0, 50.0)
        with pytest.raises(NonFiniteError, match="NaN or infinite entries"):
            problem.prox_step(forward(y))
    forward = problem.forward(problem)(instance.sigma, lam, 2.0, 50.0)
    for bad in (np.inf, -np.inf):
        y = x.copy()
        y[3:5] = bad
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError):
            problem.prox_step(forward(y))
    y = x.copy()
    y[3:5] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="beyond float precision"):
            problem.prox_step(forward(y))


def test_portfolio_forward_results_outlive_its_buffers(rng):
    # a map steps in buffers it holds, but each result is a fresh array:
    # one the caller keeps reads the same after later calls of the map, and
    # no call writes to its y
    instance, problem = make_small_portfolio()
    lam = np.abs(rng.standard_normal(instance.s))
    forward = problem.forward(problem)(instance.sigma, lam, 3.0, 40.0)
    ys = [random_simplex_point(rng, instance.n) for _ in range(4)]
    ys.append(5.0 * rng.standard_normal(instance.n))
    given_ys = [y.copy() for y in ys]
    results = [forward(y) for y in ys]
    kept = [v.copy() for v in results]
    for y in reversed(ys):
        forward(y)
    assert all(v.tobytes() == k.tobytes() for v, k in zip(results, kept))
    assert all(y.tobytes() == g.tobytes() for y, g in zip(ys, given_ys))
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(results, 2))


def test_portfolio_forward_maps_of_one_problem_do_not_share_buffers(rng):
    # each map holds its own W, B and buffers and serves one run, so one
    # problem serves concurrent runs: two maps built from it, each
    # retargeted every 100 steps and stepped alternately or on two threads
    # that take turns within a step, each give bit for bit the sequence
    # z_{t+1} = prox_step(step(z_t)) it gives alone
    instance, problem = make_small_portfolio()
    thetas = (read_only(instance.sigma), read_only(1.2 * instance.sigma))
    plans = [[(thetas[(i + j) % 2], np.abs(rng.standard_normal(instance.s)),
               rho * (i + 1), L * (i + 1)) for i in range(5)]
             for j, (rho, L) in enumerate(((3.0, 40.0), (8.0, 90.0)))]
    x0 = np.full(instance.n, 1.0 / instance.n)

    def run(plans, steps=100):
        # one step of each map in turn, each map retargeted along its plan
        maps = [problem.forward(problem) for _ in plans]
        zs, seen = [x0] * len(plans), [[] for _ in plans]
        for targets in zip(*plans):
            stepping = [held(*target) for held, target in zip(maps, targets)]
            for _ in range(steps):
                for i, step in enumerate(stepping):
                    zs[i] = problem.prox_step(step(zs[i]))
                    seen[i].append(zs[i].tobytes())
        return seen

    alone = [run([plan])[0] for plan in plans]
    assert run(plans) == alone
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda plan: run([plan])[0], plans))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == alone


def test_portfolio_held_map_steps_as_a_fresh_map_at_every_call(rng):
    # a map writes the step's data for each call's arguments, so along a
    # scripted sequence of calls its step equals, bit for bit on y on and
    # off the simplex, the step of a map built fresh for that call: a new L,
    # a new rho, rho and L moved together, a new lam, a new read-only theta,
    # a writable theta, that theta written in place, and the first theta
    # again. It holds A and b from its build and reads no constraint at a
    # call, so a problem whose constraint oracle was replaced by one whose
    # A or b depends on theta is refused by forward
    instance, problem = make_small_portfolio()
    n, s = instance.n, instance.s
    theta, other = read_only(instance.sigma), read_only(1.3 * instance.sigma)
    start = 0.8 * instance.sigma
    writable = start.copy()
    lam = np.abs(rng.standard_normal(s))

    def write_in_place():
        writable[2, 5] = writable[5, 2] = writable[2, 5] + 0.25

    script = [(None, (theta, lam, 3.0, 40.0)),
              (None, (theta, lam, 3.0, 55.0)),
              (None, (theta, lam, 9.0, 55.0)),
              (None, (theta, lam, 18.0, 110.0)),
              (None, (theta, 2.0 * lam, 18.0, 110.0)),
              (None, (other, 2.0 * lam, 18.0, 110.0)),
              (None, (writable, lam, 9.0, 55.0)),
              (write_in_place, (writable, lam, 9.0, 55.0)),
              (None, (theta, lam, 3.0, 40.0))]
    ys = [random_simplex_point(rng, n) for _ in range(3)]
    ys += [10.0 * rng.standard_normal(n) for _ in range(3)]
    shifted = instance.sector_matrix[::-1].copy()

    def below(th):  # of the script's thetas, the writable one's only
        return th[0, 0] < instance.sigma[0, 0]

    reads = []

    def counted(oracle):
        @functools.wraps(oracle)  # stands for the oracle it wraps
        def read(th):
            reads.append(1)
            return oracle(th)
        return read

    counting = dataclasses.replace(problem, constraint=counted(problem.constraint))
    held = counting.forward(counting)
    for before, args in script:
        if before is not None:
            before()
        step = held(*args)
        fresh = problem.forward(problem)(*args)
        for y in ys:
            assert np.array_equal(step(y), fresh(y))
    assert reads == []
    for replaced in (
            dataclasses.replace(problem, constraint=lambda th: (
                shifted if below(th) else instance.sector_matrix,
                problem.constraint(th)[1])),
            dataclasses.replace(problem, constraint=lambda th: (
                instance.sector_matrix,
                problem.constraint(th)[1] * (2.0 if below(th) else 0.5)))):
        with pytest.raises(ValueError, match="constraint oracle"):
            replaced.forward(replaced)


def test_portfolio_map_keeps_no_theta_alive():
    # a call writes what it needs of theta into the map's buffers and keeps
    # no reference to it, so a frozen theta dies with its last owner while
    # the map and its step live on and step as before
    instance, problem = make_small_portfolio()
    retarget = problem.forward(problem)
    theta = read_only(instance.sigma)
    lam, y = np.ones(instance.s), np.full(instance.n, 1.0 / instance.n)
    step = retarget(theta, lam, 3.0, 40.0)
    before = step(y)
    alive = weakref.ref(theta)
    del theta
    gc.collect()
    assert alive() is None
    assert step(y).tobytes() == before.tobytes()


def test_hint_holds_the_constants_of_its_sum_test(rng):
    # the sort path keeps, next to the support, the ones vector and the n
    # eps tolerance of the hinted sum test; a hint of the support alone,
    # as held_support builds, projects bit for bit as one that holds them
    v = 0.1 * rng.standard_normal(30)
    warm = {}
    project_simplex(v, warm)
    ones, tol = warm["sum"]
    assert ones.tolist() == [1.0] * 30 and tol == 30 * np.finfo(float).eps
    bare = {"mask": warm["mask"], "k": warm["k"]}
    for _ in range(30):
        v = v + 0.01 * rng.standard_normal(30)
        assert project_simplex(v, warm).tobytes() == project_simplex(v, bare).tobytes()
        assert warm["mask"].tobytes() == bare["mask"].tobytes()
        assert warm["k"] == bare["k"]


@pytest.mark.parametrize("field", ["smooth_value_grad", "cone", "project_dual",
                                   "constraint", "constraint_matrix",
                                   "constraint_offset"])
def test_portfolio_forward_refuses_a_replaced_oracle(field):
    # the map restates the portfolio's gradient, its constraint oracle and
    # its orthant's dual projection, so a replace of any that keeps the map
    # is refused at the first solve, never stepped past: a plain closure
    # around the gradient or the constraint oracle, a constraint oracle
    # whose A or whose b differs from the portfolio's, a cone of another
    # type (here the same orthant as a one-factor product), or a copy of the
    # orthant whose dual projection is a plain closure around its own
    from simalm.cones import ProductCone

    instance, problem = make_small_portfolio()
    own, cone = problem.smooth_value_grad, problem.cone
    closed_over = copy.copy(cone)
    closed_over.project_dual = lambda y: cone.project_dual(y)
    constraint = problem.constraint
    replacement = {"smooth_value_grad": {"smooth_value_grad": lambda x, theta: own(x, theta)},
                   "cone": {"cone": ProductCone([cone])},
                   "project_dual": {"cone": closed_over},
                   "constraint": {"constraint": lambda theta: constraint(theta)},
                   "constraint_matrix": {"constraint": lambda theta: (
                       2.0 * constraint(theta)[0], constraint(theta)[1])},
                   "constraint_offset": {"constraint": lambda theta: (
                       constraint(theta)[0], constraint(theta)[1] + 1.0)}}[field]
    bad = dataclasses.replace(problem, **replacement)
    with pytest.raises(ValueError, match="forward map serves only"):
        apg_solve(bad, np.full(instance.n, 1.0 / instance.n), np.ones(instance.s),
                  2.0, instance.sigma, ApgConfig(alpha=1e-4))


def test_portfolio_forward_takes_a_wrapped_oracle_for_its_own():
    # a functools.wraps spy of the gradient oracle, or of the orthant's dual
    # projection, stands for what it wraps: the map serves it, and the
    # solve runs bit for bit
    instance, problem = make_small_portfolio()
    calls = []

    def spied(oracle):
        @functools.wraps(oracle)
        def spy(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return spy

    args = (np.full(instance.n, 1.0 / instance.n), np.ones(instance.s), 2.0,
            instance.sigma, ApgConfig(alpha=1e-4))
    x, steps = apg_solve(problem, *args)
    x_spy, steps_spy = apg_solve(
        dataclasses.replace(problem, smooth_value_grad=spied(problem.smooth_value_grad)),
        *args)
    assert steps_spy == steps > 1 and calls == ["smooth_value_grad"]
    assert x_spy.tobytes() == x.tobytes()

    calls.clear()
    cone = copy.copy(problem.cone)
    cone.project_dual = spied(problem.cone.project_dual)
    x_spy, steps_spy = apg_solve(dataclasses.replace(problem, cone=cone), *args)
    # the map projects on its own; only the warm start's gradient calls it,
    # by the name of the orthant's project, which is its project_dual
    assert steps_spy == steps and calls == ["project"]
    assert x_spy.tobytes() == x.tobytes()


def test_constraint_lipschitz_in_theta(rng, toy_problem):
    cst = toy_problem.constants
    for _ in range(20):
        x = random_simplex_point(rng, 3)
        t1 = rng.standard_normal(2)
        t2 = rng.standard_normal(2)
        lhs = np.linalg.norm(constraint_value(toy_problem, x, t1)
                             - constraint_value(toy_problem, x, t2))
        assert lhs <= cst.L_h_theta * np.linalg.norm(t1 - t2) + 1e-12


def test_portfolio_constraints_theta_free(rng):
    instance, problem = make_small_portfolio()
    x = random_simplex_point(rng, instance.n)
    h1 = constraint_value(problem, x, instance.sigma)
    h2 = constraint_value(problem, x, 2.0 * instance.sigma)
    np.testing.assert_allclose(h1, h2)
    assert problem.constants.L_h_theta == 0.0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10).flatmap(
           lambda n: hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))),
       st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
@example(np.array([[0.0, 0.5, -0.29086416414316385],
                   [0.0, 0.29086416414316385, 0.0],
                   [0.5758321537567381, 0.0, 0.0]]), 0.0, 0)
def test_portfolio_curvature_brackets_the_spectrum(M, shift, seed):
    # symmetric theta, indefinite ones included: L_p bounds the spectral
    # norm from above, mu the smallest eigenvalue from below, and a positive
    # mu is a strong-convexity modulus of p(.; theta) between simplex points
    # (mu = 0 claims none, and p need not be convex)
    n = M.shape[0]
    theta = 0.5 * (M + M.T) + shift * np.eye(n)
    _, problem = make_small_portfolio(n=n, s=1)
    L_p, mu = problem.smooth_curvature(theta)
    assert L_p >= np.linalg.norm(theta, 2)
    assert 0.0 <= mu <= max(float(np.linalg.eigvalsh(theta)[0]), 0.0)
    if mu == 0.0:
        return
    gen = np.random.default_rng(seed)
    tol = 1e-12 * (1.0 + L_p)
    for _ in range(10):
        x, y = random_simplex_point(gen, n), random_simplex_point(gen, n)
        px, gx = problem.smooth_value_grad(x, theta)
        py, _ = problem.smooth_value_grad(y, theta)
        d = y - x
        assert py >= px + float(gx @ d) + 0.5 * mu * float(d @ d) - tol


def test_portfolio_curvature_bounds_a_sparse_spectrum():
    # two O(1) entries and tiny ones elsewhere: the spectral norm is 14.5,
    # where the values-only eigvalsh path returns 14.408 and eigh 14.5; the
    # property above meets such a theta only rarely
    theta = np.full((4, 4), 1e-160)
    theta[0, 1] = theta[1, 0] = 14.5
    _, problem = make_small_portfolio(n=4, s=1)
    assert np.linalg.norm(theta, 2) == 14.5
    assert problem.smooth_curvature(theta)[0] >= 14.5


def test_instance_json_round_trip():
    instance, _ = make_small_portfolio()
    payload = json.loads(instance.to_json())
    np.testing.assert_allclose(np.array(payload["sigma_true"]), instance.sigma)
    np.testing.assert_allclose(np.array(payload["A"]), instance.sector_matrix)
    np.testing.assert_allclose(np.array(payload["mu"]), instance.mu)
    assert payload["seed"] == instance.seed
    # schema keys are fixed
    assert sorted(payload) == ["A", "b", "mu", "n", "risk_tradeoff", "s",
                               "seed", "sigma_true"]


def test_instance_validation():
    with pytest.raises(ValueError):
        PortfolioInstance(n=2, s=1, sector_matrix=np.array([[1.0, 0.5]]),
                          sector_limits=np.array([0.5]), mu=np.zeros(2),
                          risk_tradeoff=0.1, sigma=np.eye(2))
    with pytest.raises(ValueError):
        PortfolioInstance(n=2, s=1, sector_matrix=np.ones((1, 2)),
                          sector_limits=np.array([0.5]), mu=np.zeros(2),
                          risk_tradeoff=0.1,
                          sigma=np.array([[1.0, 0.4], [0.1, 1.0]]))
