import numpy as np
import pytest

from simalm.cones import (NonnegativeOrthant, ProductCone, SecondOrderCone,
                          ZeroCone)
from simalm.model import (ParametricProblem, PortfolioInstance,
                          ProblemConstants, portfolio_problem, project_simplex)


# one of each cone variant, and a product of all three
ALL_CONES = [
    ZeroCone(4),
    NonnegativeOrthant(5),
    SecondOrderCone(4),
    ProductCone([ZeroCone(2), NonnegativeOrthant(3), SecondOrderCone(3)]),
]


def cone_member(cone, y, tol, dual=False):
    """Whether y lies in K (in K* with dual=True) up to tol, written from
    the cones' definitions rather than their projections."""
    y = np.asarray(y, dtype=float)
    if isinstance(cone, ProductCone):
        blocks = np.split(y, np.cumsum([c.dim for c in cone.components])[:-1])
        return all(cone_member(c, b, tol, dual)
                   for c, b in zip(cone.components, blocks))
    if isinstance(cone, ZeroCone):  # K* is the whole space
        return dual or bool(np.all(np.abs(y) <= tol))
    if isinstance(cone, NonnegativeOrthant):  # self-dual
        return bool(np.all(y >= -tol))
    if isinstance(cone, SecondOrderCone):  # self-dual
        return bool(y[0] >= np.linalg.norm(y[1:]) - tol)
    raise TypeError(f"unknown cone {cone!r}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def read_only(a):
    """A read-only float copy of a, as the library hands out its arrays."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def count_factorisations(monkeypatch):
    """(kind, matrix shape) of every dense factorisation behind L and mu from
    now on: "eigh" for np.linalg.eigh (the portfolio's curvature pair) and
    "svd" for each SVD spectral_norm takes. spectral_norm's memo
    is emptied first, so each "svd" is one of its misses."""
    from simalm import linalg

    linalg.spectral_norm.entries.clear()
    calls = []
    eigh, norm = np.linalg.eigh, np.linalg.norm

    def counting_eigh(M, *args, **kwargs):
        calls.append(("eigh", np.shape(M)))
        return eigh(M, *args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(("svd", np.shape(x)))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


@pytest.fixture
def distances(monkeypatch):
    """(id(a), id(b)) of every ||a - b||_F linalg.frobenius_distance computes
    from now on. Every module that calls it gets a fresh, empty frozen_memo
    of the same distance, so each entry is one of that memo's misses."""
    from simalm import experiments, inner_apg, linalg, outer_alm

    computed = []
    distance = linalg.frobenius_distance.__wrapped__

    def counting_distance(a, b):
        computed.append((id(a), id(b)))
        return distance(a, b)

    memo = linalg.frozen_memo(counting_distance)
    for module in (linalg, inner_apg, outer_alm, experiments):
        monkeypatch.setattr(module, "frobenius_distance", memo)
    return computed


def make_toy_problem(n=3, m=2, seed=0):
    """Tiny QP over the simplex whose constraint map depends on theta.

    p(x; theta) = 0.5 x'Px + (c + C theta)'x, h(x; theta) = A(theta) x +
    b(theta) with A(theta) = A0 + theta_0 A1 and b(theta) = b0 + B theta,
    X the unit simplex, orthant cone; p is lambda_min(P)-strongly
    convex. Exercises the theta-dependent-constraint code paths the
    portfolio family never hits.
    """
    gen = np.random.default_rng(seed)
    F = gen.standard_normal((n, n))
    P = F @ F.T / n + 0.5 * np.eye(n)
    c = gen.standard_normal(n) * 0.2
    C = gen.standard_normal((n, 2)) * 0.1
    A0 = gen.standard_normal((m, n)) * 0.5
    A1 = gen.standard_normal((m, n)) * 0.2
    b0 = gen.standard_normal(m) * 0.1
    B = gen.standard_normal((m, 2)) * 0.1

    def smooth_value_grad(x, theta):
        x = np.asarray(x, float)
        lin = c + C @ theta
        return 0.5 * float(x @ P @ x) + float(lin @ x), P @ x + lin

    def constraint(theta):
        return A0 + theta[0] * A1, b0 + B @ theta

    L_P = float(np.linalg.norm(P, 2))
    mu_P = float(np.linalg.eigvalsh(P)[0])
    constants = ProblemConstants(
        L_h_theta=float(np.linalg.norm(A1, 2) + np.linalg.norm(B, 2)),
        L_f=float(np.linalg.norm(C, 2)),
        D_x=1.0,
    )

    return ParametricProblem(
        smooth_value_grad=smooth_value_grad,
        prox_step=project_simplex,
        constraint=constraint,
        cone=NonnegativeOrthant(m),
        constants=constants,
        smooth_curvature=lambda theta: (L_P, mu_P),
        membership=lambda x: bool(np.all(np.asarray(x) >= -1e-9)
                                  and abs(float(np.sum(x)) - 1.0) <= 1e-9),
        linear_min=lambda g: float(g.min()),
    )


def make_small_portfolio(n=12, s=3, seed=5, sector_limit=0.5):
    """Small dense portfolio instance with a positive definite covariance."""
    gen = np.random.default_rng(seed)
    F = gen.standard_normal((n, n))
    sigma = F @ F.T / n + 0.3 * np.eye(n)
    A = np.zeros((s, n))
    for j, idx in enumerate(np.array_split(np.arange(n), s)):
        A[j, idx] = 1.0
    A[0, n - 1] = 1.0  # overlapping membership
    instance = PortfolioInstance(
        n=n, s=s, sector_matrix=A,
        sector_limits=np.full(s, sector_limit),
        mu=gen.uniform(-1.0, 1.0, n), risk_tradeoff=0.1,
        sigma=sigma, seed=seed,
    )
    return instance, portfolio_problem(instance)


@pytest.fixture
def toy_problem():
    return make_toy_problem()


@pytest.fixture
def small_portfolio():
    return make_small_portfolio()


def random_simplex_point(gen, n):
    return gen.dirichlet(np.ones(n))


def rate_violations(steps, errors, tau, recorded):
    """The learner steps k at which errors[k] breaks the linear rate
    ||theta_k - theta*|| <= tau^k ||theta_0 - theta*|| by more than four
    ulps of the bound. errors[i] is the error after steps[i] steps, and
    steps[0] is 0. experiments._certified_rate takes tau over the first
    `recorded` errors but leaves out those at most _RATE_FLOOR times the
    first, so at a step inside the record the bound is at least that
    floor; past the record nothing is left out, and tau^k is the bound."""
    from simalm.experiments import _RATE_FLOOR

    steps, errors = np.asarray(steps), np.asarray(errors, dtype=float)
    assert steps[0] == 0
    rate = tau ** steps
    rate = np.where(steps < recorded, np.maximum(rate, _RATE_FLOOR), rate)
    bound = rate * errors[0] * (1.0 + 4.0 * np.finfo(float).eps)
    return steps[errors > bound].tolist()


def overlay_margin(trace, curves, f_star):
    """Smallest ratio of a run's overlay curves to its trace, after asserting
    infeasibility under v_k_bound and the relative suboptimality under the
    upper bound above f*, the lower one below it."""
    infeas = trace.column("infeas_at_theta_star")
    signed = (trace.column("f_at_theta_star") - f_star) / abs(f_star)
    subopt = np.where(signed >= 0.0, curves["subopt_upper_bound"],
                      curves["subopt_lower_bound"])
    assert np.all(infeas <= curves["v_k_bound"])
    assert np.all(np.abs(signed) <= subopt)
    with np.errstate(divide="ignore"):
        return min(np.min(curves["v_k_bound"] / infeas),
                   np.min(subopt / np.abs(signed)))


def csv_without_timing(path):
    """A trace CSV's cells, row by row, without its wall-clock columns."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0])
            if name not in ("cpu_learn_s", "cpu_opt_s")]
    return [[row[i] for i in keep] for row in rows]
