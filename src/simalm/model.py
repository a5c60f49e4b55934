"""Parametric problem definition and the sector-constrained portfolio family.

A problem instance is a smooth objective f(x; theta) = p(x; theta)
minimized over a simple set X with a Euclidean projection oracle, subject to
the conic constraint h(x; theta) = A(theta) x + b(theta) lying in -K. Problem
objects are immutable bundles of pure oracles and can be shared freely across
threads.
"""

import functools
import inspect
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cones import Cone, NonnegativeOrthant
from .linalg import frozen_memo, symmetrize

# Unused here: the benchmark's tracer wraps this name as linalg.spectral_norm;
# the benchmark change of ROADMAP item 1 drops that span and the binding.
from .linalg import spectral_norm

__all__ = [
    "NonFiniteError", "ProblemConstants", "ParametricProblem",
    "PortfolioInstance", "evaluate_f", "constraint_pair", "constraint_value",
    "infeasibility", "project_simplex", "simplex_prox", "portfolio_problem",
]


_MEMBERSHIP_TOL = 1e-9  # slack of the portfolio's simplex-membership check
# eigh's extreme eigenvalue sat up to ~13 ulps inside the SVD norm (measured
# for n = 2..100, tiny entries around a few O(1) ones included), more than n
# ulps when n is small
_MIN_MARGIN_ULPS = 32
_EPS = float(np.finfo(float).eps)
# Supports a hinted simplex projection tests before it sorts: the held one
# and two refinements; on the desk every refinement run passes by the second
_HINT_TESTS = 3
# A hinted test whose |t| exceeds this hands v to the sort path: below it,
# v - t cannot overflow, as 2**960 is under half an ulp of the largest float
_HINT_T_MAX = 2.0 ** 960


class NonFiniteError(RuntimeError):
    """A run produced a non-finite iterate, multiplier or parameter estimate."""


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level constants consumed by iteration budgets and bound curves.

    The curvature of p and the norm of A(theta) are not here: the inner
    solver takes both per theta, from smooth_curvature and constraint.

    L_h_theta     Lipschitz constant of h in theta (uniform in x over X).
    L_f           Lipschitz constant of f in theta (uniform in x over X).
    D_x           max norm of a point of X.
    kappa         pseudo-Lipschitz constant of the inner solution map in
                  theta; user-supplied, scales reported bound curves only.
    L_curv_theta  Lipschitz constant of the curvature in theta: the largest
                  curvature of p(.; theta) and its smallest one each move
                  by at most L_curv_theta ||theta - theta'||_F. It lets a
                  run carry the pair from smooth_curvature(theta') to theta
                  without factoring theta (inner_apg.CurvatureAnchor). 1.0
                  when the Hessian of p is theta itself, by Weyl's
                  inequality; None, the default, factors every distinct
                  theta.
    """

    L_h_theta: float
    L_f: float
    D_x: float
    kappa: float = 1.0
    L_curv_theta: Optional[float] = None

    def __post_init__(self):
        for name in ("L_h_theta", "L_f", "D_x", "kappa", "L_curv_theta"):
            v = getattr(self, name)
            if v is None and name == "L_curv_theta":
                continue
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"constant {name} must be finite and nonnegative")


@dataclass(frozen=True)
class ParametricProblem:
    """Oracle bundle for one parametric conic program.

    smooth_value_grad(x, theta) -> (p, grad_p), grad_p a float ndarray; the
                                   one oracle for p, its values and the
                                   gradient the inner loop steps on
    prox_step(v, warm)          -> the Euclidean projection of v onto X, a
                                   fresh array, up to rounding whatever
                                   warm holds; warm is
                                   a dict an inner solve creates empty and
                                   passes to each of its projections, where
                                   the oracle may keep what one projection
                                   learns for the next (project_simplex
                                   keeps the support)
    constraint(theta)           -> (A(theta), b(theta)), shapes (m, n) and
                                   (m,): the affine map h(x; theta) =
                                   A(theta) x + b(theta), read through
                                   constraint_pair
    cone                        -> constraint cone K of dimension m
    smooth_curvature(theta)     -> (L_p, mu): L_p an upper bound on the
                                   Lipschitz constant of grad_x p(.; theta),
                                   mu >= 0 a strong-convexity modulus of
                                   p(.; theta), 0.0 when none is known; both
                                   on all of R^n, not only on X, because the
                                   inner loop's momentum points leave X;
                                   mu > 0 gives inner solves the linear-rate
                                   budget (inner_apg)
    linear_min(g)               -> min_{s in X} <g, s>, a float; gives inner
                                   solves their warm-start gap and step
                                   certificate
    membership(x)               -> optional X-membership check
    forward(problem)            -> optional map of one run: map(theta, lam,
                                   rho, L) returns the step y -> y - grad
                                   nu_rho(y, lam; theta) / L, equal to the
                                   one composed from the oracles above up to
                                   rounding for every y in R^n (momentum
                                   points leave X); a run's CurvatureAnchor
                                   builds the map once and calls it at each
                                   inner solve once L is fixed, and the
                                   solve projects each step's result with
                                   prox_step (inner_apg); a map writes the
                                   step's data for each call's arguments
                                   into buffers of its own, so a step stays
                                   valid until the next call of its map,
                                   and each of its results must be a fresh
                                   array

    Every oracle must be pure: the same arguments give the same result, bit
    for bit. An oracle may memoize its results, as the portfolio's
    curvature oracle does, since that keeps it pure; the carry from one
    theta to the next is a run's own state (inner_apg.CurvatureAnchor).

    Every cache of what an array determines follows the caching rule of
    linalg.frozen_memo: the portfolio's curvature oracle, spectral_norm,
    frobenius_distance, and a run's CurvatureAnchor.

    forward(problem) raises ValueError for a problem whose oracles its map
    does not restate, so a dataclasses.replace of one of them is refused,
    never stepped past.
    """

    smooth_value_grad: Callable
    prox_step: Callable
    constraint: Callable
    cone: Cone
    constants: ProblemConstants
    smooth_curvature: Callable
    linear_min: Callable
    membership: Optional[Callable] = None
    forward: Optional[Callable] = None


def evaluate_f(problem, x, theta):
    """Objective value p(x; theta)."""
    return float(problem.smooth_value_grad(x, theta)[0])


def constraint_pair(problem, theta):
    """(A(theta), b(theta)) from one problem.constraint call, as float arrays.

    The one reader of the oracle: raises ValueError unless A is a matrix and
    b a vector with one entry per row of A.
    """
    A, b = problem.constraint(theta)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError("constraint shapes are inconsistent")
    return A, b


def constraint_value(problem, x, theta):
    """Affine constraint map h(x; theta) = A(theta) x + b(theta)."""
    A, b = constraint_pair(problem, theta)
    return A @ np.asarray(x, dtype=float) + b

def infeasibility(problem, x, theta):
    """Distance of h(x; theta) to -K; zero exactly on the feasible set."""
    return float(problem.cone.dist_neg(constraint_value(problem, x, theta)))


def project_simplex(v, warm=None):
    """Euclidean projection onto the unit simplex {x >= 0, sum x = 1}.

    Sort-and-threshold algorithm (Condat 2016), O(n log n). The entries are
    sorted ascending and read in reverse. Tied entries are equal numbers, so
    the descending sequence u, and its partial sums less 1, do not depend on
    how ties are ordered: a +-0.0 can only flip the sign of a zero partial
    sum, which subtracting 1 erases. The threshold comes from the last index
    where u exceeds it. With ties, rounding can leave a gap in the passing
    indices, so their count can name an earlier index.

    warm, one inner solve's hint, is a dict: empty, or holding the support
    S of the last projection it saw as a 0/1 array "mask" and its size "k".
    The sort path stores there too, as "sum", the ones vector and the
    tolerance n eps of the sum test below, so a hinted test computes
    neither; a hint of mask and k alone tests with the same two. A held
    support is tested first, in four numpy calls: t = (v . mask - 1) / k
    and x = max(v - t, 0). The sum phi(t) = sum_i max(v_i - t, 0) is at
    least sum_{i in S} (v_i - t) = 1, with equality exactly when t is the
    projection's threshold tau. So x is returned when |t| <= 2**960 and the
    computed sum of x is within n eps of 1. phi falls with slope at most -1
    wherever it is positive, so |t - tau| <= |phi(t) - 1|, at most n eps
    plus the sum's own rounding, n eps / 2, to first order; with the half
    ulp of the subtraction, x is within (2 n + 1) eps of the projection
    entrywise, whatever S is. As phi(t) >= 1, t <= tau, so the support of a
    failed x holds the projection's support; it is tested next, as in
    Michelot's algorithm (Michelot 1986; Condat 2016), where from then on
    each support holds the next and t rises to tau. The support that passes
    is kept in warm. Any NaN or infinite entry makes t NaN or infinite
    (np.vdot, unlike dot and matmul, raises no warning for 0 * inf or an
    overflowing sum, so it takes both sums), so such a v, like one whose t
    is beyond 2**960, where v - t could overflow, or whose _HINT_TESTS
    supports all fail, takes the sort path, which stores the support of its result, and "sum", in warm.
    Without warm the sort path alone runs.

    Raises NonFiniteError, with no RuntimeWarning, on a NaN or infinite
    entry (a check of the sorted extremes, NaN sorting last) and on entries
    so large that the unit sum is lost to rounding (about 2**53), leaving no
    threshold, or that a partial sum could overflow (2 n max |v_i| beyond
    the largest float).
    """
    v = np.asarray(v, dtype=float)
    if warm:
        mask, k = warm["mask"], warm["k"]
        ones, tol = warm.get("sum") or (_ones(v.size), v.size * _EPS)
        for _ in range(_HINT_TESTS):
            t = (float(np.vdot(v, mask)) - 1.0) / k
            if not abs(t) <= _HINT_T_MAX:
                break
            x = v - t
            np.maximum(x, 0.0, out=x)
            if abs(np.vdot(x, ones) - 1.0) <= tol:
                warm["mask"], warm["k"] = mask, k
                return x
            mask, k = np.sign(x), int(np.count_nonzero(x))
            if not k:
                break
    u = v.copy()
    u.sort()  # in place: np.sort's dispatch costs more than the copy
    u = u[::-1]
    top, bottom = float(u[0]), float(u[-1])
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise NonFiniteError("simplex projection of a vector with NaN or "
                             "infinite entries")
    if not math.isfinite(max(top, -bottom) * (2 * v.size)):
        raise NonFiniteError("simplex projection of a vector with entries "
                             "beyond float precision")
    tau = u.cumsum()
    tau -= 1.0
    tau /= _ranks(v.size)  # the threshold of each support size
    passing = (u > tau).nonzero()[0]
    if passing.size == 0:
        raise NonFiniteError("simplex projection of a vector with entries "
                             "beyond float precision")
    x = v - tau[passing[-1]]
    np.maximum(x, 0.0, out=x)
    if warm is not None:
        warm["mask"], warm["k"] = np.sign(x), int(np.count_nonzero(x))
        warm["sum"] = _ones(v.size), v.size * _EPS
    return x


@functools.lru_cache(maxsize=64)
def _ranks(n):
    """Read-only float ranks 1..n, the divisors of the simplex threshold."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


@functools.lru_cache(maxsize=64)
def _ones(n):
    """Read-only ones, whose dot product sums a hinted projection."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def simplex_prox(y, g, L):
    """Projected-gradient step over the unit simplex, with curvature L.

    Returns the projection of y - g / L onto the simplex, i.e. the minimizer
    of <g, z - y> + (L/2)||z - y||^2 over the simplex. Raises ValueError
    unless L > 0.
    """
    if not L > 0:
        raise ValueError("prox curvature L must be positive")
    return project_simplex(np.asarray(y, float) - np.asarray(g, float) / L)


@dataclass(frozen=True)
class PortfolioInstance:
    """Sector-constrained mean-variance portfolio problem data.

    Objective (1/2) x' Sigma x - risk_tradeoff * mu' x over the unit simplex,
    subject to sector exposure caps sector_matrix @ x <= sector_limits. The
    covariance Sigma is the learnable parameter; sigma holds the value the
    instance was generated with. The instance holds frozen copies of its
    arrays (linalg.frozen_memo's caching rule).
    """

    n: int
    s: int
    sector_matrix: np.ndarray
    sector_limits: np.ndarray
    mu: np.ndarray
    risk_tradeoff: float
    sigma: np.ndarray
    seed: int = 0

    def __post_init__(self):
        A, b, mu, sigma = (np.array(v, dtype=float) for v in (
            self.sector_matrix, self.sector_limits, self.mu, self.sigma))
        if not (self.n >= self.s >= 1):
            raise ValueError("need n >= s >= 1")
        if A.shape != (self.s, self.n):
            raise ValueError("sector matrix must have shape (s, n)")
        if not np.all((A == 0.0) | (A == 1.0)):
            raise ValueError("sector matrix entries must be 0 or 1")
        if b.shape != (self.s,) or mu.shape != (self.n,):
            raise ValueError("sector limits / mean vector shape mismatch")
        if sigma.shape != (self.n, self.n):
            raise ValueError("covariance must be n x n")
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        for name, value in (("sector_matrix", A), ("sector_limits", b),
                            ("mu", mu), ("sigma", symmetrize(sigma))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def to_json(self):
        """Serialize to the instance-file schema (dense row-major arrays)."""
        payload = {
            "n": self.n,
            "s": self.s,
            "A": self.sector_matrix.tolist(),
            "b": self.sector_limits.tolist(),
            "mu": self.mu.tolist(),
            "risk_tradeoff": self.risk_tradeoff,
            "sigma_true": self.sigma.tolist(),
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def _curvature_pair(theta):
    """(L_p, mu) of the portfolio objective at theta, from one spectrum.

    np.linalg.eigh of the symmetric theta, widened by the rounding
    margin max(n, 32) * eps * max |eigenvalue|: L_p is max |eigenvalue| (the
    spectral norm) plus the margin, and mu is the smallest eigenvalue less
    the margin, floored at 0. So L_p bounds the curvature from above and mu
    from below, also for an indefinite theta.
    """
    eig = np.linalg.eigh(theta)[0]  # eigvalsh's path can miss by percents
    top = float(max(-eig[0], eig[-1]))
    margin = max(eig.size, _MIN_MARGIN_ULPS) * _EPS * top
    return top + margin, max(0.0, float(eig[0]) - margin)


def portfolio_problem(instance, kappa=1.0):
    """Build the ParametricProblem for a portfolio instance.

    theta is the covariance matrix, prox_step is project_simplex, and the
    constraint cone is the nonnegative orthant: h(x) = A x - b must be <= 0.
    The constraint oracle returns the instance's frozen A and one frozen
    -b at every call.
    The curvature oracle smooth_curvature(theta) is _curvature_pair behind a
    linalg.frozen_memo of the problem's own. So the runs sharing one
    problem factor each frozen theta once, and a hit returns the very pair
    a factorisation would, whatever the order of the runs.

    Constants: D_x = 1 on the simplex, L_f = D_x^2 / 2 for the quadratic
    risk term under the Frobenius metric on theta, L_h_theta = 0 because
    the sector constraints do not depend on theta, and L_curv_theta = 1
    because the Hessian of p is theta: by Weyl's inequality every
    eigenvalue of a symmetric theta moves by at most ||theta - theta'||_2
    <= ||theta - theta'||_F (Horn & Johnson 2013, Cor. 4.3.15).

    forward(problem) returns a run's map, retarget(theta, lam, rho, L). The
    map holds one (n + s) x (n + 1) matrix W = [[I - theta / L, gamma mu /
    L], [A, b + lam / rho]] and the C-ordered s x n matrix B = (rho / L) A,
    so y - grad nu(y) / L is w = W [y; 1], r = max(w[n:], 0), w[:n] - r B:
    two matrix-vector products. W's A rows are written once, when forward
    builds the map. Each call writes the rest, the top block, gamma mu / L,
    B and the column b + lam / rho, from its own arguments, and keeps none
    of them. The step it returns holds buffers for [y; 1] (its trailing 1
    written once), w and r B, which every step overwrites; each result is a
    fresh array, and each map holds W, B and buffers of its own, so one
    problem serves concurrent runs. The map restates smooth_value_grad's
    gradient, the constraint oracle and the orthant's dual projection, so
    forward raises ValueError unless inspect.unwrap of
    problem.smooth_value_grad and of problem.constraint is this problem's
    own oracle, the cone is a NonnegativeOrthant and its
    project_dual is the orthant's own method; a functools.wraps wrapper,
    such as a timer, stands for the oracle or method it wraps.
    """
    A = instance.sector_matrix
    offset = -instance.sector_limits
    offset.flags.writeable = False
    mu = instance.mu
    gamma = instance.risk_tradeoff
    gamma_mu = gamma * mu

    def smooth_value_grad(x, theta):
        x = np.asarray(x, dtype=float)
        Sx = theta @ x
        value = 0.5 * float(x @ Sx) - gamma * float(mu @ x)
        return value, Sx - gamma_mu

    def constraint(theta):
        return A, offset

    def forward(problem):
        if (inspect.unwrap(problem.smooth_value_grad) is not smooth_value_grad
                or inspect.unwrap(problem.constraint) is not constraint
                or type(problem.cone) is not NonnegativeOrthant
                or getattr(inspect.unwrap(problem.cone.project_dual), "__func__",
                           None) is not NonnegativeOrthant.project_dual):
            raise ValueError("the portfolio's forward map serves only its own "
                             "smooth_value_grad, constraint oracle and a "
                             "NonnegativeOrthant cone")
        m, n = A.shape
        W = np.empty((n + m, n + 1))
        W[n:, :n] = A
        top, gamma_mu_col, col = W[:n, :n], W[:n, n], W[n:, n]
        diagonal = W.reshape(-1)[:n * (n + 1):n + 2]  # of the top block
        B = np.empty((m, n))
        y_hat = np.empty(n + 1)
        y_hat[n] = 1.0
        head = y_hat[:n]
        w = np.empty(n + m)
        v, r = w[:n], w[n:]
        buf = np.empty(n)

        def step(y):
            head[...] = y
            np.dot(W, y_hat, out=w)
            np.maximum(r, 0.0, out=r)
            np.dot(r, B, out=buf)
            return v - buf

        def retarget(theta, lam, rho, L):
            np.divide(theta, -L, out=top)
            np.add(diagonal, 1.0, out=diagonal)  # I - theta / L
            np.divide(gamma_mu, L, out=gamma_mu_col)
            np.multiply(A, rho / L, out=B)
            np.divide(lam, rho, out=col)
            np.add(offset, col, out=col)
            return step

        return retarget

    def in_simplex(x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -_MEMBERSHIP_TOL)
                    and abs(float(np.sum(x)) - 1.0) <= _MEMBERSHIP_TOL)

    constants = ProblemConstants(
        L_h_theta=0.0,
        L_f=0.5,
        D_x=1.0,
        kappa=kappa,
        L_curv_theta=1.0,
    )
    return ParametricProblem(
        smooth_value_grad=smooth_value_grad,
        prox_step=project_simplex,
        constraint=constraint,
        cone=NonnegativeOrthant(instance.s),
        constants=constants,
        smooth_curvature=frozen_memo(_curvature_pair),
        # g.min()'s value without ndarray.min's Python wrapper, about 1 us
        # a call at n = 100, most of the call
        linear_min=lambda g: float(g[g.argmin()]),
        membership=in_simplex,
        forward=forward,
    )
