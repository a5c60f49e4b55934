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
from .linalg import symmetrize

# Unused here: the benchmark's tracer wraps this name as linalg.spectral_norm;
# the benchmark change of ROADMAP item 1 drops that span and the binding.
from .linalg import spectral_norm

__all__ = [
    "NonFiniteError", "ProblemConstants", "ParametricProblem",
    "PortfolioInstance", "evaluate_f", "constraint_value", "infeasibility",
    "project_simplex", "simplex_prox", "portfolio_problem",
]


_MEMBERSHIP_TOL = 1e-9  # slack of the portfolio's simplex-membership check
# eigvalsh's extreme eigenvalue can sit up to ~24 ulps inside the exact one
# (measured for n = 2..100), more than n ulps when n is small
_MIN_MARGIN_ULPS = 32
# Curvature pairs a portfolio problem keeps, oldest evicted first; a learned
# grid or a seqsim pass on an n = 100 instance factors 4-7 distinct thetas
_CURVATURE_MEMO = 16
# Entries of theta, evenly strided, in a memo key; the stored bytes decide
_FINGERPRINT = 16


class NonFiniteError(RuntimeError):
    """A run produced a non-finite iterate, multiplier or parameter estimate."""


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level constants consumed by iteration budgets and bound curves.

    The curvature of p and the norm of A(theta) are not here: the inner
    solver takes both per theta, from smooth_curvature and constraint_matrix.

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
    prox_step(v)                -> the Euclidean projection of v onto X
    constraint_matrix(theta)    -> A(theta), shape (m, n)
    constraint_offset(theta)    -> b(theta), shape (m,)
    cone                        -> constraint cone K of dimension m
    smooth_curvature(theta)     -> (L_p, mu): L_p an upper bound on the
                                   Lipschitz constant of grad_x p(.; theta),
                                   mu >= 0 a strong-convexity modulus of
                                   p(.; theta), 0.0 when none is known; both
                                   on all of R^n, not only on X, because the
                                   inner loop's momentum points leave X; with
                                   linear_minimizer, mu > 0 gives inner solves
                                   the linear-rate budget (inner_apg)
    membership(x)               -> optional X-membership check
    linear_minimizer(g)         -> optional argmin_{s in X} <g, s>; gives
                                   inner solves their warm-start gap and step
                                   certificate
    forward(problem, lam, rho, theta, L)
                                -> optional map y -> y - grad nu_rho(y, lam;
                                   theta) / L, equal to the one composed from
                                   the oracles above up to rounding for every
                                   y in R^n (momentum points leave X); an
                                   inner solve builds it once L is fixed and
                                   projects its result with prox_step
                                   (inner_apg)

    Every oracle must be pure: the same arguments give the same result, bit
    for bit. An oracle may memoize its results, as the portfolio's
    curvature oracle does, since that keeps it pure; the carry from one
    theta to the next is a run's own state (inner_apg.CurvatureAnchor).

    A forward map raises ValueError for a problem whose oracles it does not
    restate, so a dataclasses.replace of one of them is refused, never
    stepped past.
    """

    smooth_value_grad: Callable
    prox_step: Callable
    constraint_matrix: Callable
    constraint_offset: Callable
    cone: Cone
    constants: ProblemConstants
    smooth_curvature: Callable
    membership: Optional[Callable] = None
    linear_minimizer: Optional[Callable] = None
    forward: Optional[Callable] = None


def evaluate_f(problem, x, theta):
    """Objective value p(x; theta)."""
    return float(problem.smooth_value_grad(x, theta)[0])


def constraint_value(problem, x, theta):
    """Affine constraint map h(x; theta) = A(theta) x + b(theta)."""
    A = np.asarray(problem.constraint_matrix(theta), dtype=float)
    b = np.asarray(problem.constraint_offset(theta), dtype=float)
    x = np.asarray(x, dtype=float)
    if A.shape[1] != x.shape[0] or A.shape[0] != b.shape[0]:
        raise ValueError("constraint shapes are inconsistent")
    return A @ x + b

def infeasibility(problem, x, theta):
    """Distance of h(x; theta) to -K; zero exactly on the feasible set."""
    return float(problem.cone.dist_neg(constraint_value(problem, x, theta)))


def project_simplex(v):
    """Euclidean projection onto the unit simplex {x >= 0, sum x = 1}.

    Sort-and-threshold algorithm (Condat 2016), O(n log n). The entries are
    sorted ascending and read in reverse. Tied entries are equal numbers, so
    the descending sequence u, and its partial sums less 1, do not depend on
    how ties are ordered: a +-0.0 can only flip the sign of a zero partial
    sum, which subtracting 1 erases. The threshold comes from the last index
    where u exceeds it. With ties, rounding can leave a gap in the passing
    indices, so their count can name an earlier index.

    Raises NonFiniteError on a NaN or infinite entry (one check of the
    total sum) and on entries so large (about 2**53) that the unit sum is
    lost to rounding, leaving no threshold.
    """
    v = np.asarray(v, dtype=float)
    u = v.copy()
    u.sort()
    u = u[::-1]
    cssv = u.cumsum()
    cssv -= 1.0
    if not math.isfinite(cssv[-1]):
        raise NonFiniteError("simplex projection of a vector with NaN or "
                             "infinite entries")
    passing = (u > cssv / _ranks(v.size)).nonzero()[0]
    if passing.size == 0:
        raise NonFiniteError("simplex projection of a vector with entries "
                             "beyond float precision")
    k = int(passing[-1]) + 1
    return np.maximum(v - cssv[k - 1] / k, 0.0)


@functools.lru_cache(maxsize=64)
def _ranks(n):
    """Read-only float ranks 1..n, the divisors of the simplex threshold."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def simplex_prox(y, g, L):
    """Projected-gradient step over the unit simplex, with curvature L.

    Returns the projection of y - g / L onto the simplex, i.e. the minimizer
    of <g, z - y> + (L/2)||z - y||^2 over the simplex. Raises ValueError
    unless L > 0.
    """
    if L <= 0:
        raise ValueError("prox curvature L must be positive")
    return project_simplex(np.asarray(y, float) - np.asarray(g, float) / L)


@dataclass(frozen=True)
class PortfolioInstance:
    """Sector-constrained mean-variance portfolio problem data.

    Objective (1/2) x' Sigma x - risk_tradeoff * mu' x over the unit simplex,
    subject to sector exposure caps sector_matrix @ x <= sector_limits. The
    covariance Sigma is the learnable parameter; sigma holds the value the
    instance was generated with.
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
        A = np.asarray(self.sector_matrix, dtype=float)
        b = np.asarray(self.sector_limits, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
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
        object.__setattr__(self, "sector_matrix", A)
        object.__setattr__(self, "sector_limits", b)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", symmetrize(sigma))

    def to_json(self, path=None):
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
        text = json.dumps(payload, sort_keys=True, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _curvature_pair(theta):
    """(L_p, mu) of the portfolio objective at theta, from one spectrum.

    np.linalg.eigvalsh of the symmetric theta, widened by the rounding
    margin max(n, 32) * eps * max |eigenvalue|: L_p is max |eigenvalue| (the
    spectral norm) plus the margin, and mu is the smallest eigenvalue less
    the margin, floored at 0. So L_p bounds the curvature from above and mu
    from below, also for an indefinite theta.
    """
    eig = np.linalg.eigvalsh(theta)
    top = float(max(-eig[0], eig[-1]))
    margin = max(eig.size, _MIN_MARGIN_ULPS) * np.finfo(float).eps * top
    return top + margin, max(0.0, float(eig[0]) - margin)


def portfolio_problem(instance, kappa=1.0):
    """Build the ParametricProblem for a portfolio instance.

    theta is the covariance matrix, prox_step is project_simplex, and the
    constraint cone is the nonnegative orthant: h(x) = A x - b must be <= 0.
    The curvature oracle smooth_curvature(theta) is _curvature_pair behind a
    memo of the problem's own: the pair of every finite theta factored is
    stored with theta's bytes, keyed on its dtype, shape and _FINGERPRINT
    evenly strided entries, and a lookup answers only when the bytes match
    (a theta that shares the key but not the bytes is factored and takes
    the key over). So the runs sharing one problem factor each theta once,
    and a hit returns the very pair a factorisation would, whatever the
    order of the runs. The memo holds at most _CURVATURE_MEMO pairs,
    evicting the oldest. It is safe to share across threads: each lookup,
    store and removal is one dict operation on immutable entries, so at
    worst two threads factor the same theta and store identical pairs, or
    evict one pair more than the cap asks.

    Constants: D_x = 1 on the simplex, L_f = D_x^2 / 2 for the quadratic
    risk term under the Frobenius metric on theta, L_h_theta = 0 because
    the sector constraints do not depend on theta, and L_curv_theta = 1
    because the Hessian of p is theta: by Weyl's inequality every
    eigenvalue of a symmetric theta moves by at most ||theta - theta'||_2
    <= ||theta - theta'||_F (Horn & Johnson 2013, Cor. 4.3.15).

    forward(problem, lam, rho, theta, L) reads A and b through problem's
    oracles and folds 1/L, rho and the offsets into one (n + s) x n matrix
    W = [I - theta / L; A] and the constants c = b + lam / rho, B = (rho /
    L) A' and d = gamma mu / L, so y - grad nu(y) / L is w = W y, r =
    max(w[n:] + c, 0), w[:n] - B r + d: two matrix-vector products. It
    restates the gradient of smooth_value_grad and the orthant's dual
    projection, so it raises ValueError unless
    inspect.unwrap(problem.smooth_value_grad) is this problem's own oracle,
    the cone is a NonnegativeOrthant and its project_dual is the orthant's
    own method; a functools.wraps wrapper, such as a timer, stands for the
    oracle or method it wraps.
    """
    offset = -instance.sector_limits
    mu = instance.mu
    gamma = instance.risk_tradeoff
    gamma_mu = gamma * mu

    def smooth_value_grad(x, theta):
        x = np.asarray(x, dtype=float)
        Sx = theta @ x
        value = 0.5 * float(x @ Sx) - gamma * float(mu @ x)
        return value, Sx - gamma_mu

    def forward(problem, lam, rho, theta, L):
        if (inspect.unwrap(problem.smooth_value_grad) is not smooth_value_grad
                or type(problem.cone) is not NonnegativeOrthant
                or getattr(inspect.unwrap(problem.cone.project_dual), "__func__",
                           None) is not NonnegativeOrthant.project_dual):
            raise ValueError("the portfolio's forward map serves only its own "
                             "smooth_value_grad and a NonnegativeOrthant cone")
        A = problem.constraint_matrix(theta)
        m, n = A.shape
        W = np.empty((n + m, n))
        np.divide(theta, -L, out=W[:n])
        W.reshape(-1)[:n * n:n + 1] += 1.0  # the diagonal of W[:n], a view
        W[n:] = A
        c = problem.constraint_offset(theta) + np.asarray(lam, dtype=float) / rho
        B = (rho / L) * A.T
        d = gamma_mu / L

        def step(y):
            w = W @ y
            r = w[n:]
            r += c
            np.maximum(r, 0.0, out=r)
            v = w[:n]
            v -= B @ r
            v += d
            return v

        return step

    def in_simplex(x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -_MEMBERSHIP_TOL)
                    and abs(float(np.sum(x)) - 1.0) <= _MEMBERSHIP_TOL)

    def vertex_minimizer(g):
        out = np.zeros(instance.n)
        out[g.argmin()] = 1.0
        return out

    memo = {}

    def smooth_curvature(theta):
        point = np.asarray(theta)
        data = point.tobytes()
        flat = point.reshape(-1)
        key = (point.dtype.str, point.shape,
               flat[::max(1, flat.size // _FINGERPRINT)].tobytes())
        entry = memo.get(key)
        if entry is not None and entry[0] == data:
            return entry[1]
        pair = _curvature_pair(theta)
        if np.isfinite(point).all():
            memo.pop(key, None)  # a colliding theta's entry
            memo[key] = (data, pair)
            for stale in list(memo)[:-_CURVATURE_MEMO]:
                memo.pop(stale, None)
        return pair

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
        constraint_matrix=lambda theta: instance.sector_matrix,
        constraint_offset=lambda theta: offset,
        cone=NonnegativeOrthant(instance.s),
        constants=constants,
        smooth_curvature=smooth_curvature,
        membership=in_simplex,
        linear_minimizer=vertex_minimizer,
        forward=forward,
    )
