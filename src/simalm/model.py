"""Parametric problem definition and the sector-constrained portfolio family.

A problem instance is a composite objective f(x; theta) = q(x; theta) +
p(x; theta) minimized over a simple set X with a prox oracle, subject to the
conic constraint h(x; theta) = A(theta) x + b(theta) lying in -K. Problem
objects are immutable bundles of pure oracles and can be shared freely
across threads.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cones import Cone, NonnegativeOrthant
from .linalg import spectral_norm, symmetrize

__all__ = [
    "NonFiniteError", "ProblemConstants", "ParametricProblem",
    "PortfolioInstance", "evaluate_f", "constraint_value", "infeasibility",
    "project_simplex", "simplex_prox", "portfolio_problem",
]


class NonFiniteError(RuntimeError):
    """A run produced a non-finite iterate, multiplier or parameter estimate."""


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level constants consumed by iteration budgets and bound curves.

    L_p_x      Lipschitz constant of grad_x p, uniform in theta.
    L_h_x      max over theta of the spectral norm of A(theta).
    L_h_theta  Lipschitz constant of h in theta (uniform in x over X).
    L_f        Lipschitz constant of f in theta (uniform in x over X).
    D_x        max norm of a point of X.
    kappa      pseudo-Lipschitz constant of the inner solution map in theta;
               user-supplied, scales reported bound curves only.
    """

    L_p_x: float
    L_h_x: float
    L_h_theta: float
    L_f: float
    D_x: float
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("L_p_x", "L_h_x", "L_h_theta", "L_f", "D_x", "kappa"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"constant {name} must be finite and nonnegative")


@dataclass(frozen=True)
class ParametricProblem:
    """Oracle bundle for one parametric conic program.

    smooth_value_grad(x, theta) -> (p, grad_p)
    nonsmooth_value(x, theta)   -> q
    prox_step(y, g, L, theta)   -> argmin_{z in X} q(z) + <g, z-y> + (L/2)||z-y||^2
    constraint_matrix(theta)    -> A(theta), shape (m, n)
    constraint_offset(theta)    -> b(theta), shape (m,)
    cone                        -> constraint cone K of dimension m
    membership(x)               -> optional X-membership check
    smooth_lipschitz(theta)     -> optional per-theta curvature of p;
                                   falls back to constants.L_p_x
    linear_minimizer(g)         -> optional argmin_{s in X} <g, s>; enables
                                   duality-gap certificates on inner solves
    """

    smooth_value_grad: Callable
    nonsmooth_value: Callable
    prox_step: Callable
    constraint_matrix: Callable
    constraint_offset: Callable
    cone: Cone
    constants: ProblemConstants
    membership: Optional[Callable] = None
    smooth_lipschitz: Optional[Callable] = None
    linear_minimizer: Optional[Callable] = None

    def smooth_curvature(self, theta):
        if self.smooth_lipschitz is not None:
            return float(self.smooth_lipschitz(theta))
        return self.constants.L_p_x


def evaluate_f(problem, x, theta):
    """Composite objective value q(x; theta) + p(x; theta)."""
    p, _ = problem.smooth_value_grad(x, theta)
    return float(problem.nonsmooth_value(x, theta)) + float(p)


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

    Sort-and-threshold algorithm, O(n log n); the stable sort makes tie
    handling deterministic. Raises NonFiniteError on a NaN or infinite entry
    (one check of the total sum) and on entries so large (about 2**53) that
    the unit sum is lost to rounding, leaving no threshold.
    """
    v = np.asarray(v, dtype=float)
    u = -np.sort(-v, kind="stable")
    cssv = np.cumsum(u) - 1.0
    if not math.isfinite(cssv[-1]):
        raise NonFiniteError("simplex projection of a vector with NaN or "
                             "infinite entries")
    idx = np.arange(1, v.size + 1)
    passing = np.nonzero(u - cssv / idx > 0)[0]
    if passing.size == 0:
        raise NonFiniteError("simplex projection of a vector with entries "
                             "beyond float precision")
    rho = int(passing[-1])
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def simplex_prox(y, g, L):
    """Prox step over the unit simplex for a problem with q == 0.

    Returns the projection of y - g / L onto the simplex, i.e. the minimizer
    of <g, z - y> + (L/2)||z - y||^2 over the simplex.
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

    @classmethod
    def from_json(cls, source):
        """Load an instance from a JSON string or file path."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            with open(source) as fh:
                payload = json.load(fh)
        else:
            payload = json.loads(text)
        return cls(
            n=int(payload["n"]),
            s=int(payload["s"]),
            sector_matrix=np.array(payload["A"], dtype=float),
            sector_limits=np.array(payload["b"], dtype=float),
            mu=np.array(payload["mu"], dtype=float),
            risk_tradeoff=float(payload["risk_tradeoff"]),
            sigma=np.array(payload["sigma_true"], dtype=float),
            seed=int(payload["seed"]),
        )


def portfolio_problem(instance, kappa=1.0, membership_tol=1e-9):
    """Build the ParametricProblem for a portfolio instance.

    theta is the covariance matrix. The smooth part is the full objective
    (q == 0), the prox oracle is the simplex projection, and the constraint
    cone is the nonnegative orthant: h(x) = A x - b must be <= 0. The
    per-theta smooth curvature is the spectral norm of theta (its largest
    eigenvalue when theta is positive semidefinite), from the LAPACK SVD.

    Constants: D_x = 1 on the simplex, L_f = D_x^2 / 2 for the quadratic
    risk term under the Frobenius metric on theta, and L_h_theta = 0 because
    the sector constraints do not depend on theta.
    """
    A = instance.sector_matrix
    b = instance.sector_limits
    mu = instance.mu
    gamma = instance.risk_tradeoff
    offset = -b

    def smooth_value_grad(x, theta):
        x = np.asarray(x, dtype=float)
        Sx = theta @ x
        value = 0.5 * float(x @ Sx) - gamma * float(mu @ x)
        grad = Sx - gamma * mu
        return value, grad

    def nonsmooth_value(x, theta):
        return 0.0

    def prox_step(y, g, L, theta):
        return simplex_prox(y, g, L)

    def in_simplex(x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -membership_tol)
                    and abs(float(np.sum(x)) - 1.0) <= membership_tol)

    def vertex_minimizer(g):
        out = np.zeros(instance.n)
        out[int(np.argmin(g))] = 1.0
        return out

    constants = ProblemConstants(
        L_p_x=spectral_norm(instance.sigma),
        L_h_x=spectral_norm(A),
        L_h_theta=0.0,
        L_f=0.5,
        D_x=1.0,
        kappa=kappa,
    )
    return ParametricProblem(
        smooth_value_grad=smooth_value_grad,
        nonsmooth_value=nonsmooth_value,
        prox_step=prox_step,
        constraint_matrix=lambda theta: A,
        constraint_offset=lambda theta: offset,
        cone=NonnegativeOrthant(instance.s),
        constants=constants,
        membership=in_simplex,
        smooth_lipschitz=lambda theta: spectral_norm(theta),
        linear_minimizer=vertex_minimizer,
    )
