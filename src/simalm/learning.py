"""Learners that reveal the problem parameter one estimate per epoch.

A learner holds the current estimate in `theta`, advances one iteration per
`step()` call, and reports a linear convergence rate through `rate_tau()`.
Two concrete learners are provided: an exact geometric learner for
controlled tests, and a two-block ADMM solver for the sparse covariance
selection problem

    minimize (1/2) ||Sigma - S||_F^2 + upsilon * |offdiag(Sigma)|_1
    subject to Sigma >= psd_floor * I.

Learner instances are single-owner mutable state; the estimates they hand
out are fresh arrays that may be shared freely. Each ADMM sweep is one
eigenvalue-floored projection, factored by LAPACK `eigh` from scratch. The
ADMM start point, S floored at psd_floor, is computed once per ScsProblem
and shared read-only by `admm_solve` and every `AdmmScsLearner` on that
problem.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import soft_threshold_offdiag, symmetrize
from .model import NonFiniteError

__all__ = [
    "SyntheticLearner", "FrozenLearner", "ScsProblem", "ScsState",
    "eigh_clip", "scs_init", "scs_admm_step", "AdmmScsLearner",
    "estimate_tau", "admm_solve",
]


class SyntheticLearner:
    """Geometric test learner: theta_k = theta* + tau^k (theta_0 - theta*).

    Realizes the linear-rate contract with equality, which makes it the
    reference double for rate experiments.
    """

    def __init__(self, theta_star, theta0, tau):
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        self.theta_star = np.asarray(theta_star, dtype=float).copy()
        self.theta0 = np.asarray(theta0, dtype=float).copy()
        if self.theta_star.shape != self.theta0.shape:
            raise ValueError("theta0 and theta_star shapes differ")
        self.tau = float(tau)
        self.steps_taken = 0
        self.theta = self.theta0.copy()

    def step(self):
        self.steps_taken += 1
        drift = self.tau ** self.steps_taken * (self.theta0 - self.theta_star)
        self.theta = self.theta_star + drift
        return self.theta.copy()

    def rate_tau(self):
        return self.tau


class FrozenLearner:
    """Degenerate learner that always reveals the same estimate.

    Used by sequential baselines after their learning budget is exhausted;
    it carries no linear-rate guarantee.
    """

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float).copy()
        self.steps_taken = 0

    def step(self):
        self.steps_taken += 1
        return self.theta.copy()

    def rate_tau(self):
        raise ValueError("a frozen estimate has no learning rate")


@dataclass(frozen=True)
class ScsProblem:
    """Sparse covariance selection inputs.

    S is the sample covariance, upsilon the l1 weight on off-diagonal
    entries, psd_floor the eigenvalue floor of the feasible set, and
    admm_penalty the splitting penalty. S floored at psd_floor is cached on
    the object (`start`) and shared by every learner built on it; any other
    ScsProblem, one from `dataclasses.replace` included, factors S again.
    """

    S: np.ndarray
    upsilon: float = 0.4
    psd_floor: float = 1e-2
    admm_penalty: float = 1.0

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("S must be square")
        if not np.allclose(S, S.T, atol=1e-8):
            raise ValueError("S must be symmetric")
        if self.upsilon <= 0 or self.psd_floor <= 0 or self.admm_penalty <= 0:
            raise ValueError("upsilon, psd_floor and admm_penalty must be positive")
        object.__setattr__(self, "S", symmetrize(S))

    @property
    def n(self):
        return self.S.shape[0]

    @functools.cached_property
    def start(self):
        """S projected onto {Sigma >= psd_floor * I} by `eigh_clip`.

        Factored once per ScsProblem object with LAPACK; the matrix is
        read-only, so an in-place write raises ValueError instead of
        corrupting every later start.
        """
        Sigma0 = eigh_clip(self.S, self.psd_floor)
        Sigma0.flags.writeable = False
        return Sigma0

    def objective(self, Sigma):
        """SCS objective value at Sigma (constraint not included)."""
        Sigma = np.asarray(Sigma, dtype=float)
        off = Sigma - np.diag(np.diag(Sigma))
        return 0.5 * np.linalg.norm(Sigma - self.S, "fro") ** 2 \
            + self.upsilon * np.sum(np.abs(off))

    def to_json(self, path=None):
        payload = {
            "S": self.S.tolist(),
            "upsilon": self.upsilon,
            "psd_floor": self.psd_floor,
            "admm_penalty": self.admm_penalty,
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


@dataclass
class ScsState:
    """Mutable ADMM state: primal blocks, scaled dual, and residuals."""

    Sigma: np.ndarray
    Phi: np.ndarray
    U: np.ndarray
    k: int = 0
    primal_residual: float = np.inf
    dual_residual: float = np.inf


# The benchmark's tracer times the eigensolve under this name; the benchmark
# change of ROADMAP item 1 moves that span to eigh_clip and drops the binding.
jacobi_eigh = np.linalg.eigh


def eigh_clip(M, floor):
    """Project a symmetric matrix onto {Sigma : Sigma >= floor * I}.

    Symmetrizes defensively, factors with LAPACK `eigh`, clamps the
    eigenvalues at the floor and returns the projected matrix. LAPACK passes
    NaN on silently, so a NaN or infinite entry raises NonFiniteError (one
    check of the eigenvalue sum).
    """
    w, V = jacobi_eigh(symmetrize(M))
    if not math.isfinite(w.sum()):
        raise NonFiniteError("eigenvalue-floored projection of a matrix with "
                             "NaN or infinite entries")
    w = np.maximum(w, floor)
    return symmetrize((V * w) @ V.T)


def scs_init(problem):
    """Initial ADMM state: both primal blocks at the floored sample covariance.

    The floored matrix is `problem.start`, shared read-only by every state
    started on the same problem; the primal blocks are fresh copies.
    """
    Sigma0 = problem.start
    return ScsState(Sigma=Sigma0.copy(), Phi=Sigma0.copy(),
                    U=np.zeros_like(Sigma0))


def scs_admm_step(problem, state):
    """One two-block ADMM sweep; returns (Sigma_k, new state).

    Sigma-update: eigenvalue-floored projection of
    (S + mu (Phi - U)) / (1 + mu); Phi-update: off-diagonal soft threshold
    of Sigma + U at upsilon / mu, diagonal copied; dual: U += Sigma - Phi.
    Every emitted Sigma is symmetric with smallest eigenvalue >= psd_floor.
    """
    mu = problem.admm_penalty
    target = (problem.S + mu * (state.Phi - state.U)) / (1.0 + mu)
    Sigma = eigh_clip(target, problem.psd_floor)
    Phi = soft_threshold_offdiag(Sigma + state.U, problem.upsilon / mu)
    U = state.U + Sigma - Phi
    new_state = ScsState(
        Sigma=Sigma,
        Phi=Phi,
        U=U,
        k=state.k + 1,
        primal_residual=float(np.linalg.norm(Sigma - Phi, "fro")),
        dual_residual=float(mu * np.linalg.norm(Phi - state.Phi, "fro")),
    )
    return Sigma, new_state


class AdmmScsLearner:
    """Learner facade over the SCS ADMM iteration.

    The very first sweep provably leaves the covariance block unchanged
    (it shares the eigenbasis of the floored sample covariance), so it is
    consumed at construction; the first step() therefore already moves the
    estimate. The start point is the problem's cached, read-only `start`,
    so learners on one ScsProblem factor S only once between them; every
    sweep factors its own target with LAPACK, with no warm start.
    When sigma_ref (the limit point) is supplied the learner records its
    error history, so rate_tau() can fit a geometric rate to it.
    """

    def __init__(self, problem, sigma_ref=None):
        self.problem = problem
        self.state = scs_init(problem)
        _, self.state = scs_admm_step(problem, self.state)
        self._calls = 0
        self.sigma_ref = None if sigma_ref is None else np.asarray(sigma_ref, float)
        self.errors = []
        self._record_error(self.state.Sigma)

    def _record_error(self, Sigma):
        if self.sigma_ref is not None:
            self.errors.append(float(np.linalg.norm(Sigma - self.sigma_ref, "fro")))

    @property
    def theta(self):
        return self.state.Sigma

    @property
    def steps_taken(self):
        return self._calls

    def step(self):
        Sigma, self.state = scs_admm_step(self.problem, self.state)
        self._calls += 1
        self._record_error(Sigma)
        return Sigma.copy()

    def rate_tau(self):
        if self.sigma_ref is None:
            raise ValueError("rate estimation needs the reference limit point")
        return estimate_tau(self.errors)


_ERROR_FLOOR = 1e-14  # errors at or below it are left out of the rate fit
_MAX_SWEEPS = 10_000  # cap on the sweeps of one admm_solve


def estimate_tau(error_history):
    """Geometric rate fitted to an error history.

    Least-squares slope of log(error) against the iteration index, over the
    errors above _ERROR_FLOOR, exponentiated and clipped into (0, 1). Raises
    ValueError when fewer than three such errors are given or when the
    history does not decrease overall.
    """
    err = np.asarray([e for e in error_history if e > _ERROR_FLOOR], dtype=float)
    if err.size < 3:
        raise ValueError("need at least 3 positive error values")
    k = np.arange(err.size, dtype=float)
    slope = np.polyfit(k, np.log(err), 1)[0]
    if slope >= 0:
        raise ValueError("error history is not decreasing; no geometric rate")
    eps = np.finfo(float).tiny
    return float(np.clip(np.exp(slope), eps, 1.0 - 1e-16))


def admm_solve(problem, tol=1e-9, collect_history=False):
    """Run the SCS ADMM iteration to convergence.

    Stops when both the primal residual ||Sigma - Phi||_F and the dual
    residual mu ||Phi_k - Phi_{k-1}||_F fall below tol, and raises
    RuntimeError after _MAX_SWEEPS sweeps without that. Returns
    (Sigma_star, info) where info records sweeps, final residuals, and the
    Sigma history when collect_history is set.
    """
    state = scs_init(problem)
    history = [state.Sigma.copy()] if collect_history else None
    for _ in range(_MAX_SWEEPS):
        Sigma, state = scs_admm_step(problem, state)
        if collect_history:
            history.append(Sigma.copy())
        if max(state.primal_residual, state.dual_residual) <= tol:
            break
    else:
        raise RuntimeError(f"ADMM did not reach residual {tol:g} "
                           f"within {_MAX_SWEEPS} sweeps")
    info = {
        "sweeps": state.k,
        "primal_residual": state.primal_residual,
        "dual_residual": state.dual_residual,
        "history": history,
    }
    return state.Sigma.copy(), info
