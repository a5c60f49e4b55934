"""Learners that reveal the problem parameter one estimate per epoch.

A learner holds the current estimate in `theta`, advances one learning
iteration per `step()` call, and counts those iterations in `steps_taken`.
Every estimate is handed out frozen and uncopied: a write raises
ValueError, and a run that meets the same frozen array again reuses
what it computed from it (linalg.frozen_memo's caching rule). A
learner reports no rate: `experiments.prepare_bundle` certifies
one from the error history.
Two concrete learners are provided: an exact geometric learner for
controlled tests, and a two-block ADMM solver for the sparse covariance
selection problem

    minimize (1/2) ||Sigma - S||_F^2 + upsilon * |offdiag(Sigma)|_1
    subject to Sigma >= psd_floor * I.

Learner instances are single-owner mutable state. Each ADMM sweep is one
eigenvalue-floored projection: a Cholesky factorisation tests whether the
target already lies in the floored cone, and only a target outside it is
factored by LAPACK `eigh`. The sweep sequence is fixed by its ScsProblem,
so each problem keeps one read-only record of the sweeps run on it, and
`admm_solve` is the only code that runs or records a sweep. An
`AdmmScsLearner` replays the record up to the sweep that meets the ADMM
stopping test and then holds that Sigma*; the estimates it hands out are
the record's read-only arrays, shared by every learner on the problem.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import frozen, soft_threshold_offdiag, symmetrize
from .model import NonFiniteError

__all__ = [
    "SyntheticLearner", "FrozenLearner", "ScsProblem", "eigh_clip", "scs_init",
    "scs_admm_step", "AdmmScsLearner", "admm_solve",
]


def _read_only(theta):
    theta.flags.writeable = False
    return theta


class SyntheticLearner:
    """Geometric test learner: theta_k = theta* + tau^k (theta_0 - theta*).

    Realizes the linear-rate contract with equality, which makes it the
    reference double for rate experiments. Each step() returns its new
    theta read-only, uncopied.
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
        self.theta = _read_only(self.theta0.copy())

    def step(self):
        self.steps_taken += 1
        drift = self.tau ** self.steps_taken * (self.theta0 - self.theta_star)
        self.theta = _read_only(self.theta_star + drift)
        return self.theta


class FrozenLearner:
    """Degenerate learner that always reveals the same estimate.

    Holds one frozen array (linalg.frozen): a frozen theta as given,
    uncopied (the ADMM record's Sigma that `sequential_baseline` freezes),
    else a frozen copy. step() returns that array and learns nothing, so
    steps_taken stays 0. Used by the known-parameter runs and by
    sequential baselines after their learning budget is exhausted.
    """

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=float)
        self.theta = theta if frozen(theta) else _read_only(theta.copy())
        self.steps_taken = 0

    def step(self):
        return self.theta


@dataclass(frozen=True)
class ScsProblem:
    """Sparse covariance selection inputs.

    S is the sample covariance, upsilon the l1 weight on off-diagonal
    entries, psd_floor the eigenvalue floor of the feasible set, and
    admm_penalty the splitting penalty. The sweeps `admm_solve` runs on the
    problem are kept on the object (`record`), and every learner built on
    it replays them; any other ScsProblem, one from `dataclasses.replace`
    included, records its own.
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

    @functools.cached_property
    def record(self):
        """The ADMM sweeps run on this problem, from the first (`SweepRecord`).

        Created holding the first sweep only, from `scs_init`: for a
        rank-deficient S that takes the two `eigh` factorisations of a
        cold start, once per ScsProblem object. `admm_solve` appends every
        later sweep, and learners read the sweeps it ran.
        """
        return SweepRecord(scs_init(self))

    def objective(self, Sigma):
        """SCS objective value at Sigma (constraint not included)."""
        Sigma = np.asarray(Sigma, dtype=float)
        off = Sigma - np.diag(np.diag(Sigma))
        return 0.5 * np.linalg.norm(Sigma - self.S, "fro") ** 2 \
            + self.upsilon * np.sum(np.abs(off))

    def to_json(self):
        payload = {
            "S": self.S.tolist(),
            "upsilon": self.upsilon,
            "psd_floor": self.psd_floor,
            "admm_penalty": self.admm_penalty,
        }
        return json.dumps(payload, sort_keys=True, indent=1)


@dataclass
class ScsState:
    """Mutable ADMM state: primal blocks, scaled dual, and residuals."""

    Sigma: np.ndarray
    Phi: np.ndarray
    U: np.ndarray
    primal_residual: float = np.inf
    dual_residual: float = np.inf


class SweepRecord:
    """Sigma and residuals after ADMM sweeps 1..m of one ScsProblem.

    sigmas[i] is Sigma after sweep i + 1 and residuals[i] its (primal,
    dual) residual pair; `last` is the whole state after sweep m, from
    which `admm_solve` runs the sweeps past the record. Every array is
    read-only, so an in-place write raises ValueError instead of
    corrupting every later replay. Only `admm_solve` appends, so the
    record never holds more sweeps than the solves on its problem ran.
    """

    def __init__(self, first):
        self.sigmas = []
        self.residuals = []
        self.append(first)

    def append(self, state):
        """Record `state`, the state after the sweep that follows `last`."""
        for block in (state.Sigma, state.Phi, state.U):
            block.flags.writeable = False
        self.sigmas.append(state.Sigma)
        self.residuals.append((state.primal_residual, state.dual_residual))
        self.last = state


# The benchmark's tracer times the eigensolve under this name; the benchmark
# change of ROADMAP item 1 moves that span to eigh_clip and drops the binding.
jacobi_eigh = np.linalg.eigh


def eigh_clip(M, floor):
    """Project a symmetric matrix onto {Sigma : Sigma >= floor * I}.

    Symmetrizes defensively to S and tries one Cholesky factorisation
    S - floor * I = R R^T. When it completes, S is returned as its own
    projection: a completed factorisation is exact for S - floor * I + E
    with |E| <= gamma_{n+1} |R| |R^T| (Higham 2002, Thm 10.3), so the
    smallest eigenvalue of S is at least floor - delta and S lies within
    delta of its exact projection, delta = n (n + 1) eps (||S||_2 + floor)
    with eps = 2**-52. Otherwise S is factored with LAPACK `eigh`, its
    eigenvalues are clamped at the floor and V diag(w) V^T is returned,
    floored up to the rounding of that product. LAPACK's Cholesky carries
    NaN into the factor without failing and its `eigh` may fail to
    converge on one, so a factor with a non-finite trace is refused and a
    NaN or infinite entry raises NonFiniteError before any `eigh`.
    """
    S = symmetrize(M)
    shifted = S.copy()
    shifted.flat[::len(S) + 1] -= floor
    try:
        if math.isfinite(np.linalg.cholesky(shifted).trace()):
            return S
    except np.linalg.LinAlgError:
        pass
    if not np.isfinite(S).all():
        raise NonFiniteError("eigenvalue-floored projection of a matrix with "
                             "NaN or infinite entries")
    w, V = jacobi_eigh(S)
    return symmetrize((V * np.maximum(w, floor)) @ V.T)


def scs_init(problem):
    """ADMM state after the first sweep, where every solve and learner starts.

    Both primal blocks start at `eigh_clip(S, psd_floor)` and the dual at
    zero. Each call runs the sweep afresh and returns writable blocks; the
    one copy that every solve and learner on the problem shares is the
    first entry of `problem.record`.
    """
    Sigma0 = eigh_clip(problem.S, problem.psd_floor)
    _, state = scs_admm_step(problem, ScsState(Sigma=Sigma0, Phi=Sigma0,
                                               U=np.zeros_like(Sigma0)))
    return state


def scs_admm_step(problem, state):
    """One two-block ADMM sweep; returns (Sigma_k, new state).

    Sigma-update: eigenvalue-floored projection of
    (S + mu (Phi - U)) / (1 + mu); Phi-update: off-diagonal soft threshold
    of Sigma + U at upsilon / mu, diagonal copied; dual: U += Sigma - Phi.
    Every emitted Sigma is symmetric with smallest eigenvalue >= psd_floor,
    up to the slack `eigh_clip` states.
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
        primal_residual=float(np.linalg.norm(Sigma - Phi, "fro")),
        dual_residual=float(mu * np.linalg.norm(Phi - state.Phi, "fro")),
    )
    return Sigma, new_state


class AdmmScsLearner:
    """Learner facade over the SCS ADMM iteration, replayed to its limit.

    The very first sweep provably leaves the covariance block unchanged
    (it shares the eigenbasis of the floored sample covariance), so a
    learner starts after it: theta is Sigma after sweep 1, and the k-th
    step() reveals Sigma after sweep k + 1. The sweeps are those of
    `admm_solve(problem)` at its default tolerance, read from the
    problem's `record`; once they reach the sweep that meets the
    tolerance, the learner holds that Sigma*, since a converged ADMM
    process repeats its limit (Boyd et al. 2011, Sec. 3.3). On a problem
    whose record already holds that sweep, as a bundle's does, a learner
    runs no sweep; on any other the constructor runs the solve, or raises
    its RuntimeError. theta and every step() are the record's read-only
    arrays, uncopied.
    """

    def __init__(self, problem):
        self._history = admm_solve(problem)[1]["history"]
        self.steps_taken = 0

    @property
    def theta(self):
        return self._history[min(self.steps_taken, len(self._history) - 1)]

    def step(self):
        self.steps_taken += 1
        return self.theta


_MAX_SWEEPS = 10_000  # cap on the sweeps of one admm_solve
ADMM_TOL = 1e-9  # admm_solve's residual tolerance, at which learners hold Sigma*


def admm_solve(problem, tol=ADMM_TOL):
    """Run the SCS ADMM iteration to convergence, along the problem's record.

    Starts from the first sweep and stops at the first sweep whose primal
    residual ||Sigma - Phi||_F and dual residual mu ||Phi_k - Phi_{k-1}||_F
    both lie below tol. Sweeps already in `problem.record` are read from
    it; only sweeps past its end are run, and they are appended to it.
    Raises RuntimeError after _MAX_SWEEPS sweeps, the first included,
    without that. Returns (Sigma_star, info): Sigma_star is the last
    sweep's recorded Sigma, read-only and uncopied, and info records
    sweeps, the final residuals and history, the recorded Sigma of every
    sweep from the first (read-only, not copies): at the default tol,
    history[k] is the estimate a learner on the problem reveals at step k.
    Raises ValueError, before any sweep, for a tol that is NaN or negative.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    record = problem.record
    k = 1
    while not max(record.residuals[k - 1]) <= tol:
        if k >= _MAX_SWEEPS:
            raise RuntimeError(f"ADMM did not reach residual {tol:g} "
                               f"within {_MAX_SWEEPS} sweeps")
        if k == len(record.sigmas):
            record.append(scs_admm_step(problem, record.last)[1])
        k += 1
    primal, dual = record.residuals[k - 1]
    info = {
        "sweeps": k,
        "primal_residual": primal,
        "dual_residual": dual,
        "history": record.sigmas[:k],
    }
    return record.sigmas[k - 1], info
