"""Accelerated proximal gradient (FISTA) for the penalized subproblems.

Each outer iteration minimizes q(x; theta) + nu_rho(x, lam; theta) over X,
where nu_rho collects the smooth objective part and the quadratic cone
penalty. nu_rho has Lipschitz gradient with constant L_p + rho ||A(theta)||^2
and, the penalty being convex, the strong-convexity modulus mu of p(.;
theta). One loop, fista (no restarts, no line search), runs every solve.
The per-theta constants, the curvature pair (L_p, mu) from
problem.smooth_curvature and ||A(theta)||^2, are computed once per distinct
theta, so the solves of an epoch, and every epoch of a frozen estimate,
share them.

A solve runs the shorter of two a-priori budgets for an alpha-accurate
value, FISTA's on a tie: FISTA's, with its momentum,

    T = ceil(sqrt(2 L / alpha) * R),   R = min(D_x, sqrt(2 gap / mu)),

from F(z_T) - F* <= 2 L ||x_init - x*||^2 / (T + 1)^2 (Beck & Teboulle
2009), and the linear-rate one, with the strongly convex momentum,

    T_sc = ceil(ln(2 gap / alpha) / -ln(1 - sqrt(mu / L))),   1 if 2 gap <= alpha,

from F(z_T) - F* <= (1 - sqrt(mu/L))^T (F(x_init) - F* + (mu/2)
||x_init - x*||^2) (Nesterov 2004, 2.2; Beck 2017, Thm 10.42). gap =
<grad nu(x_init), x_init - s> is the linear-minimizer certificate at x_init
(Jaggi 2013), and (mu/2) ||x_init - x*||^2 <= F(x_init) - F* <= gap, so R
bounds the warm start's distance to the optimum and 2 gap the bracket of
T_sc. Without mu > 0 and a linear minimizer there is no gap, and T runs
with R = D_x. The gradient taken for the gap is the first step's, so every
step evaluates one gradient. A budget above MAX_ITERATIONS raises
BudgetError, the one cap failure.

apg_solve runs the budget to its end. certified_solve (used by the
sequential-vs-simultaneous comparison and by dual_gap_estimates) may exit
before it, never after, once the certificate of the step just taken is at
most alpha: for q == 0 and the step z = proj_X(y - grad nu(y) / L) from any
point y, momentum points included, F(z) - F(x) <= L <e, y - x> - (L/2)
||e||^2 with e = y - z for every x in X (Beck & Teboulle 2009, Lemma 2.3),
so one linear minimization over X bounds F(z) - F* with the step's own
gradient.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .model import NonFiniteError, constraint_value

__all__ = [
    "ApgConfig", "BudgetError", "MAX_ITERATIONS", "lipschitz_nu", "grad_nu",
    "nu_value", "iteration_budget", "fista", "apg_solve", "certified_solve",
]

# Cap on the budget of one inner solve.
MAX_ITERATIONS = 2_000_000

_log = logging.getLogger("simalm")


class BudgetError(RuntimeError):
    """Raised when a required iteration budget exceeds MAX_ITERATIONS."""


@dataclass
class ApgConfig:
    """Inner-solver settings: the target inexactness alpha of one solve."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("target inexactness alpha must be positive")


def _theta_constants(problem, theta):
    """(L_p, mu, ||A(theta)||^2), computed once per distinct theta."""
    def compute(th):
        L_p, mu = problem.smooth_curvature(th)
        A = np.asarray(problem.constraint_matrix(th), dtype=float)
        return float(L_p), float(mu), spectral_norm(A) ** 2

    return problem.theta_memo(theta, compute)


def lipschitz_nu(problem, rho, theta):
    """Gradient Lipschitz constant of the smooth subproblem part.

    L_p(theta) + rho * ||A(theta)||^2; monotone increasing in rho. L_p and
    the norm are computed once per distinct theta (problem.theta_memo).
    """
    if rho < 0:
        raise ValueError("penalty rho must be nonnegative")
    L_p, _, a_norm_sq = _theta_constants(problem, theta)
    return L_p + rho * a_norm_sq


def _bound_gradient(problem, lam, rho, theta):
    """grad nu_rho(., lam; theta) with A, b, lam/rho and the oracles bound once."""
    if rho <= 0:
        raise ValueError("penalty rho must be positive")
    A = np.asarray(problem.constraint_matrix(theta), dtype=float)
    b = np.asarray(problem.constraint_offset(theta), dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError("constraint shapes are inconsistent")
    shift = np.asarray(lam, dtype=float) / rho
    A_T = A.T
    smooth_grad = problem.smooth_grad
    project_dual = problem.cone.project_dual

    def grad(y):
        penalty = A_T @ project_dual((A @ y + b) + shift)
        return smooth_grad(y, theta) + rho * penalty

    return grad


def _budget(L, alpha, radius):
    return max(1, math.ceil(math.sqrt(2.0 * L / alpha) * radius))


def _linear_budget(L, mu, gap, alpha):
    """Fewest steps T of the strongly convex loop with (1 - sqrt(mu/L))^T 2 gap
    <= alpha: 1 when 2 gap <= alpha, inf when the gap was not computed (NaN)."""
    if math.isnan(gap):
        return math.inf
    if 2.0 * gap <= alpha or mu == L:
        return 1
    return math.ceil(math.log(2.0 * gap / alpha) / -math.log1p(-math.sqrt(mu / L)))


def _warm_radius(problem, grad, x, mu, where):
    """(R, gap, grad(x)) of the budget from the warm start x in X.

    R = min(D_x, sqrt(2 gap / mu)); the second term bounds ||x - x*||. With
    mu = 0 or without problem.linear_minimizer, (D_x, NaN, None): nothing
    computed. A gap rounded below zero counts as zero; NaN or inf raises.
    """
    D_x = problem.constants.D_x
    if mu <= 0.0 or problem.linear_minimizer is None:
        return D_x, math.nan, None
    g = grad(x)
    gap = float(g @ (x - problem.linear_minimizer(g)))
    if not math.isfinite(gap):
        raise NonFiniteError(f"non-finite gradient at the warm start{where}")
    return min(D_x, math.sqrt(2.0 * max(gap, 0.0) / mu)), gap, g


def grad_nu(problem, x, lam, rho, theta):
    """Gradient in x of the smooth part: grad p + rho A' proj_{K*}(h + lam/rho)."""
    return _bound_gradient(problem, lam, rho, theta)(np.asarray(x, dtype=float))


def nu_value(problem, x, lam, rho, theta):
    """Value of the smooth subproblem part nu_rho(x, lam; theta)."""
    if rho <= 0:
        raise ValueError("penalty rho must be positive")
    lam = np.asarray(lam, dtype=float)
    p, _ = problem.smooth_value_grad(x, theta)
    d = problem.cone.dist_neg(constraint_value(problem, x, theta) + lam / rho)
    return float(p) + 0.5 * rho * float(d) ** 2 - float(lam @ lam) / (2.0 * rho)


def iteration_budget(problem, rho, theta, alpha):
    """A-priori iteration count sqrt(2 L / alpha) * D_x, rounded up.

    It holds for any start in X; no inner solve runs more steps.
    The bound is a real number while iterations are integral; ceiling keeps
    the accuracy guarantee.
    """
    return _budget(lipschitz_nu(problem, rho, theta), alpha,
                   problem.constants.D_x)


def fista(grad, prox, L, x0, max_steps, callback=None, stop=None, mu=0.0,
          g0=None):
    """Core accelerated proximal gradient loop.

    grad(y) and prox(y, g, L) define the composite model; iterates start at
    z_0 = x0 and each step is z_t = prox(y, grad(y), L) from the momentum
    point y = z_{t-1} + b_t (z_{t-1} - z_{t-2}). With mu = 0, b_t follows
    the FISTA sequence (m_t - 1) / m_{t+1}, m_1 = 1, m_{t+1} = (1 + sqrt(1
    + 4 m_t^2)) / 2 (Beck & Teboulle 2009). A modulus 0 < mu <= L of strong
    convexity of the smooth part on all of R^n (momentum points leave X)
    selects the constant b = (sqrt(L/mu) - 1) / (sqrt(L/mu) + 1) of the
    strongly convex method (Nesterov 2004, 2.2; Beck 2017, Thm 10.42,
    V-FISTA): F(z_T) - F* <= (1 - sqrt(mu/L))^T (F(x0) - F* + (mu/2)
    ||x0 - x*||^2). g0, when given, is grad(x0), already evaluated by the
    caller; the first step uses it, so every step evaluates one gradient.
    Returns (last iterate, steps taken).

    callback(t, z) is invoked after each step, for tracing. The optional
    stop(y, z) predicate is evaluated after each step with the point y the
    step was taken from and the new iterate z = prox(y, grad(y), L); the
    loop returns z as soon as it holds. Raises ValueError unless L > 0 and
    0 <= mu <= L.
    """
    if not L > 0:
        raise ValueError("prox curvature L must be positive")
    if not 0.0 <= mu <= L:
        raise ValueError("strong-convexity modulus mu must lie in [0, L]")
    if mu > 0.0:
        root = math.sqrt(L / mu)
        b = (root - 1.0) / (root + 1.0)
    z = np.asarray(x0, dtype=float)
    y = z
    m = 1.0
    t = 0
    for t in range(1, max_steps + 1):
        z_new = prox(y, grad(y) if t > 1 or g0 is None else g0, L)
        if callback is not None:
            callback(t, z_new)
        if stop is not None and stop(y, z_new):
            return z_new, t
        if mu == 0.0:
            m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * m * m))
            b, m = (m - 1.0) / m_next, m_next
        y = z_new + b * (z_new - z)
        z = z_new
    return z, t


def _solve(problem, x_init, lam, rho, theta, alpha, epoch, certify):
    """(x, steps, certificate of the last step, NaN unless certify)."""
    if certify and problem.linear_minimizer is None:
        raise ValueError("problem lacks a linear minimization oracle")
    grad = _bound_gradient(problem, lam, rho, theta)

    def prox(y, g, L):
        return problem.prox_step(y, g, L, theta)

    L_p, mu, a_norm_sq = _theta_constants(problem, theta)
    L = L_p + rho * a_norm_sq
    x_init = np.asarray(x_init, dtype=float)
    where = f" at epoch {epoch}" if epoch is not None else ""
    radius, gap, g0 = _warm_radius(problem, grad, x_init, mu, where)
    fista_budget = _budget(L, alpha, radius)
    linear_budget = _linear_budget(L, mu, gap, alpha)
    budget = min(fista_budget, linear_budget)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("inner solve epoch=%s L=%.6g mu=%.6g gap=%.6g "
                   "a_priori_budget=%d fista_budget=%d budget=%d", epoch, L, mu,
                   gap, _budget(L, alpha, problem.constants.D_x),
                   fista_budget, budget)
    if budget > MAX_ITERATIONS:
        raise BudgetError(
            f"required budget {budget} exceeds cap {MAX_ITERATIONS}{where}")
    cert, stop = math.nan, None
    if certify:
        linear_minimizer = problem.linear_minimizer

        def stop(y, z):
            nonlocal cert
            e = y - z
            # linear_minimizer is positively homogeneous: argmin <L e, x> = s
            cert = L * (float(e @ (y - linear_minimizer(e))) - 0.5 * float(e @ e))
            return cert <= alpha

    x, steps = fista(grad, prox, L, x_init, budget, stop=stop,
                     mu=mu if linear_budget < fista_budget else 0.0, g0=g0)
    return x, steps, cert


def apg_solve(problem, x_init, lam, rho, theta, config, epoch=None):
    """Run the budget for config.alpha from the warm start x_init in X.

    Returns (x, steps). Logs L, mu, the gap at x_init, the a-priori and
    FISTA budgets and last the budget run at DEBUG level on the "simalm"
    logger. Raises BudgetError or NonFiniteError naming the epoch.
    """
    x, steps, _ = _solve(problem, x_init, lam, rho, theta, config.alpha, epoch, False)
    return x, steps


def certified_solve(problem, x_init, lam, rho, theta, gap_tol, epoch=None):
    """apg_solve for alpha = gap_tol with the step certificate's early exit.

    Requires problem.linear_minimizer and q == 0 (prox_step projects onto
    X). Returns (x, value at x, certificate of the last step, steps); the
    certificate bounds F(x) - F* and is at most gap_tol unless the budget
    ended the solve.
    """
    x, steps, cert = _solve(problem, x_init, lam, rho, theta,
                            ApgConfig(alpha=gap_tol).alpha, epoch, True)
    value = float(problem.nonsmooth_value(x, theta)) + nu_value(problem, x, lam, rho, theta)
    return x, value, cert, steps
