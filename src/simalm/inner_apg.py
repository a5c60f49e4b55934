"""Accelerated proximal gradient (FISTA) for the penalized subproblems.

Each outer iteration minimizes nu_rho(x, lam; theta) over X, where nu_rho
collects the objective p and the quadratic cone penalty. nu_rho has
Lipschitz gradient with constant L_p + rho ||A(theta)||^2 and, the penalty
being convex, the strong-convexity modulus mu of p(.; theta). One loop,
fista (no restarts, no line search), runs every solve. Every solve takes
||A(theta)|| from linalg.spectral_norm, which answers a frozen matrix it
normed before without an SVD (linalg.frozen_memo's caching rule), and asks a
CurvatureAnchor for the curvature pair (L_p, mu): a run's anchor may carry
the pair of the last theta it factored (below), any other solve starts a
fresh one, which asks problem.smooth_curvature.

A solve runs the shorter of two a-priori budgets for an alpha-accurate
value, FISTA's on a tie: FISTA's, with its momentum,

    T = ceil(sqrt(2 L / alpha) * R),   R = min(D_x, sqrt(2 gap / mu)),

from F(z_T) - F* <= 2 L ||x_init - x*||^2 / (T + 1)^2 (Beck & Teboulle
2009), and the linear-rate one, with the strongly convex momentum,

    T_sc = ceil(ln(2 gap / alpha) / -ln(1 - sqrt(mu / L))),   1 if 2 gap <= alpha,

from F(z_T) - F* <= (1 - sqrt(mu/L))^T (F(x_init) - F* + (mu/2)
||x_init - x*||^2) (Nesterov 2004, 2.2; Beck 2017, Thm 10.42). gap =
<g, x_init> - problem.linear_min(g), g = grad nu(x_init), is the
Frank-Wolfe certificate max_{s in X} <g, x_init - s> at x_init (Jaggi
2013), and (mu/2) ||x_init - x*||^2 <= F(x_init) - F* <= gap, so R bounds
the warm start's distance to the optimum and 2 gap the bracket of T_sc.
Without mu > 0 there is no linear rate, and T runs with R = D_x. The gap
does not depend on (L, mu). A budget above MAX_ITERATIONS raises
BudgetError, the one cap failure.

Each step is z = prox_step(forward(y), warm): the forward step y - grad
nu(y) / L, set once per solve after L is fixed, then the projection onto
X. Where the problem has a forward map, the run's CurvatureAnchor builds it
once, at the run's first solve, and each solve calls it with (theta, lam,
rho, L) for its step (the portfolio's augmented [[I - theta / L, gamma mu /
L], [A, b + lam / rho]] gemv of [y; 1], which writes that matrix for
each call's arguments, steps in buffers of its own and refuses a problem
whose oracles it does not restate); else the step is the gradient composed
from smooth_value_grad and the dual-cone projection. The first step is
taken from the warm start's gradient, the gap's, so a solve takes one
gradient and then one forward step per later step, and one projection per
step. warm is the solve's hint for its projections: a dict it creates
empty, as a run creates its CurvatureAnchor, and passes to every
projection, the first included, so the hint lives as long as its solve.
project_simplex keeps there the support of its last projection and tests it
first (model).

A run need not factor every theta. Its CurvatureAnchor holds the last
theta_a it factored and that pair (L_a, mu_a). By Weyl's inequality (Horn &
Johnson 2013, Cor. 4.3.15) no eigenvalue of a symmetric Hessian moves by
more than d = constants.L_curv_theta ||theta - theta_a||_F, rounded up. So
the carried pair (L_a + d, max(0, mu_a - d)) still bounds the curvature at
theta, and a factorisation returns no better pair than (L_a - d, mu_a + d),
up to the oracle's rounding margin. Both budgets grow with L and with
L / mu, so when these two pairs give the same budget, the smaller of the
two, factoring could not shorten the solve, and it runs the carried pair.
Otherwise, or when 2 d > L_a - mu_a (no one pair is the most optimistic),
it factors theta and the anchor moves there. The anchor is the run's, not
the pure problem's, so runs sharing a problem do not depend on each other's
order. A fresh anchor has nothing to carry, so solves without an anchor,
each starting one, ask the oracle for theta's own pair, as lipschitz_nu and
iteration_budget do. "Factored" (the DEBUG line's curvature=factored) means
the anchor asked the oracle; the portfolio's oracle answers from its memo a
frozen theta that a run on the same problem already factored.

apg_solve runs the budget to its end. With certify=True (the
sequential-vs-simultaneous comparison), and in certified_solve (used by
dual_gap_estimates), a solve may exit before it, never after, once the
certificate of the step just taken is at most alpha: for the step z =
proj_X(y - grad nu(y) / L) from any point y, momentum points included,
F(z) - F(x) <= L <e, y - x> - (L/2) ||e||^2 with e = y - z for every x in
X (Beck & Teboulle 2009, Lemma 2.3), so the certificate L (<e, y> -
linear_min(e) - ||e||^2 / 2), L times e's gap at y less ||e||^2 / 2, bounds
F(z) - F* with the step's own gradient.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .al_core import _check_rho, eval_L
from .linalg import frobenius_distance, frozen, frozen_memo, spectral_norm
from .model import NonFiniteError, constraint_pair

__all__ = [
    "ApgConfig", "BudgetError", "CurvatureAnchor", "MAX_ITERATIONS",
    "lipschitz_nu", "grad_nu", "iteration_budget", "fista",
    "apg_solve", "certified_solve",
]

# Cap on the budget of one inner solve.
MAX_ITERATIONS = 2_000_000
_EPS = float(np.finfo(float).eps)

_log = logging.getLogger("simalm")
# whether an array holds neither a NaN nor an infinity, checked once per
# frozen theta however many anchors factor it
_all_finite = frozen_memo(lambda a: bool(np.isfinite(a).all()))


class BudgetError(RuntimeError):
    """Raised when a required iteration budget exceeds MAX_ITERATIONS."""


@dataclass
class ApgConfig:
    """Inner-solver settings: the target inexactness alpha of one solve."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("target inexactness alpha must be positive")


class CurvatureAnchor:
    """A run's per-theta state: its Weyl carry, the last theta it factored
    with its pair (L_a, mu_a), and its problem's forward map.

    alm_run keeps one per run and hands it to every inner solve, which
    carries the pair to a new theta or factors theta and moves the anchor
    there (module docstring), and retargets the run's forward map. One run,
    one anchor: it is not shared.
    """

    def __init__(self):
        self._theta = None
        self._pair = None
        self._problem = self._map = None

    def forward(self, problem):
        """problem.forward(problem), built at the first call for problem and
        held for every later one, so a run builds its map once."""
        if problem is not self._problem:
            self._map = problem.forward(problem)
            self._problem = problem
        return self._map

    def curvature(self, problem, theta, budgets=None):
        """(L_p, mu, d) at theta.

        At the anchor's own theta, bit for bit, its pair and d = 0. Else
        the Weyl shift d is L_curv_theta ||theta - theta_a||_F, rounded up,
        from linalg.frobenius_distance. When problem.constants.L_curv_theta
        is set, d is finite, 2 d <= L_a - mu_a, and budgets(L_p, mu) gives
        the carried and the optimistic pair the same smaller budget, the
        carried pair and d. Otherwise theta's own pair from
        smooth_curvature and d = None; the anchor moves to theta when theta
        is frozen and finite, else to none. It holds theta by reference and
        meets it again by identity only (linalg.frozen_memo's caching
        rule), so no write in place can move it.
        """
        point = np.asarray(theta, dtype=float)
        if point is self._theta:
            return (*self._pair, 0.0)
        anchored = self._theta is not None and point.shape == self._theta.shape
        lipschitz = problem.constants.L_curv_theta
        if anchored and lipschitz is not None and budgets is not None:
            # Python floats, so a non-finite theta gives inf or NaN silently
            d = float(lipschitz) * frobenius_distance(point, self._theta)
            # the difference and the norm of its N entries err by less than
            # (N + 4) eps relative, the product by half an ulp
            d = math.nextafter(d * (1.0 + (point.size + 4) * _EPS), math.inf)
            L_a, mu_a = self._pair
            carried = (math.nextafter(L_a + d, math.inf),
                       max(0.0, math.nextafter(mu_a - d, -math.inf)))
            if (math.isfinite(d) and 2.0 * d <= L_a - mu_a
                    and min(budgets(*carried)) == min(budgets(L_a - d, mu_a + d))):
                return (*carried, d)
        L_p, mu = problem.smooth_curvature(theta)
        self._theta = point if frozen(point) and _all_finite(point) else None
        self._pair = (float(L_p), float(mu))
        return (*self._pair, None)


def lipschitz_nu(problem, rho, theta):
    """Gradient Lipschitz constant of the smooth subproblem part.

    L_p(theta) + rho * ||A(theta)||^2 with theta's own L_p from
    problem.smooth_curvature; monotone increasing in rho.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError("penalty rho must be finite and nonnegative")
    L_p = float(problem.smooth_curvature(theta)[0])
    return L_p + rho * spectral_norm(constraint_pair(problem, theta)[0]) ** 2


def _bound_gradient(problem, lam, rho, theta):
    """(grad nu_rho(., lam; theta), A(theta)), with A, b, lam/rho and the
    oracles bound once, from one constraint_pair.

    Refuses a rho that is not finite and positive before any oracle call.
    """
    _check_rho(rho)
    A, b = constraint_pair(problem, theta)
    shift = np.asarray(lam, dtype=float) / rho
    A_T = A.T
    smooth_value_grad = problem.smooth_value_grad
    project_dual = problem.cone.project_dual

    def grad(y):
        penalty = A_T @ project_dual((A @ y + b) + shift)
        return smooth_value_grad(y, theta)[1] + rho * penalty

    return grad, A


def _budget(L, alpha, radius):
    return max(1, math.ceil(math.sqrt(2.0 * L / alpha) * radius))


def _linear_budget(L, mu, gap, alpha):
    """Fewest steps T of the strongly convex loop with (1 - sqrt(mu/L))^T 2 gap
    <= alpha: 1 when 2 gap <= alpha, inf when mu = 0."""
    if mu <= 0.0:
        return math.inf
    if 2.0 * gap <= alpha or mu == L:
        return 1
    return math.ceil(math.log(2.0 * gap / alpha) / -math.log1p(-math.sqrt(mu / L)))


def _gap(linear_min, g, x):
    """max_{s in X} <g, x - s>, the Frank-Wolfe gap of g at x."""
    return float(g @ x) - linear_min(g)


def _budgets(L, mu, gap, alpha, D_x):
    """(FISTA's budget, the linear-rate budget) of a solve with constants (L, mu).

    FISTA's radius is min(D_x, sqrt(2 gap / mu)), the second term a bound on
    ||x_init - x*||; a gap rounded below zero counts as zero.
    """
    radius = D_x
    if mu > 0.0:
        radius = min(D_x, math.sqrt(2.0 * max(gap, 0.0) / mu))
    return _budget(L, alpha, radius), _linear_budget(L, mu, gap, alpha)


def grad_nu(problem, x, lam, rho, theta):
    """Gradient in x of the smooth part: grad p + rho A' proj_{K*}(h + lam/rho)."""
    return _bound_gradient(problem, lam, rho, theta)[0](np.asarray(x, dtype=float))


def iteration_budget(problem, rho, theta, alpha):
    """A-priori iteration count sqrt(2 L / alpha) * D_x, rounded up.

    L is lipschitz_nu's, from theta's own curvature pair. It holds for any
    start in X; no inner solve runs more steps.
    The bound is a real number while iterations are integral; ceiling keeps
    the accuracy guarantee.
    """
    return _budget(lipschitz_nu(problem, rho, theta), alpha,
                   problem.constants.D_x)


def fista(step, L, x0, max_steps, stop=None, mu=0.0, first=None):
    """Core accelerated proximal gradient loop.

    step(y) is the forward-backward map z = prox(y - grad(y) / L) of the
    composite model with curvature L; iterates start at z_0 = x0 and each
    step is z_t = step(y) from the momentum point y = z_{t-1} + b_t (z_{t-1}
    - z_{t-2}). With mu = 0, b_t follows the FISTA sequence (m_t - 1) /
    m_{t+1}, m_1 = 1, m_{t+1} = (1 + sqrt(1 + 4 m_t^2)) / 2 (Beck &
    Teboulle 2009). A modulus 0 < mu <= L of strong
    convexity of the smooth part on all of R^n (momentum points leave X)
    selects the constant b = (sqrt(L/mu) - 1) / (sqrt(L/mu) + 1) of the
    strongly convex method (Nesterov 2004, 2.2; Beck 2017, Thm 10.42,
    V-FISTA): F(z_T) - F* <= (1 - sqrt(mu/L))^T (F(x0) - F* + (mu/2)
    ||x0 - x*||^2). first, when given, takes the first step z_1 = first(x0)
    in place of step: a caller that already holds grad(x0) passes a map
    that reuses it. Returns (last iterate, steps taken).

    The optional stop(y, z) predicate is evaluated after each step with the
    point y the step was taken from and the new iterate z; the loop returns
    z as soon as it holds. It sees every iterate, so a stop that records z
    and returns False traces the run. Raises ValueError unless L > 0 and 0
    <= mu <= L.
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
        z_new = step(y) if t > 1 or first is None else first(y)
        if stop is not None and stop(y, z_new):
            return z_new, t
        if mu == 0.0:
            m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * m * m))
            b, m = (m - 1.0) / m_next, m_next
        y = z_new + b * (z_new - z)
        z = z_new
    return z, t


def _solve(problem, x_init, lam, rho, theta, alpha, epoch, certify, anchor):
    """(x, steps, certificate of the last step, NaN unless certify)."""
    grad, A = _bound_gradient(problem, lam, rho, theta)
    if anchor is None:
        anchor = CurvatureAnchor()
    A_sq = spectral_norm(A) ** 2
    D_x = problem.constants.D_x
    x_init = np.asarray(x_init, dtype=float)
    where = f" at epoch {epoch}" if epoch is not None else ""
    linear_min = problem.linear_min
    g0 = grad(x_init)
    gap = _gap(linear_min, g0, x_init)
    if not math.isfinite(gap):
        raise NonFiniteError(f"non-finite gradient at the warm start{where}")

    def budgets(L_p, mu):
        return _budgets(L_p + rho * A_sq, mu, gap, alpha, D_x)

    L_p, mu, shift = anchor.curvature(problem, theta, budgets)
    L = L_p + rho * A_sq
    fista_budget, linear_budget = budgets(L_p, mu)
    budget = min(fista_budget, linear_budget)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("inner solve epoch=%s L=%.6g mu=%.6g gap=%.6g curvature=%s "
                   "shift=%.3g a_priori_budget=%d fista_budget=%d budget=%d",
                   epoch, L, mu, gap, "factored" if shift is None else "carried",
                   shift or 0.0, _budget(L, alpha, D_x), fista_budget, budget)
    if budget > MAX_ITERATIONS:
        raise BudgetError(
            f"required budget {budget} exceeds cap {MAX_ITERATIONS}{where}")
    prox_step = problem.prox_step
    warm = {}
    if problem.forward is not None:
        forward = anchor.forward(problem)(theta, lam, rho, L)
    else:
        def forward(y):
            return y - grad(y) / L

    def step(y):
        return prox_step(forward(y), warm)

    def first(y):
        return prox_step(y - g0 / L, warm)

    cert, stop = math.nan, None
    if certify:
        def stop(y, z):
            nonlocal cert
            e = y - z
            cert = L * (_gap(linear_min, e, y) - 0.5 * float(e @ e))
            return cert <= alpha

    try:
        x, steps = fista(step, L, x_init, budget, stop=stop,
                         mu=mu if linear_budget < fista_budget else 0.0,
                         first=first)
    except NonFiniteError as exc:
        raise NonFiniteError(f"non-finite x{where}: {exc}") from exc
    return x, steps, cert


def apg_solve(problem, x_init, lam, rho, theta, config, epoch=None, anchor=None,
              certify=False):
    """Run the budget for config.alpha from the warm start x_init in X.

    anchor, the run's CurvatureAnchor, lets the solve carry the curvature
    pair from the last theta the run factored; without one the solve
    starts a fresh anchor, which asks the oracle. certify=True adds
    certified_solve's early exit at the first step whose certificate is at
    most config.alpha, and returns the same x and steps. Returns (x, steps).
    Logs L, mu, the gap at x_init, whether the curvature was factored or
    carried and by what shift, the a-priori and FISTA budgets and last the
    budget run at DEBUG level on the "simalm" logger. Raises ValueError,
    before any oracle call, unless rho is finite and positive; BudgetError
    or NonFiniteError naming the epoch.
    """
    x, steps, _ = _solve(problem, x_init, lam, rho, theta, config.alpha, epoch,
                         certify, anchor)
    return x, steps


def certified_solve(problem, x_init, lam, rho, theta, gap_tol, epoch=None,
                    anchor=None):
    """apg_solve for alpha = gap_tol with the step certificate's early exit.

    Returns (x, eval_L at x, certificate of the last step, steps); the
    certificate bounds F(x) - F* and is at most gap_tol unless the budget
    ended the solve.
    """
    x, steps, cert = _solve(problem, x_init, lam, rho, theta,
                            ApgConfig(alpha=gap_tol).alpha, epoch, True, anchor)
    return x, eval_L(problem, x, lam, rho, theta), cert, steps
