"""High-accuracy reference solutions for the quadratic portfolio family.

The reporting oracle (optimal value, optimal multiplier) is computed by the
primal active-set method (Nocedal & Wright, ch. 16) on

    minimize   (1/2) x' Q x + c' x
    subject to sum(x) = 1,  x >= 0,  G x <= d,

which terminates finitely for positive definite Q and reaches machine
precision. Each step solves the reduced KKT system over the free
coordinates.

The method accepts any feasible start whose working set is active there,
so a crash phase guesses one first, updating the whole set per solve as a
primal-dual active-set pass does (Hintermueller, Ito & Kunisch 2002): it
solves the KKT system on the free coordinates with the held rows of G at
equality, fixes every coordinate that comes out negative and holds every
violated row, until the point is feasible (at most n + m solves). The
active-set loop starts there with the fixed coordinates as its working set
and verifies the guess. When the crash finds no point or the run from it
fails, the loop starts cold from the uniform point, and the cold run's
error is the one raised. The reported `iterations` count every reduced KKT
solve of the call.

The solver refuses input outside its contract (a Q that is not symmetric
positive definite, a non-finite or misshapen c, G or d) with ValueError,
verifies its KKT residual itself and raises one ReferenceSolveError on a
singular step, the iteration cap, or a residual above KKT_TOL (or NaN), so
the oracle is independent of the first-order solve paths it is used to
judge.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["ReferenceSolution", "ReferenceSolveError", "active_set_qp",
           "simplex_qp", "portfolio_reference"]

STEP_TOL = 1e-11    # a step this small (inf-norm) means x is optimal on its working set
SYM_TOL = 1e-10     # largest |Q - Q'| entry accepted, relative to the largest |Q| entry
KKT_TOL = 1e-9      # largest KKT residual a returned solution may have
CAP_PER_ROW = 50    # iteration cap: CAP_PER_ROW * (n + m + 2)


@dataclass(frozen=True)
class ReferenceSolution:
    """Reference optimum: point, cone multiplier, value, KKT residual."""

    x: np.ndarray
    lam: np.ndarray
    f_value: float
    kkt_residual: float

    @property
    def lambda_norm(self):
        return float(np.linalg.norm(self.lam))


class ReferenceSolveError(RuntimeError):
    """The reference QP hit a singular step, its iteration cap, or missed KKT_TOL."""


def _kkt_residual(Q, c, G, d, x, lam, nu, eta):
    """Max of stationarity, feasibility, and complementarity residuals (NaN if any is)."""
    slack = G @ x - d
    return float(np.max([
        np.max(np.abs(Q @ x + c + nu - eta + G.T @ lam)),
        abs(float(np.sum(x)) - 1.0),
        np.max(-x, initial=0.0),
        np.max(slack, initial=0.0),
        np.max(np.abs(eta * x)),
        np.max(np.abs(lam * slack), initial=0.0),
    ]))


class _ReducedKKT:
    """The KKT matrix [[Q, E'], [E, 0]] with E = [1; G], built once.

    `solve` restricts it to the free coordinates (not `fixed`) and to the
    simplex row plus the `held` rows of G, in that order, and counts its
    calls in `solves`.
    """

    def __init__(self, Q, G):
        m, n = G.shape
        self.full = np.zeros((n + 1 + m, n + 1 + m))
        self.full[:n, :n] = Q
        self.full[:n, n] = self.full[n, :n] = 1.0
        self.full[:n, n + 1:] = G.T
        self.full[n + 1:, :n] = G
        self.solves = 0

    def solve(self, fixed, held, top, bottom):
        """Solve the reduced system with right-hand side [top; bottom]."""
        n = fixed.size
        idx = np.concatenate([np.flatnonzero(~fixed), [n], n + 1 + np.flatnonzero(held)])
        self.solves += 1
        return np.linalg.solve(self.full[np.ix_(idx, idx)], np.concatenate([top, bottom]))


def _crash(kkt, c, G, d):
    """Guess the working set: (x, fixed) with x feasible, or None.

    Each round solves for the minimizer over the free coordinates with the
    held rows of G at equality, then fixes every coordinate that comes out
    negative and holds every row violated by more than STEP_TOL. Each round
    that does not stop adds a coordinate or a row, so there are at most
    n + m rounds. None when a system is singular (LinAlgError, or a point
    that misses a held row or the simplex row, as a nearly singular solve
    can return) or every coordinate is fixed.
    """
    m, n = G.shape
    fixed, held = np.zeros(n, dtype=bool), np.zeros(m, dtype=bool)
    while not fixed.all():
        try:
            sol = kkt.solve(fixed, held, -c[~fixed], np.concatenate([[1.0], d[held]]))
        except np.linalg.LinAlgError:
            return None
        x = np.zeros(n)
        x[~fixed] = sol[:n - fixed.sum()]
        neg, over = x < 0.0, G @ x - d > STEP_TOL
        if not (neg.any() or over.any()):
            return (x, fixed) if abs(x.sum() - 1.0) <= STEP_TOL else None
        if not (neg.any() or (over & ~held).any()):
            return None    # a held row is violated
        fixed |= neg
        held |= over
    return None


def _active_set(kkt, Q, c, G, d, x, fixed):
    """The primal active-set loop from the feasible x with `fixed` at zero.

    Returns active_set_qp's dict without `iterations`; raises
    ReferenceSolveError on a singular step, the cap or the KKT gate.
    """
    m, n = G.shape
    # working set over the m + n inequality rows (G x <= d, then -x <= 0):
    # `held` rows of G at equality, `fixed` coordinates at zero; sum(x) = 1
    # is always in it
    working = np.concatenate([np.zeros(m, dtype=bool), fixed])
    held, fixed = working[:m], working[m:]
    max_iter = CAP_PER_ROW * (n + m + 2)

    for it in range(1, max_iter + 1):
        # reduced KKT system over the free coordinates, E = [1; G_held]
        g = Q @ x + c
        free = ~fixed
        k = 1 + held.sum()
        try:
            sol = kkt.solve(fixed, held, -g[free], np.zeros(k))
        except np.linalg.LinAlgError:
            raise ReferenceSolveError(
                f"reference QP: singular reduced KKT system at iteration {it}") from None
        p = np.zeros(n)
        p[free] = sol[:-k]
        mu = sol[-k:]

        if np.max(np.abs(p)) <= STEP_TOL:
            # multipliers of the working rows; those of the fixed
            # coordinates come from stationarity
            E = np.vstack([np.ones(n), G[held]])
            mults = np.concatenate([mu[1:], (g + Q @ p + E.T @ mu)[fixed]])
            if mults.min(initial=0.0) >= -STEP_TOL:
                break
            working[np.flatnonzero(working)[np.argmin(mults)]] = False
            continue

        # ratio test: step to the nearest blocking row outside the working set
        rate = np.concatenate([G @ p, -p])
        ratio = np.divide(np.concatenate([d - G @ x, x]), rate,
                          out=np.full(m + n, np.inf), where=~working & (rate > STEP_TOL))
        block = int(np.argmin(ratio))
        step = 1.0
        if ratio[block] < 1.0 - 1e-15:
            step = max(ratio[block], 0.0)
            working[block] = True
        x = x + step * p
        x[fixed] = 0.0    # the blocking coordinate lands on zero only up to rounding
    else:
        raise ReferenceSolveError(
            f"reference QP: no optimum within {max_iter} iterations")

    mult = np.zeros(m + n)
    mult[working] = np.maximum(mults, 0.0)
    lam, eta, nu = mult[:m], mult[m:], float(mu[0])
    res = _kkt_residual(Q, c, G, d, x, lam, nu, eta)
    if not res <= KKT_TOL:
        raise ReferenceSolveError(
            f"reference QP: KKT residual {res:.3e} above {KKT_TOL:.1e} "
            f"after {it} iterations")
    return {"x": x, "lam": lam, "nu": nu, "eta": eta, "kkt_residual": res}


def active_set_qp(Q, c, G=None, d=None):
    """Minimize (1/2) x'Qx + c'x over the simplex intersected with Gx <= d.

    c must be a finite vector of length n; Q must be finite, n x n,
    symmetric (to SYM_TOL) and positive definite (its Cholesky
    factorisation must complete); G (m x n) and d (length m) must be finite
    and given together or not at all, and the uniform point feasible;
    ValueError naming the argument otherwise. Returns a dict with keys x,
    lam (multipliers of Gx <= d), nu (simplex equality multiplier), eta
    (multipliers of x >= 0), iterations (every reduced KKT solve the call
    made: crash rounds, active-set steps, and those of a cold restart) and
    kkt_residual.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("c must be a finite vector")
    n = c.size
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n) or not np.isfinite(Q).all():
        raise ValueError("Q must be a finite n x n matrix")
    if np.abs(Q - Q.T).max() > SYM_TOL * np.abs(Q).max():
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ValueError("Q must be positive definite") from None
    if (G is None) != (d is None):
        raise ValueError("G and d must be given together")
    if G is None:
        G, d = np.zeros((0, n)), np.zeros(0)
    G = np.asarray(G, dtype=float)
    d = np.asarray(d, dtype=float)
    if G.ndim != 2 or G.shape[1] != n or not np.isfinite(G).all():
        raise ValueError("G must be a finite m x n matrix")
    if d.shape != G.shape[:1] or not np.isfinite(d).all():
        raise ValueError("d must be a finite vector with one entry per row of G")

    uniform = np.full(n, 1.0 / n)
    if np.any(G @ uniform > d + 1e-12):
        raise ValueError("the uniform starting point is infeasible")
    kkt = _ReducedKKT(Q, G)
    start = _crash(kkt, c, G, d)
    out = None
    if start is not None:
        try:
            out = _active_set(kkt, Q, c, G, d, *start)
        except ReferenceSolveError:
            pass
    if out is None:
        # the cold start from the uniform point; its error is the one raised
        out = _active_set(kkt, Q, c, G, d, uniform, np.zeros(n, dtype=bool))
    out["iterations"] = kkt.solves
    return out


def simplex_qp(Q, c):
    """Minimize (1/2) x'Qx + c'x over the unit simplex; (x, value, KKT residual)."""
    out = active_set_qp(Q, c)
    return out["x"], float(0.5 * out["x"] @ Q @ out["x"] + c @ out["x"]), out["kkt_residual"]


def portfolio_reference(instance, sigma=None):
    """Reference optimum of the portfolio problem at the covariance `sigma`.

    Returns a ReferenceSolution whose multiplier is the dual variable of the
    sector constraints (the cone multiplier). Raises ReferenceSolveError
    when the solve fails or misses KKT_TOL.
    """
    sigma = instance.sigma if sigma is None else np.asarray(sigma, dtype=float)
    Q = 0.5 * (sigma + sigma.T)
    c = -instance.risk_tradeoff * instance.mu
    out = active_set_qp(Q, c, G=instance.sector_matrix, d=instance.sector_limits)
    x = out["x"]
    f_value = float(0.5 * x @ Q @ x + c @ x)
    return ReferenceSolution(x=x, lam=out["lam"], f_value=f_value,
                             kkt_residual=out["kkt_residual"])
