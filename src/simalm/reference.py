"""High-accuracy reference solutions for the quadratic portfolio family.

The reporting oracle (optimal value, optimal multiplier) is computed by the
primal active-set method (Nocedal & Wright, ch. 16) on

    minimize   (1/2) x' Q x + c' x
    subject to sum(x) = 1,  x >= 0,  G x <= d,

which terminates finitely for positive definite Q and reaches machine
precision. Each step solves the reduced KKT system over the free
coordinates. The solver verifies its KKT residual itself and raises one
ReferenceSolveError on a singular step, the iteration cap, or a residual
above KKT_TOL, so the oracle is independent of the first-order solve paths
it is used to judge.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["ReferenceSolution", "ReferenceSolveError", "active_set_qp",
           "simplex_qp", "portfolio_reference"]

STEP_TOL = 1e-11    # a step this small (inf-norm) means x is optimal on its working set
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
    """Max of stationarity, feasibility, and complementarity residuals."""
    slack = G @ x - d
    return max(
        float(np.max(np.abs(Q @ x + c + nu - eta + G.T @ lam))),
        abs(float(np.sum(x)) - 1.0),
        float(np.max(-x, initial=0.0)),
        float(np.max(slack, initial=0.0)),
        float(np.max(np.abs(eta * x))),
        float(np.max(np.abs(lam * slack), initial=0.0)),
    )


def active_set_qp(Q, c, G=None, d=None):
    """Minimize (1/2) x'Qx + c'x over the simplex intersected with Gx <= d.

    Q must be symmetric positive definite and the uniform point feasible
    (ValueError otherwise). Returns a dict with keys x, lam (multipliers of
    Gx <= d), nu (simplex equality multiplier), eta (multipliers of x >= 0),
    iterations, kkt_residual.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.size
    if G is None:
        G, d = np.zeros((0, n)), np.zeros(0)
    G = np.asarray(G, dtype=float).reshape(-1, n)
    d = np.asarray(d, dtype=float).reshape(-1)
    m = G.shape[0]

    x = np.full(n, 1.0 / n)
    if np.any(G @ x > d + 1e-12):
        raise ValueError("the uniform starting point is infeasible")
    # working set over the m + n inequality rows (G x <= d, then -x <= 0):
    # `held` rows of G at equality, `fixed` coordinates at zero; sum(x) = 1
    # is always in it
    working = np.zeros(m + n, dtype=bool)
    held, fixed = working[:m], working[m:]
    max_iter = CAP_PER_ROW * (n + m + 2)

    for it in range(1, max_iter + 1):
        # reduced KKT system over the free coordinates, E = [1; G_held]
        g = Q @ x + c
        free = ~fixed
        E = np.vstack([np.ones(n), G[held]])
        k = E.shape[0]
        K = np.block([[Q[np.ix_(free, free)], E[:, free].T],
                      [E[:, free], np.zeros((k, k))]])
        try:
            sol = np.linalg.solve(K, np.concatenate([-g[free], np.zeros(k)]))
        except np.linalg.LinAlgError:
            raise ReferenceSolveError(
                f"reference QP: singular reduced KKT system at iteration {it}") from None
        p = np.zeros(n)
        p[free] = sol[:-k]
        mu = sol[-k:]

        if np.max(np.abs(p)) <= STEP_TOL:
            # multipliers of the working rows; those of the fixed
            # coordinates come from stationarity
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
    if res > KKT_TOL:
        raise ReferenceSolveError(
            f"reference QP: KKT residual {res:.3e} above {KKT_TOL:.1e} "
            f"after {it} iterations")
    return {"x": x, "lam": lam, "nu": nu, "eta": eta,
            "iterations": it, "kkt_residual": res}


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
