"""High-accuracy reference solutions for the quadratic portfolio family.

The reporting oracle (optimal value, optimal multiplier) is computed by the
primal active-set method (Nocedal & Wright, ch. 16) on

    minimize   (1/2) x' Q x + c' x
    subject to sum(x) = 1,  x >= 0,  G x <= d,

which terminates finitely for positive definite Q and reaches machine
precision. The working set fixes coordinates at zero and holds rows of G at
equality. Each iteration solves the reduced KKT system for the target, the
minimizer on the working set. A feasible target becomes the iterate, and
the loop stops if every working multiplier is nonnegative, else drops the
most negative one; an infeasible target is approached up to the first row
it breaks, which joins the working set. Optimality is judged by
feasibility, not by the size of a step.

The loop starts from the uniform point with an empty working set. Its
first phase guesses the working set as a primal-dual active-set pass does
(Hintermueller, Ito & Kunisch 2002): until a target is feasible, each one
fixes every negative coordinate and holds the most violated row, without
moving the iterate. A recurring working set (a cycle) or a singular system
ends the run, and the same loop then runs without its first phase; that
run's error is the one raised. `iterations` counts every reduced KKT solve
of the call.

The solver refuses input outside its contract (a Q that is not symmetric
positive definite, a non-finite or misshapen c, G or d) with ValueError,
verifies its KKT residual itself and raises one ReferenceSolveError on a
singular system, a recurring working set, the iteration cap, or a residual
above KKT_TOL (or NaN), so the oracle is independent of the first-order
solve paths it is used to judge.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["ReferenceSolution", "ReferenceSolveError", "active_set_qp",
           "simplex_qp", "portfolio_reference"]

ROUND_TOL = 1e-11   # rounding allowance per unit size of a solution, and for a multiplier's sign
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
    """The reference QP hit a singular system, a cycle, its iteration cap, or missed KKT_TOL."""


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
        """Solve the reduced system with right-hand side [top; bottom].

        Raises LinAlgError when it is singular, or so nearly that the
        solution misses the equality rows by more than ROUND_TOL allows.
        """
        n, free = fixed.size, np.flatnonzero(~fixed)
        idx = np.concatenate([free, [n], n + 1 + np.flatnonzero(held)])
        self.solves += 1
        K = self.full[np.ix_(idx, idx)]
        sol = np.linalg.solve(K, np.concatenate([top, bottom]))
        x = sol[:free.size]
        if np.abs(K[free.size:, :free.size] @ x - bottom).max() > (
                ROUND_TOL * max(1.0, np.abs(x).max(initial=0.0))):
            raise np.linalg.LinAlgError("reduced KKT solution misses its equality rows")
        return sol


def _active_set(kkt, Q, c, G, d, crash):
    """The active-set loop from the uniform point; `crash` runs its first phase.

    Returns active_set_qp's dict without `iterations`; raises
    ReferenceSolveError on a singular system, a repeated working set, the
    cap or the KKT gate.
    """
    m, n = G.shape
    # working set over the m + n inequality rows (G x <= d, then -x <= 0):
    # `held` rows of G at equality, `fixed` coordinates at zero; sum(x) = 1
    # is always in it
    working = np.zeros(m + n, dtype=bool)
    held, fixed = working[:m], working[m:]
    x = np.full(n, 1.0 / n)
    seen = set()
    max_iter = CAP_PER_ROW * (n + m + 2)

    for it in range(1, max_iter + 1):
        if working.tobytes() in seen:
            raise ReferenceSolveError(
                f"reference QP: working set repeated at iteration {it}")
        seen.add(working.tobytes())
        # the minimizer on the working set: reduced KKT system over the free
        # coordinates, E = [1; G_held]
        k = 1 + held.sum()
        try:
            sol = kkt.solve(fixed, held, -c[~fixed], np.concatenate([[1.0], d[held]]))
        except np.linalg.LinAlgError:
            raise ReferenceSolveError(
                f"reference QP: singular reduced KKT system at iteration {it}") from None
        target = np.zeros(n)
        target[~fixed] = sol[:-k]
        mu = sol[-k:]
        # how far the target breaks each row outside the working set, beyond
        # the rounding error of a solve whose solution is this large
        noise = ROUND_TOL * max(1.0, np.abs(target).max())
        excess = np.concatenate([G @ target - d, -target]) - noise
        excess[working] = 0.0
        broken = excess > 0.0

        if not broken.any():
            x = target
            # multipliers of the working rows; those of the fixed
            # coordinates come from stationarity
            mults = np.concatenate([mu[1:], (Q @ x + c + mu[0] + mu[1:] @ G[held])[fixed]])
            if mults.min(initial=0.0) >= -ROUND_TOL:
                break
            if crash:
                # the guess is feasible, and the loop goes on to verify it;
                # x has moved, so the working sets seen so far may recur
                crash = False
                seen.clear()
            working[np.flatnonzero(working)[np.argmin(mults)]] = False
        elif crash:
            # fix every negative coordinate and hold the most violated row; x stays
            fixed |= broken[m:]
            if broken[:m].any():
                held[np.argmax(excess[:m])] = True
        else:
            # ratio test: step toward the target up to the first row it
            # breaks; x meets the rows only up to rounding, and a broken row
            # that the step does not approach blocks at once
            p = target - x
            rate = np.concatenate([G @ p, -p])
            ratio = np.divide(np.concatenate([d - G @ x, x]), rate,
                              out=np.where(broken, 0.0, np.inf), where=broken & (rate > 0.0))
            block = int(np.argmin(ratio))
            x = x + max(ratio[block], 0.0) * p
            working[block] = True
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
    made, those of the first-phase guess and of a rerun without it
    included) and kkt_residual.
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

    if np.any(G @ np.full(n, 1.0 / n) > d + 1e-12):
        raise ValueError("the uniform starting point is infeasible")
    kkt = _ReducedKKT(Q, G)
    try:
        out = _active_set(kkt, Q, c, G, d, crash=True)
    except ReferenceSolveError:
        # the same loop without its crash phase; its error is the one raised
        out = _active_set(kkt, Q, c, G, d, crash=False)
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
