"""Closed-form theoretical constants and bound curves for both penalty regimes.

Given the run's `outer_alm.Schedule` (rho_k, alpha_k and the learning rate
tau) and two reference distances, of the starting parameter from theta* and
of the starting multiplier lambda_0 = 0 from lambda* (that is, ||lambda*||),
these functions evaluate the constants that bound dual suboptimality,
primal infeasibility, and primal suboptimality along a run, so empirical
traces can be overlaid against theory. The pseudo-Lipschitz constant
`kappa` of the inner solution map is an input; it scales the reported
curves only and never enters the algorithm itself.

All infinite series reduce to sums of (k+1)^(-p), evaluated to absolute
accuracy below 1e-12 by explicit summation plus an integral-test
(Euler-Maclaurin) tail.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "inverse_power_series", "BoundInputs", "c_lambda", "b_g", "v_of_k",
    "u_const", "primal_subopt_upper", "primal_subopt_lower", "dual_gap_bound",
    "c_lambda_prime", "b_k", "infeasibility_bound_geometric", "bound_curves",
    "bound_report",
]

_TAIL_FROM = 10_000


@functools.lru_cache(maxsize=64)
def inverse_power_series(p):
    """Sum of k^(-p) over k >= 1 for p > 1, to absolute error below 1e-12.

    The first terms are summed explicitly; the tail from K = 10^4 uses the
    Euler-Maclaurin expansion K^(1-p)/(p-1) + K^(-p)/2 + p K^(-p-1)/12,
    whose truncation error is below p^3 K^(-p-3). Results are cached per
    exponent.
    """
    if p <= 1.0:
        raise ValueError("series diverges for exponent <= 1")
    k = np.arange(1, _TAIL_FROM, dtype=float)
    head = float(np.sum(k ** (-p)))
    K = float(_TAIL_FROM)
    tail = K ** (1.0 - p) / (p - 1.0) + 0.5 * K ** (-p) + p * K ** (-p - 1.0) / 12.0
    return head + tail


@dataclass(frozen=True)
class BoundInputs:
    """The bound formulas' inputs: the run's schedule plus reference distances.

    schedule is the `outer_alm.Schedule` the run used: penalty rho0 beta^k
    (beta == 1 means constant penalty rho0), inexactness alpha0 /
    (k+1)^(2(1+c)) (divided by beta^k in the geometric regime), and the
    learner's linear rate tau, which the overlays need in either regime.
    theta0_err and lambda_star_norm are ||theta_0 - theta*|| and ||lambda*||,
    obtained from the reference solve. Every run starts from the multiplier
    lambda_0 = 0, so ||lambda_0 - lambda*|| is lambda_star_norm.
    """

    schedule: object  # outer_alm.Schedule, which imports this module
    theta0_err: float
    lambda_star_norm: float
    kappa: float = 1.0
    L_f: float = 0.0
    L_h_theta: float = 0.0

    def __post_init__(self):
        if self.schedule.tau is None:
            raise ValueError("the bound overlays need the schedule's learning rate tau")
        for name in ("theta0_err", "lambda_star_norm", "kappa", "L_f", "L_h_theta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    @property
    def rho(self):
        if self.schedule.is_geometric:
            raise ValueError("constant-penalty quantity requested on a "
                             "geometric schedule")
        return self.schedule.rho0

    @property
    def delta(self):
        return self.schedule.beta * self.schedule.tau

    def sqrt_alpha_series(self):
        """Sum of sqrt(alpha_k) for the constant regime."""
        s = self.schedule
        return np.sqrt(s.alpha0) * inverse_power_series(1.0 + s.c)

    def alpha_series(self):
        """Sum of alpha_k for the constant regime."""
        s = self.schedule
        return s.alpha0 * inverse_power_series(2.0 * (1.0 + s.c))

    def sqrt_alpha_rho_series(self):
        """Sum of sqrt(2 alpha_k rho_k) in the geometric regime.

        The beta^k factors cancel, leaving sqrt(2 alpha0 rho0) times the
        same inverse-power series, which is finite for every c > 0.
        """
        s = self.schedule
        return np.sqrt(2.0 * s.alpha0 * s.rho0) * inverse_power_series(1.0 + s.c)


def c_lambda(inputs):
    """Radius bound on the multiplier iterates, constant penalty.

    sqrt(2 rho) sum sqrt(alpha_i) + rho kappa ||theta_0 - theta*|| / (1-tau)
    + ||lambda_0 - lambda*||, which is ||lambda*|| since lambda_0 = 0.
    """
    rho = inputs.rho
    return (np.sqrt(2.0 * rho) * inputs.sqrt_alpha_series()
            + rho * inputs.kappa * inputs.theta0_err / (1.0 - inputs.schedule.tau)
            + inputs.lambda_star_norm)


def b_g(inputs):
    """Dual suboptimality constant: the averaged dual gap is at most b_g / k."""
    rho = inputs.rho
    return (inputs.lambda_star_norm ** 2 / (2.0 * rho)
            + c_lambda(inputs) * (np.sqrt(2.0 / rho) * inputs.sqrt_alpha_series()
                                  + inputs.kappa * inputs.theta0_err
                                  / (1.0 - inputs.schedule.tau)))


def dual_gap_bound(inputs, k):
    """Bound b_g / k on the dual gap of the averaged multiplier."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("k must be at least 1")
    return b_g(inputs) / np.asarray(k, dtype=float)


def _infeasibility_constants(inputs):
    """The constants (C1, C2) of the constant-penalty infeasibility bound."""
    rho = inputs.rho
    C1 = np.sqrt(2.0 * b_g(inputs) / rho + (c_lambda(inputs) / rho) ** 2)
    C2 = (np.sqrt(2.0 / rho) * inputs.sqrt_alpha_series()
          + (inputs.L_h_theta + inputs.kappa) * inputs.theta0_err
          / (1.0 - inputs.schedule.tau))
    return float(C1), float(C2)


def v_of_k(inputs, k):
    """Infeasibility bound C1/sqrt(k) + C2/k for the averaged iterate."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("k must be at least 1")
    k = np.asarray(k, dtype=float)
    C1, C2 = _infeasibility_constants(inputs)
    out = C1 / np.sqrt(k) + C2 / k
    return float(out) if out.ndim == 0 else out


def u_const(inputs):
    """Constant in the averaged-iterate suboptimality bound u_const / k."""
    rho, tau = inputs.rho, inputs.schedule.tau
    cbar = c_lambda(inputs) + inputs.lambda_star_norm
    return (inputs.alpha_series()
            + 0.5 * rho * inputs.L_h_theta ** 2 * inputs.theta0_err ** 2 / (1.0 - tau ** 2)
            + (cbar * inputs.L_h_theta + 2.0 * inputs.L_f) * inputs.theta0_err / (1.0 - tau))


def primal_subopt_upper(inputs, k):
    """Upper bound u_const / k on f(xbar_k) - f*."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("k must be at least 1")
    return u_const(inputs) / np.asarray(k, dtype=float)


def primal_subopt_lower(inputs, k):
    """Lower bound -(rho/2) V(k)^2 - ||lambda*|| V(k) on f(xbar_k) - f*."""
    return _subopt_lower(inputs, v_of_k(inputs, k))


def _subopt_lower(inputs, v):
    return -(0.5 * inputs.rho * v ** 2 + inputs.lambda_star_norm * v)


def _require_geometric(inputs):
    if not inputs.schedule.is_geometric:
        raise ValueError("geometric-regime quantity needs beta > 1")


def c_lambda_prime(inputs):
    """Multiplier radius bound for the geometric penalty regime.

    sum sqrt(2 alpha_i rho_i) + rho0 kappa ||theta_0 - theta*|| / (1 - beta
    tau) + ||lambda_0 - lambda*||, which is ||lambda*|| since lambda_0 = 0.
    """
    _require_geometric(inputs)
    return (inputs.sqrt_alpha_rho_series()
            + inputs.schedule.rho0 * inputs.kappa * inputs.theta0_err
            / (1.0 - inputs.delta)
            + inputs.lambda_star_norm)


def b_k(inputs, k):
    """Constant B_k in the geometric suboptimality bound B_k / beta^k.

    When L_h_theta > 0 this is the completed-square form

        (1/rho0)(2 C' + ||lambda*||)^2
        + rho0 (L_h_theta ||theta_0-theta*|| delta^k + L_f/(rho0 L_h_theta))^2
        + alpha0 / (k+1)^(2(1+c)).

    When L_h_theta == 0 the square completion degenerates, so the
    algebraically equal pre-completion form is used: the middle term becomes
    2 L_f ||theta_0 - theta*|| delta^k.
    """
    _require_geometric(inputs)
    if np.any(np.asarray(k) < 0):
        raise ValueError("k must be nonnegative")
    k = np.asarray(k, dtype=float)
    s = inputs.schedule
    cp = c_lambda_prime(inputs)
    lead = (2.0 * cp + inputs.lambda_star_norm) ** 2 / s.rho0
    deltak = inputs.delta ** k
    if inputs.L_h_theta > 0:
        mid = s.rho0 * (inputs.L_h_theta * inputs.theta0_err * deltak
                        + inputs.L_f / (s.rho0 * inputs.L_h_theta)) ** 2
    else:
        mid = 2.0 * inputs.L_f * inputs.theta0_err * deltak
    out = lead + mid + s.alpha0 / (k + 1.0) ** (2.0 * (1.0 + s.c))
    return float(out) if out.ndim == 0 else out


def infeasibility_bound_geometric(inputs, k):
    """Geometric-regime infeasibility bound.

    (1/beta^k)(2 C'/rho0 + L_h_theta ||theta_0 - theta*|| delta^k).
    """
    _require_geometric(inputs)
    if np.any(np.asarray(k) < 0):
        raise ValueError("k must be nonnegative")
    k = np.asarray(k, dtype=float)
    s = inputs.schedule
    cp = c_lambda_prime(inputs)
    out = (2.0 * cp / s.rho0
           + inputs.L_h_theta * inputs.theta0_err * inputs.delta ** k) / s.beta ** k
    return float(out) if out.ndim == 0 else out


def bound_curves(inputs, ks):
    """The four bound curves at trace rows ks (k >= 1), keyed by overlay column.

    Row k describes the iterate reported after the k-th epoch. Constant
    penalty: the averaged-iterate bounds evaluated at k. Geometric penalty:
    the last-iterate bounds, where row k holds the iterate produced at epoch
    k-1, so every curve is evaluated at k-1; the averaged-iterate dual-gap
    bound does not apply there and reads NaN.
    """
    ks = np.asarray(ks, dtype=float)
    if not inputs.schedule.is_geometric:
        v = v_of_k(inputs, ks)
        return {
            "v_k_bound": v,
            "subopt_upper_bound": primal_subopt_upper(inputs, ks),
            "subopt_lower_bound": np.abs(_subopt_lower(inputs, v)),
            "dual_gap_bound": dual_gap_bound(inputs, ks),
        }
    epochs = ks - 1.0
    sub = b_k(inputs, epochs) / inputs.schedule.beta ** epochs
    return {
        "v_k_bound": infeasibility_bound_geometric(inputs, epochs),
        "subopt_upper_bound": sub,
        "subopt_lower_bound": sub,
        "dual_gap_bound": np.full(ks.shape, np.nan),
    }


def bound_report(inputs, k_max=50):
    """Every evaluated constant plus bound_curves over rows 1..k_max.

    Returns {"constants": name -> value, "curves": name -> array}.
    Constant-penalty inputs report c_lambda, b_g, C1, C2 and u_const;
    geometric inputs report c_lambda_prime and b_0.
    """
    if not inputs.schedule.is_geometric:
        C1, C2 = _infeasibility_constants(inputs)
        constants = {"c_lambda": c_lambda(inputs), "b_g": b_g(inputs),
                     "C1": C1, "C2": C2, "u_const": u_const(inputs)}
    else:
        constants = {"c_lambda_prime": c_lambda_prime(inputs),
                     "b_0": float(b_k(inputs, 0))}
    ks = np.arange(1, k_max + 1, dtype=float)
    return {"constants": constants, "curves": bound_curves(inputs, ks)}
