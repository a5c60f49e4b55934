"""Closed-form theoretical constants and bound curves for both penalty regimes.

Given the run's `outer_alm.Schedule` (rho_k, alpha_k and the learning rate
tau) and two reference distances, of the starting parameter from theta* and
of the starting multiplier lambda_0 = 0 from lambda* (that is, ||lambda*||),
these functions evaluate the constants that bound dual suboptimality,
primal infeasibility, and primal suboptimality along a run, so empirical
traces can be overlaid against theory. The pseudo-Lipschitz constant
`kappa` of the inner solution map is an input; it scales the reported
curves only and never enters the algorithm itself.

Each constant's formula is written once, in one private evaluator per
regime; the public functions read their constant from it, and
`bound_curves` and `bound_report` evaluate it once a call. All infinite
series reduce to sums of (k+1)^(-p), evaluated to absolute accuracy below
1e-12 by explicit summation plus an integral-test (Euler-Maclaurin) tail.
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


def _constant_constants(inputs):
    """Every constant of the constant-penalty bounds, each evaluated once.

    With S = sum sqrt(alpha_i), e = ||theta_0 - theta*|| and
    ||lambda_0 - lambda*|| = ||lambda*|| (lambda_0 = 0):

        c_lambda = sqrt(2 rho) S + rho kappa e / (1-tau) + ||lambda*||
        b_g      = ||lambda*||^2 / (2 rho)
                   + c_lambda (sqrt(2/rho) S + kappa e / (1-tau))
        C1       = sqrt(2 b_g / rho + (c_lambda / rho)^2)
        C2       = sqrt(2/rho) S + (L_h_theta + kappa) e / (1-tau)
        u_const  = sum alpha_i + (rho/2) L_h_theta^2 e^2 / (1-tau^2)
                   + ((c_lambda + ||lambda*||) L_h_theta + 2 L_f) e / (1-tau)

    Returns them as a dict under these names, the constants bound_report
    reports.
    """
    s, rho = inputs.schedule, inputs.rho
    e, kappa, lam = inputs.theta0_err, inputs.kappa, inputs.lambda_star_norm
    root_alpha = np.sqrt(s.alpha0) * inverse_power_series(1.0 + s.c)
    inexact = np.sqrt(2.0 / rho) * root_alpha
    cl = np.sqrt(2.0 * rho) * root_alpha + rho * kappa * e / (1.0 - s.tau) + lam
    bg = lam ** 2 / (2.0 * rho) + cl * (inexact + kappa * e / (1.0 - s.tau))
    return {
        "c_lambda": cl,
        "b_g": bg,
        "C1": float(np.sqrt(2.0 * bg / rho + (cl / rho) ** 2)),
        "C2": float(inexact + (inputs.L_h_theta + kappa) * e / (1.0 - s.tau)),
        "u_const": (s.alpha0 * inverse_power_series(2.0 * (1.0 + s.c))
                    + 0.5 * rho * inputs.L_h_theta ** 2 * e ** 2 / (1.0 - s.tau ** 2)
                    + ((cl + lam) * inputs.L_h_theta + 2.0 * inputs.L_f) * e
                    / (1.0 - s.tau)),
    }


def _geometric_constants(inputs):
    """(C', the lead term of B_k) of geometric-penalty inputs, each evaluated once.

    C' = sum sqrt(2 alpha_i rho_i) + rho0 kappa ||theta_0 - theta*|| /
    (1 - beta tau) + ||lambda*||, where the beta^k factors of the series
    cancel, leaving sqrt(2 alpha0 rho0) sum (i+1)^-(1+c); the lead term is
    (2 C' + ||lambda*||)^2 / rho0.
    """
    s = inputs.schedule
    if not s.is_geometric:
        raise ValueError("geometric-regime quantity needs beta > 1")
    cp = (np.sqrt(2.0 * s.alpha0 * s.rho0) * inverse_power_series(1.0 + s.c)
          + s.rho0 * inputs.kappa * inputs.theta0_err / (1.0 - inputs.delta)
          + inputs.lambda_star_norm)
    return cp, (2.0 * cp + inputs.lambda_star_norm) ** 2 / s.rho0


def _as_k(k, least):
    """k as a float array, refused unless every entry is at least `least`."""
    k = np.asarray(k, dtype=float)
    if np.any(k < least):
        raise ValueError(f"k must be at least {least}")
    return k


def _float_if_scalar(out):
    return float(out) if out.ndim == 0 else out


def _v_constant(constants, k):
    return constants["C1"] / np.sqrt(k) + constants["C2"] / k


def _subopt_lower(inputs, v):
    return -(0.5 * inputs.rho * v ** 2 + inputs.lambda_star_norm * v)


def _b_k(inputs, lead, k):
    s = inputs.schedule
    deltak = inputs.delta ** k
    if inputs.L_h_theta > 0:
        mid = s.rho0 * (inputs.L_h_theta * inputs.theta0_err * deltak
                        + inputs.L_f / (s.rho0 * inputs.L_h_theta)) ** 2
    else:
        mid = 2.0 * inputs.L_f * inputs.theta0_err * deltak
    return lead + mid + s.alpha0 / (k + 1.0) ** (2.0 * (1.0 + s.c))


def _v_geometric(inputs, cp, k):
    s = inputs.schedule
    return (2.0 * cp / s.rho0
            + inputs.L_h_theta * inputs.theta0_err * inputs.delta ** k) / s.beta ** k


def c_lambda(inputs):
    """Radius bound c_lambda on the multiplier iterates, constant penalty."""
    return _constant_constants(inputs)["c_lambda"]


def b_g(inputs):
    """Dual suboptimality constant: the averaged dual gap is at most b_g / k."""
    return _constant_constants(inputs)["b_g"]


def dual_gap_bound(inputs, k):
    """Bound b_g / k on the dual gap of the averaged multiplier."""
    return _constant_constants(inputs)["b_g"] / _as_k(k, 1)


def v_of_k(inputs, k):
    """Infeasibility bound C1/sqrt(k) + C2/k for the averaged iterate."""
    return _float_if_scalar(_v_constant(_constant_constants(inputs), _as_k(k, 1)))


def u_const(inputs):
    """Constant in the averaged-iterate suboptimality bound u_const / k."""
    return _constant_constants(inputs)["u_const"]


def primal_subopt_upper(inputs, k):
    """Upper bound u_const / k on f(xbar_k) - f*."""
    return _constant_constants(inputs)["u_const"] / _as_k(k, 1)


def primal_subopt_lower(inputs, k):
    """Lower bound -(rho/2) V(k)^2 - ||lambda*|| V(k) on f(xbar_k) - f*."""
    return _subopt_lower(inputs, v_of_k(inputs, k))


def c_lambda_prime(inputs):
    """Multiplier radius bound C' for the geometric penalty regime."""
    return _geometric_constants(inputs)[0]


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
    _, lead = _geometric_constants(inputs)
    return _float_if_scalar(_b_k(inputs, lead, _as_k(k, 0)))


def infeasibility_bound_geometric(inputs, k):
    """Geometric-regime infeasibility bound.

    (1/beta^k)(2 C'/rho0 + L_h_theta ||theta_0 - theta*|| delta^k).
    """
    cp, _ = _geometric_constants(inputs)
    return _float_if_scalar(_v_geometric(inputs, cp, _as_k(k, 0)))


def _evaluate(inputs, ks):
    """(the regime's constants, the four curves at rows ks), from one
    evaluation of the regime's constants."""
    if not inputs.schedule.is_geometric:
        constants = _constant_constants(inputs)
        v = _v_constant(constants, ks)
        return constants, {
            "v_k_bound": v,
            "subopt_upper_bound": constants["u_const"] / ks,
            "subopt_lower_bound": np.abs(_subopt_lower(inputs, v)),
            "dual_gap_bound": constants["b_g"] / ks,
        }
    constants = cp, lead = _geometric_constants(inputs)
    epochs = ks - 1.0
    sub = _b_k(inputs, lead, epochs) / inputs.schedule.beta ** epochs
    return constants, {
        "v_k_bound": _v_geometric(inputs, cp, epochs),
        "subopt_upper_bound": sub,
        "subopt_lower_bound": sub,
        "dual_gap_bound": np.full(ks.shape, np.nan),
    }


def bound_curves(inputs, ks):
    """The four bound curves at trace rows ks (k >= 1), keyed by overlay column.

    Row k describes the iterate reported after the k-th epoch. Constant
    penalty: the averaged-iterate bounds evaluated at k. Geometric penalty:
    the last-iterate bounds, where row k holds the iterate produced at epoch
    k-1, so every curve is evaluated at k-1; the averaged-iterate dual-gap
    bound does not apply there and reads NaN.
    """
    return _evaluate(inputs, _as_k(ks, 1))[1]


def bound_report(inputs, k_max=50):
    """Every evaluated constant plus bound_curves over rows 1..k_max.

    Returns {"constants": name -> value, "curves": name -> array}.
    Constant-penalty inputs report c_lambda, b_g, C1, C2 and u_const;
    geometric inputs report c_lambda_prime and b_0.
    """
    constants, curves = _evaluate(inputs, np.arange(1, k_max + 1, dtype=float))
    if inputs.schedule.is_geometric:
        cp, lead = constants
        constants = {"c_lambda_prime": cp,
                     "b_0": float(_b_k(inputs, lead, np.asarray(0.0)))}
    return {"constants": constants, "curves": curves}
