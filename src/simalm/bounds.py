"""Closed-form theoretical constants and bound curves for both penalty regimes.

Given the run's `outer_alm.Schedule` (rho_k, alpha_k and the learning rate
tau) and two reference distances, of the starting parameter from theta* and
of the starting multiplier lambda_0 = 0 from lambda* (that is, ||lambda*||),
`bound_curves` and `bound_report` evaluate the constants that bound dual
suboptimality, primal infeasibility, and primal suboptimality along a run,
so empirical traces can be overlaid against theory. The pseudo-Lipschitz
constant `kappa` of the inner solution map is an input; it scales the
reported curves only and never enters the algorithm itself.

Each constant's formula is written once, in one private evaluator per
regime, which each call of `bound_curves` or `bound_report` runs once.
All infinite series reduce to sums of (k+1)^(-p), evaluated to absolute
accuracy below 1e-12 by explicit summation plus an integral-test
(Euler-Maclaurin) tail.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["inverse_power_series", "BoundInputs", "bound_curves", "bound_report"]

_TAIL_FROM = 10_000


@functools.lru_cache(maxsize=64)
def inverse_power_series(p):
    """Sum of k^(-p) over k >= 1 for p > 1, to absolute error below 1e-12.

    The first terms are summed explicitly; the tail from K = 10^4 uses the
    Euler-Maclaurin expansion K^(1-p)/(p-1) + K^(-p)/2 + p K^(-p-1)/12,
    whose truncation error is below p^3 K^(-p-3). Results are cached per
    exponent.
    """
    if not math.isfinite(p):
        raise ValueError(f"series exponent must be finite, got {p}")
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
    s, rho = inputs.schedule, inputs.schedule.rho0
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
    cp = (np.sqrt(2.0 * s.alpha0 * s.rho0) * inverse_power_series(1.0 + s.c)
          + s.rho0 * inputs.kappa * inputs.theta0_err / (1.0 - inputs.delta)
          + inputs.lambda_star_norm)
    return cp, (2.0 * cp + inputs.lambda_star_norm) ** 2 / s.rho0


def _b_k(inputs, lead, k):
    """B_k of the geometric suboptimality bound B_k / beta^k.

    When L_h_theta > 0 this is the completed-square form

        (1/rho0)(2 C' + ||lambda*||)^2
        + rho0 (L_h_theta ||theta_0-theta*|| delta^k + L_f/(rho0 L_h_theta))^2
        + alpha0 / (k+1)^(2(1+c)).

    When L_h_theta == 0 the square completion degenerates, so the
    algebraically equal pre-completion form is used: the middle term becomes
    2 L_f ||theta_0 - theta*|| delta^k.
    """
    s = inputs.schedule
    deltak = inputs.delta ** k
    if inputs.L_h_theta > 0:
        mid = s.rho0 * (inputs.L_h_theta * inputs.theta0_err * deltak
                        + inputs.L_f / (s.rho0 * inputs.L_h_theta)) ** 2
    else:
        mid = 2.0 * inputs.L_f * inputs.theta0_err * deltak
    return lead + mid + s.alpha0 / (k + 1.0) ** (2.0 * (1.0 + s.c))


def _evaluate(inputs, ks):
    """(the regime's constants, the four curves at rows ks), from one
    evaluation of the regime's constants.

    Constant penalty: V(k) = C1/sqrt(k) + C2/k bounds the infeasibility of
    the averaged iterate, f(xbar_k) - f* lies in [-((rho/2) V(k)^2 +
    ||lambda*|| V(k)), u_const / k], of which the lower curve holds the
    magnitude, and b_g / k bounds the averaged multiplier's dual gap.
    Geometric penalty, at epoch k: (1/beta^k)(2 C'/rho0 + L_h_theta
    ||theta_0 - theta*|| delta^k) bounds the infeasibility and B_k / beta^k
    the suboptimality on either side.
    """
    s = inputs.schedule
    if not s.is_geometric:
        constants = _constant_constants(inputs)
        v = constants["C1"] / np.sqrt(ks) + constants["C2"] / ks
        return constants, {
            "v_k_bound": v,
            "subopt_upper_bound": constants["u_const"] / ks,
            "subopt_lower_bound": 0.5 * s.rho0 * v ** 2 + inputs.lambda_star_norm * v,
            "dual_gap_bound": constants["b_g"] / ks,
        }
    constants = cp, lead = _geometric_constants(inputs)
    epochs = ks - 1.0
    # beta^(k-1) overflows to inf far out, where every curve reads 0, its limit
    with np.errstate(over="ignore"):
        growth = s.beta ** epochs
    sub = _b_k(inputs, lead, epochs) / growth
    return constants, {
        "v_k_bound": (2.0 * cp / s.rho0 + inputs.L_h_theta * inputs.theta0_err
                      * inputs.delta ** epochs) / growth,
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
    ks = np.asarray(ks, dtype=float)
    if not np.all(ks >= 1):  # a NaN row fails too
        raise ValueError("k must be at least 1")
    return _evaluate(inputs, ks)[1]


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
                     "b_0": float(_b_k(inputs, lead, 0.0))}
    return {"constants": constants, "curves": curves}
