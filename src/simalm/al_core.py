"""Augmented Lagrangian value, its dual gradient, and the multiplier update.

For penalty rho > 0 the augmented Lagrangian of the conic program is

    L_rho(x, lam; theta) = f(x; theta)
                           + (rho/2) d_{-K}(h(x; theta) + lam/rho)^2
                           - ||lam||^2 / (2 rho),

its gradient in lam is proj_{K*}(lam/rho + h) - lam/rho, and the multiplier
update is lam <- proj_{K*}(lam + rho h(x; theta)), which keeps every iterate
inside the dual cone. All functions are stateless, and each refuses a rho
that is not finite and positive with ValueError.
"""

import math

import numpy as np

from .model import constraint_value, evaluate_f

__all__ = ["eval_L", "grad_lambda_L", "dual_update"]


def _check_rho(rho):
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("penalty rho must be finite and positive")


def eval_L(problem, x, lam, rho, theta):
    """Value of the augmented Lagrangian at (x, lam)."""
    _check_rho(rho)
    lam = np.asarray(lam, dtype=float)
    h = constraint_value(problem, x, theta)
    d = problem.cone.dist_neg(h + lam / rho)
    return (evaluate_f(problem, x, theta)
            + 0.5 * rho * float(d) ** 2
            - float(lam @ lam) / (2.0 * rho))


def grad_lambda_L(problem, x, lam, rho, theta):
    """Gradient of the augmented Lagrangian in the multiplier.

    Equals proj_{K*}(lam/rho + h) - lam/rho, and by the Moreau decomposition
    also h - proj_{-K}(lam/rho + h).
    """
    _check_rho(rho)
    lam = np.asarray(lam, dtype=float)
    h = constraint_value(problem, x, theta)
    return problem.cone.project_dual(lam / rho + h) - lam / rho


def dual_update(problem, lam, rho, x, theta):
    """Multiplier ascent step lam <- proj_{K*}(lam + rho h(x; theta)).

    The projected form is used directly (rather than lam + rho grad) so that
    floating-point drift can never push the multiplier out of the dual cone.
    """
    _check_rho(rho)
    lam = np.asarray(lam, dtype=float)
    h = constraint_value(problem, x, theta)
    return problem.cone.project_dual(lam + rho * h)
