"""Accelerated proximal gradient on a simplex-constrained quadratic.

Runs the momentum iteration against an exact active-set solution and shows
the value gap tracking the 2 L ||x0 - x*||^2 / (t+1)^2 envelope.
"""

import numpy as np

from simalm import fista, simplex_prox, simplex_qp

rng = np.random.default_rng(7)
n = 20
F = rng.standard_normal((n, n))
Q = F @ F.T / n + 0.2 * np.eye(n)
c = rng.standard_normal(n) * 0.5

x_star, f_star, kkt = simplex_qp(Q, c)
print(f"active-set oracle: f* = {f_star:.8f} (KKT residual {kkt:.1e})")

L = float(np.linalg.norm(Q, 2))
x0 = np.full(n, 1.0 / n)
r2 = float((x0 - x_star) @ (x0 - x_star))

# fista's stop predicate sees every iterate; this one records the objective
# and never stops the run
history = []


def record(y, z):
    history.append(0.5 * z @ Q @ z + c @ z)
    return False


fista(lambda y: simplex_prox(y, Q @ y + c, L), L, x0, 60, stop=record)

print(f"{'t':>4} {'gap':>12} {'envelope':>12}")
for t in (1, 2, 5, 10, 20, 40, 60):
    gap = history[t - 1] - f_star
    envelope = 2 * L * r2 / (t + 1) ** 2
    print(f"{t:>4} {gap:>12.3e} {envelope:>12.3e}")
