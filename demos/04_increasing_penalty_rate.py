"""Geometric penalty growth gives a linear outer rate.

A synthetic learner reveals covariances converging at a known rate tau;
with penalty growth beta satisfying beta * tau < 1 the suboptimality decays
like B_k / beta^k. The run is overlaid against that bound curve.
"""

import numpy as np

from simalm import (BoundInputs, ExperimentConfig, StopRule, SyntheticLearner,
                    alm_run, bound_curves, make_increasing_schedule,
                    prepare_bundle, spectral_norm)

config = ExperimentConfig(n=100, s=10, seed=12)
bundle = prepare_bundle(config)
problem = bundle.problem()

beta, tau = 1.05, 0.91
sigma_star = bundle.sigma_star
sigma0 = 1.3 * sigma_star
learner = SyntheticLearner(sigma_star, sigma0, tau)
schedule = make_increasing_schedule(1.0, beta, 1.0, 1e-3, tau)

trace = alm_run(problem, learner, schedule,
                np.full(config.n, 1.0 / config.n), theta_star=sigma_star,
                stop=StopRule(max_outer=40), reference=bundle.reference)

mu_min = min(np.linalg.eigvalsh(sigma_star).min(),
             np.linalg.eigvalsh(sigma0).min())
inputs = BoundInputs(
    schedule,
    theta0_err=float(np.linalg.norm(sigma0 - sigma_star, "fro")),
    lambda_star_norm=bundle.reference.lambda_norm,
    kappa=spectral_norm(bundle.instance.sector_matrix) / mu_min,
    L_f=0.5, L_h_theta=0.0)

# the overlay columns of the trace CSV: row k holds epoch k - 1, against
# B_{k-1} / beta^(k-1) and the infeasibility bound at that epoch
curves = bound_curves(inputs, trace.column("k"))
print(f"{'k':>4} {'|f - f*|':>12} {'bound':>12} {'infeas':>12} {'bound':>12}")
f_star = bundle.reference.f_value
for row in range(0, len(trace), 4):
    rec = trace.records[row]
    print(f"{rec.k:>4} {abs(rec.f_at_theta_star - f_star):>12.3e} "
          f"{curves['subopt_upper_bound'][row]:>12.3e} "
          f"{rec.infeas_at_theta_star:>12.3e} "
          f"{curves['v_k_bound'][row]:>12.3e}")

errs = [abs(r.f_at_theta_star - f_star) for r in trace.records]
ks = np.arange(1, len(errs) + 1)
slope = np.polyfit(ks[4:], np.log(np.maximum(errs[4:], 1e-16)), 1)[0]
print(f"\nempirical log-slope {slope:.4f} vs -log(beta) = {-np.log(beta):.4f}")
