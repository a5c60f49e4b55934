"""Inexact augmented Lagrangian solver for conic programs with learned data.

The solver interleaves one learning update of an unknown problem parameter
with one inexact multiplier step per epoch, supports one schedule family
(a constant or geometric penalty with its matched inexactness), evaluates the
corresponding theoretical rate curves, and ships a sector-constrained
portfolio experiment harness with a CLI.
"""

from .cones import (Cone, NonnegativeOrthant, ProductCone, SecondOrderCone,
                    ZeroCone)
from .model import (ParametricProblem, PortfolioInstance, ProblemConstants,
                    constraint_value, evaluate_f, infeasibility,
                    portfolio_problem, project_simplex, simplex_prox)
from .al_core import dual_update, eval_L, grad_lambda_L
from .inner_apg import (ApgConfig, BudgetError, apg_solve, certified_solve,
                        fista, grad_nu, iteration_budget, lipschitz_nu)
from .outer_alm import (AlmRecord, AlmTrace, NonFiniteError, Schedule,
                        ScheduleError, StopRule, alm_run, make_constant_schedule,
                        make_increasing_schedule, sequential_baseline)
from .learning import (AdmmScsLearner, FrozenLearner, ScsProblem,
                       SyntheticLearner, admm_solve, eigh_clip, scs_admm_step,
                       scs_init)
from .bounds import (BoundInputs, b_g, b_k, bound_curves, bound_report,
                     c_lambda, c_lambda_prime, dual_gap_bound,
                     infeasibility_bound_geometric, inverse_power_series,
                     primal_subopt_lower, primal_subopt_upper, u_const, v_of_k)
from .linalg import spectral_norm
from .reference import ReferenceSolution, active_set_qp, portfolio_reference, simplex_qp
from .experiments import (ExperimentConfig, InstanceBundle, SampleData,
                          TableRow, band_covariance, bound_curves_for_trace,
                          bound_inputs_for_run, dual_gap_estimates,
                          generate_instance, make_sectors, prepare_bundle,
                          run_seq_vs_sim, run_solve, run_table, save_bundle,
                          write_seqsim, write_table)

__version__ = "0.1.0"
