"""Experiment harness: instance set-up, full runs, tables, comparisons.

The pipeline mirrors the portfolio study: banded ground-truth covariance and
uniform mean returns generate a sample covariance, the sparse covariance
selection problem defines the learning target Sigma*, and the portfolio
program at Sigma* is solved under four regimes (constant or geometric
penalty, parameter known or learned). prepare_bundle is the one set-up
path: it draws the instance, learns Sigma*, solves the reference program
and certifies the learner's rate, and every run takes the bundle it
returns; save_bundle writes that bundle's files. Every derived file is a
deterministic function of the configuration seed; table timings are
written to sidecar files, and trace CSVs differ between runs only in their
wall-clock columns cpu_learn_s and cpu_opt_s.
"""

import functools
import json
import math
import numbers
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .bounds import BoundInputs, bound_curves
from .inner_apg import BudgetError, CurvatureAnchor, certified_solve
from .learning import (ADMM_TOL, AdmmScsLearner, FrozenLearner, ScsProblem,
                       admm_solve)
from .linalg import frobenius_distance, spectral_norm, symmetrize
from .model import PortfolioInstance, portfolio_problem
from .outer_alm import (StopRule, alm_run, make_constant_schedule,
                        make_increasing_schedule, sequential_baseline,
                        write_csv)
from .reference import portfolio_reference, simplex_qp

__all__ = [
    "ExperimentConfig", "InstanceBundle", "TableRow", "band_covariance",
    "make_sectors", "prepare_bundle", "save_bundle", "bound_inputs_for_run",
    "bound_curves_for_trace", "dual_gap_estimates", "run_solve", "run_table",
    "write_table", "run_seq_vs_sim", "write_seqsim",
]

# Instance-generator constants: with (n, s, seed) they fix the instance and
# every derived quantity, and save_bundle records them in meta.json. admm_tol
# is the residual at which Sigma* counts as learned: admm_solve's default,
# the one tolerance at which learners hold Sigma*.
_GENERATOR = {
    "band_width": 10,
    "sector_overlap": 0.2,
    "sector_limit": 0.3,
    "psd_floor": 1e-2,
    "upsilon": 0.4,
    "risk_tradeoff": 0.1,
    "admm_tol": ADMM_TOL,
    "max_attempts": 50,
    "binding_tol": 1e-7,
    "f_floor": 1e-3,
    "load_gap": 0.04,
}

_MAX_OUTER = {"constant": {"known": 40, "learned": 400}, "increasing": {"known": 150, "learned": 150}}

_RATE_FLOOR = 1e-10  # relative learner errors _certified_rate leaves out
# Linear rate assumed of the known-parameter runs, whose learner holds
# Sigma* from the start: their schedule is validated against it and their
# bound inputs use it
_KNOWN_RATE = 0.5
_DUAL_GAP_TOL = 1e-8  # certificate tolerance of dual_gap_estimates' inner solves


def _sequence(name, value):
    """value as a tuple; a string or a scalar is refused, naming the field."""
    if isinstance(value, (str, bytes)) or not np.iterable(value):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run configuration; serialized verbatim as the config-file schema."""

    n: int = 100
    s: int = 10
    seed: int = 12
    epsilon: tuple = (1e-1, 1e-2)
    regime: str = "constant"
    specification: str = "known"
    rho_o: float = 1.0
    beta: float = 1.05
    c: float = 1.0
    sequential_budgets: tuple = (0, 2, 4, 6)
    output_dir: str = "runs"

    def __post_init__(self):
        budgets = _sequence("sequential_budgets", self.sequential_budgets)
        for name, v in (("n", self.n), ("s", self.s), ("seed", self.seed),
                        *(("sequential_budgets", b) for b in budgets)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if any(b < 0 for b in budgets):
            raise ValueError(f"sequential_budgets must be nonnegative, got {budgets}")
        if len(set(budgets)) < len(budgets):  # each names one seqsim curve
            raise ValueError(f"sequential_budgets must be distinct, got {budgets}")
        for name in ("n", "s", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (self.n >= max(self.s, 4) and self.s >= 1):
            raise ValueError("need n >= s >= 1 and n >= 4 (n // 2 >= 2 samples)")
        for name in ("rho_o", "beta", "c"):
            v = getattr(self, name)
            # a JSON true or "1.0" is no penalty or rate
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        eps = tuple(float(e) for e in _sequence("epsilon", self.epsilon))
        if not eps:
            raise ValueError("epsilon must hold at least one accuracy")
        if not all(0.0 < e < 1.0 for e in eps):
            raise ValueError("epsilon values must lie in (0, 1)")
        if len({f"{e:g}" for e in eps}) < len(eps):  # each names one trace file
            raise ValueError(f"epsilon values must be distinct to 6 significant "
                             f"digits, got {eps}")
        if self.regime not in ("constant", "increasing"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.specification not in ("known", "learned"):
            raise ValueError(f"unknown specification {self.specification!r}")
        if self.rho_o <= 0 or self.c <= 0:
            raise ValueError("rho_o and c must be positive")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "sequential_budgets", tuple(int(b) for b in budgets))

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def band_covariance(n):
    """Banded covariance sigma_ij = max(1 - |i-j| / band_width, 0)."""
    idx = np.arange(n)
    width = _GENERATOR["band_width"]
    return np.maximum(1.0 - np.abs(idx[:, None] - idx[None, :]) / width, 0.0)


def make_sectors(n, s, rng):
    """0/1 sector matrix: contiguous blocks plus random spillover.

    Every asset belongs to its block sector and, with probability
    sector_overlap, also to the next sector (wrapping), so sectors may
    overlap and are not a partition.
    """
    A = np.zeros((s, n))
    blocks = np.array_split(np.arange(n), s)
    block_of = np.empty(n, dtype=int)
    for j, idx in enumerate(blocks):
        A[j, idx] = 1.0
        block_of[idx] = j
    extra = rng.random(n) < _GENERATOR["sector_overlap"]
    A[(block_of + 1) % s, np.arange(n)] = np.where(extra, 1.0, A[(block_of + 1) % s, np.arange(n)])
    return A


def _sample_instance(config, seed):
    n, s = config.n, config.s
    rng = np.random.default_rng(seed)
    mu_true = rng.uniform(-1.0, 1.0, n)
    sigma_true = band_covariance(n)
    chol = np.linalg.cholesky(sigma_true)
    p = n // 2
    samples = mu_true + rng.standard_normal((p, n)) @ chol.T
    centered = samples - samples.mean(axis=0)
    sample_cov = centered.T @ centered / (p - 1)
    A = make_sectors(n, s, rng)
    instance = PortfolioInstance(
        n=n, s=s, sector_matrix=A,
        sector_limits=np.full(s, _GENERATOR["sector_limit"]),
        mu=mu_true, risk_tradeoff=_GENERATOR["risk_tradeoff"],
        sigma=sigma_true, seed=seed,
    )
    scs = ScsProblem(S=sample_cov, upsilon=_GENERATOR["upsilon"],
                     psd_floor=_GENERATOR["psd_floor"])
    return instance, scs


def _draw_instance(config):
    """Draw a reproducible instance whose sector constraints bind.

    The ground-truth covariance is positive definite by construction
    (checked by the Cholesky factorisation that samples from it), and
    uniform weights must be strictly feasible so first-order runs can start
    there. Binding is verified at the learned covariance limit: when the
    nominal cap 0.3 is slack there, the caps are lowered to the midpoint
    between the uniform sector load and the peak sector exposure of the
    cap-free optimum, which makes at least one cap active while keeping the
    uniform start strictly feasible. Seeds whose cap-free optimum is too
    spread out to leave room for that window (or whose optimal value is
    degenerate) are skipped deterministically, so a given configuration
    seed always yields the same instance.

    Returns (instance, scs, sigma_star, admm_info, reference, binding):
    admm_info holds the Sigma history of the learning iteration, sigma_star
    is its last entry, the record's read-only array, reference is the
    portfolio optimum at sigma_star, and binding marks the caps active
    there. Raises ValueError when the uniform portfolio overloads a sector
    in every draw, so (n, s) admits no instance, and RuntimeError when no
    draw that passed that test gave binding sector constraints.
    """
    binding_tol = _GENERATOR["binding_tol"]
    least_peak_load = math.inf  # over the draws skipped for their uniform load
    load_passed = False
    for attempt in range(_GENERATOR["max_attempts"]):
        seed = config.seed + attempt
        instance, scs = _sample_instance(config, seed)
        uniform_load = instance.sector_matrix.sum(axis=1) / config.n
        if np.any(uniform_load >= instance.sector_limits):
            least_peak_load = min(least_peak_load, float(uniform_load.max()))
            continue
        load_passed = True
        info = admm_solve(scs)[1]
        sigma_star = info["history"][-1]
        x_free, _, _ = simplex_qp(symmetrize(sigma_star),
                                  -instance.risk_tradeoff * instance.mu)
        free_peak = float(np.max(instance.sector_matrix @ x_free))
        cap = float(instance.sector_limits[0])
        if free_peak <= cap + binding_tol:
            if free_peak - float(uniform_load.max()) < _GENERATOR["load_gap"]:
                continue
            cap = round(0.5 * (float(uniform_load.max()) + free_peak), 3)
            instance = replace(instance, sector_limits=np.full(instance.s, cap))
        ref = portfolio_reference(instance, sigma=sigma_star)
        binding = instance.sector_limits - instance.sector_matrix @ ref.x <= binding_tol
        if binding.any() and abs(ref.f_value) >= _GENERATOR["f_floor"]:
            return instance, scs, sigma_star, info, ref, binding
    attempts = _GENERATOR["max_attempts"]
    if not load_passed:
        raise ValueError(
            f"n={config.n}, s={config.s} admits no instance: the uniform portfolio "
            f"overloads a sector in all {attempts} draws from seed {config.seed} "
            f"(smallest peak uniform load {least_peak_load:.3g}, sector cap "
            f"{_GENERATOR['sector_limit']:g})")
    raise RuntimeError(f"no instance with binding sector constraints found in "
                       f"{attempts} attempts from seed {config.seed}")


@dataclass
class InstanceBundle:
    """Instance plus every derived reference quantity experiments reuse.

    tau_hat is the certified rate of learner_errors, the one learned rate:
    learned schedules are checked against it and learned bound overlays
    use it.
    learner_errors holds one error per ADMM sweep, so its size is the sweep
    count, which save_bundle records in meta.json as admm_sweeps.
    problem() builds the portfolio problem on first use and hands that one
    problem to every run, so its curvature oracle's memo
    (model.portfolio_problem) makes the runs on one bundle factor each
    theta once; a copy of the bundle builds its own. ||A||, behind kappa
    and every solve's L, comes from linalg.spectral_norm, which answers the
    instance's frozen A without another SVD (linalg.frozen_memo).
    """

    config: ExperimentConfig
    instance: PortfolioInstance
    scs: ScsProblem
    sigma_star: np.ndarray
    learner_errors: np.ndarray
    tau_hat: float
    reference: object
    binding: np.ndarray

    @property
    def theta0_err(self):
        return float(self.learner_errors[0])

    @functools.cached_property
    def kappa(self):
        """Certified sensitivity constant of the inner solution map in Sigma.

        The inner problems are psd_floor-strongly convex for every revealed
        covariance, so the solution map moves by at most D_x / psd_floor
        times the Frobenius change of Sigma, and the constraint map is
        theta-free: kappa = ||A|| * D_x / psd_floor.
        """
        return (spectral_norm(self.instance.sector_matrix) * 1.0
                / self.scs.psd_floor)

    @functools.cached_property
    def _problem(self):
        return portfolio_problem(self.instance, kappa=self.kappa)

    def problem(self, kappa=None):
        """The bundle's problem; with kappa, a new one that differs only there."""
        if kappa is None:
            return self._problem
        return portfolio_problem(self.instance, kappa=kappa)


def _certified_rate(errors):
    """Smallest tau with err_k <= tau^k err_0 over the err_k above _RATE_FLOOR * err_0.

    A history that ever rises above err_0 gives a rate of at least 1, which
    no Schedule accepts. Raises ValueError when no error after err_0 lies
    above the floor.
    """
    errors = np.asarray(errors, dtype=float)
    e0 = errors[0]
    rates = [(errors[k] / e0) ** (1.0 / k)
             for k in range(1, errors.size) if errors[k] > _RATE_FLOOR * e0]
    if not rates:
        raise ValueError(f"no rate from an error history of length {errors.size}: "
                         f"no error after the first lies above {_RATE_FLOOR:g} of it")
    return float(max(rates))


def prepare_bundle(config):
    """Generate an instance and compute every shared reference quantity.

    Runs one ADMM solve, to residual admm_tol, for Sigma* and one
    reference solve of the portfolio program at Sigma* for (x*, lambda*,
    f*): the two solves the instance draw makes to accept the instance. It
    then certifies the geometric rate of the learning iteration, tau_hat.
    The error history is the sequence a learner reveals, so errors[k] =
    ||theta_k - Sigma*|| for the k-th revealed estimate. The bundle's
    ScsProblem keeps the ADMM solve's sweeps in its record, so learners
    built on it replay them, run no sweep, and hold Sigma* once they reach
    it: errors[-1] is 0, and every later estimate keeps it there. The
    bundle's sigma_star is that recorded, frozen Sigma*, which a known
    run's FrozenLearner holds uncopied. The errors come from
    linalg.frobenius_distance, a linalg.frozen_memo that then holds the
    distance of every recorded Sigma_k from Sigma*, so the runs' theta
    errors are lookups.
    """
    instance, scs, sigma_star, info, reference, binding = _draw_instance(config)
    errors = np.array([frobenius_distance(S, sigma_star) for S in info["history"]])
    return InstanceBundle(
        config=config, instance=instance, scs=scs, sigma_star=sigma_star,
        learner_errors=errors, tau_hat=_certified_rate(errors),
        reference=reference, binding=binding,
    )


# Unused here: the benchmark's tracer wraps this name as experiments.generate;
# the benchmark change of ROADMAP item 1 drops that span and the binding.
generate_instance = prepare_bundle


def save_bundle(bundle, out_dir):
    """Write instance.json, scs.json, sigma_star.npy, learner_errors.npy and
    meta.json (the reference optimum, the rate and generator constants)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "sigma_star.npy", bundle.sigma_star)
    np.save(out / "learner_errors.npy", bundle.learner_errors)
    meta = {
        "instance_key": {k: getattr(bundle.config, k) for k in ("n", "s", "seed")},
        "generator": _GENERATOR,
        "tau_hat": bundle.tau_hat,
        "f_star": bundle.reference.f_value,
        "lambda_star": bundle.reference.lam.tolist(),
        "x_star": bundle.reference.x.tolist(),
        "kkt_residual": bundle.reference.kkt_residual,
        "binding": bundle.binding.astype(int).tolist(),
        "admm_sweeps": bundle.learner_errors.size,
    }
    for name, text in (("instance.json", bundle.instance.to_json()),
                       ("scs.json", bundle.scs.to_json()),
                       ("meta.json", json.dumps(meta, sort_keys=True, indent=1))):
        (out / name).write_text(text + "\n")


def _schedule(config, bundle, epsilon, specification=None, regime=None):
    regime = regime or config.regime
    spec = specification or config.specification
    tau = bundle.tau_hat if spec == "learned" else _KNOWN_RATE
    if regime == "constant":
        return make_constant_schedule(epsilon, config.rho_o, spec == "known",
                                      c=config.c, tau=tau)
    return make_increasing_schedule(config.rho_o, config.beta, 1.0, config.c, tau)


def _learner(bundle, specification):
    if specification == "known":
        return FrozenLearner(bundle.sigma_star)
    return AdmmScsLearner(bundle.scs)


def bound_inputs_for_run(bundle, schedule, specification):
    """Assemble the theoretical-bound inputs for one run with this schedule.

    kappa, L_f and L_h_theta are the constants of the bundle's problem,
    whose kappa is InstanceBundle.kappa.
    """
    constants = bundle.problem().constants
    return BoundInputs(
        schedule=schedule,
        theta0_err=0.0 if specification == "known" else bundle.theta0_err,
        lambda_star_norm=bundle.reference.lambda_norm,
        kappa=constants.kappa, L_f=constants.L_f,
        L_h_theta=constants.L_h_theta,
    )


def bound_curves_for_trace(trace, inputs, f_star):
    """bounds.bound_curves at the trace's k column, as theory-overlay columns.

    The two suboptimality bounds are scaled by 1/|f*| to match the relative
    empirical column; the other curves stay absolute.
    """
    curves = bound_curves(inputs, trace.column("k"))
    for name in ("subopt_upper_bound", "subopt_lower_bound"):
        curves[name] = curves[name] / abs(f_star)
    return curves


def dual_gap_estimates(problem, trace, theta_star, f_star):
    """Conservative dual-gap estimates f* - g(lambda_bar_k) per logged epoch.

    The dual value at the averaged multiplier is estimated by a certified
    inner solve to gap _DUAL_GAP_TOL, within its budget for that accuracy.
    Its certificate, an upper bound on the suboptimality of the returned
    iterate, is added to the gap, so the estimate errs on the large side.
    One CurvatureAnchor serves every solve, so theta_star is factored once
    and the forward map built once.
    """
    records = trace.opt_records
    anchor = CurvatureAnchor()
    out = []
    lam_sum = np.zeros_like(records[0].lam)
    warm = records[0].x
    for i, rec in enumerate(records):
        lam_k, rho_k = rec.lam, rec.rho
        lam_sum += lam_k
        lam_bar = lam_sum / (i + 1.0)
        warm, value, cert, _ = certified_solve(
            problem, warm, lam_bar, rho_k, theta_star, gap_tol=_DUAL_GAP_TOL,
            anchor=anchor)
        out.append(max(f_star - value, 0.0) + cert)
    return np.array(out)


@dataclass
class TableRow:
    epsilon: float
    rel_subopt: float
    infeas: float
    outer: int
    inner_total: int
    cpu_learn_s: float
    cpu_opt_s: float
    flagged: bool


def run_solve(config, epsilon, bundle, specification=None, regime=None):
    """One full run at a target accuracy; returns (trace, bound curves)."""
    regime = regime or config.regime
    spec = specification or config.specification
    schedule = _schedule(config, bundle, epsilon, spec, regime)
    problem = bundle.problem()
    learner = _learner(bundle, spec)
    x0 = np.full(config.n, 1.0 / config.n)
    stop = StopRule(max_outer=_MAX_OUTER[regime][spec], epsilon=epsilon)
    trace = alm_run(problem, learner, schedule, x0,
                    theta_star=bundle.sigma_star, stop=stop,
                    reference=bundle.reference)
    inputs = bound_inputs_for_run(bundle, schedule, spec)
    curves = bound_curves_for_trace(trace, inputs, bundle.reference.f_value)
    return trace, curves


def run_table(config, bundle):
    """Solution quality and effort per requested accuracy.

    One row per epsilon; rows that fail to reach their target inside the
    iteration caps (BudgetError) are flagged and the run continues. Any
    other error, a NonFiniteError included, propagates.
    """
    rows = []
    for eps in config.epsilon:
        t0 = time.perf_counter()
        try:
            trace, _ = run_solve(config, eps, bundle)
            last = trace.records[-1]
            rows.append(TableRow(
                epsilon=eps, rel_subopt=last.f_rel_subopt,
                infeas=last.infeas_at_theta_star,
                outer=len(trace.records), inner_total=trace.total_inner,
                cpu_learn_s=last.cpu_learn_s, cpu_opt_s=last.cpu_opt_s,
                flagged=not trace.converged))
        except BudgetError:
            # iteration-cap failures flag the row; the sweep continues
            rows.append(TableRow(epsilon=eps, rel_subopt=np.nan, infeas=np.nan,
                                 outer=0, inner_total=0,
                                 cpu_learn_s=0.0,
                                 cpu_opt_s=time.perf_counter() - t0,
                                 flagged=True))
    return rows


def write_table(rows, path, timing_path):
    """Write the deterministic table CSV; timings go to a sidecar file."""
    write_csv(path, ("epsilon", "rel_subopt", "infeas", "outer", "inner", "flagged"),
              ((r.epsilon, r.rel_subopt, r.infeas, r.outer, r.inner_total, r.flagged)
               for r in rows))
    write_csv(timing_path, ("epsilon", "cpu_learn_s", "cpu_opt_s"),
              ((r.epsilon, r.cpu_learn_s, r.cpu_opt_s) for r in rows))


def run_seq_vs_sim(config, bundle, max_outer=50):
    """Learn-then-optimize sweeps against the interleaved scheme.

    Returns a dict with one suboptimality-vs-work curve per sequential
    budget plus the simultaneous run. Inner solves run apg_solve with
    certify=True: each exits early, within its budget, on the certificate
    of its step's own gradient mapping, so the work axis counts the
    proximal-gradient steps actually needed, one gradient each, mirroring
    how effort is compared across schemes. Every curve reads its work off
    its trace's records: learner_steps plus the cumulative inner
    iterations. A learn-phase row counts the learning steps taken so far,
    and a sequential run's frozen learner learns nothing, so its rows count
    the budget. Every learner replays the bundle's ADMM record and runs no
    sweep, so the simultaneous run reveals Sigma* from the epoch that
    reaches the record's last sweep on. Requires at least two distinct
    sequential budgets (ExperimentConfig refuses a repeated one).
    """
    if len(config.sequential_budgets) < 2:
        raise ValueError("need at least two sequential budgets")
    problem = bundle.problem()
    f_star = bundle.reference.f_value
    x0 = np.full(config.n, 1.0 / config.n)
    schedule = _schedule(config, bundle, epsilon=1e-2,
                          specification="learned", regime="increasing")
    run = dict(theta_star=bundle.sigma_star, stop=StopRule(max_outer=max_outer),
               reference=bundle.reference, certify=True)

    curves = {}
    for budget in (*config.sequential_budgets, -1):  # -1: the simultaneous run
        learner = AdmmScsLearner(bundle.scs)
        if budget < 0:
            name, trace = "simultaneous", alm_run(problem, learner, schedule, x0, **run)
        else:
            name = f"sequential_{budget}"
            trace = sequential_baseline(problem, learner, budget, schedule, x0, **run)
        work = trace.column("learner_steps") + np.cumsum(trace.column("inner_iterations"))
        subopt = np.abs(trace.column("f_at_theta_star") - f_star)
        curves[name] = {"work": work.astype(float), "subopt": subopt,
                        "plateau": float(subopt[-1]), "budget": budget}
    return curves


def write_seqsim(curves, path):
    write_csv(path, ("scheme", "step", "cum_work", "abs_subopt"),
              ((name, step, w, v) for name in sorted(curves)
               for step, (w, v) in enumerate(zip(curves[name]["work"],
                                                 curves[name]["subopt"]), 1)))
