"""Outer multiplier loop: the schedule, the run driver, and run traces.

One outer epoch k requests the parameter estimate theta_k from the learner
(only estimates up to the current epoch are ever revealed), solves the
penalized subproblem to inexactness alpha_k warm-started at the previous
iterate, and applies the multiplier update with penalty rho_k. One
`Schedule` gives both sequences, rho_k = rho0 beta^k and alpha_k =
alpha0 / ((k+1)^(2(1+c)) beta^k), in one of two regimes:

* constant (beta == 1): the running average of the iterates is the
  reported solution;
* geometric (beta > 1): the last iterate is reported. The schedule holds
  the learner's linear rate tau and requires beta * tau < 1; that check in
  `Schedule` is the only one, since learners report no rate.

The outer loop is sequential by construction; the learner may live
elsewhere as long as step() blocks until the next estimate is available.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .al_core import dual_update
from .bounds import inverse_power_series
from .inner_apg import ApgConfig, CurvatureAnchor, apg_solve
# Unused here: the benchmark's tracer wraps this name as inner_apg.solve
# (alm_run's certified epochs run apg_solve with certify=True); the benchmark
# change of ROADMAP item 1 drops that span and the binding.
from .inner_apg import certified_solve
from .linalg import frobenius_distance, frozen_memo
from .model import NonFiniteError, evaluate_f, infeasibility

__all__ = [
    "ScheduleError", "NonFiniteError", "Schedule", "StopRule", "AlmRecord",
    "AlmTrace", "make_constant_schedule", "make_increasing_schedule",
    "alm_run", "sequential_baseline", "write_csv", "TRACE_COLUMNS",
    "BOUND_COLUMNS",
]

# Trace CSV column -> AlmRecord field, in the trace's fixed column order
_TRACE_FIELDS = {"k": "k", "rho_k": "rho", "alpha_k": "alpha",
                 "inner_iters": "inner_iterations", "f_rel_subopt": "f_rel_subopt",
                 "infeas": "infeas_at_theta_star", "theta_err_rel": "theta_err_rel",
                 "cpu_learn_s": "cpu_learn_s", "cpu_opt_s": "cpu_opt_s"}
TRACE_COLUMNS = tuple(_TRACE_FIELDS)
BOUND_COLUMNS = ("v_k_bound", "subopt_upper_bound", "subopt_lower_bound",
                 "dual_gap_bound")


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def write_csv(path, header, rows):
    """Write one artifact CSV: the header line, then one line per row.

    The one cell format of every artifact: strings verbatim, bools and
    integers (numpy's included) as integers, every other number as
    float %.12g, so NaN reads "nan".
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


class ScheduleError(ValueError):
    """Invalid or incompatible penalty / inexactness configuration."""


def _check_finite(where, **arrays):
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise NonFiniteError(f"non-finite {name} at {where}")


@dataclass(frozen=True)
class Schedule:
    """Penalty rho_k = rho0 beta^k and inexactness alpha0 / ((k+1)^(2(1+c)) beta^k).

    beta == 1 is the constant regime. With c > 0 the square roots of alpha_k
    sum to a finite value, which every constant-penalty guarantee relies on;
    dividing by beta^k keeps sum sqrt(alpha_k rho_k) finite as well. Every
    field must be finite, and a given tau must lie in (0, 1). A geometric
    schedule (beta > 1) needs the learner's linear rate tau with
    beta * tau < 1. The bound overlays (`bounds.BoundInputs`) need tau in
    either regime.
    """

    rho0: float
    alpha0: float
    c: float
    beta: float = 1.0
    tau: Optional[float] = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ScheduleError(f"{name} must be finite, got {value}")
        if self.rho0 <= 0:
            raise ScheduleError("rho0 must be positive")
        if self.alpha0 <= 0 or self.c <= 0:
            raise ScheduleError("alpha0 and c must be positive")
        if self.beta < 1.0:
            raise ScheduleError("beta must be at least 1")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ScheduleError(f"the learning rate tau = {self.tau:.6g} "
                                f"must lie in (0, 1)")
        if self.is_geometric:
            if self.tau is None:
                raise ScheduleError("a geometric schedule needs a learning rate tau")
            if self.beta * self.tau >= 1.0:
                raise ScheduleError(
                    f"penalty growth is incompatible with the learning rate: "
                    f"beta * tau = {self.beta * self.tau:.6g} must be below 1")

    @property
    def is_geometric(self):
        return self.beta > 1.0

    def rho(self, k):
        return self.rho0 * self.beta ** k

    def alpha(self, k):
        return self.alpha0 / (k + 1.0) ** (2.0 * (1.0 + self.c)) / self.beta ** k


@dataclass(frozen=True)
class StopRule:
    """Run caps: hard outer-iteration limit, optional target accuracy.

    With epsilon set (and a reference value available) the run stops as
    soon as the reported iterate has relative suboptimality and
    infeasibility both at most epsilon.
    """

    max_outer: int
    epsilon: Optional[float] = None

    def __post_init__(self):
        if (isinstance(self.max_outer, bool)
                or not isinstance(self.max_outer, (int, np.integer))):
            raise ScheduleError(f"max_outer must be an integer, got {self.max_outer!r}")
        if self.max_outer < 1:
            raise ScheduleError("max_outer must be at least 1")
        if self.epsilon is not None and (isinstance(self.epsilon, bool)
                                         or not 0.0 < self.epsilon < math.inf):
            raise ScheduleError(f"epsilon must be positive and finite, got {self.epsilon!r}")


def make_constant_schedule(epsilon, rho_o, learner_known, c=1.0, tau=None):
    """Constant-penalty schedule for target accuracy epsilon.

    With the parameter known in advance the penalty is rho_o / epsilon; under
    learning it stays at rho_o. In both cases alpha0 solves

        sqrt(alpha0) * sum_k (k+1)^(-(1+c)) = 1 / sqrt(2 rho),

    with the series summed to machine precision. tau, the learner's linear
    rate in (0, 1), does not change the run; the bound overlays need it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ScheduleError("epsilon must lie in (0, 1)")
    if not (math.isfinite(rho_o) and rho_o > 0):
        raise ScheduleError(f"rho_o must be finite and positive, got {rho_o}")
    if not (math.isfinite(c) and c > 0):
        raise ScheduleError(f"c must be finite and positive, got {c}")
    rho = rho_o / epsilon if learner_known else rho_o
    series = inverse_power_series(1.0 + c)
    return Schedule(rho0=rho, alpha0=1.0 / (2.0 * rho * series ** 2), c=c, tau=tau)


def make_increasing_schedule(rho0, beta, alpha0, c, tau):
    """Geometric-penalty schedule rho_k = rho0 beta^k against learning rate tau.

    Requires beta > 1, tau in (0, 1), and beta * tau < 1; the inexactness
    form alpha0 / ((k+1)^(2(1+c)) beta^k) makes sum sqrt(alpha_k rho_k) =
    sqrt(alpha0 rho0) * sum (k+1)^(-(1+c)), finite for every c > 0.
    """
    if beta <= 1.0:
        raise ScheduleError("beta must exceed 1")
    return Schedule(rho0=rho0, alpha0=alpha0, c=c, beta=beta, tau=tau)


@dataclass
class AlmRecord:
    """State logged after one outer epoch (or one pre-solve learning step)."""

    k: int
    rho: float
    alpha: float
    inner_iterations: int
    x: np.ndarray
    lam: np.ndarray
    x_bar: np.ndarray
    theta_err: float
    theta_err_rel: float
    f_at_theta_star: float
    infeas_at_theta_star: float
    f_rel_subopt: float
    learner_steps: int
    cpu_learn_s: float
    cpu_opt_s: float
    phase: str = "opt"


@dataclass
class AlmTrace:
    """Full run record plus the regime-dependent reported iterate."""

    records: list = field(default_factory=list)
    regime: str = "constant"
    f_star: Optional[float] = None
    converged: bool = False

    def __len__(self):
        return len(self.records)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    @property
    def opt_records(self):
        return [r for r in self.records if r.phase == "opt"]

    @property
    def reported_x(self):
        last = self.opt_records[-1]
        return last.x_bar if self.regime == "constant" else last.x

    @property
    def total_inner(self):
        return int(sum(r.inner_iterations for r in self.records))

    def to_csv(self, path, bound_curves=None):
        """Write the fixed-order trace CSV, one row per outer iteration.

        bound_curves, when given, maps each of the theory-overlay column
        names to an array aligned with the records and is appended after
        the empirical columns; a curve of another length raises ValueError.
        """
        header = list(TRACE_COLUMNS)
        columns = [self.column(name) for name in _TRACE_FIELDS.values()]
        if bound_curves:
            for name in BOUND_COLUMNS:
                if name in bound_curves:
                    header.append(name)
                    columns.append(np.asarray(bound_curves[name]))
        write_csv(path, header, zip(*columns, strict=True))


def _report(problem, x, theta_star, f_star):
    """(f, infeasibility, relative suboptimality) of x at theta*: what a row reports.

    The relative suboptimality |f - f*| / |f*| is NaN unless f* is given and
    nonzero.
    """
    f = evaluate_f(problem, x, theta_star)
    infeas = infeasibility(problem, x, theta_star)
    rel = np.nan
    if f_star is not None and f_star != 0.0:
        rel = abs(f - f_star) / abs(f_star)
    return f, infeas, rel


# ||a||_F as np.linalg.norm computes it, the scale of a run's theta errors:
# computed once per frozen theta* however many runs report against it
_frobenius_norm = frozen_memo(lambda a: float(np.linalg.norm(a)))


def _theta_errors(theta, theta_star, scale, where):
    """(||theta - theta*||_F, that error over scale = ||theta*||_F when positive).

    The error is linalg.frobenius_distance(theta, theta*), so a frozen
    pair met before, by any run or by prepare_bundle, costs a lookup.
    Raises NonFiniteError naming `where` when theta holds a NaN or an
    infinity. A finite error proves it holds neither, so theta's entries
    are checked only when the error is not finite.
    """
    err = frobenius_distance(theta, theta_star)
    if not math.isfinite(err):
        _check_finite(where, theta=np.asarray(theta, float))
    return err, err / scale if scale > 0 else err


def alm_run(problem, learner, schedule, x0, theta_star,
            stop=StopRule(max_outer=50), reference=None, certify=False):
    """Run the inexact multiplier scheme from the multiplier 0 and return its trace.

    Parameters
    ----------
    problem : ParametricProblem
    learner : object with .theta, .step(), .steps_taken
        Supplies theta_k; at epoch k exactly k step() calls have been made.
    schedule : Schedule giving rho_k and alpha_k.
    x0 : starting point in X.
    theta_star : true parameter used for reporting objective values,
        infeasibility, and parameter errors.
    stop : StopRule; with epsilon set and `reference` available the run
        stops once the reported iterate meets the target.
    reference : ReferenceSolution, optional; provides f* for suboptimality.
    certify : each inner solve runs apg_solve within its budget for
        alpha_k, with this certify: False runs the budget to its end, True
        exits early at the first step whose gradient-mapping certificate,
        an upper bound on that step's suboptimality, is at most alpha_k.

    The run keeps its own CurvatureAnchor, so its inner solves factor the
    curvature of theta_k only when that could shorten a solve, and the
    problem's forward map is built once and called at each solve, which
    writes that solve's data into the map's buffers (inner_apg).
    Each epoch's theta errors come from linalg.frobenius_distance, whose
    memo answers a frozen theta_k met before against the same theta*
    (linalg.frozen_memo's caching rule). Each record
    holds the epoch's own x, lam and x_bar arrays, which no later epoch
    writes.

    Raises NonFiniteError, naming the epoch and the quantity, as soon as
    theta_k, x or lam holds a NaN or an infinity, also when the inner solve
    itself meets one.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    theta_scale = _frobenius_norm(theta_star)
    lam = np.zeros(problem.cone.dim)
    anchor = CurvatureAnchor()
    x = np.asarray(x0, dtype=float).copy()
    if problem.membership is not None and not problem.membership(x):
        raise ValueError("x0 is not a member of X")

    trace = AlmTrace(regime="increasing" if schedule.is_geometric else "constant",
                     f_star=None if reference is None else reference.f_value)
    x_sum = np.zeros_like(x)
    cpu_learn = 0.0
    cpu_opt = 0.0

    for k in range(stop.max_outer):
        t0 = time.perf_counter()
        theta_k = learner.theta if k == 0 else learner.step()
        if learner.steps_taken > k:
            raise RuntimeError("learner advanced beyond the outer epoch")
        cpu_learn += time.perf_counter() - t0
        # the row's theta errors, which refuse a non-finite theta_k
        theta_err, theta_err_rel = _theta_errors(
            theta_k, theta_star, theta_scale, f"epoch {k}")
        t1 = time.perf_counter()

        rho_k = schedule.rho(k)
        alpha_k = schedule.alpha(k)
        x, inner = apg_solve(problem, x, lam, rho_k, theta_k,
                             ApgConfig(alpha=alpha_k), epoch=k, anchor=anchor,
                             certify=certify)
        lam = dual_update(problem, lam, rho_k, x, theta_k)
        _check_finite(f"epoch {k}", x=x, lam=lam)
        x_sum += x
        x_bar = x_sum / (k + 1.0)
        cpu_opt += time.perf_counter() - t1

        reported = x_bar if trace.regime == "constant" else x
        f_rep, infeas_rep, rel = _report(problem, reported, theta_star,
                                         trace.f_star)
        trace.records.append(AlmRecord(
            k=k + 1, rho=rho_k, alpha=alpha_k, inner_iterations=inner,
            x=x, lam=lam, x_bar=x_bar,
            theta_err=theta_err, theta_err_rel=theta_err_rel,
            f_at_theta_star=f_rep, infeas_at_theta_star=infeas_rep,
            f_rel_subopt=rel, learner_steps=learner.steps_taken,
            cpu_learn_s=cpu_learn, cpu_opt_s=cpu_opt,
        ))
        if (stop.epsilon is not None and not math.isnan(rel)
                and rel <= stop.epsilon and infeas_rep <= stop.epsilon):
            trace.converged = True
            break
    return trace


def sequential_baseline(problem, learner, learn_budget, schedule, x0,
                        theta_star, **run_kwargs):
    """Learn-then-optimize baseline.

    Runs the learner for learn_budget steps while the decision variable
    stays at x0 (logged as flat learning-phase rows), freezes the estimate,
    and then runs the multiplier scheme against it. The frozen estimate
    generally differs from the true parameter, so the optimization phase
    plateaus at a positive suboptimality. A FrozenLearner learns nothing,
    so every optimization-phase row counts learn_budget learner steps. The
    learning-phase rows share one read-only copy of x0, as both x and
    x_bar, and one read-only zero multiplier.
    """
    from .learning import FrozenLearner

    if isinstance(learn_budget, bool) or not isinstance(learn_budget, (int, np.integer)):
        raise ValueError(f"learn_budget must be an integer, got {learn_budget!r}")
    if learn_budget < 0:
        raise ValueError("learn_budget must be nonnegative")
    learn_budget = int(learn_budget)
    reference = run_kwargs.get("reference")
    x0 = np.asarray(x0, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    theta_scale = _frobenius_norm(theta_star)
    f0, infeas0, rel0 = _report(problem, x0, theta_star,
                                None if reference is None else reference.f_value)
    x_held, lam_held = x0.copy(), np.zeros(problem.cone.dim)
    x_held.flags.writeable = lam_held.flags.writeable = False

    learn_records = []
    cpu_learn = 0.0
    for j in range(learn_budget):
        t0 = time.perf_counter()
        theta_j = learner.step()
        cpu_learn += time.perf_counter() - t0
        theta_err, theta_err_rel = _theta_errors(
            theta_j, theta_star, theta_scale, f"epoch {j + 1} of the learning phase")
        learn_records.append(AlmRecord(
            k=j + 1, rho=0.0, alpha=0.0, inner_iterations=0,
            x=x_held, lam=lam_held, x_bar=x_held,
            theta_err=theta_err, theta_err_rel=theta_err_rel,
            f_at_theta_star=f0, infeas_at_theta_star=infeas0,
            f_rel_subopt=rel0, learner_steps=learner.steps_taken,
            cpu_learn_s=cpu_learn, cpu_opt_s=0.0, phase="learn",
        ))

    frozen = FrozenLearner(learner.theta)
    trace = alm_run(problem, frozen, schedule, x0, theta_star, **run_kwargs)
    for rec in trace.records:
        rec.k += learn_budget
        rec.cpu_learn_s += cpu_learn
        rec.learner_steps += learn_budget
    trace.records = learn_records + trace.records
    return trace
