"""Benchmark of the simalm solver stack, timed from outside the library.

Run from the root of a checkout:

    python3 bench/run.py --workload known --seed 1 --seconds 24 --trace 0

Each workload is a closed loop: one process issues one public call after
another, waiting for each, and checks every output against the reference
optimum. A pass is one round of the workload's calls, in an order drawn from
--seed:

  known    experiments.run_solve over regimes {constant, increasing} x
           eps {1e-1, 1e-2, 1e-3} with the parameter known; the inner FISTA
           solver does the work.
  learned  the same grid with the ADMM covariance learner; the Jacobi
           eigensolver and the inner solver do the work.
  seqsim   experiments.run_seq_vs_sim with sequential budgets (0, 2, 4, 6)
           plus the simultaneous run; certificate-stopped inner solves and
           per-epoch costs.

Set-up is experiments.prepare_bundle, repeated SETUP_REPEATS times.
--trace 0 prints the end-to-end metrics. --trace 1 times untraced passes,
then traced ones (see tracing.py), and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the run's metadata (versions, thread setting, pass count, failures).
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: two threads on this 2-core class of machine raised CPU time
# 1.5-1.9x for a 0-25% wall gain, and changed tau_hat in the 10th digit, so
# results are only comparable under one fixed setting.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The instance is fixed and --seed only orders the calls. On the learned grid
# the constant-penalty run at eps=1e-3 costs about the cube of its epoch
# count, which ranges over 10-35 across instance seeds (6k-250k inner
# iterations), so seed-drawn instances spread solve_s by ~40% and inner_iters
# by ~100% from one seed to the next.
DESK = {"n": 100, "s": 10, "seed": 12}
WORKLOADS = ("known", "learned", "seqsim")
REGIMES = ("constant", "increasing")
EPSILONS = (1e-1, 1e-2, 1e-3)
BUDGETS = (0, 2, 4, 6)
SETUP_REPEATS = 2
KKT_TOL = 1e-9
SIM_REL_TOL = 1e-6
SIMPLEX_TOL = 1e-9
TAIL_BEYOND = 10
# SpeedProbe kernel size, and its time on an uncontended 2-core Xeon
# (2.0 GHz) VM, the machine the baseline was measured on; reported times are
# scaled to it. PROBE_REF_S holds only for these step and rotation counts.
PROBE_STEPS = 1500
PROBE_ROTATIONS = 150
PROBE_REF_S = 0.030
# Wall-clock columns of the trace CSV; every other column must repeat.
TIMING_COLUMNS = ("cpu_learn_s", "cpu_opt_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def csv_digest(path, drop=()):
    """sha256 of a CSV file, without the named columns when any are given."""
    if not drop:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def tail_of(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it. With TAIL_BEYOND samples or fewer no percentile has that
    support, and the median (percentile 50) is returned instead."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class SpeedProbe:
    """Times a fixed kernel, to scale measured times to a reference speed.

    On a shared host the CPU's speed drifts by up to ~1.8x for seconds to
    minutes at a time, far more than a change worth measuring. The kernel
    mixes what the workloads spend their time on: FISTA-like steps on a
    100-vector with a simplex projection, and Jacobi-style rotations of a
    100x100 matrix. It touches no simalm code, so changes to simalm never
    change it. A time measured between two probes is multiplied by
    PROBE_REF_S over the mean of the two kernel times.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        F = rng.standard_normal((100, 100))
        self.Q = F @ F.T / 100
        self.pairs = np.arange(50), np.arange(99, 49, -1)
        self.last = self.measure()

    def measure(self):
        np = self.np
        v = np.full(100, 0.01)
        A = self.Q.copy()
        p, q = self.pairs
        c, s = np.cos(0.1), np.sin(0.1)
        idx = np.arange(1, 101)
        t0 = time.perf_counter()
        for _ in range(PROBE_STEPS):
            y = v - 0.01 * (self.Q @ v)
            u = -np.sort(-y, kind="stable")
            css = np.cumsum(u) - 1.0
            k = int(np.nonzero(u - css / idx > 0)[0][-1])
            v = np.maximum(y - css[k] / (k + 1.0), 0.0)
        for _ in range(PROBE_ROTATIONS):
            Ap, Aq = A[:, p].copy(), A[:, q].copy()
            A[:, p], A[:, q] = c * Ap - s * Aq, s * Ap + c * Aq
            Rp, Rq = A[p, :].copy(), A[q, :].copy()
            A[p, :], A[q, :] = c * Rp - s * Rq, s * Rp + c * Rq
        return time.perf_counter() - t0

    def scale(self):
        """Scale factor for the interval since the previous call."""
        now = self.measure()
        factor = PROBE_REF_S / (0.5 * (self.last + now))
        self.last = now
        return factor


@dataclasses.dataclass
class Outcome:
    digest: str
    inner: int
    outer: int
    problems: list


def check_solve(output, bundle, eps, workdir):
    """Accuracy of one run_solve result, recomputed from its reported point."""
    import numpy as np

    trace, curves = output
    problems = []
    inst = bundle.instance
    x = np.asarray(trace.reported_x, dtype=float)
    f = 0.5 * x @ bundle.sigma_star @ x - inst.risk_tradeoff * inst.mu @ x
    f_star = bundle.reference.f_value
    rel = abs(f - f_star) / abs(f_star)
    infeas = float(np.linalg.norm(np.maximum(inst.sector_matrix @ x - inst.sector_limits, 0.0)))
    if not trace.converged:
        problems.append(f"did not converge in {len(trace)} epochs")
    elif not (rel <= eps and infeas <= eps):
        problems.append(f"rel. suboptimality {rel:.3e} / infeasibility {infeas:.3e} above {eps:g}")
    if x.min() < -SIMPLEX_TOL or abs(x.sum() - 1.0) > SIMPLEX_TOL:
        problems.append("reported point leaves the simplex")
    path = workdir / "trace.csv"
    trace.to_csv(path, bound_curves=curves)
    return Outcome(csv_digest(path, TIMING_COLUMNS), trace.total_inner, len(trace), problems)


def check_seqsim(curves, bundle, workdir):
    """Plateau ordering and simultaneous accuracy of one run_seq_vs_sim result."""
    from simalm.experiments import write_seqsim

    problems = []
    sim = curves["simultaneous"]["plateau"]
    seq = sorted((c["budget"], c["plateau"]) for c in curves.values() if c["budget"] >= 0)
    if [b for b, _ in seq] != sorted(BUDGETS):
        problems.append(f"sequential budgets {[b for b, _ in seq]}")
    if not all(p > sim for _, p in seq):
        problems.append("a sequential plateau is not above the simultaneous one")
    if any(a < b for (_, a), (_, b) in zip(seq, seq[1:])):
        problems.append("sequential plateaus increase with the budget")
    if not sim / abs(bundle.reference.f_value) <= SIM_REL_TOL:
        problems.append(f"simultaneous plateau {sim:.3e} above {SIM_REL_TOL:g} relative")
    inner = outer = 0
    for c in curves.values():
        # Work counts learning steps plus inner iterations: a sequential run
        # first takes `budget` steps, the simultaneous one a step per epoch
        # after the first.
        work, budget = c["work"], c["budget"]
        epochs = len(work) - max(budget, 0)
        learn_steps = budget if budget >= 0 else epochs - 1
        inner += int(work[-1]) - learn_steps
        outer += epochs
    path = workdir / "seqsim.csv"
    write_seqsim(curves, path)
    return Outcome(csv_digest(path), inner, outer, problems)


class Run:
    """One benchmark run: set-up, passes, and the correctness gate."""

    def __init__(self, workload, seed, instance, epsilons, workdir):
        import numpy as np
        from simalm.experiments import ExperimentConfig

        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.config = ExperimentConfig(n=instance["n"], s=instance["s"],
                                       seed=instance["seed"])
        self.epsilons = epsilons
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.first = {}
        self.bundle = None
        self.probe = SpeedProbe()

    def fail(self, what, why):
        self.failures.append(f"{what}: {why}")
        print(f"FAILED {self.workload} {what}: {why}", file=sys.stderr)

    def setup(self, wrap=lambda name, fn: fn):
        """prepare_bundle SETUP_REPEATS times; returns (wall time, scale) of each."""
        from simalm.experiments import prepare_bundle

        prepare = wrap("experiments.prepare_bundle", prepare_bundle)
        times = []
        for i in range(SETUP_REPEATS):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                bundle = prepare(self.config)
            except Exception:
                self.fail(f"setup {i}", traceback.format_exc())
                continue
            times.append((time.perf_counter() - t0, self.probe.scale()))
            kkt = bundle.reference.kkt_residual
            if not kkt <= KKT_TOL:
                self.fail(f"setup {i}", f"reference KKT residual {kkt:.3e} above {KKT_TOL:g}")
            elif self.bundle is None:
                self.bundle = bundle
            elif (bundle.reference.f_value != self.bundle.reference.f_value
                  or bundle.tau_hat != self.bundle.tau_hat):
                self.fail(f"setup {i}", "bundle differs from the first set-up")
        return times

    def calls(self):
        """The calls of one pass as [(key, thunk, check)], in a seed-drawn order."""
        from simalm.experiments import run_seq_vs_sim, run_solve

        bundle, workdir = self.bundle, self.workdir
        if self.workload == "seqsim":
            budgets = tuple(int(b) for b in self.rng.permutation(BUDGETS))
            config = dataclasses.replace(self.config, sequential_budgets=budgets)
            return [("seqsim", functools.partial(run_seq_vs_sim, config, bundle),
                     lambda out: check_seqsim(out, bundle, workdir))]
        grid = [(regime, eps) for regime in REGIMES for eps in self.epsilons]
        calls = []
        for i in self.rng.permutation(len(grid)):
            regime, eps = grid[i]
            thunk = functools.partial(run_solve, self.config, eps, bundle,
                                      specification=self.workload, regime=regime)
            calls.append((f"{regime}/{eps:g}", thunk,
                          functools.partial(check_solve, bundle=bundle, eps=eps,
                                            workdir=workdir)))
        return calls

    def one_pass(self, tracer=None):
        """Run every call once; returns (wall seconds, CPU seconds, inner, outer)."""
        wall = cpu = 0.0
        inner = outer = 0
        for key, thunk, check in self.calls():
            if tracer is not None:
                name = "experiments.run_seq_vs_sim" if key == "seqsim" else "experiments.run_solve"
                thunk = tracer.wrap(name, thunk)
            excluded = tracer.excluded if tracer is not None else 0.0
            self.attempted += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output = thunk()
            except Exception:
                self.fail(key, traceback.format_exc())
                continue
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                # counter bookkeeping inside the tracer is not program time
                excluded = (tracer.excluded if tracer is not None else 0.0) - excluded
                wall += t1 - t0 - excluded
                cpu += c1 - c0
            outcome = check(output)
            first = self.first.setdefault(key, outcome)
            if outcome.digest != first.digest:
                outcome.problems.append("CSV bytes differ from the first pass")
            if (outcome.inner, outcome.outer) != (first.inner, first.outer):
                outcome.problems.append("iteration counts differ from the first pass")
            if outcome.problems:
                self.fail(key, "; ".join(outcome.problems))
            inner += outcome.inner
            outer += outcome.outer
        return wall, cpu, inner, outer

    def passes(self, seconds, min_passes, tracer=None):
        """Passes until the next one would end after `seconds`; each pass is
        (wall s, CPU s, inner iterations, outer epochs, speed scale)."""
        done = []
        self.probe.scale()
        start = now = time.perf_counter()
        last = 0.0
        while len(done) < min_passes or now - start + last <= seconds:
            done.append((*self.one_pass(tracer), self.probe.scale()))
            last, now = time.perf_counter() - now, time.perf_counter()
        return done


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_walls(passes):
    return [p[0] * p[4] for p in passes]


def end_to_end(run, setup_times, passes):
    walls = scaled_walls(passes)
    tail, percentile = tail_of(walls)
    _, _, inner, outer, _ = passes[0]
    metrics = {
        "setup_s": metric(statistics.median(t * f for t, f in setup_times), "s"),
        "solve_s": metric(statistics.median(walls), "s"),
        "solve_s_tail": metric(tail, "s"),
        "solve_cpu_s": metric(statistics.median(p[1] * p[4] for p in passes), "s"),
        "inner_iters": metric(inner, "count"),
        "outer_iters": metric(outer, "count"),
        "success_ratio": metric(1.0 - len(run.failures) / run.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": percentile, "pass_samples": len(walls),
                     "raw_pass_s": [p[0] for p in passes], "pass_scale": [p[4] for p in passes],
                     "raw_setup_s": [t for t, _ in setup_times],
                     "setup_scale": [f for _, f in setup_times]}


# Per-layer (time metric, call-count metric, span, phase). Solve-phase values
# are per pass, set-up values per prepare_bundle call.
SPAN_METRICS = (
    ("learning.step_s", "learning.steps", "learning.step", "solve"),
    ("learning.init_s", "learning.inits", "learning.init", "solve"),
    ("learning.admm_solve_s", "learning.admm_solve_calls", "learning.admm_solve", "setup"),
    ("linalg.eigh_s", "linalg.eigh_calls", "linalg.eigh", "solve"),
    ("linalg.eigh_setup_s", "linalg.eigh_setup_calls", "linalg.eigh", "setup"),
    ("linalg.spectral_norm_s", "linalg.spectral_norm_calls", "linalg.spectral_norm", "solve"),
    ("inner_apg.solve_s", "inner_apg.solves", "inner_apg.solve", "solve"),
    ("inner_apg.grad_s", "inner_apg.grad_calls", "inner_apg.grad", "solve"),
    ("inner_apg.cert_s", "inner_apg.cert_checks", "inner_apg.cert", "solve"),
    ("model.grad_s", "model.grad_calls", "model.grad", "solve"),
    ("model.prox_s", "model.prox_calls", "model.prox", "solve"),
    ("cones.project_dual_s", "cones.project_dual_calls", "cones.project_dual", "solve"),
    ("al_core.dual_update_s", "al_core.dual_updates", "al_core.dual_update", "solve"),
    ("outer_alm.run_s", None, "outer_alm.run", "solve"),
    ("outer_alm.report_s", None, "outer_alm.report", "solve"),
    ("reference.qp_s", "reference.qp_calls", "reference.qp", "setup"),
    ("experiments.generate_s", None, "experiments.generate", "setup"),
    ("experiments.problem_build_s", "experiments.problem_builds",
     "experiments.problem_build", "solve"),
    ("bounds.curves_s", None, "bounds.curves", "solve"),
)


def per_layer(setup_tracer, solve_tracer, traced_passes, untraced_passes):
    n_passes = len(traced_passes)
    scale = {"setup": (setup_tracer, SETUP_REPEATS), "solve": (solve_tracer, n_passes)}
    metrics = {}
    for time_name, calls_name, span, phase in SPAN_METRICS:
        tracer, per = scale[phase]
        metrics[time_name] = metric(tracer.total[span] / per, "s")
        if calls_name is not None:
            metrics[calls_name] = metric(tracer.calls[span] / per, "count")
    counts = solve_tracer.counts
    iters = counts["inner_apg.iters"]
    metrics.update({
        "learning.admm_sweeps": metric(setup_tracer.counts["learning.admm_sweeps"] / SETUP_REPEATS, "count"),
        "reference.qp_iters": metric(setup_tracer.counts["reference.qp_iters"] / SETUP_REPEATS, "count"),
        "inner_apg.iters": metric(iters / n_passes, "count"),
        "inner_apg.iter_us": metric(1e6 * solve_tracer.total["inner_apg.solve"] / iters, "us"),
        "inner_apg.self_us_per_iter": metric(1e6 * solve_tracer.self_time["inner_apg.loop"] / iters, "us"),
        "inner_apg.budget_use": metric(iters / counts["inner_apg.budget"], "ratio"),
        "outer_alm.epochs": metric(counts["outer_alm.epochs"] / n_passes, "count"),
        "outer_alm.self_s": metric(solve_tracer.self_time["outer_alm.run"] / n_passes, "s"),
        "trace.overhead": metric(statistics.median(scaled_walls(traced_passes))
                                 / statistics.median(scaled_walls(untraced_passes)), "ratio"),
    })
    return metrics


def trace_problems(solve_tracer, traced_passes, untraced_passes):
    """Consistency of the traced run with the untraced one and with itself."""
    from tracing import leftover_wrappers

    problems = []
    left = leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    _, _, inner, outer, _ = untraced_passes[0]
    n = len(traced_passes)
    if solve_tracer.counts["inner_apg.iters"] != inner * n:
        problems.append(f"traced inner iterations {solve_tracer.counts['inner_apg.iters']} "
                        f"!= {n} x {inner}")
    if solve_tracer.counts["outer_alm.epochs"] != outer * n:
        problems.append(f"traced epochs {solve_tracer.counts['outer_alm.epochs']} != {n} x {outer}")
    # A span counted twice (a wrapper installed at two names one call passes
    # through) shows as more span time than the passes took, or as children
    # that outlast their parent.
    run_s = solve_tracer.total["outer_alm.run"]
    wall = sum(p[0] for p in traced_passes)
    if run_s > wall:
        problems.append(f"outer_alm.run {run_s:.6f} s exceeds the traced passes' {wall:.6f} s")
    negative = sorted(name for name, t in solve_tracer.self_time.items() if t < 0.0)
    if negative:
        problems.append(f"negative self time in {negative}")
    return problems


def versions():
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas}


def run_workload(workload, seed, seconds, trace, instance=DESK, epsilons=EPSILONS):
    """One benchmark run; returns (result line, metadata)."""
    from tracing import Tracer

    meta = {"workload": workload, "seed": seed, "instance": instance, "trace": trace,
            **versions()}
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
        run = Run(workload, seed, instance, epsilons, Path(tmp))
        if not trace:
            setup_times = run.setup()
            if run.bundle is None:
                raise RuntimeError("every set-up failed")
            passes = run.passes(seconds, min_passes=2)
            metrics, extra = end_to_end(run, setup_times, passes)
            meta.update(extra)
        else:
            setup_tracer = Tracer()
            with setup_tracer.installed():
                run.setup(setup_tracer.wrap)
            if run.bundle is None:
                raise RuntimeError("every set-up failed")
            untraced = run.passes(seconds / 2, min_passes=2)
            solve_tracer = Tracer()
            with solve_tracer.installed():
                traced = run.passes(seconds / 2, min_passes=1, tracer=solve_tracer)
            run.attempted += 1
            problems = trace_problems(solve_tracer, traced, untraced)
            if problems:
                run.fail("trace", "; ".join(problems))
            metrics = per_layer(setup_tracer, solve_tracer, traced, untraced)
            meta.update(pass_samples=len(untraced), traced_passes=len(traced),
                        outer_alm_children_s={
                            k: v / len(traced)
                            for k, v in sorted(solve_tracer.children("outer_alm.run").items())})
    meta["failures"] = run.failures
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, meta


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "simalm" / "__init__.py").is_file():
        print(f"simalm sources not found at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    result, meta = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
