"""Per-layer spans for simalm, recorded from outside the library.

The simalm modules import each other's functions by value (``from .inner_apg
import apg_solve``), so a function is wrapped at every name its callers look
up, not only where it is defined. Methods are wrapped on their class, and the
oracles of a built problem are wrapped by ``dataclasses.replace`` on the
problem the library hands back. ``Tracer.installed()`` puts every wrapper in
place and restores every original on exit.

Spans nest: a span's self time is its duration minus the time of the spans
it directly encloses. Spans are folded into per-name totals as they close,
so memory stays flat however many inner iterations run. A span entered while
a span of the same name is open is folded into the open one
(``sequential_baseline`` calls ``alm_run``, and both are timed as one run).
"""

import copy
import dataclasses
import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MARK = "_bench_span"


class Tracer:
    """Span aggregates plus the counters read off traced return values."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)
        # Time spent computing counters (e.g. iteration budgets) is removed
        # from every span that encloses it, so it never reads as program time.
        self.excluded = 0.0
        self._stack = []
        self._paused = False

    def wrap(self, name, fn, on_result=None):
        """Return fn timed as span `name`; on_result(result, bound_args) counts."""
        signature = inspect.signature(fn) if on_result is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if self._paused or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0.0, self.excluded]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self._close(frame, elapsed)
            if on_result is not None:
                t1 = perf_counter()
                self._paused = True
                try:
                    on_result(result, signature.bind(*args, **kwargs).arguments)
                finally:
                    self._paused = False
                    self.excluded += perf_counter() - t1
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _close(self, frame, elapsed):
        name, child_time, excluded_at_start = frame
        duration = elapsed - (self.excluded - excluded_at_start)
        self.total[name] += duration
        self.self_time[name] += duration - child_time
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            self.child[parent[0], name] += duration

    def children(self, name):
        """Direct-child span totals of `name`, keyed by child name."""
        return {c: t for (p, c), t in self.child.items() if p == name}

    def wrap_problem(self, problem):
        """Copy of a built problem whose oracles and cone projection are timed."""
        cone = copy.copy(problem.cone)
        cone.project_dual = self.wrap("cones.project_dual", problem.cone.project_dual)
        return dataclasses.replace(
            problem,
            smooth_value_grad=self.wrap("model.grad", problem.smooth_value_grad),
            prox_step=self.wrap("model.prox", problem.prox_step),
            cone=cone,
        )

    @contextmanager
    def installed(self):
        """Wrap simalm's functions at the names their callers look up."""
        from simalm import (experiments, inner_apg, learning, model, outer_alm,
                            reference)

        patches = []

        def patch(owner, attr, wrapper):
            patches.append((owner, attr, owner.__dict__[attr]))
            if not hasattr(wrapper, MARK):
                setattr(wrapper, MARK, attr)
            setattr(owner, attr, wrapper)

        def span(owner, attr, name, on_result=None):
            patch(owner, attr, self.wrap(name, owner.__dict__[attr], on_result))

        count = self.counts

        def epochs(trace, _args):
            count["outer_alm.epochs"] += len(trace.opt_records)

        def solve_counter(steps_at, alpha_of):
            def on_result(result, args):
                steps = result[steps_at]
                count["inner_apg.iters"] += steps
                count["inner_apg.budget"] += inner_apg.iteration_budget(
                    args["problem"], args["rho"], args["theta"], alpha_of(args))
            return on_result

        def sweeps(result, _args):
            count["learning.admm_sweeps"] += result[1]["sweeps"]

        def qp_iters(result, _args):
            count["reference.qp_iters"] += result["iterations"]

        fista = inner_apg.fista
        loop = self.wrap("inner_apg.loop", fista)
        fista_signature = inspect.signature(fista)

        def traced_fista(*args, **kwargs):
            bound = fista_signature.bind(*args, **kwargs)
            if bound.arguments.get("stop") is not None:
                bound.arguments["stop"] = self.wrap("inner_apg.cert", bound.arguments["stop"])
            return loop(*bound.args, **bound.kwargs)

        build = self.wrap("experiments.problem_build", experiments.InstanceBundle.problem)

        def traced_problem(bundle, kappa=None):
            return self.wrap_problem(build(bundle, kappa))

        try:
            for owner in (experiments, outer_alm):
                span(owner, "alm_run", "outer_alm.run", epochs)
            span(experiments, "sequential_baseline", "outer_alm.run", epochs)
            span(outer_alm, "apg_solve", "inner_apg.solve",
                 solve_counter(1, lambda a: a["config"].alpha))
            span(outer_alm, "certified_solve", "inner_apg.solve",
                 solve_counter(3, lambda a: a["gap_tol"]))
            span(inner_apg, "grad_nu", "inner_apg.grad")
            patch(inner_apg, "fista", traced_fista)
            span(outer_alm, "dual_update", "al_core.dual_update")
            for attr in ("evaluate_f", "infeasibility", "_theta_errors"):
                span(outer_alm, attr, "outer_alm.report")
            for cls in (learning.AdmmScsLearner, learning.SyntheticLearner,
                        learning.FrozenLearner):
                span(cls, "step", "learning.step")
            span(learning.AdmmScsLearner, "__init__", "learning.init")
            span(experiments, "admm_solve", "learning.admm_solve", sweeps)
            span(learning, "jacobi_eigh", "linalg.eigh")
            for owner in (inner_apg, model, experiments):
                span(owner, "spectral_norm", "linalg.spectral_norm")
            span(reference, "active_set_qp", "reference.qp", qp_iters)
            span(experiments, "generate_instance", "experiments.generate")
            patch(experiments.InstanceBundle, "problem", traced_problem)
            for attr in ("bound_inputs_for_run", "bound_curves_for_trace"):
                span(experiments, attr, "bounds.curves")
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def leftover_wrappers():
    """Names of simalm attributes that still hold a tracing wrapper."""
    import simalm
    from simalm import (al_core, cones, experiments, inner_apg, learning,
                        linalg, model, outer_alm, reference)

    found = []
    for module in (simalm, al_core, cones, experiments, inner_apg, learning,
                   linalg, model, outer_alm, reference):
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{module.__name__}.{n}" for n, v in owners if hasattr(v, MARK)]
    return sorted(set(found))
