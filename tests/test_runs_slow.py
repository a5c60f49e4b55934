"""Slow lane for full runs beyond the desk size.

The regime x specification grid at eps = 1e-3 on instances of other sizes,
seed 12, with every learned epoch checked against the learner's certified
rate. Deselected by default; run with `pytest -m slow`.
"""

import pytest

from simalm.experiments import ExperimentConfig, prepare_bundle, run_solve

from conftest import csv_without_timing, overlay_margin, rate_violations

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("n, s", [(50, 5), (200, 20), (400, 40)])
def test_grid_converges_and_repeats_its_traces(n, s, tmp_path):
    # every run converges under its overlay curves, every learned epoch
    # meets the rate tau_hat the bundle certifies, and the trace CSV, timing
    # columns aside, is the same from a cold bundle, from the same bundle
    # warm, and from a bundle prepared again
    config = ExperimentConfig(n=n, s=s, seed=12)
    first = prepare_bundle(config)
    bundles = {"cold": first, "warm": first, "again": prepare_bundle(config)}
    for regime in ("constant", "increasing"):
        for spec in ("known", "learned"):
            rows = {}
            for tag, bundle in bundles.items():
                trace, curves = run_solve(config, 1e-3, bundle,
                                          specification=spec, regime=regime)
                assert trace.converged, (regime, spec, tag)
                assert overlay_margin(trace, curves,
                                      bundle.reference.f_value) >= 1.0, (regime, spec, tag)
                if spec == "learned":
                    assert rate_violations(
                        trace.column("learner_steps"), trace.column("theta_err"),
                        bundle.tau_hat, bundle.admm_sweeps) == [], (regime, tag)
                path = tmp_path / f"{regime}_{spec}_{tag}.csv"
                trace.to_csv(path, bound_curves=curves)
                rows[tag] = csv_without_timing(path)
            assert rows["cold"] == rows["warm"] == rows["again"], (regime, spec)
