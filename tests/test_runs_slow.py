"""Slow lane for full runs beyond the desk size.

The regime x specification grid at eps = 1e-3 on instances of other sizes,
seed 12. Deselected by default; run with `pytest -m slow`.
"""

import pytest

from simalm.experiments import ExperimentConfig, prepare_bundle, run_solve

from conftest import overlay_margin

pytestmark = pytest.mark.slow

TIMING_COLUMNS = ("cpu_learn_s", "cpu_opt_s")


def _csv_without_timing(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("n, s", [(50, 5), (200, 20), (400, 40)])
def test_grid_converges_and_repeats_its_traces(n, s, tmp_path):
    # every run converges under its overlay curves, and its trace CSV,
    # timing columns aside, is the same from a cold bundle, from the same
    # bundle warm, and from a bundle prepared again
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
                path = tmp_path / f"{regime}_{spec}_{tag}.csv"
                trace.to_csv(path, bound_curves=curves)
                rows[tag] = _csv_without_timing(path)
            assert rows["cold"] == rows["warm"] == rows["again"], (regime, spec)
