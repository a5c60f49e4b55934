import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "simalm.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def small_config(tmp_path, out_name, **overrides):
    payload = {
        "n": 30, "s": 5, "seed": 3, "epsilon": [0.1],
        "regime": "constant", "specification": "learned",
        "rho_o": 1.0, "beta": 1.05, "c": 1.0,
        "sequential_budgets": [0, 2, 4],
        "output_dir": str(tmp_path / out_name),
    }
    payload.update(overrides)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(payload))
    return path


def test_missing_config_file_is_config_error(tmp_path):
    res = run_cli("table", "--config", str(tmp_path / "nope.json"))
    assert res.returncode == 2


def test_invalid_regime_is_config_error(tmp_path):
    cfg = small_config(tmp_path, "bad", regime="warp")
    res = run_cli("table", "--config", str(cfg))
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_incompatible_penalty_growth_is_config_error(tmp_path):
    # beta so large that beta * tau >= 1 against the measured learning rate
    cfg = small_config(tmp_path, "fast", regime="increasing", beta=2.6)
    res = run_cli("table", "--config", str(cfg))
    assert res.returncode == 2


def test_increasing_regime_without_growth_is_config_error(tmp_path):
    # beta = 1 would silently run the constant regime
    cfg = small_config(tmp_path, "flat", regime="increasing", beta=1.0)
    res = run_cli("table", "--config", str(cfg))
    assert res.returncode == 2
    assert "beta must exceed 1" in res.stderr


@pytest.mark.parametrize("overrides, field", [
    ({"n": 3, "s": 1}, "n >= 4"),
    ({"rho_o": float("nan")}, "rho_o must be finite"),
    ({"n": 30.0}, "n must be an integer"),
    ({"seed": 3.5}, "seed must be an integer"),
    ({"sequential_budgets": [0, -2]}, "must be nonnegative"),
    ({"rho_o": True}, "rho_o must be a number"),
    ({"rho_o": "1.0"}, "rho_o must be a number"),
])
def test_unusable_config_is_config_error_before_any_solve(tmp_path, overrides,
                                                          field):
    # n = 3 draws one sample, and a NaN rho_o reached the first inner solve;
    # a float n or seed died in numpy with exit 1, and a negative budget
    # went unchecked until a seqsim had prepared its bundle; "rho_o": true
    # ran with a penalty of 1.0 and exited 0, and "rho_o": "1.0" exited 2
    # naming no field
    cfg = small_config(tmp_path, "unusable", **overrides)
    res = run_cli("solve", "--config", str(cfg))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and field in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not (tmp_path / "unusable").exists()


def test_repeated_sequential_budget_is_config_error(tmp_path):
    # [2, 2] passed seqsim's two-budget check, ran the baseline twice, wrote
    # a single sequential_2 curve and exited 0
    cfg = small_config(tmp_path, "repeated", sequential_budgets=[2, 2])
    res = run_cli("seqsim", "--config", str(cfg))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and "distinct" in res.stderr
    assert not (tmp_path / "repeated").exists()


@pytest.mark.parametrize("epsilon, field", [
    (0.1, "epsilon must be a sequence"),
    ("0.1", "epsilon must be a sequence"),
    ([0.1, 0.1], "epsilon values must be distinct"),
])
def test_scalar_or_repeated_epsilon_is_config_error(tmp_path, epsilon, field):
    # a scalar exited 2 with "'float' object is not iterable", a string was
    # read one character at a time, and a repeated epsilon ran twice and
    # wrote one trace file
    cfg = small_config(tmp_path, "epsilon", epsilon=epsilon)
    res = run_cli("solve", "--config", str(cfg))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and field in res.stderr
    assert not (tmp_path / "epsilon").exists()


def test_repeated_epsilon_flag_is_config_error(tmp_path):
    res = run_cli("solve", "--epsilon", "0.1", "0.1", "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "epsilon values must be distinct" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bounds", "solve", "table"])
def test_empty_epsilon_is_config_error(tmp_path, command):
    # bounds died with an IndexError traceback and exit 1, solve wrote
    # nothing and table header-only CSVs, both with exit 0
    cfg = small_config(tmp_path, "empty", epsilon=[])
    res = run_cli(command, "--config", str(cfg))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and "epsilon" in res.stderr
    assert not (tmp_path / "empty").exists()


def test_sector_overload_is_config_error(tmp_path):
    # at n = 20, s = 4 every draw's uniform portfolio overloads a sector
    cfg = small_config(tmp_path, "overloaded", n=20, s=4)
    res = run_cli("generate", "--config", str(cfg))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and "n=20, s=4" in res.stderr


def test_negative_seed_is_config_error(tmp_path):
    # a negative seed reached np.random.default_rng at the first draw and
    # printed "expected non-negative integer" without naming the field
    res = run_cli("generate", "--seed", "-3", "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "configuration error" in res.stderr and "seed" in res.stderr
    assert not (tmp_path / "out").exists()


def test_output_dir_under_a_file_is_config_error(tmp_path):
    # the output directory cannot be made below a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    res = run_cli("generate", "--out", str(blocker / "out"))
    assert res.returncode == 2
    assert "configuration error" in res.stderr
    assert "Traceback" not in res.stderr


def test_generate_writes_instance_files(tmp_path):
    cfg = small_config(tmp_path, "gen")
    res = run_cli("generate", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    out = tmp_path / "gen"
    for name in ("instance.json", "scs.json", "sigma_star.npy",
                 "learner_errors.npy", "meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text())
    assert 0.0 < meta["tau_hat"] < 1.0
    assert "tau_cert" not in meta
    assert meta["kkt_residual"] <= 1e-9
    # one learner error per ADMM sweep, at admm_solve's default tolerance
    assert meta["admm_sweeps"] == np.load(out / "learner_errors.npy").size
    assert meta["generator"]["admm_tol"] == 1e-9


def test_solve_writes_trace(tmp_path):
    cfg = small_config(tmp_path, "solve")
    res = run_cli("solve", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    trace = tmp_path / "solve" / "trace_constant_learned_eps0.1.csv"
    assert trace.exists()
    header = trace.read_text().splitlines()[0]
    assert header.startswith("k,rho_k,alpha_k,inner_iters,f_rel_subopt,infeas")
    assert "v_k_bound" in header


def test_table_subcommand_and_flags(tmp_path):
    cfg = small_config(tmp_path, "table")
    res = run_cli("table", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    out = tmp_path / "table"
    assert (out / "table_constant_learned.csv").exists()
    assert (out / "table_constant_learned_timing.csv").exists()
    # flag overrides: different spec goes to a different file
    res = run_cli("table", "--config", str(cfg), "--spec", "known",
                  "--epsilon", "0.2")
    assert res.returncode == 0, res.stderr
    assert (out / "table_constant_known.csv").exists()


def test_seqsim_subcommand(tmp_path):
    cfg = small_config(tmp_path, "seqsim")
    res = run_cli("seqsim", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "seqsim" / "seqsim.csv").exists()


def test_bounds_subcommand(tmp_path):
    cfg = small_config(tmp_path, "bounds")
    res = run_cli("bounds", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    out = tmp_path / "bounds"
    assert (out / "bound_constants_constant.csv").exists()
    assert (out / "bound_curves_constant.csv").exists()


def test_table_byte_identical_across_runs(tmp_path):
    cfg1 = small_config(tmp_path, "det1")
    cfg2 = small_config(tmp_path, "det2")
    res1 = run_cli("table", "--config", str(cfg1))
    res2 = run_cli("table", "--config", str(cfg2))
    assert res1.returncode == 0 and res2.returncode == 0
    t1 = (tmp_path / "det1" / "table_constant_learned.csv").read_bytes()
    t2 = (tmp_path / "det2" / "table_constant_learned.csv").read_bytes()
    assert t1 == t2


def csv_outputs(out):
    """CSV files in out by name; trace CSVs without their wall-clock columns."""
    outputs = {}
    for path in sorted(out.glob("*.csv")):
        rows = list(csv.reader(path.open()))
        keep = [i for i, name in enumerate(rows[0])
                if name not in ("cpu_learn_s", "cpu_opt_s")]
        outputs[path.name] = [[row[i] for i in keep] for row in rows]
    return outputs


@pytest.fixture(scope="module")
def clean_outputs(tmp_path_factory):
    from simalm.cli import main

    tmp = tmp_path_factory.mktemp("clean")
    cfg = small_config(tmp, "clean")
    for command in ("solve", "bounds"):
        assert main([command, "--config", str(cfg)]) == 0
    return csv_outputs(tmp / "clean")


@pytest.mark.parametrize("prior", ["corrupt_meta", "generated_seed_4"])
def test_files_in_output_dir_do_not_affect_a_run(tmp_path, clean_outputs, prior):
    from simalm.cli import main

    cfg = small_config(tmp_path, "used")
    out = tmp_path / "used"
    if prior == "corrupt_meta":
        out.mkdir()
        (out / "meta.json").write_text('{"instance_key": {"n": 30,')
    else:
        assert main(["generate", "--config", str(cfg), "--seed", "4"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    for command in ("solve", "bounds"):
        assert main([command, "--config", str(cfg)]) == 0
    assert {name: (out / name).read_bytes() for name in before} == before
    assert csv_outputs(out) == clean_outputs
