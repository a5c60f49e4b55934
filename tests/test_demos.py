import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_script(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # each demo runs as a script in a fresh directory (some write runs/ there)
    _run_script(demo, tmp_path)


def test_readme_library_sketch_runs(tmp_path):
    # the README's python block runs as written, so an API change shows up here
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    sketch = tmp_path / "sketch.py"
    sketch.write_text(blocks[0])
    _run_script(sketch, tmp_path)
    assert (tmp_path / "trace.csv").is_file()
