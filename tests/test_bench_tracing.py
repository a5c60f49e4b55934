"""The traced benchmark run finds every simalm name it wraps.

bench/tracing.py wraps functions at the names their callers look up; a
renamed or removed name would break ``bench/run.py --trace 1`` without
failing any library test. This guard installs the tracer and checks that
every wrapper is removed again.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapper():
    tracing = load_tracing()
    assert tracing.leftover_wrappers() == []
    with tracing.Tracer().installed():
        assert tracing.leftover_wrappers()
    assert tracing.leftover_wrappers() == []
