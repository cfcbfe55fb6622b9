"""The benchmark's tracer (perfbench/tracing.py) wraps package functions at
the module or class attribute their caller looks up, so renaming or dropping
one of those names breaks the benchmark.  perfbench's own tests are outside
this suite's test paths; this test keeps the contract inside it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores_every_patch():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()  # an AttributeError here names the missing attribute
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"
