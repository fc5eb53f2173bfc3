"""The benchmark's tracer (perfbench/tracer.py) wraps fjump's entry points
by name. Entering it here catches a renamed function or a dropped
``from ... import`` binding at once, without running a workload."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_entry_point():
    tracer = _load_tracer()
    sites = [(owner, attr) for _, owner, attr, _ in tracer.ENTRY_POINTS] + tracer.REBOUND
    originals = [getattr(owner, attr) for owner, attr in sites]
    with tracer.Tracer():
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
