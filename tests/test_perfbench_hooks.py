"""The benchmark's tracer still finds every name it wraps, so a refactor that breaks its hooks fails here."""

import importlib.util
import inspect
from pathlib import Path

from grflow import exact_torus as et

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _rhs_default():
    return inspect.signature(et.run_torus_flow).parameters["rhs"].default


def test_tracer_installs_every_hook_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    run, rhs = et.run_torus_flow, et.torus_rhs
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert et.torus_rhs is not rhs and et.torus_rhs.__wrapped__ is rhs
        # a default is frozen at definition: the tracer swaps the traced torus_rhs into it
        assert _rhs_default() is et.torus_rhs
    finally:
        tracer.uninstall()
    assert et.run_torus_flow is run and et.torus_rhs is rhs and _rhs_default() is rhs
