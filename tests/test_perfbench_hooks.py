"""The benchmark's tracer still finds every name it wraps, so a refactor that breaks its hooks fails here."""

import importlib.util
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from grflow import algebra as alg
from grflow import checks
from grflow import cli
from grflow import exact_torus as et
from grflow import flow_ode as fl
from grflow import metric as met

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _rhs_default():
    return inspect.signature(et.run_torus_flow).parameters["rhs"].default


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def _within(tracer, span, name):
    """Whether a span named ``name`` encloses span ``span``."""
    while span >= 0:
        span = tracer.parent[span]
        if span >= 0 and tracer.names[tracer.name_id[span]] == name:
            return True
    return False


def test_tracer_installs_every_hook_and_uninstalls():
    tracing = _tracing()
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


def test_every_traced_torus_and_flow_name_is_called():
    # a wrapper that nothing calls leaves its per-layer metric at 0: one 8^3 torus step with lambda and
    # three flow steps must reach every traced name of exact_torus and flow_ode
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tr = et.run_torus_flow(et.perturbed_state(et.TorusGeometry(3, 8), 1, amplitude=0.05, k=0.5),
                               et.TorusParams(T=1e-3))
        su2_double = alg.cotangent_double(alg.su2_structure())
        g = met.metric_from_graph(su2_double, np.diag([1.0, 2.0, 3.0])).G
        flow = fl.run_flow(su2_double, fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=1e-3, T=3e-3))
    finally:
        tracer.uninstall()
    assert tr.aborted is None and len(tr.rows) == 2 and flow.aborted is None and len(flow.rows) == 4
    calls = Counter(tracer.names[i] for i in tracer.name_id)
    for layer in ("exact_torus", "flow_ode"):
        assert [name for name in tracing.LAYERS[layer] if not calls[f"{layer}.{name}"]] == [], layer
    # flow_ode.rhs_per_step counts ricci_closed_form: each right side calls both closed forms once
    rhs = calls["flow_ode.flow_rhs"]
    assert rhs and calls["curvature.ricci_closed_form"] == calls["curvature.scalar_closed_form"] == rhs
    # each accepted step forms G^2 - Id once, in its retraction (at dt 1e-3 an RK4 increment stays within
    # retract_tol, so it does not iterate), and the trace row reads that residual; besides the steps, run_flow
    # forms it twice: validating the initial G and recording it
    steps = len(flow.rows) - 1
    assert calls["flow_ode.flow_step"] == calls["flow_ode.involution_retract"] == steps
    residuals = [i for i, nid in enumerate(tracer.name_id) if tracer.names[nid] == "metric.involution_residual"]
    assert sum(_within(tracer, i, "flow_ode.involution_retract") for i in residuals) == steps
    assert sum(_within(tracer, i, "flow_ode.run_flow") for i in residuals) == steps + 2


def test_every_traced_algebraic_name_is_called(tmp_path):
    # the oracle pass is what fills the per-layer metrics of metric, connection, curvature and variation:
    # a signature change that leaves one of their traced names uncalled would read 0 there
    tracing = _tracing()
    oracles = _load("oracles")
    oracles.INSTANCES, oracles.PATHS = 8, 2
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert oracles.run_oracles(0, tmp_path) == 0
    finally:
        tracer.uninstall()
    calls = Counter(tracer.names[i] for i in tracer.name_id)
    for layer in ("metric", "connection", "curvature", "variation"):
        assert [name for name in tracing.LAYERS[layer] if not calls[f"{layer}.{name}"]] == [], layer


def test_oracle_workload_passes_its_gate(tmp_path):
    # oracles.py calls the algebraic public API directly (.data, .d, Divergence(...), tau_prime(a, g, t),
    # cov_d(M, t, variance)); one small pass of it must run and meet every bound its gate reads
    oracles = _load("oracles")
    oracles.INSTANCES, oracles.PATHS = 8, 2
    assert oracles.run_oracles(0, tmp_path) == 0
    doc = json.loads((tmp_path / "oracles.json").read_text())
    assert set(doc["worst"]) == set(oracles.TOLS)
    assert [name for name, tol in oracles.TOLS.items() if not doc["worst"][name] <= tol] == []
    lo, hi = oracles.FD_BAND
    ratios = doc[oracles.FD_RATIO]
    assert ratios and all(lo <= r <= hi for r in ratios), ratios
    assert doc["flow_checks"] and [c["name"] for c in doc["flow_checks"] if not c["passed"]] == []


def test_oracle_tolerances_are_those_of_the_check_tables():
    # perfbench gates the oracle residuals with its own copy of the check suite's tolerances and FD band
    oracles = _load("oracles")
    tables = {**checks.PRESET_CHECKS, **checks.INSTANCE_CHECKS, **checks.PATH_CHECKS}
    assert {name: tables[name][0] for name in oracles.TOLS} == oracles.TOLS
    assert checks.PATH_CHECKS[oracles.FD_RATIO][0] == oracles.FD_BAND


def test_torus_workloads_pass_their_gates(tmp_path, monkeypatch):
    # the flux16 and pert24 configs, one input each, run through grf as a benchmark pass runs them, and meet the
    # gates that decide whether a pass counts: a change to the torus layer that breaks them fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for workloads.py's ``import oracles``, as perfbench/run.py has it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks its own module up there
    spec.loader.exec_module(workloads)
    for name, config, gate in (("flux", workloads.FLUX_CONFIG, workloads.flux_gate),
                               ("pert", workloads.PERT_CONFIG, workloads.pert_gate)):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(config))
        assert cli.main(["torus", "--config", str(path), "--seed", "3", "--out", str(out)]) == 0
        outcome = gate(out)
        assert outcome.ok, (name, outcome)
