"""Spans around the public functions of each grflow module, recorded from outside.

A wrapper must be installed where a name is *looked up*, not only where it is
defined, or calls slip past it:

* ``from .curvature import ricci_closed_form`` gives ``flow_ode`` its own
  binding, so patching ``curvature.ricci_closed_form`` alone would miss every
  call the flow makes.  ``install`` therefore rebinds every attribute of every
  loaded ``grflow`` module that is the original function object.
* ``checks`` calls ``con.levi_civita`` through the module, which the rebinding
  of ``connection`` covers, while ``curvature`` calls its own imported
  ``levi_civita``, which the same rebinding covers separately.
* ``run_torus_flow(..., rhs=torus_rhs)`` froze the original ``torus_rhs`` as a
  default when it was defined, and no module attribute reaches a default.
  ``install`` therefore swaps the traced ``torus_rhs`` into the original
  ``run_torus_flow.__defaults__``, and ``uninstall`` swaps it back.

Spans stay in memory with their parent span and are written out when the run
ends.  A name that no longer exists is reported as missing rather than raised,
so a refactor of grflow still gets its end-to-end numbers; ``selftest.py``
fails on it instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

# layer (grflow module) -> traced names; "Class.method" names a method
LAYERS = {
    "algebra": ("preset_algebra", "change_basis"),
    "metric": ("validate_metric", "involution_residual", "mixed_norm_sq"),
    "connection": ("levi_civita", "tau_prime", "kappa_prime"),
    "curvature": ("ricci_closed_form", "scalar_closed_form", "riemann", "ricci", "curvature_report",
                  "bianchi_residual"),
    "variation": ("scalar_variation", "ricci_variation", "connection_variation", "eh_gradient_check"),
    # _rk4_increment is private, but it is the only place an attempted step is visible
    "flow_ode": ("run_flow", "flow_step", "_rk4_increment", "flow_rhs", "involution_retract"),
    "exact_torus": ("run_torus_flow", "torus_rhs", "christoffel", "ricci_tensor", "hessian",
                    "laplace_beltrami", "flux_H", "deriv", "generalized_scalar_field", "degenerate_nodes",
                    "lambda_torus", "TorusFieldState.spd_margin"),
    "checks": ("run_flow_checks",),
    "cli": ("load_config", "write_csv", "write_json"),
}


def _deriv_bytes(args, kwargs, result):
    # computed, not measured: one read of the input and one write of the output
    f = kwargs.get("f", args[1] if len(args) > 1 else None)
    return {"bytes_computed": f.nbytes + result.nbytes}


def _rhs_nodes(args, kwargs, result):
    state = kwargs.get("state", args[0] if args else None)
    return {"nodes": int(np.prod(state.geom.shape))}


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# extra per-call counters, keyed by the traced name
COUNTERS = {
    "exact_torus.deriv": _deriv_bytes,
    "exact_torus.torus_rhs": _rhs_nodes,
    "cli.write_csv": _written_bytes,
    "cli.write_json": _written_bytes,
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.pass_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.current_pass = -1
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self.name_index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.pass_id.append(self.current_pass)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if count is not None:
                acc = self.counters.setdefault(name, {})
                for key, value in count(args, kwargs, result).items():
                    acc[key] = acc.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in LAYERS at each place grflow looks it up."""
        layers = {layer: importlib.import_module(f"grflow.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "grflow" or n.startswith("grflow.")]
        traced = {}
        for layer, names in LAYERS.items():
            for name in names:
                owner, attr = layers[layer], name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(owner, cls, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                key = f"{layer}.{name}"
                traced[key] = self.wrap(key, fn)
                if inspect.isclass(owner):
                    self._set(owner, attr, traced[key])
                    continue
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, binding, traced[key])
        run, rhs = traced.get("exact_torus.run_torus_flow"), traced.get("exact_torus.torus_rhs")
        if run is not None and rhs is not None:
            original = run.__wrapped__
            self._set(original, "__defaults__",
                      tuple(rhs if d is rhs.__wrapped__ else d for d in original.__defaults__))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------------

    def arrays(self):
        """(name id, duration, self time) per span; self time excludes child spans."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return nid, dur, dur - child

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span named ``ancestor`` above them."""
        aid = self.name_index.get(ancestor, -1)
        mask = np.zeros(len(self.start), dtype=bool)
        for i, p in enumerate(self.parent):  # parents precede their children
            if p >= 0:
                mask[i] = self.name_id[p] == aid or mask[p]
        return mask

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,pass,name,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.pass_id[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def layer_metrics(tracer: Tracer, untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, normalised per traced pass.

    Returns ``(metrics, functions)``: ``metrics`` maps a metric name to its
    value, ``functions`` holds calls/total_s/self_s for every traced name.
    """
    n_pass = max(len(traced), 1)
    nid, dur, self_dur = tracer.arrays()

    def spans(key, ancestor=None):
        sel = nid == tracer.name_index.get(key, -1)
        return sel & tracer.under(ancestor) if ancestor else sel

    def calls(key, ancestor=None):
        return int(spans(key, ancestor).sum())

    def counter(key, field):
        return tracer.counters.get(key, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    functions, metrics = {}, {}
    for layer, names in LAYERS.items():
        metrics[f"{layer}.self_s"] = 0.0
        for name in names:
            key = f"{layer}.{name}"
            sel = spans(key)
            row = {"calls": int(sel.sum()) / n_pass, "total_s": float(dur[sel].sum()) / n_pass,
                   "self_s": float(self_dur[sel].sum()) / n_pass}
            functions[key] = row
            metrics[f"{layer}.self_s"] += row["self_s"]
            metrics.update({f"{key}.{field}": value for field, value in row.items()})

    # accepted steps come from the traces the passes wrote
    steps = sum(p["steps"] for p in traced)
    flow_steps = steps if calls("flow_ode.run_flow") else 0
    torus_steps = steps if calls("exact_torus.run_torus_flow") else 0
    step_ms = 1e3 * dur[spans("flow_ode.flow_step")]
    walls = [p["wall_s"] for p in traced]
    metrics.update({
        "flow_ode.rhs_per_step": ratio(calls("curvature.ricci_closed_form", "flow_ode.run_flow"), flow_steps),
        "flow_ode.accepted_ratio": ratio(calls("flow_ode.flow_step"), calls("flow_ode._rk4_increment")),
        "flow_ode.step_ms_p50": float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0,
        "flow_ode.step_ms_p99": float(np.percentile(step_ms, 99)) if len(step_ms) >= 1000 else 0.0,
        "exact_torus.accepted_steps": torus_steps / n_pass,
        "exact_torus.christoffel.per_step": ratio(
            calls("exact_torus.christoffel", "exact_torus.run_torus_flow"), torus_steps),
        "exact_torus.positivity_checks.per_step": ratio(
            calls("exact_torus.TorusFieldState.spd_margin", "exact_torus.run_torus_flow"), torus_steps),
        "exact_torus.deriv.bytes_computed": counter("exact_torus.deriv", "bytes_computed") / n_pass,
        "exact_torus.torus_rhs.node_rate": ratio(counter("exact_torus.torus_rhs", "nodes"),
                                                 functions["exact_torus.torus_rhs"]["total_s"] * n_pass),
        "exact_torus.lambda_torus.operator_applications": calls(
            "exact_torus.laplace_beltrami", "exact_torus.lambda_torus") / n_pass,
        "exact_torus.lambda_torus.share": 100.0 * ratio(functions["exact_torus.lambda_torus"]["total_s"] * n_pass,
                                                        sum(walls)),
        "cli.write_csv.bytes": counter("cli.write_csv", "bytes") / n_pass,
        "cli.write_json.bytes": counter("cli.write_json", "bytes") / n_pass,
        "tracing.passes": len(traced),
        "tracing.overhead_s": float(np.median(walls) - np.median([p["wall_s"] for p in untraced])),
    })
    return metrics, functions
