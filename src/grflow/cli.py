"""Command line driver: config ingestion, run orchestration, result emission.

One JSON config schema serves every mode; unknown keys are rejected.  Output
files embed the package version and a SHA-256 of the canonical config, so
identical config + seed reproduce byte-identical artifacts apart from that
versioned header line.

Exit codes: 0 success, 2 validation failure (bad config or inputs, failed
checks), 3 numerical failure (aborted runs).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import algebra as alg
from . import checks as checks_mod
from . import exact_torus as et
from . import flow_ode as fl
from . import metric as met
from .connection import Divergence
from .curvature import curvature_report
from .errors import ConfigParseError, GrfError, NumericalError, ValidationError

TRACE_COLUMN_DOC = """\
flow trace columns:
  t                    time of the accepted step
  GR                   scalar curvature (closed form, divergence zero)
  normRc2              |GRc|^2_G = minus the full eta-contraction of the Ricci
  log_sigma            log of the half-density
  S                    Einstein-Hilbert value GR * sigma^2
  lambda               unit-mass infimum of S (equals GR over a point)
  involution_residual  max-abs of G^2 - Id after retraction
  soliton_residual     Frobenius norm of the Ricci endomorphism in an adapted frame

torus trace columns:
  t           time
  minR        minimum over nodes of the generalized scalar field
  meanR       mean over nodes of the generalized scalar field
  lambda      lowest eigenvalue of -4 Lap_g + (R - |H|^2/12) under unit mass
  spd_margin  smallest eigenvalue of g over all nodes
  g_norm, B_norm, phi_norm   max-abs field magnitudes
"""

_ALGEBRA_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"enum": ["abelian", "so3", "cotangent_double", "complex_double_su2"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "p": {"type": "integer", "minimum": 0},
                "scale": {"type": "number"},
                "h": {},
            },
        },
        "eta": {"type": "array"},
        "c": {"type": "array"},
    },
}

_METRIC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "matrix": {"type": "array"},
        "v_plus": {"type": "array"},
        "graph": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"g": {"type": "array"}, "B": {"type": "array"}},
            "required": ["g"],
        },
        "identity": {"type": "boolean"},
        "random_positive_seed": {"type": "integer"},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mode": {"enum": ["validate", "curvature", "flow", "torus", "check", "sweep"]},
        "seed": {"type": "integer"},
        "out": {"type": "string"},
        "algebra": _ALGEBRA_SCHEMA,
        "metric": _METRIC_SCHEMA,
        "divergence": {"type": "array", "items": {"type": "number"}},
        "flow": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "integrator": {"enum": ["rk4"]},
                "retract_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_steps": {"type": "integer", "minimum": 1},
                "log_sigma0": {"type": "number"},
            },
        },
        "torus": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d": {"enum": [2, 3]},
                "N": {"type": "integer", "minimum": 8},
                "L": {"type": "number", "exclusiveMinimum": 0},
                "k": {"type": "number"},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "cfl": {"type": "number", "exclusiveMinimum": 0},
                "init": {"enum": ["flat", "perturbed"]},
                "amplitude": {"type": "number"},
                "kmax": {"type": "integer", "minimum": 1},
                "compute_lambda": {"type": "boolean"},
                "lambda_every": {"type": "integer", "minimum": 1},
                "dump_fields": {"type": "boolean"},
            },
        },
        "check": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scope": {"enum": ["algebraic", "torus", "all"]},
                "instances": {"type": "integer", "minimum": 1},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "axes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {"path": {"type": "string"}, "values": {"type": "array"}},
                        "required": ["path", "values"],
                    },
                }
            },
            "required": ["axes"],
        },
    },
}


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config JSON invalid at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    validate_config(cfg)
    return cfg


@functools.cache
def _config_validator():
    """The validator of ``CONFIG_SCHEMA``, built once per process; the test suite checks the schema itself."""
    from jsonschema import Draft202012Validator

    return Draft202012Validator(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> None:
    from jsonschema.exceptions import best_match

    exc = best_match(_config_validator().iter_errors(cfg))  # the error jsonschema.validate raises
    if exc is not None:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigParseError(f"config field '{loc}': {exc.message}") from exc
    flat = not np.all(np.isfinite(_collect_numbers(cfg)))
    if flat:
        raise ConfigParseError("config contains non-finite numbers")


def _collect_numbers(obj, acc=None):
    if acc is None:
        acc = []
    if isinstance(obj, bool):
        return acc
    if isinstance(obj, (int, float)):
        acc.append(float(obj))
    elif isinstance(obj, dict):
        for v in obj.values():
            _collect_numbers(v, acc)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _collect_numbers(v, acc)
    return acc


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _float_array(value, field: str) -> np.ndarray:
    """A config array as floats; a ragged or non-numeric one is a config error."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"config field '{field}' is not a numeric array: {exc}") from exc


def build_algebra(cfg: dict) -> alg.QuadraticLieAlgebra:
    section = cfg.get("algebra")
    if section is None:
        raise ConfigParseError("config requires an 'algebra' section for this mode")
    if "preset" in section:
        return alg.preset_algebra(section["preset"], **section.get("params", {}))
    if "eta" in section and "c" in section:
        return alg.QuadraticLieAlgebra(
            _float_array(section["eta"], "algebra/eta"), _float_array(section["c"], "algebra/c")
        )
    raise ConfigParseError("algebra section needs either a preset or explicit eta and c arrays")


def build_metric(cfg: dict, a: alg.QuadraticLieAlgebra) -> met.GeneralizedPseudometric:
    section = cfg.get("metric")
    if section is None:
        raise ConfigParseError("config requires a 'metric' section for this mode")
    if section.get("identity"):
        return met.GeneralizedPseudometric.from_matrix(a, np.eye(a.n))
    if "matrix" in section:
        return met.GeneralizedPseudometric.from_matrix(a, _float_array(section["matrix"], "metric/matrix"))
    if "v_plus" in section:
        return met.metric_from_subspace(a, _float_array(section["v_plus"], "metric/v_plus").T)
    if "graph" in section:
        g = _float_array(section["graph"]["g"], "metric/graph/g")
        b = section["graph"].get("B")
        return met.metric_from_graph(a, g, None if b is None else _float_array(b, "metric/graph/B"))
    if "random_positive_seed" in section:
        return met.random_strictly_positive_metric(a, int(section["random_positive_seed"]))
    raise ConfigParseError("metric section needs one of: matrix, v_plus, graph, identity, random_positive_seed")


def _header_line(cfg: dict, seed: int) -> str:
    return f"# grf {__version__} config_sha256={config_hash(cfg)} seed={seed}"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, cfg: dict, seed: int, body: dict) -> None:
    doc = {"version": __version__, "config_sha256": config_hash(cfg), "seed": seed}
    doc.update(body)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- mode handlers ---------------------------------------------------------------


def mode_validate(cfg, seed, out_dir):
    a = build_algebra(cfg)
    rep = alg.validate_algebra(a)
    body = {"algebra": rep.as_dict()}
    if "metric" in cfg:
        section = cfg["metric"]
        # a raw matrix is reported on as given: building it would raise on the very input to report
        raw = "matrix" in section and not section.get("identity")
        g = _float_array(section["matrix"], "metric/matrix") if raw else build_metric(cfg, a).G
        gm_rep = met.validate_metric(a, g)
        body["metric"] = gm_rep.as_dict()
        ok = rep.passed and gm_rep.pseudometric
    else:
        ok = rep.passed
    write_json(out_dir / "validate.json", cfg, seed, body)
    print(f"validate: {'pass' if ok else 'FAIL'} "
          f"(antisymmetry {rep.antisymmetry_residual:.2e}, jacobi {rep.jacobi_residual:.2e})")
    return 0 if ok else 2


def mode_curvature(cfg, seed, out_dir):
    a = build_algebra(cfg)
    gm = build_metric(cfg, a)
    d = None
    if "divergence" in cfg:
        d = Divergence(np.asarray(cfg["divergence"], dtype=float))
    rep = curvature_report(a, gm.G, d)
    write_json(out_dir / "curvature.json", cfg, seed, {"report": rep.as_dict()})
    print(f"curvature: GR = {rep.scalar!r}, |GRc|^2_G = {rep.norm_ricci_sq!r}, "
          f"route residuals {rep.route_residual_ricci:.2e}/{rep.route_residual_scalar:.2e}")
    return 0


def _flow_params(cfg) -> fl.FlowParams:
    f = dict(cfg.get("flow", {}))
    f.pop("log_sigma0", None)
    f.pop("integrator", None)  # RK4 is the only integrator
    return fl.FlowParams(**f)


def mode_flow(cfg, seed, out_dir):
    a = build_algebra(cfg)
    gm = build_metric(cfg, a)
    params = _flow_params(cfg)
    state = fl.FlowState(0.0, gm.G, float(cfg.get("flow", {}).get("log_sigma0", 0.0)))
    return _run_to_csv("flow", lambda: fl.run_flow(a, state, params), fl.FlowTrace.COLUMNS, cfg, seed, out_dir)[1]


def _run_to_csv(name, run, columns, cfg, seed, out_dir):
    """Run, write ``<name>_trace.csv`` and return (trace, exit code): 0, or 3 with ``<name>_abort.json``
    when the run did not reach T.

    A runner that raises attaches its partial trace with the abort note set; an error without one
    propagates.
    """
    try:
        trace = run()
    except GrfError as exc:
        trace = getattr(exc, "trace", None)
        if trace is None:
            raise
    write_csv(out_dir / f"{name}_trace.csv", _header_line(cfg, seed), columns, trace.rows())
    if trace.aborted:
        write_json(out_dir / f"{name}_abort.json", cfg, seed, {"aborted": trace.aborted, "last_t": trace.t[-1]})
        print(f"{name}: aborted ({trace.aborted}) after {len(trace.t)} records")
        return trace, 3
    print(f"{name}: {len(trace.t)} records to t = {trace.t[-1]!r}")
    return trace, 0


def _torus_state_params(cfg, seed):
    t = cfg.get("torus", {})
    geom = et.TorusGeometry(int(t.get("d", 3)), int(t.get("N", 16)), float(t.get("L", 2 * np.pi)))
    k = float(t.get("k", 0.0))
    if t.get("init", "flat") == "perturbed":
        state = et.perturbed_state(geom, seed, float(t.get("amplitude", 0.05)), k, int(t.get("kmax", 2)))
    else:
        state = et.flat_state(geom, k)
    params = et.TorusParams(
        T=float(t.get("T", 1.0)),
        cfl=float(t.get("cfl", 0.2)),
        compute_lambda=bool(t.get("compute_lambda", True)),
        lambda_every=int(t.get("lambda_every", 1)),
    )
    return state, params


def mode_torus(cfg, seed, out_dir):
    state, params = _torus_state_params(cfg, seed)
    trace, code = _run_to_csv("torus", lambda: et.run_torus_flow(state, params), et.TorusTrace.COLUMNS, cfg,
                              seed, out_dir)
    if cfg.get("torus", {}).get("dump_fields") and trace.final_state is not None:
        et.write_field_dump(trace.final_state, out_dir / "final_fields.grfd")
    return code


def mode_check(cfg, seed, out_dir):
    scope = cfg.get("check", {}).get("scope", "all")
    instances = int(cfg.get("check", {}).get("instances", 100))
    results = []
    if scope in ("algebraic", "all"):
        results.extend(checks_mod.run_algebraic_checks(seed=seed, instances=instances))
    if scope in ("torus", "all"):
        results.extend(checks_mod.run_torus_checks(seed=seed))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:42s} worst={r.worst!r} tol={r.tol:g} {r.note}")
    n_fail = sum(not r.passed for r in results)
    write_json(out_dir / "check_report.json", cfg, seed,
               {"scope": scope, "failures": n_fail, "checks": [r.as_dict() for r in results]})
    print(f"check: {len(results) - n_fail}/{len(results)} passed")
    return 0 if n_fail == 0 else 3


def _set_by_path(obj, path: str, value):
    """Set ``value`` at a dotted path, creating missing objects; ConfigParseError names a path that runs
    through a scalar, a missing list index or a non-integer list key."""
    *head, last = path.split(".")
    cur = obj
    try:
        for key in head:
            cur = cur[int(key)] if isinstance(cur, list) else cur.setdefault(key, {})
        if isinstance(cur, list):
            cur[int(last)] = value
        else:
            cur[last] = value
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"sweep path '{path}' cannot be set: {exc}") from None


def mode_sweep(cfg, seed, out_dir):
    axes = cfg["sweep"]["axes"]
    grids = [axis["values"] for axis in axes]
    cells = [[]]
    for values in grids:
        cells = [prior + [v] for prior in cells for v in values]
    manifest = []
    any_failed = False
    for idx, combo in enumerate(cells):
        cell_cfg = json.loads(json.dumps({k: v for k, v in cfg.items() if k not in ("sweep", "mode")}))
        cell_dir = out_dir / f"cell_{idx:03d}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        entry = {"cell": idx, "params": {axis["path"]: v for axis, v in zip(axes, combo)}}
        try:
            for axis, value in zip(axes, combo):
                _set_by_path(cell_cfg, axis["path"], value)
            validate_config(cell_cfg)
            code = mode_flow(cell_cfg, seed, cell_dir)
            entry["status"] = "ok" if code == 0 else "aborted"
            any_failed = any_failed or code != 0
        except GrfError as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
            any_failed = True
        manifest.append(entry)
    write_json(out_dir / "index.json", cfg, seed, {"cells": manifest})
    print(f"sweep: {len(cells)} cells, {sum(1 for m in manifest if m['status'] != 'ok')} failed")
    return 3 if any_failed else 0


MODES = {
    "validate": mode_validate,
    "curvature": mode_curvature,
    "flow": mode_flow,
    "torus": mode_torus,
    "check": mode_check,
    "sweep": mode_sweep,
}


def run_config(path, mode=None, seed=None, out=None) -> int:
    cfg = load_config(path)
    cfg_mode = cfg.get("mode")
    if mode is not None and cfg_mode is not None and mode != cfg_mode:
        raise ConfigParseError(f"config mode '{cfg_mode}' does not match subcommand '{mode}'")
    mode = mode or cfg_mode
    if mode is None:
        raise ConfigParseError("no mode given (config 'mode' field or CLI subcommand)")
    eff_seed = seed if seed is not None else int(cfg.get("seed", 0))
    out_dir = Path(out if out is not None else cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return MODES[mode](cfg, eff_seed, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grf",
        description="generalized Ricci flow runs on quadratic Lie algebras and flat tori",
        epilog=TRACE_COLUMN_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in MODES:
        p = sub.add_parser(name, help=f"run mode '{name}'")
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: config 'out' or cwd)")
    args = parser.parse_args(argv)
    try:
        return run_config(args.config, mode=args.mode, seed=args.seed, out=args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
