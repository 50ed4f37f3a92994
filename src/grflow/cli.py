"""Command line driver: config ingestion, run orchestration, result emission.

One JSON config schema serves every mode; unknown keys, and sections the mode
does not read, are rejected.  Output
files embed the package version and a SHA-256 of the canonical config, so
identical config + seed reproduce byte-identical artifacts apart from that
versioned header line.  JSON artifacts are strict JSON: a non-finite float
(a check's worst of inf, say) is written as the string "Infinity",
"-Infinity" or "NaN", which ``float()`` reads back; CSV traces keep
``repr(float)``, so inf, -inf and nan there.

Exit codes: 0 success, 2 validation failure (bad config or inputs, failed
checks), 3 numerical failure (aborted runs).  A flow or torus run hands back
its trace whatever stops it after its first record; an ``aborted`` note makes exit 3.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict
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
  soliton_residual     sqrt(normRc2) for strictly positive G: the Frobenius norm of the
                       Ricci endomorphism in an adapted frame, 0 exactly at solitons.
                       nan otherwise: there eta is indefinite on V+ or V- and every
                       such norm depends on the frame

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
                "n": {"type": "integer", "minimum": 1, "maximum": 16},  # the desk scale the package targets
                "p": {"type": "integer", "minimum": 0},
                "scale": {"type": "number"},
                "h": {},
            },
        },
        "eta": {"type": "array"},
        "c": {"type": "array"},
    },
    "oneOf": [{"required": ["preset"]}, {"required": ["eta", "c"]}],
    "dependentRequired": {"params": ["preset"], "eta": ["c"], "c": ["eta"]},
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
        "identity": {"const": True},
        "random_positive_seed": {"type": "integer", "minimum": 0},
    },
    "minProperties": 1,
    "maxProperties": 1,
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mode": {"enum": ["validate", "curvature", "flow", "torus", "check", "sweep"]},
        "seed": {"type": "integer", "minimum": 0},
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
                # a run peaks at about 1.3 kB a node (perturbed, lambda on): 128^3 nodes is about 3 GB on T^3
                "N": {"type": "integer", "minimum": 8, "maximum": 128},
                "L": {"type": "number", "exclusiveMinimum": 0},
                "k": {"type": "number"},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "cfl": {"type": "number", "exclusiveMinimum": 0},
                "init": {"enum": ["flat", "perturbed"]},
                "amplitude": {"type": "number"},
                "kmax": {"type": "integer", "minimum": 1, "maximum": 16},  # N >= 8 kmax, N <= 128
                "compute_lambda": {"type": "boolean"},
                "lambda_every": {"const": 1},
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


def _finite(parse):
    """A ``json.loads`` number hook: ``parse(literal)`` if the literal reads as a finite float."""
    return lambda literal: parse(literal) if math.isfinite(float(literal)) else _not_finite(literal)


def _not_finite(literal: str):
    raise ConfigParseError(f"config number {literal:.24} is not finite or too large for a float")


def load_config(path) -> dict:
    """The parsed and schema-checked config; every number in it is a finite float or an int that fits one."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text, parse_float=_finite(float), parse_int=_finite(int), parse_constant=_not_finite)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config JSON invalid at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigParseError("config JSON nested too deeply") from None
    validate_config(cfg)
    return cfg


@functools.cache
def _config_validator():
    """The validator of ``CONFIG_SCHEMA``, built once per process; the test suite checks the schema itself."""
    from jsonschema import Draft202012Validator

    return Draft202012Validator(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> None:
    """Check ``cfg`` against ``CONFIG_SCHEMA``; its numbers are checked where it is parsed, by ``load_config``.

    The error names the field and the rule it breaks, not the value, which can run to any length.
    """
    from jsonschema.exceptions import best_match

    exc = best_match(_config_validator().iter_errors(cfg))  # the error jsonschema.validate raises
    if exc is not None:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        rule = exc.message.replace(repr(exc.instance), "value", 1)  # a message that quotes the value opens with it
        raise ConfigParseError(f"config field '{loc}': {rule}") from exc


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
    if "preset" in section:  # the schema holds a section to a preset with params, or to eta and c
        return alg.preset_algebra(section["preset"], **section.get("params", {}))
    return alg.QuadraticLieAlgebra(_float_array(section["eta"], "algebra/eta"), _float_array(section["c"], "algebra/c"))


def build_metric(cfg: dict, a: alg.QuadraticLieAlgebra) -> met.GeneralizedPseudometric:
    section = cfg.get("metric")
    if section is None:
        raise ConfigParseError("config requires a 'metric' section for this mode")
    if "identity" in section:  # the schema holds a section to exactly one of its keys
        return met.GeneralizedPseudometric.from_matrix(a, np.eye(a.n))
    if "matrix" in section:
        return met.GeneralizedPseudometric.from_matrix(a, _float_array(section["matrix"], "metric/matrix"))
    if "v_plus" in section:
        return met.metric_from_subspace(a, _float_array(section["v_plus"], "metric/v_plus").T)
    if "graph" in section:
        g = _float_array(section["graph"]["g"], "metric/graph/g")
        b = section["graph"].get("B")
        return met.metric_from_graph(a, g, None if b is None else _float_array(b, "metric/graph/B"))
    return met.random_strictly_positive_metric(a, int(section["random_positive_seed"]))


def _header_line(cfg: dict, seed: int) -> str:
    return f"# grf {__version__} config_sha256={config_hash(cfg)} seed={seed}"


def write_csv(path: Path, header: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_json(path: Path, cfg: dict, seed: int, body: dict) -> None:
    doc = {"version": __version__, "config_sha256": config_hash(cfg), "seed": seed}
    doc.update(body)
    strict = json.loads(json.dumps(doc), parse_constant=str)  # the NaN and +-Infinity tokens read as strings
    with open(path, "w", newline="\n") as fh:
        json.dump(strict, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- mode handlers ---------------------------------------------------------------


def mode_validate(cfg, seed, out_dir):
    a = build_algebra(cfg)
    rep = alg.validate_algebra(a)
    body = {"algebra": asdict(rep)}
    if "metric" in cfg:
        # a raw matrix is reported on as given: building it would raise on the very input to report
        matrix = cfg["metric"].get("matrix")
        g = build_metric(cfg, a).G if matrix is None else _float_array(matrix, "metric/matrix")
        gm_rep = met.validate_metric(a, g)
        body["metric"] = asdict(gm_rep)
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
        dvec = _float_array(cfg["divergence"], "divergence")
        if dvec.shape != (a.n,):
            raise ConfigParseError(f"config field 'divergence' has {dvec.size} entries, the algebra n = {a.n}")
        d = Divergence(dvec)
    rep = curvature_report(a, gm.G, d)
    write_json(out_dir / "curvature.json", cfg, seed, {"report": rep.as_dict()})
    print(f"curvature: GR = {rep.scalar!r}, |GRc|^2_G = {rep.norm_ricci_sq!r}, "
          f"route residuals {rep.route_residual_ricci:.2e}/{rep.route_residual_scalar:.2e}")
    return 0


def _given(section: dict, *keys) -> dict:
    """The entries of a config section among ``keys``; a key the section leaves out takes the library default."""
    return {key: section[key] for key in keys if key in section}


def mode_flow(cfg, seed, out_dir):
    a = build_algebra(cfg)
    gm = build_metric(cfg, a)
    f = cfg.get("flow", {})  # its "integrator" can only be RK4
    params = fl.FlowParams(**_given(f, "dt", "T", "retract_tol", "max_steps"))
    state = fl.FlowState(0.0, gm.G, float(f.get("log_sigma0", 0.0)))
    return _run_to_csv("flow", fl.run_flow(a, state, params), cfg, seed, out_dir)


def _run_to_csv(name, trace, cfg, seed, out_dir):
    """Write ``trace`` (at least one row) to ``<name>_trace.csv`` and return the exit code: 0, or 3 with
    ``<name>_abort.json`` when its ``aborted`` says the run did not reach T."""
    write_csv(out_dir / f"{name}_trace.csv", _header_line(cfg, seed), trace.COLUMNS, trace.rows())
    if trace.aborted:
        write_json(out_dir / f"{name}_abort.json", cfg, seed, {"aborted": trace.aborted, "last_t": trace.t[-1]})
        print(f"{name}: aborted ({trace.aborted}) after {len(trace.t)} records")
        return 3
    print(f"{name}: {len(trace.t)} records to t = {trace.t[-1]!r}")
    return 0


def _torus_state_params(cfg, seed):
    """The initial state and run parameters; a key the config leaves out takes the library default.

    d = 3, N = 16 and a flat start have no library default and are set here. A perturbed start needs
    N >= 8 kmax: with fewer nodes a period, the stencil misreads the highest modes and lambda can fall.
    """
    t = cfg.get("torus", {})
    geom = et.TorusGeometry(t.get("d", 3), t.get("N", 16), **_given(t, "L"))
    if t.get("init", "flat") == "perturbed":
        state = et.perturbed_state(geom, seed, **_given(t, "amplitude", "k", "kmax"))
        if geom.N < 8 * (kmax := t.get("kmax", et.KMAX)):
            raise ConfigParseError(f"config field 'torus/N' = {geom.N} is too coarse for init 'perturbed': "
                                   f"modes up to kmax = {kmax} need N >= {8 * kmax}")
    elif _given(t, "amplitude", "kmax"):
        raise ConfigParseError("config fields 'torus/amplitude' and 'torus/kmax' are for init 'perturbed' only")
    else:
        state = et.flat_state(geom, **_given(t, "k"))
    return state, et.TorusParams(**_given(t, "T", "cfl", "compute_lambda"))


def mode_torus(cfg, seed, out_dir):
    state, params = _torus_state_params(cfg, seed)
    trace = et.run_torus_flow(state, params)
    code = _run_to_csv("torus", trace, cfg, seed, out_dir)
    if cfg.get("torus", {}).get("dump_fields"):
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
    cells = list(itertools.product(*(axis["values"] for axis in axes)))  # the first axis slowest
    manifest = []
    any_failed = False
    for idx, combo in enumerate(cells):
        cell_cfg = json.loads(json.dumps({k: v for k, v in cfg.items() if k not in ("sweep", "mode")}))
        cell_dir = out_dir / f"cell_{idx:03d}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        entry = {"cell": idx, "params": {axis["path"]: v for axis, v in zip(axes, combo)}}
        try:
            for axis, value in zip(axes, combo):  # a cell is a flow run on the sweep's own seed and directory
                if axis["path"].split(".")[0] not in MODES["flow"][1]:
                    raise ConfigParseError(f"sweep path '{axis['path']}' is not read by a cell: a cell is a flow "
                                           f"run of the sections {', '.join(MODES['flow'][1])}")
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


MODES = {  # each mode's handler and the config sections it reads, besides mode, seed and out
    "validate": (mode_validate, ("algebra", "metric")),
    "curvature": (mode_curvature, ("algebra", "metric", "divergence")),
    "flow": (mode_flow, ("algebra", "metric", "flow")),
    "torus": (mode_torus, ("torus",)),
    "check": (mode_check, ("check",)),
    "sweep": (mode_sweep, ("sweep", "algebra", "metric", "flow")),
}


def run_config(path, mode=None, seed=None, out=None) -> int:
    cfg = load_config(path)
    cfg_mode = cfg.get("mode")
    if mode is not None and cfg_mode is not None and mode != cfg_mode:
        raise ConfigParseError(f"config mode '{cfg_mode}' does not match subcommand '{mode}'")
    mode = mode or cfg_mode
    if mode is None:
        raise ConfigParseError("no mode given (config 'mode' field or CLI subcommand)")
    handler, sections = MODES[mode]
    unread = [key for key in cfg if key not in ("mode", "seed", "out", *sections)]
    if unread:
        raise ConfigParseError(f"config section(s) {', '.join(unread)} not read by mode '{mode}', "
                               f"which reads {', '.join(sections)}")
    eff_seed = seed if seed is not None else int(cfg.get("seed", 0))
    if eff_seed < 0:  # the schema holds the config's seed to this too: numpy's generators take no negative seed
        raise ConfigParseError(f"seed must be non-negative, got {eff_seed}")
    out_dir = Path(out if out is not None else cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return handler(cfg, eff_seed, out_dir)


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
    except (ValidationError, MemoryError) as exc:  # a config sized past the machine's memory is bad input too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # grf has no recursion of its own: a config nested deeper than Python recurses
        print("error: config JSON nested too deeply", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LAPACK fails on inputs whose products overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
