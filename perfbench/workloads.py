"""The benchmark's workloads: the config each one feeds to ``grf`` and the gate
that decides whether a pass's artifacts are right.

Every workload but ``oracles_alg100`` runs through ``grflow.cli.main`` because
``grf`` is what users run; ``oracles.py`` says why that one cannot.  A gate
reads only the artifacts a pass wrote, so it checks what a user would get, and
it uses the tolerances of ``tests/test_acceptance.py`` and ``grflow.checks``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

# Headers of the byte-deterministic artifacts carry the version and config hash;
# the determinism contract covers everything else.
HEADER_PREFIX = "# grf "
JSON_HEADER_KEYS = ("version", "config_sha256", "seed")


@dataclass
class Gate:
    """Outcome of checking one pass's artifacts."""

    ok: bool
    ref_err: float
    tol: float
    attempted: int  # operations checked in this pass
    failed: int
    steps: int  # accepted time steps read from the trace (0 for oracles_alg100)
    artifact_sha256: str
    note: str = ""


@dataclass(frozen=True)
class Workload:
    """A ``grf`` config, or a function that stands in for ``grf``, and the gate
    on the artifacts it writes.

    One pass runs ``grf`` once per input seed.  A workload whose cost depends on
    the seeded input runs several, so that a pass costs about the mean over
    inputs and runs with different seeds compare.
    """

    name: str
    config: dict | None  # grf draws any random input from --seed, not from the config
    gate: Callable[[Path], Gate]
    inputs: int = 1
    run: Callable[[int, Path], int] | None = None  # (seed, out dir) -> exit code, in place of grf

    def input_seeds(self, seed: int) -> list[int]:
        return [seed * self.inputs + j for j in range(self.inputs)]


def _read_trace(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith(HEADER_PREFIX)]
    rows = list(csv.reader(lines))
    cols = rows[0]
    return {c: [float(r[i]) for r in rows[1:]] for i, c in enumerate(cols)}


def artifact_sha256(path: Path) -> str:
    """sha256 of an artifact without its versioned header."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        for key in JSON_HEADER_KEYS:
            doc.pop(key, None)
        data = json.dumps(doc, sort_keys=True).encode()
    else:
        data = b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                        if not line.startswith(HEADER_PREFIX.encode()))
    return hashlib.sha256(data).hexdigest()


def _reached(t: list[float], T: float) -> bool:
    return abs(t[-1] - T) <= 1e-9 * max(1.0, T)


# -- flow_su2_double ---------------------------------------------------------------

FLOW_T = 1.0
FLOW_DEFECT_TOL = 5e-3  # criterion 6


# the metric is fixed, so the seed only reaches the artifact header
FLOW_CONFIG = {
    "mode": "flow",
    "algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
    "metric": {"graph": {"g": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}},
    "flow": {"dt": 1e-3, "T": FLOW_T, "integrator": "rk4"},
}


def flow_gate(out: Path) -> Gate:
    """Criterion 6: dGR/dt matches the mean of |GRc|^2_G, and GR never falls."""
    path = out / "flow_trace.csv"
    tr = _read_trace(path)
    t, gr, rc2 = tr["t"], tr["GR"], tr["normRc2"]
    defect, monotone = 0.0, True
    for k in range(len(t) - 1):
        dgr = (gr[k + 1] - gr[k]) / (t[k + 1] - t[k])
        defect = max(defect, abs(dgr - 0.5 * (rc2[k] + rc2[k + 1])) / (1.0 + rc2[k + 1]))
        monotone = monotone and gr[k + 1] - gr[k] >= -1e-8 * (1.0 + abs(gr[k]))
    ok = defect <= FLOW_DEFECT_TOL and monotone and _reached(t, FLOW_T)
    return Gate(ok, defect, FLOW_DEFECT_TOL, 1, int(not ok), len(t) - 1, artifact_sha256(path),
                "" if monotone else "GR decreased")


# -- torus workloads -----------------------------------------------------------------

FLUX_T = 0.1
FLUX_TOL = 1e-4  # criterion 8
PERT_T = 0.02
PERT_INPUTS = 3  # lambda solver work varies by about 30 % between seeded perturbations
DRIFT_TOL = 1e-6  # criterion 9, per unit time


# flat initial data: the seed only reaches the artifact header
FLUX_CONFIG = {"mode": "torus",
               "torus": {"d": 3, "N": 16, "init": "flat", "k": 1.0, "T": FLUX_T, "cfl": 0.2,
                         "compute_lambda": True}}
# grf draws the perturbation from its --seed
PERT_CONFIG = {"mode": "torus",
               "torus": {"d": 3, "N": 24, "init": "perturbed", "T": PERT_T, "cfl": 0.2,
                         "compute_lambda": True, "lambda_every": 1}}


def flux_gate(out: Path) -> Gate:
    """Criterion 8: g = (1+3t)^(1/3) Id and min R = -1/(2(1+3t)) at every row."""
    path = out / "torus_trace.csv"
    tr = _read_trace(path)
    err = 0.0
    for t, gn, mr in zip(tr["t"], tr["g_norm"], tr["minR"]):
        err = max(err, abs(gn - (1.0 + 3.0 * t) ** (1.0 / 3.0)), abs(mr + 1.0 / (2.0 * (1.0 + 3.0 * t))))
    ok = err <= FLUX_TOL and _reached(tr["t"], FLUX_T)
    return Gate(ok, err, FLUX_TOL, 1, int(not ok), len(tr["t"]) - 1, artifact_sha256(path))


def pert_gate(out: Path) -> Gate:
    """Criterion 9: neither lambda nor min R decreases along the run."""
    path = out / "torus_trace.csv"
    tr = _read_trace(path)
    t = tr["t"]
    drift = 0.0
    for col in ("lambda", "minR"):
        v = tr[col]
        for k in range(len(t) - 1):
            drift = max(drift, -(v[k + 1] - v[k]) / (t[k + 1] - t[k]))
    ok = drift <= DRIFT_TOL and _reached(t, PERT_T) and len(t) > 1
    return Gate(ok, drift, DRIFT_TOL, 1, int(not ok), len(t) - 1, artifact_sha256(path))


# -- oracles_alg100 ----------------------------------------------------------------


def oracle_gate(out: Path) -> Gate:
    """Every identity within its tolerance; ref_err is the largest worst/tol.

    The convergence ratio is gated but left out of ref_err, because its band
    has two edges and no single tolerance.
    """
    path = out / "oracles.json"
    doc = json.loads(path.read_text())
    worst, flow = doc["worst"], doc["flow_checks"]
    lo, hi = oracles.FD_BAND
    failed = [name for name, w in worst.items() if not w <= oracles.TOLS[name]]
    ratios = doc[oracles.FD_RATIO]
    if not (ratios and lo <= min(ratios) <= hi):
        failed.append(oracles.FD_RATIO)
    failed += [c["name"] for c in flow if not c["passed"]]
    ratio = max([w / oracles.TOLS[name] for name, w in worst.items()] + [c["worst"] / c["tol"] for c in flow])
    attempted = len(worst) + 1 + len(flow)
    ok = not failed and set(worst) == set(oracles.TOLS)
    return Gate(ok, ratio, 1.0, attempted, len(failed), 0, artifact_sha256(path),
                "failed: " + ", ".join(failed) if failed else "")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow_su2_double", FLOW_CONFIG, flow_gate),
        Workload("torus_flux16", FLUX_CONFIG, flux_gate),
        Workload("torus_pert24_lambda", PERT_CONFIG, pert_gate, PERT_INPUTS),
        Workload("oracles_alg100", None, oracle_gate, run=oracles.run_oracles),
    )
}
