"""Self-test of the traced run: every per-layer metric reads non-zero on the
workload the map assigns it, and layers predicted idle show no calls.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It runs ``run.py --trace 1`` once per
workload, so a rename in grflow that would leave a wrapper unused, and so a
metric silently at zero, fails here.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = 1.0  # one short traced run per workload
SEED = 101

# workload -> prefixes of per-layer metrics that must read non-zero there
NONZERO = {
    "flow_su2_double": ("algebra.preset_algebra.", "metric.", "curvature.ricci_closed_form.",
                        "curvature.scalar_closed_form.", "flow_ode.", "cli.load_config.", "cli.write_csv."),
    "torus_flux16": ("exact_torus.", "cli.load_config.", "cli.write_csv."),
    "torus_pert24_lambda": ("exact_torus.", "cli.load_config.", "cli.write_csv."),
    "oracles_alg100": ("algebra.change_basis.", "connection.", "curvature.riemann.", "curvature.ricci.",
                       "curvature.curvature_report.", "curvature.bianchi_residual.", "variation.", "checks."),
}
# workload -> layers whose traced functions must show no calls there
IDLE = {
    "flow_su2_double": ("exact_torus", "checks", "connection", "variation"),
    "torus_flux16": ("flow_ode", "checks", "connection", "variation"),
    "torus_pert24_lambda": ("flow_ode", "checks", "connection", "variation"),
    "oracles_alg100": ("exact_torus", "cli"),
}


def check_workload(name: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                           "--seconds", str(SECONDS), "--trace", "1"], stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{name}: traced run printed nothing (exit {proc.returncode})"]
    res = json.loads(lines[-1])
    metrics = {k: m["value"] for k, m in res["metrics"].items()}
    problems = [] if res["correct"] and proc.returncode == 0 else [f"{name}: traced run not correct"]
    for prefix in NONZERO[name]:
        hits = [k for k in metrics if k.startswith(prefix)]
        if not hits:
            problems.append(f"{name}: no per-layer metric starts with {prefix}")
        problems += [f"{name}: {k} is 0" for k in hits if not metrics[k]]
    for layer in IDLE[name]:
        problems += [f"{name}: {k} = {metrics[k]} on an idle layer" for k in metrics
                     if k.startswith(layer + ".") and k.endswith(".calls") and metrics[k]]
    return problems


def main() -> int:
    problems = []
    for name in NONZERO:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else f'{len(found)} problem(s)'}", flush=True)
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
