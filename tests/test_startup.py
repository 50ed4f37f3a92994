"""Start-up cost and module boundaries: each module loads only what it imports, and scipy loads only
where grflow calls expm or LOBPCG.

``import grflow`` loads no submodule, ``grflow.runs`` none but ``grflow.errors``, and ``grflow.exact_torus``
none but those two. Only ``exact_torus`` reads the index tables of its state's layout; every other module
converts through its functions. The validate, curvature and flow modes load numpy alone. So does a flat torus
run with lambda on: its metric is constant, so the constant start is already an exact eigenfunction
of lambda's operator (the potential is constant and the gradient term vanishes), the start meets
lambda's residual bound and ``lambda_torus`` returns before it imports LOBPCG. ``grf check`` draws
expm rotations, so it loads scipy on first use.
"""

import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import grflow

SRC = Path(grflow.__file__).parents[1]

SCRIPT = textwrap.dedent("""
    import json
    import sys
    from pathlib import Path

    out = Path(sys.argv[1])

    def no_scipy(step):
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, f"{step} loaded {loaded[:3]}"

    import grflow
    import grflow.cli as cli

    no_scipy("import grflow, grflow.cli")
    su2_double = {"algebra": {"preset": "cotangent_double", "params": {"h": "su2"}},
                  "metric": {"graph": {"g": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}}}
    runs = [
        {"mode": "validate", **su2_double},
        {"mode": "curvature", **su2_double},
        {"mode": "flow", **su2_double, "flow": {"dt": 1e-3, "T": 0.01, "integrator": "rk4"}},
        {"mode": "torus", "torus": {"d": 3, "N": 8, "init": "flat", "k": 1.0, "T": 0.05,
                                    "compute_lambda": True, "lambda_every": 1}},
    ]
    for cfg in runs:
        mode = cfg["mode"]
        path = out / f"{mode}.json"
        path.write_text(json.dumps(cfg))
        code = cli.main([mode, "--config", str(path), "--out", str(out / mode)])
        assert code == 0, f"grf {mode} exited {code}"
        no_scipy(f"grf {mode}")

    path = out / "check.json"
    path.write_text(json.dumps({"mode": "check", "check": {"scope": "algebraic", "instances": 5}}))
    code = cli.main(["check", "--config", str(path), "--out", str(out / "check")])
    assert code == 0, f"grf check exited {code}"
    assert "scipy.linalg" in sys.modules
""")


def test_cli_modes_start_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert wall < 3.0


@pytest.mark.parametrize("module, allowed", [
    ("grflow", set()),
    ("grflow.exact_torus", {"grflow.errors", "grflow.runs", "grflow.exact_torus"}),
    ("grflow.flow_ode", {"grflow.algebra", "grflow.connection", "grflow.curvature", "grflow.errors", "grflow.metric",
                         "grflow.runs", "grflow.flow_ode"}),
    ("grflow.runs", {"grflow.errors", "grflow.runs"}),
])
def test_import_loads_only_what_the_module_imports(module, allowed):
    code = f"import sys, {module}; print(' '.join(m for m in sys.modules if m.startswith('grflow.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= allowed


def test_only_exact_torus_reads_its_layout_tables():
    tables = re.compile(r"\b_(SYM|FORM2)\b")
    files = [*SRC.joinpath("grflow").glob("*.py"), *Path(__file__).parent.glob("*.py")]
    assert SRC.joinpath("grflow", "exact_torus.py") in files
    readers = sorted(f.name for f in files if tables.search(f.read_text(encoding="utf-8")))
    assert readers == ["exact_torus.py"]
