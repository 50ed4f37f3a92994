"""Child process of the benchmark: set up one workload, run timed passes, gate them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --setup-only --workload NAME --seed N --workdir DIR

``run.py`` starts it with PYTHONPATH pointing at a fresh copy of ``src/grflow``
and the BLAS thread count pinned.  It prints one JSON line.  The output of ``grf`` itself goes to
a buffer, so stdout carries only the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np


def setup(workload, workdir: Path):
    """Import grflow and, for a ``grf`` workload, write and load its config.

    Loading the config validates it against the schema, which imports
    jsonschema lazily.
    """
    import grflow.cli as cli

    if workload.config is None:
        return cli, None
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(workload.config, indent=1))
    cli.load_config(cfg_path)  # validates against the schema, importing jsonschema
    return cli, cfg_path


def run_pass(cli, workload, cfg_path: Path | None, seed: int, out: Path):
    """One user-visible `grf` run, or the workload's own run; returns (exit code, wall s, cpu s)."""
    with contextlib.redirect_stdout(io.StringIO()):
        w0, c0 = perf_counter(), time.process_time()
        if workload.run is None:
            code = cli.main([workload.config["mode"], "--config", str(cfg_path), "--seed", str(seed),
                             "--out", str(out)])
        else:
            code = workload.run(seed, out)
        wall, cpu = perf_counter() - w0, time.process_time() - c0
    return code, wall, cpu


def check_run(workload, out: Path, code: int) -> dict:
    """Gate one `grf` run: exit code, abort notes and the workload's reference."""
    aborts = sorted(p.name for p in out.glob("*_abort.json"))
    try:
        gate = workload.gate(out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return {"ok": False, "ref_err": float("nan"), "tol": float("nan"), "attempted": 1, "failed": 1,
                "steps": 0, "sha256": "", "note": f"unreadable artifact: {exc!r}"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ok = gate.ok and code == 0 and not aborts
    return {"ok": ok, "ref_err": gate.ref_err, "tol": gate.tol, "attempted": gate.attempted,
            "failed": max(gate.failed, int(not ok)), "steps": gate.steps, "sha256": gate.artifact_sha256,
            "note": " ".join(filter(None, [gate.note, f"exit {code}" if code else ""] + aborts))}


def reference() -> tuple[float, float]:
    """Time a fixed NumPy computation (about 0.2 s) that does not use grflow.

    Returns (wall s, cpu s).

    On a shared 2-core machine the same pass ran up to
    2x slower for tens of seconds at a time, with CPU time equal to wall time:
    the core itself slowed, so CPU time does not correct it.  Each pass is
    timed between two runs of this fixed work, and the pass time over the
    reference time cancels much of that.  Its mix of small-array calls and
    whole-grid stencils resembles grflow's.
    """
    a = np.arange(216.0).reshape(6, 6, 6) / 100.0
    g = np.eye(6) + 0.01
    f = np.linspace(0.0, 1.0, 16**3 * 9).reshape(16, 16, 16, 3, 3)
    w0, c0 = perf_counter(), time.process_time()
    for _ in range(6000):
        b = np.einsum("ab,bcd->acd", g, a)
        g = 0.5 * (g + g @ g.T / (1.0 + np.abs(g).max()))
        float(np.sum(b * a))
    for _ in range(40):
        d = sum(np.roll(f, k, axis=ax) for ax in range(3) for k in (-2, -1, 1, 2))
        f = 0.5 * (f + np.einsum("...ij,...jk->...ik", d, f) / (1.0 + np.abs(d).max()))
    return perf_counter() - w0, time.process_time() - c0


def run_passes(cli, workload, cfg_path, seed, workdir, seconds, tracer=None):
    """Passes, with the reference around each `grf` run, until they have taken ``seconds``.

    There is always at least one pass.  A pass runs `grf` on each of the
    workload's input seeds; its times are the sums, and its reference time is
    the mean of the reference runs before and after each of them.
    """
    passes = []
    reference()  # the first call pays NumPy's one-time costs
    refs = [reference()]
    elapsed = refs[0][0]
    while not passes or elapsed < seconds:
        if tracer is not None:
            tracer.current_pass = len(passes)
        wall = cpu = 0.0
        runs = []
        for j, sub_seed in enumerate(workload.input_seeds(seed)):
            out = workdir / f"pass_{len(passes):03d}_{j}"
            code, w, c = run_pass(cli, workload, cfg_path, sub_seed, out)
            wall, cpu = wall + w, cpu + c
            runs.append(check_run(workload, out, code))
            refs.append(reference())
            elapsed += w + refs[-1][0]
        if tracer is not None:
            tracer.current_pass = -1
        passes.append({
            "wall_s": wall, "cpu_s": cpu,
            "ref_wall_s": sum(r[0] for r in refs) / len(refs), "ref_cpu_s": sum(r[1] for r in refs) / len(refs),
            "ok": all(r["ok"] for r in runs), "ref_err": max(r["ref_err"] for r in runs), "tol": runs[0]["tol"],
            **{k: sum(r[k] for r in runs) for k in ("attempted", "failed", "steps")},
            "sha256": hashlib.sha256(" ".join(r["sha256"] for r in runs).encode()).hexdigest(),
            "note": " ".join(r["note"] for r in runs if r["note"]),
        })
        refs = refs[-1:]
    return passes


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t0 = perf_counter()
    cli, cfg_path = setup(workload, args.workdir)
    result = {"setup_s": perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracing import Tracer, layer_metrics

        # half the time untraced and half traced; the difference is the overhead
        result["passes"] = run_passes(cli, workload, cfg_path, args.seed, args.workdir, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = run_passes(cli, workload, cfg_path, args.seed, args.workdir, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["layers"], result["functions"] = layer_metrics(tracer, result["passes"], result["traced"])
        result["missing"] = tracer.missing
        tracer.write_spans(args.spans)
    else:
        result["passes"] = run_passes(cli, workload, cfg_path, args.seed, args.workdir, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
