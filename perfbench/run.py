"""grflow benchmark: one workload per invocation, each measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It runs ``grf`` on the workload's
generated config in a child process with the BLAS/OpenMP thread count pinned,
for ``--seconds`` of timed passes, gates every pass's artifacts and prints the
metrics named in ``BENCHMARK.json``: the end-to-end ones with ``--trace 0``,
the per-layer ones from a traced run with ``--trace 1``.  The last line of
stdout is one JSON object; the exit code is 0 only when every pass was right.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1  # at most nproc; one thread keeps passes steady on a shared machine
SETUP_PROBES = 9  # extra set-up-only children, for a median set-up time
CHILD_TIMEOUT_S = 170
SCRATCH = Path(".perfbench_tmp")
OUTPUT = Path(".perfbench_out")


def child_env(src: Path) -> dict:
    """Environment of every child: grflow from ``src``, BLAS/OpenMP threads pinned.

    ``src`` is a fresh copy of ``src/grflow`` with no ``__pycache__``, and no
    child writes bytecode, so every child compiles grflow from source whatever
    an earlier pytest or grf run left in the checkout.  NumPy, SciPy and the
    standard library still load from their caches, so set-up time is not
    swamped by compiling them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src.resolve()), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout; 'none' outside a git repository."""
    # the ceiling keeps a checkout without .git from reporting a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, check=False)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_sha256() -> str:
    """Fingerprint of the grflow sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(Path("src/grflow").rglob("*.py")):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if not Path("src/grflow/__init__.py").is_file():
        print("error: run from the root of a grflow checkout (src/grflow is missing)", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(), "source_sha256": source_sha256(), "loadavg_start": loadavg(),
    }
    SCRATCH.mkdir(exist_ok=True)
    OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    base = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        shutil.copytree("src/grflow", workdir / "src" / "grflow", ignore=shutil.ignore_patterns("__pycache__"))
        env = child_env(workdir / "src")
        # set-ups before and after the measuring child, so that their median spans
        # the machine's slow and fast spells during the run
        setups = [run_child(base + ["--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        main_args = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            main_args += ["--spans", str(OUTPUT / f"spans_{args.workload}_seed{args.seed}.csv")]
        res = run_child(main_args, env)
        setups += [run_child(base + ["--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["loadavg_end"] = loadavg()
    info.update(res.pop("env"))

    passes = res["passes"] + res.get("traced", [])
    walls = [p["wall_s"] for p in res["passes"]]
    cpus = [p["cpu_s"] for p in res["passes"]]
    # byte determinism: a pass whose artifacts differ from the first pass's fails
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(max(p["failed"], int(p["sha256"] != passes[0]["sha256"])) for p in passes)
    deterministic = len({p["sha256"] for p in passes}) == 1
    correct = failed == 0 and all(p["ok"] for p in passes)
    ref_err = max(p["ref_err"] for p in passes)
    setups.append(res["setup_s"])
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "wall_rel": statistics.median(p["wall_s"] / p["ref_wall_s"] for p in res["passes"]),
        "cpu_rel": statistics.median(p["cpu_s"] / p["ref_cpu_s"] for p in res["passes"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ref_err": ref_err,
        "failed_ratio": failed / attempted,
    }

    # human-readable report; the JSON result is the last line
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("nproc", "blas_threads", "blas", "python", "numpy", "scipy", "git_commit", "source_sha256",
                "loadavg_start", "loadavg_end"):
        print(f"  {key:14s} {info[key]}")
    q1, q3 = quartiles(walls)
    print(f"  setup_s        {e2e['setup_s']:.4f} s (median of {len(setups)} set-ups)")
    print(f"  wall_s         {e2e['wall_s']:.4f} s (median of {len(walls)} passes; quartiles {q1:.4f} {q3:.4f})")
    print(f"  cpu_s          {e2e['cpu_s']:.4f} s (median of {len(cpus)} passes)")
    ref = statistics.median(p["ref_wall_s"] for p in res["passes"])
    print(f"  wall_rel       {e2e['wall_rel']:.4f} ref (median of pass wall / reference wall; reference {ref:.4f} s)")
    print(f"  cpu_rel        {e2e['cpu_rel']:.4f} ref (median of pass cpu / reference cpu)")
    print(f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB (child process)")
    print(f"  ref_err        {ref_err:.3e} (tolerance {passes[0]['tol']:g}, worst pass)")
    print(f"  failed_ratio   {e2e['failed_ratio']:g} ({failed} failed of {attempted} operations)")
    print(f"  artifacts      {'identical' if deterministic else 'DIFFER'} across {len(passes)} passes "
          f"(sha256 {passes[0]['sha256'][:16]}...)")
    for p in passes:
        if not p["ok"]:
            print(f"  FAILED pass: ref_err {p['ref_err']:.3e} {p['note']}")

    if args.trace:
        from tracing import LAYERS

        funcs, layers = res["functions"], res["layers"]
        traced_wall = statistics.median(p["wall_s"] for p in res["traced"])
        print(f"  traced wall_s  {traced_wall:.4f} s (median of {len(res['traced'])} traced passes; "
              f"overhead {layers['tracing.overhead_s']:+.4f} s)")
        print("  per traced pass:")
        print(f"    {'function':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for key, row in funcs.items():
            if row["calls"]:
                print(f"    {key:44s} {row['calls']:9.1f} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        print("    self time by layer: " + ", ".join(
            f"{layer} {layers[layer + '.self_s']:.4f}" for layer in LAYERS))
        if res["missing"]:
            print(f"  MISSING traced names: {', '.join(res['missing'])}")
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (OUTPUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(
        {"info": info, "setups": setups, "end_to_end": e2e, "per_layer": res.get("layers"),
         "functions": res.get("functions"), "passes": passes}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
