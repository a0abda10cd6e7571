"""recdistill benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload usd-twomode --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each operation is a fresh process (op.py) that sets up and runs the
workload's recdistill CLI commands on inputs made from --seed.  Operations
run one after another until --seconds have passed, and at least twice, so
that their output trees can be compared byte for byte.  The first tree is
then checked (checks.py).  The last line of standard output is one JSON
object with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, or with --trace 1 the per-layer metrics of traced
operations (medians over the operations of the run).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 2
REFERENCE_KERNEL_S = 0.002
OP_TIMEOUT_S = 60

THROUGHPUT_NAME = {"classify-glyphs": "images_per_s"}   # the distill workloads: particle_iters_per_s


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def tree_digest(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_op(args, work: pathlib.Path, i: int):
    """One fresh-process operation; its stats and output digest, or None if it failed."""
    tree, stats = work / f"op{i}", work / f"op{i}.json"
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(tree), "--stats", str(stats)]
    if args.trace:
        cmd += ["--trace", str(HERE / "results" / f"spans-{args.workload}-s{args.seed}.npz")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("RECDISTILL_THREADS", None)      # the classify pool at its default size
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"operation {i} timed out after {OP_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"operation {i} failed:\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(stats.read_text())
    result["wall_setup_s"] = result["t_ready"] - t_spawn
    result["digest"] = tree_digest(tree)
    return result


def main(argv=None) -> int:
    import op

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=op.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(main(["--workload", w] + common) for w in op.WORKLOADS)
    if not (ROOT / "src" / "recdistill" / "__init__.py").is_file():
        print(f"error: no recdistill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (HERE / "results").mkdir(exist_ok=True)
    ops, attempted, failed = [], 0, 0
    start = time.monotonic()
    while attempted < MIN_OPS or time.monotonic() - start < args.seconds:
        result = run_op(args, work, attempted)
        attempted += 1
        if result is None:
            failed += 1
        else:
            ops.append((attempted - 1, result))
            if len(ops) > 1:
                shutil.rmtree(work / f"op{attempted - 1}")

    problems = []
    if not ops:
        problems.append("no operation succeeded")
    elif len({r["digest"] for _, r in ops}) != 1:
        problems.append("output trees differ between operations of one seed")
    if ops:
        sys.path.insert(0, str(ROOT / "src"))
        import checks

        problems += checks.check(args.workload, work / f"op{ops[0][0]}", args.seed)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    results = [r for _, r in ops]
    if args.trace:
        units = declared_units("per_layer")
        values = {n: [r["per_layer"][n] for r in results] for n in units}
        unwrapped = sorted({m for r in results for m in r["unwrapped"]})
        if unwrapped:
            print(f"note: not found to wrap: {', '.join(unwrapped)}", file=sys.stderr)
    else:
        units = declared_units("end_to_end")
        # CPU seconds at the reference speed, at which op._kernel takes
        # REFERENCE_KERNEL_S; the wall-clock figures are kept alongside
        scale = [REFERENCE_KERNEL_S / r["kernel_s"] for r in results]
        values = {"setup_s": [r["setup_cpu_s"] * k for r, k in zip(results, scale)],
                  "run_s": [r["run_cpu_s"] * k for r, k in zip(results, scale)],
                  "throughput_per_s": [r["work"] / (r["core_cpu_s"] * k) for r, k in zip(results, scale)],
                  "peak_rss_mib": [r["peak_rss_mib"] for r in results],
                  "wall_setup_s": [r["wall_setup_s"] for r in results],
                  "wall_run_s": [r["run_wall_s"] for r in results],
                  "wall_throughput_per_s": [r["work"] / r["core_wall_s"] for r in results],
                  "kernel_s": [r["kernel_s"] for r in results]}
    metrics = {n: {"value": statistics.median(values[n]), "unit": u} for n, u in units.items() if results}

    print(f"{args.workload} seed {args.seed}: {attempted} operations attempted, {failed} failed, "
          f"output checks {'passed' if not problems else 'FAILED'}")
    for name, m in metrics.items():
        alias = f" ({THROUGHPUT_NAME.get(args.workload, 'particle_iters_per_s')})" if name == "throughput_per_s" else ""
        wall = values.get(f"wall_{name}")
        wall = f"  (wall clock {statistics.median(wall):.6g})" if wall else ""
        print(f"  {name}{alias} = {m['value']:.6g} {m['unit']}{wall}")
    line = json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics})
    (HERE / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": json.loads(line), "per_operation": values}, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
