"""One benchmark operation, in a fresh process, the way a user pays for it.

Set-up (imports, parse_config, build_schedule and the mixture, or the
classifier templates) is followed by the workload's recdistill CLI
commands through `cli.main`.  Timings go to a JSON stats file; with
--trace the layers are wrapped by `tracer.Tracer` and the stats carry the
per-layer numbers, and the spans are written to the given .npz file.

    python3 perfbench/op.py --workload usd-twomode --seed 0 \
        --out perfbench/out/tree --stats perfbench/out/op.json [--trace spans.npz]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import threading
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent

# Each distill workload is a config file the benchmark owns; classify-glyphs
# is a corpus of GLYPHS_PER_CATEGORY images per pose category.
DISTILL_WORKLOADS = ("usd-twomode", "ctrl-wide", "usd-tweedie-rot2d")
GLYPHS_PER_CATEGORY = 200
WORKLOADS = DISTILL_WORKLOADS + ("classify-glyphs",)
CALIBRATION_BURST = 20
CALIBRATION_PERIOD_S = 0.1


def config_path(workload: str) -> pathlib.Path:
    return HERE / "workloads" / f"{workload}.cfg"


def _commands(workload: str, seed: int, out: pathlib.Path) -> list[list[str]]:
    if workload in DISTILL_WORKLOADS:
        return [["distill", "--config", str(config_path(workload)), "--seed", str(seed),
                 "--out-dir", str(out / "distill")]]
    glyphs = out / "glyphs"
    return [["glyphs", "--out-dir", str(glyphs), "--per-category", str(GLYPHS_PER_CATEGORY),
             "--seed", str(seed)],
            ["classify", "--templates", str(glyphs / "templates"), "--inputs", str(glyphs / "corpus"),
             "--out-dir", str(out / "classify")]]


def _kernel() -> None:
    """A fixed mix of interpreter, small-numpy and tiny-linalg work, as in
    the distillation loop, that does not touch recdistill."""
    acc = 0
    for k in range(10_000):
        acc += k * k
    a = np.arange(64.0)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0)
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    v = np.ones(2)
    for _ in range(60):
        v = np.linalg.solve(np.linalg.cholesky(cov), v[:, None])[:, 0] + 1.0


class Calibration:
    """The host's speed: the thread CPU time `_kernel` takes.

    Timings are CPU time, which leaves out time stolen by the hypervisor
    and waits for the interpreter lock, and run.py scales them by the
    kernel's speed sampled while the operation ran, which follows the
    host's clock and cache contention: in bursts before and after the
    commands, and every CALIBRATION_PERIOD_S from a hook on a per-iteration
    (or per-image) function.  The hook's own time is counted in `spent`.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall_s = 0.0
        self.spent_cpu_s = 0.0
        self._last = time.perf_counter()
        self._lock = threading.Lock()

    def sample(self) -> tuple[float, float]:
        t0, c0 = time.perf_counter(), time.thread_time()
        _kernel()
        cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
        with self._lock:
            self.samples.append(cpu)
        return wall, cpu

    def burst(self) -> None:
        for _ in range(CALIBRATION_BURST):
            self.sample()

    def hook(self, fn):
        def sampled(*args, **kwargs):
            with self._lock:
                now = time.perf_counter()
                due = now - self._last >= CALIBRATION_PERIOD_S
                if due:
                    self._last = now
            if due:
                wall, cpu = self.sample()
                with self._lock:
                    self.spent_wall_s += wall
                    self.spent_cpu_s += cpu
            return fn(*args, **kwargs)

        return sampled


def _layer_metrics(tracer, stats: dict, uncovered: float) -> dict:
    def get(name, key):
        return stats.get(name, {}).get(key, 0.0)

    out = {"config.parse_config_s": get("config.parse_config", "total_s"),
           "schedule.build_schedule_s": get("schedule.build_schedule", "total_s")}
    for name in ("schedule.loss_weight", "worldmodel.score", "worldmodel.category_posterior",
                 "worldmodel.render", "rectify.grad_log_r", "oracle.finite_difference_grad",
                 "estimator.ema_update", "distill.variational_eps", "classifier.classify"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["estimator.tweedie_x0.calls"] = get("estimator.tweedie_x0", "calls")
    for name in ("distill.step", "distill.run", "distill.particle_split", "classifier.extract_features",
                 "classifier.segment_foreground", "classifier.orientation_similarity",
                 "classifier.texture_similarity"):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("distill.write_report", "classifier.template_build", "classifier.generate_corpus",
                 "classifier.pgm_io"):
        out[f"{name}_s"] = get(name, "total_s")
    out["worldmodel.mixture_builds"] = tracer.counts["worldmodel.mixture_builds"]
    cholesky = tracer.counts["worldmodel.cholesky"]
    out["worldmodel.cholesky_per_particle_iter"] = cholesky / tracer.particle_iters if tracer.particle_iters else 0.0
    pool_wall = get("cli.classify_pool", "total_s")
    busy = tracer.cpu_s["classifier.classify"]
    out["cli.classify_pool_efficiency"] = busy / (pool_wall * tracer.pool_threads) if pool_wall else 0.0
    out["trace.wall_s"] = get("op", "total_s")
    out["trace.uncovered_s"] = get("op", "self_s") + uncovered
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--stats", required=True, type=pathlib.Path)
    ap.add_argument("--trace", type=pathlib.Path)
    args = ap.parse_args(argv)

    from recdistill import classifier, cli, config, distill, schedule

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.open("op")
    if args.workload in DISTILL_WORKLOADS:
        spec = config.parse_config(config_path(args.workload))
        schedule.build_schedule(spec.num_steps, spec.beta_min, spec.beta_max)
    else:
        classifier.PoseClassifier.from_images(classifier.template_images())
    t_ready, setup_cpu_s = time.monotonic(), time.process_time()
    calibration = Calibration()
    if tracer is None:
        calibration.burst()

    # particle-iterations and the time inside distill.run, one timer around the call
    core = {"wall_s": 0.0, "cpu_s": 0.0, "work": 0}
    inner_run = distill.run

    def timed_run(ps, m, sched, cfg):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return inner_run(ps, m, sched, cfg)
        finally:
            core["wall_s"] += time.perf_counter() - t0
            core["cpu_s"] += time.process_time() - c0
            core["work"] += ps.num_particles * cfg.iters

    distill.run = timed_run
    # bnf_interval runs once per distill iteration, classify once per image
    hooked, attr = (distill, "bnf_interval") if args.workload in DISTILL_WORKLOADS else (classifier, "classify")
    unhooked = getattr(hooked, attr)
    if tracer is None:
        setattr(hooked, attr, calibration.hook(unhooked))
    t0, c0 = time.perf_counter(), time.process_time()
    for argv_cli in _commands(args.workload, args.seed, args.out):
        t_cmd, c_cmd = time.perf_counter(), time.process_time()
        if cli.main(argv_cli) != 0:
            raise SystemExit(f"recdistill {argv_cli[0]} failed")
        if argv_cli[0] == "classify":
            core["wall_s"] = time.perf_counter() - t_cmd
            core["cpu_s"] = time.process_time() - c_cmd
            core["work"] = len(list((args.out / "glyphs" / "corpus").glob("*.pgm")))
    run_wall_s = time.perf_counter() - t0 - calibration.spent_wall_s
    run_cpu_s = time.process_time() - c0 - calibration.spent_cpu_s
    setattr(hooked, attr, unhooked)
    distill.run = inner_run
    if tracer is None:
        calibration.burst()

    stats = {"t_ready": t_ready, "setup_cpu_s": setup_cpu_s,
             "run_wall_s": run_wall_s, "run_cpu_s": run_cpu_s,
             "core_wall_s": core["wall_s"] - calibration.spent_wall_s,
             "core_cpu_s": core["cpu_s"] - calibration.spent_cpu_s, "work": core["work"],
             "kernel_s": statistics.median(calibration.samples) if calibration.samples else None,
             "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        layers, uncovered = tracer.layer_stats()
        metrics = _layer_metrics(tracer, layers, uncovered)
        covered = sum(v["self_s"] for k, v in layers.items() if k != "op")
        if abs(covered + metrics["trace.uncovered_s"] - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"]:
            raise SystemExit("trace self times do not add up to the traced wall time")
        stats["per_layer"] = metrics
        stats["unwrapped"] = tracer.missing
        tracer.dump(args.trace)
    args.stats.write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
