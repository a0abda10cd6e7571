"""Output checks for each workload.

The program's numbers are compared with the independent reference in
reference.py, or with properties the method must have.  None of the checks
compares with a stored copy of earlier output.  `check` returns a list of
failures; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import pathlib

import numpy as np

import reference as ref
from op import DISTILL_WORKLOADS, GLYPHS_PER_CATEGORY, config_path

N_DRAWS = 24
# Central-difference step: far below the narrowest posterior transition of
# the workload mixtures (variance 0.01 at t = 0), far above round-off.
FD_STEP = 1e-6
RTOL = 1e-5


def _read(path: pathlib.Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(program, reference, rtol=RTOL) -> bool:
    program, reference = np.asarray(program, dtype=float), np.asarray(reference, dtype=float)
    return bool(np.max(np.abs(program - reference)) <= rtol * max(1.0, np.max(np.abs(reference))))


class DistillRun:
    """A distill output directory read back, with the workload's reference mixture."""

    def __init__(self, workload: str, out: pathlib.Path, seed: int):
        from recdistill.config import parse_config
        from recdistill.schedule import build_schedule

        cfg = config_path(workload)
        self.seed = seed
        self.mix = ref.Mixture.from_config(cfg)
        self.ini = ref.read_config(cfg)
        self.spec = parse_config(cfg)
        self.schedule = build_schedule(self.spec.num_steps, self.spec.beta_min, self.spec.beta_max)
        self.angles = ref.floats(self.ini["distill"].get("renderer_angles", ""))
        self.snapshots: dict[int, list] = {}
        for row in _read(out / "particles.csv"):
            theta = [float(v) for k, v in row.items() if k.startswith("x")]
            self.snapshots.setdefault(int(row["iter"]), []).append(theta)
        self.snapshots = {it: np.array(p) for it, p in self.snapshots.items()}
        self.ema: dict[int, np.ndarray] = {}
        for row in _read(out / "ema.csv"):
            self.ema.setdefault(int(row["iter"]), {})[(int(row["interval"]), int(row["category"]))] = float(row["value"])
        self.ema = {it: np.array([[cells[(i, c)] for c in range(self.mix.num_categories)]
                                  for i in range(len(cells) // self.mix.num_categories)])
                    for it, cells in self.ema.items()}
        self.metrics = [(int(r["iter"]), float(r["entropy"]),
                         np.array([float(r[f"split_{c}"]) for c in range(self.mix.num_categories)]))
                        for r in _read(out / "metrics.csv")]

    def render(self, theta, pose: int) -> np.ndarray:
        return theta.copy() if self.angles.size == 0 else ref.rotation(self.angles[pose]) @ theta

    def final_split(self) -> tuple[np.ndarray, float]:
        """Category split and mean-posterior entropy of the final particles, by the reference."""
        final = self.snapshots[max(self.snapshots)]
        post = np.array([self.mix.posterior(0, self.render(th, 0)) for th in final])
        split = np.bincount(np.argmax(post, axis=1), minlength=self.mix.num_categories) / len(final)
        return split, ref.categorical_entropy(post)

    def draws(self):
        """(t, x_t) at noisy renders of particles sampled from the run's snapshots."""
        rng = np.random.default_rng([self.seed, 1])
        iters = sorted(self.snapshots)
        for _ in range(N_DRAWS):
            parts = self.snapshots[iters[rng.integers(len(iters))]]
            theta = parts[rng.integers(len(parts))]
            t = int(rng.integers(1, self.mix.num_steps + 1))
            x0 = self.render(theta, int(rng.integers(self.mix.num_categories)))
            yield t, self.mix.alpha[t] * x0 + self.mix.sigma[t] * rng.standard_normal(self.mix.dim)


def _check_distill(workload: str, run: DistillRun) -> list[str]:
    from recdistill import distill, rectify, worldmodel

    fail = []
    if not all(np.all(np.isfinite(p)) for p in run.snapshots.values()):
        fail.append("non-finite particles")
        return fail
    last_iter, entropy, split = run.metrics[-1]
    ref_split, ref_entropy = run.final_split()
    if last_iter != max(run.snapshots) or not np.array_equal(split, ref_split) or not _close(entropy, ref_entropy, 1e-9):
        fail.append(f"final split {split} / entropy {entropy} differ from the reference {ref_split} / {ref_entropy}")
    m, sched = run.spec.mixture, run.schedule
    for t, x in run.draws():
        if not _close(worldmodel.score(m, sched, t, x),
                      ref.central_difference(lambda v: run.mix.log_density(t, v), x, FD_STEP)):
            fail.append(f"worldmodel.score differs from the reference gradient at t={t}, x={x}")
            break

    if run.spec.distill["method"] == "usd":
        rows = np.concatenate(list(run.ema.values()))
        if np.any(rows < 0) or not np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9):
            fail.append("EMA rows leave the probability simplex")
        # USD must not leave the particles as biased as the prior: the final
        # split is strictly closer to the uniform target than p(c).
        uniform = np.full(run.mix.num_categories, 1.0 / run.mix.num_categories)
        prior_gap = np.max(np.abs(run.mix.category_marginal() - uniform))
        if not np.max(np.abs(ref_split - uniform)) < prior_gap:
            fail.append(f"final split {ref_split} is no closer to uniform than the prior's {run.mix.category_marginal()}")

    rect = run.spec.rectifier
    if workload == "usd-twomode":
        final_ema = run.ema[max(run.ema)]
        floor = float(run.ini["rectifier"].get("epsilon_floor", "1e-4"))
        for t, x in run.draws():
            marginal = final_ema[min(t * len(final_ema) // run.mix.num_steps, len(final_ema) - 1)]
            weights = (1.0 / run.mix.num_categories) / np.maximum(marginal, floor)
            if not _close(rectify.grad_log_r(rect, m, sched, t, x, marginal),
                          ref.central_difference(lambda v: run.mix.log_r(t, v, weights), x, FD_STEP)):
                fail.append(f"rectify.grad_log_r differs from the reference gradient at t={t}, x={x}")
                break

    if workload == "ctrl-wide":
        target = int(run.ini["distill"]["control_category"])
        if ref_split[target] < 0.95:
            fail.append(f"only {ref_split[target]:.3f} of particles end in control category {target}")
        for t, x in run.draws():
            # the control correction grad log p(c*|x_t); a private helper of distill
            correction = distill._control_grad_log_posterior(m, sched, t, x, target)
            if not _close(correction,
                          ref.central_difference(lambda v: run.mix.log_posterior(t, v)[target], x, FD_STEP)):
                fail.append(f"control correction differs from the reference gradient at t={t}, x={x}")
                break
    return fail


def _check_glyphs(out: pathlib.Path) -> list[str]:
    labels = {r["image"]: r["category"] for r in _read(out / "glyphs" / "labels.csv")}
    rows = _read(out / "classify" / "probabilities.csv")
    fail = []
    if len(rows) != 4 * GLYPHS_PER_CATEGORY or {r["image"] for r in rows} != set(labels):
        fail.append(f"{len(rows)} classified images, expected the {4 * GLYPHS_PER_CATEGORY} generated")
        return fail
    cats = [k[2:] for k in rows[0] if k.startswith("p_")]
    probs = np.array([[float(r[f"p_{c}"]) for c in cats] for r in rows])
    if np.any(probs < 0) or np.any(probs > 1) or not np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        fail.append("a probability row is off the simplex")
    predicted = [cats[i] for i in np.argmax(probs, axis=1)]
    if predicted != [r["predicted"] for r in rows]:
        fail.append("'predicted' column is not the argmax of the probabilities")
    accuracy = np.mean([p == labels[r["image"]] for p, r in zip(predicted, rows)])
    if accuracy < 0.95:
        fail.append(f"accuracy {accuracy:.4f} < 0.95 against the generator's labels")
    reported = {r["category"]: r["precision"] for r in _read(out / "classify" / "summary.csv")}
    if float(reported["accuracy"]) != accuracy:
        fail.append(f"summary.csv accuracy {reported['accuracy']} != {accuracy}")
    return fail


def check(workload: str, out: pathlib.Path, seed: int) -> list[str]:
    if workload in DISTILL_WORKLOADS:
        return _check_distill(workload, DistillRun(workload, out / "distill", seed))
    return _check_glyphs(out)
