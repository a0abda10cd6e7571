"""INI-style run configuration: mixture, schedule, rectifier, distillation.

Unknown sections or keys fail fast with a diagnostic naming them, so a
typo never silently falls back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .distill import DistillConfig
from .errors import ConfigurationError
from .rectify import MARGINAL_SOURCES, POSTERIOR_SOURCES, Rectifier, TargetMarginal
from .schedule import build_schedule, loss_weight
from .worldmodel import PoseLabeledMixture, Renderer

_KNOWN_KEYS = {
    "mixture": {"components", "num_categories"},
    "schedule": {"num_steps", "beta_min", "beta_max"},
    "rectifier": {"target", "posterior_source", "marginal_source", "epsilon_floor", "fd_step"},
    "distill": {
        "method", "eta1", "iters", "particles", "dim", "init_scale",
        "bnf_n_i", "grad_norm_align", "control_category", "omega_kind",
        "n_t", "n_ema", "snapshot_every", "pose_probs", "renderer", "renderer_angles",
    },
    "demo": {"grid_lo", "grid_hi", "grid_points", "times"},
}


@dataclass(frozen=True)
class RunSpec:
    """Parsed configuration for the CLI drivers."""

    mixture: PoseLabeledMixture
    num_steps: int
    beta_min: float
    beta_max: float
    rectifier: Rectifier | None
    distill: dict                     # DistillConfig kwargs + particle-init keys
    demo: dict | None                 # rectify-demo grid settings; None without [demo]


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean (yes/no, true/false, on/off, 1/0)") from None


def _value(section, name: str, key: str, cast, default: str | None = None):
    """section[key], or the default, through cast; a value the cast rejects
    is a ConfigurationError naming the section and the key."""
    text = section.get(key, default)
    try:
        return cast(text)
    except ValueError as exc:
        raise ConfigurationError(f"[{name}] {key} = {text}: {exc}") from exc


def _parse_mixture(section) -> PoseLabeledMixture:
    num_categories = _value(section, "mixture", "num_categories", int, "2")
    weights, means, covs, cats = [], [], [], []
    for line in section["components"].strip().splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise ConfigurationError(
                f"component line needs 'weight | mean | cov | category', got {line.strip()!r}"
            )
        try:
            weights.append(float(fields[0]))
            means.append(_floats(fields[1]))
            covs.append(_floats(fields[2]))
            cats.append(int(fields[3]))
        except ValueError as exc:
            raise ConfigurationError(f"[mixture] components line {line.strip()!r}: {exc}") from exc
    if not means:
        raise ConfigurationError("[mixture] components lists no component")
    d = means[0].size
    try:
        return PoseLabeledMixture(
            weights=np.array(weights),
            means=np.stack(means),
            covs=np.stack([c.reshape(d, d) for c in covs]),
            category_of=np.array(cats),
            num_categories=num_categories,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"[mixture] {exc}") from exc


def _parse_rectifier(section, k: int) -> Rectifier:
    kwargs = {}
    if "posterior_source" in section:
        kwargs["posterior_source"] = section["posterior_source"].strip()
    if "marginal_source" in section:
        kwargs["marginal_source"] = section["marginal_source"].strip()
    for key in ("epsilon_floor", "fd_step"):
        if key in section:
            kwargs[key] = _value(section, "rectifier", key, float)
    probs = None
    if section.get("target", "uniform").strip() != "uniform":
        probs = _value(section, "rectifier", "target", _floats)
        if probs.size != k:
            raise ConfigurationError(f"[rectifier] target has {probs.size} probabilities, the mixture has {k} categories")
    try:
        kwargs["target"] = TargetMarginal.uniform(k) if probs is None else TargetMarginal(probs)
        return Rectifier(**kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[rectifier] {exc}") from exc


def _parse_distill(section, k: int, dim: int) -> dict:
    out = {
        "method": section.get("method", "usd").strip(),
        "particles": _value(section, "distill", "particles", int, "16"),
        "dim": _value(section, "distill", "dim", int, str(dim)),
        "init_scale": _value(section, "distill", "init_scale", float, "1.0"),
    }
    for key, cast in [
        ("eta1", float), ("iters", int), ("bnf_n_i", int), ("n_t", int),
        ("n_ema", int), ("snapshot_every", int), ("grad_norm_align", _boolean),
    ]:
        if key in section:
            out[key] = _value(section, "distill", key, cast)
    if "control_category" in section and section["control_category"].strip():
        out["control_category"] = _value(section, "distill", "control_category", int)
        if not 0 <= out["control_category"] < k:
            raise ConfigurationError(f"[distill] control_category {out['control_category']} outside [0, {k})")
    if "omega_kind" in section:
        out["omega_kind"] = section["omega_kind"].strip()
    if "pose_probs" in section and section["pose_probs"].strip() != "uniform":
        probs = _value(section, "distill", "pose_probs", _floats)
        if probs.size != k or not np.all(probs >= 0) or not abs(np.sum(probs) - 1.0) <= 1e-9:   # NaN fails both
            raise ConfigurationError(f"[distill] pose_probs must be {k} finite, non-negative probabilities summing to 1")
        out["pose_probs"] = probs
    angles = tuple(_value(section, "distill", "renderer_angles", _floats, ""))
    try:
        out["renderer"] = Renderer(kind=section.get("renderer", "identity").strip(), angles=angles)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[distill] {exc}") from exc
    if out["renderer"].kind == "rotation" and len(angles) != k:
        raise ConfigurationError(f"[distill] renderer_angles has {len(angles)} angles, need one per category ({k})")
    # distill.run stops a run as diverged once a particle leaves [-1e6, 1e6]
    if not 0.0 <= out["init_scale"] <= 1e6:
        raise ConfigurationError(f"[distill] init_scale = {out['init_scale']} must lie in [0, 1e6]")
    if out["particles"] < 1:
        raise ConfigurationError(f"[distill] particles = {out['particles']} must be at least 1")
    if out["dim"] != dim:
        raise ConfigurationError(f"[distill] dim = {out['dim']} does not match the mixture dimension {dim}")
    if out["renderer"].kind == "rotation" and dim != 2:
        raise ConfigurationError(f"[distill] renderer = rotation needs a 2D mixture, got dimension {dim}")
    return out


def _check_schedule(num_steps: int, beta_min: float, beta_max: float, omega_kind: str | None) -> None:
    """Build the schedule, and its loss weight unless omega_kind is None,
    so that a value they reject fails at parse time naming its keys."""
    try:
        schedule = build_schedule(num_steps, beta_min, beta_max)
    except ConfigurationError as exc:
        # all three keys decide whether sigma[T] reaches the noise endpoint
        raise ConfigurationError(
            f"[schedule] num_steps = {num_steps}, beta_min = {beta_min}, beta_max = {beta_max}: {exc}") from exc
    if omega_kind is None:
        return
    try:
        loss_weight(schedule, omega_kind)
    except ConfigurationError as exc:
        # sigma-squared fails only where 1 - beta_min rounds to 1, so sigma[1] = 0
        key = (f"[schedule] beta_min = {beta_min} gives sigma[1] = 0, and [distill] omega_kind = sigma-squared"
               if omega_kind == "sigma-squared" else f"[distill] omega_kind = {omega_kind}")
        raise ConfigurationError(f"{key}: {exc}") from exc


def parse_demo(section, num_steps: int) -> dict:
    """rectify-demo's grid settings from a [demo] section ({} gives the
    defaults), checked against the schedule's num_steps."""
    out = {
        "grid_lo": _value(section, "demo", "grid_lo", float, "-8.0"),
        "grid_hi": _value(section, "demo", "grid_hi", float, "8.0"),
        "grid_points": _value(section, "demo", "grid_points", int, "801"),
        "times": _value(section, "demo", "times", _ints, "50 300 700"),
    }
    bad = [t for t in out["times"] if not 0 <= t <= num_steps]
    if bad:
        raise ConfigurationError(f"[demo] times {bad} outside [0, {num_steps}]")
    # oracle.grid_integrate needs 16 points per axis
    if out["grid_points"] < 16:
        raise ConfigurationError(f"[demo] grid_points = {out['grid_points']} must be at least 16")
    for key in ("grid_lo", "grid_hi"):
        if not np.isfinite(out[key]):
            raise ConfigurationError(f"[demo] {key} = {out[key]} must be finite")
    if not out["grid_lo"] < out["grid_hi"]:
        raise ConfigurationError(f"[demo] grid_lo = {out['grid_lo']} must be below grid_hi = {out['grid_hi']}")
    return out


def parse_config(path) -> RunSpec:
    """Read and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())     # configparser messages span lines
        raise ConfigurationError(f"malformed config file {path}: {detail}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown config section [{name}]")
        unknown = set(parser[name]) - _KNOWN_KEYS[name]
        if unknown:
            raise ConfigurationError(f"unknown key(s) in [{name}]: {sorted(unknown)}")
    if "mixture" not in parser or "components" not in parser["mixture"]:
        raise ConfigurationError("config needs a [mixture] section with a 'components' key")
    mixture = _parse_mixture(parser["mixture"])
    sched = parser["schedule"] if "schedule" in parser else {}
    num_steps = _value(sched, "schedule", "num_steps", int, "1000")
    rectifier = None
    if "rectifier" in parser:
        rectifier = _parse_rectifier(parser["rectifier"], mixture.num_categories)
    distill = _parse_distill(parser["distill"] if "distill" in parser else {}, mixture.num_categories, mixture.dim)
    # the EMA tracker splits the steps into n_t equal intervals (n_t < 1 fails in DistillConfig)
    n_t = distill.get("n_t", DistillConfig.n_t)
    if "distill" in parser and n_t >= 1 and num_steps % n_t:
        raise ConfigurationError(f"[schedule] num_steps = {num_steps} is not divisible by [distill] n_t = {n_t}")
    beta_min = _value(sched, "schedule", "beta_min", float, "1e-4")
    beta_max = _value(sched, "schedule", "beta_max", float, "0.02")
    # like n_t, the loss weight is checked only for a config with a [distill] section
    omega_kind = distill.get("omega_kind", DistillConfig.omega_kind) if "distill" in parser else None
    _check_schedule(num_steps, beta_min, beta_max, omega_kind)
    # without a [demo] section, rectify-demo checks the defaults against this schedule itself
    demo = parse_demo(parser["demo"], num_steps) if "demo" in parser else None
    return RunSpec(
        mixture=mixture,
        num_steps=num_steps,
        beta_min=beta_min,
        beta_max=beta_max,
        rectifier=rectifier,
        distill=distill,
        demo=demo,
    )
