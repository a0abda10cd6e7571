"""INI-style run configuration: mixture, schedule, rectifier, distillation.

`_KEYS` gives every section's keys and each key's cast.  Unknown sections
or keys fail fast with a diagnostic naming them, so a typo never silently
falls back to a default.  Besides the casts, this module checks only the
keys that no library call sees and the rules that tie two sections together."""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .distill import DistillConfig
from .errors import ConfigurationError
from .rectify import Rectifier, TargetMarginal
from .schedule import DiffusionSchedule, build_schedule, loss_weight
from .worldmodel import BOX, PoseLabeledMixture


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean (yes/no, true/false, on/off, 1/0)") from None


def _absent_if(word: str, cast):
    """cast, with the value `word` read as absent (None)."""
    return lambda text: None if text.strip() == word else cast(text)


_KEYS = {
    "mixture": {"components": str, "num_categories": int},
    "schedule": {"num_steps": int, "beta_min": float, "beta_max": float},
    "rectifier": {
        "target": _absent_if("uniform", _floats), "posterior_source": str.strip,
        "marginal_source": str.strip, "epsilon_floor": float, "fd_step": float,
    },
    "distill": {
        "method": str.strip, "eta1": float, "iters": int, "particles": int, "dim": int, "init_scale": float,
        "bnf_n_i": int, "grad_norm_align": _boolean, "control_category": _absent_if("", int),
        "omega_kind": str.strip, "n_t": int, "n_ema": int, "snapshot_every": int,
        "pose_probs": _absent_if("uniform", _floats), "renderer": str.strip, "renderer_angles": _floats,
    },
    "demo": {"grid_lo": float, "grid_hi": float, "grid_points": int,
             "times": lambda text: [int(tok) for tok in text.split()]},
}
_KNOWN_KEYS = {name: set(keys) for name, keys in _KEYS.items()}


@dataclass(frozen=True)
class RunSpec:
    """Parsed configuration for the CLI drivers; `schedule` is built here, once.
    `distill` holds DistillConfig's keyword arguments and the particle set's
    particles, dim, init_scale, renderer and renderer_angles, of which the
    library checks all but the first three, when the CLI builds from them."""

    mixture: PoseLabeledMixture
    num_steps: int
    beta_min: float
    beta_max: float
    schedule: DiffusionSchedule
    rectifier: Rectifier | None
    distill: dict
    demo: dict | None                 # rectify-demo grid settings; None without [demo]


def _value(section: str, key: str, text: str):
    """text through the key's cast; a value the cast rejects is a
    ConfigurationError naming the section and the key."""
    try:
        return _KEYS[section][key](text)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key} = {text}: {exc}") from exc


def _section(parser, name: str, **defaults) -> dict:
    """The defaults, updated with the values that section `name` of parser
    (a ConfigParser, or {} for none) sets, each through its cast."""
    given = parser[name] if name in parser else {}
    return {**defaults, **{key: _value(name, key, text) for key, text in given.items()}}


def _parse_mixture(values: dict) -> PoseLabeledMixture:
    weights, means, covs, cats = [], [], [], []
    for line in values["components"].strip().splitlines():
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
        d = means[0].size or 1          # the first component's mean sets every component's dimension
        if means[-1].size != d or covs[-1].size != d * d:
            raise ConfigurationError(
                f"[mixture] components line {line.strip()!r}: a mean of {means[-1].size} and a covariance of "
                f"{covs[-1].size} values, where a {d}-dimensional component needs {d} and {d * d}")
    if not means:
        raise ConfigurationError("[mixture] components lists no component")
    try:
        return PoseLabeledMixture(
            weights=np.array(weights),
            means=np.stack(means),
            covs=np.stack([c.reshape(d, d) for c in covs]),
            category_of=np.array(cats),
            num_categories=values["num_categories"],
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"[mixture] {exc}") from exc


def _parse_rectifier(parser, k: int) -> Rectifier:
    kwargs = _section(parser, "rectifier")
    probs = kwargs.pop("target", None)
    if probs is not None and probs.size != k:
        raise ConfigurationError(f"[rectifier] target has {probs.size} probabilities, the mixture has {k} categories")
    try:
        return Rectifier(target=TargetMarginal.uniform(k) if probs is None else TargetMarginal(probs), **kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[rectifier] {exc}") from exc


def _parse_distill(parser, dim: int) -> dict:
    out = _section(parser, "distill", method="usd", particles=16, dim=dim, init_scale=1.0,
                   renderer="identity", renderer_angles=())
    # distill.run stops a run as diverged once a particle leaves [-BOX, BOX]
    if not 0.0 <= out["init_scale"] <= BOX:
        raise ConfigurationError(f"[distill] init_scale = {out['init_scale']} must lie in [0, 1e6]")
    if out["particles"] < 1:
        raise ConfigurationError(f"[distill] particles = {out['particles']} must be at least 1")
    if out["dim"] != dim:
        raise ConfigurationError(f"[distill] dim = {out['dim']} does not match the mixture dimension {dim}")
    return out


def parse_demo(parser, num_steps: int) -> dict:
    """rectify-demo's grid settings from parser's [demo] section ({} gives
    the defaults), checked against the schedule's num_steps."""
    out = _section(parser, "demo", grid_lo=-8.0, grid_hi=8.0, grid_points=801, times=[50, 300, 700])
    bad = [t for t in out["times"] if not 0 <= t <= num_steps]
    if bad:
        raise ConfigurationError(f"[demo] times {bad} outside [0, {num_steps}]")
    # oracle.grid_integrate needs 16 points per axis
    if out["grid_points"] < 16:
        raise ConfigurationError(f"[demo] grid_points = {out['grid_points']} must be at least 16")
    # as distill.run keeps particles in [-BOX, BOX]; far beyond, the squared distances overflow
    for key in ("grid_lo", "grid_hi"):
        if not -BOX <= out[key] <= BOX:
            raise ConfigurationError(f"[demo] {key} = {out[key]} must be finite, within [-1e6, 1e6]")
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
    mixture = _parse_mixture(_section(parser, "mixture", num_categories=2))
    sched = _section(parser, "schedule", num_steps=1000, beta_min=1e-4, beta_max=0.02)
    rectifier = _parse_rectifier(parser, mixture.num_categories) if "rectifier" in parser else None
    distill = _parse_distill(parser, mixture.dim)
    try:
        schedule = build_schedule(sched["num_steps"], sched["beta_min"], sched["beta_max"])
    except ConfigurationError as exc:
        # all three keys decide whether sigma[T] reaches the noise endpoint
        raise ConfigurationError(f"[schedule] {', '.join(f'{k} = {v}' for k, v in sched.items())}: {exc}") from exc
    # the rules that tie [schedule] to [distill] hold only for a config with a [distill] section
    if "distill" in parser:
        # the EMA tracker splits the steps into n_t equal intervals (n_t < 1 fails in DistillConfig)
        n_t = distill.get("n_t", DistillConfig.n_t)
        if n_t >= 1 and sched["num_steps"] % n_t:
            raise ConfigurationError(
                f"[schedule] num_steps = {sched['num_steps']} is not divisible by [distill] n_t = {n_t}")
        # sigma-squared fails only where 1 - beta_min rounds to 1, so sigma[1] = 0
        if distill.get("omega_kind", DistillConfig.omega_kind) == "sigma-squared":
            try:
                loss_weight(schedule, "sigma-squared")
            except ConfigurationError as exc:
                raise ConfigurationError(f"[schedule] beta_min = {sched['beta_min']} gives sigma[1] = 0, "
                                         f"and [distill] omega_kind = sigma-squared: {exc}") from exc
    # without a [demo] section, rectify-demo checks the defaults against this schedule itself
    demo = parse_demo(parser, sched["num_steps"]) if "demo" in parser else None
    return RunSpec(mixture=mixture, schedule=schedule, rectifier=rectifier, distill=distill, demo=demo, **sched)
