"""The byte-identity table: SHA-256 digests of short distillation and
classification runs.

    PYTHONPATH=src python tests/identity_table.py     # rewrites tests/identity/table.json

A distill run is `recdistill distill` on one of the benchmark's three
distill configs (copies under tests/identity/, cut to 50 iterations) or a
variant of one, at seeds 0-2.  The table holds the digest of its
particles.csv, ema.csv and metrics.csv and of its stdout line.  A glyph run
is `recdistill glyphs --per-category 25` at seeds 0-2, with the digest of
every file it writes (the corpus as one digest of its files' names and
digests), followed by `recdistill classify` of that corpus in each mode,
with the digests of the CSVs it writes.  A rectify-demo run (DEMO_RUNS)
holds the digest of every file it writes.  A metrics run (METRICS_RUNS)
reads the CSVs of the runs above and holds the digest of its metrics.csv.
Every run's stdout is hashed too, and the table keeps the Python, numpy and platform it was made on.
test_identity.py reruns every run and
compares: a change meant to keep outputs byte-identical must leave the
table as it is, and a change that alters outputs on purpose regenerates it
and names every entry that changed.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent / "identity"
PRESETS = HERE.parents[1] / "presets"
TABLE = HERE / "table.json"
SEEDS = (0, 1, 2)
OUTPUTS = ("particles.csv", "ema.csv", "metrics.csv")
GLYPHS_PER_CATEGORY = 25
# classify mode name -> its flags
CLASSIFY_MODES = {"full": [], "orient-only": ["--orient-only"], "texture-only": ["--texture-only"]}
CLASSIFY_OUTPUTS = ("probabilities.csv", "confusion.csv", "summary.csv")

# per base config: variant name -> {section: {key: value}} set over the base
_SOURCES = {
    "classifier-direct": {"rectifier": {"posterior_source": "classifier-direct"}},
    "fixed-presampled": {"rectifier": {"marginal_source": "fixed-presampled"}},
    "exact-mc": {"rectifier": {"marginal_source": "exact-mc"}},
    "align-off": {"distill": {"grad_norm_align": "false"}},
    "sds": {"distill": {"method": "sds"}},
    "vsd": {"distill": {"method": "vsd"}},
}
VARIANTS = {
    "usd-twomode": {
        "base": {},
        **_SOURCES,
        "classifier-on-tweedie": {"rectifier": {"posterior_source": "classifier-on-tweedie"}},
        "ctrl": {"distill": {"method": "ctrl", "control_category": "1"}},
        "omega-constant-one": {"distill": {"omega_kind": "constant-one"}},
    },
    "usd-tweedie-rot2d": {
        "base": {},
        **_SOURCES,
        "exact-mixture": {"rectifier": {"posterior_source": "exact-mixture"}},
        "pose-probs": {"distill": {"pose_probs": "0.7 0.3"}},
        # the base configs' covariances are diagonal, which `_components`
        # divides by; one off-diagonal pair keeps np.linalg.solve's path pinned
        "full-cov": {"mixture": {"components": "\n".join([
            "0.4 |  2.0  0.6 | 0.05 0.02 0.02 0.05 | 0",
            "0.4 |  2.0 -0.6 | 0.05 0.0 0.0 0.05 | 0",
            "0.2 | -2.0  0.0 | 0.05 0.0 0.0 0.05 | 1",
        ])}},
    },
    "ctrl-wide": {
        "base": {},
        "align-on": {"distill": {"grad_norm_align": "true"}},
    },
}


# rectify-demo runs: name -> (config file, {section: {key: value}} set over it)
DEMO_RUNS = {
    "twomode_rectify": (PRESETS / "twomode_rectify.cfg", {}),
    "twomode_rectify-grid": (PRESETS / "twomode_rectify.cfg", {"demo": {
        "grid_lo": "-5.5", "grid_hi": "7.25", "grid_points": "1021", "times": "0 1 999 1000"}}),
}


# metrics runs: name -> the options, each input file given as (table run key, file name)
METRICS_RUNS = {
    "probs": ["--probs", ("classify/full/0", "probabilities.csv")],
    "particles": ["--particles-a", ("usd-tweedie-rot2d/base/0", "particles.csv"),
                  "--particles-b", ("usd-tweedie-rot2d/sds/0", "particles.csv")],
    "marginal": ["--marginal", "0.7,0.2,0.1", "--target", "0.25,0.25,0.5"],
}


def environment() -> dict:
    """What the digests depend on besides the code: the interpreter, numpy,
    the platform and the SIMD targets numpy dispatches to on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}",
            "simd": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(work: pathlib.Path, source: pathlib.Path, overrides: dict, name: str) -> pathlib.Path:
    """The config file `source` with the overrides set over it, written to work/name.cfg."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(source)
    for section, values in overrides.items():
        for key, value in values.items():
            parser[section][key] = value
    path = work / f"{name}.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def _run(key: str, argv: list[str], work: pathlib.Path) -> str:
    """Run the CLI on argv; the digest of its stdout, with the directory
    `work` named as $WORK wherever it appears."""
    from recdistill import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{key}: {argv[0]} exited {rc}")
    return _sha(stdout.getvalue().replace(str(work), "$WORK").encode())


def digests(work) -> dict:
    """Run every (config, variant, seed), every glyph seed with its
    classify modes, every rectify-demo run and every metrics run under the
    directory `work`; the digests keyed "config/variant/seed", "glyphs/seed",
    "classify/mode/seed", "rectify-demo/name" and "metrics/name"."""
    work = pathlib.Path(work)
    out = {}
    for base, variants in VARIANTS.items():
        for variant, overrides in variants.items():
            cfg = _config(work, HERE / f"{base}.cfg", overrides, f"{base}-{variant}")
            for seed in SEEDS:
                key = f"{base}/{variant}/{seed}"
                run_dir = work / key.replace("/", "-")
                stdout = _run(key, ["distill", "--config", str(cfg), "--seed", str(seed),
                                    "--out-dir", str(run_dir)], work)
                out[key] = {name: _sha((run_dir / name).read_bytes()) for name in OUTPUTS}
                out[key]["stdout"] = stdout
    for seed in SEEDS:
        key = f"glyphs/{seed}"
        glyph_dir = work / key.replace("/", "-")
        stdout = _run(key, ["glyphs", "--per-category", str(GLYPHS_PER_CATEGORY), "--seed", str(seed),
                            "--out-dir", str(glyph_dir)], work)
        files = {str(p.relative_to(glyph_dir)): _sha(p.read_bytes())
                 for p in sorted(glyph_dir.rglob("*")) if p.is_file()}
        corpus = "".join(f"{name} {digest}\n" for name, digest in files.items() if name.startswith("corpus/"))
        out[key] = {name: digest for name, digest in files.items() if not name.startswith("corpus/")}
        out[key]["corpus"] = _sha(corpus.encode())
        out[key]["stdout"] = stdout
        for mode, flags in CLASSIFY_MODES.items():
            key = f"classify/{mode}/{seed}"
            run_dir = work / key.replace("/", "-")
            stdout = _run(key, ["classify", "--templates", str(glyph_dir / "templates"),
                                "--inputs", str(glyph_dir / "corpus"), "--out-dir", str(run_dir), *flags], work)
            out[key] = {name: _sha((run_dir / name).read_bytes()) for name in CLASSIFY_OUTPUTS}
            out[key]["stdout"] = stdout
    for name, (source, overrides) in DEMO_RUNS.items():
        key = f"rectify-demo/{name}"
        run_dir = work / key.replace("/", "-")
        stdout = _run(key, ["rectify-demo", "--config", str(_config(work, source, overrides, f"demo-{name}")),
                            "--out-dir", str(run_dir)], work)
        out[key] = {p.name: _sha(p.read_bytes()) for p in sorted(run_dir.iterdir())}
        out[key]["stdout"] = stdout
    for name, options in METRICS_RUNS.items():
        key = f"metrics/{name}"
        run_dir = work / key.replace("/", "-")
        argv = [a if isinstance(a, str) else str(work / a[0].replace("/", "-") / a[1]) for a in options]
        stdout = _run(key, ["metrics", *argv, "--out-dir", str(run_dir)], work)
        out[key] = {"metrics.csv": _sha((run_dir / "metrics.csv").read_bytes()), "stdout": stdout}
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        table = {"environment": environment(), "runs": digests(work)}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['runs'])} runs to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(main())
