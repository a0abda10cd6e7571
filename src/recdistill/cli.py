"""Command-line experiment runner.

Subcommands:
  rectify-demo  density grids before/after marginal rectification
  distill       run a configured SDS/VSD/USD/CTRL optimization
  classify      pose-classify a directory of glyph images
  metrics       entropy / Frechet / total-variation statistics from CSVs
  glyphs        generate a labelled glyph corpus as PGM files

Every subcommand is a pure function of (config, seed): outputs are
byte-identical across repeated runs.

Exit codes: 0 success; 2 invalid configuration or input, or a file that
cannot be read or written (an OSError, such as a missing input or an
--out-dir that is a file); 3 a run that diverged or produced a non-finite
value.  `config` checks the casts, the keys only a config file has and the
rules that tie two sections together; the library checks the other
[distill] values before a run's first draw, and `cmd_distill` names the
section.  Exit 2 covers, among others, a mixture weight above 1 or not
finite, a non-finite mean, covariance, target or pose_probs, a mixture
mean outside [-1e6, 1e6] or covariance eigenvalue below
`worldmodel.covariance_floor`, a [mixture] components line whose mean or
covariance has another length than the first line's, a [schedule] value
that gives no valid schedule or loss weight, a [demo] grid bound outside
[-1e6, 1e6], a rectify-demo grid too coarse for the prior or holding none
of its mass, a negative --seed, a PGM file with a malformed header, short
pixel data, another size than 64x64 or no foreground to segment, a
non-finite `metrics` probability, a `metrics` marginal or target off the
probability simplex, and a `metrics` option without its partner
(--marginal and --target, --particles-a and --particles-b).  Failures
print one `error:` line on stderr and leave
--out-dir as it was: a command writes into a hidden directory inside it
and moves the files in only when it succeeds (see `_staged`).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import os
import pathlib
import shutil
import sys
import tempfile
import warnings

import numpy as np

from . import classifier as C
from . import distill as D
from . import rectify, worldmodel
from .config import parse_config, parse_demo
from .errors import ConfigurationError, DivergenceError, NumericError, SegmentationError
from .metrics import categorical_entropy, gaussian_frechet, marginal_tv, on_simplex
from .oracle import ResolutionWarning, grid_integrate


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# rectify-demo
# ---------------------------------------------------------------------------


def cmd_rectify_demo(args, out) -> int:
    spec = parse_config(args.config)
    m = spec.mixture
    if m.dim != 1:
        raise ConfigurationError("rectify-demo grids are 1D; use a 1D mixture")
    rect = spec.rectifier
    if rect is None:
        raise ConfigurationError("rectify-demo needs a [rectifier] section")
    demo = spec.demo if spec.demo is not None else parse_demo({}, spec.num_steps)
    grid = np.linspace(demo["grid_lo"], demo["grid_hi"], demo["grid_points"])
    x = grid[:, None]
    rows = [[_fmt(g), _fmt(p), _fmt(q)] for g, p, q in zip(
        grid, worldmodel.density(m, x), rectify.rectified_density(m, rect.target, x))]
    D.write_rows(out / "density_clean.csv", ["x", "p", "p_rectified"], rows)
    for t in demo["times"]:
        rows = [[_fmt(g), _fmt(p), _fmt(q)] for g, p, q in zip(
            grid,
            worldmodel.noisy_density(m, spec.schedule, t, x),
            rectify.rectified_noisy_density(m, spec.schedule, t, rect.target, x))]
        D.write_rows(out / f"density_t{t}.csv", ["x", "p", "p_rectified"], rows)
    # category marginal of the rectified joint w(c) * p(c|x) * p(x)
    w = rectify.weight_function(rect.target, m.category_weights())
    box, npts = [(demo["grid_lo"], demo["grid_hi"])], demo["grid_points"]
    grid_keys = f"[demo] grid_lo = {demo['grid_lo']}, grid_hi = {demo['grid_hi']}, grid_points = {npts}"
    mass = np.empty(m.num_categories)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)       # an unresolved integral is no marginal
        try:
            for c in range(m.num_categories):
                def cat_mass(pts, c=c):
                    post = worldmodel.category_posterior(m, None, 0, pts)
                    return worldmodel.density(m, pts) * w[c] * post[..., c]
                mass[c] = grid_integrate(cat_mass, box, npts)
        except ResolutionWarning as exc:
            raise ConfigurationError(f"{grid_keys}: {exc}") from None
    if not mass.sum() > 0:
        raise ConfigurationError(f"{grid_keys}: the grid holds no prior mass")
    mass /= mass.sum()
    tv = marginal_tv(mass, rect.target.probs)
    D.write_rows(out / "marginal_report.csv",
                 ["category", "rectified_marginal", "target"],
                 [[c, _fmt(mass[c]), _fmt(rect.target.probs[c])] for c in range(m.num_categories)])
    print(f"rectified marginal TV to target: {tv:.3e}")
    return 0


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------


def cmd_distill(args, out) -> int:
    spec = parse_config(args.config)
    kwargs = dict(spec.distill)
    n, dim, init_scale = kwargs.pop("particles"), kwargs.pop("dim"), kwargs.pop("init_scale")
    try:
        renderer = worldmodel.Renderer(kwargs.pop("renderer"), tuple(kwargs.pop("renderer_angles")))
        cfg = D.DistillConfig(rectifier=spec.rectifier, **kwargs)
        ps = D.ParticleSet.initialise(n, dim, renderer, seed=args.seed, scale=init_scale)
        report = D.run(ps, spec.mixture, spec.schedule, cfg)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[distill] {exc}") from exc
    D.write_report(report, out)
    it, split, entropy = report.metrics[-1]
    print(f"{cfg.method} finished: split {np.round(split, 4).tolist()}, entropy {entropy:.4f}")
    return 0


# ---------------------------------------------------------------------------
# classify / glyphs
# ---------------------------------------------------------------------------


# images read and classified per pass: the chunk bounds the pixel stack and
# its feature arrays (the orientation tiles bound the distance block).  On
# 800 glyphs, classify's peak RSS is 39 MiB in chunks of 16, against 103 MiB
# as one stack (x86-64, numpy 2.4).  A row's probabilities do not depend on
# the chunking, so outputs do not either.
CLASSIFY_CHUNK = 16


def _classify_mode(args) -> str:
    if args.orient_only and args.texture_only:
        raise ConfigurationError("--orient-only and --texture-only are mutually exclusive")
    if args.orient_only:
        return "orientation-only"
    if args.texture_only:
        return "texture-only"
    return "full"


def _on_stack(fn, paths):
    """fn of the (N, 64, 64) stack of the PGM images at paths; an image that
    cannot be read, is not 64x64 or cannot be segmented is named in the error."""
    stack = np.empty((len(paths), C.IMG_SIZE, C.IMG_SIZE))
    for row, path in zip(stack, paths):
        pixels = C.read_pgm(path)
        if pixels.shape != row.shape:
            raise ConfigurationError(f"{path}: expected {C.IMG_SIZE}x{C.IMG_SIZE} image, got {pixels.shape}")
        row[:] = pixels
    try:
        return fn(stack)
    except SegmentationError as exc:
        raise ConfigurationError(f"{paths[exc.row]}: {exc}") from None


def _load_classifier(template_dir) -> C.PoseClassifier:
    paths = [pathlib.Path(template_dir) / f"{cat}.pgm" for cat in C.CATEGORIES]
    for cat, path in zip(C.CATEGORIES, paths):
        if not path.exists():
            raise ConfigurationError(f"missing template image for category {cat!r}: {path}")
    return C.PoseClassifier(templates=_on_stack(lambda stack: C.build_template(stack, C.CATEGORIES), paths))


def cmd_classify(args, out) -> int:
    pc = _load_classifier(args.templates)
    mode = _classify_mode(args)
    paths = sorted(pathlib.Path(args.inputs).glob("*.pgm"))
    if not paths:
        raise ConfigurationError(f"no .pgm images under {args.inputs}")
    probs = np.concatenate([_on_stack(lambda stack: C.classify(pc, stack, mode=mode), paths[i : i + CLASSIFY_CHUNK])
                            for i in range(0, len(paths), CLASSIFY_CHUNK)])
    rows = []
    for path, p in zip(paths, probs):
        pred = pc.categories[int(np.argmax(p))]
        rows.append([path.name] + [_fmt(v) for v in p] + [pred])
    D.write_rows(out / "probabilities.csv",
                 ["image"] + [f"p_{c}" for c in pc.categories] + ["predicted"], rows)
    # labelled evaluation when filenames carry a category prefix like front_012.pgm
    labelled = [(p, pr) for p, pr in zip(paths, probs) if p.name.split("_")[0] in C.CATEGORIES]
    if labelled:
        k = len(pc.categories)
        conf = np.zeros((k, k), dtype=int)
        for path, p in labelled:
            conf[pc.categories.index(path.name.split("_")[0]), int(np.argmax(p))] += 1
        D.write_rows(out / "confusion.csv",
                     ["true\\pred"] + list(pc.categories),
                     [[pc.categories[i]] + conf[i].tolist() for i in range(k)])
        support = conf.sum(axis=1)
        predicted = conf.sum(axis=0)
        diag = np.diag(conf)
        rows = []
        for i, cat in enumerate(pc.categories):
            precision = diag[i] / predicted[i] if predicted[i] else 0.0
            recall = diag[i] / support[i] if support[i] else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            rows.append([cat, _fmt(precision), _fmt(recall), _fmt(f1), int(support[i])])
        rows.append(["accuracy", _fmt(diag.sum() / conf.sum()), "", "", int(conf.sum())])
        D.write_rows(out / "summary.csv", ["category", "precision", "recall", "f1", "support"], rows)
        print(f"accuracy {diag.sum() / conf.sum():.4f} over {conf.sum()} labelled images")
    return 0


def cmd_glyphs(args, out) -> int:
    if args.per_category < 1:
        raise ConfigurationError(f"--per-category {args.per_category} must be at least 1")
    (out / "corpus").mkdir()
    (out / "templates").mkdir()
    for cat, img in C.template_images().items():
        C.write_pgm(out / "templates" / f"{cat}.pgm", img.pixels)
    corpus = C.generate_corpus(args.per_category, seed=args.seed)
    rows = []
    counters = {}
    for img in corpus:
        idx = counters.get(img.true_category, 0)
        counters[img.true_category] = idx + 1
        name = f"{img.true_category}_{idx:03d}.pgm"
        C.write_pgm(out / "corpus" / name, img.pixels)
        rows.append([name, img.true_category])
    D.write_rows(out / "labels.csv", ["image", "category"], rows)
    print(f"wrote {len(corpus)} corpus glyphs and {len(C.CATEGORIES)} templates under {pathlib.Path(args.out_dir)}")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _read_columns(path, pick):
    """A CSV's data rows as a float matrix of the columns pick(header)
    lists.  An empty file, no columns to read, a header with no data rows
    and a row whose length differs from the header's are errors naming the
    file and the row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ConfigurationError(f"{path}: empty file, expected a header row")
        cols = list(pick(header))
        if not cols:
            raise ConfigurationError(f"{path}: no columns to read in header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigurationError(f"{path}: row {lineno} has {len(row)} fields, the header {len(header)}")
            try:
                rows.append([float(row[i]) for i in cols])
            except ValueError as exc:
                raise ConfigurationError(f"{path}: malformed row {lineno}: {exc}") from exc
    if not rows:
        raise ConfigurationError(f"{path}: no data rows below the header")
    return np.array(rows)


def _probability_columns(header):
    """Columns headed p_* if present, else all."""
    return [i for i, name in enumerate(header) if name.startswith("p_")] or range(len(header))


def _probability_option(name, text) -> np.ndarray:
    """A comma-separated probability vector given as --name; one that is
    malformed or off the probability simplex (with categorical_entropy's
    tolerances) is an error naming the option."""
    try:
        p = np.array([float(v) for v in text.split(",")])
        if not on_simplex(p):
            raise ValueError("must be finite probabilities, each at least -1e-12, summing to 1 within 1e-8")
    except ValueError as exc:
        raise ConfigurationError(f"--{name} {text}: {exc}") from exc
    return p


def cmd_metrics(args, out) -> int:
    for a, b in (("particles_a", "particles_b"), ("marginal", "target")):
        if (vars(args)[a] is None) != (vars(args)[b] is None):
            given, missing = (a, b) if vars(args)[b] is None else (b, a)
            raise ConfigurationError(f"--{given.replace('_', '-')} needs --{missing.replace('_', '-')}")
    rows = []
    if args.probs:
        mat = _read_columns(args.probs, _probability_columns)
        report = categorical_entropy(mat)
        rows.append(["entropy", _fmt(report.entropy)])
        for i, v in enumerate(report.mean_probs):
            rows.append([f"mean_prob_{i}", _fmt(v)])
    if args.particles_a is not None:
        # particles.csv: iter, particle, then the coordinates
        a = _read_columns(args.particles_a, lambda header: range(2, len(header)))
        b = _read_columns(args.particles_b, lambda header: range(2, len(header)))
        rows.append(["frechet", _fmt(gaussian_frechet(a, b))])
    if args.marginal is not None:
        p, q = _probability_option("marginal", args.marginal), _probability_option("target", args.target)
        rows.append(["marginal_tv", _fmt(marginal_tv(p, q))])
    if not rows:
        raise ConfigurationError("metrics: no inputs given (see --probs/--particles-a/--marginal)")
    D.write_rows(out / "metrics.csv", ["metric", "value"], rows)
    for name, value in rows:
        print(f"{name} = {value}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recdistill", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rectify-demo", help="density grids before/after rectification")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_rectify_demo)

    p = sub.add_parser("distill", help="run a configured distillation")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("classify", help="pose-classify PGM images")
    p.add_argument("--templates", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--orient-only", action="store_true")
    p.add_argument("--texture-only", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("metrics", help="entropy / Frechet / TV from CSVs")
    p.add_argument("--probs")
    p.add_argument("--particles-a")
    p.add_argument("--particles-b")
    p.add_argument("--marginal")
    p.add_argument("--target")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("glyphs", help="generate a labelled glyph corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-category", type=int, default=100)
    p.set_defaults(fn=cmd_glyphs)
    return parser


@contextlib.contextmanager
def _staged(out_dir):
    """A new hidden directory inside out_dir for a command to write into;
    its files move into out_dir when the command succeeds.  Staging inside
    out_dir needs only out_dir to be writable and keeps every move on one
    filesystem.  A command that fails leaves out_dir as it was: the staging
    directory goes, and so do out_dir and the directories above it that were
    made here, bottom-up, as long as they are empty.  A file and a directory
    sharing a name are found before anything moves; only an I/O error while
    moving can leave out_dir part-updated.  An out_dir that is (or lies
    under) a file, or that cannot be made, fails before the command runs."""
    out = pathlib.Path(out_dir)
    made = []
    try:
        for p in reversed((out, *out.parents)):
            if not p.is_dir():
                try:
                    p.mkdir()
                    made.append(p)
                except FileExistsError:
                    if not p.is_dir():      # else made meanwhile by another process
                        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(p)) from None
        stage = pathlib.Path(tempfile.mkdtemp(prefix=".stage.", dir=out))
        try:
            yield stage
            _move_into(stage, out, check=True)
            _move_into(stage, out, check=False)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        for p in reversed(made):
            try:
                p.rmdir()
            except OSError:                 # not empty: another process writes there too
                break
        raise


def _move_into(src: pathlib.Path, dst: pathlib.Path, check: bool) -> None:
    """Move src's entries into dst, merging into directories dst already has;
    with check, move nothing and raise where a move would meet a file and a
    directory sharing a name."""
    for entry in src.iterdir():
        target = dst / entry.name
        if entry.is_dir() and target.is_dir():
            _move_into(entry, target, check)
        elif not check:
            os.replace(entry, target)
        elif target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        elif entry.is_dir() and target.exists():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(target))


def _error(exc: Exception, code: int) -> int:
    # one line even when the message quotes a multi-line config value
    print("error: " + " ".join(str(exc).split()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if vars(args).get("seed", 0) < 0:          # numpy's generators take none
            raise ConfigurationError(f"--seed {args.seed} must be a non-negative integer")
        with _staged(args.out_dir) as out:
            return args.fn(args, out)
    except (ConfigurationError, ValueError, OSError) as exc:
        return _error(exc, 2)
    except (DivergenceError, NumericError) as exc:
        return _error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
