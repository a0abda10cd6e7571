"""Training-free pose classifier on a synthetic glyph corpus.

Four pose categories: ``front`` / ``back`` share a silhouette and differ in
interior texture (stripes vs. dots); ``left`` / ``right`` are exact mirror
images of an asymmetric arrow.  Every glyph carries a left-to-right
intensity ramp so that patch features encode horizontal position, which is
what the patch-matching orientation score keys on.

The classifier combines a cosine texture similarity of global features with
a patch-matching orientation similarity, multiplies them after min-max
normalisation (an and-gate: a category wins only if both families agree),
and sharpens with a low-temperature softmax.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import worldmodel
from .errors import SegmentationError
from .estimator import tweedie_x0

IMG_SIZE = 64
GRID_SIZE = 16
PATCH = IMG_SIZE // GRID_SIZE
NUM_FEATURES = 4
CATEGORIES = ("front", "back", "left", "right")

# Expected-foreground descriptor: glyph patches carry gradient energy and
# variance, flat background carries none.  Deliberately ignores the mean
# channel so contrast inversion does not flip the segmentation sign.
DEFAULT_FOREGROUND_HINT = np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3.0)

# rows of the (input patches x template patches) block that the orientation
# pass handles at a time: each of its two float buffers is then about
# 256 x 157 x 8 B = 320 KiB and stays in L2 cache
ORIENTATION_TILE = 256

TAU_PAT = 0.01          # softmax temperature of the orientation match over a template's patches
TAU_POSE = 0.05         # softmax temperature of `classify` over the fused pose scores
KERNEL_WIDTH = 0.25     # width of the Gaussian kernel CorpusDenoiser centres on each stack image


@dataclass(frozen=True)
class GlyphImage:
    pixels: np.ndarray                 # (64, 64) in [0, 1]
    true_category: str | None = None


@dataclass(frozen=True)
class FeatureMap:
    cls: np.ndarray                    # (N, NUM_FEATURES)
    patches: np.ndarray                # (N, GRID_SIZE, GRID_SIZE, NUM_FEATURES)


@dataclass(frozen=True)
class PoseClassifier:
    """The template table `classify` reads: each category's global descriptor,
    and every template's distinct foreground (descriptor, coordinate) rows with
    their counts, template after template from row starts[k]."""

    categories: tuple[str, ...]
    cls: np.ndarray                    # (K, NUM_FEATURES) global descriptors
    distinct: np.ndarray               # (U, NUM_FEATURES + 1) distinct foreground rows
    counts: np.ndarray                 # (U,) foreground patches equal to each distinct row, as floats
    starts: np.ndarray                 # (K,) first row of each template

    def __post_init__(self):
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("one template per category required")
        # np.add.reduceat reads an empty segment as the next one's first row
        if np.any(np.diff(self.starts, append=len(self.counts)) < 1):
            raise ValueError("every template needs at least one foreground row")

    @classmethod
    def from_images(cls, images: dict[str, GlyphImage]) -> "PoseClassifier":
        return build_template(np.stack([img.pixels for img in images.values()]), tuple(images))


# ---------------------------------------------------------------------------
# Glyph corpus
# ---------------------------------------------------------------------------

def _ramp(col: np.ndarray, lo_col: float, hi_col: float) -> np.ndarray:
    frac = np.clip((col - lo_col) / max(hi_col - lo_col, 1.0), 0.0, 1.0)
    return 0.35 + 0.6 * frac


def _patterns() -> dict[str, np.ndarray]:
    """Every category's unjittered image, all built on one pixel grid.

    Left and right share the right-pointing arrow; `_glyph` mirrors left.
    Front and back share an oval silhouette and the horizontal ramp.
    """
    rows, cols = np.mgrid[0:IMG_SIZE, 0:IMG_SIZE]
    # arrow: a long shaft and a large triangular head
    shaft = (rows >= 22) & (rows <= 42) & (cols >= 4) & (cols <= 38)
    half = np.round(16.0 * (58 - cols) / 20.0)
    head = (cols >= 38) & (cols <= 58) & (np.abs(rows - 32) <= half)
    arrow = np.where(shaft | head, _ramp(cols, 4, 58), 0.0)
    oval = ((cols - 32.0) / 18.0) ** 2 + ((rows - 32.0) / 26.0) ** 2 <= 1.0
    ramp = _ramp(cols, 14, 50)
    # front: vertical stripes; back: a dot lattice whose base level gives
    # front and back the same mean intensity (0.25 * 1.0 + 0.75 * base =
    # 0.725, the stripe average): patch matching then aligns on position,
    # leaving texture to the cls channel
    stripes = np.where((cols // 3) % 2 == 0, 1.0, 0.45)
    dots = np.where((rows % 6 < 3) & (cols % 6 < 3), 1.0, 0.475 / 0.75)
    return {"front": np.where(oval, ramp * stripes, 0.0), "back": np.where(oval, ramp * dots, 0.0),
            "left": arrow, "right": arrow}


def _jitter(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    dy, dx = rng.integers(-3, 4, size=2)
    out = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
    noise = rng.normal(1.0, 0.05, size=out.shape)
    return np.where(out > 0, np.clip(out * noise, 0.05, 1.0), 0.0)


def _glyph(patterns: dict[str, np.ndarray], category: str, jitter_seed: int | None) -> GlyphImage:
    """One category's glyph from `_patterns()`: jittered, then mirrored for
    left (so a left glyph mirrors the right glyph of the same seed), then
    clipped to [0, 1]."""
    img = patterns[category]
    if jitter_seed is not None:
        img = _jitter(img, np.random.default_rng(jitter_seed))
    if category == "left":
        img = img[:, ::-1]
    return GlyphImage(pixels=np.clip(img, 0.0, 1.0), true_category=category)


def generate_corpus(per_category: int, seed: int = 0) -> Iterator[GlyphImage]:
    """Labelled jittered glyphs, per_category of each pose, category by
    category, made one at a time as they are taken."""
    patterns = _patterns()
    return (_glyph(patterns, cat, seed + 10_000 * ci + j)
            for ci, cat in enumerate(CATEGORIES) for j in range(per_category))


def template_images() -> dict[str, GlyphImage]:
    """Canonical (unjittered) glyph per category, used as templates."""
    patterns = _patterns()
    return {cat: _glyph(patterns, cat, None) for cat in CATEGORIES}


# ---------------------------------------------------------------------------
# Features, segmentation, coordinates
#
# Every function below takes a stack of images (or of their features) with
# the image index first; a single image is a one-row stack.  Each row's
# result depends on that row alone, bitwise, whatever stack it sits in.
# ---------------------------------------------------------------------------

def extract_features(pixels: np.ndarray) -> FeatureMap:
    """Per-patch descriptors plus an intensity-weighted global descriptor
    for an (N, 64, 64) stack.

    Channels: mean intensity, horizontal gradient energy, vertical gradient
    energy, variance.  All four are invariant to mirroring a patch, so the
    patch grid of a mirrored image is the column-reversed grid.
    """
    px = np.asarray(pixels, dtype=float)
    if px.ndim != 3 or px.shape[1:] != (IMG_SIZE, IMG_SIZE):
        raise ValueError(f"expected an (N, {IMG_SIZE}, {IMG_SIZE}) image stack, got shape {px.shape}")
    # planes[r, c] is pixel (r, c) of every patch, in one contiguous copy.  A
    # patch sum adds along each patch row, then down the rows: the order numpy
    # reduces a patch of the strided block view in, so the bits are its mean,
    # mean |diff| and var, without its slow short-inner-loop reduction
    planes = px.reshape(-1, GRID_SIZE, PATCH, GRID_SIZE, PATCH).transpose(2, 4, 0, 1, 3).copy()
    mean = planes.sum(axis=1).sum(axis=0) / PATCH**2
    hgrad = np.abs(np.diff(planes, axis=1)).sum(axis=1).sum(axis=0) / (PATCH * (PATCH - 1))
    vgrad = np.abs(np.diff(planes, axis=0)).sum(axis=1).sum(axis=0) / (PATCH * (PATCH - 1))
    var = ((planes - mean) ** 2).sum(axis=1).sum(axis=0) / PATCH**2
    patches = np.stack([mean, hgrad, vgrad, var], axis=-1)
    # one BLAS product per row, as for a single image, so a row's rounding
    # does not depend on the stack it is in
    weights = mean.reshape(mean.shape[0], 1, -1)
    total = weights.sum(axis=2)
    weighted = np.matmul(weights, patches.reshape(weights.shape[0], -1, NUM_FEATURES))[:, 0]
    cls_vec = np.where(total > 0, weighted / np.where(total > 0, total, 1.0), 0.0)
    return FeatureMap(cls=cls_vec, patches=patches)


def segment_foreground(fm: FeatureMap) -> np.ndarray:
    """First-principal-component split of each row's patch grid, (N, 16, 16).

    The component's sign is arbitrary, so the foreground side is the one
    whose average descriptor correlates better with DEFAULT_FOREGROUND_HINT.
    Raises SegmentationError naming the first row that cannot be split.
    """
    flat = fm.patches.reshape(fm.patches.shape[0], -1, NUM_FEATURES)
    centered = flat - flat.mean(axis=1, keepdims=True)
    degenerate = np.flatnonzero((centered**2).sum(axis=(1, 2)) < 1e-18)
    if degenerate.size:
        raise SegmentationError("degenerate feature grid: all patch descriptors equal", int(degenerate[0]))
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    # projection on the first component as an explicit left fold over the
    # four channels: the bits of `.sum(axis=-1)`, without its reduction loop
    proj = centered * vt[:, :1, :]
    side = ((proj[..., 0] + proj[..., 1]) + proj[..., 2]) + proj[..., 3] > 0

    def hint_corr(part):
        count = part.sum(axis=1)
        mean = (flat * part[..., None]).sum(axis=1) / np.maximum(count, 1)[:, None]
        return np.where(count > 0, (mean * DEFAULT_FOREGROUND_HINT).sum(axis=-1), -np.inf)

    mask = np.where((hint_corr(side) >= hint_corr(~side))[:, None], side, ~side)
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise SegmentationError("segmentation produced an empty foreground", int(empty[0]))
    return mask.reshape(-1, GRID_SIZE, GRID_SIZE)


def coordinate_map(mask: np.ndarray) -> np.ndarray:
    """Horizontal coordinates on each row's foreground: leftmost column
    -0.5, rightmost +0.5, linear in between; NaN off the foreground."""
    mask = np.asarray(mask, dtype=bool)
    occupied = mask.any(axis=1)                      # (N, columns)
    if not occupied.any(axis=1).all():
        raise ValueError("coordinate_map needs a nonempty mask")
    lo = occupied.argmax(axis=1)[:, None]
    hi = occupied.shape[1] - 1 - occupied[:, ::-1].argmax(axis=1)[:, None]
    col_idx = np.arange(occupied.shape[1], dtype=float)
    values = np.where(hi == lo, 0.0, (col_idx - lo) / np.maximum(hi - lo, 1) - 0.5)
    return np.where(mask, values[:, None, :], np.nan)


# ---------------------------------------------------------------------------
# Similarities and classification
# ---------------------------------------------------------------------------

def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the others; each is
    the same BLAS dot call as ``x @ y`` on one pair of vectors."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def texture_similarity(input_cls: np.ndarray, template_cls: np.ndarray) -> np.ndarray:
    """Cosine similarity of global descriptors, (N, 4) against (K, 4) -> (N, K)."""
    a = np.asarray(input_cls, dtype=float)
    b = np.asarray(template_cls, dtype=float)
    na, nb = np.sqrt(_dot(a, a)), np.sqrt(_dot(b, b))
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("texture similarity undefined for a zero descriptor")
    return _dot(a[:, None, :], b[None, :, :]) / np.outer(na, nb)


def orientation_similarity(input_parts, pc: PoseClassifier) -> np.ndarray:
    """Patch-matching orientation score of each image against each of pc's templates, (N, K).

    Each foreground input patch is soft-matched (softmax over a template's
    patches, concentrated on the nearest descriptor) and charged the
    horizontal-coordinate discrepancy of its match.  All images' foreground
    patches form one (R, 4) block that is compared with every template's
    distinct foreground patches at once; a template patch that occurs c
    times weighs c times in its template's softmax and charge, so the
    score is the one over all its patches.  The per-template softmax and
    the per-image penalty are segment reductions over that block, which is
    computed ORIENTATION_TILE rows at a time.
    """
    patches, mask, coord = input_parts
    mask = np.asarray(mask, dtype=bool)
    n_in = mask.sum(axis=(1, 2))
    if np.any(n_in == 0):
        raise ValueError("orientation similarity needs nonempty foregrounds")
    f_in, m_in = patches[mask], coord[mask]
    f_tm, m_tm = pc.distinct[:, :NUM_FEATURES], pc.distinct[:, NUM_FEATURES]
    cols, bounds = pc.starts, np.append(pc.starts, len(pc.counts))
    # every step up to the per-(patch, template) charge is row-local, so the
    # block runs ORIENTATION_TILE rows at a time through two (tile, P)
    # buffers reused for every tile; a row's bits do not depend on the tile
    n_rows = f_in.shape[0]
    dist_buf = np.empty((min(ORIENTATION_TILE, n_rows), f_tm.shape[0]))
    diff_buf = np.empty_like(dist_buf)
    charge = np.empty((n_rows, len(cols)))
    for lo in range(0, n_rows, ORIENTATION_TILE):
        hi = min(lo + ORIENTATION_TILE, n_rows)
        dist, diff = dist_buf[: hi - lo], diff_buf[: hi - lo]
        # squared distances one channel at a time: bitwise the sums of
        # reducing the (rows, P, 4) difference tensor over its last axis,
        # without materialising it
        np.subtract.outer(f_in[lo:hi, 0], f_tm[:, 0], out=dist)
        dist *= dist
        for ch in range(1, NUM_FEATURES):
            np.subtract.outer(f_in[lo:hi, ch], f_tm[:, ch], out=diff)
            diff *= diff
            dist += diff
        logits = np.sqrt(dist, out=dist)
        logits /= -TAU_PAT
        top = np.maximum.reduceat(logits, cols, axis=1)
        for j in range(len(cols)):
            logits[:, bounds[j] : bounds[j + 1]] -= top[:, j, None]
        w = np.exp(logits, out=logits)
        w *= pc.counts
        norm = np.add.reduceat(w, cols, axis=1)
        np.subtract.outer(m_in[lo:hi], m_tm, out=diff)
        w *= np.abs(diff, out=diff)
        # per (patch, template) charge, summed over each image's patches below
        np.divide(np.add.reduceat(w, cols, axis=1), norm, out=charge[lo:hi])
    rows = np.concatenate([[0], np.cumsum(n_in)[:-1]])
    penalty = np.add.reduceat(charge, rows, axis=0) / np.outer(n_in, np.add.reduceat(pc.counts, cols))
    return np.clip(1.0 - penalty, 0.0, 1.0)


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(axis=1, keepdims=True), values.max(axis=1, keepdims=True)
    flat = hi - lo < 1e-12
    return np.where(flat, 1.0, (values - lo) / np.where(flat, 1.0, hi - lo))


def classify(pc: PoseClassifier, pixels: np.ndarray, mode: str = "full") -> np.ndarray:
    """Pose probabilities in template order, one row per image of an (N, 64, 64) stack.

    ``mode`` selects the and-gate inputs: "full", "orientation-only", or
    "texture-only" (the two degraded variants drop one similarity family).
    """
    if mode not in ("full", "orientation-only", "texture-only"):
        raise ValueError(f"unknown mode {mode!r}")
    fm = extract_features(pixels)
    mask = segment_foreground(fm)
    fused = 1.0
    if mode != "orientation-only":
        fused = fused * _minmax(texture_similarity(fm.cls, pc.cls))
    if mode != "texture-only":
        fused = fused * _minmax(orientation_similarity((fm.patches, mask, coordinate_map(mask)), pc))
    return worldmodel._softmax(fused / TAU_POSE)


def build_template(pixels: np.ndarray, categories) -> PoseClassifier:
    """The classifier with one template per row of an (N, 64, 64) stack, for
    the category at its index: the row's global descriptor, and its
    foreground patches merged into distinct (descriptor, coordinate) rows
    with their counts.  Raises SegmentationError naming the first row that
    cannot be split.

    Flat and periodic glyph interiors repeat patches exactly, so the
    canonical templates keep 27-44 distinct rows of their 79-97.
    """
    fm = extract_features(pixels)
    mask = segment_foreground(fm)
    coord = coordinate_map(mask)
    distinct, counts = zip(*(np.unique(np.column_stack([patches[fg], xs[fg]]), axis=0, return_counts=True)
                             for _, patches, fg, xs in zip(categories, fm.patches, mask, coord, strict=True)))
    return PoseClassifier(categories=tuple(categories), cls=fm.cls, distinct=np.concatenate(distinct),
                          counts=np.concatenate(counts).astype(float), starts=np.cumsum([0, *map(len, counts[:-1])]))


# ---------------------------------------------------------------------------
# Noisy-image adapter
# ---------------------------------------------------------------------------

class CorpusDenoiser:
    """Empirical-Bayes noise predictor over a reference image stack.

    Models the clean distribution as a Gaussian kernel density centered on
    the stack and returns the posterior *mode* component's shrinkage
    estimate.  The mode (rather than the posterior mean) keeps the clean
    estimate on the data manifold, which the downstream classifier needs:
    averaging across the stack would blur every pose into one blob.

    At low noise the shrinkage factor is near 1, so the input passes
    through almost unchanged; at high noise the estimate collapses to a
    stack image, so classifications on pure noise spread across poses.
    """

    def __init__(self, images):
        self.data = np.stack([im.pixels.ravel() for im in images])

    def __call__(self, xt: np.ndarray, t: int, schedule) -> np.ndarray:
        a, s = schedule.alpha[t], schedule.sigma[t]
        tau2 = KERNEL_WIDTH**2
        var = a * a * tau2 + s * s
        log_w = -0.5 * np.sum((xt[None, :] - a * self.data) ** 2, axis=1) / var
        mode = self.data[int(np.argmax(log_w))]
        x0_hat = mode + (a * tau2 / var) * (xt - a * mode)
        return (xt - a * x0_hat) / s


def classifier_posterior_adapter(pc: PoseClassifier, schedule, denoiser, t: int, xt: np.ndarray,
                                 use_tweedie: bool = True) -> np.ndarray:
    """Pose posterior for a noisy flattened glyph.

    Default path denoises to a clean estimate first; ``use_tweedie=False``
    classifies the noisy image directly (the degraded variant).
    """
    if t < 1:
        raise ValueError("adapter needs t >= 1")
    xt = np.asarray(xt, dtype=float)
    if use_tweedie:
        x0 = tweedie_x0(schedule, t, xt, denoiser(xt, t, schedule))
    else:
        x0 = xt
    return classify(pc, np.clip(x0.reshape(1, IMG_SIZE, IMG_SIZE), 0.0, 1.0))[0]


# ---------------------------------------------------------------------------
# PGM round-trip
# ---------------------------------------------------------------------------

def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary 8-bit portable graymap."""
    data = np.clip(np.asarray(pixels) * 255.0 + 0.5, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# one header field, after any whitespace and "#" comments; a comment runs to
# the end of its line or file, so no part of one can be read as a field
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def read_pgm(path) -> np.ndarray:
    """Pixels of a binary (P5) PGM file scaled to [0, 1]; a malformed header
    or short pixel data raises one ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4 and (token := _PGM_TOKEN.match(raw, pos)):
        fields.append(token[1])
        pos = token.end()
    if not fields or fields[0] != b"P5":
        raise ValueError(f"not a binary PGM file: {path}")
    try:
        header = [int(f) if f.isdigit() else None for f in fields[1:]]
    except ValueError:                  # a field of more digits than int() converts
        header = []
    if len(header) < 3 or None in header or min(header[:2]) < 1 or not 1 <= header[2] <= 65535:
        raise ValueError(f"bad PGM header in {path}: width and height must be integers >= 1 "
                         "and maxval an integer in 1-65535")
    w, h, maxval = header
    pos += 1
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")   # 16-bit samples are big-endian
    size = w * h * dtype.itemsize
    if len(raw) - pos < size:
        raise ValueError(f"truncated PGM pixel data in {path}: {len(raw) - pos} of {size} bytes")
    data = np.frombuffer(raw[pos : pos + size], dtype=dtype).reshape(h, w)
    return data.astype(float) / maxval
