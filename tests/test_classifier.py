import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from recdistill import classifier as C
from recdistill.errors import SegmentationError
from recdistill.schedule import build_schedule


@pytest.fixture(scope="module")
def templates():
    return C.template_images()


@pytest.fixture(scope="module")
def pc(templates):
    return C.PoseClassifier.from_images(templates)


@pytest.fixture(scope="module")
def corpus():
    return C.generate_corpus(25, seed=0)


def _one(img):
    """A glyph as a one-row stack."""
    return img.pixels[None]


def _parts(img):
    fm = C.extract_features(_one(img))
    mask = C.segment_foreground(fm)
    return fm, mask, C.coordinate_map(mask)


# ---------------------------------------------------------------------------
# Per-image reference: the classifier for one image at a time, which the
# stack path must match.
# ---------------------------------------------------------------------------

def _ref_features(px):
    blocks = px.reshape(16, 4, 16, 4).transpose(0, 2, 1, 3)
    mean = blocks.mean(axis=(2, 3))
    hgrad = np.abs(np.diff(blocks, axis=3)).mean(axis=(2, 3))
    vgrad = np.abs(np.diff(blocks, axis=2)).mean(axis=(2, 3))
    var = blocks.var(axis=(2, 3))
    patches = np.stack([mean, hgrad, vgrad, var], axis=-1)
    total = mean.sum()
    cls = np.zeros(4) if total <= 0 else np.tensordot(mean, patches, axes=([0, 1], [0, 1])) / total
    return cls, patches


def _ref_segment(patches):
    flat = patches.reshape(-1, 4)
    centered = flat - flat.mean(axis=0)
    if np.sum(centered**2) < 1e-18:
        raise SegmentationError("degenerate", 0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    side = centered @ vt[0] > 0
    hint = C.DEFAULT_FOREGROUND_HINT
    pos = flat[side].mean(axis=0) @ hint if np.any(side) else -np.inf
    neg = flat[~side].mean(axis=0) @ hint if np.any(~side) else -np.inf
    return (side if pos >= neg else ~side).reshape(16, 16)


def _ref_coord(mask):
    cols = np.flatnonzero(mask.any(axis=0))
    lo, hi = cols[0], cols[-1]
    coord = np.full(mask.shape, np.nan)
    col_idx = np.arange(mask.shape[1], dtype=float)
    values = np.zeros(mask.shape[1]) if hi == lo else (col_idx - lo) / (hi - lo) - 0.5
    coord[mask] = np.broadcast_to(values, mask.shape)[mask]
    return coord


def _ref_orientation(patches, mask, coord, t_patches, t_mask, t_coord, tau_pat):
    f_in, m_in = patches[mask], coord[mask]
    f_tm, m_tm = t_patches[t_mask], t_coord[t_mask]
    dist = np.sqrt(np.sum((f_in[:, None, :] - f_tm[None, :, :]) ** 2, axis=-1))
    logits = -dist / tau_pat
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    penalty = np.sum(w * np.abs(m_in[:, None] - m_tm[None, :])) / (f_in.shape[0] * f_tm.shape[0])
    return float(np.clip(1.0 - penalty, 0.0, 1.0))


def _ref_classify(template_images, px, mode, tau_pat=0.01, tau_pose=0.05):
    templates = []
    for img in template_images.values():
        cls, patches = _ref_features(img.pixels)
        mask = _ref_segment(patches)
        templates.append((cls, patches, mask, _ref_coord(mask)))
    cls, patches = _ref_features(px)
    mask = _ref_segment(patches)
    coord = _ref_coord(mask)
    s_tex = np.array([cls @ t[0] / (np.linalg.norm(cls) * np.linalg.norm(t[0])) for t in templates])
    s_ori = np.array([_ref_orientation(patches, mask, coord, *t[1:], tau_pat) for t in templates])

    def minmax(v):
        return np.ones_like(v) if v.max() - v.min() < 1e-12 else (v - v.min()) / (v.max() - v.min())

    fused = {"texture-only": minmax(s_tex), "orientation-only": minmax(s_ori),
             "full": minmax(s_tex) * minmax(s_ori)}[mode]
    z = fused / tau_pose
    e = np.exp(z - z.max())
    return e / e.sum()


class TestStackMatchesPerImageReference:
    @pytest.fixture(scope="class")
    def corpus_stack(self):
        return np.stack([im.pixels for im in C.generate_corpus(200, seed=0)])

    @pytest.mark.parametrize("mode", ["full", "orientation-only", "texture-only"])
    def test_corpus_probabilities(self, pc, templates, corpus_stack, mode):
        got = np.concatenate([C.classify(pc, corpus_stack[i : i + 16], mode=mode)
                              for i in range(0, len(corpus_stack), 16)])
        want = np.array([_ref_classify(templates, px, mode) for px in corpus_stack])
        assert got.shape == (800, 4)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    @pytest.mark.parametrize("mode", ["full", "orientation-only", "texture-only"])
    def test_rows_bitwise_independent_of_their_stack(self, pc, corpus_stack, mode):
        """A row's probabilities are the same bits alone, in a chunk of 16
        and shuffled into the corpus, so output files do not depend on how
        images are chunked."""
        chunked = np.concatenate([C.classify(pc, corpus_stack[i : i + 16], mode=mode)
                                  for i in range(0, len(corpus_stack), 16)])
        perm = np.random.default_rng(5).permutation(len(corpus_stack))
        shuffled = np.empty_like(chunked)
        for i in range(0, len(perm), 100):
            shuffled[perm[i : i + 100]] = C.classify(pc, corpus_stack[perm[i : i + 100]], mode=mode)
        assert np.array_equal(shuffled, chunked)
        for i in range(0, len(corpus_stack), 37):
            assert np.array_equal(C.classify(pc, corpus_stack[i : i + 1], mode=mode)[0], chunked[i])

    def test_template_features_match(self, pc, templates):
        for t, img in zip(pc.templates, templates.values()):
            cls, patches = _ref_features(img.pixels)
            mask = _ref_segment(patches)
            rows = np.column_stack([patches[mask], _ref_coord(mask)[mask]])
            assert np.array_equal(t.cls, cls)
            assert Counter(dict(zip(map(tuple, t.distinct), t.counts.tolist()))) == Counter(map(tuple, rows))

    def test_segmentation_error_names_the_row(self):
        stack = np.stack([C.generate_glyph("front").pixels, np.full((64, 64), 0.5),
                          C.generate_glyph("back").pixels])
        with pytest.raises(SegmentationError) as info:
            C.segment_foreground(C.extract_features(stack))
        assert info.value.row == 1

    def test_wrong_shape_rejected(self, pc):
        with pytest.raises(ValueError, match="image stack"):
            C.classify(pc, np.zeros((64, 64)))


class TestMergedTemplatePatches:
    """Each template's foreground patches are merged into distinct
    (descriptor, coordinate) rows with counts; the scores stay the ones
    over all patches."""

    @staticmethod
    def _foreground_rows(pixels):
        """The (descriptor, coordinate) rows of an image's foreground patches."""
        fm, mask, coord = _parts(C.GlyphImage(pixels=pixels))
        return np.column_stack([fm.patches[mask], coord[mask]])

    @staticmethod
    def _merged(t):
        return Counter(dict(zip(map(tuple, t.distinct), t.counts.tolist())))

    def test_distinct_rows_and_counts(self, pc, templates):
        for t, img in zip(pc.templates, templates.values()):
            rows = self._foreground_rows(img.pixels)
            assert t.counts.sum() == len(rows)
            assert self._merged(t) == Counter(map(tuple, rows))
            assert len(set(map(tuple, t.distinct))) == len(t.distinct)
            # the canonical templates' flat and periodic interiors repeat patches
            assert len(t.counts) < len(rows)

    def test_templates_read_back_from_pgm_merge_the_same(self, pc, templates, tmp_path):
        for cat, img in templates.items():
            C.write_pgm(tmp_path / f"{cat}.pgm", img.pixels)
        stack = np.stack([C.read_pgm(tmp_path / f"{cat}.pgm") for cat in templates])
        for t, back, pixels in zip(pc.templates, C.build_template(stack, tuple(templates)), stack):
            rows = self._foreground_rows(pixels)
            assert back.category == t.category
            assert back.counts.sum() == len(rows)
            assert self._merged(back) == Counter(map(tuple, rows))
            assert len(back.counts) == len(t.counts)

    @pytest.mark.parametrize("mode", ["full", "orientation-only", "texture-only"])
    def test_unrepeated_templates_match_per_image_reference(self, mode):
        """Jittered templates repeat no patch, so every count is 1."""
        jittered = {cat: C.generate_glyph(cat, jitter_seed=99) for cat in C.CATEGORIES}
        pc = C.PoseClassifier.from_images(jittered)
        assert all(np.all(t.counts == 1) for t in pc.templates)
        stack = np.stack([im.pixels for im in C.generate_corpus(16, seed=3)])
        got = np.concatenate([C.classify(pc, stack[i : i + 16], mode=mode) for i in range(0, len(stack), 16)])
        want = np.array([_ref_classify(jittered, px, mode) for px in stack])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


class TestTemplateBuild:
    """build_template makes every template from one stack, and a template
    holds only what classification reads."""

    def test_from_images_extracts_features_once(self, monkeypatch, templates):
        calls, extract = [], C.extract_features
        monkeypatch.setattr(C, "extract_features", lambda px: (calls.append(len(px)), extract(px))[1])
        C.PoseClassifier.from_images(templates)
        assert calls == [len(C.CATEGORIES)]

    def test_stack_build_equals_one_row_builds(self, pc, templates):
        for t, (cat, img) in zip(pc.templates, templates.items()):
            [alone] = C.build_template(_one(img), [cat])
            assert alone.category == t.category == cat
            for name in ("cls", "distinct", "counts"):
                assert getattr(alone, name).tobytes() == getattr(t, name).tobytes(), name

    def test_template_fields(self):
        assert [f.name for f in dataclasses.fields(C.Template)] == ["category", "cls", "distinct", "counts"]

    def test_unsegmentable_row_named(self, templates):
        stack = np.stack([img.pixels for img in templates.values()])
        stack[2] = 0.5
        with pytest.raises(SegmentationError) as info:
            C.build_template(stack, tuple(templates))
        assert info.value.row == 2

    def test_one_category_per_row(self, templates):
        with pytest.raises(ValueError):
            C.build_template(np.stack([img.pixels for img in templates.values()]), C.CATEGORIES[:3])


class TestGlyphGeneration:
    def test_left_right_exact_mirrors(self):
        left = C.generate_glyph("left", jitter_seed=5)
        right = C.generate_glyph("right", jitter_seed=5)
        assert np.array_equal(left.pixels, np.fliplr(right.pixels))

    def test_front_back_share_silhouette(self):
        front = C.generate_glyph("front", jitter_seed=5)
        back = C.generate_glyph("back", jitter_seed=5)
        assert np.array_equal(C.glyph_silhouette(front), C.glyph_silhouette(back))
        assert not np.array_equal(front.pixels, back.pixels)

    def test_corpus_in_range_with_foreground(self):
        corpus = C.generate_corpus(100, seed=0)
        assert len(corpus) == 400
        for img in corpus:
            assert np.all(img.pixels >= 0.0) and np.all(img.pixels <= 1.0)
            assert np.any(img.pixels > 0.0)

    def test_deterministic_given_seed(self):
        a = C.generate_glyph("front", jitter_seed=3)
        b = C.generate_glyph("front", jitter_seed=3)
        assert np.array_equal(a.pixels, b.pixels)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            C.generate_glyph("sideways")

    def test_patterns_built_once_per_corpus_and_template_set(self, monkeypatch):
        calls = []
        build = C._patterns

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(C, "_patterns", counted)
        assert len(C.generate_corpus(5, seed=1)) == 20
        assert len(calls) == 1
        assert len(C.template_images()) == len(C.CATEGORIES)
        assert len(calls) == 2

    def test_corpus_glyphs_equal_single_glyphs_and_leave_patterns_unchanged(self):
        patterns = C._patterns()
        before = {cat: img.copy() for cat, img in patterns.items()}
        shared = [C._glyph(patterns, cat, seed) for cat in C.CATEGORIES for seed in (None, 4, 11)]
        single = [C.generate_glyph(cat, jitter_seed=seed) for cat in C.CATEGORIES for seed in (None, 4, 11)]
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(shared, single))
        assert all(np.array_equal(patterns[cat], before[cat]) for cat in C.CATEGORIES)
        corpus = C.generate_corpus(3, seed=7)
        want = [C.generate_glyph(cat, jitter_seed=7 + 10_000 * ci + j)
                for ci, cat in enumerate(C.CATEGORIES) for j in range(3)]
        assert [img.true_category for img in corpus] == [img.true_category for img in want]
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(corpus, want))


class TestExtractFeatures:
    def test_zero_image(self):
        fm = C.extract_features(np.zeros((1, 64, 64)))
        assert np.array_equal(fm.patches, np.zeros((1, 16, 16, 4)))
        assert np.array_equal(fm.cls, np.zeros((1, 4)))

    def test_mirror_gives_column_reversed_grid(self):
        img = C.generate_glyph("right", jitter_seed=1)
        a = C.extract_features(_one(img)).patches[0]
        b = C.extract_features(np.fliplr(img.pixels)[None]).patches[0]
        assert np.allclose(b, a[:, ::-1, :], atol=1e-12)

    def test_stripes_have_more_horizontal_gradient_than_dots(self):
        front = C.extract_features(_one(C.generate_glyph("front")))
        back = C.extract_features(_one(C.generate_glyph("back")))
        fg = C.segment_foreground(front)
        assert front.patches[..., 1][fg].mean() > back.patches[..., 1][fg].mean()


class TestSegmentation:
    def test_iou_against_true_silhouette(self, corpus):
        ious = []
        for img in corpus:
            true = C.glyph_silhouette(img).reshape(16, 4, 16, 4).mean(axis=(1, 3)) >= 0.5
            mask = C.segment_foreground(C.extract_features(_one(img)))[0]
            ious.append((mask & true).sum() / (mask | true).sum())
        assert min(ious) >= 0.8

    def test_inverted_contrast_same_mask(self, templates):
        img = templates["front"]
        a = C.segment_foreground(C.extract_features(_one(img)))
        b = C.segment_foreground(C.extract_features(1.0 - _one(img)))
        assert np.array_equal(a, b)

    def test_degenerate_features_rejected(self):
        with pytest.raises(SegmentationError):
            C.segment_foreground(C.extract_features(np.zeros((1, 64, 64))))


class TestCoordinateMap:
    def test_midpoint_zero(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[5, 2:15] = True  # columns 2..14
        coord = C.coordinate_map(mask[None])[0]
        assert coord[5, 2] == -0.5 and coord[5, 14] == 0.5
        assert coord[5, 8] == pytest.approx(0.0, abs=1e-12)

    def test_single_column(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 7] = True
        coord = C.coordinate_map(mask[None])[0]
        assert np.all(coord[:, 7] == 0.0)

    def test_mirror_negates(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:9, 3:12] = True
        a = C.coordinate_map(mask[None])[0]
        b = C.coordinate_map(mask[None, :, ::-1])[0]
        assert np.allclose(b[4:9, ::-1], -a[4:9, :], atol=1e-12, equal_nan=True)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            C.coordinate_map(np.zeros((1, 16, 16), dtype=bool))


class TestTextureSimilarity:
    def test_identical(self):
        v = np.array([0.3, 0.1, 0.4, 0.2])
        assert C.texture_similarity([v], [v])[0, 0] == pytest.approx(1.0)

    def test_orthogonal(self):
        assert C.texture_similarity([[1, 0, 0, 0]], [[0, 1, 0, 0]])[0, 0] == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            C.texture_similarity(np.zeros((1, 4)), np.ones((1, 4)))

    def test_regenerated_variants_score_high(self, pc, corpus):
        for img in corpus:
            tmpl = next(t for t in pc.templates if t.category == img.true_category)
            sim = C.texture_similarity(C.extract_features(_one(img)).cls, tmpl.cls[None])[0, 0]
            assert sim >= 0.9


class TestOrientationSimilarity:
    def test_template_self_match_is_argmax(self, pc, templates):
        for cat, img in templates.items():
            fm, mask, coord = _parts(img)
            scores = C.orientation_similarity((fm.patches, mask, coord), pc.templates, pc.tau_pat)[0]
            assert pc.templates[int(np.argmax(scores))].category == cat

    def test_left_right_discrimination(self, pc, corpus):
        good = total = 0
        for img in corpus:
            if img.true_category not in ("left", "right"):
                continue
            fm, mask, coord = _parts(img)
            s = dict(zip(pc.categories,
                         C.orientation_similarity((fm.patches, mask, coord), pc.templates, pc.tau_pat)[0]))
            total += 1
            own, other = (("left", "right") if img.true_category == "left" else ("right", "left"))
            good += s[own] > s[other]
        assert good / total >= 0.99

    def test_front_back_orientation_indistinguishable(self, pc, corpus):
        for img in corpus:
            if img.true_category not in ("front", "back"):
                continue
            fm, mask, coord = _parts(img)
            s = dict(zip(pc.categories,
                         C.orientation_similarity((fm.patches, mask, coord), pc.templates, pc.tau_pat)[0]))
            assert abs(s["front"] - s["back"]) < 0.05


def _whole_block_orientation(input_parts, templates, tau_pat=0.01):
    """The orientation pass over the whole (R, P) block at once, with the
    counts as integers and a zero-filled distance: the untiled formula
    whose bits the tiled pass must keep."""
    patches, mask, coord = input_parts
    n_in = mask.sum(axis=(1, 2))
    # each template's foreground patch count, from its canonical image
    n_fg = {cat: _parts(img)[1].sum() for cat, img in C.template_images().items()}
    n_tm = np.array([n_fg[t.category] for t in templates])
    f_in, m_in = patches[mask], coord[mask]
    distinct = np.concatenate([t.distinct for t in templates])
    f_tm, m_tm = distinct[:, :C.NUM_FEATURES], distinct[:, C.NUM_FEATURES]
    counts = np.concatenate([t.counts for t in templates])
    n_cols = [len(t.counts) for t in templates]
    cols = np.concatenate([[0], np.cumsum(n_cols)[:-1]])
    dist = np.zeros((f_in.shape[0], f_tm.shape[0]))
    diff = np.empty_like(dist)
    for ch in range(C.NUM_FEATURES):
        np.subtract.outer(f_in[:, ch], f_tm[:, ch], out=diff)
        diff *= diff
        dist += diff
    logits = np.sqrt(dist, out=dist)
    logits /= -tau_pat
    top = np.maximum.reduceat(logits, cols, axis=1)
    for j, (c, n) in enumerate(zip(cols, n_cols)):
        logits[:, c : c + n] -= top[:, j, None]
    w = np.exp(logits, out=logits)
    w *= counts
    norm = np.add.reduceat(w, cols, axis=1)
    np.subtract.outer(m_in, m_tm, out=diff)
    w *= np.abs(diff, out=diff)
    charge = np.add.reduceat(w, cols, axis=1) / norm
    rows = np.concatenate([[0], np.cumsum(n_in)[:-1]])
    penalty = np.add.reduceat(charge, rows, axis=0) / np.outer(n_in, n_tm)
    return np.clip(1.0 - penalty, 0.0, 1.0)


def _stack_parts(stack):
    fm = C.extract_features(stack)
    mask = C.segment_foreground(fm)
    return fm.patches, mask, C.coordinate_map(mask)


class TestOrientationTiles:
    """The orientation pass runs its (R, P) block C.ORIENTATION_TILE rows at
    a time through two reused buffers; no tile size changes a bit."""

    @pytest.fixture(scope="class")
    def stack(self):
        return np.stack([im.pixels for im in C.generate_corpus(4, seed=4)])

    @pytest.fixture(scope="class")
    def whole_block(self, pc, stack):
        """classify's output with the untiled formula, per mode."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(C, "orientation_similarity", _whole_block_orientation)
            return {mode: C.classify(pc, stack, mode=mode) for mode in ("full", "orientation-only", "texture-only")}

    @pytest.mark.parametrize("tile", ["1", "7", "splits-first-image", "above-R"])
    @pytest.mark.parametrize("mode", ["full", "orientation-only", "texture-only"])
    def test_classify_bits_independent_of_tile(self, monkeypatch, pc, stack, whole_block, tile, mode):
        _, mask, _ = _stack_parts(stack)
        first, total = int(mask[0].sum()), int(mask.sum())
        size = {"1": 1, "7": 7, "splits-first-image": first // 2 + 1, "above-R": total + 1}[tile]
        assert size < first or tile == "above-R"
        monkeypatch.setattr(C, "ORIENTATION_TILE", size)
        got = C.classify(pc, stack, mode=mode)
        assert got.tobytes() == whole_block[mode].tobytes()

    def test_scores_bitwise_the_whole_block_formula(self, pc, stack):
        parts = _stack_parts(stack)
        got = C.orientation_similarity(parts, pc.templates, pc.tau_pat)
        assert got.tobytes() == _whole_block_orientation(parts, pc.templates, pc.tau_pat).tobytes()

    def test_peak_allocation_flat_in_stack_size(self, pc):
        """The tiles bound the pass's working set: its peak allocation grows
        less than 3x from 4 to 64 images (the whole block grows about 12x)."""
        peaks = []
        for per_category in (1, 16):
            parts = _stack_parts(np.stack([im.pixels for im in C.generate_corpus(per_category, seed=5)]))
            tracemalloc.start()
            try:
                C.orientation_similarity(parts, pc.templates, pc.tau_pat)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0], peaks


class TestClassify:
    def test_templates_self_classified(self, pc, templates):
        for cat, img in templates.items():
            probs = C.classify(pc, _one(img))[0]
            assert pc.categories[int(np.argmax(probs))] == cat
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_corpus_accuracy(self, pc):
        corpus = C.generate_corpus(100, seed=0)
        correct = sum(
            pc.categories[int(np.argmax(C.classify(pc, _one(img))[0]))] == img.true_category
            for img in corpus
        )
        assert correct / len(corpus) >= 0.95

    def test_ablations_fail_on_their_confusable_pair(self, pc):
        corpus = C.generate_corpus(100, seed=0)

        def pair_accuracy(mode, pair):
            imgs = [im for im in corpus if im.true_category in pair]
            hits = sum(
                pc.categories[int(np.argmax(C.classify(pc, _one(im), mode=mode)[0]))] == im.true_category
                for im in imgs
            )
            return hits / len(imgs)

        # texture alone cannot tell mirror poses apart; orientation alone
        # cannot tell the two same-silhouette poses apart
        assert pair_accuracy("full", ("left", "right")) - pair_accuracy("texture-only", ("left", "right")) >= 0.2
        assert pair_accuracy("full", ("front", "back")) - pair_accuracy("orientation-only", ("front", "back")) >= 0.2
        assert 1.0 - pair_accuracy("texture-only", ("left", "right")) >= 0.3
        assert 1.0 - pair_accuracy("orientation-only", ("front", "back")) >= 0.3

    def test_swapping_templates_swaps_probabilities(self, pc, corpus):
        order = [t.category for t in pc.templates]
        i, j = order.index("left"), order.index("right")
        swapped_templates = list(pc.templates)
        swapped_templates[i], swapped_templates[j] = swapped_templates[j], swapped_templates[i]
        swapped = C.PoseClassifier(templates=tuple(swapped_templates),
                                   tau_pat=pc.tau_pat, tau_pose=pc.tau_pose)
        for img in corpus[:8]:
            a = C.classify(pc, _one(img))[0]
            b = C.classify(swapped, _one(img))[0]
            assert a[i] == pytest.approx(b[j], abs=1e-12)
            assert a[j] == pytest.approx(b[i], abs=1e-12)

    def test_lower_tau_pose_sharpens(self, pc, corpus):
        sharp = C.PoseClassifier(templates=pc.templates, tau_pat=pc.tau_pat,
                                 tau_pose=pc.tau_pose / 4)
        for img in corpus[:8]:
            a = C.classify(pc, _one(img))[0]
            b = C.classify(sharp, _one(img))[0]
            assert int(np.argmax(a)) == int(np.argmax(b))
            assert b.max() >= a.max() - 1e-12


@pytest.fixture(scope="module")
def setup(pc):
    schedule = build_schedule(1000)
    denoiser = C.CorpusDenoiser(C.generate_corpus(25, seed=1))
    return schedule, denoiser


class TestNoisyAdapter:
    def test_near_clean_matches_clean_classification(self, pc, corpus, setup):
        schedule, denoiser = setup
        rng = np.random.default_rng(3)
        for img in corpus[::5]:
            xt = (schedule.alpha[1] * img.pixels
                  + schedule.sigma[1] * rng.standard_normal((64, 64))).ravel()
            noisy = C.classifier_posterior_adapter(pc, schedule, denoiser, 1, xt)
            clean = C.classify(pc, _one(img))[0]
            assert 0.5 * np.abs(noisy - clean).sum() < 0.05

    def test_pure_noise_has_high_average_entropy(self, pc, setup):
        schedule, denoiser = setup
        rng = np.random.default_rng(7)
        responses = [
            C.classifier_posterior_adapter(pc, schedule, denoiser, 1000, rng.standard_normal(4096))
            for _ in range(60)
        ]
        mean = np.mean(responses, axis=0)
        entropy = -np.sum(mean * np.log(np.maximum(mean, 1e-300)))
        assert entropy >= 0.9 * np.log(4)

    def test_direct_classification_much_worse_at_mid_t(self, pc, corpus, setup):
        schedule, denoiser = setup
        rng = np.random.default_rng(11)
        t = 500
        acc = {True: 0, False: 0}
        for img in corpus:
            xt = (schedule.alpha[t] * img.pixels
                  + schedule.sigma[t] * rng.standard_normal((64, 64))).ravel()
            for use_tweedie in (True, False):
                probs = C.classifier_posterior_adapter(pc, schedule, denoiser, t, xt,
                                                       use_tweedie=use_tweedie)
                acc[use_tweedie] += pc.categories[int(np.argmax(probs))] == img.true_category
        n = len(corpus)
        assert acc[True] / n - acc[False] / n >= 0.2

    def test_rejects_t0(self, pc, setup):
        schedule, denoiser = setup
        with pytest.raises(ValueError):
            C.classifier_posterior_adapter(pc, schedule, denoiser, 0, np.zeros(4096))


class TestPgmRoundtrip:
    def test_roundtrip(self, tmp_path):
        img = C.generate_glyph("back", jitter_seed=2)
        path = tmp_path / "glyph.pgm"
        C.write_pgm(path, img.pixels)
        back = C.read_pgm(path)
        assert back.shape == (64, 64)
        assert np.max(np.abs(back - img.pixels)) < 1.0 / 255.0

    def test_sixteen_bit_is_big_endian(self, tmp_path):
        pixels = np.array([[0, 256, 65535], [1, 4095, 32768]], dtype=">u2")
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n3 2\n65535\n" + pixels.tobytes())
        back = C.read_pgm(path)
        assert back.max() == 1.0
        assert np.array_equal(back, pixels.astype(float) / 65535.0)

    def test_truncated_pixel_data_names_the_file(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
        with pytest.raises(ValueError, match="truncated.*short.pgm") as info:
            C.read_pgm(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("header", [
        b"P5\n64 64\n0\n",          # maxval 0
        b"P5\n64",                    # header cut short
        b"P5\n0 64\n255\n",         # zero width
        b"P5\n64 -1\n255\n",        # negative height
        b"P5\n64 64\n65536\n",      # maxval above 16 bits
        b"P5\n64 64\n2.5\n",        # non-integer maxval
    ])
    def test_bad_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(2 * 64 * 64))
        with pytest.raises(ValueError, match="PGM header.*bad.pgm|bad.pgm.*PGM header") as info:
            C.read_pgm(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("header", [
        b"P5\n2 1\n#255",            # a comment running to the end of the file
        b"P5\n2 1\n#255\n",          # a comment and nothing after it
        b"P5\n2 1 #1 255\n",          # the rest of the line is a comment
        b"P5\n2#x 1\n255\n",         # "#" inside a field is part of it
        b"P5\n" + b"9" * 5000 + b" 1\n255\n",     # more digits than int() converts
    ])
    def test_header_comments_and_long_fields_named(self, tmp_path, header):
        path = tmp_path / "odd.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="bad PGM header in .*odd.pgm"):
            C.read_pgm(path)

    def test_any_whitespace_and_comments_between_fields(self, tmp_path):
        path = tmp_path / "spaced.pgm"
        path.write_bytes(b"P5 #a\n\t2\r\n#b\n#c\n\x0b1\x0c\n255 " + bytes([0, 255]))
        assert np.array_equal(C.read_pgm(path), [[0.0, 1.0]])

    def test_comment_and_maxval_one(self, tmp_path):
        path = tmp_path / "bits.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n1\n" + bytes([0, 1]))
        assert np.array_equal(C.read_pgm(path), [[0.0, 1.0]])
