"""Evaluation measures: categorical entropy of averaged classifications,
a Gaussian Frechet distance between point clouds, and total variation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRECHET_REGULARISER = 1e-6      # added to the diagonal of each covariance `gaussian_frechet` fits


@dataclass(frozen=True)
class EntropyReport:
    mean_probs: np.ndarray
    entropy: float


def on_simplex(prob_rows) -> bool:
    """Whether every row (last axis) is finite, has no entry below -1e-12
    and sums to 1 within 1e-8."""
    rows = np.asarray(prob_rows, dtype=float)
    return bool(np.isfinite(rows).all() and np.all(rows >= -1e-12)
                and np.all(np.abs(np.sum(rows, axis=-1) - 1.0) <= 1e-8))


def categorical_entropy(prob_rows) -> EntropyReport:
    """Shannon entropy (nats) of the row-averaged probability vector."""
    rows = np.atleast_2d(np.asarray(prob_rows, dtype=float))
    if rows.shape[0] < 1:
        raise ValueError("need at least one probability row")
    if not on_simplex(rows):
        raise ValueError("rows must be finite and lie on the probability simplex")
    mean = np.mean(rows, axis=0)
    nz = mean[mean > 0]
    # 0.0 - x, not -x: a one-hot mean has entropy +0.0, not -0.0
    return EntropyReport(mean_probs=mean, entropy=float(0.0 - np.sum(nz * np.log(nz))))


def gaussian_frechet(sample_a, sample_b) -> float:
    """Frechet distance between Gaussians fitted to two sample sets."""
    a = np.atleast_2d(np.asarray(sample_a, dtype=float))
    b = np.atleast_2d(np.asarray(sample_b, dtype=float))
    d = a.shape[1]
    if b.shape[1] != d:
        raise ValueError("sample sets have different dimensions")
    if a.shape[0] < d + 1 or b.shape[0] < d + 1:
        raise ValueError(f"need at least {d + 1} points per set")
    mu_a, mu_b = np.mean(a, axis=0), np.mean(b, axis=0)
    cov_a = np.cov(a, rowvar=False).reshape(d, d) + FRECHET_REGULARISER * np.eye(d)
    cov_b = np.cov(b, rowvar=False).reshape(d, d) + FRECHET_REGULARISER * np.eye(d)
    # tr((A B)^{1/2}) = sum of sqrt(eigenvalues of A^{1/2} B A^{1/2}), with the
    # symmetric middle matrix written in A's eigenbasis, D^{1/2} V^T B V D^{1/2};
    # in 1D it is sqrt(a b) and two identical sets are exactly 0 apart
    lam_a, vec_a = np.linalg.eigh(cov_a)
    lam_a = np.maximum(lam_a, 0.0)
    middle = (vec_a.T @ cov_b @ vec_a) * np.sqrt(np.outer(lam_a, lam_a))
    cross = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(middle), 0.0)))
    dist2 = np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b) - 2.0 * cross
    return float(max(dist2, 0.0))


def marginal_tv(prob, target) -> float:
    """Total variation distance between two probability vectors."""
    p = np.asarray(prob, dtype=float)
    q = np.asarray(target, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("probability vectors must be finite")
    return float(0.5 * np.sum(np.abs(p - q)))
