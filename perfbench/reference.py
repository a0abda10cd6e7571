"""Independent numpy reference for the benchmark's output checks.

Reads a workload config with configparser, rebuilds the linear-beta
variance-preserving schedule, and evaluates the noisy Gaussian-mixture log
density and category posterior with `slogdet` and `solve`.  It does
not import recdistill, so the checks compare the program against code that
shares none of its paths.  Central differences give the gradients.
"""

from __future__ import annotations

import configparser

import numpy as np


def floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise FileNotFoundError(path)
    return parser


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class Mixture:
    """Category-labelled Gaussian mixture diffused by a VP schedule."""

    def __init__(self, weights, means, covs, categories, num_categories,
                 num_steps=1000, beta_min=1e-4, beta_max=0.02):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(means, dtype=float))
        self.dim = self.means.shape[1]
        self.covs = np.asarray(covs, dtype=float).reshape(-1, self.dim, self.dim)
        self.categories = np.asarray(categories, dtype=int)
        self.num_categories = int(num_categories)
        betas = np.linspace(beta_min, beta_max, num_steps)
        alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        self.num_steps = num_steps
        self.alpha = np.sqrt(alpha_bar)
        self.sigma = np.sqrt(1.0 - alpha_bar)

    @classmethod
    def from_config(cls, path) -> "Mixture":
        parser = read_config(path)
        rows = [[f.strip() for f in line.split("|")]
                for line in parser["mixture"]["components"].strip().splitlines()]
        sched = parser["schedule"] if parser.has_section("schedule") else {}
        return cls(weights=[float(r[0]) for r in rows], means=[floats(r[1]) for r in rows],
                   covs=[floats(r[2]) for r in rows], categories=[int(r[3]) for r in rows],
                   num_categories=int(parser["mixture"].get("num_categories", "2")),
                   num_steps=int(sched.get("num_steps", "1000")),
                   beta_min=float(sched.get("beta_min", "1e-4")),
                   beta_max=float(sched.get("beta_max", "0.02")))

    def category_marginal(self) -> np.ndarray:
        return np.bincount(self.categories, weights=self.weights, minlength=self.num_categories)

    def _components(self, t: int, x) -> np.ndarray:
        """log(w_k N(x; alpha_t mu_k, alpha_t^2 Sigma_k + sigma_t^2 I)) per component."""
        a, s = self.alpha[t], self.sigma[t]
        x = np.asarray(x, dtype=float)
        logs = np.empty(self.weights.size)
        for k in range(self.weights.size):
            cov = a * a * self.covs[k] + s * s * np.eye(self.dim)
            diff = x - a * self.means[k]
            _, logdet = np.linalg.slogdet(cov)
            logs[k] = np.log(self.weights[k]) - 0.5 * (
                diff @ np.linalg.solve(cov, diff) + logdet + self.dim * np.log(2.0 * np.pi))
        return logs

    def log_density(self, t: int, x) -> float:
        return _logsumexp(self._components(t, x))

    def log_posterior(self, t: int, x) -> np.ndarray:
        """log p(c | x_t) per category, summed in the log domain."""
        logs = self._components(t, x)
        total = _logsumexp(logs)
        return np.array([_logsumexp(logs[self.categories == c]) - total
                         for c in range(self.num_categories)])

    def posterior(self, t: int, x) -> np.ndarray:
        return np.exp(self.log_posterior(t, x))

    def log_r(self, t: int, x, weights) -> float:
        """log sum_c w(c) p(c | x_t), the rectifier's log correction factor."""
        return _logsumexp(np.log(np.asarray(weights, dtype=float)) + self.log_posterior(t, x))


def _logsumexp(values: np.ndarray) -> float:
    top = np.max(values)
    return float(top + np.log(np.sum(np.exp(values - top))))


def central_difference(fn, x, h: float) -> np.ndarray:
    """Gradient of a scalar function by central differences along each axis."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def categorical_entropy(rows) -> float:
    """Entropy of the mean of a stack of probability rows."""
    p = np.mean(np.asarray(rows, dtype=float), axis=0)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))
