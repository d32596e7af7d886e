"""Vectorized finite-support Zipf (discrete power-law) machinery.

The paper's analyses all revolve around Zipf-like long-tail
distributions of object names, annotation terms and query terms.  This
module provides:

* :class:`ZipfDistribution` — a truncated Zipf over ranks ``1..n`` with
  exponent ``s``, supporting O(log n) inverse-CDF sampling of millions
  of draws at once;
* :func:`fit_exponent_mle` — maximum-likelihood estimation of the
  exponent from observed frequency counts (Clauset/Shalizi/Newman-style
  discrete MLE on finite support);
* :func:`rank_frequency` — rank/frequency curve extraction for plotting
  and goodness-of-fit checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ZipfDistribution",
    "zipf_weights",
    "fit_exponent_mle",
    "rank_frequency",
    "ks_distance",
]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Unnormalized Zipf weights ``1/rank**s`` for ranks ``1..n``."""
    if n <= 0:
        raise ValueError(f"support size must be positive, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return ranks**-s


@dataclass(frozen=True)
class ZipfDistribution:
    """Truncated Zipf distribution over ranks ``0..n-1``.

    Rank 0 is the most popular item.  ``s`` may be any non-negative
    real; ``s == 0`` degenerates to the uniform distribution, which is
    handy for the paper's uniform-placement baselines.
    """

    n: int
    s: float
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"support size must be positive, got {self.n}")
        if self.s < 0:
            raise ValueError(f"exponent must be non-negative, got {self.s}")
        weights = zipf_weights(self.n, self.s)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)

    @property
    def pmf(self) -> np.ndarray:
        """Probability of each rank, shape ``(n,)``."""
        out = np.diff(self._cdf, prepend=0.0)
        return out

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` ranks by inverse-CDF binary search.

        Returns an ``int64`` array of ranks in ``[0, n)``.  This is the
        hot path for trace generation: a single ``searchsorted`` over a
        precomputed CDF, no Python-level loop.
        """
        if size < 0:
            raise ValueError(f"sample size must be non-negative, got {size}")
        u = rng.random(size)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def expected_count(self, total: int) -> np.ndarray:
        """Expected number of occurrences of each rank in ``total`` draws."""
        return self.pmf * float(total)


def rank_frequency(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(ranks, frequencies)`` sorted by decreasing frequency.

    ``counts`` is any array of per-item occurrence counts; zero-count
    items are dropped.  Ranks are 1-based, matching the paper's log-log
    popularity plots.
    """
    counts = np.asarray(counts)
    positive = counts[counts > 0]
    freq = np.sort(positive)[::-1]
    ranks = np.arange(1, freq.size + 1)
    return ranks, freq


def _neg_loglike(s: float, values: np.ndarray, weights: np.ndarray, n: int) -> float:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    log_norm = np.log(np.sum(ranks**-s))
    return float(weights.sum() * log_norm + s * np.sum(weights * np.log(values)))


def fit_exponent_mle(
    counts: np.ndarray,
    *,
    s_bounds: tuple[float, float] = (0.01, 4.0),
) -> float:
    """MLE of the Zipf exponent from per-item occurrence counts.

    The items are ranked by decreasing count; the likelihood is that of
    drawing each observation's rank from a truncated Zipf on the
    observed support.  Returns the fitted exponent ``s``.
    """
    # scipy costs ~0.4 s to import; only the fit needs it.
    from scipy import optimize

    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size < 2:
        raise ValueError("need at least two items with positive counts to fit")
    freq = np.sort(counts)[::-1]
    ranks = np.arange(1, freq.size + 1, dtype=np.float64)
    result = optimize.minimize_scalar(
        _neg_loglike,
        bounds=s_bounds,
        args=(ranks, freq, freq.size),
        method="bounded",
    )
    if not result.success:  # pragma: no cover - scipy bounded search rarely fails
        raise RuntimeError(f"Zipf MLE failed to converge: {result.message}")
    return float(result.x)


def ks_distance(counts: np.ndarray, s: float) -> float:
    """Kolmogorov–Smirnov distance between observed rank CDF and Zipf(s).

    Used as a cheap goodness-of-fit check in tests: a good fit on a
    genuinely Zipf sample keeps this well under ~0.1.
    """
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts > 0]
    freq = np.sort(counts)[::-1]
    emp_cdf = np.cumsum(freq) / freq.sum()
    model = ZipfDistribution(freq.size, s)
    model_cdf = np.cumsum(model.pmf)
    return float(np.max(np.abs(emp_cdf - model_cdf)))
