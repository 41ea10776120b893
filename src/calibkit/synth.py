"""Seeded generators of miscalibrated logit datasets with known ground-truth
calibration maps, used as desk-scale oracles for every experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Dataset, softmax
from .scaling import T_MIN

REGIMES = ("global_temp", "heteroscedastic", "overconfident_tail")
CONCENTRATION = 3.0  # magnitude of the per-class mean logit


@dataclass(frozen=True)
class SynthConfig:
    num_samples: int
    num_classes: int = 10
    regime: str = "global_temp"
    scale: float = 2.5  # global_temp: emitted logits are scale * true logits
    base: float = 1.0  # heteroscedastic: T*(z) = base + slope * (z_(1) - z_(2))
    slope: float = 0.5  # heteroscedastic / overconfident_tail strength
    seed: int = 17

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.base < T_MIN:
            raise ValueError(f"base must be >= {T_MIN}")
        if self.slope < 0:
            raise ValueError("slope must be nonnegative")


def _top_gap(logits: np.ndarray) -> np.ndarray:
    part = np.partition(logits, -2, axis=1)
    return part[:, -1] - part[:, -2]


def _per_sample_scale(true_logits: np.ndarray, config: SynthConfig) -> np.ndarray:
    gap = _top_gap(true_logits)
    if config.regime == "global_temp":
        return np.full(true_logits.shape[0], config.scale)
    if config.regime == "heteroscedastic":
        return config.base + config.slope * gap
    # overconfident_tail: sharpening grows quadratically with the margin
    return 1.0 + config.slope * gap * gap


def generate(config: SynthConfig) -> Dataset:
    """Draw true logits from a Gaussian mixture over class means, sample labels
    from softmax(true logits), then emit miscalibrated logits by the regime's
    per-sample scale. The ground-truth probabilities are attached."""
    rng = np.random.default_rng(config.seed)
    n, c = config.num_samples, config.num_classes
    centers = rng.integers(0, c, size=n)
    true_logits = rng.standard_normal((n, c))
    true_logits[np.arange(n), centers] += CONCENTRATION
    true_probs = softmax(true_logits)
    labels = _sample_categorical(true_probs, rng)
    scale = _per_sample_scale(true_logits, config)
    emitted = scale[:, None] * true_logits
    return Dataset(labels=labels, logits=emitted, true_probs=true_probs)


def _sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1).astype(np.int64)


def split(dataset: Dataset, fractions: Sequence[float], seed: int = 17) -> tuple[Dataset, ...]:
    """Seeded shuffle then contiguous split into one subset per fraction."""
    fractions = list(fractions)
    if not fractions or any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError("fractions must sum to at most 1")
    n = len(dataset)
    sizes = [int(round(f * n)) for f in fractions]
    if any(s == 0 for s in sizes) or sum(sizes) > n:
        raise ValueError("split produces an empty or oversized subset")
    perm = np.random.default_rng(seed).permutation(n)
    out = []
    start = 0
    for s in sizes:
        out.append(dataset.subset(perm[start : start + s]))
        start += s
    return tuple(out)
