"""Calibration metrics: equal-width ECE, equal-mass ECE, KDE-based ECE, accuracy, NLL."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .core import Dataset, Predictions

PROB_FLOOR = 1e-12
KDE_GRID_POINTS = 1024
KDE_BANDWIDTH_RANGE = (1e-3, 0.1)
KDE_WINDOW = 8.5  # kernel reach in bandwidths: exp(-0.5 * 8.5**2) < 1e-15
KDE_BLOCK = 4  # grid points per windowed kernel block; divides KDE_GRID_POINTS
KDE_MIN_SAMPLES = 10
# The fewest kernel terms (grid points times windowed confidences) worth a
# worker of ece_kde. Timed on a 2-vCPU Xeon VM, two workers against one over
# 12 alternating pairs on the softmax confidences of heteroscedastic sets:
# they lost 11 or 12 of 12 at 5k to 15k rows (3.3 M to 8.4 M terms) and won 12
# of 12 from 20k rows (10 M terms; at 100k, 40 M terms: 144 -> 96 ms) while
# the second vCPU was idle, but lost up to 40k rows while it was busy. So two
# workers from 20 M terms.
KDE_TERMS_PER_WORKER = 10_000_000


@dataclass(frozen=True)
class BinStats:
    """Count, mean confidence and accuracy of one confidence bin."""

    bin: int  # 1-based
    count: int
    mean_confidence: float
    accuracy: float
    lower: float
    upper: float


def equal_width_bins(conf: np.ndarray, num_bins: int) -> np.ndarray:
    """0-based equal-width bin of each confidence.

    Bin m (1-based) is ((m-1)/M, m/M] on the float edges m/M that BinStats
    reports; c <= 1/M (c = 0 included) is bin 1 and c > (M-1)/M is bin M.
    The result equals np.searchsorted(np.arange(1, M) / M, conf, side="left"),
    several times faster on unsorted confidences: floor(c * M) is the bin or
    one past it (never below it, as a c above the float edge m/M gives
    c * M >= m after rounding), so one comparison with the lower edge of
    bin floor(c * M) settles it.
    """
    lower = np.arange(num_bins + 1) / num_bins
    lower[0], lower[-1] = -np.inf, np.inf
    idx = (conf * num_bins).astype(np.intp)
    np.clip(idx, 0, num_bins, out=idx)
    idx -= conf <= lower[idx]
    return idx


def equal_width_totals(conf: np.ndarray, correct: np.ndarray, num_bins: int):
    """Bin of each confidence, and per bin the count, the sum of confidences
    and the number correct (correct is boolean).

    One integer bincount over idx + M * correct gives each bin's wrong and
    correct counts; the counts are exact integers, so the totals equal those
    of separate bincounts.
    """
    idx = equal_width_bins(conf, num_bins)
    wrong_right = np.bincount(idx + num_bins * correct, minlength=2 * num_bins)
    sum_corr = wrong_right[num_bins:]
    counts = wrong_right[:num_bins] + sum_corr
    sum_conf = np.bincount(idx, weights=conf, minlength=num_bins)
    return idx, counts, sum_conf, sum_corr


def reliability_data(preds: Predictions, num_bins: int) -> list[BinStats]:
    """Partition predictions into num_bins equal-width bins ((m-1)/M, m/M],
    the data of a reliability diagram.

    A confidence of exactly 0 is assigned to the first bin. Empty bins are
    returned with count 0 and zero confidence/accuracy.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    _, counts, sum_conf, sum_corr = equal_width_totals(preds.confidence, preds.correct, num_bins)
    stats = []
    for m in range(num_bins):
        c = int(counts[m])
        stats.append(
            BinStats(
                bin=m + 1,
                count=c,
                mean_confidence=float(sum_conf[m] / c) if c else 0.0,
                accuracy=float(sum_corr[m] / c) if c else 0.0,
                lower=m / num_bins,
                upper=(m + 1) / num_bins,
            )
        )
    return stats


def ece(preds: Predictions, num_bins: int) -> float:
    """Binned expected calibration error with equal-width bins: the
    count-weighted absolute gap |acc - conf| per bin."""
    if len(preds) == 0:
        raise ValueError("need at least one prediction")
    value = 0.0
    for s in reliability_data(preds, num_bins):
        if s.count:
            value += (s.count / len(preds)) * abs(s.accuracy - s.mean_confidence)
    return value


def _equal_mass_groups(conf: np.ndarray, num_bins: int) -> list[np.ndarray]:
    """Stable-sorted index groups of near-equal size; adjacent groups that
    share a boundary confidence value are merged so ties never straddle bins."""
    order = np.argsort(conf, kind="stable")
    groups = [g for g in np.array_split(order, num_bins) if g.size]
    merged = [groups[0]]
    for g in groups[1:]:
        if conf[merged[-1][-1]] == conf[g[0]]:
            merged[-1] = np.concatenate([merged[-1], g])
        else:
            merged.append(g)
    return merged


def ece_equal_mass(preds: Predictions, num_bins: int) -> float:
    """ECE with bin edges at empirical confidence quantiles (equal-mass bins)."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    n = len(preds)
    if n < num_bins:
        raise ValueError("need at least as many predictions as bins")
    conf = preds.confidence
    corr = preds.correct.astype(float)
    value = 0.0
    for g in _equal_mass_groups(conf, num_bins):
        value += (g.size / n) * abs(float(corr[g].mean()) - float(conf[g].mean()))
    return value


def ece_kde(preds: Predictions) -> float:
    """KDE-based ECE: Nadaraya-Watson accuracy estimate against a Gaussian
    kernel density over confidences, integrated on a 1024-point grid."""
    n = len(preds)
    if n < KDE_MIN_SAMPLES:
        raise ValueError(f"need at least {KDE_MIN_SAMPLES} predictions for the KDE estimate")
    conf = preds.confidence
    corr = preds.correct.astype(float)
    sigma = float(conf.std())
    if sigma == 0.0:
        # degenerate spectrum: single confidence level
        return abs(float(corr.mean()) - float(conf[0]))
    lo, hi = float(conf.min()), float(conf.max())
    h = float(np.clip(1.06 * sigma * n ** (-0.2), *KDE_BANDWIDTH_RANGE))
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    dp = (hi - lo) / (KDE_GRID_POINTS - 1)
    # Each block of grid points sums the kernel only over the sorted
    # confidences within KDE_WINDOW bandwidths of it; beyond that the kernel
    # is below 1e-15. The value differs from the dense sum over all
    # confidences only by rounding, ~1e-14 relative (tests hold it to 1e-12).
    order = np.argsort(conf, kind="stable")
    conf, corr = conf[order], corr[order]
    blocks = grid.reshape(-1, KDE_BLOCK)
    starts = np.searchsorted(conf, blocks[:, 0] - KDE_WINDOW * h, side="left")
    stops = np.searchsorted(conf, blocks[:, -1] + KDE_WINDOW * h, side="right")
    scale = -0.5 / (h * h)
    norm = n * h * np.sqrt(2 * np.pi)

    def terms(share: np.ndarray) -> np.ndarray:
        out = np.empty(len(share))
        for i, k in enumerate(share):
            g, a, b = blocks[k], starts[k], stops[k]
            w = np.subtract.outer(g, conf[a:b])
            np.square(w, out=w)
            w *= scale
            np.exp(w, out=w)
            wsum = w.sum(axis=1)
            acc_hat = (w @ corr[a:b]) / np.maximum(wsum, PROB_FLOOR)
            out[i] = float(np.sum(np.abs(acc_hat - g) * (wsum / norm)) * dp)
        return out

    # The blocks are dealt round-robin to workers (see workers.worker_count),
    # and their terms are added here one by one in block order, as one
    # process adds them, so the value is the same bits either way (not with
    # sum(), which compensates its float additions from Python 3.12 on).
    count = workers.worker_count(len(blocks), KDE_BLOCK * int((stops - starts).sum()), KDE_TERMS_PER_WORKER)
    shares = [np.arange(k, len(blocks), count) for k in range(count)]
    block_terms = np.empty(len(blocks))
    for share, found in zip(shares, workers.forked_map(terms, shares, float)):
        block_terms[share] = found
    value = 0.0
    for term in block_terms.tolist():
        value += term
    return value


def accuracy(preds: Predictions) -> float:
    if len(preds) == 0:
        raise ValueError("need at least one prediction")
    return float(preds.correct.mean())


def nll(dataset: Dataset, probs: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels; probabilities clamped at 1e-12."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != dataset.logits.shape:
        raise ValueError("probability matrix must match the dataset shape")
    p_label = probs[np.arange(len(dataset)), dataset.labels]
    return float(-np.log(np.maximum(p_label, PROB_FLOOR)).mean())
