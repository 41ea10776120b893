"""Core domain types and logit-level primitives shared by all calibrators and metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A labelled logit dataset: labels (N,) and logits (N, C)."""

    labels: np.ndarray
    logits: np.ndarray
    # Known calibrated probabilities, attached by the synthetic generators.
    true_probs: Optional[np.ndarray] = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        logits = np.asarray(self.logits, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "logits", logits)
        if logits.ndim != 2:
            raise ValueError("logits must be a (N, C) array")
        n, c = logits.shape
        if n == 0:
            raise ValueError("dataset must be nonempty")
        if c < 2:
            raise ValueError("need at least 2 classes")
        if labels.shape != (n,):
            raise ValueError("labels must be a (N,) array matching logits")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        if labels.min() < 0 or labels.max() >= c:
            raise ValueError("labels must lie in [0, num_classes)")
        if self.true_probs is not None:
            tp = np.asarray(self.true_probs, dtype=float)
            if tp.shape != (n, c):
                raise ValueError("true_probs must match logits shape")
            object.__setattr__(self, "true_probs", tp)

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def __len__(self) -> int:
        return self.logits.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        tp = self.true_probs[indices] if self.true_probs is not None else None
        return Dataset(labels=self.labels[indices], logits=self.logits[indices], true_probs=tp)


@dataclass(frozen=True)
class Predictions:
    """Top-label predicted class, confidence and correctness per sample; the
    input of every metric."""

    predicted_class: np.ndarray
    confidence: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "predicted_class", np.asarray(self.predicted_class, dtype=np.int64))
        object.__setattr__(self, "confidence", np.asarray(self.confidence, dtype=float))
        object.__setattr__(self, "correct", np.asarray(self.correct, dtype=bool))
        n = self.confidence.shape[0]
        if self.predicted_class.shape != (n,) or self.correct.shape != (n,):
            raise ValueError("prediction arrays must have matching lengths")

    def __len__(self) -> int:
        return self.confidence.shape[0]

    @classmethod
    def from_probs(cls, probs: np.ndarray, labels: np.ndarray) -> "Predictions":
        probs = np.asarray(probs, dtype=float)
        labels = np.asarray(labels, dtype=np.int64)
        pred = np.argmax(probs, axis=1)
        conf = probs[np.arange(probs.shape[0]), pred]
        return cls(predicted_class=pred, confidence=conf, correct=pred == labels)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable (max-shifted) softmax along the last axis."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    # the ufuncs of z - max, exp and a division by the sum, in one buffer
    out = z - z.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def sorted_topk_matrix(logits: np.ndarray, k: int) -> np.ndarray:
    """The k largest logits of each row of a (N, C) matrix, in decreasing order.

    With fewer than k classes, each row is padded with its smallest logit so
    the output is always (N, k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    z = np.asarray(logits, dtype=float)
    top = np.sort(z, axis=1)[:, ::-1][:, :k]
    if top.shape[1] < k:
        pad = np.repeat(top[:, -1:], k - top.shape[1], axis=1)
        top = np.concatenate([top, pad], axis=1)
    return top
