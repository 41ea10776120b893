"""Non-scaling baselines built on a shared pool-adjacent-violators core:
histogram binning, one-vs-all isotonic regression (IROvA), accuracy-preserving
isotonic regression (IRM), the IROvA-TS composite, and scaling-binning (PBMC)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Predictions, softmax
from .errors import DataFormatError
from .metrics import _equal_mass_groups
from .scaling import TsModel, apply_temperature, fit_ts

IRM_STRICTNESS = 1e-6


def pav(xs: np.ndarray, ys: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted least-squares nondecreasing fit of ys over sorted xs; every
    weight is 1 when weights is None.

    Classic pool-adjacent-violators: O(n) stack of blocks merged whenever a
    weighted block mean drops below its predecessor. The loop streams Python
    floats from memoryviews (no list copy of the input) and keeps the top
    block in locals, so merging a point into it touches no list. A NaN mean
    never compares <=, so it never merges.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    if n == 0:
        return np.empty(0)
    xs = np.asarray(xs, dtype=float)
    if xs.shape[0] != n:
        raise ValueError("xs and ys must have equal length")
    if np.any(xs[1:] < xs[:-1]):
        raise ValueError("xs must be sorted ascending")
    if weights is None:
        w_iter = itertools.repeat(1.0)
    else:
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        w_iter = iter(memoryview(np.ascontiguousarray(w)))

    y_iter = iter(memoryview(np.ascontiguousarray(ys)))
    # blocks below the top one
    means: list[float] = []
    sizes: list[int] = []
    wsums: list[float] = []
    # the top block: mean, weight, size
    m2, w2, s2 = next(y_iter), next(w_iter), 1
    for y, wy in zip(y_iter, w_iter):
        if not y <= m2:
            means.append(m2)
            wsums.append(w2)
            sizes.append(s2)
            m2, w2, s2 = y, wy, 1
            continue
        wt = w2 + wy
        m2, w2, s2 = (m2 * w2 + y * wy) / wt, wt, s2 + 1
        while means and m2 <= means[-1]:
            m1, w1, s1 = means.pop(), wsums.pop(), sizes.pop()
            wt = w1 + w2
            m2, w2, s2 = (m1 * w1 + m2 * w2) / wt, wt, s1 + s2
    means.append(m2)
    sizes.append(s2)
    return np.repeat(means, sizes)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step lookup with constant extrapolation outside the knots."""

    x: np.ndarray  # strictly increasing
    y: np.ndarray  # nondecreasing

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1 or x.shape[0] == 0:
            raise ValueError("knot arrays must be nonempty and matching")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knot inputs must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise ValueError("knot outputs must be nondecreasing")

    def __call__(self, q: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.x, np.asarray(q, dtype=float), side="right") - 1
        return self.y[np.clip(idx, 0, self.x.shape[0] - 1)]

    def to_params(self) -> dict:
        return {"x": self.x.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_params(cls, p: dict) -> "StepFunction":
        return cls(x=np.asarray(p["x"]), y=np.asarray(p["y"]))


def _isotonic_step_function(p: np.ndarray, hit: np.ndarray) -> StepFunction:
    """Isotonic fit of 0/1 targets hit against scores p, returned as a step function.

    Tied scores are pooled first (one knot per distinct score, weighted by its
    count), which leaves the least-squares solution unchanged and makes the
    knots strictly increasing. Because the targets are 0 or 1, each pooled sum
    is an exact integer in any order, so the result has the same bits however
    the ties are visited. The sorted scores replace p here, so a caller that
    keeps no reference to p frees it during the fit.
    """
    order = np.argsort(p)
    p, hit = p[order], hit[order]
    del order
    new = np.empty(p.shape, dtype=bool)
    new[:1] = True
    np.not_equal(p[1:], p[:-1], out=new[1:])
    if new.all():  # no ties: every score is a knot of weight 1
        return StepFunction(x=p, y=pav(p, hit.astype(float)))
    starts = np.flatnonzero(new)
    x = p[starts]
    del p, new
    counts = np.diff(starts, append=hit.shape[0])
    y = np.add.reduceat(hit, starts, dtype=float)
    y /= counts
    return StepFunction(x=x, y=pav(x, y, counts.astype(float)))


def _equal_mass_edges(conf: np.ndarray, num_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantile bin edges over fit confidences. Returns the internal edges
    (length num_bins-1 before tie merging) and the per-bin index groups of
    metrics' equal-mass ECE."""
    groups = _equal_mass_groups(conf, num_bins)
    return np.array([conf[g[-1]] for g in groups[:-1]]), groups


def _bin_lookup(edges: np.ndarray, conf: np.ndarray) -> np.ndarray:
    # bins are (edge[m-1], edge[m]]; values above the last edge go to the last bin
    return np.searchsorted(edges, conf, side="left")


def _check_bin_outputs(edges: np.ndarray, outputs: np.ndarray) -> None:
    if edges.ndim != 1 or outputs.ndim != 1:
        raise ValueError(f"bin edges and outputs must be 1-D, got shapes {edges.shape} and {outputs.shape}")
    if len(outputs) != len(edges) + 1:
        raise ValueError(f"{len(outputs)} bin outputs for {len(edges)} internal edges")
    if not np.all(np.diff(edges) > 0):
        raise ValueError("bin edges must be strictly increasing")


def _replace_top_confidence(probs: np.ndarray, pred: np.ndarray, new_top: np.ndarray, preserve_argmax: bool) -> np.ndarray:
    """Rebuild full probability vectors around a recalibrated score for class
    pred, the argmax of the logits (rounding can tie another class with it in
    probs): the non-top entries are rescaled to share 1 - new_top proportionally."""
    n, c = probs.shape
    rows = np.arange(n)
    top = probs[rows, pred]
    rest = 1.0 - top
    q = np.clip(new_top, 0.0, 1.0)
    if preserve_argmax:
        # keep the top entry strictly above every rescaled competitor
        max_other = np.where(rest > 0, probs.max(axis=1, where=~np.eye(c, dtype=bool)[pred], initial=0.0), 0.0)
        floor = max_other / np.maximum(rest + max_other, 1e-300)
        q = np.maximum(q, floor + 1e-12)
    out = np.where(rest[:, None] > 0, probs * ((1.0 - q) / np.maximum(rest, 1e-300))[:, None], (1.0 - q[:, None]) / (c - 1))
    out[rows, pred] = q
    return out


@dataclass(frozen=True)
class HistBinModel:
    """Equal-mass histogram binning of top-label confidences."""

    edges: np.ndarray  # internal boundaries, ascending
    outputs: np.ndarray  # calibrated score per bin, len(edges) + 1
    num_classes: int

    kind = "histbin"

    def __post_init__(self):
        _check_bin_outputs(self.edges, self.outputs)

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        probs = softmax(logits)
        q = self.outputs[_bin_lookup(self.edges, probs.max(axis=1))]
        return _replace_top_confidence(probs, np.argmax(logits, axis=1), q, preserve_argmax=False)

    def to_params(self) -> dict:
        return {"edges": self.edges.tolist(), "outputs": self.outputs.tolist()}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "HistBinModel":
        return cls(np.asarray(p["edges"], float), np.asarray(p["outputs"], float), num_classes)


def fit_hist_binning(dataset: Dataset, num_bins: int) -> HistBinModel:
    """Per-bin calibrated score = mean correctness (the squared-loss minimizer)."""
    if len(dataset) < num_bins:
        raise DataFormatError(f"histogram binning needs at least {num_bins} samples (one per bin), got {len(dataset)}")
    preds = Predictions.from_probs(softmax(dataset.logits), dataset.labels)
    edges, groups = _equal_mass_edges(preds.confidence, num_bins)
    outputs = np.array([preds.correct[g].mean() for g in groups])
    return HistBinModel(edges=edges, outputs=outputs, num_classes=dataset.num_classes)


@dataclass(frozen=True)
class IrovaModel:
    """One isotonic map per class, applied one-vs-all and renormalized."""

    maps: tuple[StepFunction, ...]
    num_classes: int

    kind = "irova"

    def __post_init__(self):
        if len(self.maps) != self.num_classes:
            raise ValueError(f"{len(self.maps)} isotonic maps for {self.num_classes} classes")

    def apply_to_probs(self, probs: np.ndarray) -> np.ndarray:
        scores = np.column_stack([self.maps[c](probs[:, c]) for c in range(self.num_classes)])
        sums = scores.sum(axis=1, keepdims=True)
        uniform = np.full_like(scores, 1.0 / self.num_classes)
        return np.where(sums > 0, scores / np.maximum(sums, 1e-300), uniform)

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        return self.apply_to_probs(softmax(logits))

    def to_params(self) -> dict:
        return {"maps": [s.to_params() for s in self.maps]}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "IrovaModel":
        return cls(maps=tuple(StepFunction.from_params(d) for d in p["maps"]), num_classes=num_classes)


def fit_irova_from_probs(probs: np.ndarray, labels: np.ndarray, num_classes: int) -> IrovaModel:
    maps = tuple(_isotonic_step_function(probs[:, c], labels == c) for c in range(num_classes))
    return IrovaModel(maps=maps, num_classes=num_classes)


def fit_irova(dataset: Dataset) -> IrovaModel:
    return fit_irova_from_probs(softmax(dataset.logits), dataset.labels, dataset.num_classes)


@dataclass(frozen=True)
class IrmModel:
    """Single shared isotonic map made strictly increasing by an additive slope,
    so within-sample score rankings (and hence the argmax) are preserved."""

    shared_map: StepFunction
    num_classes: int
    strictness: float = IRM_STRICTNESS

    kind = "irm"

    def __post_init__(self):
        if not self.strictness > 0:
            raise ValueError(f"strictness must be positive, got {self.strictness}")

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        probs = softmax(logits)
        scores = self.shared_map(probs) + self.strictness * probs
        return scores / scores.sum(axis=1, keepdims=True)

    def to_params(self) -> dict:
        return {"map": self.shared_map.to_params(), "strictness": self.strictness}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "IrmModel":
        return cls(shared_map=StepFunction.from_params(p["map"]), strictness=float(p["strictness"]), num_classes=num_classes)


def fit_irm(dataset: Dataset) -> IrmModel:
    """Pooled isotonic fit over all (probability, one-vs-all target) pairs."""
    c = dataset.num_classes
    hits = dataset.labels[:, None] == np.arange(c)
    # no name holds the scores, so the fit frees them once it has sorted them
    shared = _isotonic_step_function(softmax(dataset.logits).reshape(-1), hits.reshape(-1))
    return IrmModel(shared_map=shared, num_classes=c)


@dataclass(frozen=True)
class IrovaTsModel:
    """Temperature scaling followed by one-vs-all isotonic regression."""

    ts: TsModel
    irova: IrovaModel

    kind = "irova_ts"

    @property
    def num_classes(self) -> int:
        return self.irova.num_classes

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        return self.irova.apply_to_probs(self.ts.apply_probs(logits))

    def to_params(self) -> dict:
        return {**self.ts.to_params(), **self.irova.to_params()}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "IrovaTsModel":
        return cls(ts=TsModel.from_params(p, num_classes), irova=IrovaModel.from_params(p, num_classes))


def fit_irova_ts(dataset: Dataset, ts: TsModel) -> IrovaTsModel:
    """One-vs-all isotonic maps fitted on the given TS fit's probabilities."""
    scaled = ts.apply_probs(dataset.logits)
    irova = fit_irova_from_probs(scaled, dataset.labels, dataset.num_classes)
    return IrovaTsModel(ts=ts, irova=irova)


@dataclass(frozen=True)
class PbmcModel:
    """Scaling-binning: temperature scaling, then equal-mass binning of the
    scaled confidences with bin outputs set to bin means of those confidences."""

    temperature: float
    edges: np.ndarray
    outputs: np.ndarray
    num_classes: int

    kind = "pbmc"

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        _check_bin_outputs(self.edges, self.outputs)

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        probs = apply_temperature(logits, self.temperature)
        conf = probs.max(axis=1)
        q = self.outputs[_bin_lookup(self.edges, conf)]
        return _replace_top_confidence(probs, np.argmax(logits, axis=1), q, preserve_argmax=True)

    def to_params(self) -> dict:
        return {"temperature": self.temperature, "edges": self.edges.tolist(), "outputs": self.outputs.tolist()}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "PbmcModel":
        return cls(float(p["temperature"]), np.asarray(p["edges"], float), np.asarray(p["outputs"], float), num_classes)


def fit_pbmc(dataset: Dataset, num_bins: int = 10, seed: int = 17) -> PbmcModel:
    """Three seeded folds: fold 1 fits T, fold 2 places the equal-mass edges,
    fold 3 sets each bin output to the mean scaled confidence falling in it."""
    n = len(dataset)
    if n < 3 * num_bins:
        raise DataFormatError(f"scaling-binning needs at least {3 * num_bins} samples (3 folds x {num_bins} bins), got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    thirds = np.array_split(perm, 3)
    ts = fit_ts(dataset.subset(thirds[0]))

    def scaled_conf(idx: np.ndarray) -> np.ndarray:
        return apply_temperature(dataset.logits[idx], ts.temperature).max(axis=1)

    conf2 = scaled_conf(thirds[1])
    edges, _ = _equal_mass_edges(conf2, num_bins)
    conf3 = scaled_conf(thirds[2])
    bins3 = _bin_lookup(edges, conf3)
    num_eff = edges.shape[0] + 1
    counts = np.bincount(bins3, minlength=num_eff)
    sums = np.bincount(bins3, weights=conf3, minlength=num_eff)
    # bins with no fold-3 samples fall back to the fold-2 bin means
    bins2 = _bin_lookup(edges, conf2)
    sums2 = np.bincount(bins2, weights=conf2, minlength=num_eff)
    counts2 = np.bincount(bins2, minlength=num_eff)
    outputs = np.where(counts > 0, sums / np.maximum(counts, 1), sums2 / np.maximum(counts2, 1))
    return PbmcModel(temperature=ts.temperature, edges=edges, outputs=outputs, num_classes=dataset.num_classes)
