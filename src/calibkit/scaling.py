"""Accuracy-preserving scaling calibrators: temperature scaling, ensemble
temperature scaling, and the neural-network parameterized temperature."""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import workers
from .core import Dataset, softmax, sorted_topk_matrix
from .errors import NumericalError
from .metrics import equal_width_totals
from .tinynn import (
    MlpParams,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    init_mlp,
    zeros_like_params,
)

T_MIN = 1e-2
LOG_T_RANGE = (math.log(1e-2), math.log(1e2))
GOLDEN_TOL = 1e-4
# the training losses of ETS and PTS
LOSSES = ("mse", "ece")

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(f, a: float, b: float) -> float:
    """Golden-section search, to GOLDEN_TOL, for the minimizer of a unimodal f on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _tempered_softmax(z: np.ndarray, temperature) -> np.ndarray:
    """softmax(z / T) for a scalar T or a column of per-row temperatures.

    Finite logits near the float range overflow z / T when T < 1. That, or a
    non-finite T, raises NumericalError; non-finite logits stay the
    ValueError of softmax.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = z / temperature
        if not (np.isfinite(scaled).all() and np.isfinite(temperature).all()) and np.isfinite(z).all():
            raise NumericalError("tempered logits z/T are not finite")
        return softmax(scaled)


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(z / T); preserves the argmax for any T > 0."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return _tempered_softmax(np.asarray(logits, dtype=float), temperature)


@dataclass(frozen=True)
class TsModel:
    temperature: float
    num_classes: int

    kind = "ts"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def to_params(self) -> dict:
        return {"temperature": self.temperature}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "TsModel":
        return cls(temperature=p["temperature"], num_classes=num_classes)

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        return apply_temperature(logits, self.temperature)


def _nll_at_temperature(
    logits: np.ndarray, row_max: np.ndarray, label_logits: np.ndarray, temperature: float
) -> float:
    """Mean NLL of softmax(logits / T) at the labels, given each row's largest
    logit and its label's logit. For T > 0 rounding is monotone, so
    row_max / T is exactly the row max of logits / T."""
    shift = row_max / temperature
    z = logits / temperature
    z -= shift[:, None]
    np.exp(z, out=z)
    nll = float(-(label_logits / temperature - shift - np.log(z.sum(axis=1))).mean())
    if not math.isfinite(nll):
        raise NumericalError(f"validation NLL is not finite at temperature {temperature:.6g}")
    return nll


# Logits so large that the NLL overflows somewhere in the search range give
# a near one-hot softmax at every T in it, so the fit would be meaningless;
# that overflow is raised as NumericalError and numpy's warnings are noise.
@np.errstate(over="ignore", invalid="ignore")
def fit_ts(dataset: Dataset) -> TsModel:
    """Learn T by minimizing validation NLL; golden-section search on log T."""
    if np.unique(dataset.labels).size == 1:
        warnings.warn("dataset contains a single class; temperature fit is degenerate")
    logits = dataset.logits
    row_max = logits.max(axis=1)
    label_logits = logits[np.arange(len(dataset)), dataset.labels]
    log_t = golden_section_minimize(
        lambda u: _nll_at_temperature(logits, row_max, label_logits, math.exp(u)),
        *LOG_T_RANGE,
    )
    return TsModel(temperature=math.exp(log_t), num_classes=dataset.num_classes)


@dataclass(frozen=True)
class EtsModel:
    """Simplex-weighted mix of softmax at T, softmax at 1, and uniform 1/C."""

    temperature: float
    weights: tuple[float, float, float]
    num_classes: int

    kind = "ets"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be three nonnegative numbers summing to 1")

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        z = np.asarray(logits, dtype=float)
        w1, w2, w3 = self.weights
        return w1 * _tempered_softmax(z, self.temperature) + w2 * softmax(z) + w3 / z.shape[-1]

    def to_params(self) -> dict:
        return {"temperature": self.temperature, "weights": list(self.weights)}

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "EtsModel":
        return cls(temperature=p["temperature"], weights=tuple(p["weights"]), num_classes=num_classes)


def _simplex_grid(step: float) -> np.ndarray:
    n = int(round(1.0 / step))
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append((i * step, j * step, 1.0 - i * step - j * step))
    return np.asarray(pts)


def _ets_mse_objective(p1: np.ndarray, p2: np.ndarray, labels: np.ndarray):
    """MSE to one-hot labels is quadratic in the mixture weights; precompute
    the 3x3 quadratic form so grid evaluation is O(1) per point."""
    n, c = p1.shape
    comps = [p1, p2, np.full_like(p1, 1.0 / c)]
    a = np.empty((3, 3))
    b = np.empty(3)
    onehot_dot = [comps[i][np.arange(n), labels].mean() for i in range(3)]
    for i in range(3):
        b[i] = onehot_dot[i] / c
        for j in range(3):
            a[i, j] = (comps[i] * comps[j]).sum() / (n * c)

    def value(w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(w)
        return np.einsum("gi,ij,gj->g", w, a, w) - 2.0 * w @ b

    return value


def _ets_ece_objective(q1: np.ndarray, q2: np.ndarray, correct: np.ndarray, num_bins: int, num_classes: int):
    """Squared-gap equal-width ECE of the mixed confidence, as a function of w."""
    feats = np.stack([q1, q2, np.full_like(q1, 1.0 / num_classes)], axis=1)
    n = q1.shape[0]

    def value(w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(w)
        out = np.empty(w.shape[0])
        for g in range(w.shape[0]):
            conf = feats @ w[g]
            _, counts, sum_c, sum_a = equal_width_totals(conf, correct, num_bins)
            nz = counts > 0
            gap = (sum_a[nz] - sum_c[nz]) / counts[nz]
            out[g] = float(((counts[nz] / n) * gap * gap).sum())
        return out

    return value


# The fewest validation rows worth a worker of the ETS-ECE bound search. Timed
# on a 2-vCPU Xeon VM, fit_ets(loss="ece") in two workers against one, over
# 12 alternating pairs on heteroscedastic sets: two won 0 of 12 at 2 000 rows,
# 6 at 3 000 and 12 at 4 000 (133 -> 87 ms). So two workers from 4 000 rows.
ETS_ROWS_PER_WORKER = 2_000


def _grid_argmin(objective, grid: np.ndarray, floor, rows: int) -> np.ndarray:
    """First grid point of least objective value. Given floor(grid) <= objective(grid),
    points are evaluated 32 at a time in ascending floor order until the next floor
    exceeds the best value found: every point skipped is worse than the minimum, so
    the result is that of the exhaustive search.

    The 32-point chunks are dealt round-robin to workers, one per ETS_ROWS_PER_WORKER
    rows of the objective's data, each pruning against its own best value. That is
    at least the global minimum, so a worker too evaluates every point that attains
    it, and the first argmin over all workers' values is the same point."""
    if floor is None:
        return grid[int(np.argmin(objective(grid)))]
    lows = floor(grid)
    chunks = np.split(np.argsort(lows, kind="stable"), range(32, len(grid), 32))
    count = workers.worker_count(len(chunks), rows, ETS_ROWS_PER_WORKER)

    def search(share: np.ndarray) -> np.ndarray:
        values = np.full(len(share), np.inf)
        for start in range(0, len(share), 32):
            part = share[start : start + 32]
            if lows[part[0]] > values.min():
                break
            values[start : start + 32] = objective(grid[part])
        return values

    shares = [np.concatenate(chunks[k::count]) for k in range(count)]
    values = np.full(len(grid), np.inf)
    for share, found in zip(shares, workers.forked_map(search, shares, float)):
        values[share] = found
    return grid[int(np.argmin(values))]


def fit_ets(dataset: Dataset, ts: TsModel, loss: str = "mse", num_bins: int = 10) -> EtsModel:
    """T from the given TS fit of dataset; weights by simplex grid search (0.01) plus
    local refinement (0.001) minimizing mse to one-hot labels or the squared-gap ECE."""
    if loss not in LOSSES:
        raise ValueError("loss must be 'mse' or 'ece'")
    t = ts.temperature
    z = dataset.logits
    c = dataset.num_classes
    p1 = softmax(z / t)
    p2 = softmax(z)
    if loss == "mse":
        objective, floor = _ets_mse_objective(p1, p2, dataset.labels), None
    else:
        pred = np.argmax(z, axis=1)
        rows = np.arange(len(dataset))
        q1, q2, correct = p1[rows, pred], p2[rows, pred], pred == dataset.labels
        objective = _ets_ece_objective(q1, q2, correct, num_bins, c)
        # Squared-gap ECE >= (acc - mean conf)^2 by Jensen's inequality, as the bin
        # weights n_m/N sum to 1; mean conf = w . mean(feats). In floats each side is
        # off by O(N*eps) (sums of at most N terms in [0, 1], gaps at most 1), so the
        # floor gives up 64*N*eps, a wide margin over that rounding.
        mean_feats, slack = np.array([q1.mean(), q2.mean(), 1.0 / c]), 64 * len(dataset) * np.finfo(float).eps
        floor = lambda w: (correct.mean() - w @ mean_feats) ** 2 - slack

    best = _grid_argmin(objective, _simplex_grid(0.01), floor, len(dataset))

    # local refinement on a 0.001 lattice around the coarse optimum
    deltas = np.arange(-10, 11) * 0.001
    cand = []
    for d1 in deltas:
        for d2 in deltas:
            w1, w2 = best[0] + d1, best[1] + d2
            w3 = 1.0 - w1 - w2
            if w1 >= -1e-12 and w2 >= -1e-12 and w3 >= -1e-12:
                cand.append((max(w1, 0.0), max(w2, 0.0), max(w3, 0.0)))
    best = _grid_argmin(objective, np.asarray(cand), floor, len(dataset))
    best = best / best.sum()
    return EtsModel(temperature=t, weights=(float(best[0]), float(best[1]), float(best[2])), num_classes=c)


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def softplus_inverse(y: float) -> float:
    if y <= 0:
        raise ValueError("softplus is positive")
    return y + math.log1p(-math.exp(-y))


@dataclass(frozen=True)
class PtsTrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1000
    steps: int = 100_000
    num_bins: int = 10
    hidden: tuple[int, ...] = (5, 5)
    loss: str = "ece"  # ece | mse
    seed: int = 17
    topk: int = 10

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size, self.steps, self.num_bins, self.topk) <= 0:
            raise ValueError("all training-config values must be positive")
        if self.loss not in LOSSES:
            raise ValueError("loss must be 'ece' or 'mse'")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")


@dataclass(frozen=True)
class PtsModel:
    """Temperature network over the sorted top-k logits; T >= t_min via softplus."""

    mlp: MlpParams
    input_width: int
    num_classes: int
    t_min: float = T_MIN
    config: PtsTrainConfig = field(default_factory=PtsTrainConfig)

    kind = "pts"

    def __post_init__(self):
        ws, bs = self.mlp.weights, self.mlp.biases
        if not ws or len(bs) != len(ws) or any(w.ndim != 2 or b.shape != w.shape[1:] for w, b in zip(ws, bs)):
            raise ValueError("each layer needs a weight matrix and one bias per output unit")
        widths = self.mlp.widths
        if any(w.shape[0] != fan_in for w, fan_in in zip(ws, widths)):
            raise ValueError(f"layer shapes do not chain: {[w.shape for w in ws]}")
        if widths[0] != self.input_width:
            raise ValueError(f"input_width {self.input_width} does not match the first layer's width {widths[0]}")
        if widths[-1] != 1:
            raise ValueError(f"the last layer must have width 1, got {widths[-1]}")
        if not self.t_min > 0:  # T = t_min + softplus(raw) must stay positive
            raise ValueError(f"t_min must be positive, got {self.t_min}")

    def apply_probs(self, logits: np.ndarray) -> np.ndarray:
        return apply_pts(logits, self)

    def to_params(self) -> dict:
        return {
            "widths": self.mlp.widths,
            "weights": [w.tolist() for w in self.mlp.weights],
            "biases": [b.tolist() for b in self.mlp.biases],
            "input_width": self.input_width,
            "t_min": self.t_min,
            "config": asdict(self.config),
        }

    @classmethod
    def from_params(cls, p: dict, num_classes: int) -> "PtsModel":
        config = {f.name: p["config"][f.name] for f in fields(PtsTrainConfig)}
        config["hidden"] = tuple(config["hidden"])
        return cls(
            mlp=MlpParams(weights=p["weights"], biases=p["biases"]),
            input_width=int(p["input_width"]),
            num_classes=num_classes,
            t_min=p["t_min"],
            config=PtsTrainConfig(**config),
        )


def pts_temperature_batch(logits: np.ndarray, model: PtsModel) -> np.ndarray:
    zs = sorted_topk_matrix(np.asarray(logits, dtype=float), model.input_width)
    raw, _ = forward_batch(model.mlp, zs)
    return model.t_min + softplus(raw)


def apply_pts(logits: np.ndarray, model: PtsModel) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    # logits near the float range can overflow the network to inf or NaN;
    # _tempered_softmax turns a non-finite T into NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        t = pts_temperature_batch(z, model)
    return _tempered_softmax(z, t[:, None])


def _pts_q_batch(mlp: MlpParams, zs: np.ndarray, z: np.ndarray, t_min: float):
    """Calibrated confidences Q for a batch plus everything backward needs.

    zs is the (B, k) network input and z the batch's (C, B) logits, stored
    class-major or as a transposed view of row-major logits; every
    elementwise result keeps z's layout. zs[:, 0] is each row's largest
    logit, so for T > 0 the row max of z/T is zs[:, 0] / T exactly and
    softmax(z/T) needs no max reduction. The largest entry is then
    exp(0) = 1, so Q is 1 / rowsum exactly. A non-finite z/T (logits near
    the float range with T < 1) gives NaN, never an error; callers check
    the loss.
    """
    raw, cache = forward_batch(mlp, zs)
    t = t_min + softplus(raw)
    top = zs[:, 0]
    probs = z / t
    probs -= top / t
    np.exp(probs, out=probs)
    rowsum = probs.sum(axis=0)
    probs /= rowsum
    q = 1.0 / rowsum
    return q, (raw, cache, t, probs, q, top)


def _pts_backward_q(mlp: MlpParams, aux, z: np.ndarray, dq: np.ndarray, out: MlpParams) -> MlpParams:
    """Backpropagate per-sample dL/dQ through softmax(z/T) and the network,
    for the (C, B) z given to _pts_q_batch; the gradients go into out."""
    raw, cache, t, probs, q, top = aux
    # dQ/dT = -(Q/T^2) * (z_pred - E_p[z]), and z_pred is the row's largest logit
    expected_z = (probs * z).sum(axis=0)
    dq_dt = -(q / (t * t)) * (top - expected_z)
    # dT/draw = sigmoid(raw)
    draw = dq * dq_dt / (1.0 + np.exp(-raw))
    return backward_batch(mlp, cache, draw, out=out)


def _ece_loss_and_dq(q: np.ndarray, correct: np.ndarray, num_bins: int):
    """Squared-gap binned loss with bin memberships and bin accuracies frozen;
    the gradient flows only through the per-bin mean of Q. Returns the loss,
    dL/dQ and each sample's bin."""
    beta = q.shape[0]
    idx, counts, sum_q, sum_a = equal_width_totals(q, correct, num_bins)
    safe = np.maximum(counts, 1)
    mean_q = sum_q / safe
    acc = sum_a / safe
    gap = acc - mean_q
    loss = float(((counts / beta) * gap * gap).sum())
    dq = ((2.0 / beta) * (mean_q - acc))[idx]  # per bin, then one gather
    return loss, dq, idx


def pts_ece_loss(model: PtsModel, dataset: Dataset) -> float:
    """Full-dataset value of the squared-gap binned training objective."""
    pred = np.argmax(dataset.logits, axis=1)
    zs = sorted_topk_matrix(dataset.logits, model.input_width)
    q, _ = _pts_q_batch(model.mlp, zs, dataset.logits.T, model.t_min)
    loss, _, _ = _ece_loss_and_dq(q, pred == dataset.labels, model.config.num_bins)
    return loss


def _recenter_biases(mlp: MlpParams, inputs: np.ndarray) -> None:
    """Center every pre-activation over the fit data, then start the output at
    T ~= 1. The sorted top-k logits are all large and positive, so zero biases
    leave narrow hidden layers permanently dead; centering keeps each unit
    active on about half the data."""
    h = inputs
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        a = h @ w + b
        b -= a.mean(axis=0)
        if i == last:
            b += softplus_inverse(1.0 - T_MIN)
        h = np.maximum(a - a.mean(axis=0), 0.0)


RESUSCITATE_EVERY = 500
# fit_pts copies each batch of logits class-major up to this many classes;
# above it, on a (1 000, C) batch, the copy costs more than the sums save
CLASS_MAJOR_MAX_CLASSES = 24


def _resuscitate_dead_units(mlp: MlpParams, inputs: np.ndarray) -> None:
    """Bump the bias of any hidden unit that is inactive on the entire fit set
    just past zero, so its gradient path reopens. No-op when nothing is dead;
    narrow layers otherwise risk permanent ReLU death mid-training."""
    h = inputs
    for i in range(len(mlp.weights) - 1):
        a = h @ mlp.weights[i] + mlp.biases[i]
        dead = a.max(axis=0) <= 0.0
        if np.any(dead):
            shift = -np.median(a[:, dead], axis=0)
            mlp.biases[i][dead] += shift
            a[:, dead] += shift
        h = np.maximum(a, 0.0)


# Overflow on logits near the float range either ends as a NaN loss or
# non-finite weights, both raised as NumericalError, or is harmless (a huge T
# makes T*T inf and that sample's gradient 0; a raw output below about -709
# makes exp(-raw) inf and the sigmoid its limit 0); numpy's warnings would add
# nothing but stderr noise.
@np.errstate(over="ignore", invalid="ignore")
def fit_pts(dataset: Dataset, config: PtsTrainConfig | None = None) -> PtsModel:
    """Train the temperature network with Adam on seeded uniform minibatches.

    Per step, bin memberships and bin accuracies are constants of the batch;
    the gradient reaches the network only through the calibrated confidences.
    """
    cfg = config or PtsTrainConfig()
    rng = np.random.default_rng(cfg.seed)
    widths = [cfg.topk, *cfg.hidden, 1]
    mlp = init_mlp(widths, rng=rng)

    z_all = dataset.logits
    # C-contiguous: gathering from it is several times cheaper than from the
    # reversed-stride view that sorted_topk_matrix returns
    zs_all = np.ascontiguousarray(sorted_topk_matrix(z_all, cfg.topk))
    _recenter_biases(mlp, zs_all)
    corr_all = np.argmax(z_all, axis=1) == dataset.labels
    n = len(dataset)

    # Logit rows are gathered into reused buffers (mode="clip" lets take
    # write into them unbuffered; the indices are in range). With few
    # classes the rows are then copied class-major, one contiguous (B,) run
    # per class, so the softmax's sums over classes are C vector adds; with
    # more, that copy costs more than it saves, and the step reads the rows
    # through a transposed view.
    rows = np.empty((cfg.batch_size, z_all.shape[1]))
    class_major = z_all.shape[1] <= CLASS_MAJOR_MAX_CLASSES
    z = np.empty((z_all.shape[1], cfg.batch_size)) if class_major else rows.T
    zs = np.empty((cfg.batch_size, cfg.topk))
    grads = zeros_like_params(mlp)
    state = adam_init(mlp)

    last_resuscitation = cfg.steps - cfg.steps // 10
    for step in range(cfg.steps):
        if step and step % RESUSCITATE_EVERY == 0 and step <= last_resuscitation:
            _resuscitate_dead_units(mlp, zs_all)
        idx = rng.integers(0, n, size=cfg.batch_size)
        np.take(z_all, idx, axis=0, out=rows, mode="clip")
        if class_major:
            np.copyto(z, rows.T)
        np.take(zs_all, idx, axis=0, out=zs, mode="clip")
        corr = corr_all[idx]
        q, aux = _pts_q_batch(mlp, zs, z, T_MIN)
        if cfg.loss == "ece":
            loss, dq, _ = _ece_loss_and_dq(q, corr, cfg.num_bins)
        else:
            resid = q - corr.astype(float)
            loss = float((resid * resid).mean())
            dq = 2.0 * resid / cfg.batch_size
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at step {state.step}")
        _pts_backward_q(mlp, aux, z, dq, out=grads)
        adam_step(mlp, grads, state, cfg.learning_rate)

    if not mlp.check_finite():
        raise NumericalError("non-finite parameters after training")
    return PtsModel(mlp=mlp, input_width=cfg.topk, num_classes=dataset.num_classes, config=cfg)
