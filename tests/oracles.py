"""Reference code that only the tests use: a finite-difference gradient
checker, the synthetic regimes' inverse maps, and a PTS model pinned to a
constant temperature. Tests import it as ``from oracles import ...``."""

from dataclasses import dataclass

import numpy as np

from calibkit.core import softmax
from calibkit.scaling import T_MIN, PtsModel, PtsTrainConfig, softplus_inverse
from calibkit.synth import SynthConfig, _top_gap
from calibkit.tinynn import MlpParams, init_mlp


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    num_checked: int


def grad_check(params: MlpParams, loss_fn, h: float = 1e-5) -> GradCheckReport:
    """Compare the analytic gradients of loss_fn(params) -> (loss, gradient
    MlpParams) against central finite differences on every parameter entry;
    returns the maximum relative error."""
    _, analytic = loss_fn(params)
    work = MlpParams(params.weights, params.biases)  # construction copies
    max_err, count = 0.0, 0
    for arr, grad in zip([*work.weights, *work.biases], [*analytic.weights, *analytic.biases]):
        flat = arr.reshape(-1)  # a view into work.flat
        for j, g in enumerate(grad.reshape(-1)):
            orig = flat[j]
            flat[j] = orig + h
            lp, _ = loss_fn(work)
            flat[j] = orig - h
            lm, _ = loss_fn(work)
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            diff = abs(g - fd)
            err = 0.0 if diff <= 1e-9 else diff / max(abs(g), abs(fd), 1e-8)
            max_err, count = max(max_err, err), count + 1
    return GradCheckReport(max_rel_error=max_err, num_checked=count)


def _invert_scale(emitted_logits: np.ndarray, config: SynthConfig) -> np.ndarray:
    """Recover the per-sample scale from emitted logits (the inverse map)."""
    if config.regime == "global_temp":
        return np.full(emitted_logits.shape[0], config.scale)
    g = _top_gap(emitted_logits)
    a = config.slope
    if config.regime == "heteroscedastic":
        if a == 0:
            true_gap = g / config.base
        else:
            b = config.base
            true_gap = (-b + np.sqrt(b * b + 4.0 * a * g)) / (2.0 * a)
        return config.base + a * true_gap
    # overconfident_tail: solve a*x^3 + x - g = 0 for the true gap x (Cardano,
    # single real root since a >= 0)
    if a == 0:
        true_gap = g
    else:
        p = 1.0 / a
        q = -g / a
        disc = np.sqrt(q * q / 4.0 + p**3 / 27.0)
        true_gap = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    return 1.0 + a * true_gap * true_gap


def oracle_calibrated_probs(emitted_logits: np.ndarray, config: SynthConfig) -> np.ndarray:
    """Apply the regime's inverse map: the label-generating probabilities."""
    scale = _invert_scale(np.asarray(emitted_logits, dtype=float), config)
    return softmax(emitted_logits / scale[:, None])


def pts_constant_model(temperature: float, num_classes: int) -> PtsModel:
    """A PTS model of the default shape pinned to a constant temperature (zero
    weights, output bias chosen so t_min + softplus(bias) == temperature), the
    equivalent of TS."""
    cfg = PtsTrainConfig()
    mlp = init_mlp([cfg.topk, *cfg.hidden, 1], np.random.default_rng(0))
    mlp.flat[:] = 0.0
    mlp.biases[-1][0] = softplus_inverse(temperature - T_MIN)
    return PtsModel(mlp=mlp, input_width=cfg.topk, num_classes=num_classes, config=cfg)
