"""Fit/evaluate plumbing behind the CLI: the calibrator registry, report
blocks, and the four synthetic-oracle experiment runners (capacity sweep,
bin sweep, data-efficiency sweep, loss ablation)."""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import Dataset, Predictions, softmax
from .metrics import accuracy, ece, ece_equal_mass, ece_kde, nll, reliability_data
from .binning import HistBinModel, IrmModel, IrovaModel, IrovaTsModel, PbmcModel
from .binning import fit_hist_binning, fit_irm, fit_irova, fit_irova_ts, fit_pbmc
from .scaling import EtsModel, PtsModel, PtsTrainConfig, TsModel, fit_ets, fit_pts, fit_ts
from .synth import SynthConfig, generate, split

DEFAULT_SEED = 17
EXPERIMENT_VAL_SIZE = 20_000
EXPERIMENT_TEST_SIZE = 20_000


def _pts_fit_config(pts_config: PtsTrainConfig | None, seed: int, loss: str | None) -> PtsTrainConfig:
    cfg = pts_config or PtsTrainConfig(seed=seed)
    return replace(cfg, loss=loss) if loss else cfg


# kind -> (model class, fitter). The fitters name this module's fit_*
# functions inside lambdas, so they are looked up when called and a patched
# experiments.fit_* is the one that runs.
CALIBRATORS = {
    "ts": (TsModel, lambda ds, **_: fit_ts(ds)),
    "ets": (EtsModel, lambda ds, num_bins, loss, **_: fit_ets(ds, loss=loss or "mse", num_bins=num_bins)),
    "pts": (PtsModel, lambda ds, seed, pts_config, loss, **_: fit_pts(ds, _pts_fit_config(pts_config, seed, loss))),
    "histbin": (HistBinModel, lambda ds, num_bins, **_: fit_hist_binning(ds, num_bins)),
    "irova": (IrovaModel, lambda ds, **_: fit_irova(ds)),
    "irm": (IrmModel, lambda ds, **_: fit_irm(ds)),
    "irova_ts": (IrovaTsModel, lambda ds, **_: fit_irova_ts(ds)),
    "pbmc": (PbmcModel, lambda ds, seed, num_bins, **_: fit_pbmc(ds, num_bins=num_bins, seed=seed)),
}


def fit_method(
    method: str,
    dataset: Dataset,
    seed: int = DEFAULT_SEED,
    num_bins: int = 10,
    pts_config: PtsTrainConfig | None = None,
    loss: str | None = None,
):
    if method not in CALIBRATORS:
        raise ValueError(f"unknown calibrator kind {method!r}")
    fit = CALIBRATORS[method][1]
    return fit(dataset, seed=seed, num_bins=num_bins, pts_config=pts_config, loss=loss)


def calibrated_probs(model, dataset: Dataset) -> np.ndarray:
    if model is None:  # uncalibrated base
        return softmax(dataset.logits)
    return model.apply_probs(dataset.logits)


def evaluate_probs(probs: np.ndarray, dataset: Dataset, bins: Sequence[int]) -> dict:
    preds = Predictions.from_probs(probs, dataset.labels)
    block = {
        "ece_equal_width": {str(m): ece(preds, m, d=1).value for m in bins},
        "ece_equal_mass": ece_equal_mass(preds, bins[0]).value,
        "ece_kde": ece_kde(preds).value,
        "accuracy": accuracy(preds),
        "nll": nll(dataset, probs),
        "reliability": [
            {
                "bin": s.bin_index,
                "count": s.count,
                "mean_confidence": s.mean_confidence,
                "accuracy": s.accuracy,
                "lower": s.lower,
                "upper": s.upper,
            }
            for s in reliability_data(preds, bins[0])
        ],
    }
    return block


def evaluate_model(model, dataset: Dataset, bins: Sequence[int]) -> dict:
    return evaluate_probs(calibrated_probs(model, dataset), dataset, bins)


def run_compare(
    methods: Sequence[str],
    val: Dataset,
    test: Dataset,
    bins: Sequence[int],
    seed: int = DEFAULT_SEED,
    pts_config: PtsTrainConfig | None = None,
    timings: bool = False,
) -> tuple[dict, dict]:
    """Fit every requested calibrator on val, evaluate all (plus the
    uncalibrated base) on test. Returns (report, fitted models)."""
    for m in methods:
        if m not in CALIBRATORS:
            raise ValueError(f"unknown calibrator kind {m!r}")
    report = {
        "schema_version": 1,
        "seed": seed,
        "num_classes": test.num_classes,
        "bins": list(bins),
        "methods": {"base": evaluate_model(None, test, bins)},
    }
    models = {}
    for m in methods:
        start = time.perf_counter()
        models[m] = fit_method(m, val, seed=seed, num_bins=bins[0], pts_config=pts_config)
        secs = time.perf_counter() - start
        block = evaluate_model(models[m], test, bins)
        if timings:
            block["fit_wall_time_s"] = secs
        report["methods"][m] = block
    return report, models


def _hetero_config(n: int, seed: int) -> SynthConfig:
    return SynthConfig(num_samples=n, regime="heteroscedastic", base=1.0, slope=0.5, seed=seed)


def _global_config(n: int, seed: int) -> SynthConfig:
    return SynthConfig(num_samples=n, regime="global_temp", scale=2.5, seed=seed)


def _oracle_pair(make_config, seed: int) -> tuple[Dataset, Dataset]:
    val = generate(make_config(EXPERIMENT_VAL_SIZE, seed))
    test = generate(make_config(EXPERIMENT_TEST_SIZE, seed + 1))
    return val, test


def _test_ece(model, test: Dataset, num_bins: int = 10) -> float:
    preds = Predictions.from_probs(calibrated_probs(model, test), test.labels)
    return ece(preds, num_bins, d=1).value


def run_capacity(widths: Sequence[int], pts_config: PtsTrainConfig, seed: int = DEFAULT_SEED) -> list[dict]:
    """Test ECE of TS and of PTS at increasing hidden widths (heteroscedastic oracle)."""
    val, test = _oracle_pair(_hetero_config, seed)
    rows = [
        {
            "method": "ts",
            "hidden_width": 0,
            "num_parameters": 1,
            "test_ece": _test_ece(fit_ts(val), test),
        }
    ]
    k = pts_config.topk
    for w in widths:
        cfg = replace(pts_config, hidden=(int(w), int(w)))
        model = fit_pts(val, cfg)
        n_params = (k + 1) * w + (w + 1) * w + (w + 1)
        rows.append(
            {
                "method": "pts",
                "hidden_width": int(w),
                "num_parameters": int(n_params),
                "test_ece": _test_ece(model, test),
            }
        )
    return rows


def run_bins_sweep(
    bins: Sequence[int], pts_config: PtsTrainConfig, seed: int = DEFAULT_SEED
) -> list[dict]:
    """ECE of TS, ETS and PTS under every requested evaluation bin count."""
    val, test = _oracle_pair(_hetero_config, seed)
    models = {
        "ts": fit_ts(val),
        "ets": fit_ets(val),
        "pts": fit_pts(val, pts_config),
    }
    rows = []
    for name, model in models.items():
        for m in bins:
            rows.append({"method": name, "num_bins": int(m), "test_ece": _test_ece(model, test, m)})
    return rows


def run_data_efficiency(
    fractions: Sequence[float],
    pts_config: PtsTrainConfig,
    methods: Sequence[str] = ("ts", "ets", "pts", "irova"),
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    """ECE per method when fitting on shrinking subsets of the validation oracle."""
    val, test = _oracle_pair(_global_config, seed)
    rows = []
    for frac in fractions:
        subset = val if frac >= 1.0 else split(val, (frac,), seed=seed)[0]
        for method in methods:
            model = fit_method(method, subset, seed=seed, pts_config=pts_config)
            rows.append(
                {
                    "method": method,
                    "fraction": float(frac),
                    "num_fit_samples": len(subset),
                    "test_ece": _test_ece(model, test),
                }
            )
    return rows


def run_loss_ablation(
    methods: Sequence[str] = ("ets", "pts"),
    losses: Sequence[str] = ("mse", "ece"),
    pts_config: PtsTrainConfig | None = None,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    """Grid of test ECEs for each (method, training loss) combination."""
    val, test = _oracle_pair(_hetero_config, seed)
    cfg = pts_config or PtsTrainConfig(seed=seed)
    rows = []
    for method in methods:
        for loss in losses:
            model = fit_method(method, val, seed=seed, pts_config=cfg, loss=loss)
            rows.append({"method": method, "loss": loss, "test_ece": _test_ece(model, test)})
    return rows
