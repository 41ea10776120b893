"""Fit/evaluate plumbing behind the CLI: the calibrator registry, report
blocks, and the four synthetic-oracle experiment runners (capacity sweep,
bin sweep, data-efficiency sweep, loss ablation)."""

from __future__ import annotations

import functools
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
# experiments.fit_* is the one that runs. `ts()` returns the dataset's TS fit,
# made at most once per fit_methods call and shared by ts, ets and irova_ts.
CALIBRATORS = {
    "ts": (TsModel, lambda ds, ts, **_: ts()),
    "ets": (EtsModel, lambda ds, ts, num_bins, loss, **_: fit_ets(ds, ts(), loss or "mse", num_bins)),
    "pts": (PtsModel, lambda ds, seed, pts_config, loss, **_: fit_pts(ds, _pts_fit_config(pts_config, seed, loss))),
    "histbin": (HistBinModel, lambda ds, num_bins, **_: fit_hist_binning(ds, num_bins)),
    "irova": (IrovaModel, lambda ds, **_: fit_irova(ds)),
    "irm": (IrmModel, lambda ds, **_: fit_irm(ds)),
    "irova_ts": (IrovaTsModel, lambda ds, ts, **_: fit_irova_ts(ds, ts())),
    "pbmc": (PbmcModel, lambda ds, seed, num_bins, **_: fit_pbmc(ds, num_bins=num_bins, seed=seed)),
}


def fit_methods(
    methods: Sequence[str],
    dataset: Dataset,
    seed: int = DEFAULT_SEED,
    num_bins: int = 10,
    pts_config: PtsTrainConfig | None = None,
    loss: str | None = None,
):
    """Fit each method on dataset in order; yields (method, model, fit seconds).
    The first method that needs the TS fit pays for it."""
    unknown = [m for m in methods if m not in CALIBRATORS]
    if unknown:
        raise ValueError(f"unknown calibrator kind(s): {', '.join(unknown)}")
    ts = functools.cache(lambda: fit_ts(dataset))
    for method in methods:
        start = time.perf_counter()
        model = CALIBRATORS[method][1](dataset, ts=ts, seed=seed, num_bins=num_bins, pts_config=pts_config, loss=loss)
        yield method, model, time.perf_counter() - start


def fit_method(method: str, dataset: Dataset, seed: int = DEFAULT_SEED, num_bins: int = 10, pts_config=None, loss=None):
    [(_, model, _)] = fit_methods([method], dataset, seed, num_bins, pts_config, loss)
    return model


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
    return evaluate_probs(model.apply_probs(dataset.logits), dataset, bins)


def run_compare(
    methods: Sequence[str],
    val: Dataset,
    test: Dataset,
    bins: Sequence[int],
    seed: int = DEFAULT_SEED,
    pts_config: PtsTrainConfig | None = None,
    timings: bool = False,
) -> dict:
    """Fit every requested calibrator on val, evaluate all (plus the
    uncalibrated base) on test."""
    report = {
        "schema_version": 1,
        "seed": seed,
        "num_classes": test.num_classes,
        "bins": list(bins),
        "methods": {"base": evaluate_probs(softmax(test.logits), test, bins)},
    }
    for method, model, secs in fit_methods(methods, val, seed, bins[0], pts_config):
        block = evaluate_model(model, test, bins)
        if timings:
            block["fit_wall_time_s"] = secs
        report["methods"][method] = block
    return report


def _hetero_config(n: int, seed: int) -> SynthConfig:
    return SynthConfig(num_samples=n, regime="heteroscedastic", base=1.0, slope=0.5, seed=seed)


def _global_config(n: int, seed: int) -> SynthConfig:
    return SynthConfig(num_samples=n, regime="global_temp", scale=2.5, seed=seed)


def _oracle_pair(make_config, seed: int) -> tuple[Dataset, Dataset]:
    val = generate(make_config(EXPERIMENT_VAL_SIZE, seed))
    test = generate(make_config(EXPERIMENT_TEST_SIZE, seed + 1))
    return val, test


def _test_ece(model, test: Dataset, num_bins: int = 10) -> float:
    preds = Predictions.from_probs(model.apply_probs(test.logits), test.labels)
    return ece(preds, num_bins, d=1).value


def run_capacity(pts_config: PtsTrainConfig, seed: int = DEFAULT_SEED, widths=(1, 2, 5, 10, 20), **_) -> list[dict]:
    """Test ECE of TS and of PTS at increasing hidden widths (heteroscedastic oracle)."""
    val, test = _oracle_pair(_hetero_config, seed)
    ts = fit_method("ts", val)
    rows = [{"method": "ts", "hidden_width": 0, "num_parameters": 1, "test_ece": _test_ece(ts, test)}]
    for w in widths:
        model = fit_method("pts", val, seed, pts_config=replace(pts_config, hidden=(int(w), int(w))))
        rows.append(
            {
                "method": "pts",
                "hidden_width": int(w),
                "num_parameters": int(model.mlp.flat.size),
                "test_ece": _test_ece(model, test),
            }
        )
    return rows


def run_bins_sweep(pts_config: PtsTrainConfig, seed: int = DEFAULT_SEED, bins=range(5, 21, 2), **_) -> list[dict]:
    """ECE of TS, ETS and PTS under every requested evaluation bin count."""
    val, test = _oracle_pair(_hetero_config, seed)
    return [
        {"method": name, "num_bins": int(m), "test_ece": _test_ece(model, test, m)}
        for name, model, _ in fit_methods(("ts", "ets", "pts"), val, seed, pts_config=pts_config)
        for m in bins
    ]


def run_data_efficiency(
    pts_config: PtsTrainConfig,
    seed: int = DEFAULT_SEED,
    fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    methods=("ts", "ets", "pts", "irova"),
    **_,
) -> list[dict]:
    """ECE per method when fitting on shrinking subsets of the validation oracle."""
    val, test = _oracle_pair(_global_config, seed)
    rows = []
    for frac in fractions:
        subset = val if frac >= 1.0 else split(val, (frac,), seed=seed)[0]
        for method, model, _ in fit_methods(methods, subset, seed, pts_config=pts_config):
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
    pts_config: PtsTrainConfig, seed: int = DEFAULT_SEED, methods=("ets", "pts"), losses=("mse", "ece"), **_
) -> list[dict]:
    """Grid of test ECEs for each (method, training loss) combination."""
    val, test = _oracle_pair(_hetero_config, seed)
    fits = ((m, loss, fit_method(m, val, seed, pts_config=pts_config, loss=loss)) for m in methods for loss in losses)
    return [{"method": m, "loss": loss, "test_ece": _test_ece(model, test)} for m, loss, model in fits]


# experiment name -> runner. Every runner takes (pts_config, seed=..., **given):
# `given` holds the experiment flags passed on the command line, and a runner
# defaults the ones that are missing and ignores the ones it does not use.
EXPERIMENTS = {
    "capacity": run_capacity,
    "bins": run_bins_sweep,
    "data_efficiency": run_data_efficiency,
    "loss_ablation": run_loss_ablation,
}
