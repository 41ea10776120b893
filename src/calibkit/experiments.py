"""Fit/evaluate plumbing behind the CLI: the calibrator registry, report
blocks, and the four synthetic-oracle experiment runners (capacity sweep,
bin sweep, data-efficiency sweep, loss ablation)."""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, replace
from typing import Sequence

import numpy as np

from .core import Dataset, Predictions, softmax
from .metrics import accuracy, ece, ece_equal_mass, ece_kde, nll, reliability_data
from .binning import HistBinModel, IrmModel, IrovaModel, IrovaTsModel, PbmcModel
from .binning import fit_hist_binning, fit_irm, fit_irova, fit_irova_ts, fit_pbmc
from .scaling import EtsModel, PtsModel, PtsTrainConfig, TsModel, fit_ets, fit_pts, fit_ts
from .synth import SynthConfig, generate, split

EXPERIMENT_VAL_SIZE = 20_000
EXPERIMENT_TEST_SIZE = 20_000


# kind -> (model class, fitter). Every fitter takes (dataset, ts, config, loss)
# and reads its seed and bin count from config, so one PtsTrainConfig states
# them for every calibrator of a run. A loss of None is the method's default:
# mse for ets, config.loss for pts. The fitters name this module's fit_*
# functions inside lambdas, so they are looked up when called and a patched
# experiments.fit_* is the one that runs. `ts()` returns the dataset's TS fit,
# made at most once per fit_methods call and shared by ts, ets and irova_ts.
CALIBRATORS = {
    "ts": (TsModel, lambda ds, ts, cfg, loss: ts()),
    "ets": (EtsModel, lambda ds, ts, cfg, loss: fit_ets(ds, ts(), loss or "mse", cfg.num_bins)),
    "pts": (PtsModel, lambda ds, ts, cfg, loss: fit_pts(ds, replace(cfg, loss=loss) if loss else cfg)),
    "histbin": (HistBinModel, lambda ds, ts, cfg, loss: fit_hist_binning(ds, cfg.num_bins)),
    "irova": (IrovaModel, lambda ds, ts, cfg, loss: fit_irova(ds)),
    "irm": (IrmModel, lambda ds, ts, cfg, loss: fit_irm(ds)),
    "irova_ts": (IrovaTsModel, lambda ds, ts, cfg, loss: fit_irova_ts(ds, ts())),
    "pbmc": (PbmcModel, lambda ds, ts, cfg, loss: fit_pbmc(ds, num_bins=cfg.num_bins, seed=cfg.seed)),
}
# the methods whose fit reads the training loss; fit_methods fits every other
# method once, whatever the losses
LOSS_METHODS = ("ets", "pts")


def fit_methods(methods: Sequence[str], dataset: Dataset, config: PtsTrainConfig, losses: Sequence = (None,)):
    """Fit each method on dataset with each loss, in that order; yields
    (method, loss, model, fit seconds). A method outside LOSS_METHODS is fitted
    with the first loss, and that model and time are yielded for every loss.
    The first fit that needs the TS fit pays for it."""
    unknown = [m for m in methods if m not in CALIBRATORS]
    if unknown:
        raise ValueError(f"unknown calibrator kind(s): {', '.join(unknown)}")
    ts = functools.cache(lambda: fit_ts(dataset))
    for method in methods:
        for i, loss in enumerate(losses):
            if i == 0 or method in LOSS_METHODS:
                start = time.perf_counter()
                model = CALIBRATORS[method][1](dataset, ts, config, loss)
                seconds = time.perf_counter() - start
            yield method, loss, model, seconds


def fit_method(method: str, dataset: Dataset, loss: str | None = None, **settings):
    """One fit whose seed, bin count and PTS settings are PtsTrainConfig(**settings)."""
    [(_, _, model, _)] = fit_methods([method], dataset, PtsTrainConfig(**settings), [loss])
    return model


def evaluate_probs(probs: np.ndarray, dataset: Dataset, bins: Sequence[int]) -> dict:
    preds = Predictions.from_probs(probs, dataset.labels)
    return {
        "ece_equal_width": {str(m): ece(preds, m) for m in bins},
        "ece_equal_mass": ece_equal_mass(preds, bins[0]),
        "ece_kde": ece_kde(preds),
        "accuracy": accuracy(preds),
        "nll": nll(dataset, probs),
        "reliability": [asdict(s) for s in reliability_data(preds, bins[0])],
    }


def evaluate_model(model, dataset: Dataset, bins: Sequence[int]) -> dict:
    return evaluate_probs(model.apply_probs(dataset.logits), dataset, bins)


def run_compare(
    methods: Sequence[str],
    val: Dataset,
    test: Dataset,
    bins: Sequence[int],
    config: PtsTrainConfig,
    timings: bool = False,
) -> dict:
    """Fit every requested calibrator on val, evaluate all (plus the
    uncalibrated base) on test."""
    report = {
        "schema_version": 1,
        "seed": config.seed,
        "num_classes": test.num_classes,
        "bins": list(bins),
        "methods": {"base": evaluate_probs(softmax(test.logits), test, bins)},
    }
    for method, _, model, secs in fit_methods(methods, val, config):
        block = evaluate_model(model, test, bins)
        if timings:
            block["fit_wall_time_s"] = secs
        report["methods"][method] = block
    return report


# the experiments' two synthetic oracles
HETERO = {"regime": "heteroscedastic", "base": 1.0, "slope": 0.5}
GLOBAL_TEMP = {"regime": "global_temp", "scale": 2.5}


def _oracle_pair(oracle: dict, seed: int) -> tuple[Dataset, Dataset]:
    val = generate(SynthConfig(num_samples=EXPERIMENT_VAL_SIZE, seed=seed, **oracle))
    test = generate(SynthConfig(num_samples=EXPERIMENT_TEST_SIZE, seed=seed + 1, **oracle))
    return val, test


def _test_ece(model, test: Dataset) -> float:
    preds = Predictions.from_probs(model.apply_probs(test.logits), test.labels)
    return ece(preds, 10)


def run_capacity(config: PtsTrainConfig, widths=(1, 2, 5, 10, 20), **_) -> list[dict]:
    """Test ECE of TS and of PTS at increasing hidden widths (heteroscedastic oracle)."""
    val, test = _oracle_pair(HETERO, config.seed)
    [(_, _, ts, _)] = fit_methods(["ts"], val, config)
    rows = [{"method": "ts", "hidden_width": 0, "num_parameters": 1, "test_ece": _test_ece(ts, test)}]
    for w in widths:
        [(_, _, model, _)] = fit_methods(["pts"], val, replace(config, hidden=(int(w), int(w))))
        rows.append(
            {
                "method": "pts",
                "hidden_width": int(w),
                "num_parameters": int(model.mlp.flat.size),
                "test_ece": _test_ece(model, test),
            }
        )
    return rows


def run_bins_sweep(config: PtsTrainConfig, bins=range(5, 21, 2), **_) -> list[dict]:
    """ECE of TS, ETS and PTS under every requested evaluation bin count."""
    val, test = _oracle_pair(HETERO, config.seed)
    rows = []
    for name, _, model, _ in fit_methods(("ts", "ets", "pts"), val, config):
        preds = Predictions.from_probs(model.apply_probs(test.logits), test.labels)  # one apply per model
        rows += [{"method": name, "num_bins": int(m), "test_ece": ece(preds, m)} for m in bins]
    return rows


def run_data_efficiency(
    config: PtsTrainConfig,
    fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    methods=("ts", "ets", "pts", "irova"),
    **_,
) -> list[dict]:
    """ECE per method when fitting on shrinking subsets of the validation oracle."""
    val, test = _oracle_pair(GLOBAL_TEMP, config.seed)
    rows = []
    for frac in fractions:
        subset = val if frac >= 1.0 else split(val, (frac,), seed=config.seed)[0]
        for method, _, model, _ in fit_methods(methods, subset, config):
            rows.append(
                {
                    "method": method,
                    "fraction": float(frac),
                    "num_fit_samples": len(subset),
                    "test_ece": _test_ece(model, test),
                }
            )
    return rows


def run_loss_ablation(config: PtsTrainConfig, methods=("ets", "pts"), losses=("mse", "ece"), **_) -> list[dict]:
    """Grid of test ECEs for each (method, training loss) combination."""
    val, test = _oracle_pair(HETERO, config.seed)
    fits = fit_methods(methods, val, config, losses)
    return [{"method": m, "loss": loss, "test_ece": _test_ece(model, test)} for m, loss, model, _ in fits]


# experiment name -> runner. Every runner takes (config, **given): config
# holds the seed, the bin count and the PTS settings of every fit, and `given`
# holds the experiment flags passed on the command line; a runner defaults the
# ones that are missing and ignores the ones it does not use.
EXPERIMENTS = {
    "capacity": run_capacity,
    "bins": run_bins_sweep,
    "data_efficiency": run_data_efficiency,
    "loss_ablation": run_loss_ablation,
}
