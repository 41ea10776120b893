"""Fit/evaluate plumbing behind the CLI: the calibrator registry, report
blocks, and the four synthetic-oracle experiment runners (capacity sweep,
bin sweep, data-efficiency sweep, loss ablation)."""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, replace
from typing import Sequence

import numpy as np

from . import workers
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
# experiments.fit_* is the one that runs. `ts` is the dataset's TS fit, which
# _shared_ts makes once, before any other fit, for ts, ets and irova_ts.
CALIBRATORS = {
    "ts": (TsModel, lambda ds, ts, cfg, loss: ts),
    "ets": (EtsModel, lambda ds, ts, cfg, loss: fit_ets(ds, ts, loss or "mse", cfg.num_bins)),
    "pts": (PtsModel, lambda ds, ts, cfg, loss: fit_pts(ds, replace(cfg, loss=loss) if loss else cfg)),
    "histbin": (HistBinModel, lambda ds, ts, cfg, loss: fit_hist_binning(ds, cfg.num_bins)),
    "irova": (IrovaModel, lambda ds, ts, cfg, loss: fit_irova(ds)),
    "irm": (IrmModel, lambda ds, ts, cfg, loss: fit_irm(ds)),
    "irova_ts": (IrovaTsModel, lambda ds, ts, cfg, loss: fit_irova_ts(ds, ts)),
    "pbmc": (PbmcModel, lambda ds, ts, cfg, loss: fit_pbmc(ds, num_bins=cfg.num_bins, seed=cfg.seed)),
}
# the methods whose fit reads the training loss; every other method is fitted
# once, with the first loss, whatever the losses
LOSS_METHODS = ("ets", "pts")
# the methods built on the dataset's TS fit
TS_METHODS = ("ts", "ets", "irova_ts")
# rows fitted and scored per forked worker of compare and the experiments,
# counting each item's fit rows plus its scored rows: in fresh processes,
# compare's 7 non-PTS methods lost with two workers at 1 000 rows a set
# (16 000 in all) and won from 1 500 (24 000)
ITEM_ROWS_PER_WORKER = 12_000


def _check_methods(methods: Sequence[str]) -> None:
    unknown = [m for m in methods if m not in CALIBRATORS]
    if unknown:
        raise ValueError(f"unknown calibrator kind(s): {', '.join(unknown)}")


def _shared_ts(methods: Sequence[str], dataset: Dataset) -> tuple[TsModel | None, float]:
    """The dataset's TS fit and its seconds, when a method is built on it."""
    if not any(m in TS_METHODS for m in methods):
        return None, 0.0
    start = time.perf_counter()
    return fit_ts(dataset), time.perf_counter() - start


def _fit(method: str, dataset: Dataset, ts, config: PtsTrainConfig, loss: str | None = None):
    """One method's fit, given the dataset's shared TS fit."""
    return CALIBRATORS[method][1](dataset, ts, config, loss)


def fit_method(method: str, dataset: Dataset, loss: str | None = None, **settings):
    """One fit whose seed, bin count and PTS settings are PtsTrainConfig(**settings)."""
    _check_methods([method])
    return _fit(method, dataset, _shared_ts([method], dataset)[0], PtsTrainConfig(**settings), loss)


def _fit_and_score(items: list, rows: int) -> list:
    """[item() for item in items] on every CPU, where each item fits and
    scores on at most `rows` rows (see workers.forked_items): the items stay
    in this process below ITEM_ROWS_PER_WORKER rows a worker."""
    count = workers.worker_count(len(items), len(items) * rows, ITEM_ROWS_PER_WORKER)
    return workers.forked_items(lambda i: items[i](), len(items), count)


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
    uncalibrated base) on test. With timings, each block reports its fit
    seconds, and the first of ts, ets and irova_ts also the shared TS fit."""
    _check_methods(methods)
    ts, ts_seconds = _shared_ts(methods, val)
    first_on_ts = next((i for i, m in enumerate(methods) if m in TS_METHODS), None)

    def block(i: int) -> dict:
        start = time.perf_counter()
        model = _fit(methods[i], val, ts, config)
        seconds = time.perf_counter() - start
        out = evaluate_model(model, test, bins)
        if timings:
            out["fit_wall_time_s"] = seconds + (ts_seconds if i == first_on_ts else 0.0)
        return out

    base = [lambda: evaluate_probs(softmax(test.logits), test, bins)]
    blocks = _fit_and_score(base + [functools.partial(block, i) for i in range(len(methods))], len(val) + len(test))
    return {
        "schema_version": 1,
        "seed": config.seed,
        "num_classes": test.num_classes,
        "bins": list(bins),
        "methods": dict(zip(["base", *methods], blocks)),
    }


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
    ts, _ = _shared_ts(["ts"], val)

    def pts_row(width: int) -> dict:
        model = _fit("pts", val, None, replace(config, hidden=(width, width)))
        n = int(model.mlp.flat.size)
        return {"method": "pts", "hidden_width": width, "num_parameters": n, "test_ece": _test_ece(model, test)}

    ts_row = {"method": "ts", "hidden_width": 0, "num_parameters": 1}
    items = [lambda: ts_row | {"test_ece": _test_ece(ts, test)}]
    return _fit_and_score(items + [functools.partial(pts_row, int(w)) for w in widths], len(val) + len(test))


def run_bins_sweep(config: PtsTrainConfig, bins=range(5, 21, 2), **_) -> list[dict]:
    """ECE of TS, ETS and PTS under every requested evaluation bin count."""
    val, test = _oracle_pair(HETERO, config.seed)
    methods = ("ts", "ets", "pts")
    ts, _ = _shared_ts(methods, val)

    def rows(method: str) -> list[dict]:
        model = _fit(method, val, ts, config)
        preds = Predictions.from_probs(model.apply_probs(test.logits), test.labels)  # one apply per model
        return [{"method": method, "num_bins": int(m), "test_ece": ece(preds, m)} for m in bins]

    tables = _fit_and_score([functools.partial(rows, m) for m in methods], len(val) + len(test))
    return [row for table in tables for row in table]


def run_data_efficiency(
    config: PtsTrainConfig,
    fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    methods=("ts", "ets", "pts", "irova"),
    **_,
) -> list[dict]:
    """ECE per method when fitting on shrinking subsets of the validation oracle."""
    _check_methods(methods)
    val, test = _oracle_pair(GLOBAL_TEMP, config.seed)

    def row(method: str, frac: float, subset: Dataset, ts) -> dict:
        model = _fit(method, subset, ts, config)
        n = len(subset)
        return {"method": method, "fraction": float(frac), "num_fit_samples": n, "test_ece": _test_ece(model, test)}

    items = []
    for frac in fractions:
        subset = val if frac >= 1.0 else split(val, (frac,), seed=config.seed)[0]
        ts, _ = _shared_ts(methods, subset)
        items += [functools.partial(row, m, frac, subset, ts) for m in methods]
    return _fit_and_score(items, len(val) + len(test))


def run_loss_ablation(config: PtsTrainConfig, methods=("ets", "pts"), losses=("mse", "ece"), **_) -> list[dict]:
    """Grid of test ECEs for each (method, training loss) combination; a
    method outside LOSS_METHODS is fitted once and its row repeated."""
    _check_methods(methods)
    val, test = _oracle_pair(HETERO, config.seed)
    ts, _ = _shared_ts(methods, val)
    grid = [(m, loss) for m in methods for loss in losses]
    keys = [(m, loss if m in LOSS_METHODS else losses[0]) for m, loss in grid]
    fits = list(dict.fromkeys(keys))  # each distinct (method, loss) fit once

    def test_ece(method: str, loss: str) -> float:
        return _test_ece(_fit(method, val, ts, config, loss), test)

    eces = _fit_and_score([functools.partial(test_ece, *fit) for fit in fits], len(val) + len(test))
    found = dict(zip(fits, eces))
    return [{"method": m, "loss": loss, "test_ece": found[key]} for (m, loss), key in zip(grid, keys)]


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
