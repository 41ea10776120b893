"""The benchmark's traced runs wrap calibkit functions by (module, attribute)
name, listed in bench/tracing.py. These tests fail when a rename or a
captured function reference would make a traced span silently read 0."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import calibkit.cli
import calibkit.experiments as experiments
import calibkit.scaling
from calibkit.core import Dataset
from calibkit.scaling import PtsTrainConfig, fit_pts
from calibkit.synth import SynthConfig, generate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# calibrator kind -> the experiments attribute its traced fitter span wraps
FITTERS = {
    "ts": "fit_ts",
    "ets": "fit_ets",
    "pts": "fit_pts",
    "histbin": "fit_hist_binning",
    "irova": "fit_irova",
    "irm": "fit_irm",
    "irova_ts": "fit_irova_ts",
    "pbmc": "fit_pbmc",
}

# the calibkit.scaling attributes that the traced PTS step split times
STEP_HELPERS = ("forward_batch", "_pts_q_batch", "_ece_loss_and_dq", "_pts_backward_q", "backward_batch", "adam_step")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_traced_command_is_a_cli_command(tracing):
    assert set(tracing.CLI_COMMANDS) <= set(calibkit.cli.COMMANDS)


def test_fitter_table_covers_every_traced_fitter(tracing):
    traced = {attr for module, attr, _ in tracing.PATCHES if module == "calibkit.experiments"}
    assert set(FITTERS) == set(experiments.CALIBRATORS)
    assert set(FITTERS.values()) <= traced


@pytest.mark.parametrize("kind", sorted(FITTERS))
def test_fit_method_calls_the_patched_fitter(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(experiments, FITTERS[kind], lambda *args, **kwargs: calls.append(args) or "patched")
    ds = Dataset(labels=np.array([0, 1]), logits=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert experiments.fit_method(kind, ds, seed=3, num_bins=10) == "patched"
    assert len(calls) == 1 and calls[0][0] is ds


def test_step_helpers_are_traced(tracing):
    traced = {attr for module, attr, _ in tracing.PATCHES if module == "calibkit.scaling"}
    assert set(STEP_HELPERS) <= traced


def test_fit_pts_calls_each_step_helper_once_a_step(monkeypatch):
    calls = dict.fromkeys(STEP_HELPERS, 0)
    for name in STEP_HELPERS:

        def counted(*args, _name=name, _fn=getattr(calibkit.scaling, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(calibkit.scaling, name, counted)
    ds = generate(SynthConfig(num_samples=300, regime="heteroscedastic", seed=5))
    fit_pts(ds, PtsTrainConfig(steps=7, batch_size=50))
    assert calls == dict.fromkeys(STEP_HELPERS, 7)
