"""The forked-worker helper and its three users. forked_map must give the
serial result whatever happens to a worker, reap every child exactly once,
never fork beside another thread and never let a worker return into the
caller; read_logits, the ETS-ECE bound search and ece_kde must give the same
bits with 1, 2 or 3 workers as in one process."""

import ast
import mmap
import os
import signal
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from calibkit import metrics, workers
from calibkit.cli import main
from calibkit.core import Dataset, Predictions
from calibkit.io_files import write_logits
from calibkit.metrics import ece_kde
from calibkit.scaling import TsModel, fit_ets, fit_ts
from calibkit.synth import SynthConfig, generate

SHARES = [np.arange(k, 20, 3) for k in range(3)]


def square(share):
    return np.asarray(share, dtype=float) ** 2


def assert_serial_result(results, shares=SHARES):
    assert len(results) == len(shares)
    for got, share in zip(results, shares):
        assert got.tobytes() == square(share).tobytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_forked_map_gives_the_serial_result_and_reaps_every_child(force_workers, cpus):
    forks = force_workers(cpus)
    assert_serial_result(workers.forked_map(square, SHARES, float))
    assert forks == [1] * (min(cpus, len(SHARES)) - 1)
    assert_no_child_left()


def test_forked_map_leaves_no_child_on_an_error(force_workers):
    forks = force_workers(3)
    parent = os.getpid()

    def fail_here(share):
        if os.getpid() == parent:
            raise ValueError("this share does not compute")
        return square(share)

    with pytest.raises(ValueError, match="does not compute"):
        workers.forked_map(fail_here, SHARES, float)
    assert forks == [1, 1]
    assert_no_child_left()


def test_a_share_that_fails_in_a_worker_fails_in_the_parent(force_workers):
    force_workers(2)

    def fail_on_last(share):
        if share[-1] == 20:
            raise ValueError("the last share does not compute")
        return square(share)

    with pytest.raises(ValueError, match="last share"):
        workers.forked_map(fail_on_last, [np.arange(10), np.arange(11, 21)], float)
    assert_no_child_left()


def test_no_fork_while_another_thread_runs(force_workers):
    forks = force_workers(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        assert workers.worker_count(10, 10, 1) == 1
        assert_serial_result(workers.forked_map(square, SHARES, float))
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []
    assert_serial_result(workers.forked_map(square, SHARES, float))
    assert forks == [1, 1]


def test_fork_that_raises_oserror_gives_the_serial_result(force_workers, monkeypatch):
    force_workers(3)
    calls = []

    def no_fork():
        calls.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_serial_result(workers.forked_map(square, SHARES, float))
    assert calls == [1]  # no second attempt after a failed fork


def test_second_fork_that_raises_oserror_keeps_the_first_worker(force_workers, monkeypatch):
    forks = force_workers(3)
    counting_fork = os.fork

    def fork_once():
        if forks:
            raise OSError(11, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    assert_serial_result(workers.forked_map(square, SHARES, float))
    assert forks == [1]
    assert_no_child_left()


def test_mmap_that_raises_oserror_gives_the_serial_result(force_workers, monkeypatch):
    forks = force_workers(3)

    def no_mmap(*args):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", no_mmap)
    assert_serial_result(workers.forked_map(square, SHARES, float))
    assert forks == []


def test_killed_worker_share_is_computed_in_the_parent(force_workers):
    forks = force_workers(3)
    parent = os.getpid()

    def square_or_die(share):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return square(share)

    assert_serial_result(workers.forked_map(square_or_die, SHARES, float))
    assert forks == [1, 1]
    assert_no_child_left()


def test_worker_that_raises_never_returns_into_the_caller(force_workers):
    forks = force_workers(3)
    parent = os.getpid()

    def square_or_raise(share):
        if os.getpid() != parent:
            raise RuntimeError("not in the parent")
        return square(share)

    try:
        results = workers.forked_map(square_or_raise, SHARES, float)
    except RuntimeError:
        if os.getpid() != parent:  # the worker came back into the caller: end it
            os._exit(0)
        raise
    assert os.getpid() == parent
    assert_serial_result(results)
    assert forks == [1, 1]
    assert_no_child_left()


def test_worker_result_longer_than_its_share_is_computed_in_the_parent(force_workers):
    force_workers(2)
    parent = os.getpid()

    def padded_in_workers(share):
        return square(share) if os.getpid() == parent else np.zeros(len(share) + 1)

    assert_serial_result(workers.forked_map(padded_in_workers, SHARES[:2], float), SHARES[:2])
    assert_no_child_left()


def _warn_on_last_item(monkeypatch):
    """Make every forked_map call warn, once, while computing the share that
    holds its last item: in a worker when that share is forked."""
    real = workers.forked_map

    def warning_map(fn, shares, dtype):
        last = max(share[-1] for share in shares if len(share))

        def fn_warns(share):
            if len(share) and share[-1] == last:
                warnings.warn(f"computing item {last}")
            return fn(share)

        return real(fn_warns, shares, dtype)

    monkeypatch.setattr(workers, "forked_map", warning_map)


def test_warning_in_a_worker_reaches_the_cli_stderr_once(tmp_path, force_workers, monkeypatch, capfd):
    ds = generate(SynthConfig(num_samples=300, regime="heteroscedastic", seed=5))
    test, model = tmp_path / "test.csv", tmp_path / "ts.json"
    write_logits(ds, test)
    assert main(["fit", "--method", "ts", "--val", str(test), "--out", str(model)]) == 0
    capfd.readouterr()
    _warn_on_last_item(monkeypatch)
    argv = ["eval", "--model", str(model), "--test", str(test)]
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning issued twice would print twice
        force_workers(1)
        serial = main(argv), capfd.readouterr()
        forks = force_workers(2)
        forked = main(argv), capfd.readouterr()
    assert forks == [1, 1]  # one for the read in blocks, one for ece_kde
    assert serial[1].err == "warning: computing item 300\nwarning: computing item 255\n"
    assert forked == serial
    assert_no_child_left()


def _kde_preds():
    """Confidences whose bandwidth, window sizes and empty windows vary: a
    dense cluster, a sparse tail and a few outliers."""
    rng = np.random.default_rng(31)
    conf = np.concatenate([0.6 + 0.05 * rng.normal(size=4000), rng.uniform(0.2, 1.0, 500), [0.11, 0.12]])
    conf = np.clip(conf, 0.1, 1.0)
    return Predictions(np.zeros(len(conf), dtype=int), conf, rng.uniform(size=len(conf)) < conf)


@pytest.mark.parametrize("cpus", [2, 3])
def test_ece_kde_in_workers_is_bitwise_the_serial_value(force_workers, cpus):
    preds = _kde_preds()
    serial = ece_kde(preds)
    forks = force_workers(cpus)
    assert ece_kde(preds).hex() == serial.hex()
    assert forks == [1] * (cpus - 1)
    assert_no_child_left()


def test_ece_kde_with_fewer_blocks_than_workers(force_workers, monkeypatch):
    monkeypatch.setattr(metrics, "KDE_BLOCK", metrics.KDE_GRID_POINTS // 2)
    preds = _kde_preds()
    serial = ece_kde(preds)
    forks = force_workers(3)
    assert ece_kde(preds).hex() == serial.hex()
    assert forks == [1]  # two blocks: one worker beside this process
    assert_no_child_left()


def test_ece_kde_of_one_confidence_level_never_forks(force_workers):
    preds = Predictions(np.zeros(10, dtype=int), np.full(10, 0.8), np.array([1, 0] * 5, dtype=bool))
    serial = ece_kde(preds)
    forks = force_workers(3)
    assert ece_kde(preds).hex() == serial.hex()
    assert forks == []


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("regime", ["global_temp", "heteroscedastic", "overconfident_tail"])
def test_fit_ets_ece_in_workers_is_bitwise_the_serial_fit(force_workers, cpus, regime):
    ds = generate(SynthConfig(num_samples=3000, regime=regime, seed=41))
    ts = fit_ts(ds)
    serial = fit_ets(ds, ts, loss="ece", num_bins=15)
    forks = force_workers(cpus)
    forked = fit_ets(ds, ts, loss="ece", num_bins=15)
    assert np.array(forked.weights).tobytes() == np.array(serial.weights).tobytes()
    assert forks == [1] * (2 * (cpus - 1))  # the coarse grid and the refinement lattice
    assert_no_child_left()


def test_fit_ets_ece_in_workers_on_all_equal_logits(force_workers):
    labels = np.random.default_rng(5).integers(0, 5, size=120)
    ds = Dataset(labels=labels, logits=np.full((120, 5), 0.75))
    ts = TsModel(temperature=1.3, num_classes=5)
    serial = fit_ets(ds, ts, loss="ece")
    force_workers(3)
    assert np.array(fit_ets(ds, ts, loss="ece").weights).tobytes() == np.array(serial.weights).tobytes()


def test_only_the_worker_helper_forks():
    """Every fork in calibkit goes through workers.forked_map, which reaps its
    children and falls back to the serial result; no other module calls fork."""
    src = Path(__file__).resolve().parents[1] / "src" / "calibkit"
    forks = []
    for path in sorted(src.glob("*.py")):
        if path.name == "workers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):  # getattr(os, "fork")
                names = [node.value]
            forks += [f"{path.name}:{node.lineno} {name}" for name in names if name in ("fork", "forkpty")]
    assert forks == []
