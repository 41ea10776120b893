"""The forked-worker helper and its four users. forked_map and forked_items
must give the serial result whatever happens to a worker, reap every child
exactly once, never fork beside another thread or inside a worker and never
let a worker return into the caller; read_logits, the ETS-ECE bound search,
ece_kde and the fit-and-score items of compare and the experiments must give
the same bits with 1, 2 or 3 workers as in one process."""

import ast
import mmap
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from calibkit import experiments, metrics, scaling, workers
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


def document(i):
    return {"item": i, "root": float(i) ** 0.5, "parts": [i, None, True, "x", -0.0]}


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_forked_items_gives_the_serial_result_and_reaps_every_child(force_workers, cpus):
    forks = force_workers(cpus)
    assert workers.forked_items(document, 10, cpus) == [document(i) for i in range(10)]
    assert forks == [1] * (cpus - 1)
    assert_no_child_left()


def test_forked_items_with_more_items_than_tickets(force_workers):
    count = 3 * workers.MAX_TICKETS + 7
    force_workers(2)
    assert workers.forked_items(document, count, 2) == [document(i) for i in range(count)]
    assert_no_child_left()


def wait_for(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)


def lines(path):
    return path.read_text().split() if path.exists() else []


def test_forked_items_hands_out_items_in_turn(tmp_path, force_workers):
    """The process that takes the first item takes no other: the first item
    waits until the other process has done the rest, which it can only do
    if the items are handed out one at a time."""
    force_workers(2)
    done = tmp_path / "done"

    def pid(i):
        if i == 0:
            wait_for(lambda: len(lines(done)) == 9)
        else:
            with open(done, "a") as fh:  # O_APPEND: one short write per item
                fh.write(f"{i}\n")
        return os.getpid()

    pids = workers.forked_items(pid, 10, 2)
    assert len(set(pids)) == 2 and pids.count(pids[0]) == 1
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["raise", "warn", "kill"])
def test_items_of_a_failed_worker_are_computed_in_the_parent(tmp_path, force_workers, failure):
    forks = force_workers(2)
    parent = os.getpid()
    taken = tmp_path / "taken"

    def item(i):
        if os.getpid() == parent:
            wait_for(taken.exists)  # the worker takes an item before this process goes on
            return [i, os.getpid()]
        taken.touch()
        if failure == "raise":
            raise RuntimeError("not in the parent")
        elif failure == "warn":
            warnings.warn("not in the parent")
        else:
            os.kill(os.getpid(), signal.SIGKILL)
        return [i, os.getpid()]

    try:
        results = workers.forked_items(item, 10, 2)
    except RuntimeError:
        if os.getpid() != parent:  # the worker came back into the caller: end it
            os._exit(0)
        raise
    assert taken.exists()
    assert results == [[i, parent] for i in range(10)]
    assert forks == [1]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_forked_items_raises_and_warns_as_the_serial_code(force_workers, cpus):
    """Serially, item 3 warns and item 5 raises, and items 6 and 8 never run."""
    force_workers(cpus)

    def item(i):
        time.sleep(0.01)
        if i in (3, 6):
            warnings.warn(f"item {i}")
        if i in (5, 8):
            raise ValueError(f"item {i}")
        return i

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="item 5"):
            workers.forked_items(item, 10, cpus)
    assert [str(w.message) for w in seen] == ["item 3"]
    assert_no_child_left()


@pytest.mark.parametrize("failing", ["fork", "first pipe", "second pipe"])
def test_forked_items_when_pipe_or_fork_raises_oserror(force_workers, monkeypatch, failing):
    forks = force_workers(3)
    counting_fork, real_pipe = os.fork, os.pipe
    pipes = []

    def fork():
        if failing == "fork":
            raise OSError(11, "Resource temporarily unavailable")
        return counting_fork()

    def pipe():
        pipes.append(1)
        if len(pipes) == {"first pipe": 1, "second pipe": 3}.get(failing):
            raise OSError(24, "Too many open files")
        return real_pipe()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", pipe)
    assert workers.forked_items(document, 10, 3) == [document(i) for i in range(10)]
    assert forks == {"fork": [], "first pipe": [], "second pipe": [1]}[failing]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_no_process_of_a_pool_forks_again(tmp_path, force_workers, cpus):
    """Neither a worker nor this process, while its workers run, forks: so a
    fit that forks alone runs serially inside a pool. Each item waits until
    every process has taken one."""
    force_workers(cpus)
    arrived = tmp_path / "arrived"

    def item(i):
        with open(arrived, "a") as fh:  # O_APPEND: one short write per item
            fh.write(f"{os.getpid()}\n")
        wait_for(lambda: len(set(lines(arrived))) == cpus)
        return [os.getpid(), workers.worker_count(10, 10, 1)]

    found = workers.forked_items(item, 20, cpus)
    assert len({pid for pid, _ in found}) == cpus  # every process took an item
    assert {count for _, count in found} == {1}
    assert workers.worker_count(10, 10, 1) == cpus  # the pool is gone
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_loss_ablation_never_runs_more_processes_than_cpus(tmp_path, force_workers, monkeypatch, cpus):
    """Its ETS-ECE fit on 20 000 rows forks its weight search when it runs
    alone. Every fork of every process appends one byte to a file, in one
    O_APPEND write."""
    assert experiments.EXPERIMENT_VAL_SIZE >= 2 * scaling.ETS_ROWS_PER_WORKER  # forks with two workers
    force_workers(cpus)
    counted = tmp_path / "forks"
    fd = os.open(counted, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
    counting_fork = os.fork

    def fork():
        os.write(fd, b".")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    try:
        assert main(["experiment", "loss_ablation", "--steps", "5", "--out", str(tmp_path / "exp")]) == 0
    finally:
        os.close(fd)
    assert counted.stat().st_size == cpus - 1
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
    """Every fork in calibkit goes through the workers module, which reaps its
    children and falls back to the serial result: no other module calls fork,
    and no module at all imports another way to start processes."""
    src = Path(__file__).resolve().parents[1] / "src" / "calibkit"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = modules = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = [name.split(".")[-1] for name in modules]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):  # getattr(os, "fork"), import_module("subprocess")
                names = modules = [node.value]
            if path.name != "workers.py":
                found += [f"{path.name}:{node.lineno} {name}" for name in names if name in ("fork", "forkpty")]
            found += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if isinstance(module, str) and module.split(".")[0] in ("multiprocessing", "concurrent", "subprocess")
            ]
    assert found == []
