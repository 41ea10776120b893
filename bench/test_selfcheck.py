"""Toy-size self-check of the benchmark, so that it cannot rot unnoticed.

    python3 -m pytest -q bench

Runs every workload of BENCHMARK.json at toy sizes, traced and untraced,
and checks the result line against the contract that BENCHMARK.json sets.
Takes well under a minute. It is not part of the tier-1 suite, which
collects only tests/.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
import reference  # noqa: E402


def run(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(root / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_meets_contract(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_speed_sampler_takes_its_own_time_out_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = reference.SpeedSampler(reference.python_work, interval=0.005)
    with sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 10
    assert 0.0 < sampler.spent < sampler.wall
    assert sampler.net_s == pytest.approx(sampler.wall - sampler.spent)
    ratio = reference.NOMINAL_S["python_work"] / sampler.mean_sample_s
    assert sampler.nominal_s == pytest.approx(sampler.net_s * ratio)


def test_pts_step_is_accounted_for_by_its_spans():
    proc = run(ROOT, "pts_fit", 1)
    assert proc.returncode == 0, proc.stderr
    detail = json.loads((BENCH_DIR / "_work" / "results" / "pts_fit-tiny-s3-t1.json").read_text())
    layers = detail["layers"]
    assert layers["scaling.fit_pts.steps"] == 600
    assert layers["scaling._resuscitate_dead_units.calls"] == 1
    assert abs(detail["step_residual_us"]) < 1e-6 * layers["scaling.pts_step_us"]


def test_same_seed_gives_same_inputs_and_model():
    details = BENCH_DIR / "_work" / "results" / "pts_fit-tiny-s5-t0.json"
    shas = []
    for _ in range(2):
        shutil.rmtree(BENCH_DIR / "_work" / "inputs", ignore_errors=True)
        proc = run(ROOT, "pts_fit", 0, seed=5)
        assert proc.returncode == 0, proc.stderr
        shas.append(json.loads(details.read_text())["pts_model_sha256"])
    # every op of both runs fitted bitwise the same model from regenerated inputs
    assert len(shas[0]) == 1 and shas[0] == shas[1]


def test_fails_without_the_program():
    bare = BENCH_DIR / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
