#!/usr/bin/env python3
"""calibkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pts_fit --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it uses the calibkit under
``src/`` of the checkout it sits in and writes only under ``bench/_work``.

A run builds the workload's seeded inputs (cached per seed and source),
times a fresh interpreter's ``import calibkit.cli`` a few times, then runs
the workload's ops in one child process, one at a time, for ``--seconds``,
with BLAS pinned to one thread. Every op's outputs are checked. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (median seconds of each of the op's two CLI commands and
median set-up time, each at the host's nominal speed as the speed sampler
of reference.py measures it during the timed code, and peak memory); with
``--trace 1`` they are the per-layer ones, taken from the traced ops of a
run that alternates traced and untraced ops.

Workloads (an op is the CLI commands listed, called as calibkit.cli.main):
  pts_fit          fit --method pts (20k x 10, 2000 steps), then apply to 20k
  score_large      apply, then eval --bins 10,15, on 100k x 10 with a set-up model
  compare_fitters  compare the 7 non-PTS methods (25k val, 5k test), then
                   fit --method ets --losses ece on the same val

``--scale tiny`` runs the same workloads at toy sizes (see test_selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
WORKLOADS = ("pts_fit", "score_large", "compare_fitters")
RUN_LIMIT_S = 170.0
IMPORT_LAUNCHES = {"full": 9, "tiny": 1}
# a launch samples speed this often; a sample runs about 0.4 ms
IMPORT_SAMPLE_INTERVAL_S = 0.015
# median seconds of the op's first and second CLI command
COMMAND_METRICS = ("cmd1_s", "cmd2_s")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CALIBKIT_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion (it is killed and reaped on timeout) and
    return its last line of standard output."""
    proc = subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv[:2])} printed nothing")
    return lines[-1]


def import_seconds(launches: int, deadline: float) -> list[dict]:
    """Time `import calibkit.cli` in fresh interpreters under a speed sampler
    that runs pure-Python work (see reference.py), one record per launch;
    one warm-up launch first writes the bytecode cache and warms the page
    cache."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import reference\n"
        f"sampler = reference.SpeedSampler(reference.python_work, {IMPORT_SAMPLE_INTERVAL_S})\n"
        "with sampler:\n    import calibkit.cli\n"
        "import json\n"  # after the timed import, which may load json itself
        "print(json.dumps(sampler.record()))"
    )
    return [json.loads(run_child(["-c", code], deadline)) for _ in range(launches + 1)][1:]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    p = (100 * (n - 10)) // n
    return p, ordered[min(n - 1, max(0, -(-p * n // 100) - 1))]


def summarize(workload: str, seed: int, trace: bool, result: dict, setup: list[dict]) -> dict:
    ops = result["ops"]
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    labels = result["labels"]
    failed = sum(op["error"] is not None for op in ops)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "errors": [op["error"] for op in ops if op["error"]],
        "ops": [{"traced": op["traced"], "times": op["times"], "speed": op["speed"]} for op in ops],
        "commands": {},
        "setup_s": {"value": statistics.median([launch["nominal_s"] for launch in setup]),
                    "measured_median_s": statistics.median([launch["net_s"] for launch in setup]),
                    "launches": setup},
        "peak_rss_mb": result["peak_rss_mb"],
        "env": result["env"],
    }
    for metric, label in zip(COMMAND_METRICS, labels):
        samples = [op["speed"][label]["nominal_s"] for op in untraced if label in op["speed"]]
        measured = [op["times"][label] for op in untraced if label in op["times"]]
        row = {"command": label, "n": len(samples), "median_s": statistics.median(samples) if samples else None,
               "measured_median_s": statistics.median(measured) if measured else None,
               "samples_s": samples, "measured_samples_s": measured}
        tail = tail_percentile(samples)
        row["tail"] = {"percentile": tail[0], "s": tail[1]} if tail else None
        if traced:
            t_samples = [op["times"][label] for op in traced if label in op["times"]]
            if measured and t_samples:
                # both measured, not nominal: traced commands run without the sampler
                row["traced_median_s"] = statistics.median(t_samples)
                row["tracing_overhead_s"] = row["traced_median_s"] - row["measured_median_s"]
        detail["commands"][metric] = row
    if workload == "score_large":
        shas = [result["setup_meta"]["model_sha256"]]
    else:
        shas = sorted({op["model_sha256"] for op in ops if "model_sha256" in op})
    if shas:
        detail["pts_model_sha256"] = shas
    if "changed_predictions" in result["setup_meta"]:
        detail["changed_predictions"] = result["setup_meta"]["changed_predictions"]
        detail["test_rows"] = result["setup_meta"]["test_rows"]
    for key in ("layers", "step_residual_us", "spans", "trace_file"):
        if key in result:
            detail[key] = result[key]
    return detail


def metrics_line(detail: dict, layer_units: dict | None) -> dict:
    if layer_units is not None:
        return {name: {"value": detail["layers"][name], "unit": unit} for name, unit in layer_units.items()}
    # a command that never completed is a failed op; 0.0 keeps the line valid JSON
    metrics = {
        metric: {"value": detail["commands"][metric]["median_s"] or 0.0, "unit": "s"}
        for metric in COMMAND_METRICS
    }
    metrics["setup_s"] = {"value": detail["setup_s"]["value"], "unit": "s"}
    metrics["peak_rss_mb"] = {"value": detail["peak_rss_mb"], "unit": "MB"}
    return metrics


def print_summary(detail: dict, path: Path) -> None:
    print(
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
        f"{detail['attempted']} ops, {detail['failed']} failed, error_rate {detail['error_rate']:g}"
    )
    for metric, row in detail["commands"].items():
        tail = row["tail"]
        tail_text = f"p{tail['percentile']} {tail['s']:.4f} s" if tail else "no percentile has 10 samples beyond it"
        extra = f", traced {row['traced_median_s']:.4f} s" if "traced_median_s" in row else ""
        if row["median_s"] is None:
            print(f"  {metric:<12} {row['command']:<12} n/a")
            continue
        print(f"  {metric:<12} {row['command']:<12} median {row['median_s']:.4f} s at nominal speed, "
              f"{row['measured_median_s']:.4f} s measured (n={row['n']}; {tail_text}){extra}")
    setup = detail["setup_s"]
    print(f"  setup_s      import calibkit.cli median {setup['value']:.4f} s at nominal speed, "
          f"{setup['measured_median_s']:.4f} s measured, over {len(setup['launches'])} launches")
    print(f"  peak_rss_mb  {detail['peak_rss_mb']:.1f}")
    env = detail["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"  env: nproc={env['nproc']} affinity={env['affinity']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} {threads}")
    for err in detail["errors"][:5]:
        print(f"  error: {err}")
    print(f"  details: {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (SRC / "calibkit" / "__init__.py").is_file():
        print(f"benchmark: no calibkit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    worker = str(BENCH_DIR / "worker.py")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    try:
        meta = json.loads(run_child([worker, "setup", *common], deadline))
        setup = import_seconds(IMPORT_LAUNCHES[args.scale], deadline)
        result = json.loads(
            run_child(
                [worker, "measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                deadline,
            )
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    result["setup_meta"] = meta

    detail = summarize(args.workload, args.seed, bool(args.trace), result, setup)
    path = WORK / "results" / f"{args.workload}-{args.scale}-s{args.seed}-t{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=1))
    print_summary(detail, path)
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics_line(detail, result.get("layer_units")),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
