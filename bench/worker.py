"""Child process of the benchmark: builds the seeded inputs of one workload,
runs its ops through ``calibkit.cli.main`` and checks every output.

    python3 bench/worker.py setup   --workload W --seed N --scale full
    python3 bench/worker.py measure --workload W --seed N --scale full --seconds S --trace 0|1

Each prints one JSON object as its last line of standard output. run.py
starts both with BLAS pinned to one thread and ``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

import calibkit  # noqa: E402
import calibkit.cli  # noqa: E402
from calibkit.experiments import fit_method  # noqa: E402
from calibkit.io_files import read_logits, write_logits  # noqa: E402
from calibkit.synth import SynthConfig, generate  # noqa: E402

if Path(calibkit.__file__).resolve().parent != SRC / "calibkit":
    sys.exit(f"benchmark: imported calibkit from {calibkit.__file__}, not from {SRC}")

import reference  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("pts_fit", "score_large", "compare_fitters")
SCALES = {
    "full": {
        "pts_val": 20_000,
        "pts_test": 20_000,
        "pts_steps": 2_000,
        "score_test": 100_000,
        "cmp_val": 25_000,
        "cmp_test": 5_000,
    },
    # toy sizes for the self-check; 600 steps still reach one resuscitation
    "tiny": {
        "pts_val": 2_000,
        "pts_test": 1_000,
        "pts_steps": 600,
        "score_test": 5_000,
        "cmp_val": 2_000,
        "cmp_test": 500,
    },
}
WARM_ROWS = 300
FIT_SEED = 17  # the CLI's own seed; the workload seed only shapes the data
CMP_METHODS = ("ts", "ets", "histbin", "irova", "irm", "irova_ts", "pbmc")
KEEP_INPUT_SETS = 6


def _hetero(n: int, seed: int) -> SynthConfig:
    return SynthConfig(num_samples=n, regime="heteroscedastic", base=1.0, slope=0.5, seed=seed)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "calibkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(argv: list) -> None:
    code = calibkit.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"calibkit {argv[0]} exited {code}")


def ece10(conf: np.ndarray, correct: np.ndarray) -> float:
    """Equal-width 10-bin ECE, bins ((m-1)/10, m/10], written independently of calibkit."""
    idx = np.clip(np.ceil(conf * 10).astype(int), 1, 10) - 1
    gaps = np.abs(np.bincount(idx, weights=correct.astype(float), minlength=10)
                  - np.bincount(idx, weights=conf, minlength=10))
    return float(gaps.sum() / conf.shape[0])


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- set-up


def setup(workload: str, seed: int, scale: str) -> dict:
    """Write the workload's inputs once per (workload, scale, seed, source),
    under bench/_work/inputs, and return their description."""
    sizes = SCALES[scale]
    key = f"{workload}-{scale}-s{seed}-{_src_digest()}"
    where = WORK / "inputs" / key
    meta_path = where / "meta.json"
    if meta_path.exists():
        os.utime(where)
        return json.loads(meta_path.read_text())
    _evict_old_inputs()
    if where.exists():
        shutil.rmtree(where)
    where.mkdir(parents=True)

    val_n, test_n = {
        "pts_fit": (sizes["pts_val"], sizes["pts_test"]),
        "score_large": (sizes["pts_val"], sizes["score_test"]),
        "compare_fitters": (sizes["cmp_val"], sizes["cmp_test"]),
    }[workload]
    val = generate(_hetero(val_n, 2 * seed))
    test = generate(_hetero(test_n, 2 * seed + 1))
    meta = {"workload": workload, "seed": seed, "scale": scale, "key": key}
    for name, ds in (("val", val), ("test", test)):
        write_logits(ds, where / f"{name}.csv")
        meta[name] = str(where / f"{name}.csv")
        meta[f"{name}_rows"] = len(ds)
    warm = generate(_hetero(WARM_ROWS, 2 * seed + 2))
    write_logits(warm, where / "warm.csv")
    meta["warm"] = str(where / "warm.csv")

    pred = np.argmax(test.logits, axis=1)
    correct = pred == test.labels
    conf = _softmax(test.logits).max(axis=1)
    meta["base_accuracy"] = float(correct.mean())
    meta["base_ece10"] = ece10(conf, correct)
    expected = {"labels": test.labels, "pred": pred}
    if workload == "compare_fitters":
        expected["logits"] = test.logits
    np.savez(where / "expected.npz", **expected)
    meta["expected"] = str(where / "expected.npz")

    if workload == "score_large":
        model = where / "pts_model.json"
        _run_cli(["fit", "--method", "pts", "--val", where / "val.csv", "--out", model,
                  "--steps", sizes["pts_steps"], "--seed", FIT_SEED])
        meta["model"] = str(model)
        meta["model_sha256"] = _sha256(model)
    if workload == "compare_fitters":
        # compare writes no predictions, so count the argmax changes of the
        # methods allowed to change them by fitting those methods once here
        val_ds, test_ds = read_logits(where / "val.csv"), read_logits(where / "test.csv")
        meta["changed_predictions"] = {}
        for method in ("histbin", "irova", "irova_ts"):
            model = fit_method(method, val_ds, seed=FIT_SEED, num_bins=10)
            changed = np.argmax(model.apply_probs(test_ds.logits), axis=1) != pred
            meta["changed_predictions"][method] = int(changed.sum())
    # flush the new files now, so their write-back does not run during the timed ops
    for path in where.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    meta_path.write_text(json.dumps(meta, indent=1))
    return meta


def _evict_old_inputs() -> None:
    root = WORK / "inputs"
    if not root.exists():
        return
    sets = sorted(root.iterdir(), key=lambda p: p.stat().st_mtime)
    for old in sets[: max(0, len(sets) - KEEP_INPUT_SETS + 1)]:
        shutil.rmtree(old)


# ---------------------------------------------------------------- ops


def op_commands(meta: dict, out: Path, warm: bool = False) -> list[tuple[str, list]]:
    """The CLI commands of one op: [(label, argv), ...]."""
    sizes = SCALES[meta["scale"]]
    val = meta["warm"] if warm else meta["val"]
    test = meta["warm"] if warm else meta["test"]
    workload = meta["workload"]
    if workload == "pts_fit":
        model = out / "pts.json"
        steps = 5 if warm else sizes["pts_steps"]
        return [
            ("fit", ["fit", "--method", "pts", "--val", val, "--out", model, "--steps", steps,
                     "--batch-size", 1000, "--lr", 1e-4, "--topk", 10, "--bins", 10,
                     "--losses", "ece", "--seed", FIT_SEED]),
            ("apply", ["apply", "--model", model, "--test", test, "--out", out / "confidences.csv"]),
        ]
    if workload == "score_large":
        model = meta["model"]
        return [
            ("apply", ["apply", "--model", model, "--test", test, "--out", out / "confidences.csv"]),
            ("eval", ["eval", "--model", model, "--test", test, "--bins", "10,15",
                      "--out", out / "report.json"]),
        ]
    return [
        ("compare", ["compare", "--methods", ",".join(CMP_METHODS), "--val", val, "--test", test,
                     "--out", out / "compare.json", "--seed", FIT_SEED]),
        ("ets_ece_fit", ["fit", "--method", "ets", "--losses", "ece", "--val", val,
                         "--out", out / "ets.json", "--seed", FIT_SEED]),
    ]


def _load_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite value {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _check_finite(doc, what: str) -> None:
    if not all(math.isfinite(v) for v in _numbers(doc)):
        raise ValueError(f"{what}: non-finite value")


def _check_apply(path: Path, meta: dict, exp) -> None:
    if path.read_text(encoding="utf-8").split("\n", 1)[0] != "predicted_class,confidence":
        raise ValueError("apply: bad header")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (meta["test_rows"], 2):
        raise ValueError(f"apply: {rows.shape[0]} rows for {meta['test_rows']} test rows")
    pred, conf = rows[:, 0], rows[:, 1]
    if not np.all(np.isfinite(conf)) or conf.min() < 0 or conf.max() > 1:
        raise ValueError("apply: confidence not finite or outside [0, 1]")
    if not np.array_equal(pred, exp["pred"]):
        raise ValueError("apply: predicted_class differs from the argmax of the test logits")
    value = ece10(conf, pred == exp["labels"])
    if not value < meta["base_ece10"]:
        raise ValueError(f"apply: pts ECE {value} not below the base ECE {meta['base_ece10']}")


def _check_method(block: dict, method: str, meta: dict, lower_ece: bool) -> None:
    if block["accuracy"] != meta["base_accuracy"]:
        raise ValueError(f"{method}: accuracy {block['accuracy']} != base {meta['base_accuracy']}")
    if lower_ece and not block["ece_equal_width"]["10"] < meta["base_ece10"]:
        raise ValueError(f"{method}: ECE not below the base ECE")


def _check_eval(path: Path, meta: dict) -> None:
    report = _load_json(path)
    _check_finite(report, "eval")
    block = report["methods"]["pts"]
    if set(block["ece_equal_width"]) != {"10", "15"}:
        raise ValueError("eval: expected bins 10 and 15")
    _check_method(block, "pts", meta, lower_ece=True)


def _check_compare(path: Path, meta: dict) -> None:
    report = _load_json(path)
    _check_finite(report, "compare")
    methods = report["methods"]
    if set(methods) != {"base", *CMP_METHODS}:
        raise ValueError(f"compare: methods {sorted(methods)}")
    base = methods["base"]
    if base["accuracy"] != meta["base_accuracy"]:
        raise ValueError("compare: base accuracy differs from the test labels")
    if abs(base["ece_equal_width"]["10"] - meta["base_ece10"]) > 1e-9:
        raise ValueError("compare: base ECE differs from an independent computation")
    for m in ("ts", "ets", "irm", "pbmc"):
        _check_method(methods[m], m, meta, lower_ece=m in ("ts", "ets"))


def _check_ets_model(path: Path, meta: dict, exp) -> None:
    doc = _load_json(path)
    _check_finite(doc, "ets model")
    if doc["kind"] != "ets":
        raise ValueError("fit: model kind is not ets")
    t = doc["params"]["temperature"]
    w = np.asarray(doc["params"]["weights"], dtype=float)
    if not t > 0 or w.shape != (3,) or w.min() < 0 or abs(w.sum() - 1) > 1e-9:
        raise ValueError("fit: ets temperature or weights invalid")
    z = exp["logits"]
    probs = w[0] * _softmax(z / t) + w[1] * _softmax(z) + w[2] / z.shape[1]
    pred = np.argmax(probs, axis=1)
    if not np.array_equal(pred, exp["pred"]):
        raise ValueError("fit: ets changes predictions")
    if not ece10(probs.max(axis=1), pred == exp["labels"]) < meta["base_ece10"]:
        raise ValueError("fit: ets-ece model's ECE not below the base ECE")


def check_op(meta: dict, out: Path, exp) -> dict:
    """Raises on a wrong output; returns identity fields."""
    workload = meta["workload"]
    if workload == "pts_fit":
        doc = _load_json(out / "pts.json")
        _check_finite(doc, "pts model")
        if doc["kind"] != "pts":
            raise ValueError("fit: model kind is not pts")
        _check_apply(out / "confidences.csv", meta, exp)
        return {"model_sha256": _sha256(out / "pts.json")}
    if workload == "score_large":
        _check_apply(out / "confidences.csv", meta, exp)
        _check_eval(out / "report.json", meta)
        return {}
    _check_compare(out / "compare.json", meta)
    _check_ets_model(out / "ets.json", meta, exp)
    return {}


def run_op(commands, tracer=None, op: int = -1) -> dict:
    """Run the op's commands. An untraced command runs under a speed sampler
    (see reference.py); its ``times`` entry is the wall time less the
    sampler's own, and ``speed`` keeps the sampler's record."""
    times = {}
    speed = {}
    error = None
    for label, argv in commands:
        if tracer is not None:
            tracer.install(op)
        sampler = reference.SpeedSampler() if tracer is None else None
        start = time.perf_counter()
        try:
            if sampler is None:
                _run_cli(argv)
            else:
                with sampler:
                    _run_cli(argv)
        except Exception as exc:  # an op that fails is counted, the run goes on
            error = f"{label}: {type(exc).__name__}: {exc}"
        finally:
            times[label] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if sampler is not None:
            speed[label] = sampler.record()
            times[label] = speed[label]["net_s"]
        if error:
            break
    return {"times": times, "speed": speed, "error": error}


# ---------------------------------------------------------------- measure


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the layout of show_config differs across numpy versions
        blas = f"unknown ({type(exc).__name__})"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v, "unset") for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CALIBKIT_THREADS")},
    }


def measure(meta: dict, seconds: float, trace: bool) -> dict:
    out = WORK / "runs" / f"{meta['workload']}-{meta['scale']}"
    out.mkdir(parents=True, exist_ok=True)
    exp = np.load(meta["expected"])
    exp = {k: exp[k] for k in exp.files}
    for path in out.iterdir():
        path.unlink()
    run_op(op_commands(meta, out, warm=True))  # lazy imports and first-call costs

    commands = op_commands(meta, out)
    tracer = tracing.Tracer() if trace else None
    ops = []
    begin = time.perf_counter()
    while True:
        i = len(ops)
        traced = trace and i % 2 == 1
        for path in out.iterdir():
            path.unlink()
        rec = run_op(commands, tracer if traced else None, i)
        if i == 0:
            # the high-water mark after one op: each later op leaves the heap
            # a little more fragmented, so the mark of the whole run would
            # grow with the number of ops, that is with the host's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec["traced"] = traced
        if rec["error"] is None:
            try:
                rec.update(check_op(meta, out, exp))
            except Exception as exc:  # a wrong or unreadable output fails the op
                rec["error"] = f"check: {type(exc).__name__}: {exc}"
        ops.append(rec)
        elapsed = time.perf_counter() - begin
        last = sum(rec["times"].values())
        if len(ops) >= (2 if trace else 1) and elapsed + last > seconds:
            break

    result = {
        "ops": ops,
        "labels": [label for label, _ in commands],
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if trace:
        traced_ops = [i for i, rec in enumerate(ops) if rec["traced"]]
        per_op = [tracing.op_layer_metrics(tracer, i) for i in traced_ops]
        layers = tracing.median_metrics(per_op)
        result["layers"] = layers
        result["layer_units"] = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        result["step_residual_us"] = max((abs(tracing.step_residual_us(m)) for m in per_op), default=0.0)
        result["spans"] = len(tracer.starts)
        trace_path = WORK / "traces" / f"{meta['workload']}-{meta['scale']}-s{meta['seed']}.jsonl"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("stage", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    meta = setup(args.workload, args.seed, args.scale)
    if args.stage == "setup":
        print(json.dumps(meta))
    else:
        print(json.dumps(measure(meta, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
