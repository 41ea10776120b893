"""File formats: logits CSV, model JSON, report JSON. All writes are atomic
(temp file + rename) and all real numbers are printed at 17 significant digits
so canonical files round-trip byte-identically."""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from .binning import HistBinModel, IrmModel, IrovaModel, IrovaTsModel, PbmcModel, StepFunction
from .core import Dataset
from .errors import DataFormatError
from .scaling import EtsModel, PtsModel, PtsTrainConfig, TsModel
from .tinynn import MlpParams

SCHEMA_VERSION = 1

MODEL_KINDS = ("ts", "ets", "pts", "histbin", "irova", "irm", "irova_ts", "pbmc")


def _fmt(x: float) -> str:
    s = format(float(x), ".17g")
    if "e" not in s and "." not in s and "n" not in s and "i" not in s:
        s += ".0"
    return s


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, 17-significant-digit reals."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError("cannot serialize non-finite reals")
        return _fmt(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_text_atomic(text: str, path: str | Path) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(obj: Any, path: str | Path) -> None:
    write_text_atomic(canonical_json(obj) + "\n", path)


def read_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_logits(dataset: Dataset, path: str | Path) -> None:
    c = dataset.num_classes
    lines = ["label," + ",".join(f"z{i}" for i in range(c))]
    for label, row in zip(dataset.labels, dataset.logits):
        lines.append(str(int(label)) + "," + ",".join(_fmt(v) for v in row))
    write_text_atomic("\n".join(lines) + "\n", path)


def read_logits(path: str | Path) -> Dataset:
    """Parse a logits CSV. Rows are split with str.splitlines(); the data rows
    are parsed in C when that gives exactly what the line parser would, and by
    the line parser, with its line-numbered messages, otherwise."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # On ASCII text without \x1f, np.loadtxt accepts a subset of what int()
    # and float() accept and gives the same values. It strips \x1f as
    # whitespace where float() rejects it, and misreads non-ASCII digits.
    c_parsable = text.isascii() and "\x1f" not in text
    lines = text.splitlines()
    del text  # the lines hold the same characters; keep one copy alive
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 3 or header[1:] != [f"z{i}" for i in range(len(header) - 1)]:
        raise DataFormatError(f"{path}: line 1: expected header 'label,z0,z1,...'")
    c = len(header) - 1
    dataset = _parse_rows_fast(lines, c) if c_parsable else None
    return dataset if dataset is not None else _parse_rows(path, lines, c)


def _parse_rows_fast(lines: list[str], c: int) -> Dataset | None:
    """The data rows parsed by np.loadtxt, or None when the line parser must
    run: a row that does not parse, no rows, a label out of range or a
    non-finite logit (Dataset rejects the last three)."""
    dtype = np.dtype([("label", np.int64), ("z", float, (c,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(lines[1:], dtype=dtype, delimiter=",", comments=None, ndmin=1)
        # contiguous copies, so the record array is freed on return
        return Dataset(labels=rows["label"].copy(), logits=rows["z"].copy())
    except ValueError:
        return None


def _parse_rows(path: str | Path, lines: list[str], c: int) -> Dataset:
    """Line-by-line parse of the data rows with int() and float(); every error
    names its line. Empty lines are skipped but counted."""
    labels, logits = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != c + 1:
            raise DataFormatError(f"{path}: line {lineno}: expected {c + 1} columns, got {len(cells)}")
        try:
            label = int(cells[0])
            row = [float(v) for v in cells[1:]]
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not 0 <= label < c:
            raise DataFormatError(f"{path}: line {lineno}: label {label} out of range for {c} classes")
        labels.append(label)
        logits.append(row)
    if not labels:
        raise DataFormatError(f"{path}: no data rows")
    values = np.array(logits)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        data_linenos = [lineno for lineno, line in enumerate(lines[1:], start=2) if line]
        raise DataFormatError(f"{path}: line {data_linenos[bad[0]]}: non-finite logit")
    return Dataset(labels=np.array(labels, dtype=np.int64), logits=values)


def _step_to_dict(s: StepFunction) -> dict:
    return {"x": s.x.tolist(), "y": s.y.tolist()}


def _step_from_dict(d: dict) -> StepFunction:
    return StepFunction(x=np.asarray(d["x"]), y=np.asarray(d["y"]))


def _config_to_dict(cfg: PtsTrainConfig) -> dict:
    return {
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "steps": cfg.steps,
        "num_bins": cfg.num_bins,
        "hidden": list(cfg.hidden),
        "loss": cfg.loss,
        "seed": cfg.seed,
        "topk": cfg.topk,
    }


def _config_from_dict(d: dict) -> PtsTrainConfig:
    return PtsTrainConfig(
        learning_rate=d["learning_rate"],
        batch_size=d["batch_size"],
        steps=d["steps"],
        num_bins=d["num_bins"],
        hidden=tuple(d["hidden"]),
        loss=d["loss"],
        seed=d["seed"],
        topk=d["topk"],
    )


def model_kind(model) -> str:
    kinds = {
        TsModel: "ts",
        EtsModel: "ets",
        PtsModel: "pts",
        HistBinModel: "histbin",
        IrovaModel: "irova",
        IrmModel: "irm",
        IrovaTsModel: "irova_ts",
        PbmcModel: "pbmc",
    }
    try:
        return kinds[type(model)]
    except KeyError:
        raise ValueError(f"unknown model type {type(model)!r}") from None


def model_to_dict(model, num_classes: int | None = None) -> dict:
    kind = model_kind(model)
    if kind == "ts":
        params = {"temperature": model.temperature}
    elif kind == "ets":
        params = {"temperature": model.temperature, "weights": list(model.weights)}
        num_classes = model.num_classes
    elif kind == "pts":
        params = {
            "widths": model.mlp.widths,
            "weights": [w.tolist() for w in model.mlp.weights],
            "biases": [b.tolist() for b in model.mlp.biases],
            "input_width": model.input_width,
            "t_min": model.t_min,
            "config": _config_to_dict(model.config),
        }
        num_classes = model.num_classes
    elif kind == "histbin":
        params = {"edges": model.edges.tolist(), "outputs": model.outputs.tolist()}
        num_classes = model.num_classes
    elif kind == "irova":
        params = {"maps": [_step_to_dict(s) for s in model.maps]}
        num_classes = model.num_classes
    elif kind == "irm":
        params = {"map": _step_to_dict(model.shared_map), "strictness": model.strictness}
        num_classes = model.num_classes
    elif kind == "irova_ts":
        params = {
            "temperature": model.ts.temperature,
            "maps": [_step_to_dict(s) for s in model.irova.maps],
        }
        num_classes = model.num_classes
    else:  # pbmc
        params = {
            "temperature": model.temperature,
            "edges": model.edges.tolist(),
            "outputs": model.outputs.tolist(),
        }
        num_classes = model.num_classes
    if num_classes is None:
        raise ValueError("num_classes required for this model kind")
    return {"kind": kind, "version": SCHEMA_VERSION, "num_classes": num_classes, "params": params}


def model_from_dict(doc: dict):
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise DataFormatError(f"unknown model kind {kind!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise DataFormatError(f"unsupported model version {doc.get('version')!r}")
    c = int(doc["num_classes"])
    p = doc["params"]
    if kind == "ts":
        return TsModel(temperature=p["temperature"])
    if kind == "ets":
        return EtsModel(temperature=p["temperature"], weights=tuple(p["weights"]), num_classes=c)
    if kind == "pts":
        mlp = MlpParams(
            weights=[np.asarray(w) for w in p["weights"]],
            biases=[np.asarray(b) for b in p["biases"]],
        )
        return PtsModel(
            mlp=mlp,
            input_width=int(p["input_width"]),
            num_classes=c,
            t_min=p["t_min"],
            config=_config_from_dict(p["config"]),
        )
    if kind == "histbin":
        return HistBinModel(edges=np.asarray(p["edges"]), outputs=np.asarray(p["outputs"]), num_classes=c)
    if kind == "irova":
        return IrovaModel(maps=tuple(_step_from_dict(d) for d in p["maps"]), num_classes=c)
    if kind == "irm":
        return IrmModel(shared_map=_step_from_dict(p["map"]), strictness=p["strictness"], num_classes=c)
    if kind == "irova_ts":
        return IrovaTsModel(
            ts=TsModel(temperature=p["temperature"]),
            irova=IrovaModel(maps=tuple(_step_from_dict(d) for d in p["maps"]), num_classes=c),
        )
    return PbmcModel(
        temperature=p["temperature"],
        edges=np.asarray(p["edges"]),
        outputs=np.asarray(p["outputs"]),
        num_classes=c,
    )


def save_model(model, path: str | Path, num_classes: int | None = None) -> None:
    write_json(model_to_dict(model, num_classes), path)


def load_model(path: str | Path):
    try:
        doc = read_json(path)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return model_from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc}") from exc
