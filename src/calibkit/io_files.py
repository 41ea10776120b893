"""File formats: logits CSV, model JSON, report JSON. All writes are atomic
(temp file + rename) and all real numbers are printed at 17 significant digits
so canonical files round-trip byte-identically."""

from __future__ import annotations

import json
import os
import sys
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from . import workers
from .core import Dataset
from .errors import DataFormatError
from .experiments import CALIBRATORS

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    s = format(float(x), ".17g")
    if "e" not in s and "." not in s and "n" not in s and "i" not in s:
        s += ".0"
    return s


def _fmt_column(values: np.ndarray) -> list[str]:
    """_fmt of every value, in row-major order, at array speed: one %.17g
    format over the whole column, then ".0" after each finite integral value
    below 1e17 (-0.0 too), the values that %.17g prints with neither a point
    nor an exponent."""
    x = np.asarray(values, dtype=float).ravel()
    cells = ("%.17g," * x.size % tuple(x.tolist())).split(",")
    cells.pop()  # the empty string after the last comma
    for i in np.flatnonzero((x == np.floor(x)) & (np.abs(x) < 1e17)).tolist():
        cells[i] += ".0"
    return cells


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
    """Write text through a temporary file beside path, then rename it over
    path. The file gets mode 0o666 less the umask, as open(path, "w") gives."""
    path = Path(path)
    tmp = path.parent / f"{path.name}{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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


def write_logits(dataset: Dataset, path: str | Path) -> None:
    c = dataset.num_classes
    cells = _fmt_column(dataset.logits)
    rows = map(",".join, zip(map(str, dataset.labels.tolist()), *(cells[j::c] for j in range(c))))
    header = "label," + ",".join(f"z{i}" for i in range(c))
    write_text_atomic("\n".join([header, *rows]) + "\n", path)


def read_logits(path: str | Path) -> Dataset:
    """Parse a logits CSV. Rows are split with str.splitlines(); the data rows
    are parsed in C when that gives exactly what the line parser would, and by
    the line parser, with its line-numbered messages, otherwise. A large file
    is parsed in C in blocks of rows, one per CPU (see _parse_rows_fast)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
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


# The fewest values (label cells included) worth a block of their own. Timed
# on a 2-vCPU Xeon VM, reading a 10-class file in two blocks against one, over
# 24 alternating pairs: at 20k rows (220k values) two blocks won 5 and 22 of
# 24 in two sets of runs; at 30k rows (330k values) 22 and 23, saving about
# 30%. A fork costs more in a larger process: with 100 MB more of Python
# objects alive, two blocks lost an apply of 20k rows in 29 of 30 pairs. So
# a block needs 200k values, and a 10-class file splits from about 36k rows.
VALUES_PER_WORKER = 200_000


def _parse_rows_fast(lines: list[str], c: int) -> Dataset | None:
    """The data rows parsed by np.loadtxt, or None when the line parser must
    run: a row that does not parse, no rows, a label out of range or a
    non-finite logit (Dataset rejects the last three). A file of at least
    2 * VALUES_PER_WORKER values is parsed in contiguous blocks of rows by
    workers.forked_map; every row goes through the same np.loadtxt call
    either way, so the values are the same."""
    dtype = np.dtype([("label", np.int64), ("z", float, (c,))])
    n = len(lines) - 1
    blocks = workers.worker_count(n, n * (c + 1), VALUES_PER_WORKER)
    bounds = [1 + n * i // blocks for i in range(blocks + 1)]
    try:
        parts = workers.forked_map(
            lambda rows: _load_rows(lines[rows.start : rows.stop], dtype),
            [range(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])],
            dtype,
        )
        # contiguous columns straight from the parts: no whole-file record array
        labels = np.concatenate([p["label"] for p in parts])
        logits = np.concatenate([p["z"] for p in parts])
        del parts  # frees the records and the blocks' shared memory
        return Dataset(labels=labels, logits=logits)
    except ValueError:
        return None


def _load_rows(lines: list[str], dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


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


def model_to_dict(model) -> dict:
    """The model file document."""
    return {"kind": model.kind, "version": SCHEMA_VERSION, "num_classes": model.num_classes, "params": model.to_params()}


def _finite_numbers(doc) -> bool:
    """No null or boolean, and no number that is NaN or beyond the doubles,
    anywhere in doc, as in every model file that save_model writes. A loop, not a
    recursion, so that any nesting json.load accepts is checked."""
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list, tuple)):
            stack.extend(node.values() if isinstance(node, dict) else node)
        elif isinstance(node, bool) or not (isinstance(node, str) or (node is not None and abs(node) <= sys.float_info.max)):
            return False
    return True


def model_from_dict(doc: dict, num_classes: int):
    """Rebuild a model from its file document. A missing field, a wrong type
    (version and num_classes are JSON integers: not 10.0, "10" or true), a value
    the model rejects or a model for other than num_classes classes is a DataFormatError."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in CALIBRATORS:
        raise DataFormatError(f"unknown model kind {kind!r}")
    version, model_classes = doc.get("version"), doc.get("num_classes")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DataFormatError(f"unsupported model version {version!r}")
    if type(model_classes) is not int:
        raise DataFormatError(f"malformed {kind} model: num_classes must be an integer, got {model_classes!r}")
    if not _finite_numbers(doc.get("params", {})):
        raise DataFormatError(f"malformed {kind} model: a parameter is null or not a finite double")
    try:
        model = CALIBRATORS[kind][0].from_params(doc["params"], model_classes)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed {kind} model: {exc}") from exc
    if model_classes != num_classes:
        raise DataFormatError(f"{kind} model is for {model_classes} classes, the data has {num_classes}")
    return model


def save_model(model, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | Path, num_classes: int):
    """Read a model file for data with num_classes classes; see model_from_dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, an overlong integer; too deep
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return model_from_dict(doc, num_classes)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
