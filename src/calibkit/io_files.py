"""File formats: logits CSV, model JSON, report JSON. All writes are atomic
(temp file + rename) and all real numbers are printed at 17 significant digits
so canonical files round-trip byte-identically."""

from __future__ import annotations

import io
import json
import math
import os
import reprlib
import stat
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
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_json(obj: Any, path: str | Path) -> None:
    write_text_atomic(canonical_json(obj) + "\n", path)


def csv_text(header: list[str], columns: list) -> str:
    """A CSV file's text: the header line, then one line per row of the
    columns. A column of reals prints through _fmt_column, any other through str."""
    cells = [_fmt_column(c) if c.dtype.kind == "f" else map(str, c.tolist()) for c in map(np.asarray, columns)]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def write_logits(dataset: Dataset, path: str | Path) -> None:
    header = ["label", *(f"z{i}" for i in range(dataset.num_classes))]
    write_text_atomic(csv_text(header, [dataset.labels, *dataset.logits.T]), path)


def read_logits(path: str | Path) -> Dataset:
    """Parse a logits CSV. A file that _scan_lines accepts is streamed from
    disk into np.loadtxt in blocks of rows (see _parse_rows_fast), so its text
    is never held whole. Any other file, or one whose rows do not parse
    exactly as the line parser parses them, is split with str.splitlines()
    and parsed by the line parser, whose messages name the line."""
    starts = _scan_lines(path)
    if starts is not None:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").splitlines()[0] if starts.size > 1 else None
        dataset = _parse_rows_fast((path, starts[1:]), _class_count(path, header))
        if dataset is not None:
            return dataset
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return _parse_rows(path, lines, _class_count(path, lines[0] if lines else None))


def _class_count(path: str | Path, header: str | None) -> int:
    """The class count that a header line names; None stands for an empty file."""
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    names = header.split(",")
    if names[0] != "label" or len(names) < 3 or names[1:] != [f"z{i}" for i in range(len(names) - 1)]:
        raise DataFormatError(f"{path}: line 1: expected header 'label,z0,z1,...'")
    return len(names) - 1


# The bytes read from a logits CSV at a time
SCAN_BYTES = 1 << 16


def _scan_lines(path: str | Path) -> np.ndarray | None:
    """One binary pass over a logits CSV: the byte offset at which each of its
    lines starts, then its size. None unless the file is ASCII without \x1f,
    each of its lines ends in \n or \r\n (the last may end the file instead)
    and is at least 3 bytes long, break included. On such text np.loadtxt
    accepts a subset of what int() and float() accept and gives the same
    values; it strips \x1f as whitespace where float() rejects it, and
    misreads non-ASCII digits. A row needs 5 bytes, and the max_rows of
    np.loadtxt does not count blank lines, so a shorter line goes to the
    line parser."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe, say, can be opened and read only once
        return None
    starts = [np.zeros(1, dtype=np.int64)]  # of each line, and past a final break
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(SCAN_BYTES):
            if chunk.endswith(b"\r"):  # a \r\n split across reads is not a lone \r
                chunk += fh.read(1)
            if not chunk.isascii() or any(ch in chunk for ch in b"\x0b\x0c\x1c\x1d\x1e\x1f"):
                return None
            if b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):  # a lone \r: a break the offsets miss
                return None
            starts.append(np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + (size + 1))
            size += len(chunk)
    starts = np.concatenate(starts)
    starts = starts if starts[-1] == size else np.append(starts, size)
    return None if (np.diff(starts) < 3).any() else starts


# The fewest values (label cells included) worth a block of their own. Timed
# on a 2-vCPU Xeon VM, reading a 10-class file in two blocks against one, over
# 24 alternating pairs: at 20k rows (220k values) two blocks won 5 and 22 of
# 24 in two sets of runs; at 30k rows (330k values) 22 and 23, saving about
# 30%. A fork costs more in a larger process: with 100 MB more of Python
# objects alive, two blocks lost an apply of 20k rows in 29 of 30 pairs. So
# a block needs 200k values, and a 10-class file splits from about 36k rows.
VALUES_PER_WORKER = 200_000


def _parse_rows_fast(rows: tuple[str | Path, np.ndarray], c: int) -> Dataset | None:
    """The data rows parsed by np.loadtxt, or None when the line parser must
    run: a row that does not parse, no rows, a label out of range or a
    non-finite logit (Dataset rejects the last three). rows is the file and
    the start of each of its data lines, then its size, from _scan_lines. A
    file of at least 2 * VALUES_PER_WORKER values is parsed in contiguous
    blocks of lines, the items of workers.forked_items. Each block is read
    from the file by the same np.loadtxt call, so the values are the same
    either way."""
    path, starts = rows
    dtype = np.dtype([("label", np.int64), ("z", float, (c,))])
    n = starts.size - 1
    blocks = workers.worker_count(n, n * (c + 1), VALUES_PER_WORKER)
    first = [n * i // blocks for i in range(blocks + 1)]  # the first line of each block, then n
    try:
        parts = workers.forked_items(
            lambda i: _load_rows((path, starts[first[i]], first[i + 1] - first[i]), dtype), blocks, blocks
        )
        # contiguous columns straight from the parts: no whole-file record array
        labels = np.concatenate([p["label"] for p in parts])
        logits = np.concatenate([p["z"] for p in parts])
        del parts  # frees the records
        return Dataset(labels=labels, logits=logits)
    except ValueError:
        return None


def _load_rows(lines: tuple[str | Path, int, int], dtype: np.dtype) -> np.ndarray:
    """np.loadtxt of lines: a file, the byte offset at which one of its lines
    starts and how many lines to read from there."""
    path, start, count = lines
    with open(path, "rb") as fh:
        fh.seek(start)
        # an open file, never a path: np.loadtxt would decompress a path
        # ending in .gz, .bz2 or .xz and open a URL-like one
        with io.TextIOWrapper(fh, encoding="ascii") as text, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=1, max_rows=count)


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


def _first_difference(saved, got) -> str | None:
    """Where got, a parsed model document, first differs from saved, the
    document of the model built from it, and how; None if nowhere. The
    recursion follows saved, so its depth is the model's. A tuple is a list."""
    if isinstance(saved, dict) and isinstance(got, dict):
        if got.keys() != saved.keys():
            key = next(k for k in [*got, *saved] if k not in saved or k not in got)
            return f".{key} is an unknown key" if key in got else f".{key} is missing"
        entries = saved.items()
    elif isinstance(saved, (list, tuple)) and isinstance(got, (list, tuple)) and len(got) == len(saved):
        if _same_leaves(saved, got):
            return None
        entries = enumerate(saved)
    elif _same_leaves([saved], [got]):
        return None
    elif type(got) in (int, float) and not _same_leaves([got], [got]):  # NaN, infinite or beyond the doubles
        return " is not a finite double"
    else:
        return f" is {reprlib.repr(got)} where the model saves {reprlib.repr(saved)}"
    for key, value in entries:  # the path is built only back up from a difference
        if found := _first_difference(value, got[key]):
            return (f"[{key}]" if isinstance(key, int) else f".{key}") + found
    return None


def _same_leaves(saved: list, got: list) -> bool:
    """Whether got holds saved's entries, numbers or strings of one type, with
    that type, each number a finite double; at C speed. Else False."""
    types = {*map(type, saved)}
    try:
        return len(types) == 1 and {*map(type, got)} == types and (str in types or all(map(math.isfinite, got))) and got == saved
    except (TypeError, OverflowError):  # lists, not numbers; an integer beyond the doubles
        return False


def model_from_dict(doc: dict, num_classes: int):
    """Rebuild a model from its file document, which must be the document the
    model saves: the same keys and list lengths, and at each leaf the same type
    (1 is not 1.0 or true) and value, every number a finite double. Any other
    document, one of another version and a model for other than num_classes
    classes raise DataFormatError."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in CALIBRATORS:
        raise DataFormatError(f"unknown model kind {kind!r}")
    version, model_classes = doc.get("version"), doc.get("num_classes")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DataFormatError(f"unsupported model version {version!r}")
    if type(model_classes) is not int:
        raise DataFormatError(f"malformed {kind} model: num_classes must be an integer, got {model_classes!r}")
    try:
        model = CALIBRATORS[kind][0].from_params(doc["params"], model_classes)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise DataFormatError(f"malformed {kind} model: {exc}") from exc
    if found := _first_difference(model_to_dict(model), doc):
        raise DataFormatError(f"malformed {kind} model: {found[1:]}")  # found starts with "." and a key
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
