"""read_logits parses canonical files in C (np.loadtxt) and falls back to the
line-by-line parser for anything else. These tests check that the two paths
agree bitwise, error messages included, and that canonical files never fall
back. Each check also runs with the split into blocks of rows forced on
small files, and the last tests check that the forked block workers are
always reaped and never forked beside another thread."""

import os
import signal
import threading
import warnings

import pytest

from calibkit import io_files, workers
from calibkit.cli import main
from calibkit.errors import DataFormatError
from calibkit.io_files import read_logits, write_logits
from calibkit.synth import SynthConfig, generate


def _outcome(path):
    try:
        ds = read_logits(path)
    except DataFormatError as exc:
        return str(exc)
    return ds.labels, ds.logits


def assert_paths_agree(path):
    """read_logits as is and with the C parse switched off give bitwise-equal
    arrays or the same DataFormatError message."""
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_files, "_parse_rows_fast", lambda lines, c: None)
        slow = _outcome(path)
    if isinstance(slow, str):
        assert fast == slow
        return
    assert not isinstance(fast, str), fast
    for got, want in zip(fast, slow):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def force_blocks(monkeypatch, cpus):
    """Make read_logits split every file of two or more data lines into
    min(cpus, lines) blocks; returns the list of os.fork calls made, each as
    the number of threads alive at the call."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(io_files, "VALUES_PER_WORKER", 1)
    monkeypatch.setattr(workers, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _header(c):
    return "label," + ",".join(f"z{i}" for i in range(c))


FIXED_CASES = {
    "crlf": "label,z0,z1\r\n0,1.5,2.5\r\n1,-0.5,3\r\n",
    "vertical_tab_breaks_a_row": "label,z0,z1\n0,1.5,2.5\x0b1,0.5,1\n",
    "vertical_tab_after_a_value": "label,z0,z1\n0,1.5\x0b,2.5\n",
    "nel_breaks_a_row": "label,z0,z1\n0,1.5,2.5\x851,0.5,1\n",
    "line_separator_breaks_a_row": "label,z0,z1\n0,1.5,2.5\u20281,0.5,1\n",
    "hash_line": "label,z0,z1\n# a comment\n0,1,2\n",
    "whitespace_only_line": "label,z0,z1\n0,1,2\n   \n1,2,3\n",
    "blank_line": "label,z0,z1\n0,1,2\n\n1,2,3\n",
    "label_1.0": "label,z0,z1\n1.0,1,2\n",
    "label_plus_1": "label,z0,z1\n+1,1,2\n",
    "label_space_1": "label,z0,z1\n 1,1,2\n",
    "label_1_0_out_of_range": "label,z0,z1\n1_0,1,2\n",
    "label_1_0_in_range": _header(12) + "\n1_0" + ",0.5" * 12 + "\n",
    "label_out_of_range": "label,z0,z1\n0,1,2\n2,1,2\n",
    "label_negative": "label,z0,z1\n-1,1,2\n",
    # loadtxt reads this Devanagari two as 2360, int() as 2
    "label_devanagari_digit": _header(3000) + "\n\u0968" + ",0" * 3000 + "\n",
    "label_arabic_indic_digit": "label,z0,z1\n\u0661,1,2\n",
    "value_1e400": "label,z0,z1\n0,1e400,2\n",
    "value_nan": "label,z0,z1\n0,1,2\n1,nan,2\n",
    "value_nan_then_bad_label": "label,z0,z1\n0,nan,2\n7,1,2\n",
    # loadtxt strips the unit separator as whitespace, float() rejects it
    "value_unit_separator": "label,z0,z1\n0,1.5\x1f,2\n",
    "value_underscore": "label,z0,z1\n0,1_000.5,2\n",
    "value_unicode_space": "label,z0,z1\n0,\u30001.5,2\n",
    "value_subnormal": "label,z0,z1\n0,4.9e-324,2.4703282292062328e-324\n",
    "value_negative_zero": "label,z0,z1\n0,-0.0,0\n",
    "trailing_comma": "label,z0,z1\n0,1,2,\n",
    "missing_column": "label,z0,z1\n0,1\n",
    "single_row": "label,z0,z1\n1,0.25,-0.75\n",
    "no_final_newline": "label,z0,z1\n1,0.25,-0.75",
    "header_only": "label,z0,z1\n",
    "bad_header": "label,z1,z0\n0,1,2\n",
    "empty_file": "",
}


@pytest.mark.parametrize("name", list(FIXED_CASES))
def test_fast_and_line_parser_agree_on_fixed_cases(tmp_path, name):
    path = tmp_path / "logits.csv"
    path.write_bytes(FIXED_CASES[name].encode("utf-8"))
    assert_paths_agree(path)


@pytest.mark.parametrize("name", list(FIXED_CASES))
def test_fixed_cases_agree_in_blocks_of_one_or_two_lines(tmp_path, monkeypatch, name):
    force_blocks(monkeypatch, cpus=4)
    path = tmp_path / "logits.csv"
    path.write_bytes(FIXED_CASES[name].encode("utf-8"))
    assert_paths_agree(path)
    assert_no_child_left()


def test_no_loadtxt_warning_escapes(tmp_path):
    path = tmp_path / "logits.csv"
    path.write_text("label,z0,z1\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_logits(path)


def test_devanagari_label_reads_as_int_does(tmp_path):
    path = tmp_path / "logits.csv"
    path.write_bytes(FIXED_CASES["label_devanagari_digit"].encode("utf-8"))
    assert read_logits(path).labels.tolist() == [2]


def _csv_texts(st):
    """Logits CSV texts that are mostly well formed: a header with 2 or 3
    classes, and rows that usually have the right number of cells, with odd
    tokens and line breaks mixed in. Plus arbitrary text."""
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028"])
    odd = st.sampled_from(
        ["-1", "+1", " 1", "1 ", "1.0", "1_0", "07", "\u0661", "\u0968", "", " ", "#",
         "-0.0", ".5", "5.", "1E-3", "1e400", "-1e400", "nan", "inf", "-Infinity",
         "1.5\x1f", "\x1f2", "\t3", "4\u3000", "\xa05", "0x10", "1d5", "2.5e-320", "\x00"]
    )
    label = st.integers(0, 2).map(str)
    value = st.floats(-1e6, 1e6).map(lambda v: format(v, ".17g")) | st.floats().map(repr)
    junk = st.text(st.sampled_from("0123456789+-.eE_, \t\x0b\x1fna"), max_size=5)

    def csv(c):
        good_row = st.tuples(label, st.lists(value, min_size=c, max_size=c)).map(lambda r: [r[0], *r[1]])
        any_row = st.lists(odd | label | value | junk, min_size=1, max_size=c + 2)
        # a good row with one cell replaced by an odd token
        bent_row = st.tuples(good_row, st.integers(0, c), odd).map(lambda r: r[0][: r[1]] + [r[2]] + r[0][r[1] + 1 :])
        rows = st.lists(st.tuples((good_row | bent_row | any_row).map(",".join), breaks), max_size=6)
        return rows.map(lambda rs: _header(c) + "\n" + "".join(r + b for r, b in rs))

    return st.integers(1, 3).flatmap(csv) | st.text(st.characters(codec="utf-8"), max_size=40)


def agree_on_arbitrary_csv(tmp_path, c_parsable_only=False):
    """The property on 400 drawn texts; c_parsable_only drops the characters
    that send a whole file to the line parser (non-ASCII and \x1f)."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "logits.csv"
    texts = _csv_texts(hypothesis.strategies)
    if c_parsable_only:
        texts = texts.map(lambda t: t.encode("ascii", "ignore").decode().replace("\x1f", ""))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(texts)
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        assert_paths_agree(path)

    check()


def test_fast_and_line_parser_agree_on_arbitrary_csv(tmp_path):
    agree_on_arbitrary_csv(tmp_path)


def test_fast_and_line_parser_agree_on_arbitrary_csv_in_blocks(tmp_path, monkeypatch):
    forks = force_blocks(monkeypatch, cpus=4)
    agree_on_arbitrary_csv(tmp_path, c_parsable_only=True)
    assert len(forks) > 200  # most drawn files have two or more data lines
    assert_no_child_left()


def _no_fallback(*args):
    raise AssertionError("read_logits fell back to the line parser")


def assert_fast_path(tmp_path, monkeypatch, rows, line_end):
    ds = generate(SynthConfig(num_samples=rows, regime="heteroscedastic", seed=rows))
    path = tmp_path / "logits.csv"
    write_logits(ds, path)
    if line_end != "\n":
        path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
    monkeypatch.setattr(io_files, "_parse_rows", _no_fallback)
    back = read_logits(path)
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.logits.tobytes() == ds.logits.tobytes()
    assert back.logits.flags.c_contiguous and back.labels.flags.c_contiguous


@pytest.mark.parametrize("rows", [1, 20_000])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_canonical_files_take_the_fast_path(tmp_path, monkeypatch, rows, line_end):
    assert_fast_path(tmp_path, monkeypatch, rows, line_end)


@pytest.mark.parametrize("rows", [1, 20_000])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_canonical_files_take_the_fast_path_in_blocks(tmp_path, monkeypatch, rows, line_end):
    forks = force_blocks(monkeypatch, cpus=3)
    assert_fast_path(tmp_path, monkeypatch, rows, line_end)
    assert len(forks) == min(3, rows) - 1
    assert_no_child_left()


def test_bad_row_in_a_child_block_gives_the_line_parser_message(tmp_path, monkeypatch):
    forks = force_blocks(monkeypatch, cpus=2)
    path = tmp_path / "logits.csv"
    path.write_text("label,z0,z1\n0,1,2\n1,2,3\n0,3,4\n1,4,x\n")
    with pytest.raises(DataFormatError) as exc:
        read_logits(path)
    assert str(exc.value) == f"{path}: line 5: could not convert string to float: 'x'"
    assert forks == [1]
    assert_no_child_left()


def test_fork_that_raises_oserror_gives_the_one_block_parse(tmp_path, monkeypatch):
    ds = generate(SynthConfig(num_samples=200, regime="heteroscedastic", seed=3))
    test, model = tmp_path / "test.csv", tmp_path / "ts.json"
    write_logits(ds, test)
    assert main(["fit", "--method", "ts", "--val", str(test), "--out", str(model)]) == 0
    force_blocks(monkeypatch, cpus=2)
    calls = []

    def no_fork():
        calls.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    back = read_logits(test)
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.logits.tobytes() == ds.logits.tobytes()
    assert main(["eval", "--model", str(model), "--test", str(test)]) == 0
    assert len(calls) == 2


def test_read_in_blocks_leaves_no_child_on_return_or_error(tmp_path, monkeypatch):
    ds = generate(SynthConfig(num_samples=50, regime="heteroscedastic", seed=4))
    path = tmp_path / "logits.csv"
    write_logits(ds, path)
    forks = force_blocks(monkeypatch, cpus=3)
    assert read_logits(path).logits.tobytes() == ds.logits.tobytes()
    assert_no_child_left()
    good = path.read_text()
    # a bad row in the last child's block, then in this process's block
    path.write_text(good + "0,1\n")
    with pytest.raises(DataFormatError, match="line 52: expected 11 columns, got 2"):
        read_logits(path)
    assert_no_child_left()
    header, rows = good.split("\n", 1)
    path.write_text(f"{header}\n0,1\n{rows}")
    with pytest.raises(DataFormatError, match="line 2: expected 11 columns, got 2"):
        read_logits(path)
    assert_no_child_left()
    assert forks == [1] * 6


def test_worker_killed_mid_parse_falls_back_and_is_reaped(tmp_path, monkeypatch):
    ds = generate(SynthConfig(num_samples=50, regime="heteroscedastic", seed=5))
    path = tmp_path / "logits.csv"
    write_logits(ds, path)
    forks = force_blocks(monkeypatch, cpus=2)
    parent, real_load = os.getpid(), io_files._load_rows

    def load_or_die(lines, dtype):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_load(lines, dtype)

    monkeypatch.setattr(io_files, "_load_rows", load_or_die)
    back = read_logits(path)
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.logits.tobytes() == ds.logits.tobytes()
    assert forks == [1]
    assert_no_child_left()


def test_worker_that_raises_never_returns_into_the_caller(tmp_path, monkeypatch):
    ds = generate(SynthConfig(num_samples=50, regime="heteroscedastic", seed=7))
    path = tmp_path / "logits.csv"
    write_logits(ds, path)
    force_blocks(monkeypatch, cpus=2)
    parent, real_load = os.getpid(), io_files._load_rows

    def load_or_raise(lines, dtype):
        if os.getpid() != parent:
            raise RuntimeError("not a ValueError")
        return real_load(lines, dtype)

    monkeypatch.setattr(io_files, "_load_rows", load_or_raise)
    try:
        back = read_logits(path)
    except RuntimeError:
        if os.getpid() != parent:  # the worker came back into the caller: end it
            os._exit(0)
        raise
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.logits.tobytes() == ds.logits.tobytes()
    assert_no_child_left()


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch):
    ds = generate(SynthConfig(num_samples=50, regime="heteroscedastic", seed=6))
    path = tmp_path / "logits.csv"
    write_logits(ds, path)
    forks = force_blocks(monkeypatch, cpus=2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        assert read_logits(path).logits.tobytes() == ds.logits.tobytes()
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []
    assert read_logits(path).logits.tobytes() == ds.logits.tobytes()
    assert forks == [1]
