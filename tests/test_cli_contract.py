"""The CLI contract as a property: whatever the argv and whatever the files
it names hold, `calibkit` exits 0, 1, 2 or 3, a nonzero exit prints exactly
one stderr line, and nothing prints a traceback."""

import contextlib
import io
import json
import traceback

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import calibkit.experiments as experiments  # noqa: E402
from calibkit.cli import build_parser, main  # noqa: E402
from calibkit.io_files import write_logits  # noqa: E402
from calibkit.synth import SynthConfig, generate  # noqa: E402

# derandomized, so that every run of the suite draws the same examples
CONTRACT = settings(
    derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
KINDS = sorted(experiments.CALIBRATORS)


def run_cli(argv: list[str]) -> tuple[object, str, str]:
    """Exit code and stdout + stderr of `calibkit argv`, as a shell would see them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        except BaseException:  # what would reach the user as a traceback
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv: list[str]) -> None:
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert "Traceback" not in out + err, (argv, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small inputs, and experiments on 300-row synthetic sets."""
    root = tmp_path_factory.mktemp("contract")
    paths = {"dir": root, "missing": root / "missing" / "x", "out": root / "out"}
    for name, n, classes, seed in (("val", 60, 10, 1), ("test", 40, 10, 2), ("three", 12, 3, 3)):
        paths[name] = root / f"{name}.csv"
        write_logits(generate(SynthConfig(num_samples=n, num_classes=classes, seed=seed)), paths[name])
    paths["bad"] = root / "bad.csv"
    paths["bad"].write_text("label,z0,z1\n0,1.0\n")
    paths["binary"] = root / "binary.bin"  # not UTF-8
    paths["binary"].write_bytes(b"\xff\xfe\x00garbage")
    for kind in KINDS:
        paths[kind] = root / f"{kind}.json"
        fit = ["fit", "--method", kind, "--val", str(paths["val"]), "--out", str(paths[kind]), "--steps", "2"]
        assert main(fit) == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "EXPERIMENT_VAL_SIZE", 300)
        patch.setattr(experiments, "EXPERIMENT_TEST_SIZE", 300)
        yield {name: str(path) for name, path in paths.items()}


def flag_values(files):
    """Each flag of the parser with valid, boundary and invalid values."""
    data = st.sampled_from(["val", "val", "test", "three", "bad", "binary", "missing", "dir"]).map(files.get)
    models = st.sampled_from([*KINDS, "val", "binary", "missing", "dir"]).map(files.get)
    return {
        "--method": st.sampled_from([*KINDS, "nope", ""]),
        "--methods": st.sampled_from([*KINDS, "ts,ets,irova_ts", "histbin,pbmc,pts", "irm,,ts", "ts,nope", ","]),
        "--val": data,
        "--test": data,
        "--model": models,
        "--out": st.sampled_from(["out", "out", "missing", "dir"]).map(files.get),
        "--losses": st.sampled_from(["mse", "ece", "mse,ece", "ece,nll", "nll", ""]),
        "--seed": st.sampled_from(["0", "17", "-1", "x", "123456789012345678901234567890"]),
        "--bins": st.sampled_from(["10", "5,15", "1", "30", "0", "-3", ",", "x"]),
        "--steps": st.sampled_from(["1", "3", "0", "-1", "1e3"]),
        "--batch-size": st.sampled_from(["1", "64", "0", "x"]),
        "--lr": st.sampled_from(["1e-3", "0", "-1", "nan", "inf", "x"]),
        "--topk": st.sampled_from(["1", "3", "10", "12", "0"]),
        "--widths": st.sampled_from(["1", "2,3", "0", "x"]),
        "--fractions": st.sampled_from(["1", "0.5,1", "0.1:1:0.45", "0.001", "0", "1.5", "1:0:0", "x"]),
    }


TRAIN = ["--seed", "--bins", "--batch-size", "--lr", "--topk"]
# command -> (flags that the parser requires, optional flags)
COMMANDS = {
    "fit": (["--method", "--val", "--out"], ["--losses", *TRAIN]),
    "apply": (["--model", "--test", "--out"], []),
    "eval": (["--model", "--test"], ["--out", "--bins"]),
    "compare": (["--methods", "--val", "--test"], ["--out", "--timings", *TRAIN]),
    "experiment": (["--out"], ["--widths", "--fractions", "--losses", "--methods", *TRAIN]),
}
# these always get a --steps, so that no PTS fit runs its default budget
TRAINING_COMMANDS = ("fit", "compare", "experiment")


@st.composite
def argvs(draw, files):
    values = flag_values(files)
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = required + (draw(st.lists(st.sampled_from(optional), unique=True, max_size=3)) if optional else [])
    flags = [f for f in flags if f != draw(st.sampled_from([None] * 6 + required))]  # sometimes one is missing
    flags += ["--steps"] if command in TRAINING_COMMANDS else []
    argv = [command]
    if command == "experiment":
        argv.append(draw(st.sampled_from([*experiments.EXPERIMENTS, "nope"])))
    for flag in draw(st.permutations(flags)):
        argv += [flag] if flag == "--timings" else [flag, draw(values[flag])]
    return argv + draw(st.sampled_from([[]] * 8 + [["--nope"], ["extra"], ["-h"]]))


def test_every_parser_flag_is_drawn():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(COMMANDS)
    for command, (required, optional) in COMMANDS.items():
        flags = {s for a in subparsers[command]._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == set(required + optional) | ({"--steps"} if command in TRAINING_COMMANDS else set()), command


@settings(CONTRACT, max_examples=150)
@given(data=st.data())
def test_cli_contract_on_drawn_argv(files, data):
    assert_contract(data.draw(argvs(files)))


LOGIT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 12).map(str),
    st.sampled_from(["", " ", "1e400", "-1e308", "0x1p3", "١", "nan", "1_0", "\x1f1"]),
)


@st.composite
def csv_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(alphabet="label,z0123456789.-e+\n \r\tx", max_size=120))
    classes = draw(st.integers(1, 4))
    header = "label," + ",".join(f"z{i}" for i in range(classes))
    rows = draw(st.lists(st.lists(LOGIT_CELLS, min_size=classes, max_size=classes + 2), max_size=12))
    return "\n".join([header, *(",".join(row) for row in rows)]) + draw(st.sampled_from(["\n", "", "\n\n"]))


# UTF-16 text starts with a byte-order mark that is not UTF-8
ENCODINGS = st.sampled_from(["utf-8"] * 4 + ["utf-16"])


@settings(CONTRACT, max_examples=80)
@given(text=csv_texts(), command=st.sampled_from(["fit ts", "fit pbmc", "fit pts", "eval", "apply"]), encoding=ENCODINGS)
def test_cli_contract_on_drawn_csv_text(files, text, command, encoding):
    path = f"{files['dir']}/drawn.csv"
    with open(path, "w", encoding=encoding) as fh:
        fh.write(text)
    verb, _, method = command.partition(" ")
    if verb == "fit":
        argv = ["fit", "--method", method, "--val", path, "--out", files["out"], "--steps", "2", "--bins", "2"]
    else:
        argv = [verb, "--model", files["ts"], "--test", path, "--out", files["out"]]
    assert_contract(argv)


NUMBERS = st.integers(-3, 12) | st.sampled_from([2**63, -(10**400)]) | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _replace_at(doc, path, value):
    """doc with the node at path (a list of keys and indices) replaced by value."""
    if not path:
        return value
    node = doc[path[0]]
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _replace_at(node, path[1:], value)
    return doc


def _paths(node, prefix=()):
    yield list(prefix)
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


@st.composite
def model_texts(draw, files):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(alphabet='{}[]":,0123456789.-eakindtsparm ', max_size=80))
    with open(files[draw(st.sampled_from(KINDS))], encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace_at(doc, path, draw(JSON_VALUES))
    return json.dumps(doc, allow_nan=True)


@settings(CONTRACT, max_examples=80)
@given(data=st.data(), command=st.sampled_from(["eval", "apply"]), encoding=ENCODINGS)
def test_cli_contract_on_drawn_model_json(files, data, command, encoding):
    path = f"{files['dir']}/drawn.json"
    with open(path, "w", encoding=encoding) as fh:
        fh.write(data.draw(model_texts(files)))
    assert_contract([command, "--model", path, "--test", files["test"], "--out", files["out"]])


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--methods", "ts,irm,ts", "--timings"],
        ["experiment", "loss_ablation", "--methods", "ets,histbin", "--losses", "mse,ece,mse"],
        ["experiment", "data_efficiency", "--methods", "irm,irm"],
    ],
)
def test_a_name_given_twice_is_a_usage_error(files, argv):
    """A repeated method would be fitted twice into one report block, and a
    repeated loss twice into one table row."""
    files_flags = ["--val", files["val"], "--test", files["test"]] if argv[0] == "compare" else []
    code, out, err = run_cli(argv + files_flags + ["--out", files["out"], "--steps", "2"])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "distinct names" in err
