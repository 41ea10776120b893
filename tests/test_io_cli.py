import hashlib
import json
import os
import stat
import warnings
from dataclasses import replace

import numpy as np
import pytest

import calibkit.binning
import calibkit.experiments as experiments
import calibkit.scaling
from calibkit.binning import fit_hist_binning, fit_irm, fit_irova, fit_irova_ts, fit_pbmc
from calibkit.cli import build_parser, main
from calibkit.core import Dataset
from calibkit.errors import DataFormatError
from calibkit.experiments import fit_method
from calibkit.core import Predictions
from calibkit.io_files import (
    _fmt,
    _fmt_column,
    canonical_json,
    load_model,
    model_from_dict,
    model_to_dict,
    read_logits,
    save_model,
    write_logits,
)
from calibkit.scaling import EtsModel, PtsTrainConfig, TsModel, fit_ets, fit_pts, fit_ts
from calibkit.synth import SynthConfig, generate
from oracles import pts_constant_model


def small_dataset(seed=42, n=200):
    return generate(SynthConfig(num_samples=n, regime="global_temp", seed=seed))


def test_canonical_json_sorted_and_compact():
    doc = {"b": 1, "a": [1.5, True, None, "x"]}
    assert canonical_json(doc) == '{"a":[1.5,true,null,"x"],"b":1}'


def test_canonical_json_float_fidelity():
    values = [0.1, 1 / 3, 1e-300, 123456.789, 2.0, -0.0]
    text = canonical_json(values)
    assert json.loads(text) == values  # parse back to the exact same doubles
    assert canonical_json(2.0) == "2.0"


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json(float("nan"))


def test_logits_round_trip_byte_identical(tmp_path):
    ds = small_dataset()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_logits(ds, p1)
    back = read_logits(p1)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.logits, ds.logits)
    write_logits(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


# Values at the edges of %.17g and of the ".0" fix-up: integral values below
# 1e17 (99999999999999984 is the largest double below it) print without a
# point, 1e17 and up print with an exponent, and so do values below 1e-4.
FMT_EDGES = [1.0, 0.5, 0.0, -0.0, 1 / 3, 1e-5, 1e-4, 5e-324, 1e16, 99999999999999984.0, 1e17, 2.0**53, 1e300]


def fmt_per_value(values):
    """The per-value loop that write_logits and cmd_apply ran, kept as the bitwise oracle."""
    return [_fmt(v) for v in np.asarray(values, dtype=float).ravel()]


def test_fmt_column_matches_fmt_on_every_value():
    rng = np.random.default_rng(3)
    edges = np.array(FMT_EDGES + [-v for v in FMT_EDGES] + [np.nan, np.inf, -np.inf])
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30, 30, 20_000)
    integral = np.round(rng.standard_normal(5_000) * 10.0 ** rng.uniform(0, 20, 5_000))
    values = np.concatenate([edges, scaled, integral, rng.random(5_000), np.array([])])
    assert _fmt_column(values) == fmt_per_value(values)
    rows = values[:27_000].reshape(-1, 9)
    assert _fmt_column(rows) == fmt_per_value(rows)  # row-major
    assert _fmt_column(np.array([])) == []


def test_write_logits_matches_the_per_value_loop(tmp_path):
    rng = np.random.default_rng(4)
    logits = np.concatenate([np.array(FMT_EDGES).reshape(-1, 1) * [1, -1], rng.standard_normal((50, 2)) * 1e3])
    ds = Dataset(labels=rng.integers(0, 2, len(logits)), logits=logits)
    cells = iter(fmt_per_value(ds.logits))
    lines = [f"{label},{next(cells)},{next(cells)}" for label in ds.labels.tolist()]
    write_logits(ds, tmp_path / "z.csv")
    assert (tmp_path / "z.csv").read_text() == "\n".join(["label,z0,z1", *lines]) + "\n"


@pytest.mark.parametrize("method", ["ts", "histbin"])
def test_cli_apply_matches_the_per_value_loop(tmp_path, method):
    val, test = write_sets(tmp_path)
    ds = read_logits(test)
    ds = Dataset(labels=ds.labels, logits=ds.logits * np.where(np.arange(len(ds)) < 50, 1e3, 1.0)[:, None])
    write_logits(ds, test)  # the first 50 rows so far apart that TS gives them confidence 1.0
    model, out = str(tmp_path / "m.json"), tmp_path / "conf.csv"
    assert main(["fit", "--method", method, "--val", val, "--out", model]) == 0
    assert main(["apply", "--model", model, "--test", test, "--out", str(out)]) == 0
    preds = Predictions.from_probs(load_model(model, ds.num_classes).apply_probs(ds.logits), ds.labels)
    cells = fmt_per_value(preds.confidence)
    lines = [f"{p},{c}" for p, c in zip(preds.predicted_class.tolist(), cells)]
    assert out.read_text() == "\n".join(["predicted_class,confidence", *lines]) + "\n"
    if method == "ts":
        assert "1.0" in cells  # the fix-up path runs


def test_read_logits_error_messages(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("label,z0\n0,1.0\n")
    with pytest.raises(DataFormatError, match="header"):
        read_logits(path)

    path.write_text("label,z0,z1\n0,1.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_logits(path)

    path.write_text("label,z0,z1\n5,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="out of range"):
        read_logits(path)

    path.write_text("label,z0,z1\n0,inf,2.0\n")
    with pytest.raises(DataFormatError, match="non-finite"):
        read_logits(path)

    # the blank line 3 is skipped but still counted
    path.write_text("label,z0,z1\n0,1.0,2.0\n\n1,nan,0.5\n0,inf,1.0\n")
    with pytest.raises(DataFormatError, match="line 4: non-finite logit"):
        read_logits(path)

    path.write_text("label,z0,z1\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        read_logits(path)

    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        read_logits(path)


def all_models(ds):
    return [
        fit_ts(ds),
        fit_ets(ds, fit_ts(ds)),
        fit_pts(ds, PtsTrainConfig(steps=50, seed=1)),
        fit_hist_binning(ds, 5),
        fit_irova(ds),
        fit_irm(ds),
        fit_irova_ts(ds, fit_ts(ds)),
        fit_pbmc(ds, num_bins=5, seed=1),
    ]


def test_model_round_trips_all_kinds(tmp_path):
    ds = small_dataset()
    probe = small_dataset(seed=43).logits
    for model in all_models(ds):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, ds.num_classes)
        assert type(loaded) is type(model)
        assert np.allclose(loaded.apply_probs(probe), model.apply_probs(probe), atol=1e-15)


def test_model_dict_round_trip_is_stable():
    ds = small_dataset()
    for model in all_models(ds):
        doc = model_to_dict(model)
        again = model_to_dict(model_from_dict(doc, ds.num_classes))
        assert canonical_json(doc) == canonical_json(again)


def test_load_model_rejects_malformed(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json")
    with pytest.raises(DataFormatError):
        load_model(path, 2)
    path.write_text('{"kind":"nope","version":1,"num_classes":2,"params":{}}')
    with pytest.raises(DataFormatError, match="kind"):
        load_model(path, 2)
    path.write_text('{"kind":"ts","version":99,"num_classes":2,"params":{"temperature":1.0}}')
    with pytest.raises(DataFormatError, match="version"):
        load_model(path, 2)
    path.write_text('{"kind":"ts","version":1,"num_classes":2,"params":{}}')
    with pytest.raises(DataFormatError, match="malformed"):
        load_model(path, 2)
    ts_doc = '{"kind":"ts","version":%s,"num_classes":%s,"params":{"temperature":1.5}}'
    path.write_text(ts_doc % (1, 10))
    assert load_model(path, 10).temperature == 1.5
    for bad in ('"10"', "10.7", "10.0", "true", "null"):
        path.write_text(ts_doc % (1, bad))
        with pytest.raises(DataFormatError, match="num_classes must be an integer"):
            load_model(path, 10)
    for bad in ("true", "1.0", '"1"'):
        path.write_text(ts_doc % (bad, 10))
        with pytest.raises(DataFormatError, match="version"):
            load_model(path, 10)
    path.write_text(ts_doc.replace("1.5", "true") % (1, 10))
    with pytest.raises(DataFormatError, match="null or not a finite double"):
        load_model(path, 10)
    path.write_text(ts_doc % (1, "1" * 5000))  # beyond int()'s digit limit
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_model(path, 10)
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(DataFormatError, match="m.json: invalid JSON"):
        load_model(path, 10)
    for kind in ("histbin", "pbmc"):
        for edges, outputs, message in [
            ("[[0.5]]", "[[0.1],[0.9]]", "must be 1-D"),
            ("[0.9,0.6]", "[0.1,0.5,0.9]", "strictly increasing"),
            ("[0.6,0.6]", "[0.1,0.5,0.9]", "strictly increasing"),
        ]:
            temperature = '"temperature":1.0,' if kind == "pbmc" else ""
            params = '{%s"edges":%s,"outputs":%s}' % (temperature, edges, outputs)
            path.write_text('{"kind":"%s","version":1,"num_classes":10,"params":%s}' % (kind, params))
            with pytest.raises(DataFormatError, match=f"malformed {kind} model: .*{message}"):
                load_model(path, 10)


def write_sets(tmp_path, n=400):
    val_path, test_path = tmp_path / "val.csv", tmp_path / "test.csv"
    write_logits(generate(SynthConfig(num_samples=n, regime="global_temp", seed=50)), val_path)
    write_logits(generate(SynthConfig(num_samples=n, regime="global_temp", seed=51)), test_path)
    return str(val_path), str(test_path)


def test_cli_fit_apply_eval_pipeline(tmp_path):
    val, test = write_sets(tmp_path)
    model = str(tmp_path / "ts.json")
    assert main(["fit", "--method", "ts", "--val", val, "--out", model]) == 0
    assert load_model(model, 10).temperature > 1.5

    conf_out = str(tmp_path / "conf.csv")
    assert main(["apply", "--model", model, "--test", test, "--out", conf_out]) == 0
    lines = (tmp_path / "conf.csv").read_text().splitlines()
    assert lines[0] == "predicted_class,confidence"
    assert len(lines) == 401

    report_out = str(tmp_path / "report.json")
    assert main(["eval", "--model", model, "--test", test, "--out", report_out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["methods"]) == {"ts"}
    assert 0.0 <= report["methods"]["ts"]["ece_equal_width"]["10"] <= 1.0


def test_cli_fit_pts_with_flags(tmp_path):
    val, _ = write_sets(tmp_path)
    model = str(tmp_path / "pts.json")
    code = main(
        ["fit", "--method", "pts", "--val", val, "--out", model, "--steps", "50", "--seed", "3"]
    )
    assert code == 0
    assert load_model(model, 10).config.steps == 50


def test_cli_compare_report_structure(tmp_path):
    val, test = write_sets(tmp_path)
    out = str(tmp_path / "cmp.json")
    code = main(
        ["compare", "--methods", "ts,ets", "--val", val, "--test", test, "--out", out, "--seed", "17"]
    )
    assert code == 0
    report = json.loads((tmp_path / "cmp.json").read_text())
    assert set(report["methods"]) == {"base", "ts", "ets"}
    assert "fit_wall_time_s" not in report["methods"]["ts"]


def test_cli_compare_timings_flag(tmp_path):
    val, test = write_sets(tmp_path)
    out = str(tmp_path / "cmp.json")
    main(["compare", "--methods", "ts", "--val", val, "--test", test, "--out", out, "--timings"])
    report = json.loads((tmp_path / "cmp.json").read_text())
    assert report["methods"]["ts"]["fit_wall_time_s"] >= 0.0


def test_cli_exit_codes(tmp_path):
    val, test = write_sets(tmp_path)
    # usage: unknown method
    assert main(["fit", "--method", "nope", "--val", val, "--out", str(tmp_path / "m.json")]) == 1
    assert main(["compare", "--methods", "ts,nope", "--val", val, "--test", test]) == 1
    # usage: unknown flag / missing subcommand
    assert main(["fit", "--method", "ts"]) == 1
    # data: missing file
    assert main(["fit", "--method", "ts", "--val", str(tmp_path / "gone.csv"), "--out", "m.json"]) == 2
    # data: malformed csv
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,logits,file\n")
    assert main(["fit", "--method", "ts", "--val", str(bad), "--out", str(tmp_path / "m.json")]) == 2


@pytest.fixture
def small_experiments(monkeypatch):
    monkeypatch.setattr(experiments, "EXPERIMENT_VAL_SIZE", 500)
    monkeypatch.setattr(experiments, "EXPERIMENT_TEST_SIZE", 500)


def test_cli_experiment_loss_ablation_writes_tables(tmp_path, small_experiments):
    out = tmp_path / "exp"
    code = main(
        ["experiment", "loss_ablation", "--out", str(out), "--steps", "50", "--methods", "ets"]
    )
    assert code == 0
    rows = json.loads((out / "loss_ablation.json").read_text())["rows"]
    assert {(r["method"], r["loss"]) for r in rows} == {("ets", "mse"), ("ets", "ece")}
    csv_lines = (out / "loss_ablation.csv").read_text().splitlines()
    assert csv_lines[0] == "method,loss,test_ece"
    assert len(csv_lines) == 3


def test_cli_eval_stdout_when_no_out(tmp_path, capsys):
    val, test = write_sets(tmp_path)
    model = str(tmp_path / "ts.json")
    main(["fit", "--method", "ts", "--val", val, "--out", model])
    assert main(["eval", "--model", model, "--test", test]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["schema_version"] == 1


def test_cli_fit_pts_overflowing_logits_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    huge = Dataset(labels=rng.integers(0, 4, size=200), logits=rng.normal(size=(200, 4)) * 1e306)
    val = tmp_path / "huge.csv"
    write_logits(huge, val)
    argv = ["fit", "--method", "pts", "--val", str(val), "--out", str(tmp_path / "m.json"), "--steps", "20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print more stderr lines
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")


def overflowing_models(val):
    """One model of each tempered kind with T < 1, so z/T overflows on
    finite logits near 1e307."""
    return {
        "ts": TsModel(temperature=0.01, num_classes=4),
        "ets": EtsModel(temperature=0.01, weights=(0.5, 0.3, 0.2), num_classes=4),
        "pts": pts_constant_model(0.02, num_classes=4),
        "irova_ts": replace(fit_irova_ts(val, fit_ts(val)), ts=TsModel(temperature=0.01, num_classes=4)),
        "pbmc": replace(fit_pbmc(val, num_bins=5, seed=1), temperature=0.01),
    }


@pytest.mark.parametrize("command", ["apply", "eval"])
@pytest.mark.parametrize("kind", ["ts", "ets", "pts", "irova_ts", "pbmc"])
def test_cli_apply_eval_overflowing_logits_exit_3(tmp_path, capsys, kind, command):
    rng = np.random.default_rng(0)
    val = Dataset(labels=rng.integers(0, 4, size=200), logits=rng.normal(size=(200, 4)))
    huge = Dataset(labels=val.labels, logits=val.logits * 1e307)
    test, model = tmp_path / "huge.csv", tmp_path / "m.json"
    write_logits(huge, test)
    save_model(overflowing_models(val)[kind], model)
    argv = [command, "--model", str(model), "--test", str(test), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print more stderr lines
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["eval", "--bins", "0"],
        ["eval", "--bins", "10,-1"],
        ["eval", "--bins", ","],
        ["fit", "--steps", "0"],
        ["fit", "--steps", "-5"],
        ["fit", "--seed", "-1"],
        ["experiment", "--seed", "-1"],
        ["fit", "--batch-size", "0"],
        ["compare", "--batch-size", "-1000"],
        ["fit", "--lr", "0"],
        ["fit", "--lr", "-0.5"],
        ["fit", "--lr", "nan"],
        ["fit", "--lr", "inf"],
        ["fit", "--topk", "0"],
        ["compare", "--topk", "-2"],
        ["experiment", "--widths", "1,0"],
    ],
    ids=" ".join,
)
def test_cli_rejects_non_positive_numeric_flags(tmp_path, capsys, flags):
    val, test = write_sets(tmp_path, n=50)
    out = str(tmp_path / "out.json")
    command, extra = flags[0], flags[1:]
    argv = {
        "fit": ["fit", "--method", "pts", "--val", val, "--out", out],
        "eval": ["eval", "--model", str(tmp_path / "m.json"), "--test", test],
        "compare": ["compare", "--methods", "pts", "--val", val, "--test", test],
        "experiment": ["experiment", "capacity", "--out", str(tmp_path / "exp")],
    }[command]
    assert main(argv + extra) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: argument {extra[0]}: expected ")


@pytest.mark.parametrize(
    "params",
    [
        {"kind": "ts", "params": {"temperature": -1.0}},
        {"kind": "ets", "params": {"temperature": 1.0, "weights": [0.5, 0.5]}},
    ],
    ids=["ts_negative_temperature", "ets_two_weights"],
)
@pytest.mark.parametrize("command", ["apply", "eval"])
def test_cli_model_failing_its_own_checks_exit_2(tmp_path, capsys, params, command):
    _, test = write_sets(tmp_path, n=50)
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"version": 1, "num_classes": 10, **params}))
    argv = [command, "--model", str(model), "--test", test, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"data error: {model}: malformed {params['kind']} model: ")


@pytest.mark.parametrize("method,rows", [("histbin", 5), ("pbmc", 29)])
def test_cli_fit_binning_on_too_few_rows_exit_2(tmp_path, capsys, method, rows):
    val = tmp_path / "val.csv"
    write_logits(small_dataset(n=rows), val)
    argv = ["fit", "--method", method, "--val", str(val), "--out", str(tmp_path / "m.json"), "--bins", "10"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: ") and f"got {rows}" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("method", ["ts", "ets", "irova_ts", "pbmc"])
def test_cli_fit_temperature_on_overflowing_logits_exit_3(tmp_path, capsys, method):
    # the validation NLL overflows to inf at every T in the search range
    rng = np.random.default_rng(0)
    huge = Dataset(labels=rng.integers(0, 4, size=200), logits=rng.normal(size=(200, 4)) * 1e307)
    val = tmp_path / "huge.csv"
    write_logits(huge, val)
    argv = ["fit", "--method", method, "--val", str(val), "--out", str(tmp_path / "m.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print more stderr lines
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")
    assert not (tmp_path / "m.json").exists()


def one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and err.startswith(prefix)


# 10**12 asks for terabytes, which the kernel refuses at once; a size that
# overcommit could grant would make the machine page instead
@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "pts", "--batch-size", str(10**12)],
        ["--method", "pts", "--topk", str(10**12)],
        ["--method", "pts", "--bins", str(10**12)],
        ["--method", "ets", "--losses", "ece", "--bins", str(10**12)],
    ],
    ids=" ".join,
)
def test_cli_flag_too_large_to_allocate_exit_1(tmp_path, capsys, flags):
    val, _ = write_sets(tmp_path, n=50)
    out = tmp_path / "m.json"
    assert main(["fit", "--steps", "5", "--val", val, "--out", str(out), *flags]) == 1
    assert one_error_line(capsys, "error: out of memory: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["apply", "eval"])
@pytest.mark.parametrize("kind", ["ts", "histbin", "irova", "pts"])
def test_cli_apply_eval_reject_a_model_for_another_class_count(tmp_path, capsys, kind, command):
    val, _ = write_sets(tmp_path, n=100)
    model = str(tmp_path / "m.json")
    assert main(["fit", "--method", kind, "--val", val, "--out", model, "--steps", "5"]) == 0
    test = tmp_path / "test3.csv"
    write_logits(generate(SynthConfig(num_samples=30, num_classes=3, seed=52)), test)
    out = tmp_path / "out"
    assert main([command, "--model", model, "--test", str(test), "--out", str(out)]) == 2
    assert one_error_line(capsys, f"data error: {model}: {kind} model is for 10 classes, the data has 3")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--method", "ets", "--losses", "nll"],
        ["fit", "--method", "pts", "--losses", "mse,hinge"],
        ["experiment", "loss_ablation", "--losses", "ece,nll"],
        ["experiment", "loss_ablation", "--methods", "irova", "--losses", "nll"],
    ],
    ids=" ".join,
)
def test_cli_rejects_an_unknown_training_loss(tmp_path, capsys, argv):
    val, _ = write_sets(tmp_path, n=50)
    paths = ["--val", val, "--out", str(tmp_path / "m.json")] if argv[0] == "fit" else ["--out", str(tmp_path / "exp")]
    assert main(argv + paths) == 1
    assert one_error_line(capsys, "error: unknown training loss(es) for ets and pts: ")
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "exp").exists()


@pytest.mark.parametrize("method", ["ets", "pts", "ts"])
def test_cli_fit_rejects_more_than_one_loss(tmp_path, capsys, method):
    val, _ = write_sets(tmp_path, n=50)
    out = tmp_path / "m.json"
    assert main(["fit", "--method", method, "--val", val, "--out", str(out), "--losses", "mse,ece"]) == 1
    assert one_error_line(capsys, "error: fit takes one training loss, got 2: mse,ece")
    assert not out.exists()


def test_cli_fit_ignores_losses_for_methods_without_one(tmp_path):
    val, _ = write_sets(tmp_path, n=50)
    assert main(["fit", "--method", "ts", "--val", val, "--out", str(tmp_path / "m.json"), "--losses", "nll"]) == 0


def _pts_input_width_5(doc):
    doc["params"]["input_width"] = 5


def _pts_wide_output(doc):
    p = doc["params"]
    p["weights"][-1] = [row * 2 for row in p["weights"][-1]]
    p["biases"][-1] = p["biases"][-1] * 2


def _pts_unchained(doc):
    doc["params"]["weights"][1].pop()


def _pts_short_bias(doc):
    doc["params"]["biases"][0].pop()


def _set_param(name, value):
    def edit(doc):
        doc["params"][name] = value

    return edit


def _drop_a_map(doc):
    doc["params"]["maps"].pop()


def _drop_a_bin_output(doc):
    doc["params"]["outputs"].pop()


def _nest_bins(doc):
    for name in ("edges", "outputs"):
        doc["params"][name] = [[v] for v in doc["params"][name]]


def _reverse_edges(doc):
    doc["params"]["edges"].reverse()


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        ("pts", _pts_input_width_5, "input_width 5 does not match the first layer's width 10"),
        ("pts", _pts_wide_output, "the last layer must have width 1, got 2"),
        ("pts", _pts_unchained, "layer shapes do not chain: [(10, 5), (4, 5), (5, 1)]"),
        ("pts", _pts_short_bias, "each layer needs a weight matrix and one bias per output unit"),
        ("pts", _set_param("t_min", -5.0), "t_min must be positive, got -5.0"),
        ("irova", _drop_a_map, "9 isotonic maps for 10 classes"),
        ("irova_ts", _drop_a_map, "9 isotonic maps for 10 classes"),
        ("histbin", _drop_a_bin_output, "9 bin outputs for 9 internal edges"),
        ("pbmc", _drop_a_bin_output, "9 bin outputs for 9 internal edges"),
        ("histbin", _nest_bins, "bin edges and outputs must be 1-D, got shapes (9, 1) and (10, 1)"),
        ("pbmc", _nest_bins, "bin edges and outputs must be 1-D, got shapes (9, 1) and (10, 1)"),
        ("histbin", _reverse_edges, "bin edges must be strictly increasing"),
        ("pbmc", _reverse_edges, "bin edges must be strictly increasing"),
        ("pbmc", _set_param("temperature", -1.0), "temperature must be positive, got -1.0"),
        ("irm", _set_param("strictness", -1.0), "strictness must be positive, got -1.0"),
        ("irm", _set_param("strictness", "x"), "'>' not supported"),
        ("ts", _set_param("temperature", float("nan")), "a parameter is null or not a finite double"),
        ("ets", _set_param("weights", [0.5, 0.5, None]), "a parameter is null or not a finite double"),
        ("pbmc", _set_param("temperature", 10**400), "a parameter is null or not a finite double"),
        ("histbin", _set_param("outputs", [{}] * 10), "float() argument must be a string or a real number, not 'dict'"),
    ],
    ids=[
        "pts_input_width",
        "pts_output_width",
        "pts_unchained",
        "pts_short_bias",
        "pts_negative_t_min",
        "irova_map_count",
        "irova_ts_map_count",
        "histbin_output_count",
        "pbmc_output_count",
        "histbin_nested_bins",
        "pbmc_nested_bins",
        "histbin_descending_edges",
        "pbmc_descending_edges",
        "pbmc_negative_temperature",
        "irm_negative_strictness",
        "irm_text_strictness",
        "ts_nan_temperature",
        "ets_null_weight",
        "pbmc_huge_temperature",
        "histbin_dict_output",
    ],
)
@pytest.mark.parametrize("command", ["apply", "eval"])
def test_cli_model_with_inconsistent_params_exit_2(tmp_path, capsys, kind, edit, message, command):
    val, test = write_sets(tmp_path, n=100)
    model = tmp_path / "m.json"
    assert main(["fit", "--method", kind, "--val", val, "--out", str(model), "--steps", "5"]) == 0
    doc = json.loads(model.read_text())
    edit(doc)
    model.write_text(json.dumps(doc))
    assert main([command, "--model", str(model), "--test", test, "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys, f"data error: {model}: malformed {kind} model: {message}")


@pytest.mark.parametrize("depth", [900, 100_000])
@pytest.mark.parametrize("command", ["apply", "eval"])
def test_cli_model_nested_too_deep_exit_2(tmp_path, capsys, depth, command):
    _, test = write_sets(tmp_path, n=50)
    model = tmp_path / "m.json"
    nested = "[" * depth + "1" + "]" * depth
    model.write_text('{"kind":"ts","version":1,"num_classes":10,"params":{"temperature":' + nested + "}}")
    assert main([command, "--model", str(model), "--test", test, "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys, f"data error: {model}: ")


# sha256 of the model files of seeded fits ("kind" or "kind-loss"). The first
# five were recorded before pav and the TS likelihood were optimised, the rest
# before ets and irova_ts started sharing one TS fit; none of these changes
# may move a model by a bit.
GOLDEN_MODEL_FILES = {
    "ts": "9c1c2d21db3ad497e6a02ea9f2d40f2b53de8db84b68591f6a5f497e35f2c044",
    "irova": "a114c69c0357e49da941227004f82b611031846c9b08e1a057f0cc0a7a3ee40a",
    "irm": "912b2e872971bb2ce370351d1e39f558c1adc1e272f2c325f36dd93d682c04cb",
    "irova_ts": "9bcfcae70702651f06b009d80c0b37693d56af25287aefa82160ea5a3372d4e4",
    "pbmc": "c0e1dc90023482cbdfc46559df3beb3fe6a83c25c532666540cbfae74bfabb70",
    "ets-mse": "09dd69ca7238ebe4870048bd17b4a3a1d502b252bfb58c376a6dac0907092c3f",
    "ets-ece": "1b138d0856e2aafbc5cad9b2a06abd6387c8aeaa0fa2b69d5d3e0264e3cb29a3",
    "histbin": "74a23a08928a29b1beb7fbe1632784ef1d69cb4dcede03ce54582b6535f14e74",
}


@pytest.fixture(scope="module")
def golden_fit_set():
    return generate(SynthConfig(num_samples=2000, regime="heteroscedastic", seed=17))


@pytest.mark.parametrize("kind", sorted(GOLDEN_MODEL_FILES))
def test_model_file_matches_golden_hash(tmp_path, golden_fit_set, kind):
    path = tmp_path / "m.json"
    method, _, loss = kind.partition("-")
    save_model(fit_method(method, golden_fit_set, seed=17, num_bins=10, loss=loss or None), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MODEL_FILES[kind]


def sha256_of(*paths):
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def test_compare_report_matches_golden_hash(tmp_path):
    """Criterion 11's compare, hashed. Recorded again when PTS training
    switched to numpy's own sums, which moved the last digit of pts's
    ece_kde; ts, ets and irova_ts sharing one TS fit kept it bitwise."""
    val, test = tmp_path / "val.csv", tmp_path / "test.csv"
    write_logits(generate(SynthConfig(num_samples=600, regime="heteroscedastic", seed=17)), val)
    write_logits(generate(SynthConfig(num_samples=600, regime="heteroscedastic", seed=18)), test)
    out = tmp_path / "r.json"
    methods = "ts,ets,pts,histbin,irova,irm,irova_ts,pbmc"
    argv = ["compare", "--methods", methods, "--val", str(val), "--test", str(test), "--out", str(out)]
    assert main(argv + ["--seed", "17", "--steps", "200"]) == 0
    assert sha256_of(out) == "f1ca8b29af88dd42c9e93da4251ded8a90f47cf61d9f76cb41d76c74bd70782f"


# sha256 of each experiment's CSV then JSON table, at the flags' defaults,
# 500-row sets and 50 PTS steps; recorded before the runners moved behind one
# table and one fit loop. capacity was recorded again when PTS training
# switched to numpy's own sums, which moved its two pts rows in the last digit.
GOLDEN_EXPERIMENT_TABLES = {
    "capacity": (
        "method,hidden_width,num_parameters,test_ece",
        6,
        "5d4a7f9145dcb9e18603975d14615030a435224a0bfef587a6cc93942a04147d",
    ),
    "bins": ("method,num_bins,test_ece", 24, "cb6d1df545239c691f03dcdfe3017212d01369392dc750ce6c0961074367d50b"),
    "data_efficiency": (
        "method,fraction,num_fit_samples,test_ece",
        40,
        "4904f52d9b9d8d9c0809e77058d705e2ae02edff6c49e6bd436b8a1250d5a160",
    ),
    "loss_ablation": ("method,loss,test_ece", 4, "879e298b0fe27b2fbc901ca731a0a268257c295d5dd8beb1f3ce24f9f0e505cb"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENT_TABLES))
def test_cli_experiment_runs_and_matches_golden_hash(tmp_path, small_experiments, name):
    header, num_rows, digest = GOLDEN_EXPERIMENT_TABLES[name]
    out = tmp_path / "exp"
    assert main(["experiment", name, "--out", str(out), "--steps", "50"]) == 0
    csv_lines = (out / f"{name}.csv").read_text().splitlines()
    assert csv_lines[0] == header and len(csv_lines) == num_rows + 1
    assert len(json.loads((out / f"{name}.json").read_text())["rows"]) == num_rows
    assert sha256_of(out / f"{name}.csv", out / f"{name}.json") == digest


def counting(fd, fit):
    """fit, appending one byte to fd at each call, in one O_APPEND write, so
    that calls in forked workers are counted too."""
    return lambda *args: os.write(fd, b".") and fit(*args)


def test_golden_outputs_under_forced_workers(tmp_path, force_workers, small_experiments):
    """The compare report, the experiment tables and the model files of the
    tests above, with every fit-and-score item, CSV read, ETS-ECE search and
    KDE estimate forked whenever it can be: the same bytes at 1, 2 and 3 workers."""
    val, test = tmp_path / "val.csv", tmp_path / "test.csv"
    write_logits(generate(SynthConfig(num_samples=600, regime="heteroscedastic", seed=17)), val)
    write_logits(generate(SynthConfig(num_samples=600, regime="heteroscedastic", seed=18)), test)
    methods = "ts,ets,pts,histbin,irova,irm,irova_ts,pbmc"
    compare = ["compare", "--methods", methods, "--val", str(val), "--test", str(test), "--seed", "17", "--steps", "200"]
    fit_set = generate(SynthConfig(num_samples=2000, regime="heteroscedastic", seed=17))
    for cpus in (1, 2, 3):
        forks = force_workers(cpus)
        out = tmp_path / f"{cpus}"
        out.mkdir()
        assert main(compare + ["--out", str(out / "r.json")]) == 0
        assert sha256_of(out / "r.json") == "f1ca8b29af88dd42c9e93da4251ded8a90f47cf61d9f76cb41d76c74bd70782f"
        for name, (_, _, digest) in GOLDEN_EXPERIMENT_TABLES.items():
            assert main(["experiment", name, "--out", str(out), "--steps", "50"]) == 0
            assert sha256_of(out / f"{name}.csv", out / f"{name}.json") == digest, name
        for kind, digest in GOLDEN_MODEL_FILES.items():
            method, _, loss = kind.partition("-")
            save_model(fit_method(method, fit_set, seed=17, num_bins=10, loss=loss or None), out / "m.json")
            assert sha256_of(out / "m.json") == digest, kind
        assert (len(forks) > 0) == (cpus > 1)


@pytest.mark.parametrize("command", ["compare", "loss_ablation"])
def test_compare_fits_ts_once_for_every_method_built_on_it(tmp_path, monkeypatch, small_experiments, force_workers, command):
    """Counted over this process and every worker, at 1, 2 and 3 forced workers."""
    counts = tmp_path / "calls"
    fd = os.open(counts, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
    for module in (experiments, calibkit.binning, calibkit.scaling):
        monkeypatch.setattr(module, "fit_ts", counting(fd, fit_ts))
    val, test = write_sets(tmp_path, n=100)
    argv = {
        "compare": ["compare", "--methods", "ts,ets,irova_ts", "--val", val, "--test", test],
        # ets once per loss: mse, then ece
        "loss_ablation": ["experiment", "loss_ablation", "--steps", "5", "--out", str(tmp_path)],
    }[command]
    try:
        for cpus in (1, 2, 3):
            force_workers(cpus)
            before = counts.stat().st_size
            assert main(argv) == 0
            assert counts.stat().st_size - before == 1
    finally:
        os.close(fd)


def test_loss_ablation_fits_a_method_without_a_loss_once(tmp_path, monkeypatch, small_experiments, force_workers):
    """Counted over this process and every worker, at 1, 2 and 3 forced workers."""
    counts = tmp_path / "calls"
    fd = os.open(counts, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
    monkeypatch.setattr(experiments, "fit_irova", counting(fd, fit_irova))
    argv = ["experiment", "loss_ablation", "--methods", "irova,ets", "--losses", "mse,ece", "--out", str(tmp_path)]
    try:
        for cpus in (1, 2, 3):
            force_workers(cpus)
            before = counts.stat().st_size
            assert main(argv) == 0
            assert counts.stat().st_size - before == 1
            rows = json.loads((tmp_path / "loss_ablation.json").read_text())["rows"]
            pairs = [(r["method"], r["loss"]) for r in rows]
            assert pairs == [("irova", "mse"), ("irova", "ece"), ("ets", "mse"), ("ets", "ece")]
            assert rows[0]["test_ece"] == rows[1]["test_ece"]
    finally:
        os.close(fd)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "case,code,prefix",
    [
        ("overflow", 3, "numerical failure: "),  # pbmc's temperature search overflows
        ("too_few_rows", 2, "data error: "),  # pbmc cannot split 29 rows into its folds
    ],
)
def test_cli_compare_error_in_a_fit_and_score_item(tmp_path, capfd, force_workers, cpus, case, code, prefix):
    """capfd sees what a worker writes to stderr, too."""
    test = tmp_path / "test.csv"
    write_logits(generate(SynthConfig(num_samples=200, num_classes=4, regime="global_temp", seed=51)), test)
    val = tmp_path / "val.csv"
    if case == "overflow":
        rng = np.random.default_rng(0)
        write_logits(Dataset(labels=rng.integers(0, 4, size=200), logits=rng.normal(size=(200, 4)) * 1e307), val)
    else:
        write_logits(generate(SynthConfig(num_samples=29, num_classes=4, regime="global_temp", seed=50)), val)
    force_workers(cpus)
    argv = ["compare", "--methods", "histbin,irova,pbmc,irm", "--val", str(val), "--test", str(test)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print more stderr lines
        assert main(argv) == code
    assert one_error_line(capfd, prefix)


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_compare_prints_a_fitter_warning_once(tmp_path, capfd, monkeypatch, force_workers, cpus):
    """capfd sees what a worker writes to stderr, too."""
    def warning_irova(ds):
        warnings.warn("irova warns")
        return fit_irova(ds)

    monkeypatch.setattr(experiments, "fit_irova", warning_irova)
    val, test = write_sets(tmp_path, n=300)
    force_workers(cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning issued twice would print twice
        assert main(["compare", "--methods", "histbin,irova,irm,ts", "--val", val, "--test", test]) == 0
    printed = capfd.readouterr()
    assert printed.err == "warning: irova warns\n"
    assert set(json.loads(printed.out)["methods"]) == {"base", "histbin", "irova", "irm", "ts"}


@pytest.mark.parametrize(
    "flags",
    [
        ["loss_ablation"],
        ["data_efficiency", "--methods", "histbin,pbmc,pts", "--fractions", "1"],
    ],
    ids=" ".join,
)
def test_cli_experiment_gives_the_first_bin_count_to_every_fitter(tmp_path, monkeypatch, small_experiments, flags):
    seen = []

    def spy(kind, fit, bins_of):
        return lambda *args, **kwargs: seen.append((kind, bins_of(*args, **kwargs))) or fit(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit_ets", spy("ets", fit_ets, lambda ds, ts, loss, num_bins: num_bins))
    monkeypatch.setattr(experiments, "fit_pts", spy("pts", fit_pts, lambda ds, cfg: cfg.num_bins))
    monkeypatch.setattr(experiments, "fit_hist_binning", spy("histbin", fit_hist_binning, lambda ds, bins: bins))
    monkeypatch.setattr(experiments, "fit_pbmc", spy("pbmc", fit_pbmc, lambda ds, num_bins, seed: num_bins))
    assert main(["experiment", *flags, "--bins", "15", "--steps", "5", "--out", str(tmp_path)]) == 0
    assert seen and {bins for _, bins in seen} == {15}
    assert {kind for kind, _ in seen} == ({"ets", "pts"} if flags[0] == "loss_ablation" else {"histbin", "pbmc", "pts"})


def test_ets_and_irova_ts_start_from_the_given_ts_fit():
    ds = small_dataset()
    ts = TsModel(temperature=1.7, num_classes=ds.num_classes)
    assert fit_ets(ds, ts).temperature == 1.7
    assert fit_irova_ts(ds, ts).ts is ts


@pytest.mark.parametrize(
    "flags",
    [
        ["data_efficiency", "--methods", "nope"],
        ["loss_ablation", "--methods", "ets,nope"],
        ["data_efficiency", "--fractions", "0"],
        ["data_efficiency", "--fractions", "0.5,-1"],
        ["data_efficiency", "--fractions", "1:0:0"],
        ["data_efficiency", "--fractions", "1.5"],
        ["data_efficiency", "--fractions", "0.5:1.5:0.5"],
        ["data_efficiency", "--fractions", "nan"],
        ["data_efficiency", "--fractions", "0.1:1:1e-6"],  # 900 001 values
        ["data_efficiency", "--fractions", "0.001:1:0.000999"],  # 1 001 values
        ["data_efficiency", "--fractions", "0.00001,1"],  # no row of the validation set
        ["loss_ablation", "--methods", "ts,histbin", "--losses", "mse,hinge"],
        ["loss_ablation", "--methods", ","],
    ],
    ids=" ".join,
)
def test_cli_experiment_rejects_bad_flags_before_generating_data(tmp_path, capsys, monkeypatch, flags):
    def no_data(config):
        raise AssertionError("data generated before the flags were checked")

    monkeypatch.setattr(experiments, "generate", no_data)
    out = tmp_path / "exp"
    assert main(["experiment", *flags, "--out", str(out)]) == 1
    assert one_error_line(capsys, "error: ")
    assert not out.exists()


@pytest.mark.parametrize("text,fractions", [("0.1:0.95:0.3", [0.1, 0.4, 0.7]), ("0.5:0.99:0.3", [0.5, 0.8])])
def test_cli_fraction_range_ends_at_its_last_value_up_to_stop(text, fractions):
    args = build_parser().parse_args(["experiment", "data_efficiency", "--out", "x", "--fractions", text])
    assert args.fractions == fractions


def test_cli_fraction_range_of_1000_values_is_accepted():
    args = build_parser().parse_args(["experiment", "data_efficiency", "--out", "x", "--fractions", "0.001:1:0.001"])
    assert len(args.fractions) == 1000 and args.fractions[-1] == 1.0


def test_cli_prints_a_warning_as_one_line_and_exits_0(tmp_path, capsys):
    val = tmp_path / "one_class.csv"
    logits = np.random.default_rng(0).normal(size=(20, 3))
    write_logits(Dataset(labels=np.zeros(20, dtype=int), logits=logits), val)
    assert main(["fit", "--method", "ts", "--val", str(val), "--out", str(tmp_path / "m.json")]) == 0
    err = capsys.readouterr().err
    assert err == "warning: dataset contains a single class; temperature fit is degenerate\n"
    assert (tmp_path / "m.json").exists()


def test_cli_experiment_bins_honours_an_explicit_bin_count(tmp_path, small_experiments):
    out = tmp_path / "exp"
    assert main(["experiment", "bins", "--bins", "10", "--out", str(out), "--steps", "50"]) == 0
    rows = json.loads((out / "bins.json").read_text())["rows"]
    assert [(r["method"], r["num_bins"]) for r in rows] == [("ts", 10), ("ets", 10), ("pts", 10)]


@pytest.mark.parametrize("rows,bins", [(9, "10"), (14, "15"), (5, "5"), (20, "30,5")])
@pytest.mark.parametrize("command", ["eval", "compare"])
def test_cli_report_on_too_few_test_rows_exit_2(tmp_path, capsys, monkeypatch, command, rows, bins):
    val, _ = write_sets(tmp_path, n=100)
    model = tmp_path / "m.json"
    assert main(["fit", "--method", "ts", "--val", val, "--out", str(model)]) == 0
    test = tmp_path / "small.csv"
    write_logits(small_dataset(n=rows), test)
    monkeypatch.setattr(experiments, "fit_ts", lambda ds: pytest.fail("fitted before the test set was checked"))
    source = ["--model", str(model)] if command == "eval" else ["--methods", "ts", "--val", val]
    out = tmp_path / "report.json"
    assert main([command, *source, "--test", str(test), "--bins", bins, "--out", str(out)]) == 2
    assert one_error_line(capsys, f"data error: {test}: a report with {bins.split(',')[0]} bins needs ")
    assert not out.exists()


@pytest.mark.parametrize("rows,bins", [(10, "10"), (15, "15"), (10, "5")])
def test_cli_eval_on_just_enough_test_rows(tmp_path, rows, bins):
    val, _ = write_sets(tmp_path, n=100)
    model = tmp_path / "m.json"
    assert main(["fit", "--method", "ts", "--val", val, "--out", str(model)]) == 0
    test = tmp_path / "small.csv"
    write_logits(small_dataset(n=rows), test)
    assert main(["eval", "--model", str(model), "--test", str(test), "--bins", bins, "--out", str(tmp_path / "r")]) == 0


def test_cli_compare_on_sets_of_different_class_counts_exit_2(tmp_path, capsys):
    val, _ = write_sets(tmp_path, n=50)
    test = tmp_path / "test3.csv"
    write_logits(generate(SynthConfig(num_samples=30, num_classes=3, seed=52)), test)
    assert main(["compare", "--methods", "ts,irova_ts", "--val", val, "--test", str(test)]) == 2
    assert one_error_line(capsys, f"data error: {test}: 3 classes, but {val} has 10")


def test_cli_experiment_out_on_a_file_exit_2_before_generating_data(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "generate", lambda config: pytest.fail("data generated before --out was made"))
    out = tmp_path / "exp"
    out.write_text("")
    assert main(["experiment", "loss_ablation", "--methods", "ets", "--out", str(out)]) == 2
    assert one_error_line(capsys, "data error: ")


def test_cli_out_in_a_missing_directory_names_the_given_path(tmp_path, capsys):
    val, _ = write_sets(tmp_path, n=50)
    out = tmp_path / "missing" / "m.json"
    assert main(["fit", "--method", "ts", "--val", val, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: ")
    assert err.rstrip().endswith(f"'{out}'") and ".tmp" not in err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_umask_mode(tmp_path, umask, mode):
    path = tmp_path / "z.csv"
    old = os.umask(umask)
    try:
        write_logits(small_dataset(n=5), path)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        path.chmod(0o640)
        write_logits(small_dataset(n=5), path)  # replacing a file creates it afresh too
        assert stat.S_IMODE(path.stat().st_mode) == mode
    finally:
        os.umask(old)
    assert [p.name for p in tmp_path.iterdir()] == ["z.csv"]
