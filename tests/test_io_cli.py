import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from calibkit.binning import fit_hist_binning, fit_irm, fit_irova, fit_irova_ts, fit_pbmc
from calibkit.cli import main
from calibkit.core import Dataset
from calibkit.errors import DataFormatError
from calibkit.io_files import (
    canonical_json,
    load_model,
    model_from_dict,
    model_to_dict,
    read_logits,
    save_model,
    write_logits,
)
from calibkit.scaling import EtsModel, PtsTrainConfig, TsModel, fit_ets, fit_pts, fit_ts, pts_constant_model
from calibkit.synth import SynthConfig, generate


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
        fit_ets(ds),
        fit_pts(ds, PtsTrainConfig(steps=50, seed=1)),
        fit_hist_binning(ds, 5),
        fit_irova(ds),
        fit_irm(ds),
        fit_irova_ts(ds),
        fit_pbmc(ds, num_bins=5, seed=1),
    ]


def test_model_round_trips_all_kinds(tmp_path):
    ds = small_dataset()
    probe = small_dataset(seed=43).logits
    for model in all_models(ds):
        path = tmp_path / "model.json"
        save_model(model, path, num_classes=ds.num_classes)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert np.allclose(loaded.apply_probs(probe), model.apply_probs(probe), atol=1e-15)


def test_model_dict_round_trip_is_stable():
    ds = small_dataset()
    for model in all_models(ds):
        doc = model_to_dict(model, num_classes=ds.num_classes)
        again = model_to_dict(model_from_dict(doc), num_classes=ds.num_classes)
        assert canonical_json(doc) == canonical_json(again)


def test_load_model_rejects_malformed(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json")
    with pytest.raises(DataFormatError):
        load_model(path)
    path.write_text('{"kind":"nope","version":1,"num_classes":2,"params":{}}')
    with pytest.raises(DataFormatError, match="kind"):
        load_model(path)
    path.write_text('{"kind":"ts","version":99,"num_classes":2,"params":{"temperature":1.0}}')
    with pytest.raises(DataFormatError, match="version"):
        load_model(path)
    path.write_text('{"kind":"ts","version":1,"num_classes":2,"params":{}}')
    with pytest.raises(DataFormatError, match="malformed"):
        load_model(path)


def write_sets(tmp_path, n=400):
    val_path, test_path = tmp_path / "val.csv", tmp_path / "test.csv"
    write_logits(generate(SynthConfig(num_samples=n, regime="global_temp", seed=50)), val_path)
    write_logits(generate(SynthConfig(num_samples=n, regime="global_temp", seed=51)), test_path)
    return str(val_path), str(test_path)


def test_cli_fit_apply_eval_pipeline(tmp_path):
    val, test = write_sets(tmp_path)
    model = str(tmp_path / "ts.json")
    assert main(["fit", "--method", "ts", "--val", val, "--out", model]) == 0
    assert load_model(model).temperature > 1.5

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
    assert load_model(model).config.steps == 50


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


def test_cli_experiment_loss_ablation_writes_tables(tmp_path, monkeypatch):
    import calibkit.experiments as experiments

    monkeypatch.setattr(experiments, "EXPERIMENT_VAL_SIZE", 500)
    monkeypatch.setattr(experiments, "EXPERIMENT_TEST_SIZE", 500)
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
        "ts": TsModel(temperature=0.01),
        "ets": EtsModel(temperature=0.01, weights=(0.5, 0.3, 0.2), num_classes=4),
        "pts": pts_constant_model(0.02, num_classes=4),
        "irova_ts": replace(fit_irova_ts(val), ts=TsModel(temperature=0.01)),
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
    save_model(overflowing_models(val)[kind], model, num_classes=4)
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
