"""Command-line surface: fit, apply, eval, compare, experiment.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import experiments
from .core import Predictions
from .errors import DataFormatError, NumericalError
from .metrics import KDE_MIN_SAMPLES
from .io_files import (
    _fmt,
    _fmt_column,
    canonical_json,
    load_model,
    read_logits,
    save_model,
    write_json,
    write_text_atomic,
)
from .scaling import LOSSES, PtsTrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
MAX_FRACTIONS = 1000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(text: str, low: int = 1) -> int:
    try:
        value = int(text)
        if value >= low:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
        if 0.0 < value < math.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")


def _int_list(text: str) -> list[int]:
    values = [_int_at_least(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of positive integers, got {text!r}")
    return values


def _fraction_list(text: str) -> list[float]:
    """Either a comma list (0.1,0.5,1.0) or a start:stop:step range (0.1:1.0:0.1), each in (0, 1]
    and, rounded as synth.split rounds it, at least one row of an experiment's validation set."""
    try:
        if ":" in text:
            start, stop, step = (float(v) for v in text.split(":"))
            count = math.floor((stop - start) / step + 1e-9) + 1  # the values up to stop
            if count > MAX_FRACTIONS:
                raise argparse.ArgumentTypeError(f"a range gives at most {MAX_FRACTIONS} fractions, got {count}")
            values = [round(start + i * step, 12) for i in range(count)]
        else:
            values = [float(v) for v in text.split(",") if v]
    except (ValueError, ArithmeticError):
        values = []
    n = experiments.EXPERIMENT_VAL_SIZE
    if values and all(0.0 < v <= 1.0 and round(v * n) >= 1 for v in values):
        return values
    raise argparse.ArgumentTypeError(f"expected fractions in (0, 1] keeping one of {n} validation rows, got {text!r}")


def _str_list(text: str) -> list[str]:
    values = [v for v in text.split(",") if v]
    if not values or len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of distinct names, got {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="calibkit", description="Post-hoc uncertainty calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--seed", type=lambda text: _int_at_least(text, 0), default=PtsTrainConfig.seed)
        p.add_argument("--bins", type=_int_list, default=[PtsTrainConfig.num_bins], help="comma list of bin counts")
        p.add_argument("--steps", type=_int_at_least, default=PtsTrainConfig.steps)
        p.add_argument("--batch-size", type=_int_at_least, default=PtsTrainConfig.batch_size)
        p.add_argument("--lr", dest="learning_rate", type=_positive_float, default=PtsTrainConfig.learning_rate)
        p.add_argument("--topk", type=_int_at_least, default=PtsTrainConfig.topk)

    p_fit = sub.add_parser("fit", help="fit one calibrator and write a model file")
    p_fit.add_argument("--method", required=True)
    p_fit.add_argument("--val", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--losses", type=_str_list, default=None, help="training loss (single value)")
    add_train_flags(p_fit)

    p_apply = sub.add_parser("apply", help="apply a model file, write calibrated confidences CSV")
    p_apply.add_argument("--model", required=True)
    p_apply.add_argument("--test", required=True)
    p_apply.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a model file on a test set, write a report")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--bins", type=_int_list, default=[10])

    p_cmp = sub.add_parser("compare", help="fit many calibrators on val, evaluate all on test")
    p_cmp.add_argument("--methods", type=_str_list, required=True)
    p_cmp.add_argument("--val", required=True)
    p_cmp.add_argument("--test", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--timings", action="store_true", help="include fit wall times in the report")
    add_train_flags(p_cmp)

    p_exp = sub.add_parser("experiment", help="run a synthetic-oracle experiment")
    p_exp.add_argument("name", choices=experiments.EXPERIMENTS)
    p_exp.add_argument("--out", required=True, help="output directory for CSV + JSON tables")
    p_exp.add_argument("--widths", type=_int_list)
    p_exp.add_argument("--fractions", type=_fraction_list)
    p_exp.add_argument("--losses", type=_str_list)
    p_exp.add_argument("--methods", type=_str_list)
    add_train_flags(p_exp)
    p_exp.set_defaults(bins=None, steps=20_000)  # bins: the experiment's own default unless given

    return parser


def _train_settings(args) -> dict:
    """The PtsTrainConfig fields that the train flags set: the seed and the bin
    count of every fitter, and the PTS training settings."""
    settings = {name: getattr(args, name) for name in ("learning_rate", "batch_size", "steps", "seed", "topk")}
    return settings | {"num_bins": (args.bins or [PtsTrainConfig.num_bins])[0]}


def _emit_report(report: dict, out: str | None) -> None:
    if out:
        write_json(report, out)
    else:
        sys.stdout.write(canonical_json(report) + "\n")


def _write_rows_csv(rows: list[dict], path: Path) -> None:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in (row[h] for h in header)))
    write_text_atomic("\n".join(lines) + "\n", path)


def _check_methods(methods) -> None:
    unknown = [m for m in methods if m not in experiments.CALIBRATORS]
    if unknown:
        raise UsageError(f"unknown calibrator kind(s): {', '.join(unknown)}")


def _check_losses(losses: list[str] | None) -> None:
    """ETS and PTS train only on the losses in scaling.LOSSES."""
    bad = [loss for loss in losses or () if loss not in LOSSES]
    if bad:
        expected = " or ".join(LOSSES)
        raise UsageError(f"unknown training loss(es) for ets and pts: {', '.join(bad)} (expected {expected})")


def cmd_fit(args) -> int:
    _check_methods([args.method])
    if args.method in experiments.LOSS_METHODS:
        _check_losses(args.losses)
    if len(args.losses or ()) > 1:
        raise UsageError(f"fit takes one training loss, got {len(args.losses)}: {','.join(args.losses)}")
    loss = args.losses[0] if args.losses else None
    val = read_logits(args.val)
    model = experiments.fit_method(args.method, val, loss, **_train_settings(args))
    save_model(model, args.out)
    return EXIT_OK


def cmd_apply(args) -> int:
    test = read_logits(args.test)
    model = load_model(args.model, num_classes=test.num_classes)
    probs = model.apply_probs(test.logits)
    preds = Predictions.from_probs(probs, test.labels)
    del probs, test  # the (N, C) arrays: free them before the text is built
    rows = map(",".join, zip(map(str, preds.predicted_class.tolist()), _fmt_column(preds.confidence)))
    write_text_atomic("\n".join(["predicted_class,confidence", *rows]) + "\n", args.out)
    return EXIT_OK


def _read_test(args):
    """The test set, with the rows that a report's equal-mass and KDE estimates need."""
    test = read_logits(args.test)
    need = max(KDE_MIN_SAMPLES, args.bins[0])
    if len(test) < need:
        raise DataFormatError(
            f"{args.test}: a report with {args.bins[0]} bins needs at least {need} rows, got {len(test)}"
        )
    return test


def cmd_eval(args) -> int:
    test = _read_test(args)
    model = load_model(args.model, num_classes=test.num_classes)
    report = {
        "schema_version": 1,
        "num_classes": test.num_classes,
        "bins": list(args.bins),
        "methods": {model.kind: experiments.evaluate_model(model, test, args.bins)},
    }
    _emit_report(report, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_methods(args.methods)
    val = read_logits(args.val)
    test = _read_test(args)
    if test.num_classes != val.num_classes:
        raise DataFormatError(f"{args.test}: {test.num_classes} classes, but {args.val} has {val.num_classes}")
    config = PtsTrainConfig(**_train_settings(args))
    report = experiments.run_compare(args.methods, val, test, args.bins, config, timings=args.timings)
    _emit_report(report, args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_methods(args.methods or ())
    _check_losses(args.losses)  # whatever the methods: the loss ablation labels each row with its loss
    flags = ("widths", "bins", "fractions", "methods", "losses")
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the fits, so that a bad --out costs nothing
    rows = experiments.EXPERIMENTS[args.name](PtsTrainConfig(**_train_settings(args)), **given)
    _write_rows_csv(rows, out_dir / f"{args.name}.csv")
    write_json({"experiment": args.name, "seed": args.seed, "rows": rows}, out_dir / f"{args.name}.json")
    return EXIT_OK


COMMANDS = {
    "fit": cmd_fit,
    "apply": cmd_apply,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
}


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning  # one line per warning, not its source line
        try:
            args = parser.parse_args(argv)
            return COMMANDS[args.command](args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:  # a size flag, such as --batch-size, too large to allocate
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (DataFormatError, OSError) as exc:  # a file that cannot be read or written
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
