"""Span tracing for the benchmark's traced runs, and the per-layer metrics
computed from the spans.

Each layer function is wrapped at the module attribute its caller looks up at
call time (for example ``calibkit.scaling.forward_batch`` or
``calibkit.experiments.ece_kde``), so calibkit's own code stays unchanged.
Wrappers are installed only around traced ops and removed after them, so an
untraced op runs the original functions. Spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

# (module whose attribute the caller looks up, attribute, span name)
PATCHES = (
    ("calibkit.cli", "read_logits", "io_files.read_logits"),
    ("calibkit.cli", "load_model", "io_files.load_model"),
    ("calibkit.cli", "save_model", "io_files.save_model"),
    ("calibkit.cli", "write_json", "io_files.write_json"),
    ("calibkit.cli", "write_text_atomic", "io_files.write_text_atomic"),
    ("calibkit.io_files", "write_text_atomic", "io_files.write_text_atomic"),
    ("calibkit.experiments", "fit_method", "experiments.fit_method"),
    ("calibkit.experiments", "run_compare", "experiments.run_compare"),
    ("calibkit.experiments", "evaluate_model", "experiments.evaluate_model"),
    ("calibkit.experiments", "evaluate_probs", "experiments.evaluate_probs"),
    ("calibkit.experiments", "ece", "metrics.ece"),
    ("calibkit.experiments", "ece_equal_mass", "metrics.ece_equal_mass"),
    ("calibkit.experiments", "ece_kde", "metrics.ece_kde"),
    ("calibkit.experiments", "accuracy", "metrics.accuracy"),
    ("calibkit.experiments", "nll", "metrics.nll"),
    ("calibkit.experiments", "reliability_data", "metrics.reliability_data"),
    ("calibkit.experiments", "fit_ts", "scaling.fit_ts"),
    ("calibkit.experiments", "fit_ets", "scaling.fit_ets"),
    ("calibkit.experiments", "fit_pts", "scaling.fit_pts"),
    ("calibkit.experiments", "fit_hist_binning", "binning.fit_hist_binning"),
    ("calibkit.experiments", "fit_irova", "binning.fit_irova"),
    ("calibkit.experiments", "fit_irm", "binning.fit_irm"),
    ("calibkit.experiments", "fit_irova_ts", "binning.fit_irova_ts"),
    ("calibkit.experiments", "fit_pbmc", "binning.fit_pbmc"),
    ("calibkit.binning", "fit_ts", "scaling.fit_ts"),
    ("calibkit.binning", "pav", "binning.pav"),
    ("calibkit.scaling", "fit_ts", "scaling.fit_ts"),
    ("calibkit.scaling", "_nll_at_temperature", "scaling._nll_at_temperature"),
    ("calibkit.scaling", "apply_pts", "scaling.apply_pts"),
    ("calibkit.scaling", "sorted_topk_matrix", "core.sorted_topk_matrix"),
    ("calibkit.scaling", "softmax", "core.softmax"),
    ("calibkit.scaling", "init_mlp", "tinynn.init_mlp"),
    ("calibkit.scaling", "adam_init", "tinynn.adam_init"),
    ("calibkit.scaling", "forward_batch", "tinynn.forward_batch"),
    ("calibkit.scaling", "backward_batch", "tinynn.backward_batch"),
    ("calibkit.scaling", "adam_step", "tinynn.adam_step"),
    ("calibkit.scaling", "_recenter_biases", "scaling._recenter_biases"),
    ("calibkit.scaling", "_resuscitate_dead_units", "scaling._resuscitate_dead_units"),
    ("calibkit.scaling", "_pts_q_batch", "scaling._pts_q_batch"),
    ("calibkit.scaling", "_pts_backward_q", "scaling._pts_backward_q"),
    ("calibkit.scaling", "_ece_loss_and_dq", "scaling._ece_loss_and_dq"),
)
# cli.main dispatches through this dict, so its entries are the command spans.
CLI_COMMANDS = ("fit", "apply", "eval", "compare")

# Parts of one PTS training step, reported in microseconds per step:
# (metric, span name, take self time instead of total time).
STEP_PARTS = (
    ("scaling._pts_q_batch.self_us", "scaling._pts_q_batch", True),
    ("tinynn.forward_batch.us", "tinynn.forward_batch", False),
    ("core.softmax.us", "core.softmax", False),
    ("scaling._ece_loss_and_dq.us", "scaling._ece_loss_and_dq", False),
    ("tinynn.backward_batch.us", "tinynn.backward_batch", False),
    ("scaling._pts_backward_q.self_us", "scaling._pts_backward_q", True),
    ("tinynn.adam_step.us", "tinynn.adam_step", False),
)
# Seconds per op spent in each of these spans.
SECONDS_PER_OP = (
    "io_files.read_logits",
    "io_files.write_text_atomic",
    "scaling.apply_pts",
    "core.sorted_topk_matrix",
    "metrics.ece_kde",
    "metrics.ece",
    "metrics.ece_equal_mass",
    "metrics.nll",
    "binning.pav",
    "binning.fit_hist_binning",
    "binning.fit_irova",
    "binning.fit_irm",
    "binning.fit_irova_ts",
    "binning.fit_pbmc",
    "scaling.fit_ts",
    "scaling.fit_ets",
    "experiments.evaluate_probs",
)

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "scaling.pts_step_us": ("us", "lower"),
    "scaling.fit_pts.self_us_per_step": ("us", "lower"),
    **{metric: ("us", "lower") for metric, _, _ in STEP_PARTS},
    "scaling.fit_pts.steps": ("count", "lower"),
    "scaling._resuscitate_dead_units.calls": ("count", "lower"),
    "scaling._resuscitate_dead_units.ms": ("ms", "lower"),
    **{f"{name}.s": ("s", "lower") for name in SECONDS_PER_OP},
    "io_files.read_logits.mb_per_s": ("MB/s", "higher"),
    "cli.cmd_apply.self_s": ("s", "lower"),
    "binning.pav.calls": ("count", "lower"),
    "binning.pav.points_in": ("count", "lower"),
    "binning.pav.blocks_out": ("count", "lower"),
    "scaling.fit_ts.nll_evals": ("count", "lower"),
}

# span record fields
OP, NAME, START, END, PARENT = range(5)


class Tracer:
    """Records spans (op, name, start, end, parent index) in memory.

    The fields are kept in flat lists of numbers and strings, so recording a
    span allocates no container the garbage collector has to traverse.
    """

    def __init__(self):
        self.ops: list[int] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.bytes_read: dict[int, int] = {}  # read_logits span -> file size
        self.pav_runs: dict[int, tuple[int, np.ndarray]] = {}  # pav span -> (points, fit)
        self._saved: list[tuple[dict, str, object]] = []  # (namespace, key, original)

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self.ops, self.names, self.starts, self.ends, self.parents))

    def wrap(self, name: str, fn):
        ops, names, starts, ends, parents = self.ops, self.names, self.starts, self.ends, self.parents
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ops.append(self.op)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name == "io_files.read_logits":

            def traced_read(path, *args, **kwargs):
                self.bytes_read[len(starts)] = os.path.getsize(path)
                return traced(path, *args, **kwargs)

            return traced_read
        if name == "binning.pav":

            def traced_pav(xs, ys, *args, **kwargs):
                idx = len(starts)
                fit = traced(xs, ys, *args, **kwargs)
                self.pav_runs[idx] = (len(ys), fit)
                return fit

            return traced_pav
        return traced

    def install(self, op: int) -> None:
        self.op = op
        commands = importlib.import_module("calibkit.cli").COMMANDS
        targets = [(commands, name, f"cli.cmd_{name}") for name in CLI_COMMANDS]
        targets += [(vars(importlib.import_module(m)), attr, span) for m, attr, span in PATCHES]
        for table, key, span in targets:
            self._saved.append((table, key, table[key]))
            table[key] = self.wrap(span, table[key])

    def uninstall(self) -> None:
        for table, key, original in reversed(self._saved):
            table[key] = original
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _children(spans: list[tuple]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append(i)
    return kids


def _dur(rec) -> float:
    return rec[END] - rec[START]


def _subtree(kids, root: int):
    todo = [root]
    while todo:
        i = todo.pop()
        yield i
        todo.extend(kids[i])


def _step_split(spans, kids, fit_spans: list[int]) -> dict:
    """Per-step split of every fit_pts training loop in one op.

    The loop runs from the end of adam_init to the end of the last adam_step.
    Resuscitation is reported on its own and left out of the step time; the
    loop's own time (gather, RNG, bookkeeping) is what no child span covers.
    """
    steps = 0
    loop_s = 0.0
    loop_self_s = 0.0
    resus_calls = 0
    resus_s = 0.0
    parts = {metric: 0.0 for metric, _, _ in STEP_PARTS}
    for f in fit_spans:
        direct = kids[f]
        inits = [k for k in direct if spans[k][NAME] == "tinynn.adam_init"]
        adams = [k for k in direct if spans[k][NAME] == "tinynn.adam_step"]
        if not inits or not adams:
            continue
        begin, end = spans[inits[-1]][END], spans[adams[-1]][END]
        in_loop = [k for k in direct if spans[k][START] >= begin]
        resus = [k for k in in_loop if spans[k][NAME] == "scaling._resuscitate_dead_units"]
        work = [k for k in in_loop if spans[k][NAME] != "scaling._resuscitate_dead_units"]
        steps += len(adams)
        resus_calls += len(resus)
        resus_s += sum(_dur(spans[k]) for k in resus)
        loop_s += (end - begin) - sum(_dur(spans[k]) for k in resus)
        loop_self_s += (end - begin) - sum(_dur(spans[k]) for k in in_loop)
        for k in work:
            for i in _subtree(kids, k):
                for metric, name, self_only in STEP_PARTS:
                    if spans[i][NAME] == name:
                        d = _dur(spans[i])
                        if self_only:
                            d -= sum(_dur(spans[c]) for c in kids[i])
                        parts[metric] += d
    per_step = 1e6 / steps if steps else 0.0
    out = {
        "scaling.pts_step_us": loop_s * per_step,
        "scaling.fit_pts.self_us_per_step": loop_self_s * per_step,
        **{metric: total * per_step for metric, total in parts.items()},
        "scaling.fit_pts.steps": steps,
        "scaling._resuscitate_dead_units.calls": resus_calls,
        "scaling._resuscitate_dead_units.ms": resus_s * 1e3,
    }
    return out


def op_layer_metrics(tracer: Tracer, op: int) -> dict:
    """Per-layer metrics of one traced op."""
    spans = tracer.spans
    idx = [i for i, rec in enumerate(spans) if rec[OP] == op]
    kids = _children(spans)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in idx:
        name = spans[i][NAME]
        d = _dur(spans[i])
        total[name] = total.get(name, 0.0) + d
        self_time[name] = self_time.get(name, 0.0) + d - sum(_dur(spans[c]) for c in kids[i])
        calls[name] = calls.get(name, 0) + 1
    out = _step_split(spans, kids, [i for i in idx if spans[i][NAME] == "scaling.fit_pts"])
    for name in SECONDS_PER_OP:
        out[f"{name}.s"] = total.get(name, 0.0)
    read_s = total.get("io_files.read_logits", 0.0)
    read_bytes = sum(b for i, b in tracer.bytes_read.items() if spans[i][OP] == op)
    out["io_files.read_logits.mb_per_s"] = read_bytes / read_s / 1e6 if read_s else 0.0
    out["cli.cmd_apply.self_s"] = self_time.get("cli.cmd_apply", 0.0)
    pav = [run for i, run in tracer.pav_runs.items() if spans[i][OP] == op]
    out["binning.pav.calls"] = len(pav)
    out["binning.pav.points_in"] = sum(points for points, _ in pav)
    # PAV block means strictly increase, so each block starts a new value.
    out["binning.pav.blocks_out"] = sum(
        int(np.count_nonzero(np.diff(fit))) + 1 for _, fit in pav if len(fit)
    )
    out["scaling.fit_ts.nll_evals"] = calls.get("scaling._nll_at_temperature", 0)
    return {name: out[name] for name in LAYER_METRICS}


def step_residual_us(metrics: dict) -> float:
    """Step time minus the sum of its parts; zero up to rounding when the
    spans account for the whole step."""
    parts = sum(metrics[m] for m, _, _ in STEP_PARTS) + metrics["scaling.fit_pts.self_us_per_step"]
    return metrics["scaling.pts_step_us"] - parts


def median_metrics(per_op: list[dict]) -> dict:
    """Median over traced ops; counts take the lower middle value, so they stay exact."""
    return {
        name: (statistics.median_low if unit == "count" else statistics.median)([m[name] for m in per_op])
        for name, (unit, _) in LAYER_METRICS.items()
    }
