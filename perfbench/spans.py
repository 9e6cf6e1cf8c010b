"""Span recording around the public entry points of the ttfun layers.

The wrappers live here, not in the library: `install` replaces each public
function or method at every name a caller looks it up by, records one span
per call and restores the originals on `uninstall`.  Spans are kept in memory
and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time

import numpy as np

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# Each entry is (metric, unit); "calls", "self_s" and work counts are per op.
LAYER_METRICS = [
    ("badic.encode.calls", "count/op"),
    ("badic.encode.self_s", "s/op"),
    ("localspace.legendre_values.calls", "count/op"),
    ("localspace.legendre_values.self_s", "s/op"),
    ("localspace.max_abs.calls", "count/op"),
    ("localspace.max_abs.self_s", "s/op"),
    ("localspace.PolySpace.calls", "count/op"),
    ("localspace.PolySpace.self_s", "s/op"),
    ("tensorized.tensorize.calls", "count/op"),
    ("tensorized.tensorize.self_s", "s/op"),
    ("tensorized.tensorize.cells", "count/op"),
    ("tensorized.rank_profile.calls", "count/op"),
    ("tensorized.rank_profile.self_s", "s/op"),
    ("tensorized.rank_profile.svds", "count/op"),
    ("tensorized.lp_norm_1.self_s", "s/op"),
    ("tensorized.lp_norm_2.self_s", "s/op"),
    ("tensorized.lp_norm_inf.self_s", "s/op"),
    ("tensorized.sobolev_seminorm.self_s", "s/op"),
    ("tensorized.call.self_s", "s/op"),
    ("tensorized.call.points", "count/op"),
    ("tensorized.relevel_up.self_s", "s/op"),
    ("tensorized.relevel_up.elements", "count/op"),
    ("tensorized.io.self_s", "s/op"),
    ("tensorized.io.bytes", "B/op"),
    ("tensorized.max_elements", "count"),
    ("train.tt_svd.calls", "count/op"),
    ("train.tt_svd.self_s", "s/op"),
    ("train.tt_svd.svds", "count/op"),
    ("train.round.calls", "count/op"),
    ("train.round.self_s", "s/op"),
    ("train.extend_level.self_s", "s/op"),
    ("train.add.calls", "count/op"),
    ("train.add.self_s", "s/op"),
    ("train.to_full.self_s", "s/op"),
    ("train.to_full.elements", "count/op"),
    ("train.complexity.calls", "count/op"),
    ("train.complexity.self_s", "s/op"),
    ("train.call.self_s", "s/op"),
    ("train.call.points", "count/op"),
    ("train.cp_call.self_s", "s/op"),
    ("train.cp_call.points", "count/op"),
    ("train.io.self_s", "s/op"),
    ("train.io.bytes", "B/op"),
    ("approx.lemma_corpus.self_s", "s/op"),
    ("approx.error_curve.self_s", "s/op"),
    ("approx.random_train.calls", "count/op"),
    ("cli.main.calls", "count/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.bytes_out", "B/op"),
    ("trace.overhead_frac", "1"),
]


class Recorder:
    """Open-span stack, per-name totals and the raw span list of one run."""

    def __init__(self):
        self.op_id = -1
        self.paused = False
        self.spans = []  # (name, start, end, parent index, op id)
        self.totals = {}  # metric -> summed value
        self.maxima = {}  # metric -> largest value seen
        self._stack = []  # [span index, start, time covered by children]

    def add(self, metric: str, value: float) -> None:
        self.totals[metric] = self.totals.get(metric, 0.0) + value

    def peak(self, metric: str, value: float) -> None:
        self.maxima[metric] = max(self.maxima.get(metric, 0.0), value)

    def span(self, name, fn, work=None):
        """Wrap fn so each call records a span `name` and its self time.

        `work(args, kwargs, result)` returns (metric, value) pairs added to
        the totals when the call returns.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            parent = rec._stack[-1][0] if rec._stack else -1
            index = len(rec.spans)
            rec.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            rec._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                duration = end - frame[1]
                if rec._stack:
                    rec._stack[-1][2] += duration
                rec.spans[index] = (label, frame[1], end, parent, rec.op_id)
                rec.add(label + ".calls", 1)
                rec.add(label + ".self_s", duration - frame[2])
            if work is not None:
                for metric, value in work(args, kwargs, result):
                    rec.add(metric, value)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _lp_name(args):
    p = float(args[1])
    return "tensorized.lp_norm_" + ("inf" if np.isinf(p) else f"{p:g}")


def _targets(rec: Recorder):
    """(owner, attribute, wrapper) for every traced entry point."""
    import ttfun.approx as approx
    import ttfun.badic as badic
    import ttfun.cli as cli
    import ttfun.localspace as localspace
    import ttfun.tensorized as tensorized
    import ttfun.train as train

    TF, TT, CP = tensorized.TensorizedFunction, train.TensorTrain, train.CPRep
    PS = localspace.PolySpace

    def elements(metric):
        def work(args, kwargs, result):
            rec.peak("tensorized.max_elements", result.coeffs.size)
            return [(metric, result.coeffs.size)]
        return work

    def points(metric):
        return lambda args, kwargs, result: [(metric, np.size(args[1]))]

    def io_bytes(metric):
        # args[1] is the path for save(self, path) and load(cls, path)
        def work(args, kwargs, result):
            if isinstance(result, TF):
                rec.peak("tensorized.max_elements", result.coeffs.size)
            return [(metric, os.path.getsize(args[1]))]
        return work

    def cells(args, kwargs, result):
        rec.peak("tensorized.max_elements", result.coeffs.size)
        return [("tensorized.tensorize.cells", result.cell_coeffs.shape[0])]

    def svds(metric):
        return lambda args, kwargs, result: [(metric, args[0].level)]

    def cli_main(fn):
        # Capture what the command prints, count it, then pass it on.
        @functools.wraps(fn)
        def wrapped(argv=None):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fn(argv)
            text = buf.getvalue()
            if not rec.paused:
                rec.add("cli.bytes_out", len(text.encode()))
            sys.stdout.write(text)
            return code
        return rec.span("cli.main", wrapped)

    functions = [
        (badic.encode, lambda f: rec.span("badic.encode", f)),
        (localspace.legendre_values,
         lambda f: rec.span("localspace.legendre_values", f)),
        (train.tt_svd, lambda f: rec.span(
            "train.tt_svd", f, svds("train.tt_svd.svds"))),
        (train.complexity, lambda f: rec.span("train.complexity", f)),
        (approx.lemma_corpus, lambda f: rec.span("approx.lemma_corpus", f)),
        (approx.error_curve, lambda f: rec.span("approx.error_curve", f)),
        (approx.random_train, lambda f: rec.span("approx.random_train", f)),
        (cli.main, cli_main),
    ]
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "ttfun" or n.startswith("ttfun.")]
    out = []
    for fn, factory in functions:
        wrapped = factory(fn)
        for module in modules:
            for attr, value in vars(module).items():
                if value is fn:
                    out.append((module, attr, wrapped))

    def method(owner, attr, name, work=None, kind=None):
        raw = vars(owner)[attr]
        if kind is classmethod:
            out.append((owner, attr,
                        classmethod(rec.span(name, raw.__func__, work))))
        else:
            out.append((owner, attr, rec.span(name, raw, work)))

    method(PS, "__init__", "localspace.PolySpace")
    method(PS, "max_abs", "localspace.max_abs")
    method(TF, "tensorize", "tensorized.tensorize", cells, classmethod)
    method(TF, "rank_profile", "tensorized.rank_profile",
           svds("tensorized.rank_profile.svds"))
    method(TF, "lp_norm", _lp_name)
    method(TF, "sobolev_seminorm", "tensorized.sobolev_seminorm")
    method(TF, "__call__", "tensorized.call", points("tensorized.call.points"))
    method(TF, "relevel_up", "tensorized.relevel_up",
           elements("tensorized.relevel_up.elements"))
    method(TF, "save", "tensorized.io", io_bytes("tensorized.io.bytes"))
    method(TF, "load", "tensorized.io", io_bytes("tensorized.io.bytes"),
           classmethod)
    method(TT, "round", "train.round")
    method(TT, "extend_level", "train.extend_level")
    method(TT, "__add__", "train.add")
    method(TT, "to_full", "train.to_full", elements("train.to_full.elements"))
    method(TT, "__call__", "train.call", points("train.call.points"))
    method(CP, "__call__", "train.cp_call", points("train.cp_call.points"))
    method(TT, "save", "train.io", io_bytes("train.io.bytes"))
    method(TT, "load", "train.io", io_bytes("train.io.bytes"), classmethod)
    return out


def install(rec: Recorder):
    """Wrap every traced entry point; returns the list to undo with."""
    saved = []
    for owner, attr, wrapped in _targets(rec):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def layer_metrics(rec: Recorder, ops: int, overhead_frac: float) -> dict:
    """Every per-layer metric, per op, with 0 for layers the ops never hit."""
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric == "trace.overhead_frac":
            value = overhead_frac
        elif metric in rec.maxima:
            value = rec.maxima[metric]
        elif unit == "count":
            value = 0
        else:
            value = rec.totals.get(metric, 0.0) / max(ops, 1)
        out[metric] = {"value": value, "unit": unit}
    return out
