"""Spans around the package's layers, recorded from outside the package.

`Tracer.installed(lambdadet)` wraps the public functions of each layer
(`laurent`, `matrices`, `condensation`, `asm`, `tilings`, `reproduce`) for
the duration of a `with` block.  A wrapper must replace the name where the
caller looks it up: `lambdadet.reproduce` imports `count_tilings`,
`numeric_pyramid` and others by name, and `lambdadet.asm` calls its own
`asm_stats`.  So a module function is replaced in every `lambdadet` module
that holds it, and a method is replaced on its class.  The package source
is not touched.

A span has a name, a start, an end and a parent.  Spans live in flat
arrays in memory and are reduced to per-name totals only after the traced
batch ends, so no I/O or aggregation happens while the batch runs.  Self
time is a span's duration minus the durations of its direct children;
spans nest strictly because the benchmark is single-threaded.

`cli` is a thin argparse shell and is not wrapped.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from typing import Callable

# -- the per-layer metric catalogue ------------------------------------------

# (metric, span, field, unit); field is calls, total (s), self (s) or amount.
_DIRECT = [
    ("laurent.mul.calls", "laurent.mul", "calls", "count"),
    ("laurent.mul.s", "laurent.mul", "total", "s"),
    ("laurent.mul.terms_out", "laurent.mul", "amount", "terms"),
    ("laurent.add.calls", "laurent.add", "calls", "count"),
    ("laurent.add.s", "laurent.add", "total", "s"),
    ("laurent.exact_div.calls", "laurent.exact_div", "calls", "count"),
    ("laurent.exact_div.s", "laurent.exact_div", "total", "s"),
    ("laurent.exact_div.terms_out", "laurent.exact_div", "amount", "terms"),
    ("laurent.limit_eval.s", "laurent.limit_eval", "total", "s"),
    ("condensation.symbolic.calls", "condensation.symbolic", "calls", "count"),
    ("condensation.symbolic.s", "condensation.symbolic", "total", "s"),
    ("condensation.symbolic.self_s", "condensation.symbolic", "self", "s"),
    ("condensation.numeric.calls", "condensation.numeric", "calls", "count"),
    ("condensation.numeric.s", "condensation.numeric", "total", "s"),
    ("asm.asms_enumerated", "asm.enumerate", "amount", "count"),
    ("asm.enumerate.s", "asm.enumerate", "total", "s"),
    ("asm.asm_stats.calls", "asm.asm_stats", "calls", "count"),
    ("asm.asm_stats.s", "asm.asm_stats", "total", "s"),
    ("asm.region_sum.calls", "asm.region_sum", "calls", "count"),
    ("asm.region_sum.s", "asm.region_sum", "total", "s"),
    ("asm.lambda_det_sum.s", "asm.lambda_det_sum", "total", "s"),
    ("asm.lambda_det_sum.self_s", "asm.lambda_det_sum", "self", "s"),
    ("asm.min_region_sum.s", "asm.min_region_sum", "total", "s"),
    ("asm.count_asms.s", "asm.count_asms", "total", "s"),
    ("tilings.matching_sum.calls", "tilings.matching_sum", "calls", "count"),
    ("tilings.matching_sum.s", "tilings.matching_sum", "total", "s"),
    ("tilings.matching_sum.cells", "tilings.matching_sum", "amount", "cells"),
    ("tilings.kuo.s", "tilings.kuo", "total", "s"),
    ("reproduce.session_pyramid.s", "reproduce.session_pyramid", "total", "s"),
]

# Condensation layers of the order-6 even diamond (a 12-by-12 matrix).
D6_LAYERS = range(2, 13)
REPRODUCE_CHECKS = range(1, 15)

# metric -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {}
for _metric, _span, _field, _unit in _DIRECT:
    PER_LAYER[_metric] = (_unit, "lower")
PER_LAYER["tilings.matching_sum.cells_per_s"] = ("cells/s", "higher")
PER_LAYER["matrices.calls"] = ("count", "lower")
PER_LAYER["matrices.s"] = ("s", "lower")
for _k in D6_LAYERS:
    PER_LAYER["condensation.d6.layer_%d.s" % _k] = ("s", "lower")
    PER_LAYER["condensation.d6.layer_%d.max_terms" % _k] = ("terms", "lower")
    PER_LAYER["condensation.d6.layer_%d.total_terms" % _k] = ("terms", "lower")
for _n in REPRODUCE_CHECKS:
    PER_LAYER["reproduce.check_%02d.s" % _n] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


# -- span recording -----------------------------------------------------------


def _terms_out(args, result) -> int:
    return getattr(result, "term_count", 0)


def _cells_in(args, result) -> int:
    return len(args[0])


class Tracer:
    """Records spans in flat in-memory arrays; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.stack = [-1]
        # While a list: (span, kind, id(lhs), id(rhs)) of every arithmetic
        # call, and every symbolic pyramid returned.  See layer_profile.
        self.capture: list | None = None
        self.capture_log: list = []
        self.pyramids: list = []
        self._patches: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for column in (self.name_of, self.parent, self.start, self.end, self.amount):
            del column[:]
        self.stack[:] = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.amount.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, amount=None, kind: str | None = None):
        """Span around each call of fn.  amount(args, result) fills the
        span's amount; kind names an arithmetic call whose operands the
        layer capture records."""
        tracer = self
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            if kind is not None and tracer.capture is not None:
                tracer.capture.append((idx, kind, id(args[0]), id(args[1])))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if amount is not None:
                tracer.amount[idx] = amount(args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable):
        """One span per item drawn from the generator fn returns; a span's
        amount is 1 when it produced an item."""
        nid = self._name_id(name)
        open_, close, amounts = self._open, self._close, self.amount

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = open_(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(idx)
                amounts[idx] = 1
                yield item

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attrs, name, **kw) -> None:
        wrapper = self.wrap(name, cls.__dict__[attrs[0]], **kw)
        for attr in attrs:
            self._set(cls, attr, wrapper)

    def _wrap_function(self, module, attr, name, generator=False, **kw) -> None:
        original = getattr(module, attr)
        if generator:
            wrapper = self.wrap_generator(name, original)
        else:
            wrapper = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.partition(".")[0] == "lambdadet"
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, wrapper)

    def _pyramid_size(self, args, pyramid) -> int:
        if self.capture is not None:
            self.pyramids.append(pyramid)
        return pyramid.size

    @contextmanager
    def installed(self, ld):
        """Wrap every traced entry point of the package `ld` in the block."""
        try:
            poly = ld.laurent.LaurentPoly
            matrix = ld.matrices.PolyMatrix
            self._wrap_method(poly, ("__mul__", "__rmul__"), "laurent.mul",
                              amount=_terms_out, kind="mul")
            self._wrap_method(poly, ("__add__", "__radd__"), "laurent.add", kind="add")
            self._wrap_method(poly, ("exact_div",), "laurent.exact_div",
                              amount=_terms_out, kind="div")
            self._wrap_method(poly, ("limit_t0",), "laurent.limit_eval")
            self._wrap_method(poly, ("eval_at",), "laurent.limit_eval")
            for attr in ("perturb_zeros", "is_symmetric"):
                self._wrap_method(matrix, (attr,), "matrices." + attr)
            for attr in ("diamond_even", "diamond_odd", "ones_matrix",
                         "random_monomial_matrix", "center_perturbed"):
                self._wrap_function(ld.matrices, attr, "matrices." + attr)
            self._wrap_function(ld.condensation, "symbolic_pyramid", "condensation.symbolic",
                                amount=self._pyramid_size)
            self._wrap_function(ld.condensation, "numeric_pyramid", "condensation.numeric")
            self._wrap_function(ld.asm, "enumerate_asms", "asm.enumerate", generator=True)
            for attr in ("asm_stats", "region_sum", "lambda_det_sum", "min_region_sum",
                         "count_asms"):
                self._wrap_function(ld.asm, attr, "asm." + attr)
            self._wrap_function(ld.tilings, "matching_sum", "tilings.matching_sum",
                                amount=_cells_in)
            self._wrap_function(ld.tilings, "kuo_identity_check", "tilings.kuo")
            self._wrap_method(ld.reproduce.ReproductionSession, ("even_pyramid",),
                              "reproduce.session_pyramid")
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    @contextmanager
    def capturing_layers(self):
        self.capture, self.pyramids = [], []
        try:
            yield
        finally:
            self.capture_log, self.capture = self.capture, None

    @contextmanager
    def tracing_op(self, ld, name: str, capture_layers: bool):
        """Everything the traced batch wraps around one operation's call."""
        layers = self.capturing_layers() if capture_layers else nullcontext()
        with self.installed(ld), self.span("op." + name), layers:
            yield

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, summed amount."""
        n = len(self.name_of)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += duration[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.get(self.names[self.name_of[i]])
            if row is None:
                row = out[self.names[self.name_of[i]]] = dict(
                    calls=0, total=0.0, self=0.0, amount=0)
            row["calls"] += 1
            row["total"] += duration[i]
            row["self"] += duration[i] - child[i]
            row["amount"] += self.amount[i]
        return out

    def layer_profile(self) -> dict[int, tuple[float, int, int]]:
        """Layer k -> (seconds, largest, total term count) of the last
        pyramid captured by capturing_layers.

        Term counts are read from the pyramid.  A call is attributed to a
        layer by its operands: a product for layer k takes a layer k-1
        value and a division for layer k divides by a layer k-2 value.  An
        operand that is not a pyramid value may reuse the address of a value
        built after it, which is always of a later layer, so the smallest
        candidate is the right one.  A sum serves the same layer as the
        product just before it.
        """
        if not self.pyramids:
            return {}
        pyramid = self.pyramids[-1]
        layer_of = {}
        for k, layer in enumerate(pyramid.layers, 1):
            for row in layer:
                for value in row:
                    layer_of[id(value)] = k
        seconds: dict[int, float] = {}
        current = None
        for idx, kind, lhs, rhs in self.capture_log:
            if kind == "mul":
                found = [layer_of[x] + 1 for x in (lhs, rhs) if x in layer_of]
                current = min(found) if found else None
            elif kind == "div":
                current = layer_of[rhs] + 2 if rhs in layer_of else None
            if current is not None:
                seconds[current] = seconds.get(current, 0.0) + self.end[idx] - self.start[idx]
        out = {}
        for k, layer in enumerate(pyramid.layers, 1):
            counts = [value.term_count for row in layer for value in row]
            out[k] = (seconds.get(k, 0.0), max(counts), sum(counts))
        return out


def per_layer_metrics(summary, layers, check_seconds: dict[int, float]) -> dict[str, float]:
    """Every PER_LAYER metric of one traced batch except trace.overhead_s,
    which compares batches; absent work reads 0."""
    empty = dict(calls=0, total=0.0, self=0.0, amount=0)
    out: dict[str, float] = {}
    for metric, span, field, _unit in _DIRECT:
        out[metric] = summary.get(span, empty)[field]
    seconds = out["tilings.matching_sum.s"]
    out["tilings.matching_sum.cells_per_s"] = (
        out["tilings.matching_sum.cells"] / seconds if seconds else 0.0)
    matrices = [row for span, row in summary.items() if span.startswith("matrices.")]
    out["matrices.calls"] = sum(row["calls"] for row in matrices)
    out["matrices.s"] = sum((row["total"] for row in matrices), 0.0)
    for k in D6_LAYERS:
        s, largest, total = layers.get(k, (0.0, 0, 0))
        out["condensation.d6.layer_%d.s" % k] = s
        out["condensation.d6.layer_%d.max_terms" % k] = largest
        out["condensation.d6.layer_%d.total_terms" % k] = total
    for n in REPRODUCE_CHECKS:
        out["reproduce.check_%02d.s" % n] = check_seconds.get(n, 0.0)
    return out


def median_metrics(batches: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric lower median over traced batches, so every value is
    one that was measured (counts repeat exactly)."""
    return {key: statistics.median_low(b[key] for b in batches) for key in batches[0]}
