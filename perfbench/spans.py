"""Span tracing around the calls into wavepool's layers, and the per-layer
metrics derived from the spans.

A span is one call: (name, start, end, parent, op).  ``parent`` is the index
of the enclosing span, -1 at top level; ``op`` is the index of the benchmark
operation (training step, eval round, transform round) the call belongs to,
-1 during set-up.  Spans stay in memory and are written out once, at the end
of a run.

The wrappers live here, not in the program.  Two kinds are installed:

- module-level patches, for calls that start inside wavepool.  ``backbone``
  and ``analysis`` bind the op functions by name at import time, and
  ``make_pool`` hands out the pool function objects when a network is
  built, so every ``wavepool.*`` module attribute that holds one of the
  wrapped functions is replaced, and this must happen before the network
  is built;
- local wrappers (``Tracer.wrap``) for calls the benchmark makes itself.

Each op wrapper also wraps the returned tensor's backward closure, so the
tape walk shows as ``autodiff.backward`` with the op backward spans as its
children.  Tracing relies on ``Tensor._backward`` and ``Tensor._parents``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from wavepool import autodiff, backbone, ops, pooling

HEAD_OPS = ("global_avg_pool", "linear", "softmax_cross_entropy")
POOL_OPS = ("wavelet_pool", "max_pool2", "avg_pool2", "subsample2", "blur_pool")

# Every per-layer metric the traced run reports, in output order.  A layer
# a workload does not run reports 0.
PER_LAYER = (
    "ops.conv3x3.fwd_s", "ops.conv3x3.bwd_s", "ops.conv1x1.fwd_s", "ops.conv1x1.bwd_s",
    "ops.conv.calls", "ops.conv.flops", "ops.conv.gflop_per_s",
    "ops.batchnorm2d.fwd_s", "ops.batchnorm2d.bwd_s", "ops.relu.fwd_s", "ops.relu.bwd_s",
    "ops.head.fwd_s", "ops.head.bwd_s",
    "pooling.fwd_s", "pooling.bwd_s", "pooling.calls", "pooling.step_share",
    "transforms.dwt2d_s", "transforms.idwt2d_s", "transforms.lowpass_s",
    "autodiff.backward_s", "autodiff.tape_self_s", "autodiff.tape_nodes",
    "backbone.forward_s", "backbone.forward_self_s",
    "optim.step_s",
    "data.load_s", "data.batch_s",
    "analysis.evaluate_s", "analysis.consistency_s", "analysis.consistency_self_s",
    "analysis.forward_batches",
    "trace.step_s", "trace.remainder_s", "trace.overhead_ratio",
)

# Counters that must repeat exactly between runs of one seed.
COUNTERS = (
    "ops.conv.calls", "ops.conv.flops", "pooling.calls", "autodiff.tape_nodes",
    "analysis.forward_batches",
)


def unit_of(metric: str) -> str:
    if metric.endswith("gflop_per_s"):
        return "GFLOP/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


class NullTracer:
    """Stands in for a Tracer in untraced runs: wraps nothing, records nothing."""

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts = defaultdict(int)  # (op, counter name) -> value
        self.enabled = True
        self.op = -1
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: int) -> None:
        self.counts[(self.op, name)] += int(value)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- op wrappers ---------------------------------------------------------

    def _wrap_backward(self, out, name: str, flops: int) -> None:
        inner = out._backward
        if inner is None:
            return

        def backward_fn(g):
            if flops:
                self.count("ops.conv.flops", flops)
            with self.span(name + ".bwd"):
                return inner(g)

        out._backward = backward_fn

    def wrap_op(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._wrap_backward(out, name, 0)
            return out

        return traced

    def wrap_conv(self, fn):
        def traced(x, w, b=None, *args, **kwargs):
            if not self.enabled:
                return fn(x, w, b, *args, **kwargs)
            k = w.shape[-1]
            name = f"ops.conv{k}x{k}"
            idx = self.open(name + ".fwd")
            try:
                out = fn(x, w, b, *args, **kwargs)
            finally:
                self.close(idx)
            # FLOPs by backbone.count_flops conventions: 2 per multiply-add,
            # plus 1 per output element for the bias.  Backward computes one
            # such product for each of dw and dx that is needed.
            n, f, ho, wo = out.shape
            macs = n * f * ho * wo * int(np.prod(w.shape[1:]))
            bias = n * f * ho * wo if b is not None else 0
            self.count("ops.conv.calls", 1)
            self.count("ops.conv.flops", 2 * macs + bias)
            bwd = 2 * macs * (_requires_grad(x) + _requires_grad(w)) + bias
            self._wrap_backward(out, name, bwd)
            return out

        return traced

    def wrap_pool(self, fn):
        op = self.wrap_op("pooling", fn)

        def traced(*args, **kwargs):
            if self.enabled:
                self.count("pooling.calls", 1)
            return op(*args, **kwargs)

        return traced

    def wrap_forward(self, fn):
        def traced(model, *args, **kwargs):
            if self.enabled and any(
                self.spans[i][0].startswith("analysis.") for i in self._stack
            ):
                self.count("analysis.forward_batches", 1)
            with self.span("backbone.forward"):
                return fn(model, *args, **kwargs)

        return traced

    def wrap_tape(self, fn):
        def traced(tensor, *args, **kwargs):
            if self.enabled:
                self.count("autodiff.tape_nodes", tape_nodes(tensor))
            with self.span("autodiff.backward"):
                return fn(tensor, *args, **kwargs)

        return traced

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch wavepool's layer boundaries for the duration of the block."""
        originals = {name: getattr(ops, name) for name in ("conv2d", "batchnorm2d", "relu")}
        originals.update({name: getattr(ops, name) for name in HEAD_OPS})
        originals.update({name: getattr(pooling, name) for name in POOL_OPS})
        wrappers = {}
        for name, fn in originals.items():
            if name == "conv2d":
                wrappers[name] = self.wrap_conv(fn)
            elif name in POOL_OPS:
                wrappers[name] = self.wrap_pool(fn)
            elif name in HEAD_OPS:
                wrappers[name] = self.wrap_op("ops.head", fn)
            else:
                wrappers[name] = self.wrap_op(f"ops.{name}", fn)
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "wavepool" or key.startswith("wavepool."))]
        for module in modules:
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    undo.append((module, name, fn))
                    setattr(module, name, wrappers[name])
        for owner, name, wrap in ((backbone.Network, "forward", self.wrap_forward),
                                  (autodiff.Tensor, "backward", self.wrap_tape)):
            fn = getattr(owner, name)
            undo.append((owner, name, fn))
            setattr(owner, name, wrap(fn))
        try:
            yield self
        finally:
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def _requires_grad(t) -> int:
    return int(bool(getattr(t, "requires_grad", False)))


def tape_nodes(root) -> int:
    """Tape nodes reachable from ``root``: tensors with a backward closure."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
        stack.extend(t._parents)
    return nodes


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, op_times: dict[int, float],
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics averaged over the traced ops in ``op_times``
    (op index -> wall time); counters are per op and must agree across ops.

    ``data.load_s`` is the set-up total, not a per-op figure.
    ``overhead_ratio`` is the traced over the untraced op time.
    """
    ops_run = sorted(op_times)
    n = len(ops_run)
    selfs = self_times(tracer.spans)
    dur = defaultdict(float)
    own = defaultdict(float)
    top = 0.0
    for (name, start, end, parent, op), s in zip(tracer.spans, selfs):
        if op == -1:
            dur["setup:" + name] += end - start
            continue
        if op not in op_times:
            continue
        dur[name] += end - start
        own[name] += s
        if parent == -1:
            top += end - start

    counters = {}
    for name in COUNTERS:
        per_op = {tracer.counts.get((op, name), 0) for op in ops_run}
        if len(per_op) > 1:
            raise RuntimeError(f"counter {name} differs between identical ops: {sorted(per_op)}")
        counters[name] = per_op.pop() if per_op else 0

    def avg(value):
        return value / n if n else 0.0

    step = avg(sum(op_times.values()))
    conv_time = sum(dur[f"ops.conv{k}.{d}"] for k in ("3x3", "1x1") for d in ("fwd", "bwd"))
    conv_flops_total = sum(tracer.counts.get((op, "ops.conv.flops"), 0) for op in ops_run)
    pool_time = dur["pooling.fwd"] + dur["pooling.bwd"]
    m = {}
    for layer in ("conv3x3", "conv1x1", "batchnorm2d", "relu", "head"):
        for d in ("fwd", "bwd"):
            m[f"ops.{layer}.{d}_s"] = avg(dur[f"ops.{layer}.{d}"])
    m["ops.conv.calls"] = counters["ops.conv.calls"]
    m["ops.conv.flops"] = counters["ops.conv.flops"]
    m["ops.conv.gflop_per_s"] = conv_flops_total / conv_time / 1e9 if conv_time else 0.0
    m["pooling.fwd_s"] = avg(dur["pooling.fwd"])
    m["pooling.bwd_s"] = avg(dur["pooling.bwd"])
    m["pooling.calls"] = counters["pooling.calls"]
    m["pooling.step_share"] = pool_time / sum(op_times.values()) if op_times else 0.0
    for name in ("dwt2d", "idwt2d", "lowpass"):
        m[f"transforms.{name}_s"] = avg(dur[f"transforms.{name}"])
    m["autodiff.backward_s"] = avg(dur["autodiff.backward"])
    m["autodiff.tape_self_s"] = avg(own["autodiff.backward"])
    m["autodiff.tape_nodes"] = counters["autodiff.tape_nodes"]
    m["backbone.forward_s"] = avg(dur["backbone.forward"])
    m["backbone.forward_self_s"] = avg(own["backbone.forward"])
    m["optim.step_s"] = avg(dur["optim.step"])
    m["data.load_s"] = dur["setup:data.load"]
    m["data.batch_s"] = avg(dur["data.batch"])
    m["analysis.evaluate_s"] = avg(dur["analysis.evaluate"])
    m["analysis.consistency_s"] = avg(dur["analysis.consistency"])
    m["analysis.consistency_self_s"] = avg(own["analysis.consistency"])
    m["analysis.forward_batches"] = counters["analysis.forward_batches"]
    m["trace.step_s"] = step
    m["trace.remainder_s"] = step - avg(top)
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: m[name] for name in PER_LAYER}
