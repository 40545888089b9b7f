"""In-memory spans around calls into convmkit's layers, and the per-layer
metrics computed from them.

Only the benchmark's own files record spans: ``instrument`` replaces each
public function at the name its callers look up (``convmkit.tensor.conv2d``
for the layers and network, ``convmkit.da.mmd_loss`` for the trainer, which
imports it by name) and wraps the ``_backward`` closure of every tensor an op
returns, so forward and backward time are attributed separately. Wrappers
only call through, so traced and untraced runs compute the same bits.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

TENSOR_OPS = ("conv2d", "conv2d_transpose_cropped", "maxpool2d_with_indices",
              "unpool2d", "avgpool2d", "relu", "dropout", "concat", "take_rows",
              "linear", "softmax_cross_entropy", "mse")

STEP_SPAN = "da.train_loop"
SETUP = -1  # step id of spans outside training steps


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, step]`` rows.

    Calls are synchronous, so a stack gives each span its parent. Every span
    of one training step carries that step's id; ``next_step`` closes the
    current step span and opens the next.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: list[tuple[str, int, float]] = []
        self._stack: list[int] = []
        self.step = SETUP
        self._step_span: int | None = None

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.step])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = self.clock()
        top = self._stack.pop()
        if top != i:
            raise RuntimeError(f"span {self.spans[i][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, self.step, float(value)))

    def next_step(self, name: str = STEP_SPAN) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
        self.step += 1
        self._step_span = self.open(name)

    def end_steps(self) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
            self._step_span = None
        self.step = SETUP


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def _wrap_backward(tracer: Tracer, name: str, fn):
    def traced_backward(g):
        i = tracer.open(name)
        try:
            return fn(g)
        finally:
            tracer.close(i)

    return traced_backward


def _wrap(tracer: Tracer, name: str, fn, *, backward: str | None = None,
          after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if backward is not None:
            t = out[0] if isinstance(out, tuple) else out
            if t._backward is not None:
                t._backward = _wrap_backward(tracer, backward, t._backward)
        if after is not None:
            after(args, out)
        return out

    return traced


def _count_tape(loss) -> int:
    """Graph nodes reachable from ``loss`` that carry a backward closure."""
    seen = set()
    stack = [loss]
    n = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            n += 1
        stack.extend(node._parents)
    return n


def instrument(tracer: Tracer):
    """Wrap convmkit's public functions so calls record spans on ``tracer``.

    Returns a function that puts the originals back.
    """
    from convmkit import checkpoint, da, layers, mmd, network, optim, synth
    from convmkit import tensor as T

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def conv_cols(args, out):
        x, w = args[0], args[1]
        n, _, oh, ow = out.shape
        k = w.shape[2]
        tracer.count("conv2d.col_bytes",
                      n * x.shape[1] * k * k * oh * ow * x.data.itemsize)

    for op in TENSOR_OPS:
        patch(T, op, _wrap(tracer, f"tensor.{op}", getattr(T, op),
                           backward=f"tensor.{op}.bwd",
                           after=conv_cols if op == "conv2d" else None))

    backward = T.Tensor.backward

    @functools.wraps(backward)
    def traced_backward(self):
        with tracer.span("trace.tape_walk"):
            tracer.count("tape_nodes", _count_tape(self))
        with tracer.span("tensor.backward"):
            return backward(self)

    patch(T.Tensor, "backward", traced_backward)

    traced_bandwidth = _wrap(tracer, "mmd.median_bandwidth", mmd.median_bandwidth)
    traced_mmd = _wrap(tracer, "mmd.mmd_loss", mmd.mmd_loss,
                       backward="mmd.mmd_loss.bwd")
    for owner in (mmd, da):
        patch(owner, "median_bandwidth", traced_bandwidth)
        patch(owner, "mmd_loss", traced_mmd)

    for owner, attr, name in (
            (layers.ConvM, "forward_with_taps", "layers.ConvM.forward_with_taps"),
            (network.Network, "forward", "network.Network.forward"),
            (network.Decoder, "forward", "network.Decoder.forward"),
            (da.DomainSampler, "make_batch", "da.DomainSampler.make_batch"),
            (da, "da_loss", "da.da_loss"),
            (da, "evaluate", "da.evaluate"),
            (optim.SGDMomentum, "step", "optim.SGDMomentum.step"),
            (optim.SGDMomentum, "zero_grad", "optim.SGDMomentum.zero_grad"),
            (checkpoint, "save", "checkpoint.save"),
            (checkpoint, "load", "checkpoint.load"),
            (synth, "generate", "synth.generate")):
        patch(owner, attr, _wrap(tracer, name, getattr(owner, attr)))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, source, how); "how" is one of
#   step_total / step_self / step_calls / step_counter: per measured step
#   call_total: mean over calls; counter_mean: mean of recorded values
_MS = 1e3


def _layer_table():
    rows = []
    for op in TENSOR_OPS:
        rows += [(f"tensor.{op}.fwd_ms", "ms", f"tensor.{op}", "step_total"),
                 (f"tensor.{op}.bwd_ms", "ms", f"tensor.{op}.bwd", "step_total"),
                 (f"tensor.{op}.calls", "count", f"tensor.{op}", "step_calls")]
    rows += [
        ("tensor.conv2d.col_mb", "MB", "conv2d.col_bytes", "step_counter"),
        ("tensor.backward.self_ms", "ms", "tensor.backward", "step_self"),
        ("tensor.tape_nodes", "count", "tape_nodes", "step_counter"),
        ("layers.ConvM.fwd_ms", "ms", "layers.ConvM.forward_with_taps", "step_total"),
        ("network.Network.forward_ms", "ms", "network.Network.forward", "step_total"),
        ("network.Decoder.forward_ms", "ms", "network.Decoder.forward", "step_total"),
        ("mmd.median_bandwidth_ms", "ms", "mmd.median_bandwidth", "step_total"),
        ("mmd.mmd_loss.fwd_ms", "ms", "mmd.mmd_loss", "step_total"),
        ("mmd.mmd_loss.bwd_ms", "ms", "mmd.mmd_loss.bwd", "step_total"),
        ("mmd.mmd_loss.calls", "count", "mmd.mmd_loss", "step_calls"),
        ("da.DomainSampler.make_batch_ms", "ms", "da.DomainSampler.make_batch", "step_total"),
        ("da.da_loss.self_ms", "ms", "da.da_loss", "step_self"),
        ("da.train_loop.self_ms", "ms", STEP_SPAN, "step_self"),
        ("optim.SGDMomentum.step_ms", "ms", "optim.SGDMomentum.step", "step_total"),
        ("optim.SGDMomentum.zero_grad_ms", "ms", "optim.SGDMomentum.zero_grad", "step_total"),
        ("da.evaluate_ms", "ms", "da.evaluate", "call_total"),
        ("checkpoint.save_ms", "ms", "checkpoint.save", "call_total"),
        ("checkpoint.load_ms", "ms", "checkpoint.load", "call_total"),
        ("checkpoint.bytes", "B", "checkpoint.bytes", "counter_mean"),
        ("synth.generate_ms", "ms", "synth.generate", "call_total"),
        ("network.build_ms", "ms", "network.build", "call_total"),
    ]
    return rows


LAYER_METRICS = _layer_table()


def layer_metrics(tracer: Tracer, measured_steps) -> dict[str, dict]:
    """Per-layer metrics over the spans of ``measured_steps`` (per-step
    figures) and over all spans (per-call figures). A layer that did not run
    reads 0."""
    measured = set(measured_steps)
    n_steps = max(len(measured), 1)
    selfs = self_times(tracer.spans)
    step_total = defaultdict(float)
    step_self = defaultdict(float)
    step_calls = defaultdict(int)
    call_total = defaultdict(float)
    call_n = defaultdict(int)
    for (name, start, end, _, step), own in zip(tracer.spans, selfs):
        call_total[name] += end - start
        call_n[name] += 1
        if step in measured:
            step_total[name] += end - start
            step_self[name] += own
            step_calls[name] += 1
    step_counter = defaultdict(float)
    counter_sum = defaultdict(float)
    counter_n = defaultdict(int)
    for name, step, value in tracer.counters:
        counter_sum[name] += value
        counter_n[name] += 1
        if step in measured:
            step_counter[name] += value

    out = {}
    for metric, unit, src, how in LAYER_METRICS:
        if how == "step_total":
            v = step_total[src] * _MS / n_steps
        elif how == "step_self":
            v = step_self[src] * _MS / n_steps
        elif how == "step_calls":
            v = step_calls[src] / n_steps
        elif how == "step_counter":
            v = step_counter[src] / n_steps
            if unit == "MB":
                v /= 1e6
        elif how == "call_total":
            v = call_total[src] * _MS / call_n[src] if call_n[src] else 0.0
        else:  # counter_mean
            v = counter_sum[src] / counter_n[src] if counter_n[src] else 0.0
        out[metric] = {"value": v, "unit": unit}
    return out
