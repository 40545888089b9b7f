"""Runs one benchmark workload in this process and prints its result as one
JSON line. ``perfbench/run.py`` starts this file in a fresh process per
workload, so peak RSS belongs to that workload alone:

    python3 perfbench/workloads.py --workload tiny-da --seed 1 --seconds 20 --trace 0

Every workload is a closed loop: one caller, each step waits for the one
before. The only input is generated from ``--seed``. Correctness gates run
outside the timed region; a failed gate counts as a failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from convmkit import checkpoint, da, mmd, network, synth  # noqa: E402
from convmkit.tensor import Tensor  # noqa: E402

from spans import Tracer, instrument, layer_metrics  # noqa: E402
from stats import OpLog, median_summary, tail_percentile  # noqa: E402

NUM_CLASSES = 5
TRACE_DIR = ROOT / ".perfbench"


# ---------------------------------------------------------------------------
# training workloads: tiny-da, tiny-source-only, ref-frozen
# ---------------------------------------------------------------------------


def synth_data(seed: int, per_class: int, size: int) -> da.DADatasets:
    """The synthetic two-domain set, normalised by pooled channel stats as
    the trainer's CLI does."""
    sx, sy, tx, ty = synth.generate(synth.SynthParams(
        num_classes=NUM_CLASSES, per_class=per_class, size=size, seed=seed))
    pooled = np.concatenate([sx, tx])
    stats = {"mean": pooled.mean(axis=(0, 2, 3)).tolist(),
             "std": pooled.std(axis=(0, 2, 3)).tolist()}
    return da.DADatasets(source_x=synth.normalize(sx, stats), source_y=sy,
                         target_x=synth.normalize(tx, stats), target_y=ty)


def da_model(spec_fn, seed: int, decoders: bool) -> network.Network:
    rng = np.random.default_rng(seed)
    net = network.build_network(spec_fn(num_classes=NUM_CLASSES), rng=rng)
    network.attach_da_heads(net, NUM_CLASSES, rng=rng)
    if decoders:
        network.attach_decoders(net, rng=np.random.default_rng(seed + 1))
    return net


@dataclass(frozen=True)
class TrainWorkload:
    data: Callable[[int], da.DADatasets]
    spec: Callable
    decoders: bool
    da_cfg: Callable[[], da.DAConfig]
    batch_size: int
    base_lr: float
    warmup: int          # steps left out of the step metrics
    setups: int          # set-ups per run; setup_s is their median
    eval_images: int     # leading target images evaluated (0: all)
    eval_reps: int
    check_frozen: bool

    def solver(self, seed: int) -> da.SolverConfig:
        # max_steps is the schedule horizon; a run stops at its time budget
        return da.SolverConfig(base_lr=self.base_lr, power=0.5, momentum=0.9,
                               max_steps=300, batch_size=self.batch_size,
                               seed=seed)

    def model(self, seed: int, decoders: bool | None = None) -> network.Network:
        return da_model(self.spec, seed, self.decoders if decoders is None else decoders)


# The package's default rate (0.0009) is the paper's for batches of 64; at
# batch 2 the reference workload scales it linearly.
REF_BASE_LR = da.SolverConfig.base_lr * 2 / da.SolverConfig.batch_size

# tiny-*: the desk-scale run of configs/run.yaml (5 classes x 40 per class at
# 32x32, batch 32, freeze_set []); ref-frozen: the 224x224 reference net with
# the DA head, CE only, default freeze set (stem + first three Conv-M).
TRAIN_WORKLOADS = {
    "tiny-da": TrainWorkload(
        data=lambda seed: synth_data(seed, 40, 32), spec=network.tiny_spec,
        decoders=True, da_cfg=lambda: da.DAConfig(freeze_set=[]),
        batch_size=32, base_lr=0.003, warmup=3, setups=11, eval_images=0,
        eval_reps=15, check_frozen=False),
    "tiny-source-only": TrainWorkload(
        data=lambda seed: synth_data(seed, 40, 32), spec=network.tiny_spec,
        decoders=False,
        da_cfg=lambda: da.DAConfig(freeze_set=[], no_gmmd=True, no_recons=True),
        batch_size=32, base_lr=0.003, warmup=3, setups=11, eval_images=0,
        eval_reps=15, check_frozen=False),
    "ref-frozen": TrainWorkload(
        data=lambda seed: synth_data(seed, 2, 224), spec=network.reference_spec,
        decoders=False,
        da_cfg=lambda: da.DAConfig(no_gmmd=True, no_recons=True),
        batch_size=2, base_lr=REF_BASE_LR, warmup=1, setups=5, eval_images=2,
        eval_reps=3, check_frozen=True),
}


class _Stop(Exception):
    """Raised from ``on_step`` to end training at the time or step budget."""


def train(model, data, w: TrainWorkload, seed: int, ops: OpLog, *,
          seconds: float | None = None, steps: int | None = None,
          tracer: Tracer | None = None) -> list[float]:
    """Train through ``da.train_da`` until ``seconds`` of post-warm-up steps
    have elapsed, or for exactly ``steps`` steps. Returns every step's
    duration in seconds, warm-up first."""
    marks = [time.perf_counter()]

    def on_step(step, row):
        marks.append(time.perf_counter())
        losses = row[3:]
        ok = ops.record(all(math.isfinite(v) for v in losses),
                        f"step {step}: non-finite loss {losses}")
        if tracer is not None:
            tracer.next_step()
        n = len(marks) - 1
        if (not ok or n == steps or (seconds is not None and n > w.warmup
                                     and marks[-1] - marks[w.warmup] >= seconds)):
            raise _Stop

    if tracer is not None:
        tracer.next_step()
    try:
        da.train_da(model, data, w.da_cfg(), w.solver(seed), on_step=on_step)
    except _Stop:
        pass
    except Exception as exc:  # divergence, MemoryError: a failed op
        ops.fail(f"training step {len(marks) - 1}", exc)
    finally:
        if tracer is not None:
            tracer.end_steps()
    return np.diff(marks).tolist()


def snapshot(model) -> dict[str, bytes]:
    return {name: p.data.tobytes() for name, p in model.parameters().items()}


def frozen_gate(model, before, after, ops: OpLog) -> None:
    """Frozen parameters byte-identical, every other parameter changed."""
    frozen = set(da.default_freeze_set(model))
    wrong = [name for name in before
             if (before[name] == after[name]) != (name.split(".", 1)[0] in frozen)]
    ops.record(not wrong, f"frozen parameters changed or trained ones did not: {wrong[:8]}")


def checkpoint_gate(model, rebuild, ops: OpLog, tracer: Tracer | None) -> int:
    """Save, load into a fresh model, save again: the bytes must match.
    Returns the archive size."""
    first = io.BytesIO()
    checkpoint.save(model, first)
    fresh = rebuild()
    checkpoint.load(fresh, io.BytesIO(first.getvalue()))
    second = io.BytesIO()
    checkpoint.save(fresh, second)
    size = len(first.getvalue())
    if tracer is not None:
        tracer.count("checkpoint.bytes", size)
    ops.record(first.getvalue() == second.getvalue(),
               "checkpoint save -> load -> save changed the bytes")
    return size


def timed_metrics(setup_s, measured, images_per_step, eval_rates, run_s):
    """End-to-end metrics of an untraced run, and their sample counts."""
    ms = [1e3 * d for d in measured]
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "step_ms_p50": {"value": statistics.median(ms) if ms else None, "unit": "ms"},
        "train_images_per_s": {
            "value": images_per_step * len(ms) / sum(measured) if ms else None,
            "unit": "1/s"},
        "eval_images_per_s": {
            "value": statistics.median(eval_rates) if eval_rates else None, "unit": "1/s"},
        "run_s": {"value": run_s, "unit": "s"},
    }
    detail = {"step_ms": {"p50": median_summary(ms) if ms else None,
                          "tail": tail_percentile(ms),
                          "samples": [round(x, 3) for x in ms]},
              "setup_s": median_summary(setup_s),
              "eval_images_per_s": median_summary(eval_rates) if eval_rates else None}
    return metrics, detail


def traced_metrics(tracer: Tracer, measured_steps, traced, plain):
    """Per-layer metrics of a traced run. ``traced`` and ``plain`` are the
    measured step durations of the traced run and of its untraced replay."""
    metrics = layer_metrics(tracer, measured_steps)
    overhead = None
    if traced and plain:
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    detail = {"traced_step_ms": median_summary([1e3 * d for d in traced]) if traced else None,
              "untraced_step_ms": median_summary([1e3 * d for d in plain]) if plain else None}
    return metrics, detail


def run_train(w: TrainWorkload, seed: int, seconds: float,
              tracer: Tracer | None, untrace) -> dict:
    ops = OpLog()
    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    t_run = time.perf_counter()
    setup_s = []
    for _ in range(w.setups):
        t0 = time.perf_counter()
        data = w.data(seed)
        with span("network.build"):
            model = w.model(seed)
        setup_s.append(time.perf_counter() - t0)

    before = snapshot(model)
    budget = seconds / 2 if tracer is not None else seconds
    steps = train(model, data, w, seed, ops, seconds=budget, tracer=tracer)
    after = snapshot(model)
    ops.record(all(np.isfinite(p.data).all() for p in model.parameters().values()),
               "non-finite weights after training")
    if w.check_frozen:
        frozen_gate(model, before, after, ops)

    x, y = data.target_x, data.target_y
    if w.eval_images:
        x, y = x[:w.eval_images], y[:w.eval_images]
    eval_rates, accs = [], []
    for _ in range(w.eval_reps):
        t0 = time.perf_counter()
        acc = ops.guard("evaluate", da.evaluate, model, x, y, batch_size=w.batch_size)
        if acc is not None:
            eval_rates.append(len(x) / (time.perf_counter() - t0))
            accs.append(acc)
    ops.record(len(set(accs)) <= 1, f"evaluate not repeatable: {accs}")

    model.decoders = None  # checkpoints hold the test-time predictor
    ckpt_bytes = ops.guard("checkpoint round trip", checkpoint_gate, model,
                           lambda: w.model(seed + 1000, decoders=False), ops, tracer)
    run_s = time.perf_counter() - t_run

    measured = steps[w.warmup:]
    detail = {"steps": len(steps), "warmup_steps": w.warmup,
              "batch_size": w.batch_size, "setups": w.setups,
              "eval_images": len(x), "checkpoint_bytes": ckpt_bytes,
              "target_acc": accs[0] if accs and not w.eval_images else None}
    if tracer is not None:
        untrace()
        replay = w.model(seed)
        replay_steps = train(replay, w.data(seed), w, seed, ops, steps=len(steps))
        ops.record(snapshot(replay) == after,
                   "traced final weights differ from the untraced run's")
        metrics, more = traced_metrics(tracer, range(w.warmup, len(steps)), measured,
                                       replay_steps[w.warmup:])
    else:
        metrics, more = timed_metrics(setup_s, measured, w.batch_size, eval_rates, run_s)
    return {"ops": ops, "metrics": metrics, "detail": {**detail, **more}}


# ---------------------------------------------------------------------------
# ref-align: the DA alignment term at reference tap widths
# ---------------------------------------------------------------------------

# The reference net's default MMD taps (last three Conv-M outputs) and their
# flattened widths: layer10 is 576 x 28 x 28, layer12/13 are 688 x 14 x 14.
# 16 samples per domain still fit in memory, but one op then takes 4-6.5 s on
# two cores and a run holds too few ops for a steady median; at 8, mmd_loss's
# float64 [Ns, Nt, D] temporary is still 231 MB at layer10.
ALIGN_TAPS = (("layer10", 451_584), ("layer12", 134_848), ("layer13", 134_848))
ALIGN_SAMPLES = 8    # per domain; see ALIGN_TAPS
GATE_SAMPLES = 4     # per domain, for the brute-force and self-MMD gates
ALIGN_WEIGHT = 0.3   # DAConfig.mmd_weight
ALIGN_WARMUP = 1
ALIGN_SETUPS = 5
ALIGN_EVAL_REPS = 3
ALIGN_SPAN = "align.op"


def align_features(seed: int) -> list[np.ndarray]:
    """Per tap, ``[s; t]`` rows of non-negative (post-ReLU) features; the
    target rows are shifted so the discrepancy is not near zero."""
    rng = np.random.default_rng([seed, 17])
    feats = []
    for _, width in ALIGN_TAPS:
        both = rng.standard_normal((2 * ALIGN_SAMPLES, width), dtype=np.float32)
        both[ALIGN_SAMPLES:] += 0.25
        np.maximum(both, 0.0, out=both)
        feats.append(both)
    return feats


def align_op(feats, *, swap: bool, grad: bool = True):
    """One alignment term: per tap, the median bandwidth over ``[s; t]``,
    then ``mmd_loss`` forward, and one backward through the weighted sum.
    ``swap`` passes (t, s) instead of (s, t). Returns the per-tap values and
    the gradients of every feature tensor."""
    n = ALIGN_SAMPLES
    values, leaves, total = [], [], None
    for both in feats:
        sigma = mmd.median_bandwidth(both)
        fs = Tensor(both[:n], requires_grad=grad)
        ft = Tensor(both[n:], requires_grad=grad)
        lm = mmd.mmd_loss(ft, fs, sigma) if swap else mmd.mmd_loss(fs, ft, sigma)
        values.append(lm.item())
        leaves += [fs, ft]
        term = ALIGN_WEIGHT * lm
        total = term if total is None else total + term
    if grad:
        total.backward()
    return values, [t.grad for t in leaves]


def align_gates(feats, ops: OpLog) -> None:
    """At full tap width on a few rows: mmd_loss against the brute-force
    oracle (float64, within 1e-10) and self-MMD exactly 0.0."""
    n, m = ALIGN_SAMPLES, GATE_SAMPLES
    for (tap, _), both in zip(ALIGN_TAPS, feats):
        s = both[:m].astype(np.float64)
        t = both[n:n + m].astype(np.float64)
        sigma = mmd.median_bandwidth(np.concatenate([s, t]))
        got = mmd.mmd_loss(Tensor(s), Tensor(t), sigma).item()
        want = mmd.mmd_brute_force(s, t, sigma)
        ops.record(abs(got - want) <= 1e-10,
                   f"{tap}: mmd_loss {got!r} vs brute force {want!r}")
        own = mmd.mmd_loss(Tensor(both[:m]), Tensor(both[:m]), sigma).item()
        ops.record(own == 0.0, f"{tap}: self-MMD {own!r} is not 0.0")


def align_loop(feats, ops: OpLog, *, seconds=None, count=None, tracer=None):
    """Alternates (s, t) and (t, s); every op's per-tap values must equal
    the first op's bit for bit. Returns op durations and the last op's
    values and gradients."""
    durations, first, last = [], None, None
    while True:
        i = len(durations)
        if tracer is not None:
            tracer.next_step(ALIGN_SPAN)
        t0 = time.perf_counter()
        try:
            last = align_op(feats, swap=i % 2 == 1)
        except Exception as exc:  # MemoryError at wide taps: a failed op
            ops.fail(f"alignment op {i}", exc)
            break
        durations.append(time.perf_counter() - t0)
        values = last[0]
        first = first or values
        ops.record(all(math.isfinite(v) for v in values) and values == first,
                   f"op {i}: values {values} vs first {first} (swap={i % 2 == 1})")
        if count is not None and len(durations) >= count:
            break
        if (count is None and len(durations) > ALIGN_WARMUP
                and sum(durations[ALIGN_WARMUP:]) >= seconds):
            break
    if tracer is not None:
        tracer.end_steps()
    return durations, last


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return False
    va, ga = a
    vb, gb = b
    return va == vb and all(x.tobytes() == y.tobytes() for x, y in zip(ga, gb))


def run_align(seed: int, seconds: float, tracer: Tracer | None, untrace) -> dict:
    ops = OpLog()
    t_run = time.perf_counter()
    setup_s = []
    for _ in range(ALIGN_SETUPS):
        feats = None  # release the previous copy before making the next
        t0 = time.perf_counter()
        feats = align_features(seed)
        setup_s.append(time.perf_counter() - t0)

    budget = seconds / 2 if tracer is not None else seconds
    durations, last = align_loop(feats, ops, seconds=budget, tracer=tracer)
    measured = durations[ALIGN_WARMUP:]
    rows = 2 * ALIGN_SAMPLES

    eval_rates = []
    for _ in range(ALIGN_EVAL_REPS):
        t0 = time.perf_counter()
        if ops.guard("forward-only alignment", align_op, feats, swap=False,
                     grad=False) is not None:
            eval_rates.append(rows / (time.perf_counter() - t0))
    ops.guard("alignment gates", align_gates, feats, ops)
    run_s = time.perf_counter() - t_run

    detail = {"ops": len(durations), "warmup_ops": ALIGN_WARMUP,
              "samples_per_domain": ALIGN_SAMPLES, "setups": ALIGN_SETUPS,
              "taps": [list(t) for t in ALIGN_TAPS],
              "mmd_values": last[0] if last else None}
    if tracer is not None:
        untrace()
        plain, replay_last = align_loop(feats, ops, count=len(durations))
        ops.record(_same_bits(last, replay_last),
                   "traced alignment values or gradients differ from the untraced run's")
        metrics, more = traced_metrics(tracer, range(ALIGN_WARMUP, len(durations)),
                                       measured, plain[ALIGN_WARMUP:])
    else:
        metrics, more = timed_metrics(setup_s, measured, rows, eval_rates, run_s)
    return {"ops": ops, "metrics": metrics, "detail": {**detail, **more}}


WORKLOADS = {name: functools.partial(run_train, w) for name, w in TRAIN_WORKLOADS.items()}
WORKLOADS["ref-align"] = run_align


# ---------------------------------------------------------------------------
# metadata and entry point
# ---------------------------------------------------------------------------


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_info() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def metadata(seed: int, mem_mb) -> dict:
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "mem_available_mb_at_start": mem_mb,
            "seed": seed, "src_lines": src_lines()}


def write_trace(tracer: Tracer, workload: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump({"columns": ["name", "start", "end", "parent", "step"],
                   "spans": tracer.spans, "counters": tracer.counters}, f)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    mem_mb = mem_available_mb()

    tracer = untrace = None
    if args.trace:
        tracer = Tracer()
        untrace = instrument(tracer)
    result = WORKLOADS[args.workload](args.seed, args.seconds, tracer, untrace)
    ops: OpLog = result["ops"]
    metrics = result["metrics"]
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    detail = {**result["detail"], "workload": args.workload,
              "failures": ops.reasons, "meta": metadata(args.seed, mem_mb)}
    if tracer is not None:
        detail["trace_file"] = str(write_trace(tracer, args.workload, args.seed)
                                   .relative_to(ROOT))
    correct = ops.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
