"""Tests of the benchmark's own helpers: the percentile rule, self time from
nested spans, and failed-op accounting.

    python3 -m pytest perfbench
"""

import itertools
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import stats


# -- percentile rule ----------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(1, 51)) is None
    p = stats.tail_percentile(range(1, 101))
    assert (p["pct"], p["n"], p["beyond"]) == (90, 100, 10)
    p = stats.tail_percentile(range(1, 201))
    assert (p["pct"], p["beyond"]) == (95, 10)


def test_tail_percentile_counts_ties_as_not_beyond():
    assert stats.tail_percentile([1.0] * 95 + [2.0] * 9) is None


# -- self time from nested spans ----------------------------------------------


def _tracer():
    ticks = itertools.count()
    return spans.Tracer(clock=lambda: float(next(ticks)))


def test_self_time_subtracts_children_and_merges_overlap():
    rows = [["step", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 3.0, 6.0, 0, 0],   # overlaps a: together they cover 1..6
            ["c", 2.0, 3.0, 1, 0]]
    assert spans.self_times(rows) == [5.0, 2.0, 3.0, 1.0]


def test_backward_closure_spans_nest_under_backward():
    from convmkit import tensor as T

    original = T.relu
    tracer = _tracer()
    restore = spans.instrument(tracer)
    try:
        tracer.next_step()
        x = T.Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
        y = T.relu(x)
        T.tsum(y).backward()
        tracer.end_steps()
    finally:
        restore()
    assert T.relu is original

    names = [s[0] for s in tracer.spans]
    assert names == ["da.train_loop", "tensor.relu", "trace.tape_walk",
                     "tensor.backward", "tensor.relu.bwd"]
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    bwd = tracer.spans[by_name["tensor.relu.bwd"]]
    assert bwd[3] == by_name["tensor.backward"]
    assert all(s[4] == 0 for s in tracer.spans)

    own = spans.self_times(tracer.spans)
    back = tracer.spans[by_name["tensor.backward"]]
    assert own[by_name["tensor.backward"]] == (back[2] - back[1]) - (bwd[2] - bwd[1])
    step = tracer.spans[0]
    children = sum(tracer.spans[by_name[n]][2] - tracer.spans[by_name[n]][1]
                   for n in ("tensor.relu", "trace.tape_walk", "tensor.backward"))
    assert own[0] == (step[2] - step[1]) - children

    m = spans.layer_metrics(tracer, [0])
    assert m["tensor.relu.calls"]["value"] == 1
    assert m["tensor.relu.bwd_ms"]["value"] == 1e3 * (bwd[2] - bwd[1])
    assert m["tensor.tape_nodes"]["value"] == 2  # relu and tsum
    assert m["tensor.conv2d.calls"]["value"] == 0
    assert {name for name, *_ in spans.LAYER_METRICS} == set(m)


def test_spans_outside_measured_steps_do_not_count_per_step():
    tracer = _tracer()
    for _ in range(3):
        tracer.next_step()
        with tracer.span("optim.SGDMomentum.step"):
            pass
    tracer.end_steps()
    with tracer.span("da.evaluate"):
        pass
    m = spans.layer_metrics(tracer, [1, 2])
    assert m["optim.SGDMomentum.step_ms"]["value"] == 1e3  # one tick per step
    assert m["da.evaluate_ms"]["value"] == 1e3


# -- failed-op accounting -------------------------------------------------------


def test_oplog_records_memory_error_and_keeps_going():
    ops = stats.OpLog()

    def boom():
        raise MemoryError("cannot allocate")

    assert ops.guard("alloc", boom) is None
    assert ops.guard("fine", lambda: 3) == 3
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "MemoryError" in ops.reasons[0]


def test_divergence_in_training_is_a_failed_op(monkeypatch):
    import workloads

    w = workloads.TRAIN_WORKLOADS["tiny-source-only"]

    def diverging(model, data, cfg, solver, *, on_step):
        on_step(0, [0, 0.1, 0.3, 1.0, 1.0] + [0.0] * 5)
        on_step(1, [1, 0.1, 0.3, math.nan, math.nan] + [0.0] * 5)
        raise AssertionError("training should have stopped at the NaN step")

    monkeypatch.setattr(workloads.da, "train_da", diverging)
    ops = stats.OpLog()
    durations = workloads.train(None, None, w, 0, ops, seconds=60.0)
    assert len(durations) == 2
    assert (ops.attempted, ops.failed) == (2, 1)

    def out_of_memory(model, data, cfg, solver, *, on_step):
        raise MemoryError

    monkeypatch.setattr(workloads.da, "train_da", out_of_memory)
    ops = stats.OpLog()
    assert workloads.train(None, None, w, 0, ops, seconds=60.0) == []
    assert (ops.attempted, ops.failed) == (1, 1)


def test_crashed_worker_is_recorded_and_other_workloads_still_run():
    good = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"run_s": {"value": 1.5, "unit": "s"}}}
    commands = {
        "oom": [sys.executable, "-c", "raise MemoryError"],
        "ok": [sys.executable, "-c", f"print('noise'); print({json.dumps(json.dumps(good))})"],
    }
    results = run.run_all(["oom", "ok"], lambda name: run.run_worker(commands[name]))
    assert results["oom"]["correct"] is False
    assert (results["oom"]["attempted"], results["oom"]["failed"]) == (1, 1)
    assert results["ok"] == good


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    shutil.copy(run.__file__, bench / "run.py")
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "tiny-da",
                           "--seed", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_worker_and_parent_agree_on_workload_names():
    import workloads

    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__]))
