"""Acceptance gate: the ten headline guarantees, one test each.

Each test finishes by printing a single pass/fail line (shown in the pytest
summary via -rP) and asserting the same condition, so a red run always names
the guarantee that broke.
"""

import time

import numpy as np
import pytest

from ce_reference import train_ce_reference
from convmkit import tensor as T
from convmkit.audit import REFERENCE_COUNTS, REFERENCE_TOTAL, audit, solve_groups
from convmkit.da import (DAConfig, DADatasets, SolverConfig, evaluate,
                         sampling_ratio, train_da)
from convmkit.gradcheck import run_default_suite
from convmkit.mmd import mmd_brute_force, mmd_loss
from convmkit.network import (attach_da_heads, attach_decoders, build_network,
                              propagate_shapes, reference_spec, tiny_spec)
from convmkit.optim import poly_lr
from convmkit.synth import SynthParams, generate, normalize
from convmkit.tensor import Tensor


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:>2}] {desc}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_parameter_audit():
    t0 = time.time()
    report = audit(reference_spec(), REFERENCE_COUNTS)
    elapsed = time.time() - t0
    by_layer = {e.layer: e.computed for e in report.entries}
    counts_ok = all(by_layer[k] == v for k, v in REFERENCE_COUNTS.items())
    ok = (counts_ok and report.passed and report.total == REFERENCE_TOTAL
          and elapsed < 1.0)
    _report(1, "per-layer parameter audit, total 4,118,080", ok,
            f"total={report.total:,} in {elapsed:.3f}s")


def test_criterion_02_group_factor_derivation():
    spec = reference_spec()
    factors = []
    for i in spec.indices("conv_m"):
        cfg = spec.layers[i].params["cfg"]
        factors.append(solve_groups(cfg, REFERENCE_COUNTS[i + 1]))
    ok = factors == [4] * 7
    _report(2, "group factor g=4 recovered from all seven module rows", ok,
            f"factors={factors}")


def test_criterion_03_shape_audit():
    spec = reference_spec()
    expected = [(3, 224, 224), (64, 224, 224), (64, 112, 112),
                (160, 112, 112), (160, 56, 56), (320, 56, 56), (320, 56, 56),
                (320, 28, 28), (576, 28, 28), (576, 28, 28), (576, 14, 14),
                (688, 14, 14), (688, 14, 14), (688, 1, 1), (1000, 1, 1)]
    static = propagate_shapes(spec)
    net = build_network(spec, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(0).random((1, 3, 224, 224),
                                                dtype=np.float32))
    t0 = time.time()
    st = net.forward(x)
    elapsed = time.time() - t0
    runtime_ok = elapsed < 10.0
    static_ok = static == expected
    # stages 1-13 are [N, C, H, W]; global pooling flattens to [N, 688] and
    # the classifier emits [N, 1000]
    dyn_ok = all(st.layer_outputs[i].shape == (1,) + expected[i]
                 for i in range(13))
    dyn_ok = dyn_ok and st.layer_outputs[13].shape == (1, 688)
    dyn_ok = dyn_ok and st.logits.shape == (1, 1000)
    ok = static_ok and dyn_ok and runtime_ok
    _report(3, "224x224 forward reproduces every published stage size", ok,
            f"forward {elapsed:.2f}s")


def test_criterion_04_gradient_suite():
    t0 = time.time()
    results = run_default_suite(eps=1e-4, tol=1e-4, seed=1234)
    elapsed = time.time() - t0
    worst = max(r.max_rel_error for r in results.values())
    ok = all(r.passed for r in results.values()) and elapsed < 120.0
    _report(4, "finite-difference gradient suite under 1e-4", ok,
            f"worst={worst:.2e} over {len(results)} cases in {elapsed:.1f}s")


def test_criterion_05_mmd_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        ns, nt, d = rng.integers(2, 12, size=3)
        s = rng.normal(0, 1, (ns, d))
        t = rng.normal(0.5, 1.3, (nt, d))
        sigma = float(rng.uniform(0.5, 2.0))
        got = mmd_loss(Tensor(s, dtype=np.float64),
                       Tensor(t, dtype=np.float64), sigma).data.item()
        worst = max(worst, abs(got - mmd_brute_force(s, t, sigma)))
    x = rng.normal(0, 1, (16, 5))
    self_mmd = mmd_loss(Tensor(x, dtype=np.float64),
                        Tensor(x.copy(), dtype=np.float64), 1.0).data.item()
    a = rng.normal(0, 1, (7, 4))
    b = rng.normal(1, 1, (9, 4))
    ab = mmd_loss(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64), 1.2).data.item()
    ba = mmd_loss(Tensor(b, dtype=np.float64), Tensor(a, dtype=np.float64), 1.2).data.item()
    ok = worst <= 1e-10 and self_mmd == 0.0 and ab == ba
    _report(5, "MMD matches the brute-force oracle; zero and symmetric", ok,
            f"worst oracle gap={worst:.2e}, self={self_mmd!r}")


def test_criterion_06_schedules():
    lr0 = poly_lr(0.0009, 0, 1000, 0.5)
    lrN = poly_lr(0.0009, 1000, 1000, 0.5)
    cfg = DAConfig()
    r0 = sampling_ratio(0, 400, cfg)
    rN = sampling_ratio(400, 400, cfg)
    rng = np.random.default_rng(3)
    linear_ok = all(
        sampling_ratio(s, 400, cfg) == 0.3 + (0.7 - 0.3) * (s / 400)
        for s in rng.integers(0, 401, size=50))
    ok = lr0 == 0.0009 and lrN == 0.0 and r0 == 0.3 and rN == 0.7 and linear_ok
    _report(6, "poly LR and sampling-ratio schedules exact at endpoints", ok,
            f"lr0={lr0}, lrN={lrN}, r0={r0}, rN={rN}")


def test_criterion_07_unpool_and_crop_contracts():
    rng = np.random.default_rng(17)
    ok = True
    detail = ""
    for h, k, s in [(8, 2, 2), (9, 3, 2), (14, 3, 2), (17, 3, 3), (12, 2, 1)]:
        x = rng.permutation(h * h).reshape(1, 1, h, h).astype(np.float64)
        xt = Tensor(x)
        pooled, idx = T.maxpool2d_with_indices(xt, k, s)
        restored = T.unpool2d(pooled, idx, (h, h))
        flat = restored.data.reshape(1, 1, -1)
        placed = np.take_along_axis(flat, idx.reshape(1, 1, -1), axis=2)
        if not np.array_equal(placed.reshape(pooled.shape), pooled.data):
            ok = False
            detail = f"unpool misplaced a value at (H={h}, k={k}, s={s})"
    for h, k, s in [(5, 3, 1), (5, 3, 2), (7, 2, 2), (9, 5, 3), (6, 4, 2)]:
        x = Tensor(rng.normal(0, 1, (1, 2, h, h)))
        w = Tensor(rng.normal(0, 1, (2, 2, k, k)))
        y = T.conv2d_transpose_cropped(x, w, stride=s)
        if y.shape[2:] != (h, h):
            ok = False
            detail = f"deconv changed size at (H={h}, k={k}, s={s}): {y.shape}"
    _report(7, "unpool placement and size-preserving deconv crop", ok, detail)


def _fresh_model(seed, num_classes, *, decoders):
    rng = np.random.default_rng(seed)
    net = build_network(tiny_spec(num_classes=num_classes), rng=rng)
    attach_da_heads(net, num_classes, rng=rng)
    if decoders:
        attach_decoders(net, rng=np.random.default_rng(seed + 1))
    return net


def test_criterion_08_ablation_reduces_to_supervised():
    rng = np.random.default_rng(21)
    n, k = 48, 4
    sx = rng.normal(0, 1, (n, 3, 32, 32)).astype(np.float32)
    sy = rng.integers(0, k, n).astype(np.int64)
    tx = rng.normal(0.3, 1, (n, 3, 32, 32)).astype(np.float32)
    sets = DADatasets(source_x=sx, source_y=sy, target_x=tx)
    solver = SolverConfig(max_steps=200, batch_size=8, seed=13)
    cfg = DAConfig(freeze_set=[], no_gmmd=True, no_recons=True)
    m_da = _fresh_model(7, k, decoders=True)
    m_sup = _fresh_model(7, k, decoders=False)
    train_da(m_da, sets, cfg, solver)
    train_ce_reference(m_sup, sets, cfg, solver)
    pa, pb = m_da.parameters(), m_sup.parameters()
    ok = set(pa) == set(pb) and all(
        pa[name].data.tobytes() == pb[name].data.tobytes() for name in pa)
    _report(8, "ablated DA trajectory bit-identical to supervised, 200 steps", ok)


def test_criterion_09_desk_scale_adaptation():
    params = SynthParams(num_classes=5, per_class=40, size=32, seed=0)
    sx, sy, tx, ty = generate(params)
    pooled = np.concatenate([sx, tx])
    stats = {"mean": pooled.mean(axis=(0, 2, 3)).tolist(),
             "std": pooled.std(axis=(0, 2, 3)).tolist()}
    sets = DADatasets(source_x=normalize(sx, stats), source_y=sy,
                      target_x=normalize(tx, stats), target_y=ty)
    epoch = int(np.ceil(len(sx) / 32))
    src_acc, da_acc, mmd_drops = [], [], []
    t0 = time.time()
    for seed in (0, 1, 2):
        solver = SolverConfig(base_lr=0.003, max_steps=300, batch_size=32,
                              seed=seed)
        baseline = _fresh_model(seed, 5, decoders=False)
        train_da(baseline, sets,
                 DAConfig(freeze_set=[], no_gmmd=True, no_recons=True), solver)
        src_acc.append(evaluate(baseline, sets.target_x, ty))

        model = _fresh_model(seed, 5, decoders=True)
        hist = train_da(model, sets, DAConfig(freeze_set=[]), solver)
        da_acc.append(evaluate(model, sets.target_x, ty))
        mmd_epoch1 = float(np.mean([np.mean(row[5:8]) for row in hist[:epoch]]))
        mmd_final = float(np.mean([np.mean(row[5:8]) for row in hist[-epoch:]]))
        mmd_drops.append((mmd_epoch1, mmd_final))
    per_seed = (time.time() - t0) / 3
    gap = float(np.mean(da_acc) - np.mean(src_acc))
    mmd_ok = all(final < first for first, final in mmd_drops)
    ok = gap >= 0.05 and mmd_ok and per_seed < 1800.0
    _report(9, "DA beats source-only by >= 5 points and final MMD drops", ok,
            f"gap={100 * gap:.1f}pts, per seed "
            f"{[round(100 * (d - s), 1) for d, s in zip(da_acc, src_acc)]}pts, "
            f"mmd={mmd_drops}, {per_seed:.0f}s/seed")


def test_criterion_10_dropout_statistics():
    rng = np.random.default_rng(101)
    x = Tensor(np.ones((1000, 1000), dtype=np.float32))
    out = T.dropout(x, 0.2, training=True, rng=rng)
    frac = float(np.mean(out.data == 0.0))
    eval_out = T.dropout(x, 0.2, training=False, rng=rng)
    identity = np.array_equal(eval_out.data, x.data)
    ok = abs(frac - 0.2) <= 0.005 and identity
    _report(10, "dropout zero fraction 0.2 +/- 0.005; eval is identity", ok,
            f"fraction={frac:.4f}")
