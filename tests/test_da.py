"""Domain-adaptation objective, sampling schedule, and the training loop."""

import gc

import numpy as np
import pytest

from ce_reference import train_ce_reference
from convmkit import da
from convmkit import tensor as T
from convmkit.da import (
    DAConfig,
    DADatasets,
    DomainBatch,
    DomainSampler,
    SolverConfig,
    da_loss,
    default_freeze_set,
    default_mmd_layers,
    evaluate,
    metric_columns,
    sampling_ratio,
    train_da,
)
from convmkit.network import (
    attach_da_heads,
    attach_decoders,
    build_network,
    tiny_spec,
)


NUM_CLASSES = 4


def tiny_model(seed=0, *, with_decoders=False, num_classes=NUM_CLASSES):
    rng = np.random.default_rng(seed)
    net = build_network(tiny_spec(num_classes=num_classes), rng=rng)
    attach_da_heads(net, num_classes, rng=rng)
    if with_decoders:
        attach_decoders(net, rng=np.random.default_rng(seed + 1))
    return net


def fake_data(rng, n, num_classes=NUM_CLASSES, size=32):
    x = rng.normal(0, 1, size=(n, 3, size, size)).astype(np.float32)
    y = rng.integers(0, num_classes, size=n).astype(np.int64)
    return x, y


class TestSamplingSchedule:
    def test_endpoints(self):
        cfg = DAConfig()
        assert sampling_ratio(0, 100, cfg) == pytest.approx(0.3)
        assert sampling_ratio(100, 100, cfg) == pytest.approx(0.7)

    def test_midpoint_linear(self):
        cfg = DAConfig(sampling_start=0.2, sampling_end=0.6)
        assert sampling_ratio(50, 100, cfg) == pytest.approx(0.4)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            sampling_ratio(101, 100, DAConfig())

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            DAConfig(sampling_start=0.8, sampling_end=0.2).validate()


class TestBatchComposition:
    def test_counts_follow_ratio(self):
        rng = np.random.default_rng(0)
        sx, sy = fake_data(rng, 40)
        tx, _ = fake_data(rng, 40)
        b = DomainSampler(sx, sy, tx, batch_size=20, rng=rng).make_batch(0.3)
        assert int(b.is_target.sum()) == 6
        assert len(b.source_rows) == 14
        assert np.all(b.labels[b.target_rows] == -1)
        assert np.all(b.labels[b.source_rows] >= 0)

    def test_source_rows_come_first(self):
        rng = np.random.default_rng(1)
        sx, sy = fake_data(rng, 10)
        tx, _ = fake_data(rng, 10)
        b = DomainSampler(sx, sy, tx, batch_size=8, rng=rng).make_batch(0.5)
        assert not b.is_target[:4].any() and b.is_target[4:].all()

    def test_epoch_covers_pool_without_replacement(self):
        rng = np.random.default_rng(2)
        sx, sy = fake_data(rng, 12, size=4)
        tx, _ = fake_data(rng, 12, size=4)
        sampler = DomainSampler(sx, sy, tx, batch_size=8, rng=rng)
        seen = []
        for _ in range(3):  # 3 batches x 4 source rows = one source epoch
            b = sampler.make_batch(0.5)
            # recover which source rows were drawn by matching the data
            for row in b.source_rows:
                matches = np.nonzero((sx == b.x[row]).all(axis=(1, 2, 3)))[0]
                seen.append(int(matches[0]))
        assert sorted(seen) == list(range(12))

    def test_small_pool_warns_and_falls_back(self):
        rng = np.random.default_rng(3)
        sx, sy = fake_data(rng, 4, size=4)
        tx, _ = fake_data(rng, 2, size=4)
        sampler = DomainSampler(sx, sy, tx, batch_size=8, rng=rng)
        with pytest.warns(UserWarning, match="replacement"):
            b = sampler.make_batch(0.5)
        assert int(b.is_target.sum()) == 4  # still delivers the full share


class TestDALoss:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.model = tiny_model(seed=0, with_decoders=True)
        sx, sy = fake_data(self.rng, 16)
        tx, _ = fake_data(self.rng, 16)
        self.batch = DomainSampler(sx, sy, tx, batch_size=8,
                                   rng=self.rng).make_batch(0.5)

    def test_components_sum_to_total(self):
        cfg = DAConfig(mmd_weight=0.3, recon_weight=1.0)
        _, comps = da_loss(self.model, self.batch, cfg, training=False)
        expect = (comps["ce"] + 0.3 * sum(comps["mmd"])
                  + np.mean(comps["recon"]))
        assert comps["total"] == pytest.approx(expect, rel=1e-6)
        assert len(comps["mmd"]) == 3 and len(comps["recon"]) == 2

    def test_full_ablation_equals_plain_ce(self):
        cfg = DAConfig(no_gmmd=True, no_recons=True)
        total, comps = da_loss(self.model, self.batch, cfg, training=False)
        st = self.model.forward(T.Tensor(self.batch.x), training=False)
        src = self.batch.source_rows
        ce = T.softmax_cross_entropy(T.take_rows(st.logits, src),
                                     self.batch.labels[src])
        assert total.data.item() == ce.data.item()
        assert comps["mmd"] == [] and comps["recon"] == []

    def test_mmd_small_when_domains_coincide(self):
        # put the same images on both sides of the batch
        b = self.batch
        half = len(b.x) // 2
        b.x[half:] = b.x[:half]
        cfg = DAConfig(no_recons=True)
        _, comps = da_loss(self.model, b, cfg, training=False)
        assert all(abs(v) < 1e-8 for v in comps["mmd"])

    def test_all_source_batch_rejected_for_mmd(self):
        b = self.batch
        b.is_target[:] = False
        b.labels[:] = 0
        with pytest.raises(ValueError, match="target"):
            da_loss(self.model, b, DAConfig(), training=False)

    def test_all_target_batch_rejected(self):
        b = self.batch
        b.is_target[:] = True
        with pytest.raises(ValueError, match="source"):
            da_loss(self.model, b, DAConfig(), training=False)

    def test_gradients_reach_taps_and_decoders(self):
        cfg = DAConfig()
        total, _ = da_loss(self.model, self.batch, cfg, training=False)
        total.backward()
        params = self.model.parameters()
        tap = default_mmd_layers(self.model)[0]
        touched = [n for n, p in params.items()
                   if n.startswith(tap) or n.startswith("decoder")]
        assert touched
        for name in touched:
            g = params[name].grad
            assert g is not None and np.any(g != 0), name


class TestDALossFiniteDifference:
    """The whole ``da_loss`` against finite differences of its value, on a
    float64 tiny net with the head and both decoders, in training mode.

    Every evaluation draws its dropout masks from a freshly seeded rng, and
    each tap's bandwidth is held at its value at the unperturbed parameters:
    the analytic gradient treats it as a constant. A probe whose two one-sided
    differences disagree by more than ``TOL`` sits on a ReLU kink or a pool
    tie; such probes are counted and left out.
    """

    EPS, TOL, PER_TENSOR = 1e-6, 1e-6, 3

    @staticmethod
    def net_and_batch(freeze=()):
        rng = np.random.default_rng(3)
        net = build_network(tiny_spec(num_classes=3, input_size=16), rng=rng,
                            dtype=np.float64)
        attach_da_heads(net, 3, rng=rng)
        attach_decoders(net, rng=rng)
        for name, p in net.parameters().items():
            p.requires_grad = name.split(".", 1)[0] not in freeze
        is_target = np.arange(6) >= 3
        batch = DomainBatch(x=rng.standard_normal((6, 3, 16, 16)),
                            labels=np.where(is_target, -1, rng.integers(0, 3, 6)),
                            is_target=is_target)
        return net, batch

    def check(self, monkeypatch, cfg, freeze=()):
        """(worst mismatch, probes compared); fails if more than 5% of the
        probes are left out."""
        net, batch = self.net_and_batch(freeze)
        real, sigmas = da.median_bandwidth, []

        def record(feats):
            sigmas.append(real(feats))
            return sigmas[-1]

        monkeypatch.setattr(da, "median_bandwidth", record)
        da_loss(net, batch, cfg, rng=np.random.default_rng(7))[0].backward()
        if cfg.no_gmmd:
            assert sigmas == []

        def value():
            held = iter(list(sigmas))
            monkeypatch.setattr(da, "median_bandwidth", lambda f: next(held))
            with T.no_grad():
                total, _ = da_loss(net, batch, cfg, rng=np.random.default_rng(7))
            return total.data.item()

        def close(a, b):
            return abs(a - b) <= self.TOL * max(1.0, abs(a), abs(b))

        f0, eps = value(), self.EPS
        rng = np.random.default_rng(11)
        worst, compared, excluded = 0.0, 0, 0
        for name, p in net.parameters().items():
            if not p.requires_grad:
                assert p.grad is None, name
                continue
            for j in rng.choice(p.size, size=min(self.PER_TENSOR, p.size), replace=False):
                keep = p.data.flat[j]
                p.data.flat[j] = keep + eps
                fp = value()
                p.data.flat[j] = keep - eps
                fm = value()
                p.data.flat[j] = keep
                if not close((fp - f0) / eps, (f0 - fm) / eps):
                    excluded += 1
                    continue
                analytic = 0.0 if p.grad is None else p.grad.flat[j]
                numeric = (fp - fm) / (2 * eps)
                worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
                compared += 1
        assert excluded <= 0.05 * (compared + excluded), (excluded, compared)
        return worst, compared

    @pytest.mark.parametrize("cfg,freeze", [
        (DAConfig(), ()),
        (DAConfig(no_gmmd=True), ()),
        (DAConfig(no_recons=True), ()),
        (DAConfig(), ("layer2", "layer4")),
    ], ids=["full", "no_gmmd", "no_recons", "frozen"])
    def test_gradient_matches_finite_differences(self, monkeypatch, cfg, freeze):
        worst, compared = self.check(monkeypatch, cfg, freeze)
        assert compared > 0
        assert worst <= self.TOL, worst

    def test_zeroed_unpool_input_gradient_is_caught(self, monkeypatch):
        unpool = T.unpool2d

        def broken(x, indices, size):
            out = unpool(x, indices, size)
            bwd = out._backward
            out._backward = lambda g: bwd(np.zeros_like(g))
            return out

        monkeypatch.setattr(T, "unpool2d", broken)
        worst, _ = self.check(monkeypatch, DAConfig())
        assert worst > self.TOL

    def test_flipped_mmd_source_gradient_is_caught(self, monkeypatch):
        mmd = da.mmd_loss

        def broken(fs, ft, sigma):
            flipped = T._make(fs.data, (fs,), lambda g: fs._accumulate(-g))
            return mmd(flipped, ft, sigma)

        monkeypatch.setattr(da, "mmd_loss", broken)
        worst, _ = self.check(monkeypatch, DAConfig(no_recons=True))
        assert worst > self.TOL


class TestDefaults:
    def test_mmd_taps_are_last_three_modules(self):
        model = tiny_model()
        taps = default_mmd_layers(model)
        idx = model.spec.indices("conv_m")
        assert taps == [model.spec.layer_name(i) for i in idx[-3:]]

    def test_freeze_set_is_stem_plus_first_three_modules(self):
        model = tiny_model()
        frozen = default_freeze_set(model)
        assert len(frozen) == 4
        stem = next(i for i, e in enumerate(model.spec.layers)
                    if e.kind == "conv")
        assert frozen[0] == model.spec.layer_name(stem)
        assert frozen[1:] == [model.spec.layer_name(i)
                              for i in model.spec.indices("conv_m")[:3]]


class TestTrainingLoops:
    def make_sets(self, seed=0, n=24):
        rng = np.random.default_rng(seed)
        sx, sy = fake_data(rng, n)
        tx, ty = fake_data(rng, n)
        return DADatasets(source_x=sx, source_y=sy, target_x=tx, target_y=ty)

    def test_frozen_parameters_do_not_move(self):
        model = tiny_model(seed=3, with_decoders=True)
        frozen = default_freeze_set(model)
        before = {n: p.data.copy() for n, p in model.parameters().items()
                  if any(n.startswith(f) for f in frozen)}
        assert before
        solver = SolverConfig(max_steps=2, batch_size=8, seed=5)
        train_da(model, self.make_sets(), DAConfig(), solver)
        after = model.parameters()
        for name, w in before.items():
            assert after[name].data.tobytes() == w.tobytes(), name
            # off the tape: no gradient was ever computed for it
            assert not after[name].requires_grad and after[name].grad is None, name
        assert all(p.requires_grad for n, p in after.items() if n not in before)

    @pytest.mark.parametrize("option,names,bad", [
        ("mmd_layers", ["layer8", "layer99"], "layer99"),
        ("freeze_set", ["layr2"], "layr2")])
    def test_unknown_layer_names_rejected_before_step_0(self, option, names, bad):
        model = tiny_model(seed=3, with_decoders=True)
        solver = SolverConfig(max_steps=1, batch_size=8, seed=5)
        steps = []
        with pytest.raises(ValueError, match=option) as exc:
            train_da(model, self.make_sets(), DAConfig(**{option: names}), solver,
                     on_step=lambda step, row: steps.append(step))
        # names the bad layer and lists the valid ones
        assert bad in str(exc.value) and "'layer8'" in str(exc.value)
        assert steps == []

    def test_metrics_columns_follow_taps(self):
        model = tiny_model(seed=4, with_decoders=True)
        taps = ["layer4", "layer6", "layer8", "layer9"]
        solver = SolverConfig(max_steps=2, batch_size=8, seed=6)
        hist = train_da(model, self.make_sets(), DAConfig(mmd_layers=taps), solver)
        columns = metric_columns(len(taps))
        assert columns[5:9] == [f"loss_mmd_tap{i}" for i in range(1, 5)]
        assert all(len(row) == len(columns) == 11 for row in hist)
        assert all(v != 0.0 for row in hist for v in row[5:])

    def test_step_graph_freed_before_next_step(self):
        def live_tensors():
            gc.collect()
            return sum(isinstance(o, T.Tensor) for o in gc.get_objects())

        model = tiny_model(seed=4, with_decoders=True)
        sets = self.make_sets()
        solver = SolverConfig(max_steps=2, batch_size=8, seed=6)
        before = live_tensors()  # the parameters, plus whatever else is alive
        live = []
        train_da(model, sets, DAConfig(freeze_set=[]), solver,
                 on_step=lambda step, row: live.append(live_tensors()))
        assert live == [before, before]

    def test_history_shape_and_finite(self):
        model = tiny_model(seed=4, with_decoders=True)
        solver = SolverConfig(max_steps=3, batch_size=8, seed=6)
        hist = train_da(model, self.make_sets(), DAConfig(), solver)
        assert len(hist) == 3 and all(len(r) == 10 for r in hist)
        assert all(np.isfinite(r[3]) for r in hist)
        assert hist[0][1] == pytest.approx(0.0009)  # poly LR at step 0

    def test_lr_multiplier_reaches_head_and_decoders(self):
        # at multiplier 0 every parameter of the attached parts keeps its
        # bits although it gets a gradient, and the encoder moves
        model = tiny_model(seed=4, with_decoders=True)
        params = model.parameters()  # train_da strips the decoders afterwards
        before = {n: p.data.copy() for n, p in params.items()}
        solver = SolverConfig(max_steps=1, batch_size=8, seed=6)
        cfg = DAConfig(freeze_set=[], head_lr_multiplier=0.0)
        train_da(model, self.make_sets(), cfg, solver)
        parts = [n for n in params if n.startswith(("head.", "decoder"))]
        assert len(parts) == 2 + 9  # fc1, fc2; D1 proj + 3 stages + final, D2 3 + final
        for name in parts:
            assert np.any(params[name].grad), name
            assert params[name].data.tobytes() == before[name].tobytes(), name
        for name in set(params) - set(parts):
            assert params[name].data.tobytes() != before[name].tobytes(), name

    def test_decoders_stripped_after_training(self):
        model = tiny_model(seed=4, with_decoders=True)
        solver = SolverConfig(max_steps=1, batch_size=8, seed=6)
        train_da(model, self.make_sets(), DAConfig(), solver)
        assert model.decoders is None
        assert not any(n.startswith("decoder")
                       for n in model.parameters())

    def test_ablated_da_matches_supervised_trajectory(self):
        # with both auxiliary terms removed, the training loop and a plain
        # CE loop consume identical sample/dropout streams and must produce
        # bit-identical shared parameters, although the reference keeps the
        # frozen layers on the tape
        sets = self.make_sets(seed=9)
        solver = SolverConfig(max_steps=3, batch_size=8, seed=11)
        cfg = DAConfig(no_gmmd=True, no_recons=True)

        m_da = tiny_model(seed=5, with_decoders=True)
        m_sup = tiny_model(seed=5, with_decoders=False)
        train_da(m_da, sets, cfg, solver)
        train_ce_reference(m_sup, sets, cfg, solver)

        pa, pb = m_da.parameters(), m_sup.parameters()
        assert set(pa) == set(pb)
        for name in pa:
            assert pa[name].data.tobytes() == pb[name].data.tobytes(), name

    def test_full_da_differs_from_supervised(self):
        sets = self.make_sets(seed=9)
        solver = SolverConfig(max_steps=2, batch_size=8, seed=11)
        # the tiny profile has exactly three modules, so the default freeze
        # set covers the whole encoder; unfreeze it to let the auxiliary
        # losses leave a mark
        m_da = tiny_model(seed=5, with_decoders=True)
        m_sup = tiny_model(seed=5)
        train_da(m_da, sets, DAConfig(freeze_set=[]), solver)
        train_da(m_sup, sets,
                 DAConfig(freeze_set=[], no_gmmd=True, no_recons=True), solver)
        pa, pb = m_da.parameters(), m_sup.parameters()
        moved = [n for n in pa if pa[n].data.tobytes() != pb[n].data.tobytes()]
        assert moved

    def test_divergence_guard(self):
        model = tiny_model(seed=4, with_decoders=True)
        for p in model.parameters().values():
            p.data *= 1e30  # force an overflow in the forward pass
        solver = SolverConfig(max_steps=1, batch_size=8, seed=6)
        with pytest.raises((RuntimeError, FloatingPointError)):
            with np.errstate(over="raise"):
                train_da(model, self.make_sets(), DAConfig(), solver)


class TestEvaluate:
    def test_perfectly_separable_labels(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(0)
        x, _ = fake_data(rng, 10)
        preds = np.concatenate([model.predict(T.Tensor(x[i:i + 4]))
                                for i in range(0, 10, 4)])
        assert evaluate(model, x, preds, batch_size=4) == 1.0
        wrong = (preds + 1) % NUM_CLASSES
        assert evaluate(model, x, wrong, batch_size=4) == 0.0

    def test_trained_model_evaluates_without_tape(self, monkeypatch):
        model = tiny_model(seed=4, with_decoders=True)
        sets = TestTrainingLoops().make_sets()
        solver = SolverConfig(max_steps=1, batch_size=8, seed=6)
        train_da(model, sets, DAConfig(freeze_set=[]), solver)
        assert all(p.requires_grad for p in model.parameters().values())
        forward = model.forward
        states = []

        def recording_forward(*args, **kwargs):
            states.append(forward(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(model, "forward", recording_forward)
        evaluate(model, sets.target_x, sets.target_y, batch_size=8)
        assert len(states) == 3
        for st in states:
            assert st.logits._parents == () and st.logits._backward is None
        # the same forward outside evaluate still records the tape
        assert model.predict(T.Tensor(sets.target_x[:8])) is not None
        assert states[-1].logits._parents

    def test_predictions_bitwise_equal_without_tape(self):
        model = tiny_model(seed=2)
        for p in model.parameters().values():
            p.requires_grad = True
        x, _ = fake_data(np.random.default_rng(1), 6)
        taped = model.forward(T.Tensor(x), training=False).logits
        with T.no_grad():
            untaped = model.forward(T.Tensor(x), training=False).logits
        assert taped._parents and not untaped._parents
        assert taped.data.tobytes() == untaped.data.tobytes()

    def test_empty_set_rejected(self):
        model = tiny_model(seed=2)
        with pytest.raises(ValueError):
            evaluate(model, np.empty((0, 3, 32, 32), np.float32), np.empty(0))
