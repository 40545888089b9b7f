import numpy as np
import pytest

from convmkit import audit as A
from convmkit import tensor as T
from convmkit.layers import ConvM, ConvMConfig
from convmkit.network import (LayerSpec, NetworkSpec, build_network,
                              propagate_shapes, reference_spec,
                              regular_conv_spec, tiny_spec)

LAYER4 = ConvMConfig(n_in=64, c1=64, c2=64, c3=64, c4=64, dic1=64, dic2=64,
                     c5=32, dec1=32, dec2=32)
LAYER12 = ConvMConfig(n_in=576, c1=160, c2=256, c3=280, c4=160, dic1=256,
                      dic2=280, c5=64, dec1=128, dec2=128)
LAYER13 = ConvMConfig(n_in=688, c1=160, c2=256, c3=280, c4=160, dic1=256,
                      dic2=280, c5=64, dec1=128, dec2=128)


class TestBranchCounts:
    def test_layer4_branch1(self):
        assert A.branch_counts(LAYER4)[0] == 4096 + 9216 + 9216 == 22_528

    def test_layer4_total(self):
        assert A.count_conv_m(LAYER4) == 51_712

    def test_unit_case(self):
        cfg = ConvMConfig(n_in=1, c1=1, c2=1, c3=1, c4=1, dic1=1, dic2=1,
                          c5=1, dec1=1, dec2=1, k=1, groups=1)
        assert A.branch_counts(cfg) == (3, 3, 3)

    def test_layer13(self):
        assert A.count_conv_m(LAYER13) == 826_368

    def test_non_integer_division_rejected(self):
        cfg = ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                          c5=4, dec1=4, dec2=4, groups=7)
        with pytest.raises(ValueError):
            A.branch_counts(cfg)


class TestCountNetwork:
    def test_stem_count(self):
        rep = A.count_network(reference_spec())
        assert rep.entries[0].computed == 9_408

    def test_reference_per_layer(self):
        rep = A.count_network(reference_spec())
        counts = [e.computed for e in rep.entries]
        assert counts == [9408, 51712, 217088, 268288, 591872,
                          681984, 783360, 826368, 688000]
        assert rep.total == 4_118_080

    def test_additivity_without_conv_m(self):
        spec = reference_spec()
        spec = NetworkSpec([e for e in spec.layers if e.kind != "conv_m"])
        rep = A.count_network(spec)
        # with the modules gone the classifier sees the 64-channel stem
        assert rep.total == 9_408 + 64 * 1000

    def test_dilation_invariance(self):
        base = reference_spec()
        ablated = regular_conv_spec(base)
        assert A.count_network(ablated).total == A.count_network(base).total

    def test_shape_error_names_the_layer(self):
        spec = reference_spec()
        spec.layers[3].params["cfg"].n_in = 32  # first module, layer4
        for fn in (propagate_shapes, A.count_network, build_network):
            with pytest.raises(ValueError, match="^layer4: conv_m expects 32 input channels"):
                fn(spec)

    def test_grouped_stem_with_indivisible_channels_rejected(self):
        spec = tiny_spec()
        spec.layers[1].params["groups"] = 3  # 3 -> 8 channels
        for fn in (A.count_network, build_network):
            with pytest.raises(ValueError, match=r"^layer2: conv channels \(3->8\) "
                                                 "not divisible by groups=3"):
                fn(spec)

    @pytest.mark.parametrize("layers,match", [
        ([], "must start with an 'input' layer"),
        ([LayerSpec("conv", {"out_channels": 4, "k": 1})], "must start with an 'input' layer"),
        ([LayerSpec("input", {"channels": 3, "height": 4, "width": 4}),
          LayerSpec("dense", {})], "^layer2: unknown kind 'dense'"),
    ])
    def test_invalid_spec_rejected(self, layers, match):
        with pytest.raises(ValueError, match=match):
            A.count_network(NetworkSpec(layers))


class TestSolveGroups:
    def test_layer4(self):
        assert A.solve_groups(LAYER4, 51_712) == 4

    def test_layer12(self):
        assert A.solve_groups(LAYER12, 783_360) == 4

    def test_below_projection_floor(self):
        with pytest.raises(ValueError):
            A.solve_groups(LAYER4, 10_241)

    def test_all_seven_reference_rows(self):
        spec = reference_spec()
        golden = {4: 51712, 6: 217088, 7: 268288, 9: 591872,
                  10: 681984, 12: 783360, 13: 826368}
        for i in spec.indices("conv_m"):
            cfg = spec.layers[i].params["cfg"]
            assert A.solve_groups(cfg, golden[i + 1]) == 4

    def test_left_inverse_of_counting(self):
        for g in (1, 2, 4, 8):
            cfg = ConvMConfig(n_in=24, c1=16, c2=16, c3=16, c4=16, dic1=16,
                              dic2=16, c5=8, dec1=8, dec2=8, groups=g)
            assert A.solve_groups(cfg, A.count_conv_m(cfg)) == g


class TestAudit:
    def test_reference_all_zero_diffs(self):
        rep = A.audit(reference_spec(), A.REFERENCE_COUNTS)
        assert rep.passed
        assert rep.total == A.REFERENCE_TOTAL

    def test_g1_spec_every_convm_row_positive_diff(self):
        spec = reference_spec()
        for i in spec.indices("conv_m"):
            spec.layers[i].params["cfg"].groups = 1
        rep = A.audit(spec, A.REFERENCE_COUNTS)
        for e in rep.entries:
            if e.kind == "conv_m":
                assert e.diff > 0
            elif e.reference is not None:
                assert e.diff == 0

    def test_empty_reference(self):
        rep = A.audit(reference_spec(), None)
        assert not rep.has_reference
        assert rep.passed

    def test_csv_shape(self):
        rep = A.audit(reference_spec(), A.REFERENCE_COUNTS)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "layer,kind,computed,reference,diff"
        assert len(lines) == 1 + 9 + 1  # header + weighted layers + total


class TestFormulaVsAllocation:
    @pytest.mark.parametrize("spec_fn", [tiny_spec, reference_spec])
    def test_census_matches(self, spec_fn):
        spec = spec_fn()
        net = build_network(spec, rng=np.random.default_rng(0))
        assert net.param_census() == A.count_network(spec).total

    @staticmethod
    def linear_after_conv():
        return NetworkSpec([
            LayerSpec("input", {"channels": 3, "height": 1, "width": 1}),
            LayerSpec("conv", {"out_channels": 4, "k": 1}),
            LayerSpec("linear", {"out_features": 2}),
        ])

    def test_census_matches_with_linear_after_conv(self):
        spec = self.linear_after_conv()
        net = build_network(spec, rng=np.random.default_rng(0))
        assert net.param_census() == A.count_network(spec).total == 3 * 4 + 4 * 2

    def test_linear_after_conv_runs_forward(self):
        net = build_network(self.linear_after_conv(), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 3, 1, 1)).astype(np.float32)
        logits = net.forward(T.Tensor(x)).logits
        params = net.parameters()
        hidden = np.maximum(x[:, :, 0, 0] @ params["layer2.weight"].data[:, :, 0, 0].T, 0)
        assert logits.shape == (2, 2)
        np.testing.assert_allclose(logits.data, hidden @ params["layer3.weight"].data,
                                   rtol=1e-5)

    def test_census_matches_with_grouped_stem(self):
        spec = tiny_spec()
        spec.layers[1].params.update(out_channels=9, groups=3)
        spec.layers[3].params["cfg"].n_in = 9
        net = build_network(spec, rng=np.random.default_rng(0))
        assert net.param_census() == A.count_network(spec).total == 16_389


class TestRegularConvAblation:
    @pytest.mark.parametrize("dilations", [(2, 3), (1, 1)], ids=["default", "ablated"])
    def test_taps_are_the_explicit_op_chain(self, dilations):
        # each branch is a 1x1 projection then two grouped 3x3 convs, with the
        # dilated branch at ``dilations``, a ReLU after every conv
        cfg = ConvMConfig(n_in=8, c1=8, c2=8, c3=8, c4=8, dic1=8, dic2=8,
                          c5=4, dec1=4, dec2=4, dilations=dilations)
        m = ConvM(cfg, rng=np.random.default_rng(0))
        x = T.Tensor(np.random.default_rng(1).standard_normal((2, 8, 9, 9))
                     .astype(np.float32))
        _, taps = m.forward_with_taps(x)
        w, g = m.weights, cfg.groups
        d1, d2 = dilations
        y = T.relu(T.conv2d(x, w["c1"]))
        y = T.relu(T.conv2d(y, w["c2"], padding=1, groups=g))
        want = {"c3": T.relu(T.conv2d(y, w["c3"], padding=1, groups=g))}
        y = T.relu(T.conv2d(x, w["c4"]))
        y = T.relu(T.conv2d(y, w["dic1"], padding=d1, dilation=d1, groups=g))
        want["dic2"] = T.relu(T.conv2d(y, w["dic2"], padding=d2, dilation=d2, groups=g))
        y = T.relu(T.conv2d(x, w["c5"]))
        y = T.relu(T.conv2d_transpose_cropped(y, w["dec1"], groups=g))
        want["dec2"] = T.relu(T.conv2d_transpose_cropped(y, w["dec2"], groups=g))
        assert list(taps) == list(want)
        for name, t in want.items():
            assert taps[name].data.tobytes() == t.data.tobytes(), name

    def test_ablated_network_runs_with_unchanged_census(self):
        base = tiny_spec()
        ablated = regular_conv_spec(base)
        net = build_network(ablated, rng=np.random.default_rng(0))
        for i in ablated.indices("conv_m"):
            assert ablated.layers[i].params["cfg"].dilations == (1, 1)
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        st = net.forward(T.Tensor(x))
        assert st.logits.shape == (2, 10)
        assert np.all(np.isfinite(st.logits.data))
        census = build_network(base, rng=np.random.default_rng(0)).param_census()
        assert net.param_census() == census == A.count_network(base).total
