"""The layer-kind table: one spec per rule, checked against the shape walk,
the builder, the forward pass and the audit."""

import hashlib

import numpy as np
import pytest

from convmkit import tensor as T
from convmkit.audit import count_network
from convmkit.layers import ConvMConfig
from convmkit.network import (KINDS, LayerSpec, Network, NetworkSpec, attach_da_heads,
                              attach_decoders, build_network, propagate_shapes, tiny_spec)


def L(kind, **params):
    return LayerSpec(kind, params)


INPUT = L("input", channels=3, height=8, width=8)


def every_kind_spec(avgpool_k):
    """input 3x16x16 -> conv -> maxpool (8x8) -> conv -> maxpool (4x4) -> conv_m
    -> avgpool -> linear."""
    cfg = ConvMConfig(n_in=4, c1=2, c2=2, c3=2, c4=2, dic1=2, dic2=2,
                      c5=2, dec1=2, dec2=2, groups=2)
    return NetworkSpec([L("input", channels=3, height=16, width=16),
                        L("conv", out_channels=4, k=3, padding=1), L("maxpool", k=2, stride=2),
                        L("conv", out_channels=4, k=3, padding=1), L("maxpool", k=2, stride=2),
                        L("conv_m", cfg=cfg), L("avgpool", k=avgpool_k, stride=1),
                        L("linear", out_features=3)])


class TestKindTable:
    # avgpool k=4 pools to 1x1; k=2 leaves 3x3, which the forward pass
    # flattens to 6 * 9 features
    @pytest.mark.parametrize("avgpool_k,features", [(4, 6), (2, 54)])
    def test_every_kind_agrees_with_forward_and_census(self, avgpool_k, features):
        """Walks the encoder (with its classifier), then the DA head and both
        decoders, whose unpools and ``relu: false`` final convs complete the
        kinds."""
        spec = every_kind_spec(avgpool_k)
        x = np.random.default_rng(1).standard_normal((2, 3, 16, 16)).astype(np.float32)
        x = T.Tensor(x)
        net = build_network(spec, rng=np.random.default_rng(0))
        walks = [(net, net.forward(x).layer_outputs)]
        net = build_network(spec, rng=np.random.default_rng(0))
        attach_decoders(attach_da_heads(net, 3, rng=np.random.default_rng(0)))
        st = net.forward(x, with_decoders=True)
        walks += [(part, {}) for part in net.parts()]
        for part, outputs in walks[1:]:
            part.walk(st, st.layer_outputs[part.tap], outputs)
        assert {e.kind for built, _ in walks for e in built.spec.layers} == set(KINDS)
        for built, outputs in walks:
            shapes = propagate_shapes(built.spec)
            for i, e in enumerate(built.spec.layers):
                want, got = shapes[i], outputs[i].shape[1:]
                # the table holds a flat output (a flat kind's, or the one the
                # head's input passes on) as (C*H*W, 1, 1)
                if KINDS[e.kind].flat or len(got) == 1:
                    assert want[1:] == (1, 1)
                    want = want[:1]
                assert got == want, built.spec.layer_name(i)
        assert net.head.shapes[0] == (features, 1, 1)
        finals = [d.spec.layers[-1] for d in net.decoders]
        assert all(e.kind == "conv" and e.params["relu"] is False for e in finals)
        assert all((r.data < 0).any() for r in st.reconstructions)
        assert walks[0][0].param_census() == count_network(spec).total
        specs = [net.spec] + [part.spec for part in net.parts()]
        assert net.param_census() == sum(count_network(s).total for s in specs)

    def test_head_reads_the_flattened_width(self):
        net = build_network(every_kind_spec(2), rng=np.random.default_rng(0))
        attach_da_heads(net, 3, rng=np.random.default_rng(0))
        assert net.head.shapes[0] == (54, 1, 1)
        x = np.zeros((2, 3, 16, 16), np.float32)
        assert net.forward(T.Tensor(x)).logits.shape == (2, 3)

    @pytest.mark.parametrize("layers,match", [
        ([L("avgpool", k=8, stride=1), L("linear", out_features=5),
          L("conv", out_channels=2, k=1)],
         r"^layer4: 'conv' cannot take the flat output of layer3; only \['linear'\] can"),
        ([L("avgpool", k=8, stride=1), L("avgpool", k=1, stride=1)],
         r"^layer3: 'avgpool' cannot take the flat output of layer2"),
        ([L("avgpool", k=8, stride=1), L("maxpool", k=1, stride=1)],
         r"^layer3: 'maxpool' cannot take the flat output of layer2"),
        ([L("conv", out_channels=2, k=1), INPUT],
         r"^layer3: 'input' cannot take the map output of layer2"),
    ])
    def test_layer_after_a_flat_output_is_refused(self, layers, match):
        spec = NetworkSpec([INPUT, *layers])
        for fn in (propagate_shapes, count_network, build_network):
            with pytest.raises(ValueError, match=match):
                fn(spec)

    @pytest.mark.parametrize("layer,match", [
        (L("conv", out_channels=2, k=3, dilation=2),
         r"unknown param\(s\) \['dilation'\] for 'conv'; valid params are "
         r"\['out_channels', 'k', 'stride', 'padding', 'groups', 'relu'\]"),
        (L("conv", out_channels=2, k=1, stride=0), "param 'stride' must be >= 1, got 0"),
        (L("conv", out_channels=2, k=0), "param 'k' must be >= 1, got 0"),
        (L("conv", out_channels=0, k=1), "param 'out_channels' must be >= 1, got 0"),
        (L("conv", out_channels=2, k=1, padding=-1), "param 'padding' must be >= 0, got -1"),
        (L("conv", out_channels=2, k=1, groups=0), "param 'groups' must be >= 1, got 0"),
        (L("conv", out_channels=2), "'conv' needs param 'k'"),
        (L("conv", out_channels=2, k="3"), "param 'k' must be of type int, got '3'"),
        (L("maxpool", k=0, stride=1), "param 'k' must be >= 1, got 0"),
        (L("avgpool", k=2, stride=0), "param 'stride' must be >= 1, got 0"),
        (L("linear", out_features=0), "param 'out_features' must be >= 1, got 0"),
        (L("conv_m", cfg={"n_in": 3}), "param 'cfg' must be of type ConvMConfig"),
        (L("conv", out_channels=2, k=True), "param 'k' must be of type int, got True"),
        (L("conv", out_channels=True, k=1),
         "param 'out_channels' must be of type int, got True"),
        (L("conv", out_channels=2, k=1, relu=1), "param 'relu' must be of type bool, got 1"),
        (L("linear", out_features=2, relu="yes"),
         "param 'relu' must be of type bool, got 'yes'"),
        (L("unpool", pool=False, height=8, width=8),
         "param 'pool' must be of type int, got False"),
    ])
    def test_params_are_checked_per_kind(self, layer, match):
        spec = NetworkSpec([INPUT, layer])
        for fn in (propagate_shapes, count_network, build_network):
            with pytest.raises(ValueError, match="^layer2: " + match):
                fn(spec)

    @pytest.mark.parametrize("key", ["channels", "height", "width"])
    def test_input_sizes_must_be_positive(self, key):
        spec = NetworkSpec([L("input", **{"channels": 3, "height": 8, "width": 8, key: 0})])
        with pytest.raises(ValueError, match=f"^layer1: param '{key}' must be >= 1, got 0"):
            propagate_shapes(spec)

    def test_unpool_is_refused_in_the_encoder(self):
        spec = NetworkSpec([INPUT, L("maxpool", k=2, stride=2),
                            L("unpool", pool=1, height=8, width=8)])
        propagate_shapes(spec)
        with pytest.raises(ValueError, match="^layer3: 'unpool' is a decoder layer$"):
            build_network(spec)


class TestSpecFile:
    @pytest.mark.parametrize("layer,match", [
        ({"params": {"k": 1}}, r"^layer2: layer has no 'kind'"),
        ({"kind": "conv_m", "params": {}}, r"^layer2: a 'conv_m' layer needs a 'cfg' mapping"),
        ({"kind": "conv_m", "params": {"cfg": {"n_in": 3, "foo": 1}}},
         r"^layer2: unknown cfg key\(s\) \['foo'\]; valid keys are \['n_in', 'c1'"),
        ({"kind": "conv_m", "params": {"cfg": {"n_in": 3}}},
         r"^layer2: .*missing 9 required positional arguments"),
        ({"kind": "conv", "params": {"out_channels": 4, "k": 1}, "bogus": 1},
         r"^layer2: unknown layer key\(s\) \['bogus'\]; valid keys are \['kind', 'params'\]"),
        ({"kind": "conv", "parms": {"out_channels": 4, "k": 1}},
         r"^layer2: unknown layer key\(s\) \['parms'\]"),
        ({"kind": "conv", "params": {"out_channels": 4, "k": 1}, "freeze": True},
         r"^layer2: layer spec key 'freeze' is no longer supported"),
    ])
    def test_malformed_layer_names_it(self, layer, match):
        d = {"layers": [{"kind": "input", "params": {"channels": 3, "height": 8,
                                                     "width": 8}}, layer]}
        with pytest.raises(ValueError, match=match):
            NetworkSpec.from_dict(d)

    @pytest.mark.parametrize("key,value,match", [
        ("c1", 4.0, "ConvMConfig.c1 must be of type int, got 4.0"),
        ("k", 3.0, "ConvMConfig.k must be of type int, got 3.0"),
        ("groups", 4.0, "ConvMConfig.groups must be of type int, got 4.0"),
        ("c1", True, "ConvMConfig.c1 must be of type int, got True"),
        ("dilations", [2.0, 3], "ConvMConfig.dilations must be of type int, got 2.0"),
        ("dilations", [2], r"ConvMConfig.dilations must be two ints, got \(2,\)"),
        ("dilations", [], r"ConvMConfig.dilations must be two ints, got \(\)"),
        ("dilations", [2, 3, 4], r"ConvMConfig.dilations must be two ints, got \(2, 3, 4\)"),
        ("dilations", 2, "ConvMConfig.dilations must be two ints, got 2"),
        ("dropout", "0.2", "ConvMConfig.dropout must be a number, got '0.2'"),
        ("dropout", 0, None),
    ])
    def test_cfg_fields_are_type_checked(self, key, value, match):
        d = tiny_spec().to_dict()
        d["layers"][3]["params"]["cfg"][key] = value
        spec = NetworkSpec.from_dict(d)
        for fn in (propagate_shapes, count_network, Network):
            if match is None:  # a YAML ``dropout: 0`` loads
                fn(spec)
                continue
            with pytest.raises(ValueError, match="^layer4: " + match + "$"):
                fn(spec)

    @pytest.mark.parametrize("d", [None, {}, {"layers": "conv"}])
    def test_spec_needs_a_layer_list(self, d):
        with pytest.raises(ValueError, match="a spec needs a 'layers' list"):
            NetworkSpec.from_dict(d)


def test_decoders_need_a_conv_m_tap():
    spec = NetworkSpec([L("input", channels=3, height=16, width=16),
                        L("conv", out_channels=4, k=3, padding=1), L("maxpool", k=2, stride=2),
                        L("conv", out_channels=4, k=3, padding=1), L("maxpool", k=2, stride=2),
                        L("avgpool", k=4, stride=1), L("linear", out_features=2)])
    net = attach_da_heads(build_network(spec), 2)
    with pytest.raises(ValueError, match="decoder1 needs a conv_m tap, and the spec "
                                         "has no conv_m layer"):
        attach_decoders(net)


def test_decoder_tap_before_a_pool_it_unpools_through_is_refused():
    """D1 taps the conv_m at 8x8, but would unpool through the maxpool after it."""
    cfg = ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4, c5=4, dec1=4,
                      dec2=4, groups=2)
    spec = NetworkSpec([L("input", channels=3, height=16, width=16),
                        L("conv", out_channels=4, k=3, padding=1), L("maxpool", k=2, stride=2),
                        L("conv_m", cfg=cfg), L("maxpool", k=2, stride=2),
                        L("conv", out_channels=4, k=1), L("avgpool", k=4, stride=1),
                        L("linear", out_features=2)])
    net = attach_da_heads(build_network(spec), 2)
    with pytest.raises(ValueError, match=r"^decoder1 \(tap layer4\): its \(8, 8\) map cannot "
                                         r"unpool through pooling layer layer5, whose "
                                         r"output is \(4, 4\)$"):
        attach_decoders(net)


class TestDAModel:
    """The tiny DA model: encoder, head and decoders are specs walked alike."""

    @staticmethod
    def model():
        rng = np.random.default_rng(1)
        net = Network(tiny_spec(num_classes=5), rng=rng)
        attach_da_heads(net, 5, rng=rng)
        return attach_decoders(net, rng=np.random.default_rng(2))

    def test_census_is_the_sum_over_its_specs(self):
        net = self.model()
        specs = [net.spec] + [part.spec for part in net.parts()]
        assert len(specs) == 4
        assert net.param_census() == sum(count_network(s).total for s in specs) == 56_832

    def test_initial_weights_are_pinned(self):
        params = self.model().parameters()
        assert {"head.fc1.weight", "head.fc2.weight", "decoder2.proj.weight",
                "decoder1.stage3.weight", "decoder1.final.weight",
                "decoder2.final.weight"} <= set(params)
        h = hashlib.sha256()
        for name in sorted(params):
            h.update(name.encode())
            h.update(params[name].data.tobytes())
        assert h.hexdigest()[:16] == "65065824c4851620"
