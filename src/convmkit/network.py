"""Declarative network specs, the network builder, and the DA attachments
(prediction head, reconstruction decoders)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import BRANCHES, Conv2d, ConvM, ConvMConfig, Linear
from .tensor import Tensor

LAYER_KINDS = ("input", "conv", "maxpool", "conv_m", "avgpool", "linear")
DECODER_NAMES = ("decoder1", "decoder2")  # built by attach_decoders


@dataclass
class LayerSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        p = dict(self.params)
        if self.kind == "conv_m":
            p["cfg"] = p["cfg"].to_dict()
        return {"kind": self.kind, "params": p}

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        for key in ("freeze", "lr_mult"):
            if key in d:
                raise ValueError(f"layer spec key {key!r} is no longer supported; "
                                 "freeze layers with the run config's da.freeze_set")
        p = dict(d.get("params", {}))
        if "regular_only" in p:
            raise ValueError("layer spec param 'regular_only' is no longer supported; "
                             "the regular-conv ablation is cfg.dilations [1, 1] "
                             "(network.regular_conv_spec)")
        if d["kind"] == "conv_m":
            p["cfg"] = ConvMConfig.from_dict(p["cfg"])
        return cls(kind=d["kind"], params=p)


@dataclass
class NetworkSpec:
    """Ordered layer list; index 0 must be an ``input`` entry."""

    layers: list[LayerSpec]

    def to_dict(self) -> dict:
        return {"layers": [e.to_dict() for e in self.layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(layers=[LayerSpec.from_dict(e) for e in d["layers"]])

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def conv_m_indices(self) -> list[int]:
        return [i for i, e in enumerate(self.layers) if e.kind == "conv_m"]

    def maxpool_indices(self) -> list[int]:
        return [i for i, e in enumerate(self.layers) if e.kind == "maxpool"]

    def layer_name(self, i: int) -> str:
        return f"layer{i + 1}"

    def layer_indices(self, names, option: str) -> list[int]:
        """Indices of the named layers; a ValueError names ``option``, any
        unknown name and the valid names."""
        index = {self.layer_name(i): i for i in range(len(self.layers))}
        unknown = [n for n in names if n not in index]
        if unknown:
            raise ValueError(f"{option}: unknown layer name(s) {unknown}; "
                             f"valid names are {list(index)}")
        return [index[n] for n in names]


def propagate_shapes(spec: NetworkSpec) -> list[tuple[int, int, int]]:
    """The shape table: per-layer output shapes (C, H, W), where linear and
    avgpool report (C, 1, 1). The builder, the audit and the decoders read
    their channels and sizes from it.

    It also validates the spec: the first layer must be ``input``, every kind
    must be in ``LAYER_KINDS``, and every layer must consume its input shape;
    a ValueError names the layer at fault (``spec.layer_name``).
    """
    if not spec.layers or spec.layers[0].kind != "input":
        raise ValueError("spec must start with an 'input' layer")
    shapes = []
    c = h = w = None
    for i, e in enumerate(spec.layers):
        p = e.params
        try:
            if e.kind not in LAYER_KINDS:
                raise ValueError(f"unknown kind {e.kind!r}")
            if e.kind == "input":
                c, h, w = p["channels"], p["height"], p["width"]
            elif e.kind == "conv":
                k, s, pad = p["k"], p.get("stride", 1), p.get("padding", 0)
                h = (h + 2 * pad - k) // s + 1
                w = (w + 2 * pad - k) // s + 1
                if h < 1 or w < 1:
                    raise ValueError("conv output collapsed to zero size")
                g = p.get("groups", 1)
                if c % g or p["out_channels"] % g:
                    raise ValueError(f"conv channels ({c}->{p['out_channels']}) "
                                     f"not divisible by groups={g}")
                c = p["out_channels"]
            elif e.kind == "maxpool":
                k, s = p["k"], p["stride"]
                if k > h or k > w:
                    raise ValueError(f"pool window {k} exceeds input {h}x{w}")
                h, w = T._ceil_pool_size(h, k, s), T._ceil_pool_size(w, k, s)
            elif e.kind == "conv_m":
                cfg: ConvMConfig = p["cfg"]
                cfg.validate()
                if cfg.n_in != c:
                    raise ValueError(f"conv_m expects {cfg.n_in} input channels, got {c}")
                c = cfg.out_channels
            elif e.kind == "avgpool":
                k, s = p["k"], p["stride"]
                if k > h or k > w:
                    raise ValueError(f"pool window {k} exceeds input {h}x{w}")
                h = (h - k) // s + 1
                w = (w - k) // s + 1
            elif e.kind == "linear":
                if h != 1 or w != 1:
                    raise ValueError("linear layer needs 1x1 spatial input")
                c = p["out_features"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{spec.layer_name(i)}: malformed params: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{spec.layer_name(i)}: {exc}") from exc
        shapes.append((c, h, w))
    return shapes


# ---------------------------------------------------------------------------
# reference and tiny specs
# ---------------------------------------------------------------------------

# channel plan per module in ``BRANCHES`` order, modules in depth order
_REFERENCE_PLANS = [
    (64, 64, 64, 64, 64, 64, 32, 32, 32),
    (128, 128, 128, 128, 128, 128, 64, 64, 64),
    (128, 128, 128, 128, 128, 128, 64, 64, 64),
    (144, 256, 256, 144, 256, 256, 64, 64, 64),
    (144, 256, 256, 144, 256, 256, 64, 64, 64),
    (160, 256, 280, 160, 256, 280, 64, 128, 128),
    (160, 256, 280, 160, 256, 280, 64, 128, 128),
]


def _cfg(n_in, plan, **kw):
    names = [name for branch in BRANCHES for name in branch]
    return ConvMConfig(n_in=n_in, **dict(zip(names, plan)), **kw)


def reference_spec(num_classes: int = 1000) -> NetworkSpec:
    """The full 224x224 network: 7x7 stem, four pooling stages, seven
    three-branch modules, global average pooling, linear classifier."""
    layers = [
        LayerSpec("input", {"channels": 3, "height": 224, "width": 224}),
        LayerSpec("conv", {"out_channels": 64, "k": 7, "stride": 1, "padding": 3}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(64, _REFERENCE_PLANS[0])}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(160, _REFERENCE_PLANS[1])}),
        LayerSpec("conv_m", {"cfg": _cfg(320, _REFERENCE_PLANS[2])}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(320, _REFERENCE_PLANS[3])}),
        LayerSpec("conv_m", {"cfg": _cfg(576, _REFERENCE_PLANS[4])}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(576, _REFERENCE_PLANS[5])}),
        LayerSpec("conv_m", {"cfg": _cfg(688, _REFERENCE_PLANS[6])}),
        LayerSpec("avgpool", {"k": 14, "stride": 1}),
        LayerSpec("linear", {"out_features": num_classes}),
    ]
    return NetworkSpec(layers)


def tiny_spec(num_classes: int = 10, input_size: int = 32) -> NetworkSpec:
    """Desk-scale profile: 32x32 input, channel counts divided by 8 and the
    pooling chain shortened to three stages."""
    s = input_size
    layers = [
        LayerSpec("input", {"channels": 3, "height": s, "width": s}),
        LayerSpec("conv", {"out_channels": 8, "k": 7, "stride": 1, "padding": 3}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(8, (8, 8, 8, 8, 8, 8, 4, 4, 4))}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(20, (16, 16, 16, 16, 16, 16, 8, 8, 8))}),
        LayerSpec("maxpool", {"k": 3, "stride": 2}),
        LayerSpec("conv_m", {"cfg": _cfg(40, (20, 32, 36, 20, 32, 36, 8, 16, 16))}),
    ]
    _, spatial, _ = propagate_shapes(NetworkSpec(layers))[-1]
    layers.append(LayerSpec("avgpool", {"k": spatial, "stride": 1}))
    layers.append(LayerSpec("linear", {"out_features": num_classes}))
    return NetworkSpec(layers)


def regular_conv_spec(spec: NetworkSpec) -> NetworkSpec:
    """Ablation variant: every branch is regular convs with the same channel
    plan. Only the dilation rates change, to 1: the stride-1 cropped
    transposed conv already is a "same" conv over a flipped weight view, and
    the parameter census is unchanged."""
    out = NetworkSpec.from_dict(spec.to_dict())
    for i in out.conv_m_indices():
        out.layers[i].params["cfg"].dilations = (1, 1)
    return out


# ---------------------------------------------------------------------------
# built network
# ---------------------------------------------------------------------------


class ForwardState:
    """Everything a single forward pass produced beyond its output: per-layer
    outputs, pooling index maps (built only for a pass with decoders), and the
    three branch outputs of each module."""

    def __init__(self, x: Tensor):
        self.input = x
        self.layer_outputs: dict[int, Tensor] = {}
        self.pool_indices: dict[int, np.ndarray] = {}
        self.branch_taps: dict[int, dict[str, Tensor]] = {}
        self.features: Tensor | None = None  # flattened avgpool output
        self.logits: Tensor | None = None


class Network:
    """A built model: encoder stack plus optional classifier / DA head /
    reconstruction decoders."""

    def __init__(self, spec: NetworkSpec, *, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.spec = spec
        self.dtype = dtype
        self.shapes = propagate_shapes(spec)
        self.modules: dict[int, object] = {}
        self.head: list[Linear] | None = None
        self.num_classes: int | None = None
        self.decoders: list["Decoder"] | None = None
        for i, e in enumerate(spec.layers[1:], start=1):
            p = e.params
            c_in = self.shapes[i - 1][0]
            if e.kind == "conv":
                self.modules[i] = Conv2d(c_in, p["out_channels"], p["k"],
                                         stride=p.get("stride", 1),
                                         padding=p.get("padding", 0),
                                         groups=p.get("groups", 1),
                                         rng=rng, dtype=dtype)
            elif e.kind == "conv_m":
                self.modules[i] = ConvM(p["cfg"], rng=rng, dtype=dtype)
            elif e.kind == "linear":
                self.modules[i] = Linear(c_in, p["out_features"], rng=rng, dtype=dtype)

    # -- structure edits -----------------------------------------------------

    @property
    def feature_dim(self) -> int:
        for i, e in enumerate(self.spec.layers):
            if e.kind == "avgpool":
                return self.shapes[i][0]
        raise ValueError("network has no avgpool stage")

    def remove_classifier(self) -> None:
        idx = [i for i, e in enumerate(self.spec.layers) if e.kind == "linear"]
        for i in idx:
            self.modules.pop(i, None)
        self.spec = NetworkSpec([e for e in self.spec.layers if e.kind != "linear"])
        self.shapes = propagate_shapes(self.spec)

    # -- parameters ------------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, e in enumerate(self.spec.layers):
            mod = self.modules.get(i)
            if mod is None:
                continue
            base = self.spec.layer_name(i)
            for pname, t in mod.parameters():
                out[f"{base}.{pname}"] = t
        if self.head is not None:
            for j, lin in enumerate(self.head, start=1):
                out[f"head.fc{j}.weight"] = lin.weight
        if self.decoders is not None:
            for d in self.decoders:
                for pname, t in d.parameters():
                    out[f"{d.name}.{pname}"] = t
        return out

    def param_census(self) -> int:
        return sum(int(p.size) for p in self.parameters().values())

    # -- forward -------------------------------------------------------------

    def forward(self, x: Tensor, *, training=False, rng=None,
                with_decoders=False) -> ForwardState:
        if tuple(x.shape[1:]) != self.shapes[0]:
            raise ValueError(f"input batch has per-image shape {list(x.shape[1:])}, "
                             f"but the spec's input layer is {list(self.shapes[0])}")
        st = ForwardState(x)
        cur = x
        for i, e in enumerate(self.spec.layers):
            p = e.params
            if e.kind == "input":
                pass
            elif e.kind == "conv":
                cur = T.relu(self.modules[i](cur))
            elif e.kind == "maxpool":
                # only the decoders read the index maps
                cur, idx = T.maxpool2d_with_indices(cur, p["k"], p["stride"],
                                                    indices=with_decoders)
                if idx is not None:
                    st.pool_indices[i] = idx
            elif e.kind == "conv_m":
                cur, taps = self.modules[i].forward_with_taps(cur, training=training, rng=rng)
                st.branch_taps[i] = taps
            elif e.kind == "avgpool":
                cur = T.avgpool2d(cur, p["k"], p["stride"])
                st.features = T.flatten2d(cur)
                cur = st.features
            elif e.kind == "linear":
                if cur.data.ndim > 2:  # a 1x1 map that no avgpool flattened
                    cur = T.flatten2d(cur)
                cur = self.modules[i](cur)
                st.logits = cur
            st.layer_outputs[i] = cur
        if self.head is not None:
            if st.features is None:
                raise ValueError("DA head needs an avgpool stage")
            h = T.relu(self.head[0](st.features))
            st.logits = self.head[1](h)
        if with_decoders:
            if self.decoders is None:
                raise ValueError("no decoders attached")
            st.reconstructions = [d.forward(st) for d in self.decoders]
        return st

    def predict(self, x: Tensor) -> np.ndarray:
        st = self.forward(x, training=False)
        if st.logits is None:
            raise ValueError("model has no classifier or head")
        return st.logits.data.argmax(axis=1)


# ---------------------------------------------------------------------------
# DA attachments
# ---------------------------------------------------------------------------


def attach_da_heads(net: Network, num_classes: int, *, rng=None,
                    hidden: int = 256) -> Network:
    """Replace the classification linear with a two-layer prediction head
    (feature_dim -> hidden -> num_classes); new layers train at 10x LR."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    rng = rng or np.random.default_rng(0)
    net.remove_classifier()
    net.head = [Linear(net.feature_dim, hidden, rng=rng, dtype=net.dtype),
                Linear(hidden, num_classes, rng=rng, dtype=net.dtype)]
    net.num_classes = num_classes
    return net


class Decoder:
    """Alternating unpool / 3x3 conv chain restoring the input resolution.

    Each unpool reuses the index map of one encoder pooling layer, walking the
    pooling chain backwards from the tap, and restores the size that pooling
    layer consumed; per-stage conv widths are forced to the channel count it
    consumed. Both come from the shape table ``shapes``. The stage after the
    last unpool halves the width (floor, minimum 16) before a 1x1 conv back
    to the input channel count.
    """

    def __init__(self, name, tap_layer, pool_chain, shapes, *, rng, dtype=np.float32):
        self.name = name
        self.tap_layer = tap_layer
        self.pool_chain = list(pool_chain)  # encoder pool indices, deepest first
        pooled = [shapes[i - 1] for i in self.pool_chain]  # (C, H, W) each pool consumed
        self.unpool_hw = [(h, w) for _, h, w in pooled]
        widths = [c for c, _, _ in pooled]
        widths.append(max(widths[-1] // 2, 16))
        kw = dict(rng=rng, dtype=dtype)
        tap_channels = shapes[tap_layer][0]
        self.proj = None
        if tap_channels != widths[0]:
            self.proj = Conv2d(tap_channels, widths[0], 1, **kw)
        self.convs = [(f"stage{si + 1}", Conv2d(cin, cout, 3, padding=1, **kw))
                      for si, (cin, cout) in enumerate(zip(widths, widths[1:]))]
        self.final = Conv2d(widths[-1], shapes[0][0], 1, **kw)

    def parameters(self):
        out = []
        if self.proj is not None:
            out.append(("proj.weight", self.proj.weight))
        for sname, conv in self.convs:
            out.append((f"{sname}.weight", conv.weight))
        out.append(("final.weight", self.final.weight))
        return out

    def forward(self, st: ForwardState) -> Tensor:
        cur = st.layer_outputs[self.tap_layer]
        if self.proj is not None:
            cur = T.relu(self.proj(cur))
        for (_, conv), pool_i, hw in zip(self.convs, self.pool_chain, self.unpool_hw):
            if pool_i not in st.pool_indices:
                raise ValueError(f"{self.name}: pooling layer {pool_i} has no "
                                 "recorded indices (run the encoder first)")
            cur = T.unpool2d(cur, st.pool_indices[pool_i], hw)
            cur = T.relu(conv(cur))
        return self.final(cur)


def attach_decoders(net: Network, *, rng=None) -> Network:
    """Attach the two reconstruction decoders: D1 taps the deepest module
    output and unpools through every pooling layer; D2 taps the stage before
    the last pooling layer and unpools through the remaining chain."""
    rng = rng or np.random.default_rng(0)
    pools = net.spec.maxpool_indices()
    if len(pools) < 2:
        raise ValueError("need at least two pooling stages for two decoders")
    d1_tap = net.spec.conv_m_indices()[-1]
    d2_tap = pools[-1] - 1  # output feeding the last pooling layer
    d1, d2 = DECODER_NAMES
    net.decoders = [
        Decoder(d1, d1_tap, list(reversed(pools)), net.shapes, rng=rng, dtype=net.dtype),
        Decoder(d2, d2_tap, list(reversed(pools[:-1])), net.shapes, rng=rng,
                dtype=net.dtype),
    ]
    return net


def build_network(spec: NetworkSpec, *, rng=None, dtype=np.float32) -> Network:
    return Network(spec, rng=rng, dtype=dtype)
