"""Declarative network specs, the network builder, and the DA attachments
(prediction head, reconstruction decoders)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .layers import BRANCHES, ConvM, ConvMConfig, check_number, count_conv_m, he_weight
from .tensor import Tensor

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
        unknown = [key for key in d if key not in ("kind", "params")]
        if unknown:
            raise ValueError(f"unknown layer key(s) {unknown}; valid keys are "
                             "['kind', 'params']")
        if "kind" not in d:
            raise ValueError("layer has no 'kind'")
        p = dict(d.get("params", {}))
        if d["kind"] == "conv_m":
            if not isinstance(p.get("cfg"), dict):
                raise ValueError("a 'conv_m' layer needs a 'cfg' mapping")
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
        """From a spec file's mapping; a malformed layer is a ValueError that
        names it (``layer_name``)."""
        if not isinstance(d, dict) or not isinstance(d.get("layers"), list):
            raise ValueError("a spec needs a 'layers' list")
        layers = []
        for i, e in enumerate(d["layers"]):
            try:
                layers.append(LayerSpec.from_dict(e))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{cls.layer_name(i)}: {exc}") from exc
        return cls(layers=layers)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def indices(self, kind: str) -> list[int]:
        return [i for i, e in enumerate(self.layers) if e.kind == kind]

    @staticmethod
    def layer_name(i: int) -> str:
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


# ---------------------------------------------------------------------------
# the layer-kind table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One layer kind: ``propagate_shapes``, ``Network`` and the audit walk
    these records, and ``p`` is a layer's ``layer_params``."""

    params: dict   # name -> default, or the param's type when it is required
    shape: Callable  # (p, (c, h, w)) -> output shape; ValueError if it cannot take it
    step: Callable   # (st, i, module, p, x) -> y; only maxpool writes to ``st``
    count: Callable | None = None  # (p, c_in) -> weights, allocating nothing
    build: Callable | None = None  # (p, c_in, rng, dtype) -> weight Tensor or ConvM
    # input forms it takes: None (it opens the spec), "map" ([N, C, H, W]) or
    # "flat" ([N, C]); a ``flat`` kind's output is flat, (C*H*W, 1, 1) in the table
    takes: tuple = ("map",)
    flat: bool = False


def _conv_shape(p, s):
    c, h, w = s
    k, stride, pad, g = p["k"], p["stride"], p["padding"], p["groups"]
    h, w = (T._conv_out_size(n, k, stride, pad, 1) for n in (h, w))
    if h < 1 or w < 1:
        raise ValueError("conv output collapsed to zero size")
    if c % g or p["out_channels"] % g:
        raise ValueError(f"conv channels ({c}->{p['out_channels']}) "
                         f"not divisible by groups={g}")
    return p["out_channels"], h, w


def _pool_shape(size):
    def shape(p, s):
        c, h, w = s
        k, stride = p["k"], p["stride"]
        if k > h or k > w:
            raise ValueError(f"pool window {k} exceeds input {h}x{w}")
        return c, size(h, k, stride), size(w, k, stride)
    return shape


def _conv_m_shape(p, s):
    cfg: ConvMConfig = p["cfg"]
    cfg.validate()
    if cfg.n_in != s[0]:
        raise ValueError(f"conv_m expects {cfg.n_in} input channels, got {s[0]}")
    return cfg.out_channels, s[1], s[2]


def _linear_shape(p, s):
    if s[1:] != (1, 1):
        raise ValueError("linear layer needs 1x1 spatial input")
    return p["out_features"], 1, 1


def _maxpool_step(st, i, mod, p, x):
    # only the decoders read the index maps; every unpool through this layer
    # shares the one UnpoolMap built here
    y, idx = T.maxpool2d_with_indices(x, p["k"], p["stride"], indices=st.with_decoders)
    if idx is not None:
        st.pool_indices[i] = T.UnpoolMap(idx, x.shape[2:])
    return y


def _relu_if(p, y):
    return T.relu(y) if p["relu"] else y


def _linear_step(st, i, w, p, x):
    if x.data.ndim > 2:  # a 1x1 map that no avgpool flattened
        x = T.flatten2d(x)
    return _relu_if(p, T.linear(x, w))


def _unpool_step(st, i, mod, p, x):
    if p["pool"] not in st.pool_indices:
        raise ValueError(f"unpool: pooling layer {NetworkSpec.layer_name(p['pool'])} "
                         "has no recorded indices (run the encoder with decoders)")
    return T.unpool2d(x, st.pool_indices[p["pool"]], (p["height"], p["width"]))


_POOL = {"k": int, "stride": int}

KINDS: dict[str, Kind] = {
    "input": Kind(
        {"channels": int, "height": int, "width": int},
        shape=lambda p, s: (p["channels"], p["height"], p["width"]),
        step=lambda st, i, mod, p, x: x, takes=(None,)),
    "conv": Kind(
        {"out_channels": int, "k": int, "stride": 1, "padding": 0, "groups": 1,
         "relu": True},
        shape=_conv_shape,
        step=lambda st, i, w, p, x: _relu_if(
            p, T.conv2d(x, w, p["stride"], p["padding"], 1, p["groups"])),
        count=lambda p, c_in: c_in // p["groups"] * p["out_channels"] * p["k"] ** 2,
        build=lambda p, c_in, rng, dtype: he_weight(
            (p["out_channels"], c_in // p["groups"], p["k"], p["k"]),
            c_in // p["groups"] * p["k"] ** 2, rng, dtype)),
    "maxpool": Kind(_POOL, shape=_pool_shape(T._ceil_pool_size), step=_maxpool_step),
    "conv_m": Kind(
        {"cfg": ConvMConfig}, shape=_conv_m_shape,
        step=lambda st, i, mod, p, x: mod(x, training=st.training, rng=st.rng),
        count=lambda p, c_in: count_conv_m(p["cfg"]),
        build=lambda p, c_in, rng, dtype: ConvM(p["cfg"], rng=rng, dtype=dtype)),
    "avgpool": Kind(
        _POOL, shape=_pool_shape(lambda n, k, s: T._conv_out_size(n, k, s, 0, 1)), flat=True,
        step=lambda st, i, mod, p, x: T.flatten2d(T.avgpool2d(x, p["k"], p["stride"]))),
    "linear": Kind(
        {"out_features": int, "relu": False}, shape=_linear_shape, step=_linear_step,
        count=lambda p, c_in: c_in * p["out_features"],
        build=lambda p, c_in, rng, dtype: he_weight((c_in, p["out_features"]), c_in,
                                                    rng, dtype),
        takes=("map", "flat"), flat=True),
    # a decoder's unpool through the index map of the encoder's maxpool ``pool``
    "unpool": Kind(
        {"pool": int, "height": int, "width": int},
        shape=lambda p, s: (s[0], p["height"], p["width"]), step=_unpool_step),
}


def layer_params(e: LayerSpec) -> dict:
    """``e.params`` with its kind's defaults filled in; the spec keeps its hash."""
    return {key: e.params.get(key, d) for key, d in KINDS[e.kind].params.items()}


def _check_params(e: LayerSpec, kind: Kind) -> None:
    unknown = [key for key in e.params if key not in kind.params]
    if unknown:
        raise ValueError(f"unknown param(s) {unknown} for {e.kind!r}; "
                         f"valid params are {list(kind.params)}")
    for key, d in kind.params.items():
        v = e.params.get(key, d)
        typ = d if isinstance(d, type) else type(d)
        if v is typ:
            raise ValueError(f"{e.kind!r} needs param {key!r}")
        check_number(f"param {key!r}", v, typ, low=0 if d == 0 else 1)  # padding >= 0


def propagate_shapes(spec: NetworkSpec) -> list[tuple[int, int, int]]:
    """The shape table: per-layer output shapes (C, H, W), read by the
    builder, the audit and the decoders.

    It also validates the spec against ``KINDS``: each layer's kind must take
    the previous layer's output form, and its params must be its kind's, in
    range, and fit its input shape; a ValueError names the layer at fault
    (``spec.layer_name``).
    """
    if not spec.layers:
        raise ValueError("spec must start with an 'input' layer")
    shapes = []
    s = form = None
    for i, e in enumerate(spec.layers):
        try:
            if e.kind not in KINDS:
                raise ValueError(f"unknown kind {e.kind!r}; valid kinds are {list(KINDS)}")
            kind = KINDS[e.kind]
            if form not in kind.takes:
                if form is None:
                    raise ValueError("spec must start with an 'input' layer")
                takers = [k for k, r in KINDS.items() if form in r.takes]
                raise ValueError(f"{e.kind!r} cannot take the {form} output of "
                                 f"{spec.layer_name(i - 1)}; only {takers} can")
            _check_params(e, kind)
            s = kind.shape(layer_params(e), s)
            if kind.flat:  # the forward pass flattens the output to [N, C*H*W]
                s = (s[0] * s[1] * s[2], 1, 1)
            form = "flat" if kind.flat else "map"
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{spec.layer_name(i)}: malformed params: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{spec.layer_name(i)}: {exc}") from exc
        shapes.append(s)
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
    for i in out.indices("conv_m"):
        out.layers[i].params["cfg"].dilations = (1, 1)
    return out


# ---------------------------------------------------------------------------
# built network
# ---------------------------------------------------------------------------


class ForwardState:
    """One forward pass: its mode (``training``, dropout ``rng``,
    ``with_decoders``) and its record: every layer's output, each pooling
    layer's ``UnpoolMap`` (built only for a pass with decoders), the logits
    and the decoders' reconstructions."""

    def __init__(self, training=False, rng=None, with_decoders=False):
        self.training, self.rng, self.with_decoders = training, rng, with_decoders
        self.layer_outputs: dict[int, Tensor] = {}
        self.pool_indices: dict[int, T.UnpoolMap] = {}
        self.logits: Tensor | None = None
        self.reconstructions: list[Tensor] = []


class Built:
    """A spec built in layer order (the init draw order) by its kinds'
    ``build`` rules and run by their ``step`` rules: the encoder, the DA head
    or one decoder. Layer ``i``'s parameters are ``<layer_name(i)>.<name>``."""

    def __init__(self, spec: NetworkSpec, rng, dtype):
        self.spec, self.dtype = spec, dtype
        self.shapes = propagate_shapes(spec)
        self.modules: dict[int, Tensor | ConvM] = {
            i: KINDS[e.kind].build(layer_params(e), self.shapes[i - 1][0], rng, dtype)
            for i, e in enumerate(spec.layers) if KINDS[e.kind].build is not None}

    def layer_name(self, i: int) -> str:
        return self.spec.layer_name(i)

    def parameters(self) -> dict[str, Tensor]:
        # a conv or linear layer is its bare weight; a conv_m names its own
        return {f"{self.layer_name(i)}.{pname}": t for i, mod in self.modules.items()
                for pname, t in (mod.parameters() if isinstance(mod, ConvM)
                                 else [("weight", mod)])}

    def walk(self, st: ForwardState, x: Tensor, outputs: dict) -> Tensor:
        """``x`` through every layer's step; ``outputs`` records each output."""
        for i, e in enumerate(self.spec.layers):
            x = outputs[i] = KINDS[e.kind].step(st, i, self.modules.get(i),
                                                layer_params(e), x)
        return x


class Network(Built):
    """A built model: the encoder, plus the parts attached to it (the DA head
    and the reconstruction decoders)."""

    def __init__(self, spec: NetworkSpec, *, rng=None, dtype=np.float32):
        super().__init__(spec, rng or np.random.default_rng(0), dtype)
        for i in spec.indices("unpool"):  # a pass without decoders records no index maps
            raise ValueError(f"{spec.layer_name(i)}: 'unpool' is a decoder layer")
        self.head: Part | None = None
        self.num_classes: int | None = None
        self.decoders: list[Decoder] | None = None

    def parts(self) -> list["Part"]:
        """The attached DA head and decoders, in parameter order."""
        return [p for p in (self.head, *(self.decoders or ())) if p is not None]

    def parameters(self) -> dict[str, Tensor]:
        out = super().parameters()
        for part in self.parts():
            out.update(part.parameters())
        return out

    def param_census(self) -> int:
        return sum(int(p.size) for p in self.parameters().values())

    def forward(self, x: Tensor, *, training=False, rng=None,
                with_decoders=False) -> ForwardState:
        if tuple(x.shape[1:]) != self.shapes[0]:
            raise ValueError(f"input batch has per-image shape {list(x.shape[1:])}, "
                             f"but the spec's input layer is {list(self.shapes[0])}")
        st = ForwardState(training, rng, with_decoders)
        cur = self.walk(st, x, st.layer_outputs)
        if self.head is not None:
            st.logits = self.head.forward(st)
        elif self.spec.layers[-1].kind == "linear":
            st.logits = cur
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


class Part(Built):
    """A small spec on the encoder: the DA head or one decoder. Its input
    layer takes the output of encoder layer ``tap``; each layer after it comes
    paired with the name its parameters take under ``name`` (None: no
    weights)."""

    def __init__(self, name: str, net: Network, tap: int, layers, *, rng):
        self.name, self.tap = name, tap
        self.names = [None] + [n for n, _ in layers]
        shape = dict(zip(("channels", "height", "width"), net.shapes[tap]))
        super().__init__(NetworkSpec([LayerSpec("input", shape), *(e for _, e in layers)]),
                         rng, net.dtype)

    def layer_name(self, i: int) -> str:
        return f"{self.name}.{self.names[i]}"

    def forward(self, st: ForwardState) -> Tensor:
        return self.walk(st, st.layer_outputs[self.tap], {})


class Decoder(Part):
    """A reconstruction decoder; a class of its own so that a profile can
    time the decoders apart from the head."""


def attach_da_heads(net: Network, num_classes: int, *, rng=None) -> Network:
    """Replace the classification linear with a two-layer prediction head
    (features -> 256 -> num_classes) on the avgpool output; new layers
    train at 10x LR."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    # only a linear takes a linear's output, so the linear layers end the
    # spec and removing them moves no other layer's index
    linears = net.spec.indices("linear")
    for i in linears:
        del net.modules[i]
    net.spec = NetworkSpec(net.spec.layers[:len(net.spec.layers) - len(linears)])
    net.shapes = propagate_shapes(net.spec)
    if net.spec.layers[-1].kind != "avgpool":
        raise ValueError("network has no avgpool stage")
    net.head = Part("head", net, len(net.spec.layers) - 1, [
        ("fc1", LayerSpec("linear", {"out_features": 256, "relu": True})),
        ("fc2", LayerSpec("linear", {"out_features": num_classes}))],
        rng=rng or np.random.default_rng(0))
    net.num_classes = num_classes
    return net


def _decoder(name: str, net: Network, tap: int, chain: list[int], rng) -> Decoder:
    """Unpool / 3x3 conv stages from encoder layer ``tap`` through the pooling
    layers ``chain`` (deepest first): each unpool takes its pooling layer's
    output size and restores the size and width that layer consumed. A 1x1
    ``proj`` leads if the tap's width differs; the last stage halves the width
    (floor, minimum 16) before a 1x1 ``final`` conv, with no ReLU."""
    shapes, layer_name = net.shapes, net.spec.layer_name
    widths = [shapes[i - 1][0] for i in chain]
    widths.append(max(widths[-1] // 2, 16))
    layers = []
    if shapes[tap][0] != widths[0]:
        layers.append(("proj", LayerSpec("conv", {"out_channels": widths[0], "k": 1})))
    size = shapes[tap][1:]
    for si, pool in enumerate(chain):
        if size != shapes[pool][1:]:
            raise ValueError(f"{name} (tap {layer_name(tap)}): its {size} map cannot unpool "
                             f"through pooling layer {layer_name(pool)}, whose output "
                             f"is {shapes[pool][1:]}")
        _, h, w = shapes[pool - 1]
        size = (h, w)
        layers += [(None, LayerSpec("unpool", {"pool": pool, "height": h, "width": w})),
                   (f"stage{si + 1}", LayerSpec("conv", {"out_channels": widths[si + 1],
                                                         "k": 3, "padding": 1}))]
    layers.append(("final", LayerSpec("conv", {"out_channels": shapes[0][0], "k": 1,
                                               "relu": False})))
    return Decoder(name, net, tap, layers, rng=rng)


def attach_decoders(net: Network, *, rng=None) -> Network:
    """Attach the two reconstruction decoders: D1 taps the deepest module
    output and unpools through every pooling layer; D2 taps the output that
    feeds the last pooling layer and unpools through the remaining chain."""
    rng = rng or np.random.default_rng(0)
    pools = net.spec.indices("maxpool")
    if len(pools) < 2:
        raise ValueError("need at least two pooling stages for two decoders")
    modules = net.spec.indices("conv_m")
    if not modules:
        raise ValueError(f"{DECODER_NAMES[0]} needs a conv_m tap, and the spec has "
                         "no conv_m layer")
    d1, d2 = DECODER_NAMES
    net.decoders = [_decoder(d1, net, modules[-1], pools[::-1], rng),
                    _decoder(d2, net, pools[-1] - 1, pools[-2::-1], rng)]
    return net


def build_network(spec: NetworkSpec, *, rng=None, dtype=np.float32) -> Network:
    return Network(spec, rng=rng, dtype=dtype)
