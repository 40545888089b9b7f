"""Layer modules: thin parameter holders over the functional ops.

A module owns its weight tensors and exposes ``parameters()`` as
(name, Tensor) pairs; forward passes are explicit method calls so the
training loop controls dropout RNG and train/eval mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _he_weight(shape, fan_in, rng, dtype):
    std = np.sqrt(2.0 / fan_in)
    return Tensor(rng.standard_normal(shape) * std, requires_grad=True, dtype=dtype)


class Conv2d:
    def __init__(self, cin, cout, k, stride=1, padding=0, dilation=1, groups=1,
                 *, rng, dtype=np.float32):
        if cin % groups or cout % groups:
            raise ValueError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
        self.stride, self.padding, self.dilation, self.groups = stride, padding, dilation, groups
        self.weight = _he_weight((cout, cin // groups, k, k), (cin // groups) * k * k, rng, dtype)

    def parameters(self):
        return [("weight", self.weight)]

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.stride, self.padding, self.dilation, self.groups)


class ConvTranspose2dCropped:
    """Transposed convolution center-cropped back to the input size."""

    def __init__(self, cin, cout, k, stride=1, groups=1, *, rng, dtype=np.float32):
        if cin % groups or cout % groups:
            raise ValueError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
        self.stride, self.groups = stride, groups
        self.weight = _he_weight((cin, cout // groups, k, k), (cin // groups) * k * k, rng, dtype)

    def parameters(self):
        return [("weight", self.weight)]

    def __call__(self, x):
        return T.conv2d_transpose_cropped(x, self.weight, self.stride, self.groups)


class Linear:
    def __init__(self, din, dout, *, rng, dtype=np.float32):
        self.weight = _he_weight((din, dout), din, rng, dtype)

    def parameters(self):
        return [("weight", self.weight)]

    def __call__(self, x):
        return T.linear(x, self.weight)


@dataclass
class ConvMConfig:
    """Channel plan and hyper-parameters of one three-branch module.

    Branch pipelines: c1-c2-c3-dropout (regular convs), c4-dic1-dic2-dropout
    (dilated convs), c5-dec1-dec2-dropout (cropped transposed convs). The
    projections c1/c4/c5 are 1x1, ungrouped, stride 1; everything else uses
    kernel ``k`` split into ``groups`` channel groups.
    """

    n_in: int
    c1: int
    c2: int
    c3: int
    c4: int
    dic1: int
    dic2: int
    c5: int
    dec1: int
    dec2: int
    k: int = 3
    groups: int = 4
    dilations: tuple[int, int] = (2, 3)
    dropout: float = 0.2

    @property
    def out_channels(self) -> int:
        return self.c3 + self.dic2 + self.dec2

    def validate(self) -> None:
        for name in ("n_in", "c1", "c2", "c3", "c4", "dic1", "dic2", "c5", "dec1", "dec2"):
            if getattr(self, name) < 1:
                raise ValueError(f"ConvMConfig.{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in ("c1", "c2", "c3", "c4", "dic1", "dic2", "c5", "dec1", "dec2"):
            if getattr(self, name) % self.groups:
                raise ValueError(
                    f"{name}={getattr(self, name)} not divisible by groups={self.groups}")
        if any(d < 1 for d in self.dilations):
            raise ValueError("dilation rates must be >= 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "dilations": list(self.dilations)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConvMConfig":
        d = dict(d)
        if "dilations" in d:
            d["dilations"] = tuple(d["dilations"])
        return cls(**d)


def receptive_field(d: int) -> int:
    """Window edge seen by a dilated 3x3 conv at dilation factor d."""
    if d < 1:
        raise ValueError(f"dilation factor must be >= 1, got {d}")
    return 2 ** (d + 1) - 1


def dilation_rate_for(d: int, k: int = 3) -> int:
    """Rate making a k-kernel span the factor-d receptive field (k=3 only:
    solve rate*(k-1) + 1 == 2**(d+1) - 1)."""
    span = receptive_field(d) - 1
    if span % (k - 1):
        raise ValueError(f"no integer rate for d={d}, k={k}")
    return span // (k - 1)


class ConvM:
    """Three parallel branches concatenated along channels; spatial size is
    preserved end to end. ReLU follows all nine convs, one dropout per branch."""

    def __init__(self, cfg: ConvMConfig, *, rng, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        k, g = cfg.k, cfg.groups
        d1, d2 = cfg.dilations
        kw = dict(rng=rng, dtype=dtype)
        self.c1 = Conv2d(cfg.n_in, cfg.c1, 1, **kw)
        self.c2 = Conv2d(cfg.c1, cfg.c2, k, padding=(k - 1) // 2, groups=g, **kw)
        self.c3 = Conv2d(cfg.c2, cfg.c3, k, padding=(k - 1) // 2, groups=g, **kw)
        self.c4 = Conv2d(cfg.n_in, cfg.c4, 1, **kw)
        self.dic1 = Conv2d(cfg.c4, cfg.dic1, k, padding=d1 * (k - 1) // 2,
                           dilation=d1, groups=g, **kw)
        self.dic2 = Conv2d(cfg.dic1, cfg.dic2, k, padding=d2 * (k - 1) // 2,
                           dilation=d2, groups=g, **kw)
        self.c5 = Conv2d(cfg.n_in, cfg.c5, 1, **kw)
        self.dec1 = ConvTranspose2dCropped(cfg.c5, cfg.dec1, k, groups=g, **kw)
        self.dec2 = ConvTranspose2dCropped(cfg.dec1, cfg.dec2, k, groups=g, **kw)

    _SUBS = ("c1", "c2", "c3", "c4", "dic1", "dic2", "c5", "dec1", "dec2")

    def parameters(self):
        out = []
        for sub in self._SUBS:
            for pname, p in getattr(self, sub).parameters():
                out.append((f"{sub}.{pname}", p))
        return out

    def __call__(self, x, *, training=False, rng=None):
        out, _ = self.forward_with_taps(x, training=training, rng=rng)
        return out

    def forward_with_taps(self, x, *, training=False, rng=None):
        r = self.cfg.dropout
        b1 = T.relu(self.c3(T.relu(self.c2(T.relu(self.c1(x))))))
        b1d = T.dropout(b1, r, training, rng)
        b2 = T.relu(self.dic2(T.relu(self.dic1(T.relu(self.c4(x))))))
        b2d = T.dropout(b2, r, training, rng)
        b3 = T.relu(self.dec2(T.relu(self.dec1(T.relu(self.c5(x))))))
        b3d = T.dropout(b3, r, training, rng)
        out = T.concat([b1d, b2d, b3d], axis=1)
        taps = {"c3": b1, "dic2": b2, "dec2": b3}
        return out, taps
