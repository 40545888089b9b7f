"""Layer modules: thin parameter holders over the functional ops.

A module owns its weight tensors and exposes ``parameters()`` as
(name, Tensor) pairs; forward passes are explicit method calls so the
training loop controls dropout RNG and train/eval mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

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
    """Stride-1 transposed convolution center-cropped back to the input size."""

    def __init__(self, cin, cout, k, groups=1, *, rng, dtype=np.float32):
        if cin % groups or cout % groups:
            raise ValueError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
        self.groups = groups
        self.weight = _he_weight((cin, cout // groups, k, k), (cin // groups) * k * k, rng, dtype)

    def parameters(self):
        return [("weight", self.weight)]

    def __call__(self, x):
        return T.conv2d_transpose_cropped(x, self.weight, groups=self.groups)


class Linear:
    def __init__(self, din, dout, *, rng, dtype=np.float32):
        self.weight = _he_weight((din, dout), din, rng, dtype)

    def parameters(self):
        return [("weight", self.weight)]

    def __call__(self, x):
        return T.linear(x, self.weight)


# The three branches of the module: regular, dilated (at ``dilations``) and
# cropped transposed convs. Each is a 1x1 ungrouped projection followed by
# two k x k convs in ``groups`` channel groups, a ReLU after every conv and
# one dropout; its last conv names its tap. Parameter order, the audit's
# counts and the channel-plan checks all read this table.
BRANCHES = (("c1", "c2", "c3"), ("c4", "dic1", "dic2"), ("c5", "dec1", "dec2"))


@dataclass
class ConvMConfig:
    """Channel plan (one field per ``BRANCHES`` name) and hyper-parameters of
    one three-branch module."""

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
        return sum(getattr(self, branch[-1]) for branch in BRANCHES)

    def validate(self) -> None:
        channels = [name for branch in BRANCHES for name in branch]
        for name in ("n_in", *channels):
            if getattr(self, name) < 1:
                raise ValueError(f"ConvMConfig.{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in channels:
            if getattr(self, name) % self.groups:
                raise ValueError(
                    f"{name}={getattr(self, name)} not divisible by groups={self.groups}")
        if any(d < 1 for d in self.dilations):
            raise ValueError("dilation rates must be >= 1")
        if self.k < 1 or self.k % 2 == 0:
            # the "same" pad d*(k-1)//2 keeps the spatial size only for odd k
            raise ValueError(f"ConvMConfig.k={self.k} must be a positive odd integer")

    def to_dict(self) -> dict:
        return {**asdict(self), "dilations": list(self.dilations)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConvMConfig":
        """From a spec file's ``cfg`` mapping; an unknown key is a ValueError
        that lists the valid keys."""
        names = [f.name for f in fields(cls)]
        unknown = [key for key in d if key not in names]
        if unknown:
            raise ValueError(f"unknown cfg key(s) {unknown}; valid keys are {names}")
        d = dict(d)
        if "dilations" in d:
            d["dilations"] = tuple(d["dilations"])
        return cls(**d)


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise ValueError(f"{what}: {num} not divisible by groups={den}")
    return num // den


def branch_counts(cfg: ConvMConfig) -> tuple[int, int, int]:
    """Weights of each branch in ``BRANCHES`` order: the 1x1 projection plus
    two grouped k x k convs. Dilation and the transposed conv's crop add no
    weights."""
    k2 = cfg.k * cfg.k
    counts = []
    for b, names in enumerate(BRANCHES, start=1):
        proj, mid, out = (getattr(cfg, name) for name in names)
        counts.append(cfg.n_in * proj
                      + _exact_div(proj * mid * k2, cfg.groups, f"branch{b} {names[1]}")
                      + _exact_div(mid * out * k2, cfg.groups, f"branch{b} {names[2]}"))
    return tuple(counts)


def count_conv_m(cfg: ConvMConfig) -> int:
    return sum(branch_counts(cfg))


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
    """Three parallel branches (``BRANCHES``) concatenated along channels;
    spatial size is preserved end to end."""

    def __init__(self, cfg: ConvMConfig, *, rng, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        k, g = cfg.k, cfg.groups
        kw = dict(rng=rng, dtype=dtype)
        _, dilated, transposed = BRANCHES
        for branch in BRANCHES:
            proj, *convs = branch
            cin = getattr(cfg, proj)
            setattr(self, proj, Conv2d(cfg.n_in, cin, 1, **kw))
            rates = cfg.dilations if branch is dilated else (1, 1)
            for name, d in zip(convs, rates):
                cout = getattr(cfg, name)
                if branch is transposed:
                    conv = ConvTranspose2dCropped(cin, cout, k, groups=g, **kw)
                else:
                    conv = Conv2d(cin, cout, k, padding=d * (k - 1) // 2,
                                  dilation=d, groups=g, **kw)
                setattr(self, name, conv)
                cin = cout

    def parameters(self):
        return [(f"{sub}.{pname}", p) for branch in BRANCHES for sub in branch
                for pname, p in getattr(self, sub).parameters()]

    def __call__(self, x, *, training=False, rng=None):
        out, _ = self.forward_with_taps(x, training=training, rng=rng)
        return out

    def forward_with_taps(self, x, *, training=False, rng=None):
        outs, taps = [], {}
        for branch in BRANCHES:
            y = x
            for sub in branch:
                y = T.relu(getattr(self, sub)(y))
            taps[branch[-1]] = y
            outs.append(T.dropout(y, self.cfg.dropout, training, rng))
        return T.concat(outs, axis=1), taps
