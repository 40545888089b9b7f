"""The three-branch module, its channel-plan config and its weight counts.

``ConvM`` owns its weight tensors and exposes ``parameters()`` as
(name, Tensor) pairs; forward passes are explicit method calls so the
training loop controls dropout RNG and train/eval mode. A ``conv`` or
``linear`` layer is just its weight tensor (``network.KINDS``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor


def he_weight(shape, fan_in, rng, dtype):
    """A trainable weight of ``shape`` drawn from N(0, 2 / fan_in)."""
    std = np.sqrt(2.0 / fan_in)
    return Tensor(rng.standard_normal(shape) * std, requires_grad=True, dtype=dtype)


def check_number(what: str, v, typ: type, low: int | None = 1) -> None:
    """The type and range rule of a spec or config value: an ``int`` refuses a
    bool (and a float) and must be >= ``low`` (None: any); a ``float`` is any
    int or float but a bool; a ValueError names ``what``."""
    if typ is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{what} must be a number, got {v!r}")
        return
    if not isinstance(v, typ) or (isinstance(v, bool) and typ is not bool):
        raise ValueError(f"{what} must be of type {typ.__name__}, got {v!r}")
    if typ is int and low is not None and v < low:
        raise ValueError(f"{what} must be >= {low}, got {v}")


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
        for name in ("n_in", *channels, "groups"):
            check_number(f"ConvMConfig.{name}", getattr(self, name), int)
        rates = self.dilations
        if not isinstance(rates, (tuple, list)) or len(rates) != 2:
            raise ValueError(f"ConvMConfig.dilations must be two ints, got {rates!r}")
        for d in rates:
            check_number("ConvMConfig.dilations", d, int)
        check_number("ConvMConfig.dropout", self.dropout, float)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in channels:
            if getattr(self, name) % self.groups:
                raise ValueError(
                    f"{name}={getattr(self, name)} not divisible by groups={self.groups}")
        check_number("ConvMConfig.k", self.k, int, low=None)
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
        if isinstance(d.get("dilations"), list):  # anything else fails validate
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


class ConvM:
    """Three parallel branches (``BRANCHES``) concatenated along channels;
    spatial size is preserved end to end. ``weights`` holds one weight per
    ``BRANCHES`` name; each conv's padding, dilation and groups come from
    ``cfg``."""

    def __init__(self, cfg: ConvMConfig, *, rng, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        k, g = cfg.k, cfg.groups
        self.weights: dict[str, Tensor] = {}
        for branch in BRANCHES:
            proj, *convs = branch
            cin = getattr(cfg, proj)
            self.weights[proj] = he_weight((cin, cfg.n_in, 1, 1), cfg.n_in, rng, dtype)
            for name in convs:
                cout = getattr(cfg, name)
                # a transposed conv's weight is [Cin, Cout/g, k, k]
                shape = (cin, cout // g) if branch is BRANCHES[2] else (cout, cin // g)
                self.weights[name] = he_weight((*shape, k, k), cin // g * k * k, rng, dtype)
                cin = cout

    def parameters(self):
        return [(f"{name}.weight", w) for name, w in self.weights.items()]

    def __call__(self, x, *, training=False, rng=None):
        out, _ = self.forward_with_taps(x, training=training, rng=rng)
        return out

    def forward_with_taps(self, x, *, training=False, rng=None):
        cfg, w, g = self.cfg, self.weights, self.cfg.groups
        _, dilated, transposed = BRANCHES
        outs, taps = [], {}
        for branch in BRANCHES:
            proj, *convs = branch
            y = T.relu(T.conv2d(x, w[proj]))
            rates = cfg.dilations if branch is dilated else (1, 1)
            for name, d in zip(convs, rates):
                y = T.relu(T.conv2d_transpose_cropped(y, w[name], groups=g) if branch is transposed
                           else T.conv2d(y, w[name], 1, d * (cfg.k - 1) // 2, d, g))
            taps[branch[-1]] = y
            outs.append(T.dropout(y, cfg.dropout, training, rng))
        return T.concat(outs, axis=1), taps
