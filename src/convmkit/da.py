"""Domain-adaptation objective and the training loop.

The unified loss combines source-label cross-entropy, Gaussian-MMD feature
alignment at named encoder taps, and input reconstruction through the
unpooling decoders; the sampling ratio of target-domain examples grows
linearly over training. Source-only training is the same loop with both
auxiliary terms removed (``no_gmmd`` and ``no_recons``); such a step forwards
only the batch's source rows and never reads its target pixels, while its
dropout masks are still drawn for the whole batch, so the RNG stream is the
one a full-batch forward would consume.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import check_number
from .mmd import median_bandwidth, mmd_loss
from .network import DECODER_NAMES, Network
from .optim import SGDMomentum, poly_lr

log = logging.getLogger(__name__)


@dataclass
class DAConfig:
    mmd_weight: float = 0.3
    mmd_layers: list[str] | None = None  # default: last three conv_m outputs
    recon_weight: float = 1.0
    sampling_start: float = 0.3
    sampling_end: float = 0.7
    freeze_set: list[str] | None = None  # default: stem conv + first three conv_m
    head_lr_multiplier: float = 10.0
    no_gmmd: bool = False
    no_recons: bool = False

    def validate(self) -> None:
        for name in ("mmd_weight", "recon_weight", "sampling_start", "sampling_end",
                     "head_lr_multiplier"):
            check_number(f"da.{name}", getattr(self, name), float)
        for name in ("no_gmmd", "no_recons"):
            check_number(f"da.{name}", getattr(self, name), bool)
        if self.mmd_weight < 0 or self.recon_weight < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 <= self.sampling_start <= self.sampling_end <= 1.0:
            raise ValueError("need 0 <= sampling_start <= sampling_end <= 1")


@dataclass
class SolverConfig:
    base_lr: float = 0.0009
    power: float = 0.5
    momentum: float = 0.9
    max_steps: int = 1000
    batch_size: int = 64
    seed: int = 0

    def validate(self) -> None:
        for name in ("base_lr", "power", "momentum"):
            check_number(f"solver.{name}", getattr(self, name), float)
        for name in ("max_steps", "batch_size"):
            check_number(f"solver.{name}", getattr(self, name), int)
        check_number("solver.seed", self.seed, int, low=0)


@dataclass
class DomainBatch:
    x: np.ndarray                # [B, C, H, W], source rows first
    labels: np.ndarray           # [B] int64; -1 on target rows
    is_target: np.ndarray        # [B] bool

    @property
    def source_rows(self) -> np.ndarray:
        return np.nonzero(~self.is_target)[0]

    @property
    def target_rows(self) -> np.ndarray:
        return np.nonzero(self.is_target)[0]


def default_mmd_layers(net: Network) -> list[str]:
    idx = net.spec.indices("conv_m")[-3:]
    return [net.spec.layer_name(i) for i in idx]


def default_freeze_set(net: Network) -> list[str]:
    stem = net.spec.indices("conv")[:1]
    return [net.spec.layer_name(i) for i in stem + net.spec.indices("conv_m")[:3]]


def freeze_layers(model: Network, cfg: DAConfig) -> list[str]:
    """Names of the frozen layers (default: stem conv + first three conv_m),
    each checked against the spec."""
    freeze = cfg.freeze_set if cfg.freeze_set is not None else default_freeze_set(model)
    model.spec.layer_indices(freeze, "freeze_set")
    return freeze


def mmd_taps(model: Network, cfg: DAConfig) -> list[int]:
    """Spec indices of the MMD taps (default: last three conv_m outputs)."""
    taps = cfg.mmd_layers or default_mmd_layers(model)
    return model.spec.layer_indices(taps, "mmd_layers")


def metric_columns(n_taps: int) -> list[str]:
    """metrics.csv header: one MMD column per tap, one recon column per
    decoder; ``train_da`` rows follow it whichever terms are ablated."""
    return (["step", "lr", "ratio", "loss_total", "loss_ce"]
            + [f"loss_mmd_tap{i}" for i in range(1, n_taps + 1)]
            + [f"loss_recon_d{i}" for i in range(1, len(DECODER_NAMES) + 1)])


def sampling_ratio(step: int, total_steps: int, cfg: DAConfig) -> float:
    """Linear ramp of the target-domain share from sampling_start to _end."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    frac = step / total_steps if total_steps else 1.0
    return cfg.sampling_start + (cfg.sampling_end - cfg.sampling_start) * frac


class _PoolCursor:
    """Without-replacement sampling that reshuffles each time the pool is
    exhausted; requests larger than the pool fall back to replacement."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng
        self.perm = rng.permutation(size)
        self.pos = 0
        self.warned = False

    def draw(self, k: int) -> np.ndarray:
        if k > self.size:
            if not self.warned:
                warnings.warn(f"pool of {self.size} smaller than batch share {k}; "
                              "sampling with replacement", stacklevel=3)
                self.warned = True
            return self.rng.integers(0, self.size, size=k)
        out = np.empty(k, dtype=np.int64)
        got = 0
        while got < k:
            take = min(k - got, self.size - self.pos)
            out[got:got + take] = self.perm[self.pos:self.pos + take]
            got += take
            self.pos += take
            if self.pos == self.size:
                self.perm = self.rng.permutation(self.size)
                self.pos = 0
        return out


class DomainSampler:
    def __init__(self, source_x, source_y, target_x, batch_size: int,
                 rng: np.random.Generator):
        self.source_x = source_x
        self.source_y = np.asarray(source_y, dtype=np.int64)
        self.target_x = target_x
        self.batch_size = batch_size
        self._src = _PoolCursor(len(source_x), rng)
        self._tgt = _PoolCursor(len(target_x), rng)

    def make_batch(self, ratio: float) -> DomainBatch:
        nt = int(round(ratio * self.batch_size))
        ns = self.batch_size - nt
        si = self._src.draw(ns)
        ti = self._tgt.draw(nt)
        x = np.concatenate([self.source_x[si], self.target_x[ti]], axis=0)
        labels = np.concatenate([self.source_y[si], np.full(nt, -1, dtype=np.int64)])
        is_target = np.concatenate([np.zeros(ns, bool), np.ones(nt, bool)])
        return DomainBatch(x=x, labels=labels, is_target=is_target)


class _RowsRng:
    """Dropout's rng for a forward of some rows of a batch: each draw is made
    for the whole batch and cut to ``rows``, so the stream moves exactly as
    under a forward of the whole batch."""

    def __init__(self, rng: np.random.Generator, batch_rows: int, rows: np.ndarray):
        self.rng, self.batch_rows, self.rows = rng, batch_rows, rows

    def random(self, shape):
        return self.rng.random((self.batch_rows, *shape[1:]))[self.rows]


def da_loss(model: Network, batch: DomainBatch, cfg: DAConfig, *,
            training: bool = True, rng=None):
    """Total objective and its components on one mixed batch.

    CE is taken over source rows only; MMD compares source vs target features
    at each tap; reconstruction runs over the whole batch. Ablation flags
    drop terms entirely (they are not just zero-weighted). With both terms
    dropped only the source rows are forwarded, so target pixels are never
    read; dropout masks are still drawn for the whole batch and cut to the
    source rows.
    """
    cfg.validate()
    src = batch.source_rows
    tgt = batch.target_rows
    if len(src) == 0:
        raise ValueError("batch has no source samples; CE is undefined")
    want_recons = not cfg.no_recons
    source_only = cfg.no_gmmd and not want_recons
    if source_only and rng is not None:
        rng = _RowsRng(rng, len(batch.x), src)
    x = T.Tensor(batch.x[src] if source_only else batch.x, dtype=model.dtype)
    st = model.forward(x, training=training, rng=rng, with_decoders=want_recons)
    if st.logits is None:
        raise ValueError("model has no prediction head")

    src_logits = st.logits if source_only else T.take_rows(st.logits, src)
    total = T.softmax_cross_entropy(src_logits, batch.labels[src])
    components = {"ce": total.data.item(), "mmd": [], "recon": []}

    if not cfg.no_gmmd:
        if len(tgt) == 0:
            raise ValueError("MMD needs target samples; enable no_gmmd otherwise")
        for i in mmd_taps(model, cfg):
            feats = T.flatten2d(st.layer_outputs[i])
            fs = T.take_rows(feats, src)
            ft = T.take_rows(feats, tgt)
            try:
                sigma = median_bandwidth(feats.data)
            except ValueError:
                # degenerate tap (e.g. every activation gated off): the
                # kernel bandwidth is undefined, so skip the term this step
                components["mmd"].append(0.0)
                continue
            lm = mmd_loss(fs, ft, sigma)
            components["mmd"].append(lm.data.item())
            total = total + cfg.mmd_weight * lm

    if want_recons:
        per = 1.0 / len(st.reconstructions)
        for rec in st.reconstructions:
            lr_ = T.mse(rec, x)
            components["recon"].append(lr_.data.item())
            total = total + (cfg.recon_weight * per) * lr_

    components["total"] = total.data.item()
    return total, components


@dataclass
class DADatasets:
    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray | None = None  # evaluation only, never trained on


def _metrics_row(step, lr, ratio, comps, n_taps):
    # an ablated term logs zeros, so every row matches metric_columns
    mmd = comps["mmd"] or [0.0] * n_taps
    rec = comps["recon"] or [0.0] * len(DECODER_NAMES)
    return [step, lr, ratio, comps["total"], comps["ce"], *mmd, *rec]


def train_da(model: Network, datasets: DADatasets, cfg: DAConfig,
             solver: SolverConfig, *, on_step=None):
    """The fine-tuning protocol: mixed-domain batches with a growing target
    share, poly LR decay, frozen early layers, 10x LR on new layers. With
    ``no_gmmd`` and ``no_recons`` it is the source-only baseline. Frozen
    parameters get ``requires_grad = False``, which takes them off the tape,
    and stay out of the optimizer; all others get ``True``.

    Returns the per-step metrics rows (see ``metric_columns``); decoders are
    stripped from the model afterwards so the result is the test-time
    predictor.
    """
    cfg.validate()
    solver.validate()
    n_taps = len(mmd_taps(model, cfg))
    freeze = freeze_layers(model, cfg)
    rng = np.random.default_rng(solver.seed)
    sampler = DomainSampler(datasets.source_x, datasets.source_y,
                            datasets.target_x, solver.batch_size, rng)
    for name, p in model.parameters().items():
        p.requires_grad = name.split(".", 1)[0] not in freeze
    trainable = {n: p for n, p in model.parameters().items() if p.requires_grad}
    mults = {name: cfg.head_lr_multiplier for part in model.parts()
             for name in part.parameters() if name in trainable}
    opt = SGDMomentum(trainable, momentum=solver.momentum, lr_multipliers=mults)
    history = []
    for step in range(solver.max_steps):
        lr = poly_lr(solver.base_lr, step, solver.max_steps, solver.power)
        ratio = sampling_ratio(step, solver.max_steps, cfg)
        batch = sampler.make_batch(ratio)
        opt.zero_grad()
        total, comps = da_loss(model, batch, cfg, training=True, rng=rng)
        if not np.isfinite(comps["total"]):
            raise RuntimeError(f"divergence at step {step}: loss {comps['total']}")
        total.backward()
        del total  # free this step's graph before the next forward
        opt.step(lr)
        row = _metrics_row(step, lr, ratio, comps, n_taps)
        history.append(row)
        if on_step:
            on_step(step, row)
    model.decoders = None
    return history


def evaluate(model: Network, x: np.ndarray, y: np.ndarray,
             batch_size: int = 64) -> float:
    """Top-1 accuracy in eval mode (dropout off), with no tape recorded."""
    if len(x) == 0:
        raise ValueError("empty evaluation set")
    y = np.asarray(y, dtype=np.int64)
    hits = 0
    with T.no_grad():
        for i in range(0, len(x), batch_size):
            xb = T.Tensor(x[i:i + batch_size], dtype=model.dtype)
            hits += int(np.sum(model.predict(xb) == y[i:i + batch_size]))
    return hits / len(x)
