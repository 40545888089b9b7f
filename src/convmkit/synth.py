"""Synthetic two-domain benchmark: class identity is carried by a fixed
binary shape template, while the target domain shifts the low-level
statistics (hue rotation, background grating, position jitter) without
touching the shapes. A source-trained classifier keys on colors and misfires
on the target; alignment terms can recover the shared geometry.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tdf

KNOWN_SHIFTS = ("hue", "texture", "affine")

SOURCE_FG = np.array([0.85, 0.25, 0.20])
SOURCE_BG = np.array([0.15, 0.15, 0.25])


@dataclass
class SynthParams:
    num_classes: int = 10
    per_class: int = 200
    size: int = 32
    shifts: tuple[str, ...] = ("hue", "texture", "affine")
    noise: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.size < 8 or self.size % 8:
            raise ValueError("size must be a positive multiple of 8")
        if self.num_classes < 2 or self.per_class < 1:
            raise ValueError("need >= 2 classes and >= 1 sample per class")
        bad = set(self.shifts) - set(KNOWN_SHIFTS)
        if bad:
            raise ValueError(f"unknown shifts {sorted(bad)}; known: {KNOWN_SHIFTS}")


def class_templates(params: SynthParams) -> np.ndarray:
    """One binary 8x8 mask per class, upscaled to size x size; shared across
    domains so shape is the label-bearing signal."""
    rng = np.random.default_rng([params.seed, 7919])
    f = params.size // 8
    masks = (rng.random((params.num_classes, 8, 8)) < 0.45).astype(np.float32)
    masks[:, 0, :] = 0.0  # keep a stable empty border so jitter cannot wrap shapes
    masks[:, :, 0] = 0.0
    return np.kron(masks, np.ones((f, f), dtype=np.float32))


def _render(templates, labels, rng, params: SynthParams, shifted: bool) -> np.ndarray:
    n, s = len(labels), params.size
    fg, bg = SOURCE_FG.copy(), SOURCE_BG.copy()
    if shifted and "hue" in params.shifts:
        fg, bg = fg[[2, 0, 1]], bg[[2, 0, 1]]
    x = np.empty((n, 3, s, s), dtype=np.float32)
    yy, xx = np.mgrid[0:s, 0:s]
    for i, lab in enumerate(labels):
        mask = templates[lab]
        if shifted and "affine" in params.shifts:
            dy, dx = rng.integers(-s // 8, s // 8 + 1, size=2)
            mask = np.roll(mask, (dy, dx), axis=(0, 1))
        img = bg[:, None, None] * (1.0 - mask) + fg[:, None, None] * mask
        if shifted and "texture" in params.shifts:
            freq = rng.uniform(0.4, 0.9)
            phase = rng.uniform(0, 2 * np.pi)
            grating = 0.18 * np.sin(freq * xx + 2.0 * freq * yy + phase)
            img = img + grating[None] * (1.0 - mask)[None]
        img = img + rng.normal(0.0, params.noise, size=(3, s, s))
        x[i] = np.clip(img, 0.0, 1.0)
    return x


def generate(params: SynthParams):
    """Returns (source_x, source_y, target_x, target_y); the shift spec is
    applied to the target domain only."""
    params.validate()
    templates = class_templates(params)
    labels = np.repeat(np.arange(params.num_classes), params.per_class).astype(np.int64)
    rng_s = np.random.default_rng([params.seed, 1])
    rng_t = np.random.default_rng([params.seed, 2])
    src = _render(templates, labels, rng_s, params, shifted=False)
    tgt = _render(templates, labels, rng_t, params, shifted=True)
    return src, labels, tgt, labels.copy()


def write_dataset(params: SynthParams, out_dir) -> Path:
    """Generate the benchmark and write it in the dataset layout."""
    src_x, src_y, tgt_x, tgt_y = generate(params)
    return write_domains(out_dir, (src_x, src_y), (tgt_x, tgt_y),
                         params={**params.__dict__, "shifts": list(params.shifts)})


def write_domains(out_dir, source, target, **extra) -> Path:
    """The one writer of the dataset layout that ``load_dataset`` reads: each
    domain's (x [N, 3, H, W], y [N]) as ``<domain>/img_NNNNN.tdf`` TDF images
    listed in manifest.csv (path,label,domain), and stats.json holding the
    pooled normalization stats plus ``extra``."""
    out = Path(out_dir)
    rows = []
    for domain, (x, y) in (("source", source), ("target", target)):
        (out / domain).mkdir(parents=True, exist_ok=True)
        for i in range(len(x)):
            rel = f"{domain}/img_{i:05d}.tdf"
            tdf.write(out / rel, x[i])
            rows.append((rel, int(y[i]), domain))
    with open(out / "manifest.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["path", "label", "domain"])
        w.writerows(rows)
    with open(out / "stats.json", "w") as f:
        json.dump({**pooled_stats(source[0], target[0]), **extra}, f, indent=1)
    return out


def load_dataset(root):
    """Read a written dataset back: ((src_x, src_y), (tgt_x, tgt_y), stats)."""
    root = Path(root)
    with open(root / "manifest.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    with open(root / "stats.json") as f:
        stats = json.load(f)
    out = {}
    for domain in ("source", "target"):
        sel = [r for r in rows if r["domain"] == domain]
        x = np.stack([tdf.read(root / r["path"]) for r in sel])
        y = np.array([int(r["label"]) for r in sel], dtype=np.int64)
        out[domain] = (x, y)
    return out["source"], out["target"], stats


def pooled_stats(source_x: np.ndarray, target_x: np.ndarray) -> dict:
    """Per-channel normalization stats (mean, std) over both domains' images
    together."""
    pooled = np.concatenate([source_x, target_x])
    return {"mean": pooled.mean(axis=(0, 2, 3)).tolist(),
            "std": pooled.std(axis=(0, 2, 3)).tolist()}


def normalize(x: np.ndarray, stats: dict) -> np.ndarray:
    mean = np.asarray(stats["mean"], dtype=np.float32)[:, None, None]
    std = np.asarray(stats["std"], dtype=np.float32)[:, None, None]
    return (x - mean) / np.maximum(std, 1e-6)
