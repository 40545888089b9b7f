"""Directory-of-images ingestion.

Converts a tree laid out as ``root/<domain>/<class>/<image>`` into the TDF +
manifest dataset format that the training harness reads. Only two image
encodings are supported: a deliberately minimal PNG subset (8-bit depth,
grayscale / RGB / RGBA, no interlacing) and ``.raw`` files, which are TDF
tensors of shape [3, H, W] under another extension.
"""

from __future__ import annotations

import csv
import json
import struct
import zlib
from pathlib import Path

import numpy as np

from . import tdf

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# samples per pixel for the supported PNG color types
_CHANNELS = {0: 1, 2: 3, 6: 4}


class ImageError(ValueError):
    pass


def _iter_chunks(blob: bytes):
    pos = 8
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise ImageError("truncated chunk header")
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        data = blob[pos + 8:pos + 8 + length]
        if len(data) != length:
            raise ImageError(f"truncated {ctype!r} chunk")
        yield ctype, data
        pos += 12 + length  # header + payload + CRC


def _unfilter(raw: bytes, h: int, w: int, ch: int) -> np.ndarray:
    """Undo PNG per-scanline filtering; returns uint8 [h, w, ch]."""
    stride = w * ch
    if len(raw) != h * (stride + 1):
        raise ImageError("decompressed size disagrees with the header")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(h):
        ftype = raw[r * (stride + 1)]
        line = np.frombuffer(raw, np.uint8, stride, r * (stride + 1) + 1).copy()
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(ch, stride):
                line[i] = (int(line[i]) + int(line[i - ch])) & 0xFF
        elif ftype == 2:  # Up
            line = (line + prev) & 0xFF
        elif ftype == 3:  # Average
            for i in range(stride):
                left = line[i - ch] if i >= ch else 0
                line[i] = (line[i] + ((int(left) + int(prev[i])) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                a = int(line[i - ch]) if i >= ch else 0
                b = int(prev[i])
                c = int(prev[i - ch]) if i >= ch else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                line[i] = (line[i] + pred) & 0xFF
        else:
            raise ImageError(f"unknown scanline filter {ftype}")
        out[r] = line
        prev = line
    return out.reshape(h, w, ch)


def read_png(path) -> np.ndarray:
    """Decode a PNG into float32 [3, H, W] in [0, 1].

    Supports bit depth 8, color types grayscale/RGB/RGBA, no interlacing;
    grayscale is replicated across channels, alpha is dropped. Every
    decoding error is an ``ImageError`` that names the file.
    """
    try:
        return _decode_png(Path(path).read_bytes())
    except ImageError as exc:
        raise ImageError(f"{path}: {exc}") from None
    except zlib.error as exc:
        raise ImageError(f"{path}: corrupt image data ({exc})") from None


def _decode_png(blob: bytes) -> np.ndarray:
    if blob[:8] != PNG_SIGNATURE:
        raise ImageError("not a PNG file")
    header = None
    idat = b""
    for ctype, data in _iter_chunks(blob):
        if ctype == b"IHDR":
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            break
    if header is None:
        raise ImageError("missing IHDR")
    w, h, depth, color, comp, filt, interlace = header
    if depth != 8 or color not in _CHANNELS:
        raise ImageError("only 8-bit gray/RGB/RGBA PNGs are supported")
    if interlace:
        raise ImageError("interlaced PNGs are not supported")
    if not idat:
        raise ImageError("no IDAT chunk")
    ch = _CHANNELS[color]
    px = _unfilter(zlib.decompress(idat), h, w, ch)
    if ch == 1:
        px = np.repeat(px, 3, axis=2)
    elif ch == 4:
        px = px[:, :, :3]
    return (px.astype(np.float32) / 255.0).transpose(2, 0, 1)


def read_image(path) -> np.ndarray:
    """Dispatch on extension: .png via the minimal decoder, .raw as a TDF
    tensor of shape [3, H, W]."""
    p = Path(path)
    if p.suffix.lower() == ".png":
        return read_png(p)
    if p.suffix.lower() == ".raw":
        arr = tdf.read(p).astype(np.float32)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ImageError(f"{p}: raw image must have shape [3, H, W]")
        return arr
    raise ImageError(f"{p}: unsupported extension (use .png or .raw)")


def import_images(root, out_dir, *, domains=("source", "target")) -> Path:
    """Convert ``root/<domain>/<class>/<image>`` into the harness dataset
    layout (TDF images, manifest.csv, stats.json). Class names are sorted
    and mapped to consecutive integer labels shared across domains."""
    root, out = Path(root), Path(out_dir)
    missing = [dom for dom in domains if not (root / dom).is_dir()]
    if missing:
        raise ImageError(f"no domain directory {', '.join(map(repr, missing))} "
                         f"under {root}")
    class_dirs = {dom: sorted(d for d in (root / dom).iterdir() if d.is_dir())
                  for dom in domains}
    class_names = sorted({d.name for dirs in class_dirs.values() for d in dirs})
    if not class_names:
        raise ImageError(f"no class directories under {root}")
    images = {dom: [(cdir.name, p) for cdir in dirs for p in sorted(cdir.iterdir())]
              for dom, dirs in class_dirs.items()}
    if not any(images.values()):
        raise ImageError(f"no images in the class directories under {root}")
    label_of = {n: i for i, n in enumerate(class_names)}
    rows = []
    pooled_sum = np.zeros(3)
    pooled_sq = np.zeros(3)
    count = 0
    for dom in domains:
        (out / dom).mkdir(parents=True, exist_ok=True)
        for i, (cname, img_path) in enumerate(images[dom]):
            x = read_image(img_path)
            rel = f"{dom}/img_{i:05d}.tdf"
            tdf.write(out / rel, x)
            rows.append((rel, label_of[cname], dom))
            pooled_sum += x.sum(axis=(1, 2))
            pooled_sq += (x * x).sum(axis=(1, 2))
            count += x.shape[1] * x.shape[2]
    with open(out / "manifest.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["path", "label", "domain"])
        w.writerows(rows)
    mean = pooled_sum / count
    std = np.sqrt(np.maximum(pooled_sq / count - mean * mean, 0.0))
    with open(out / "stats.json", "w") as f:
        json.dump({"mean": mean.tolist(), "std": std.tolist(),
                   "classes": class_names}, f, indent=1)
    return out
