"""Minimal PNG decoding and directory-of-images conversion."""

import csv
import re
import struct
import zlib

import numpy as np
import pytest

from convmkit import tdf
from convmkit.ingest import ImageError, import_images, read_image, read_png
from convmkit.synth import load_dataset


def _chunk(ctype: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data)))


def write_png(path, px: np.ndarray, *, color_type=None, filters=None):
    """Tiny PNG encoder for test fixtures; px is uint8 [H, W, C]."""
    h, w, ch = px.shape
    color = {1: 0, 3: 2, 4: 6}[ch] if color_type is None else color_type
    filters = filters or [0] * h
    raw = b""
    prev = np.zeros(w * ch, np.int64)
    for r in range(h):
        line = px[r].reshape(-1).astype(np.int64)
        f = filters[r]
        if f == 0:
            enc = line
        elif f == 1:  # Sub
            left = np.concatenate([np.zeros(ch, np.int64), line[:-ch]])
            enc = (line - left) % 256
        elif f == 2:  # Up
            enc = (line - prev) % 256
        else:
            raise NotImplementedError(f)
        raw += bytes([f]) + bytes(enc.astype(np.uint8))
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw)) + _chunk(b"IEND", b""))
    path.write_bytes(blob)


RNG = np.random.default_rng(12)


class TestPNG:
    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_roundtrip_unfiltered(self, tmp_path, channels):
        px = RNG.integers(0, 256, size=(5, 7, channels), dtype=np.uint8)
        p = tmp_path / "img.png"
        write_png(p, px)
        out = read_png(p)
        assert out.shape == (3, 5, 7)
        rgb = px if channels == 3 else (
            np.repeat(px, 3, axis=2) if channels == 1 else px[:, :, :3])
        assert np.allclose(out, rgb.transpose(2, 0, 1) / 255.0)

    @pytest.mark.parametrize("ftype", [1, 2])
    def test_filtered_scanlines(self, tmp_path, ftype):
        px = RNG.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
        p = tmp_path / "img.png"
        write_png(p, px, filters=[0] + [ftype] * 5)
        assert np.allclose(read_png(p), px.transpose(2, 0, 1) / 255.0)

    def test_rejects_non_png(self, tmp_path):
        p = tmp_path / "x.png"
        p.write_bytes(b"not a png at all")
        with pytest.raises(ImageError, match="not a PNG"):
            read_png(p)

    def test_rejects_16_bit(self, tmp_path):
        px = RNG.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
        p = tmp_path / "img.png"
        write_png(p, px)
        blob = bytearray(p.read_bytes())
        blob[24] = 16  # bit-depth byte inside IHDR
        # CRC is now wrong, but the depth check fires first
        p.write_bytes(bytes(blob))
        with pytest.raises(ImageError, match="8-bit"):
            read_png(p)

    def test_missing_idat_names_the_file(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        p = tmp_path / "img.png"
        p.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b""))
        with pytest.raises(ImageError, match="img.png: no IDAT"):
            read_png(p)

    def test_truncated_zlib_stream_names_the_file(self, tmp_path):
        raw = b"".join(b"\x00" + bytes(6) for _ in range(2))
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        p = tmp_path / "img.png"
        p.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
                      + _chunk(b"IDAT", zlib.compress(raw)[:-6]) + _chunk(b"IEND", b""))
        with pytest.raises(ImageError, match="img.png: corrupt image data"):
            read_png(p)

    def test_raw_dispatch(self, tmp_path):
        arr = RNG.random((3, 4, 4)).astype(np.float32)
        p = tmp_path / "img.raw"
        tdf.write(p, arr)
        assert np.array_equal(read_image(p), arr)
        with pytest.raises(ImageError, match="extension"):
            read_image(tmp_path / "img.bmp")


def make_tree(root, domains=("source", "target"), classes=("cat", "dog"), per=2, size=8):
    """root/<domain>/<class>/<i>.png with random pixels."""
    for dom in domains:
        for cname in classes:
            d = root / dom / cname
            d.mkdir(parents=True)
            for i in range(per):
                px = RNG.integers(0, 256, size=(size, size, 3), dtype=np.uint8)
                write_png(d / f"{i}.png", px)


class TestImportImages:
    def test_layout_and_labels(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src)
        out = import_images(src, tmp_path / "ds")
        with open(out / "manifest.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8
        labels = {r["path"]: int(r["label"]) for r in rows}
        # sorted class names -> cat=0, dog=1, shared across domains
        assert set(labels.values()) == {0, 1}

    def test_loadable_by_dataset_reader(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src)
        out = import_images(src, tmp_path / "ds")
        (sx, sy), (tx, ty), stats = load_dataset(out)
        assert sx.shape == (4, 3, 8, 8) and tx.shape == (4, 3, 8, 8)
        assert sorted(sy.tolist()) == [0, 0, 1, 1]
        assert len(stats["mean"]) == 3

    def test_empty_tree_rejected(self, tmp_path):
        (tmp_path / "raw" / "source").mkdir(parents=True)
        (tmp_path / "raw" / "target").mkdir(parents=True)
        with pytest.raises(ImageError, match="no class"):
            import_images(tmp_path / "raw", tmp_path / "ds")

    def test_class_directories_without_images_rejected(self, tmp_path):
        for dom in ("source", "target"):
            (tmp_path / "raw" / dom / "cat").mkdir(parents=True)
        with pytest.raises(ImageError, match="no images"):
            import_images(tmp_path / "raw", tmp_path / "ds")
        assert not (tmp_path / "ds" / "stats.json").exists()

    def test_missing_domain_directory_rejected(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src)
        with pytest.raises(ImageError, match="no domain directory 'val'"):
            import_images(src, tmp_path / "ds", domains=("source", "val"))

    def test_named_domains_roundtrip_as_source_and_target(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src, domains=("webcam", "amazon"))
        out = import_images(src, tmp_path / "ds", domains=("webcam", "amazon"))
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.csv", "source", "stats.json", "target"]
        (sx, sy), (tx, ty), stats = load_dataset(out)
        webcam = sorted((src / "webcam").glob("*/*.png"))
        amazon = sorted((src / "amazon").glob("*/*.png"))
        assert np.array_equal(sx, np.stack([read_image(p) for p in webcam]))
        assert np.array_equal(tx, np.stack([read_image(p) for p in amazon]))
        assert sy.tolist() == ty.tolist() == [0, 0, 1, 1]
        assert stats["classes"] == ["cat", "dog"]

    def test_mixed_image_sizes_rejected(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src)
        odd = src / "target" / "dog" / "1.png"
        write_png(odd, RNG.integers(0, 256, size=(8, 6, 3), dtype=np.uint8))
        with pytest.raises(ImageError, match=re.escape(f"{odd}: image size (8, 6) differs "
                                                       f"from (8, 8) of {src}")):
            import_images(src, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_empty_domain_rejected(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src, domains=("source",))
        (src / "target" / "cat").mkdir(parents=True)
        with pytest.raises(ImageError, match=re.escape(
                f"no images in the class directories under {src / 'target'}")):
            import_images(src, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_domains_must_be_two(self, tmp_path):
        src = tmp_path / "raw"
        make_tree(src, domains=("source", "target", "val"))
        with pytest.raises(ImageError, match="domains must name two directories"):
            import_images(src, tmp_path / "ds", domains=("source", "target", "val"))
