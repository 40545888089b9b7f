"""Checkpoint archives: a zip of one TDF entry per parameter tensor plus a
JSON metadata record (spec hash, census, step, seed).

Loading verifies the spec hash and the exact parameter census before any
weight is copied, and re-checks each entry length via the TDF header.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from . import tdf
from .network import Network


class CheckpointError(ValueError):
    pass


def save(model: Network, path, *, step: int = 0, seed: int = 0,
         extra: dict | None = None) -> None:
    params = model.parameters()
    meta = {
        "spec_hash": model.spec.hash(),
        "spec": model.spec.to_dict(),
        "census": model.param_census(),
        "step": step,
        "seed": seed,
        "num_classes": model.num_classes,
        "has_head": model.head is not None,
        **(extra or {}),
    }
    # fixed timestamps so save -> load -> save round-trips byte-identically
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as z:
        z.writestr(zipfile.ZipInfo("meta.json"), json.dumps(meta, sort_keys=True, indent=1))
        for name in sorted(params):
            z.writestr(zipfile.ZipInfo(f"params/{name}.tdf"), tdf.dumps(params[name].data))


def _open(path) -> zipfile.ZipFile:
    try:
        return zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise CheckpointError(f"{path}: not a checkpoint archive ({exc})") from exc


def _meta(z: zipfile.ZipFile, path) -> dict:
    try:
        return json.loads(z.read("meta.json"))
    except KeyError as exc:
        raise CheckpointError(f"{path}: not a checkpoint archive (no meta.json)") from exc


def read_meta(path) -> dict:
    with _open(path) as z:
        return _meta(z, path)


def load(model: Network, path) -> dict:
    """Copy archived weights into ``model``; returns the metadata dict."""
    params = model.parameters()
    with _open(path) as z:
        meta = _meta(z, path)
        if meta["spec_hash"] != model.spec.hash():
            raise CheckpointError(
                f"spec hash mismatch: checkpoint {meta['spec_hash']}, "
                f"model {model.spec.hash()}")
        if meta["census"] != model.param_census():
            raise CheckpointError(
                f"parameter census mismatch: checkpoint {meta['census']}, "
                f"model {model.param_census()}")
        names = {n[len("params/"):-len(".tdf")] for n in z.namelist()
                 if n.startswith("params/")}
        if names != set(params):
            missing = set(params) - names
            extra = names - set(params)
            raise CheckpointError(f"parameter name mismatch; missing={sorted(missing)}, "
                                  f"unexpected={sorted(extra)}")
        for name, p in params.items():
            try:
                arr = tdf.loads(z.read(f"params/{name}.tdf"))
            except tdf.TDFError as exc:
                raise CheckpointError(f"corrupt entry for {name!r}: {exc}") from exc
            if arr.shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: "
                                      f"{arr.shape} vs {p.data.shape}")
            p.data = np.ascontiguousarray(arr, dtype=p.data.dtype)
    return meta
