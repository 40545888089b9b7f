"""Command-line surface: audit | gradcheck | make-synth | train | eval |
export-features."""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .audit import REFERENCE_COUNTS, audit as run_audit, solve_groups as derive_groups
from . import checkpoint as ckpt_mod
from . import ingest as ingest_mod
from . import synth as synth_mod
from . import tdf
from . import tensor as T
from .config import RunConfig, load_config, save_config
from .da import (DAConfig, DADatasets, SolverConfig, evaluate as da_evaluate,
                 freeze_layers, metric_columns, mmd_taps, train_da)
from .gradcheck import gradcheck, run_default_suite, _t
from .network import (attach_da_heads, attach_decoders, build_network,
                      reference_spec, tiny_spec)


@click.group()
def main():
    """Compact three-branch CNN: parameter audits, gradient checks, synthetic
    two-domain benchmarks, and MMD-based domain-adaptation training."""


@main.command("audit")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--spec", "spec_name", default="reference",
              help="'reference', 'tiny', or a spec YAML path")
@click.option("--solve-groups", is_flag=True,
              help="also derive the group factor of every conv_m row from its golden count")
@click.option("--golden/--no-golden", "golden", default=None,
              help="diff against the published per-layer counts "
                   "(default: only for the reference spec)")
@click.option("--out", "out_dir", type=click.Path(), default=None)
def cmd_audit(config_path, spec_name, solve_groups, golden, out_dir):
    """Count parameters layer by layer and diff against the golden table."""
    named = {"reference": reference_spec, "tiny": tiny_spec}
    if golden is None:
        golden = spec_name == "reference" and not config_path
    try:
        if config_path:
            spec = _load_config(config_path).resolve_spec()
        elif spec_name in named:
            spec = named[spec_name]()
        elif Path(spec_name).is_file():
            spec = RunConfig(network=spec_name).resolve_spec()
        else:
            raise click.BadParameter(f"{spec_name!r} is not 'tiny', 'reference' or "
                                     "a spec YAML path", param_hint="'--spec'")
        report = run_audit(spec, REFERENCE_COUNTS if golden else None)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(report.to_table())
    if solve_groups:
        click.echo("group-factor derivation:")
        by_layer = {e.layer: e for e in report.entries}
        for i in spec.indices("conv_m"):
            cfg = spec.layers[i].params["cfg"]
            target = by_layer[i + 1].reference or by_layer[i + 1].computed
            g = derive_groups(cfg, target)
            click.echo(f"  layer {i + 1}: g={g}")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "param_report.csv").write_text(report.to_csv())
        click.echo(f"report written to {out / 'param_report.csv'}")
    if not report.passed:
        click.echo("AUDIT FAILED: nonzero diffs", err=True)
        sys.exit(1)
    click.echo(f"audit OK, total {report.total:,}")


@main.command("gradcheck")
@click.option("--op", default=None, help="single op to check (e.g. conv2d)")
@click.option("--dilation", default=1, type=int)
@click.option("--groups", default=1, type=int)
@click.option("--stride", default=1, type=int)
@click.option("--eps", default=1e-4, type=float)
@click.option("--tol", default=1e-4, type=float)
@click.option("--seed", default=1234, type=int)
def cmd_gradcheck(op, dilation, groups, stride, eps, tol, seed):
    """Verify analytic gradients against central finite differences."""
    if op is not None:
        rng = np.random.default_rng(seed)
        if op == "conv2d":
            cin = 2 * groups
            x = _t(rng, 1, cin, 9, 9)
            w = _t(rng, 2 * groups, cin // groups, 3, 3)
            fn = lambda x, w: T.conv2d(x, w, stride=stride, padding=dilation,
                                       dilation=dilation, groups=groups)
            rep = gradcheck(fn, [x, w], eps=eps, tol=tol)
        elif op == "conv2d_transpose":
            cin = 2 * groups
            x = _t(rng, 1, cin, 5, 5)
            w = _t(rng, cin, 2, 3, 3)
            fn = lambda x, w: T.conv2d_transpose_cropped(x, w, stride=stride, groups=groups)
            rep = gradcheck(fn, [x, w], eps=eps, tol=tol)
        else:
            raise click.ClickException(f"no targeted check for op {op!r}")
        click.echo(f"{op}: max relative error {rep.max_rel_error:.3e} (tol {tol:g})")
        sys.exit(0 if rep.passed else 1)
    results = run_default_suite(eps=eps, tol=tol, seed=seed)
    worst = 0.0
    ok = True
    for name, rep in results.items():
        status = "pass" if rep.passed else "FAIL"
        click.echo(f"  {name:<24} max rel err {rep.max_rel_error:.3e}  {status}")
        worst = max(worst, rep.max_rel_error)
        ok = ok and rep.passed
    click.echo(f"worst case: {worst:.3e} (tol {tol:g})")
    sys.exit(0 if ok else 1)


@main.command("make-synth")
@click.option("--classes", default=10, type=int)
@click.option("--per-class", default=200, type=int)
@click.option("--size", default=32, type=int)
@click.option("--shift", default="hue,texture,affine",
              help="comma list of hue/texture/affine, or 'none'")
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_make_synth(classes, per_class, size, shift, seed, out_dir):
    """Generate the two-domain benchmark as TDF images plus manifest."""
    shifts = () if shift == "none" else tuple(s.strip() for s in shift.split(","))
    params = synth_mod.SynthParams(num_classes=classes, per_class=per_class,
                                   size=size, shifts=shifts, seed=seed)
    out = synth_mod.write_dataset(params, out_dir)
    click.echo(f"wrote {2 * classes * per_class} images under {out}")


@main.command("import-images")
@click.option("--root", "root_dir", type=click.Path(exists=True), required=True,
              help="tree laid out as root/<domain>/<class>/<image>")
@click.option("--domains", default="source,target",
              help="comma list of domain directory names")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_import_images(root_dir, domains, out_dir):
    """Convert a directory of PNG/raw images into the TDF dataset layout."""
    doms = tuple(d.strip() for d in domains.split(","))
    try:
        out = ingest_mod.import_images(root_dir, out_dir, domains=doms)
    except ingest_mod.ImageError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"dataset written under {out}")


def _load_config(config_path) -> RunConfig:
    """The run config at ``config_path`` (defaults when None); a bad key is
    a usage error on ``--config``."""
    if not config_path:
        return RunConfig()
    try:
        return load_config(config_path)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc


def _load_data(cfg: RunConfig):
    if cfg.data_dir:
        (sx, sy), (tx, ty), stats = synth_mod.load_dataset(cfg.data_dir)
    else:
        sx, sy, tx, ty = synth_mod.generate(cfg.synth)
        stats = synth_mod.pooled_stats(sx, tx)
    sx = synth_mod.normalize(sx, stats)
    tx = synth_mod.normalize(tx, stats)
    return DADatasets(source_x=sx, source_y=sy, target_x=tx, target_y=ty), stats


def _build_model(cfg: RunConfig):
    """The test-time predictor: the encoder with the DA prediction head; a
    spec it cannot take is a click error."""
    rng = np.random.default_rng(cfg.solver.seed)
    try:
        net = build_network(cfg.resolve_spec(), rng=rng)
        return attach_da_heads(net, cfg.num_classes, rng=rng)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc


def _load_checkpoint(model, path) -> dict:
    """``checkpoint.load`` with a mismatch shown as a click error."""
    try:
        return ckpt_mod.load(model, path)
    except ckpt_mod.CheckpointError as exc:
        raise click.ClickException(str(exc)) from exc


def _write_metrics(path, columns, history):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(history)


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--mode", type=click.Choice(["source_only", "da"]), default=None)
@click.option("--resume", "resume_path", type=click.Path(exists=True), default=None)
@click.option("--seed", default=None, type=int)
@click.option("--out", "out_dir", type=click.Path(), default=None)
def cmd_train(config_path, mode, resume_path, seed, out_dir):
    """Source-only pre-training or DA fine-tuning; writes checkpoint, metrics
    CSV, and a copy of the effective config."""
    cfg = _load_config(config_path)
    if mode:
        cfg.mode = mode
    if seed is not None:
        cfg.solver.seed = seed
    if out_dir:
        cfg.out_dir = out_dir
    # the model is built and checked before the run directory is written;
    # decoders are attached after any resume load: checkpoints hold only the
    # test-time predictor, so a source-only one can seed DA fine-tuning
    model = _build_model(cfg)
    if resume_path:
        _load_checkpoint(model, resume_path)

    try:
        if cfg.mode == "da":
            attach_decoders(model, rng=np.random.default_rng(cfg.solver.seed + 1))
            da_cfg = cfg.da
        else:
            da_cfg = dataclasses.replace(cfg.da, no_gmmd=True, no_recons=True)
        columns = metric_columns(len(mmd_taps(model, da_cfg)))
        freeze_layers(model, da_cfg)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.yaml")
        data, stats = _load_data(cfg)
        history = train_da(model, data, da_cfg, cfg.solver)
    except ValueError as exc:  # a config the model or data cannot take
        raise click.ClickException(str(exc)) from exc
    _write_metrics(out / "metrics.csv", columns, history)
    ckpt_mod.save(model, out / "checkpoint.zip", step=cfg.solver.max_steps,
                  seed=cfg.solver.seed, extra={"mode": cfg.mode, "stats": stats})
    click.echo(f"final loss {history[-1][3]:.4f}; artifacts in {out}")


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--split", type=click.Choice(["source", "target"]), default="target")
def cmd_eval(config_path, ckpt_path, split):
    """Top-1 accuracy of a checkpoint on the labeled source or target split."""
    cfg = _load_config(config_path)
    model = _build_model(cfg)
    meta = _load_checkpoint(model, ckpt_path)
    data, _ = _load_data(cfg)
    x, y = ((data.source_x, data.source_y) if split == "source"
            else (data.target_x, data.target_y))
    try:
        acc = da_evaluate(model, x, y, batch_size=cfg.solver.batch_size)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"{split} top-1 accuracy: {acc:.4f} (step {meta['step']})")


@main.command("export-features")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--images", "images_path", type=click.Path(exists=True), required=True,
              help="a TDF image file or a directory of them")
@click.option("--layer", required=True, help="tap name, e.g. layer8")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_export_features(config_path, ckpt_path, images_path, layer, out_dir):
    """Dump activation maps at a named tap; conv_m taps yield one TDF per
    branch (c3 / dic2 / dec2)."""
    cfg = _load_config(config_path)
    model = _build_model(cfg)
    try:
        (i,) = model.spec.layer_indices([layer], "--layer")
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    meta = _load_checkpoint(model, ckpt_path)
    p = Path(images_path)
    files = sorted(p.glob("*.tdf")) if p.is_dir() else [p]
    x = np.stack([tdf.read(f) for f in files])
    if "stats" in meta:
        x = synth_mod.normalize(x, meta["stats"])
    with T.no_grad():
        st = model.forward(T.Tensor(x, dtype=model.dtype), training=False)
        if model.spec.layers[i].kind == "conv_m":
            _, taps = model.modules[i].forward_with_taps(st.layer_outputs[i - 1])
            maps = {f"{layer}_{bname}": t for bname, t in taps.items()}
        else:
            maps = {layer: st.layer_outputs[i]}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, t in maps.items():
        tdf.write(out / f"{name}.tdf", t.data)
        click.echo(f"wrote {out / f'{name}.tdf'}")


if __name__ == "__main__":
    main()
