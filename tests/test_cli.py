"""End-to-end command-line behavior via click's test runner."""

import csv
import json
import re
import zipfile

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from convmkit import checkpoint, cli, da, synth, tdf
from convmkit import tensor as T
from convmkit.checkpoint import read_meta
from convmkit.cli import _load_data, main
from convmkit.config import RunConfig
from convmkit.synth import SynthParams
from convmkit.audit import count_network
from convmkit.layers import ConvMConfig
from convmkit.network import LayerSpec, Network, NetworkSpec, reference_spec, tiny_spec
from test_ingest import make_tree, write_png


@pytest.fixture
def runner():
    return CliRunner()


def small_config(tmp_path, **overrides):
    cfg = {
        "network": "tiny",
        "num_classes": 4,
        "input_size": 32,
        "mode": "source_only",
        "synth": {"num_classes": 4, "per_class": 8, "size": 32, "seed": 1},
        "solver": {"max_steps": 2, "batch_size": 8, "seed": 1},
        "da": {"freeze_set": []},
        "out_dir": str(tmp_path / "run"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg[key] = {**cfg.get(key, {}), **val}
        else:
            cfg[key] = val
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(cfg))
    return p


class TestAudit:
    def test_reference_passes(self, runner):
        res = runner.invoke(main, ["audit", "--spec", "reference"])
        assert res.exit_code == 0, res.output
        assert "4,118,080" in res.output

    def test_solve_groups_prints_four_for_all_rows(self, runner):
        res = runner.invoke(main, ["audit", "--spec", "reference",
                                   "--solve-groups"])
        assert res.exit_code == 0
        lines = [l for l in res.output.splitlines() if "g=" in l]
        assert len(lines) == 7
        assert all(l.strip().endswith("g=4") for l in lines)

    def test_mutated_channel_fails_on_one_row(self, runner, tmp_path):
        spec = reference_spec()
        bumped = None
        for i, e in enumerate(spec.layers):
            if e.kind == "conv_m":
                e.params["cfg"].c5 *= 2  # widen one branch of the first module
                bumped = i + 1
                break
        sp = tmp_path / "spec.yaml"
        sp.write_text(yaml.safe_dump(spec.to_dict()))
        res = runner.invoke(main, ["audit", "--spec", str(sp), "--golden",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "AUDIT FAILED" in res.output
        with open(tmp_path / "param_report.csv", newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["layer"].isdigit()]
        bad = [r for r in rows if r["diff"] not in ("", "0")]
        assert len(bad) == 1 and int(bad[0]["layer"]) == bumped

    def test_tiny_audits_its_own_spec(self, runner):
        res = runner.invoke(main, ["audit", "--spec", "tiny"])
        assert res.exit_code == 0, res.output
        total = count_network(tiny_spec()).total
        assert res.output.strip().endswith(f"audit OK, total {total:,}")

    def test_shape_invalid_spec_is_a_clean_error(self, runner, tmp_path):
        spec = reference_spec()
        spec.layers[3].params["cfg"].n_in = 32
        sp = tmp_path / "spec.yaml"
        sp.write_text(yaml.safe_dump(spec.to_dict()))
        res = runner.invoke(main, ["audit", "--spec", str(sp)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Error: layer4: conv_m expects 32 input channels, got 64" in res.output

    @pytest.mark.parametrize("layer,message", [
        ({"params": {"k": 1}}, "layer2: layer has no 'kind'"),
        ({"kind": "conv_m", "params": {}}, "layer2: a 'conv_m' layer needs a 'cfg' mapping"),
        ({"kind": "conv_m", "params": {"cfg": {"foo": 1}}}, "layer2: unknown cfg key(s) ['foo']"),
        ({"kind": "conv", "params": {"out_channels": 2, "k": 1, "stride": 0}},
         "layer2: param 'stride' must be >= 1, got 0"),
        ({"kind": "conv", "params": {"out_channels": 2, "k": 1, "dilation": 2}},
         "layer2: unknown param(s) ['dilation'] for 'conv'"),
        ({"kind": "conv", "params": {"out_channels": 2, "k": True}},
         "layer2: param 'k' must be of type int, got True"),
    ])
    def test_spec_file_error_is_a_clean_error(self, runner, tmp_path, layer, message):
        sp = tmp_path / "spec.yaml"
        sp.write_text(yaml.safe_dump({"layers": [
            {"kind": "input", "params": {"channels": 3, "height": 4, "width": 4}}, layer]}))
        res = runner.invoke(main, ["audit", "--spec", str(sp)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert f"Error: {message}" in res.output

    def test_layer_after_a_flat_output_is_a_clean_error(self, runner, tmp_path):
        sp = tmp_path / "spec.yaml"
        sp.write_text(yaml.safe_dump({"layers": [
            {"kind": "input", "params": {"channels": 3, "height": 4, "width": 4}},
            {"kind": "avgpool", "params": {"k": 4, "stride": 1}},
            {"kind": "linear", "params": {"out_features": 5}},
            {"kind": "conv", "params": {"out_channels": 2, "k": 1}}]}))
        res = runner.invoke(main, ["audit", "--spec", str(sp)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Error: layer4: 'conv' cannot take the flat output of layer3" in res.output

    def test_unknown_spec_is_a_usage_error(self, runner):
        res = runner.invoke(main, ["audit", "--spec", "bogus"])
        assert res.exit_code == 2
        assert "'bogus' is not 'tiny', 'reference' or a spec YAML path" in res.output

    def test_report_file_written(self, runner, tmp_path):
        res = runner.invoke(main, ["audit", "--spec", "reference",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0
        text = (tmp_path / "param_report.csv").read_text()
        assert text.splitlines()[0] == "layer,kind,computed,reference,diff"
        assert "4118080" in text


class TestGradcheck:
    def test_targeted_conv_check(self, runner):
        res = runner.invoke(main, ["gradcheck", "--op", "conv2d",
                                   "--dilation", "3", "--groups", "4"])
        assert res.exit_code == 0, res.output
        assert "max relative error" in res.output

    def test_unknown_op(self, runner):
        res = runner.invoke(main, ["gradcheck", "--op", "frobnicate"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose"])
    @pytest.mark.parametrize("option", ["--stride", "--groups", "--dilation"])
    def test_zero_conv_option_is_a_usage_error(self, runner, op, option):
        res = runner.invoke(main, ["gradcheck", "--op", op, option, "0"])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{option}'" in res.output


class TestMakeSynth:
    def test_counts_and_manifest(self, runner, tmp_path):
        res = runner.invoke(main, ["make-synth", "--classes", "3",
                                   "--per-class", "4", "--size", "16",
                                   "--out", str(tmp_path / "ds")])
        assert res.exit_code == 0, res.output
        with open(tmp_path / "ds" / "manifest.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 24
        imgs = list((tmp_path / "ds" / "source").glob("*.tdf"))
        assert len(imgs) == 12

    def test_shift_none(self, runner, tmp_path):
        res = runner.invoke(main, ["make-synth", "--classes", "2",
                                   "--per-class", "2", "--size", "16",
                                   "--shift", "none",
                                   "--out", str(tmp_path / "ds")])
        assert res.exit_code == 0, res.output
        stats = json.loads((tmp_path / "ds" / "stats.json").read_text())
        assert stats["params"]["shifts"] == []

    def test_invalid_shift(self, runner, tmp_path):
        res = runner.invoke(main, ["make-synth", "--shift", "sepia",
                                   "--out", str(tmp_path / "ds")])
        assert res.exit_code != 0


class TestTrainEvalExport:
    def test_train_writes_artifacts(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        run = tmp_path / "run"
        assert (run / "config.yaml").exists()
        assert (run / "checkpoint.zip").exists()
        with open(run / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "lr", "ratio", "loss_total", "loss_ce",
                           "loss_mmd_tap1", "loss_mmd_tap2", "loss_mmd_tap3",
                           "loss_recon_d1", "loss_recon_d2"]
        assert len(rows) == 3  # header + 2 steps
        meta = read_meta(run / "checkpoint.zip")
        assert meta["mode"] == "source_only"

    def test_rerun_metrics_identical(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        first = (tmp_path / "run" / "metrics.csv").read_bytes()
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == first

    def test_divergent_run_keeps_the_rows_before_it(self, runner, tmp_path, monkeypatch):
        run, on_disk = tmp_path / "run", []

        def train_da(*args, on_step):
            def step_then_read(step, row):  # each row is on disk as its step ends
                on_step(step, row)
                on_disk.append(len((run / "metrics.csv").read_text().splitlines()))
            return da.train_da(*args, on_step=step_then_read)

        monkeypatch.setattr(cli, "train_da", train_da)
        cfg = small_config(tmp_path, solver={"max_steps": 6, "base_lr": 1000.0})
        with np.errstate(all="ignore"):
            res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        k = int(re.search(r"Error: divergence at step (\d+)", res.output).group(1))
        assert k >= 1
        with open(run / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:5] == ["step", "lr", "ratio", "loss_total", "loss_ce"]
        assert [int(r[0]) for r in rows[1:]] == list(range(k))
        assert on_disk == list(range(2, k + 2))
        assert not (run / "checkpoint.zip").exists()

    def test_da_mode_logs_mmd_columns(self, runner, tmp_path):
        cfg = small_config(tmp_path, mode="da")
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        with open(tmp_path / "run" / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            assert float(row["loss_mmd_tap1"]) != 0.0
            assert float(row["loss_recon_d1"]) != 0.0

    def test_da_resumes_from_source_checkpoint(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        ck = tmp_path / "run" / "checkpoint.zip"
        cfg2 = small_config(tmp_path, mode="da", out_dir=str(tmp_path / "run2"))
        res = runner.invoke(main, ["train", "--config", str(cfg2),
                                   "--resume", str(ck)])
        assert res.exit_code == 0, res.output
        assert read_meta(tmp_path / "run2" / "checkpoint.zip")["mode"] == "da"

    def test_resume_census_mismatch_is_a_clean_error(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        ck = tmp_path / "run" / "checkpoint.zip"
        meta = read_meta(ck)
        meta["census"] += 1
        tampered = tmp_path / "tampered.zip"
        with zipfile.ZipFile(ck) as src, zipfile.ZipFile(tampered, "w") as dst:
            for name in src.namelist():
                blob = json.dumps(meta) if name == "meta.json" else src.read(name)
                dst.writestr(name, blob)
        cfg2 = small_config(tmp_path, out_dir=str(tmp_path / "run2"))
        res = runner.invoke(main, ["train", "--config", str(cfg2),
                                   "--resume", str(tampered)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Error: parameter census mismatch" in res.output

    @pytest.mark.parametrize("command", ["eval", "export-features"])
    def test_checkpoint_mismatch_is_a_clean_error(self, runner, tmp_path, command):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        ck = tmp_path / "run" / "checkpoint.zip"
        cfg5 = small_config(tmp_path, num_classes=5)  # the head's fc2 grows by 256
        img = tmp_path / "probe.tdf"
        tdf.write(img, np.zeros((3, 32, 32), np.float32))
        args = {"eval": ["eval", "--config", str(cfg5), "--checkpoint", str(ck)],
                "export-features": ["export-features", "--config", str(cfg5),
                                    "--checkpoint", str(ck), "--images", str(img),
                                    "--layer", "layer4", "--out", str(tmp_path / "feats")]}
        res = runner.invoke(main, args[command])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Error: parameter census mismatch: checkpoint 39776, model 40032" in res.output

    def test_unknown_config_key_is_a_usage_error(self, runner, tmp_path):
        cfg = small_config(tmp_path, da={"mmd_wieght": 0.3})
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "unknown config key(s) ['da.mmd_wieght']" in res.output
        assert "'mmd_weight'" in res.output  # lists the valid keys

    def test_config_section_must_be_a_mapping(self, runner, tmp_path):
        cfg = small_config(tmp_path, solver=None)
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "config section 'solver' must be a mapping" in res.output

    def test_image_size_mismatch_is_a_clean_error(self, runner, tmp_path):
        cfg = small_config(tmp_path, synth={"size": 64})
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "[3, 64, 64]" in res.output and "[3, 32, 32]" in res.output

    @staticmethod
    def spec_file(tmp_path, stem):
        """input 3x32x32 -> ``stem`` -> two conv/maxpool stages -> avgpool -> linear."""
        layers = [{"kind": "input", "params": {"channels": 3, "height": 32, "width": 32}},
                  {"kind": "conv", "params": stem}]
        for _ in range(2):
            layers += [{"kind": "maxpool", "params": {"k": 2, "stride": 2}},
                       {"kind": "conv", "params": {"out_channels": 4, "k": 3, "padding": 1}}]
        layers += [{"kind": "avgpool", "params": {"k": 8, "stride": 1}},
                   {"kind": "linear", "params": {"out_features": 4}}]
        sp = tmp_path / "spec.yaml"
        sp.write_text(yaml.safe_dump({"layers": layers}))
        return str(sp)

    @pytest.mark.parametrize("command", ["train", "eval", "export-features"])
    def test_invalid_spec_is_a_clean_error(self, runner, tmp_path, command):
        spec = self.spec_file(tmp_path, {"out_channels": 4, "k": 3, "stride": 0})
        cfg = small_config(tmp_path, network=spec)
        args = {"train": [],
                "eval": ["--checkpoint", str(cfg)],
                "export-features": ["--checkpoint", str(cfg), "--images", str(cfg),
                                    "--layer", "layer2", "--out", str(tmp_path)]}[command]
        res = runner.invoke(main, [command, "--config", str(cfg), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Error: layer2: param 'stride' must be >= 1, got 0" in res.output

    def test_da_without_conv_m_is_a_clean_error(self, runner, tmp_path):
        spec = self.spec_file(tmp_path, {"out_channels": 4, "k": 3, "padding": 1})
        cfg = small_config(tmp_path, network=spec, mode="da")
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Error: decoder1 needs a conv_m tap" in res.output

    @pytest.mark.parametrize("mode,stem,message", [
        ("source_only", {"out_channels": 4, "k": 3, "stride": 0},
         "layer2: param 'stride' must be >= 1, got 0"),
        ("da", {"out_channels": 4, "k": 3, "padding": 1}, "decoder1 needs a conv_m tap")])
    def test_refused_spec_writes_nothing(self, runner, tmp_path, monkeypatch, mode,
                                         stem, message):
        monkeypatch.setattr(cli, "_load_data", self.no_data)
        cfg = small_config(tmp_path, network=self.spec_file(tmp_path, stem), mode=mode)
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--out", str(tmp_path / "bad")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert message in res.output
        assert not (tmp_path / "bad").exists()

    def test_decoder_tap_before_its_pool_writes_nothing(self, runner, tmp_path, monkeypatch):
        # decoder1 taps the conv_m (layer4, 8x8) but would unpool through
        # the maxpool after it (layer5, 4x4)
        monkeypatch.setattr(cli, "_load_data", self.no_data)
        cfg_m = ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4, c5=4,
                            dec1=4, dec2=4, groups=2)
        spec = NetworkSpec([
            LayerSpec("input", {"channels": 3, "height": 16, "width": 16}),
            LayerSpec("conv", {"out_channels": 4, "k": 3, "padding": 1}),
            LayerSpec("maxpool", {"k": 2, "stride": 2}), LayerSpec("conv_m", {"cfg": cfg_m}),
            LayerSpec("maxpool", {"k": 2, "stride": 2}),
            LayerSpec("conv", {"out_channels": 4, "k": 1}),
            LayerSpec("avgpool", {"k": 4, "stride": 1}),
            LayerSpec("linear", {"out_features": 4})])
        sp = tmp_path / "spec.yaml"
        sp.write_text(yaml.safe_dump(spec.to_dict()))
        cfg = small_config(tmp_path, network=str(sp), mode="da", input_size=16)
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--out", str(tmp_path / "bad")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert ("Error: decoder1 (tap layer4): its (8, 8) map cannot unpool through "
                "pooling layer layer5, whose output is (4, 4)") in res.output
        assert not (tmp_path / "bad").exists()

    def test_unknown_freeze_set_writes_nothing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_load_data", self.no_data)
        cfg = small_config(tmp_path, da={"freeze_set": ["layer99"]})
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--out", str(tmp_path / "bad")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "freeze_set: unknown layer name(s) ['layer99']" in res.output
        assert not (tmp_path / "bad").exists()

    def test_zero_max_steps_writes_nothing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_load_data", self.no_data)
        cfg = small_config(tmp_path, solver={"max_steps": 0})
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--out", str(tmp_path / "bad")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "solver.max_steps must be >= 1, got 0" in res.output
        assert not (tmp_path / "bad").exists()

    def test_non_numeric_da_weight_writes_nothing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_load_data", self.no_data)
        cfg = small_config(tmp_path, da={"mmd_weight": "abc"})
        res = runner.invoke(main, ["train", "--config", str(cfg),
                                   "--out", str(tmp_path / "bad")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "da.mmd_weight must be a number, got 'abc'" in res.output
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", [
        ["eval", "--checkpoint"], ["train", "--resume"],
        ["export-features", "--layer", "layer2", "--checkpoint"]])
    def test_non_archive_checkpoint_is_a_click_error(self, runner, tmp_path, command):
        cfg = small_config(tmp_path)
        extra = (["--images", str(cfg), "--out", str(tmp_path / "feats")]
                 if command[0] == "export-features" else [])
        res = runner.invoke(main, [*command, str(cfg), "--config", str(cfg), *extra])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "not a checkpoint archive" in res.output

    def test_eval_checks_spec_before_loading_data(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_load_data", self.no_data)
        spec = self.spec_file(tmp_path, {"out_channels": 4, "k": 3, "stride": 0})
        cfg = small_config(tmp_path, network=spec)
        res = runner.invoke(main, ["eval", "--config", str(cfg), "--checkpoint", str(cfg)])
        assert res.exit_code == 1
        assert "layer2: param 'stride' must be >= 1, got 0" in res.output

    @staticmethod
    def no_data(cfg):
        raise AssertionError("data loaded before the spec was checked")

    def test_synthetic_and_written_data_share_stats(self, runner, tmp_path):
        cfg = RunConfig(synth=SynthParams(num_classes=3, per_class=4, size=16, seed=2))
        generated, gen_stats = _load_data(cfg)
        synth.write_dataset(cfg.synth, tmp_path / "ds")
        written, disk_stats = _load_data(RunConfig(data_dir=str(tmp_path / "ds")))
        assert gen_stats["mean"] == disk_stats["mean"]
        assert gen_stats["std"] == disk_stats["std"]
        assert generated.source_x.tobytes() == written.source_x.tobytes()
        assert generated.target_x.tobytes() == written.target_x.tobytes()

    def test_eval_prints_accuracy(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        res = runner.invoke(main, ["eval", "--config", str(cfg),
                                   "--checkpoint",
                                   str(tmp_path / "run" / "checkpoint.zip"),
                                   "--split", "target"])
        assert res.exit_code == 0, res.output
        assert "target top-1 accuracy:" in res.output

    def test_export_module_tap_writes_three_branches(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        img = tmp_path / "probe.tdf"
        tdf.write(img, np.random.default_rng(0)
                  .random((3, 32, 32)).astype(np.float32))
        res = runner.invoke(main, [
            "export-features", "--config", str(cfg),
            "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
            "--images", str(img), "--layer", "layer4",
            "--out", str(tmp_path / "feats")])
        assert res.exit_code == 0, res.output
        written = sorted(p.name for p in (tmp_path / "feats").glob("*.tdf"))
        assert written == ["layer4_c3.tdf", "layer4_dec2.tdf",
                           "layer4_dic2.tdf"]
        # each file is its branch of the module run on its normalised input
        # (stem conv -> relu -> 3x3/2 maxpool)
        model = cli._build_model(cli._load_config(str(cfg)))
        meta = checkpoint.load(model, tmp_path / "run" / "checkpoint.zip")
        x = T.Tensor(synth.normalize(tdf.read(img)[None], meta["stats"]))
        with T.no_grad():
            stem = T.conv2d(x, model.parameters()["layer2.weight"], padding=3)
            pooled, _ = T.maxpool2d_with_indices(T.relu(stem), 3, 2)
            _, taps = model.modules[3].forward_with_taps(pooled)
        for bname, t in taps.items():
            got = tdf.read(tmp_path / "feats" / f"layer4_{bname}.tdf")
            assert got.dtype == t.data.dtype and got.tobytes() == t.data.tobytes()

    def test_export_unknown_layer(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        img = tmp_path / "probe.tdf"
        tdf.write(img, np.zeros((3, 32, 32), np.float32))
        res = runner.invoke(main, [
            "export-features", "--config", str(cfg),
            "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
            "--images", str(img), "--layer", "layer99",
            "--out", str(tmp_path / "feats")])
        assert res.exit_code != 0
        assert "unknown layer" in res.output

    def test_export_checks_layer_before_any_work(self, runner, tmp_path,
                                                 monkeypatch):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)

        img = tmp_path / "probe.tdf"
        tdf.write(img, np.zeros((3, 32, 32), np.float32))

        def no_work(*args, **kwargs):
            raise AssertionError("work done before the layer check")

        monkeypatch.setattr(Network, "forward", no_work)
        monkeypatch.setattr(checkpoint, "load", no_work)
        res = runner.invoke(main, [
            "export-features", "--config", str(cfg),
            "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
            "--images", str(img), "--layer", "layer99",
            "--out", str(tmp_path / "feats")])
        assert res.exit_code != 0
        assert "unknown layer" in res.output


class TestImportImages:
    def test_roundtrip_through_training_reader(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        for dom in ("source", "target"):
            for cname in ("a", "b"):
                d = tmp_path / "raw" / dom / cname
                d.mkdir(parents=True)
                write_png(d / "0.png",
                          rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        res = runner.invoke(main, ["import-images",
                                   "--root", str(tmp_path / "raw"),
                                   "--out", str(tmp_path / "ds")])
        assert res.exit_code == 0, res.output
        with open(tmp_path / "ds" / "manifest.csv", newline="") as f:
            assert len(list(csv.DictReader(f))) == 4

    def test_image_error_is_a_click_error(self, runner, tmp_path):
        (tmp_path / "raw" / "source" / "a").mkdir(parents=True)
        res = runner.invoke(main, ["import-images",
                                   "--root", str(tmp_path / "raw"),
                                   "--domains", "source,val",
                                   "--out", str(tmp_path / "ds")])
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit)
        assert "Error: no domain directory 'val'" in res.output

    def test_named_domains_import_trains(self, runner, tmp_path):
        make_tree(tmp_path / "raw", domains=("webcam", "amazon"), size=32)
        res = runner.invoke(main, ["import-images", "--root", str(tmp_path / "raw"),
                                   "--domains", "webcam,amazon",
                                   "--out", str(tmp_path / "ds")])
        assert res.exit_code == 0, res.output
        cfg = small_config(tmp_path, num_classes=2, mode="da",
                           data_dir=str(tmp_path / "ds"), solver={"batch_size": 4})
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["eval", "--config", str(cfg), "--checkpoint",
                                   str(tmp_path / "run" / "checkpoint.zip")])
        assert res.exit_code == 0, res.output
        assert "target top-1 accuracy:" in res.output


class TestRefusals:
    """Each refusal is ``Error: <message>`` and a SystemExit, not a traceback."""

    @staticmethod
    def refused(res, message, exit_code=1):
        assert res.exit_code == exit_code, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"Error: {message}" in res.output

    @pytest.mark.parametrize("override,message", [
        ({"mode": "DA"},
         "Invalid value for '--config': mode must be one of ['source_only', 'da'], "
         "got 'DA'"),
        ({"da": {"no_gmmd": "false"}},
         "Invalid value for '--config': da.no_gmmd must be of type bool, got 'false'"),
        ({"da": {"no_recons": 0}},
         "Invalid value for '--config': da.no_recons must be of type bool, got 0"),
    ])
    def test_config_value_is_a_usage_error(self, runner, tmp_path, override, message):
        cfg = small_config(tmp_path, **override)
        res = runner.invoke(main, ["train", "--config", str(cfg)])
        self.refused(res, message, exit_code=2)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "audit"])
    def test_unknown_network(self, runner, tmp_path, command):
        cfg = small_config(tmp_path, network="tny")
        extra = ["--checkpoint", str(cfg)] if command == "eval" else []
        res = runner.invoke(main, [command, "--config", str(cfg), *extra])
        self.refused(res, "network must be 'tiny', 'reference' or a spec YAML path, "
                          "got 'tny'")

    def test_make_synth_size(self, runner, tmp_path):
        res = runner.invoke(main, ["make-synth", "--size", "12",
                                   "--out", str(tmp_path / "ds")])
        self.refused(res, "size must be a positive multiple of 8")

    def test_export_corrupt_image(self, runner, tmp_path):
        cfg = small_config(tmp_path)
        runner.invoke(main, ["train", "--config", str(cfg)], catch_exceptions=False)
        img = tmp_path / "probe.tdf"
        img.write_bytes(b"not a tdf")
        res = runner.invoke(main, [
            "export-features", "--config", str(cfg),
            "--checkpoint", str(tmp_path / "run" / "checkpoint.zip"),
            "--images", str(img), "--layer", "layer4",
            "--out", str(tmp_path / "feats")])
        self.refused(res, f"{img}: bad magic; not a TDF file")

    def test_import_mixed_sizes(self, runner, tmp_path):
        make_tree(tmp_path / "raw")
        odd = tmp_path / "raw" / "target" / "dog" / "1.png"
        write_png(odd, np.zeros((8, 6, 3), np.uint8))
        res = runner.invoke(main, ["import-images", "--root", str(tmp_path / "raw"),
                                   "--out", str(tmp_path / "ds")])
        self.refused(res, f"{odd}: image size (8, 6) differs from (8, 8)")

    def test_import_empty_domain(self, runner, tmp_path):
        make_tree(tmp_path / "raw", domains=("webcam",))
        (tmp_path / "raw" / "amazon" / "a").mkdir(parents=True)
        res = runner.invoke(main, ["import-images", "--root", str(tmp_path / "raw"),
                                   "--domains", "webcam,amazon",
                                   "--out", str(tmp_path / "ds")])
        self.refused(res, "no images in the class directories under "
                          f"{tmp_path / 'raw' / 'amazon'}")

