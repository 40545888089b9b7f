"""Checkpoint archive integrity: round-trips, census checks, corruption."""

import zipfile

import numpy as np
import pytest

from convmkit import checkpoint, tdf
from convmkit.checkpoint import CheckpointError
from convmkit.network import (
    attach_da_heads,
    LayerSpec,
    NetworkSpec,
    build_network,
    propagate_shapes,
    reference_spec,
    tiny_spec,
)


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    net = build_network(tiny_spec(num_classes=5), rng=rng)
    attach_da_heads(net, 5, rng=rng)
    return net


class TestRoundTrip:
    def test_weights_restored_exactly(self, tmp_path):
        a = tiny_model(seed=1)
        p = tmp_path / "ck.zip"
        checkpoint.save(a, p, step=7, seed=3)
        b = tiny_model(seed=2)
        meta = checkpoint.load(b, p)
        assert meta["step"] == 7 and meta["seed"] == 3
        pa, pb = a.parameters(), b.parameters()
        for name in pa:
            assert pa[name].data.tobytes() == pb[name].data.tobytes(), name

    def test_save_load_save_byte_identical(self, tmp_path):
        a = tiny_model(seed=1)
        p1, p2 = tmp_path / "a.zip", tmp_path / "b.zip"
        checkpoint.save(a, p1, step=4, seed=9)
        b = tiny_model(seed=2)
        checkpoint.load(b, p1)
        checkpoint.save(b, p2, step=4, seed=9)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_fields(self, tmp_path):
        a = tiny_model()
        p = tmp_path / "ck.zip"
        checkpoint.save(a, p, extra={"note": "x"})
        meta = checkpoint.read_meta(p)
        assert meta["spec_hash"] == a.spec.hash()
        assert meta["census"] == a.param_census()
        assert meta["note"] == "x"

    def test_reference_census_in_metadata(self, tmp_path):
        net = build_network(reference_spec(), rng=np.random.default_rng(0))
        p = tmp_path / "ref.zip"
        checkpoint.save(net, p)
        assert checkpoint.read_meta(p)["census"] == 4_118_080


class TestFormat:
    def test_spec_hashes_pinned(self):
        # checkpoints store and verify these hashes, so a change to the spec
        # serialization would make every saved checkpoint unloadable
        assert reference_spec().hash() == "ea66a0f15e9dae15"
        assert reference_spec(num_classes=5).hash() == "afd64e599a173ebc"
        assert tiny_spec().hash() == "78b45dc1b4441970"
        assert tiny_spec(num_classes=5).hash() == "f91a5ba241fe3580"

    @pytest.mark.parametrize("key,value", [("freeze", True), ("lr_mult", 0.5)])
    def test_layer_freeze_keys_rejected(self, key, value):
        d = {"kind": "conv", "params": {"out_channels": 8, "k": 3}, key: value}
        with pytest.raises(ValueError, match=rf"^unknown layer key\(s\) \['{key}'\]"):
            LayerSpec.from_dict(d)

    def test_regular_only_param_rejected(self):
        d = tiny_spec().to_dict()
        assert d["layers"][3]["kind"] == "conv_m"
        d["layers"][3]["params"]["regular_only"] = True
        spec = NetworkSpec.from_dict(d)
        with pytest.raises(ValueError,
                           match=r"^layer4: unknown param\(s\) \['regular_only'\] for 'conv_m'"):
            propagate_shapes(spec)


class TestRejection:
    def test_spec_mismatch(self, tmp_path):
        a = tiny_model()
        p = tmp_path / "ck.zip"
        checkpoint.save(a, p)
        other = build_network(tiny_spec(num_classes=7),
                              rng=np.random.default_rng(0))
        attach_da_heads(other, 7, rng=np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="hash|census"):
            checkpoint.load(other, p)

    def test_not_an_archive(self, tmp_path):
        text = tmp_path / "cfg.yaml"
        text.write_text("network: tiny\n")
        no_meta = tmp_path / "no_meta.zip"
        with zipfile.ZipFile(no_meta, "w") as z:
            z.writestr("params/x.tdf", b"")
        for path in (text, no_meta):
            with pytest.raises(CheckpointError, match="not a checkpoint archive"):
                checkpoint.load(tiny_model(), path)
            with pytest.raises(CheckpointError, match="not a checkpoint archive"):
                checkpoint.read_meta(path)

    def test_truncated_tensor_names_the_parameter(self, tmp_path):
        a = tiny_model()
        p = tmp_path / "ck.zip"
        checkpoint.save(a, p)
        victim = sorted(a.parameters())[0]
        with zipfile.ZipFile(p) as z:
            entries = {n: z.read(n) for n in z.namelist()}
        entries[f"params/{victim}.tdf"] = entries[f"params/{victim}.tdf"][:-3]
        bad = tmp_path / "bad.zip"
        with zipfile.ZipFile(bad, "w") as z:
            for n, blob in entries.items():
                z.writestr(n, blob)
        with pytest.raises(CheckpointError, match=victim.replace(".", r"\.")):
            checkpoint.load(tiny_model(seed=5), bad)

    def test_missing_parameter_entry(self, tmp_path):
        a = tiny_model()
        p = tmp_path / "ck.zip"
        checkpoint.save(a, p)
        victim = sorted(a.parameters())[-1]
        with zipfile.ZipFile(p) as z:
            entries = {n: z.read(n) for n in z.namelist()
                       if n != f"params/{victim}.tdf"}
        # keep the census consistent so the name check is what fires
        bad = tmp_path / "bad.zip"
        with zipfile.ZipFile(bad, "w") as z:
            for n, blob in entries.items():
                z.writestr(n, blob)
        with pytest.raises(CheckpointError):
            checkpoint.load(tiny_model(seed=5), bad)

    def test_wrong_shape_rejected(self, tmp_path):
        a = tiny_model()
        p = tmp_path / "ck.zip"
        checkpoint.save(a, p)
        victim = sorted(a.parameters())[0]
        shape = a.parameters()[victim].shape
        with zipfile.ZipFile(p) as z:
            entries = {n: z.read(n) for n in z.namelist()}
        wrong = np.zeros((shape[0] + 1,) + tuple(shape[1:]), np.float32)
        entries[f"params/{victim}.tdf"] = tdf.dumps(wrong)
        bad = tmp_path / "bad.zip"
        with zipfile.ZipFile(bad, "w") as z:
            for n, blob in entries.items():
                z.writestr(n, blob)
        with pytest.raises(CheckpointError, match="shape"):
            checkpoint.load(tiny_model(seed=5), bad)
