import numpy as np
import pytest

from convmkit import tensor as T
from convmkit.layers import ConvM, ConvMConfig
from convmkit.tensor import Tensor

LAYER4_CFG = ConvMConfig(n_in=64, c1=64, c2=64, c3=64, c4=64, dic1=64, dic2=64,
                         c5=32, dec1=32, dec2=32)
LAYER12_CFG = ConvMConfig(n_in=576, c1=160, c2=256, c3=280, c4=160, dic1=256,
                          dic2=280, c5=64, dec1=128, dec2=128)


def test_output_channel_plans():
    assert LAYER4_CFG.out_channels == 64 + 64 + 32 == 160
    assert LAYER12_CFG.out_channels == 280 + 280 + 128 == 688


def test_convm_forward_channels_and_spatial():
    rng = np.random.default_rng(0)
    cfg = ConvMConfig(n_in=8, c1=8, c2=8, c3=8, c4=8, dic1=8, dic2=8,
                      c5=4, dec1=4, dec2=4)
    m = ConvM(cfg, rng=rng)
    x = Tensor(rng.standard_normal((2, 8, 11, 11)).astype(np.float32))
    out = m(x, training=False)
    assert out.shape == (2, 20, 11, 11)


def test_zero_input_gives_zero_output():
    m = ConvM(ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                          c5=4, dec1=4, dec2=4, groups=2), rng=np.random.default_rng(0))
    out = m(Tensor(np.zeros((1, 4, 6, 6))), training=False)
    assert np.all(out.data == 0.0)


def test_parameter_layout_pinned():
    # checkpoints store these names and shapes; the transposed convs keep the
    # [Cin, Cout/g, k, k] layout
    cfg = ConvMConfig(n_in=4, c1=8, c2=12, c3=16, c4=8, dic1=12, dic2=16,
                      c5=4, dec1=8, dec2=12, groups=4)
    m = ConvM(cfg, rng=np.random.default_rng(0))
    assert [(n, p.shape) for n, p in m.parameters()] == [
        ("c1.weight", (8, 4, 1, 1)), ("c2.weight", (12, 2, 3, 3)),
        ("c3.weight", (16, 3, 3, 3)), ("c4.weight", (8, 4, 1, 1)),
        ("dic1.weight", (12, 2, 3, 3)), ("dic2.weight", (16, 3, 3, 3)),
        ("c5.weight", (4, 4, 1, 1)), ("dec1.weight", (4, 2, 3, 3)),
        ("dec2.weight", (8, 3, 3, 3))]


def test_branch_taps_exposed():
    rng = np.random.default_rng(1)
    m = ConvM(LAYER4_CFG, rng=rng)
    x = Tensor(rng.standard_normal((1, 64, 7, 7)).astype(np.float32))
    out, taps = m.forward_with_taps(x, training=False)
    assert set(taps) == {"c3", "dic2", "dec2"}
    assert taps["c3"].shape == (1, 64, 7, 7)
    assert taps["dec2"].shape == (1, 32, 7, 7)


def test_invalid_group_plan_rejected():
    with pytest.raises(ValueError):
        ConvMConfig(n_in=4, c1=3, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                    c5=4, dec1=4, dec2=4).validate()


@pytest.mark.parametrize("k", [0, 2, 4])
def test_even_kernel_rejected(k):
    cfg = ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                      c5=4, dec1=4, dec2=4, k=k)
    with pytest.raises(ValueError, match=f"k={k} must be a positive odd"):
        cfg.validate()


def test_dropout_active_in_training_mode():
    rng = np.random.default_rng(2)
    cfg = ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                      c5=4, dec1=4, dec2=4, groups=2, dropout=0.5)
    m = ConvM(cfg, rng=rng)
    x = Tensor(np.abs(rng.standard_normal((1, 4, 8, 8))).astype(np.float32))
    out_train = m(x, training=True, rng=np.random.default_rng(3))
    out_eval = m(x, training=False)
    assert (out_train.data == 0).mean() > (out_eval.data == 0).mean()
