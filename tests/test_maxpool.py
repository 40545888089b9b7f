"""Max pooling against the window-copy implementation it replaced: pooled
values, argmax indices and input gradients agree bit for bit, with or
without indices and with or without the tape."""

import tracemalloc

import numpy as np
import pytest

from convmkit import tensor as T
from convmkit.network import (LayerSpec, NetworkSpec, attach_da_heads, attach_decoders,
                              build_network, propagate_shapes, tiny_spec)
from convmkit.tensor import Tensor

SIZES = (7, 8, 9, 32, 33)


def reference_maxpool(x, k, stride):
    """The window-copy pool: pad the ceil-mode windows with -inf, copy every
    window, take its first argmax. Returns (pooled, indices)."""
    n, c, h, w = x.shape
    oh = -(-(h - k) // stride) + 1
    ow = -(-(w - k) // stride) + 1
    xp = np.full((n, c, (oh - 1) * stride + k, (ow - 1) * stride + k), -np.inf, x.dtype)
    xp[:, :, :h, :w] = x
    s = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, c, oh, ow, k, k), (s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]))
    flat = win.reshape(n, c, oh, ow, k * k)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    ki, kj = np.divmod(arg, k)
    idx = (np.arange(oh)[:, None] * stride + ki) * w + np.arange(ow) * stride + kj
    return out, idx.astype(np.int64)


def reference_grad(idx, g, shape):
    n, c, h, w = shape
    gx = np.zeros((n * c, h * w), g.dtype)
    np.add.at(gx, (np.arange(n * c)[:, None], idx.reshape(n * c, -1)), g.reshape(n * c, -1))
    return gx.reshape(shape)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint32 if a.dtype == np.float32 else np.uint64)


def make_input(kind, h, w, dtype):
    rng = np.random.default_rng(h * 100 + w)
    x = rng.standard_normal((2, 3, h, w)).astype(dtype)
    if kind == "relu":  # -0.0 where the input was negative, and some +0.0 ties
        x = T.relu(Tensor(x)).data.copy()
        x[0, 0, ::3, ::2] = 0.0
    elif kind == "constant":
        x[:] = 0.5
    elif kind == "nan":
        x[1, 2, 3, 4] = np.nan
    return x


def fits(size, k, stride):
    return (-(-(size - k) // stride)) * stride < size  # the last window starts inside


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "relu", "constant", "nan"])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_bitwise_equal_to_window_copy(k, stride, kind, dtype):
    for h in SIZES:
        for w in SIZES:
            x = make_input(kind, h, w, dtype)
            if not (fits(h, k, stride) and fits(w, k, stride)):
                # the window copy pooled an all--inf window here, and its
                # index pointed outside the input
                with pytest.raises(ValueError, match="outside the input"):
                    T.maxpool2d_with_indices(Tensor(x), k, stride)
                continue
            want, want_idx = reference_maxpool(x, k, stride)
            g = np.random.default_rng(0).standard_normal(want.shape).astype(dtype)
            want_gx = reference_grad(want_idx, g, x.shape)
            case = (k, stride, h, w)
            for indices in (True, False):
                xt = Tensor(x, requires_grad=True)
                pooled, idx = T.maxpool2d_with_indices(xt, k, stride, indices=indices)
                assert np.array_equal(bits(pooled.data), bits(want)), case
                if indices:
                    assert idx.dtype == np.int64
                    assert np.array_equal(idx, want_idx), case
                else:
                    assert idx is None
                pooled._backward(g)
                assert np.array_equal(bits(xt.grad), bits(want_gx)), (case, indices)
            with T.no_grad():
                pooled, idx = T.maxpool2d_with_indices(Tensor(x), k, stride, indices=False)
            assert idx is None
            assert np.array_equal(bits(pooled.data), bits(want)), case


def test_inference_pool_allocates_little_beyond_its_output():
    x = Tensor(np.random.default_rng(0).standard_normal((8, 16, 64, 64)).astype(np.float32))
    tracemalloc.start()
    try:
        with T.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pooled, _ = T.maxpool2d_with_indices(x, 3, 2, indices=False)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pooled.data.nbytes, (peak, pooled.data.nbytes)


def test_empty_last_window_is_refused_by_the_shape_table():
    spec = NetworkSpec([
        LayerSpec("input", {"channels": 1, "height": 9, "width": 9}),
        LayerSpec("maxpool", {"k": 2, "stride": 3}),
    ])
    with pytest.raises(ValueError, match="layer2: .*outside the input size 9"):
        propagate_shapes(spec)


def test_forward_builds_indices_only_for_decoders():
    rng = np.random.default_rng(0)
    net = attach_decoders(attach_da_heads(build_network(tiny_spec(), rng=rng), 4, rng=rng),
                          rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
    pools = net.spec.indices("maxpool")
    assert net.forward(x).pool_indices == {}
    with_decoders = net.forward(x, with_decoders=True)
    assert sorted(with_decoders.pool_indices) == pools
    assert len(with_decoders.reconstructions) == 2
