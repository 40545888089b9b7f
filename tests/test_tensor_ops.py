import numpy as np
import pytest

from convmkit import tensor as T
from convmkit.tensor import Tensor


def conv2d_naive(x, w, stride=1, padding=0, dilation=1, groups=1):
    """Quadruple-loop direct convolution oracle."""
    n, cin, h, wd = x.shape
    cout, cin_g, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    ow = (wd + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    cout_g = cout // groups
    for b in range(n):
        for co in range(cout):
            g = co // cout_g
            for ci in range(cin_g):
                src = g * cin_g + ci
                for i in range(oh):
                    for j in range(ow):
                        acc = 0.0
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[b, src, i * stride + ki * dilation,
                                          j * stride + kj * dilation] * w[co, ci, ki, kj]
                        out[b, co, i, j] += acc
    return out


def deconv_naive(x, w, stride=1, groups=1):
    """Scatter-accumulate transposed-convolution oracle, center-cropped."""
    n, cin, h, wd = x.shape
    _, cout_g, k, _ = w.shape
    cin_g = cin // groups
    cout = cout_g * groups
    hr, wr = (h - 1) * stride + k, (wd - 1) * stride + k
    raw = np.zeros((n, cout, hr, wr), dtype=np.float64)
    for b in range(n):
        for ci in range(cin):
            g = ci // cin_g
            for co in range(cout_g):
                dst = g * cout_g + co
                for i in range(h):
                    for j in range(wd):
                        for ki in range(k):
                            for kj in range(k):
                                raw[b, dst, i * stride + ki, j * stride + kj] += \
                                    x[b, ci, i, j] * w[ci, co, ki, kj]
    top, left = (hr - h) // 2, (wr - wd) // 2
    return raw[:, :, top:top + h, left:left + wd]


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor([[[[1.0]]]])
        w = Tensor([[[[1.0]]]])
        out = T.conv2d(x, w)
        assert out.data.tolist() == [[[[1.0]]]]

    def test_ones_3x3_same_padding(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, stride=1, padding=1).data[0, 0]
        expect = conv2d_naive(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), padding=1)[0, 0]
        assert np.array_equal(out, expect)
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0

    def test_grouped_weight_element_count(self):
        w = np.zeros((64, 64 // 4, 3, 3))
        assert w.size == 64 * 64 * 9 // 4 == 9216

    @pytest.mark.parametrize("stride,padding,dilation,groups,k", [
        pytest.param(1, 0, 1, 1, 3, id="1-0-1-1"),
        pytest.param(2, 1, 1, 1, 3, id="2-1-1-1"),
        pytest.param(1, 2, 2, 2, 3, id="1-2-2-2"),
        pytest.param(1, 3, 3, 1, 3, id="1-3-3-1"),
        pytest.param(2, 2, 2, 4, 3, id="2-2-2-4"),
        # 1x1: the input (strided for stride 2) is the column matrix
        pytest.param(1, 0, 1, 1, 1, id="1x1-1-0-1-1"),
        pytest.param(2, 0, 1, 1, 1, id="1x1-2-0-1-1"),
        pytest.param(1, 0, 1, 2, 1, id="1x1-1-0-1-2"),
        pytest.param(2, 0, 1, 2, 1, id="1x1-2-0-1-2"),
    ])
    def test_matches_naive(self, stride, padding, dilation, groups, k):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 4, 9, 9))
        w = rng.standard_normal((8, 4 // groups, k, k))
        got = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       stride, padding, dilation, groups).data
        want = conv2d_naive(x, w, stride, padding, dilation, groups)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_groups_equal_independent_slices(self):
        rng = np.random.default_rng(7)
        g = 4
        x = rng.standard_normal((2, 8, 6, 6))
        w = rng.standard_normal((8, 2, 3, 3))
        full = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                        padding=1, groups=g).data
        parts = []
        for gi in range(g):
            xs = x[:, gi * 2:(gi + 1) * 2]
            ws = w[gi * 2:(gi + 1) * 2]
            parts.append(T.conv2d(Tensor(xs, dtype=np.float64),
                                  Tensor(ws, dtype=np.float64), padding=1).data)
        np.testing.assert_allclose(full, np.concatenate(parts, axis=1), atol=1e-12)

    def test_dilation_equals_zero_inflated_kernel(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 9, 9))
        w = rng.standard_normal((3, 2, 3, 3))
        d = 2
        wi = np.zeros((3, 2, 5, 5))
        wi[:, :, ::d, ::d] = w
        a = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                     dilation=d).data
        b = T.conv2d(Tensor(x, dtype=np.float64), Tensor(wi, dtype=np.float64)).data
        # the inflated kernel sums 25 taps instead of 9, so accumulation
        # order differs; equality holds to rounding
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_group_divisibility_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        with pytest.raises(ValueError):
            T.conv2d(x, w, groups=2)

    @pytest.mark.parametrize("op", [T.conv2d, T.conv2d_transpose_cropped])
    def test_zero_stride_is_refused(self, op):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError, match="stride must be >= 1"):
            op(x, w, stride=0)


class TestDeconv:
    def test_crop_14_to_14(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 14, 14))
        w = rng.standard_normal((2, 3, 3, 3))
        out = T.conv2d_transpose_cropped(Tensor(x), Tensor(w))
        assert out.shape == (1, 3, 14, 14)

    def test_1x1_identity(self):
        out = T.conv2d_transpose_cropped(Tensor([[[[5.0]]]]), Tensor([[[[1.0]]]]))
        assert out.data.tolist() == [[[[5.0]]]]

    def test_delta_scatter(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        w = np.ones((1, 1, 3, 3))
        out = T.conv2d_transpose_cropped(Tensor(x, dtype=np.float64),
                                         Tensor(w, dtype=np.float64)).data[0, 0]
        want = deconv_naive(x, w)[0, 0]
        assert np.array_equal(out, want)
        assert out[1:4, 1:4].tolist() == np.ones((3, 3)).tolist()
        assert out.sum() == 9.0

    @pytest.mark.parametrize("h,k,s,groups", [
        (5, 3, 1, 1), (4, 3, 2, 2), (6, 2, 1, 1), (3, 5, 2, 1), (7, 3, 3, 1),
    ])
    def test_matches_naive_and_preserves_size(self, h, k, s, groups):
        rng = np.random.default_rng(h * 10 + k)
        cin = 2 * groups
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cin, 2, k, k))
        got = T.conv2d_transpose_cropped(Tensor(x, dtype=np.float64),
                                         Tensor(w, dtype=np.float64), s, groups)
        assert got.shape[2:] == (h, h)
        np.testing.assert_allclose(got.data, deconv_naive(x, w, s, groups), atol=1e-12)


class TestPooling:
    @pytest.mark.parametrize("h,expect", [(224, 112), (112, 56), (56, 28), (28, 14)])
    def test_ceil_chain(self, h, expect):
        x = Tensor(np.random.default_rng(h).standard_normal((1, 2, h, h)))
        out, idx = T.maxpool2d_with_indices(x, 3, 2)
        assert out.shape == (1, 2, expect, expect)
        assert idx.shape == (1, 2, expect, expect)

    def test_small_example(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, idx = T.maxpool2d_with_indices(x, 2, 2)
        assert out.data.tolist() == [[[[4.0]]]]
        assert idx[0, 0, 0, 0] == 1 * 2 + 1  # row-major position (1,1)

    def test_tie_first_occurrence_row_major(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        _, idx = T.maxpool2d_with_indices(x, 2, 2)
        assert idx[0, 0].tolist() == [[0, 2], [8, 10]]  # top-left of each window

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            T.maxpool2d_with_indices(Tensor(np.zeros((1, 1, 2, 2))), 3, 2)

    def test_unpool_trivial(self):
        v = Tensor([[[[4.0]]]])
        idx = np.array([[[[3]]]], dtype=np.int64)
        out = T.unpool2d(v, idx, (2, 2))
        assert out.data[0, 0].tolist() == [[0.0, 0.0], [0.0, 4.0]]

    def test_unpool_roundtrip_places_maxima(self):
        rng = np.random.default_rng(3)
        x = rng.permutation(64).reshape(1, 1, 8, 8).astype(np.float64)
        pooled, idx = T.maxpool2d_with_indices(Tensor(x, dtype=np.float64), 2, 2)
        restored = T.unpool2d(pooled, idx, (8, 8)).data
        flat = restored.reshape(64)
        for cell, i in zip(pooled.data.reshape(-1), idx.reshape(-1)):
            assert flat[i] == cell
        # zero elsewhere
        mask = np.zeros(64, bool)
        mask[idx.reshape(-1)] = True
        assert np.all(flat[~mask] == 0.0)

    def test_unpool_sum_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.random((2, 3, 8, 8))
        pooled, idx = T.maxpool2d_with_indices(Tensor(x, dtype=np.float64), 2, 2)
        unpooled = T.unpool2d(pooled, idx, (8, 8))
        assert np.isclose(unpooled.data.sum(), pooled.data.sum(), atol=1e-12)

    def test_unpool_shared_position_goes_to_last_cell(self):
        # two cells recorded the same argmax, as overlapping windows can
        v = Tensor(np.array([[[[1.0, 2.0, 3.0]]]]), requires_grad=True, dtype=np.float64)
        idx = np.array([[[[1, 1, 3]]]], dtype=np.int64)
        out = T.unpool2d(v, idx, (2, 2))
        assert out.data[0, 0].tolist() == [[0.0, 2.0], [0.0, 3.0]]
        T.tsum(out).backward()
        assert v.grad[0, 0, 0].tolist() == [0.0, 1.0, 1.0]

    def test_unpool_map_serves_several_unpools(self):
        # overlapping 3/2 windows share positions; the map built once gives
        # each unpool the bits of the index map's own
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 9, 9)))
        pooled, idx = T.maxpool2d_with_indices(x, 3, 2)
        umap = T.UnpoolMap(idx, (9, 9))
        for v in (pooled, Tensor(rng.standard_normal(pooled.shape))):
            assert (T.unpool2d(v, umap, (9, 9)).data.tobytes()
                    == T.unpool2d(v, idx, (9, 9)).data.tobytes())
        with pytest.raises(ValueError, match="built for size"):
            T.unpool2d(pooled, umap, (10, 10))

    def test_unpool_index_out_of_bounds(self):
        v = Tensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            T.unpool2d(v, np.array([[[[4]]]], dtype=np.int64), (2, 2))

    def test_avgpool_global(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 14, 14))
        out = T.avgpool2d(Tensor(x, dtype=np.float64), 14, 1)
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-12)


class TestSimpleOps:
    def test_linear_weight_count(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((688, 1000))
        assert w.size == 688_000
        x = rng.standard_normal((2, 688))
        out = T.linear(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
        np.testing.assert_allclose(out.data, x @ w, atol=1e-12)

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(1).standard_normal((5, 5))
        out = T.dropout(Tensor(x, dtype=np.float64), 0.2, training=False, rng=None)
        assert np.array_equal(out.data, x)

    def test_dropout_zero_fraction(self):
        rng = np.random.default_rng(2)
        x = Tensor(np.ones(10 ** 6))
        out = T.dropout(x, 0.2, training=True, rng=rng)
        frac = float(np.mean(out.data == 0.0))
        assert abs(frac - 0.2) < 0.005
        # survivors carry inverted scaling
        surv = out.data[out.data != 0.0]
        assert np.allclose(surv, 1.0 / 0.8)

    def test_dropout_ratio_validation(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))

    def test_softmax_ce_uniform(self):
        logits = Tensor(np.zeros((4, 10)), dtype=np.float64)
        loss = T.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert np.isclose(float(loss.data), np.log(10.0), atol=1e-12)

    def test_softmax_ce_direct_formula(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, 4)
        loss = T.softmax_cross_entropy(Tensor(z, dtype=np.float64), labels)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.mean(np.log(p[np.arange(4), labels]))
        assert abs(float(loss.data) - want) < 1e-12

    def test_losses_are_0d(self):
        from convmkit.mmd import mmd_loss

        rng = np.random.default_rng(8)
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((4, 3)))
        losses = [T.softmax_cross_entropy(a, np.zeros(4, dtype=np.int64)),
                  T.mse(a, b), T.tsum(a), mmd_loss(a, b, 1.0)]
        assert [loss.shape for loss in losses] == [()] * 4

    def test_softmax_ce_float32_large_margin_finite(self):
        # softmax of the true class underflows to 0 in float32 here
        logits = Tensor(np.array([[0.0, 1e4, 0.0]], dtype=np.float32),
                        requires_grad=True)
        loss = T.softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item()) and loss.item() == pytest.approx(1e4)
        loss.backward()
        np.testing.assert_array_equal(logits.grad, [[-1.0, 1.0, 0.0]])

    def test_softmax_ce_empty_batch(self):
        with pytest.raises(ValueError):
            T.softmax_cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))

    def test_mse_self_is_zero(self):
        x = Tensor(np.random.default_rng(7).standard_normal((3, 3)))
        assert float(T.mse(x, x).data) == 0.0

    def test_checked_mode_catches_nonfinite(self):
        T.set_checked(True)
        try:
            x = Tensor(np.array([np.inf]), requires_grad=True)
            with pytest.raises(FloatingPointError):
                T.relu(x)
        finally:
            T.set_checked(False)


class TestDeterminism:
    def test_seeded_forward_backward_bit_identical(self):
        from convmkit.layers import ConvM, ConvMConfig

        cfg = ConvMConfig(n_in=4, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                          c5=4, dec1=4, dec2=4, groups=2)

        def run():
            rng = np.random.default_rng(123)
            m = ConvM(cfg, rng=rng, dtype=np.float64)
            x = Tensor(np.random.default_rng(9).standard_normal((2, 4, 6, 6)),
                       requires_grad=True, dtype=np.float64)
            out = m(x, training=True, rng=np.random.default_rng(55))
            loss = T.tsum(out)
            loss.backward()
            return out.data.copy(), x.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert o1.tobytes() == o2.tobytes()
        assert g1.tobytes() == g2.tobytes()
