import numpy as np
import pytest

import convmkit.tensor
from convmkit import tensor as T
from convmkit.tensor import Tensor
from convmkit.gradcheck import gradcheck, run_default_suite, _t, _spread
from convmkit.layers import ConvM, ConvMConfig


def test_relu_sum_grad_all_ones():
    x = Tensor(np.full((3, 4), 2.0), requires_grad=True, dtype=np.float64)
    loss = T.tsum(T.relu(x))
    loss.backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.relu(x).backward()


def test_conv2d_dilated_grouped_gradcheck():
    rng = np.random.default_rng(0)
    x = _t(rng, 1, 4, 9, 9)
    w = _t(rng, 4, 2, 3, 3)
    rep = gradcheck(lambda x, w: T.conv2d(x, w, padding=2, dilation=2, groups=2),
                    [x, w], eps=1e-3, tol=1e-4)
    assert rep.passed, rep.max_rel_error


def test_default_suite_passes():
    results = run_default_suite()
    failing = {n: r.max_rel_error for n, r in results.items() if not r.passed}
    assert not failing, failing


def test_convm_with_mse_gradcheck_all_nine_weights():
    rng = np.random.default_rng(21)
    cfg = ConvMConfig(n_in=2, c1=2, c2=2, c3=2, c4=2, dic1=2, dic2=2,
                      c5=2, dec1=2, dec2=2, groups=2, dilations=(2, 3), dropout=0.0)
    m = ConvM(cfg, rng=rng, dtype=np.float64)
    weights = [p for _, p in m.parameters()]
    assert len(weights) == 9
    x = Tensor(rng.standard_normal((1, 2, 5, 5)), dtype=np.float64)
    target = Tensor(rng.standard_normal((1, 6, 5, 5)), dtype=np.float64)

    def fn(*ws):
        return T.mse(m(x, training=False), target)

    rep = gradcheck(fn, weights, eps=1e-4, tol=1e-4)
    assert rep.passed, rep.per_input


def test_injected_sign_flip_is_caught(monkeypatch):
    # conv2d's input gradient is the forward kernel run by _conv_input_grad;
    # a wrong sign there must show up in the input gradient
    orig = convmkit.tensor._conv_input_grad

    def flipped(*args, **kwargs):
        return -orig(*args, **kwargs)

    monkeypatch.setattr(convmkit.tensor, "_conv_input_grad", flipped)
    rng = np.random.default_rng(3)
    x = _t(rng, 1, 2, 5, 5)
    w = _t(rng, 2, 2, 3, 3)
    rep = gradcheck(lambda x, w: T.conv2d(x, w, padding=1), [x, w], eps=1e-4, tol=1e-4)
    assert not rep.passed


def test_injected_weight_view_sign_flip_is_caught(monkeypatch):
    # the transposed conv's weight gradient is _conv_weight_grad of the conv
    # it is the adjoint of; a wrong sign there must show up in the weight
    # gradient and in no other
    orig = convmkit.tensor._conv_weight_grad

    def flipped(*args, **kwargs):
        return -orig(*args, **kwargs)

    monkeypatch.setattr(convmkit.tensor, "_conv_weight_grad", flipped)
    rng = np.random.default_rng(3)
    x = _t(rng, 1, 2, 5, 5)
    w = _t(rng, 2, 2, 3, 3)
    rep = gradcheck(lambda x, w: T.conv2d_transpose_cropped(x, w), [x, w],
                    eps=1e-4, tol=1e-4)
    assert not rep.passed
    assert rep.per_input[0] < 1e-4  # the input gradient is untouched


def test_no_grad_records_no_tape_and_restores_on_error():
    x = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
    with T.no_grad():
        with T.no_grad():
            pass
        y = T.relu(x)  # the inner block must not switch the tape back on
    assert y._parents == () and y._backward is None and not y.requires_grad
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("boom")
    assert T._NO_GRAD is False
    z = T.relu(x)
    assert z._parents == (x,) and z._backward is not None


def test_grad_accumulates_across_reuse():
    x = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
    loss = T.tsum(T.add(x, x))
    loss.backward()
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))


def test_maxpool_gradcheck_strided():
    rng = np.random.default_rng(11)
    x = _spread(rng, 1, 2, 7, 7)
    rep = gradcheck(lambda x: T.maxpool2d_with_indices(x, 3, 2)[0], [x],
                    eps=1e-4, tol=1e-4)
    assert rep.passed, rep.max_rel_error
