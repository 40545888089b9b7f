"""Finite-difference verification of analytic gradients.

Checks are run in float64: float32 rounding noise is the same order as the
central-difference truncation error at usable step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, linear, reshape, tsum


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    per_input: dict[int, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def _scalarize(fn, inputs, proj):
    """Reduce fn's output to a scalar through a fixed random projection;
    a plain sum could mask sign errors that happen to cancel."""
    out = fn(*inputs)
    flat = reshape(out, (1, max(out.size, 1)))
    w = Tensor(proj.reshape(-1, 1), requires_grad=False, dtype=out.dtype)
    return tsum(linear(flat, w))


def gradcheck(fn, inputs, eps: float = 1e-3, tol: float = 1e-4,
              rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``fn(*inputs)`` against central finite
    differences, elementwise, on every input with requires_grad.

    ``fn`` maps Tensors to one Tensor; the output is reduced to a scalar via
    a fixed random projection before differentiation. Inputs must be float64.
    """
    rng = rng or np.random.default_rng(0)
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("gradcheck requires float64 inputs")
    probe = fn(*inputs)
    proj = rng.standard_normal(max(probe.size, 1)).astype(np.float64)

    for t in inputs:
        t.zero_grad()
    loss = _scalarize(fn, inputs, proj)
    loss.backward()
    if any(t.grad is not None and not np.all(np.isfinite(t.grad)) for t in inputs):
        raise FloatingPointError("non-finite analytic gradient")

    worst = 0.0
    per_input = {}
    for ti, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            fp = _scalarize(fn, inputs, proj).data.item()
            flat[i] = keep - eps
            fm = _scalarize(fn, inputs, proj).data.item()
            flat[i] = keep
            nflat[i] = (fp - fm) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
        err = float(np.max(np.abs(analytic - numeric) / denom))
        per_input[ti] = err
        worst = max(worst, err)
    return GradCheckReport(max_rel_error=worst, tol=tol, per_input=per_input)


# ---------------------------------------------------------------------------
# default check suite
# ---------------------------------------------------------------------------


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _spread(rng, *shape):
    """Values with pairwise gaps >> the finite-difference step, so pooling
    argmaxes cannot flip during the perturbation."""
    n = int(np.prod(shape))
    vals = (rng.permutation(n).astype(np.float64) - n / 2) / np.sqrt(n)
    return Tensor(vals.reshape(shape), requires_grad=True, dtype=np.float64)


def default_suite(rng: np.random.Generator | None = None):
    """(name, fn, inputs) cases covering every differentiable op, including
    grouped/dilated/strided convolution variants and a small three-branch
    module end to end."""
    from . import tensor as T
    from .layers import ConvM, ConvMConfig
    from .mmd import mmd_loss

    rng = rng or np.random.default_rng(1234)
    cases = []

    cases.append(("relu", T.relu, [_t(rng, 3, 7)]))
    cases.append(("linear", T.linear, [_t(rng, 4, 5), _t(rng, 5, 3)]))
    cases.append(("add", T.add, [_t(rng, 2, 3), _t(rng, 2, 3)]))
    cases.append(("concat", lambda a, b: T.concat([a, b], axis=1),
                  [_t(rng, 2, 3, 4, 4), _t(rng, 2, 2, 4, 4)]))

    cases.append(("conv2d", lambda x, w: T.conv2d(x, w, padding=1),
                  [_t(rng, 2, 3, 5, 5), _t(rng, 4, 3, 3, 3)]))
    cases.append(("conv2d_strided", lambda x, w: T.conv2d(x, w, stride=2, padding=1),
                  [_t(rng, 1, 2, 7, 7), _t(rng, 4, 2, 3, 3)]))
    cases.append(("conv2d_dilated_grouped",
                  lambda x, w: T.conv2d(x, w, padding=2, dilation=2, groups=2),
                  [_t(rng, 1, 4, 9, 9), _t(rng, 4, 2, 3, 3)]))
    cases.append(("deconv_cropped", lambda x, w: T.conv2d_transpose_cropped(x, w),
                  [_t(rng, 2, 3, 5, 5), _t(rng, 3, 4, 3, 3)]))
    cases.append(("deconv_strided_grouped",
                  lambda x, w: T.conv2d_transpose_cropped(x, w, stride=2, groups=2),
                  [_t(rng, 1, 4, 4, 4), _t(rng, 4, 2, 3, 3)]))
    cases.append(("deconv_even_k", lambda x, w: T.conv2d_transpose_cropped(x, w),
                  [_t(rng, 1, 2, 4, 5), _t(rng, 2, 3, 2, 2)]))
    cases.append(("conv2d_1x1_grouped", lambda x, w: T.conv2d(x, w, groups=2),
                  [_t(rng, 2, 4, 3, 3), _t(rng, 6, 2, 1, 1)]))
    cases.append(("conv2d_1x1_strided", lambda x, w: T.conv2d(x, w, stride=2),
                  [_t(rng, 1, 3, 5, 6), _t(rng, 2, 3, 1, 1)]))

    cases.append(("maxpool", lambda x: T.maxpool2d_with_indices(x, 3, 2)[0],
                  [_spread(rng, 1, 2, 7, 7)]))
    cases.append(("avgpool", lambda x: T.avgpool2d(x, 2, 2), [_t(rng, 2, 3, 6, 6)]))

    def pool_unpool(x, k=2):
        pooled, idx = T.maxpool2d_with_indices(x, k, 2)
        return T.unpool2d(pooled, idx, x.shape[2:])

    cases.append(("unpool", pool_unpool, [_spread(rng, 1, 2, 6, 6)]))
    # 3x3 windows at stride 2 overlap, so neighbouring cells can share an argmax
    cases.append(("unpool_overlapping", lambda x: pool_unpool(x, 3), [_spread(rng, 1, 2, 7, 7)]))
    # 8x8 at k=3, stride 2: the last ceil-mode window is clipped to 2 rows/columns
    cases.append(("maxpool_ceil", lambda x: T.maxpool2d_with_indices(x, 3, 2)[0],
                  [_spread(rng, 1, 2, 8, 8)]))
    cases.append(("unpool_ceil", lambda x: pool_unpool(x, 3), [_spread(rng, 1, 2, 8, 8)]))

    labels = rng.integers(0, 5, size=4)
    cases.append(("softmax_ce", lambda z: T.softmax_cross_entropy(z, labels),
                  [_t(rng, 4, 5)]))
    cases.append(("mse", T.mse, [_t(rng, 3, 4), _t(rng, 3, 4)]))
    cases.append(("dropout_eval", lambda x: T.dropout(x, 0.2, False, None),
                  [_t(rng, 3, 4)]))
    cases.append(("mmd", lambda a, b: mmd_loss(a, b, 1.7),
                  [_t(rng, 5, 4), _t(rng, 6, 4)]))

    cfg = ConvMConfig(n_in=3, c1=4, c2=4, c3=4, c4=4, dic1=4, dic2=4,
                      c5=4, dec1=4, dec2=4, groups=2, dilations=(2, 3), dropout=0.0)
    convm = ConvM(cfg, rng=rng, dtype=np.float64)
    weights = [p for _, p in convm.parameters()]

    def convm_fn(x, *ws):
        return convm(x, training=False)

    cases.append(("conv_m_module", convm_fn, [_t(rng, 1, 3, 6, 6), *weights]))
    # conv edge paths, appended so the draws of the cases above stay put:
    # no padding, padding past the kernel's reach (the input gradient crops)
    # and a non-square 7x7 stem
    cases.append(("conv2d_valid_dilated", lambda x, w: T.conv2d(x, w, dilation=2),
                  [_t(rng, 1, 2, 7, 8), _t(rng, 3, 2, 3, 3)]))
    cases.append(("conv2d_pad_past_kernel", lambda x, w: T.conv2d(x, w, padding=3),
                  [_t(rng, 1, 2, 4, 5), _t(rng, 2, 2, 3, 3)]))
    cases.append(("conv2d_stem_nonsquare", lambda x, w: T.conv2d(x, w, padding=3),
                  [_t(rng, 1, 3, 9, 6), _t(rng, 4, 3, 7, 7)]))
    return cases


def run_default_suite(eps: float = 1e-4, tol: float = 1e-4, seed: int = 1234):
    """Run every default case; returns {name: GradCheckReport}."""
    rng = np.random.default_rng(seed)
    results = {}
    for name, fn, inputs in default_suite(rng):
        results[name] = gradcheck(fn, inputs, eps=eps, tol=tol,
                                  rng=np.random.default_rng(seed))
    return results
