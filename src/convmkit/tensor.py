"""Dense tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and CPU only. A Tensor remembers the tensors it
was computed from plus a closure that propagates the output gradient back to
them; ``backward()`` walks that graph in reverse topological order. All
neural primitives used by the network builder live here as free functions.

Ops are pure: randomness (dropout) comes in through an explicit
``numpy.random.Generator``, so seeded runs are bit-reproducible.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor",
    "set_checked",
    "no_grad",
    "add",
    "scale",
    "concat",
    "reshape",
    "flatten2d",
    "tsum",
    "take_rows",
    "relu",
    "linear",
    "dropout",
    "conv2d",
    "conv2d_transpose_cropped",
    "maxpool2d_with_indices",
    "UnpoolMap",
    "unpool2d",
    "avgpool2d",
    "softmax_cross_entropy",
    "mse",
]

# When enabled, every op verifies its output is finite and raises otherwise.
_CHECKED = False


def set_checked(flag: bool) -> None:
    global _CHECKED
    _CHECKED = bool(flag)


_NO_GRAD = False  # set by no_grad(): ops record no tape, results are leaves


@contextlib.contextmanager
def no_grad():
    """Run the block without recording the autodiff tape (inference)."""
    global _NO_GRAD
    prev, _NO_GRAD = _NO_GRAD, True
    try:
        yield
    finally:
        _NO_GRAD = prev


class Tensor:
    """N-dimensional array with an optional gradient buffer.

    ``data`` is always a contiguous float32/float64 numpy array. ``grad``
    is allocated lazily by ``backward()`` and has the same shape and dtype.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, dtype=None, name=""):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote a 0-d loss to shape (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self.name = name

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            # one pass, with the promotion and -0.0 -> +0.0 of zeros + g
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable tensor with requires_grad.

        The receiver must hold a single scalar (the loss).
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if _CHECKED:
                    for p in node._parents:
                        if p.grad is not None and not np.all(np.isfinite(p.grad)):
                            raise FloatingPointError(
                                f"non-finite gradient flowing into {p!r}"
                            )

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return scale(self, other)

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)

    def reshape(self, *shape):
        return reshape(self, shape)


def _make(data, parents, backward_fn):
    """Create a graph node; drops the closure if no parent needs gradients
    or the tape is off (``no_grad``)."""
    if _CHECKED and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite value produced by an op in checked mode")
    needs = not _NO_GRAD and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# elementwise / shape ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(a.data + b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(c * g)

    return _make(a.data * c, (a,), bwd)


def concat(tensors, axis=1) -> Tensor:
    datas = [t.data for t in tensors]
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def bwd(g):
        for t, gpart in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(gpart)

    return _make(np.concatenate(datas, axis=axis), tuple(tensors), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), bwd)


def flatten2d(a: Tensor) -> Tensor:
    """[N, ...] -> [N, prod(rest)]."""
    n = a.shape[0]
    return reshape(a, (n, int(a.data.size // n)))


def tsum(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape).astype(a.dtype))

    return _make(a.data.sum(keepdims=False).reshape(()), (a,), bwd)


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0 (gather); gradient scatters back."""
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            a._accumulate(ga)

    return _make(a.data[idx], (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(a.data * mask, (a,), bwd)


def dropout(a: Tensor, ratio: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-ratio). In eval mode or
    at ratio 0 it is the identity and returns ``a`` itself, with no tape node."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if not training or ratio == 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    keep = (rng.random(a.shape) >= ratio).astype(a.dtype)
    keep /= (1.0 - ratio)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _make(a.data * keep, (a,), bwd)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Bias-free affine map: [N, D] @ [D, K] -> [N, K]."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"linear: {x.shape} incompatible with weight {w.shape}")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)

    return _make(x.data @ w.data, (x, w), bwd)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _conv_out_size(h, k, stride, padding, dilation):
    return (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def _im2col(xp, k, stride, dilation, oh, ow):
    """Padded input [N,C,Hp,Wp] -> column stack [N, C, k, k, oh, ow]."""
    n, c = xp.shape[:2]
    if k == 1:  # the (strided) input already is the column stack: no copy
        return xp[:, :, None, None, :(oh - 1) * stride + 1:stride, :(ow - 1) * stride + 1:stride]
    cols = np.empty((n, c, k, k, oh, ow), dtype=xp.dtype)
    for i in range(k):
        hi = i * dilation
        for j in range(k):
            wj = j * dilation
            cols[:, :, i, j] = xp[:, :, hi:hi + (oh - 1) * stride + 1:stride,
                                  wj:wj + (ow - 1) * stride + 1:stride]
    return cols


def _col2im(gcols, xp_shape, k, stride, dilation, oh, ow):
    gxp = np.zeros(xp_shape, dtype=gcols.dtype)
    for i in range(k):
        hi = i * dilation
        for j in range(k):
            wj = j * dilation
            gxp[:, :, hi:hi + (oh - 1) * stride + 1:stride,
                wj:wj + (ow - 1) * stride + 1:stride] += gcols[:, :, i, j]
    return gxp


def conv2d(x: Tensor, w: Tensor, stride=1, padding=0, dilation=1, groups=1) -> Tensor:
    """Grouped, dilated 2-D cross-correlation without bias.

    x: [N, Cin, H, W]; w: [Cout, Cin/groups, k, k]. Output channel c reads
    only the input group floor(c / (Cout/groups)). The package's one conv
    kernel (im2col + GEMM); a 1x1 conv uses the input itself as its columns.
    """
    n, cin, h, wd = x.shape
    cout, cin_g, k, k2 = w.shape
    if k != k2:
        raise ValueError("conv2d: only square kernels are supported")
    if stride < 1:
        raise ValueError("conv2d: stride must be >= 1")
    if dilation < 1:
        raise ValueError("conv2d: dilation must be >= 1")
    if cin % groups or cout % groups:
        raise ValueError(f"conv2d: Cin={cin}, Cout={cout} not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ValueError(f"conv2d: weight expects Cin/groups={cin_g}, input has {cin // groups}")
    oh = _conv_out_size(h, k, stride, padding, dilation)
    ow = _conv_out_size(wd, k, stride, padding, dilation)
    if oh <= 0 or ow <= 0:
        raise ValueError("conv2d: kernel larger than (padded) input")
    cout_g = cout // groups

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    cols = _im2col(xp, k, stride, dilation, oh, ow)
    # [N, g, cin_g*k*k, oh*ow]
    cols_r = cols.reshape(n, groups, cin_g * k * k, oh * ow)
    w_r = w.data.reshape(groups, cout_g, cin_g * k * k)
    out = np.matmul(w_r[None], cols_r).reshape(n, cout, oh, ow)

    def bwd(g):
        g_r = g.reshape(n, groups, cout_g, oh * ow)
        if w.requires_grad:
            gw = np.matmul(g_r, cols_r.transpose(0, 1, 3, 2)).sum(axis=0)
            w._accumulate(gw.reshape(w.shape))
        if x.requires_grad:
            gcols = np.matmul(np.transpose(w_r, (0, 2, 1))[None], g_r)
            if k == 1 and stride == 1:  # the columns were xp itself
                gxp = gcols.reshape(xp.shape)
            else:
                gxp = _col2im(gcols.reshape(n, cin, k, k, oh, ow), xp.shape,
                              k, stride, dilation, oh, ow)
            if padding:
                gxp = gxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(gxp)

    return _make(out, (x, w), bwd)


def _transposed_weight(w: Tensor, groups: int) -> Tensor:
    """The conv2d weight [Cout, Cin/g, k, k] of the transposed conv with weight
    [Cin, Cout/g, k, k]: channels swapped within each group, kernel flipped."""
    def view(a, a_in):  # [g*a_in, a_out, k, k] -> [g*a_out, a_in, k, k]
        k = a.shape[-1]
        a = a.reshape(groups, a_in, -1, k, k).transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1]
        return a.reshape(-1, a_in, k, k)

    def bwd(g):
        if w.requires_grad:
            w._accumulate(view(g, w.shape[1]))

    return _make(view(w.data, w.shape[0] // groups), (w,), bwd)


def _zero_insert(x: Tensor, stride: int, k: int) -> Tensor:
    """The input of the valid conv2d that gives the centre-cropped transposed
    conv: ``stride - 1`` zeros between pixels, k - 1 zeros of padding, then
    the crop window [N, C, H+k-1, W+k-1] (off-centre when the excess is odd)."""
    n, c, h, wd = x.shape
    hz, wz = (h - 1) * stride + 1, (wd - 1) * stride + 1
    top, left = (hz + k - 1 - h) // 2, (wz + k - 1 - wd) // 2
    full = np.zeros((n, c, hz + 2 * k - 2, wz + 2 * k - 2), dtype=x.dtype)
    pixels = (..., slice(k - 1, k - 1 + hz, stride), slice(k - 1, k - 1 + wz, stride))
    window = (..., slice(top, top + h + k - 1), slice(left, left + wd + k - 1))
    full[pixels] = x.data

    def bwd(g):
        if x.requires_grad:
            gfull = np.zeros_like(full)
            gfull[window] = g
            x._accumulate(gfull[pixels])

    return _make(full[window], (x,), bwd)


def conv2d_transpose_cropped(x: Tensor, w: Tensor, stride=1, groups=1) -> Tensor:
    """Grouped transposed convolution whose output is center-cropped back to
    the input's spatial size.

    x: [N, Cin, H, W]; w: [Cin, Cout/groups, k, k]. The raw output has size
    (H-1)*stride + k; when the excess over H is odd the extra row/column is
    dropped from the bottom/right. Runs as ``conv2d`` with the flipped,
    per-group-transposed weight (Dumoulin & Visin, arXiv:1603.07285).
    """
    cin = x.shape[1]
    cin_w, _, k, k2 = w.shape
    if k != k2:
        raise ValueError("transposed conv: only square kernels are supported")
    if stride < 1:
        raise ValueError("transposed conv: stride must be >= 1")
    if cin_w != cin:
        raise ValueError(f"transposed conv: weight Cin={cin_w} vs input Cin={cin}")
    if cin % groups:
        raise ValueError(f"transposed conv: Cin={cin} not divisible by groups={groups}")
    wv = _transposed_weight(w, groups)
    if stride == 1 and k % 2:
        return conv2d(x, wv, padding=(k - 1) // 2, groups=groups)
    return conv2d(_zero_insert(x, stride, k), wv, groups=groups)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def _pool_windows(x, k, stride, oh, ow):
    """View of the full kxk windows of a floor-mode pool as [N, C, oh, ow, k, k]."""
    s = x.strides
    shape = x.shape[:2] + (oh, ow, k, k)
    strides = (s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3])
    return np.lib.stride_tricks.as_strided(x, shape, strides)


def _ceil_pool_size(h: int, k: int, stride: int) -> int:
    """Ceil-mode pooled size of an axis of length h. Every window must start
    inside the input: one that would start past it (stride > k) has nothing
    to pool, and a ValueError says so."""
    o = -(-(h - k) // stride) + 1
    if (o - 1) * stride >= h:
        raise ValueError(f"pool stride {stride} > window {k} puts the last "
                         f"window outside the input size {h}")
    return o


def _pool_offsets(h, w, k, stride, oh, ow):
    """The k*k window offsets (i, j) in row-major order. Per offset: its flat
    source offset i*W + j from the window's corner, the block of pooled cells
    whose window reaches it (ceil-mode windows are clipped at the right and
    bottom edges), and the strided slice of the input those cells read."""
    offsets = []
    for i in range(k):
        rows = min(oh, (h - 1 - i) // stride + 1)
        for j in range(k):
            cols = min(ow, (w - 1 - j) // stride + 1)
            offsets.append((i * w + j, (..., slice(rows), slice(cols)),
                            (..., slice(i, i + (rows - 1) * stride + 1, stride),
                             slice(j, j + (cols - 1) * stride + 1, stride))))
    return offsets


def _argmax_indices(x, out, offsets, stride):
    """Flat source index h*W + w of each cell's first maximum in row-major
    window order, as ``argmax`` over the window picks it (a NaN counts as the
    maximum).

    The offsets run in reverse and each hit overwrites the cell's offset
    number t, so the first hit is written last. The overwrite is arithmetic,
    code += hit * (t - code) in unsigned wrap-around, which numpy runs
    unmasked and so faster than ``np.copyto(..., where=hit)``.
    """
    code = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    has_nan = bool(np.isnan(out).any())
    for t in range(len(offsets) - 1, -1, -1):
        _, cells, src = offsets[t]
        hit = x[src] == out[cells]
        if has_nan:
            hit |= np.isnan(x[src])
        block = code[cells]
        step = np.subtract(t, block, dtype=code.dtype)
        step *= hit
        block += step
    idx = np.take(np.array([off for off, _, _ in offsets], dtype=np.int64), code)
    oh, ow, w = out.shape[2], out.shape[3], x.shape[3]
    idx += (np.arange(oh) * (stride * w))[:, None] + np.arange(ow) * stride  # window corners
    return idx


def maxpool2d_with_indices(x: Tensor, k: int, stride: int, indices: bool = True):
    """Ceil-mode max pooling. Returns (pooled, indices) where indices holds,
    per pooled cell, the flat row-major source coordinate h*W + w of the max
    (first occurrence on ties, windows clipped at the right/bottom edge).

    The max is a running ``np.maximum`` over the k*k strided views of the
    input, with no window copy. With ``indices=False`` the second element is
    None, and the argmax is built only if the tape runs a backward.
    """
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ValueError(f"maxpool2d: window {k} exceeds input {h}x{w}")
    oh, ow = _ceil_pool_size(h, k, stride), _ceil_pool_size(w, k, stride)
    offsets = _pool_offsets(h, w, k, stride, oh, ow)
    out = x.data[offsets[0][2]].copy()  # offset (0, 0) reaches every cell
    for _, cells, src in offsets[1:]:
        block = out[cells]
        # np.maximum keeps its second operand on a tie (+0.0 vs -0.0): the
        # earlier offset's value, as argmax would pick it
        np.maximum(x.data[src], block, out=block)
    idx = _argmax_indices(x.data, out, offsets, stride) if indices else None

    def bwd(g):
        if x.requires_grad:
            first = idx if idx is not None else _argmax_indices(x.data, out, offsets, stride)
            gx = np.zeros((n, c, h * w), dtype=g.dtype)
            rows = np.arange(n * c)[:, None]
            np.add.at(gx.reshape(n * c, h * w), (rows, first.reshape(n * c, -1)),
                      g.reshape(n * c, -1))
            x._accumulate(gx.reshape(n, c, h, w))

    return _make(out, (x,), bwd), idx


class UnpoolMap:
    """Where ``unpool2d`` puts each cell of a pool's index map ``indices``
    in an output of size ``target_hw``: cell ``owned[j]`` (flat) goes to flat
    output position ``dst[j]``. A position shared by overlapping windows
    belongs to the last cell in row-major order alone. Built once per pooling
    layer, it serves every unpool through that layer."""

    __slots__ = ("shape", "target_hw", "owned", "dst")

    def __init__(self, indices: np.ndarray, target_hw):
        n, c, oh, ow = indices.shape
        h, w = target_hw
        if indices.min() < 0 or indices.max() >= h * w:
            raise ValueError("unpool2d: index out of target bounds")
        lin = (indices.reshape(n * c, oh * ow) + np.arange(n * c)[:, None] * (h * w)).ravel()
        # fancy assignment leaves the winner among duplicate indices undefined
        cells = np.arange(lin.size)
        owner = np.full(n * c * h * w, -1)
        np.maximum.at(owner, lin, cells)
        self.owned = np.flatnonzero(owner[lin] == cells)
        self.dst = lin[self.owned]
        self.shape, self.target_hw = indices.shape, (h, w)


def unpool2d(x: Tensor, indices, target_hw) -> Tensor:
    """Scatter pooled values back to their recorded argmax positions; every
    other element of the [N, C, H, W] output is zero. ``indices`` is a pool's
    index map, or the ``UnpoolMap`` built from it (see there)."""
    n, c, oh, ow = x.shape
    if indices.shape != x.shape:
        raise ValueError(f"unpool2d: indices shape {indices.shape} != input {x.shape}")
    umap = indices if isinstance(indices, UnpoolMap) else UnpoolMap(indices, target_hw)
    if umap.target_hw != tuple(target_hw):
        raise ValueError(f"unpool2d: index map built for size {umap.target_hw}, "
                         f"not {tuple(target_hw)}")
    h, w = umap.target_hw
    owned, dst = umap.owned, umap.dst

    out = np.zeros(n * c * h * w, dtype=x.dtype)
    out[dst] = x.data.ravel()[owned]

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros(x.size, dtype=g.dtype)
            gx[owned] = g.ravel()[dst]
            x._accumulate(gx.reshape(x.shape))

    return _make(out.reshape(n, c, h, w), (x,), bwd)


def avgpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Floor-mode average pooling with full kxk windows."""
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ValueError(f"avgpool2d: window {k} exceeds input {h}x{w}")
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    win = _pool_windows(x.data, k, stride, oh, ow)
    out = win.mean(axis=(-2, -1))

    def bwd(g):
        if x.requires_grad:
            gshare = np.broadcast_to((g / (k * k))[:, :, None, None], (n, c, k, k, oh, ow))
            x._accumulate(_col2im(gshare, x.shape, k, stride, 1, oh, ow))

    return _make(np.ascontiguousarray(out), (x,), bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over the batch, stabilized by max subtraction."""
    n, kk = logits.shape
    if n == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= kk:
        raise ValueError("softmax_cross_entropy: label out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    p = ez / sez
    # log-softmax, not log(p): p underflows to 0 in float32 on a large margin
    loss = -np.mean(z[np.arange(n), labels] - np.log(sez[:, 0]))

    def bwd(g):
        if logits.requires_grad:
            gl = p.copy()
            gl[np.arange(n), labels] -= 1.0
            logits._accumulate(gl * (float(np.asarray(g).reshape(())) / n))

    return _make(np.asarray(loss, dtype=logits.dtype).reshape(()), (logits,), bwd)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    if a.shape != b.shape:
        raise ValueError(f"mse: shape mismatch {a.shape} vs {b.shape}")
    diff = a.data - b.data
    loss = np.mean(diff * diff)

    def bwd(g):
        c = 2.0 * float(np.asarray(g).reshape(())) / diff.size
        if a.requires_grad:
            a._accumulate(c * diff)
        if b.requires_grad:
            b._accumulate(-c * diff)

    return _make(np.asarray(loss, dtype=a.dtype).reshape(()), (a, b), bwd)
