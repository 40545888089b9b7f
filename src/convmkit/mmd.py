"""Gaussian-kernel maximum mean discrepancy with the median heuristic.

The loss uses the biased estimator (the i == j kernel terms are kept), which
is non-negative by construction and zero exactly when the two sample
multisets coincide.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _make


def gaussian_kernel(x, y, sigma: float) -> float:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for two plain vectors."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-np.dot(d, d) / (2.0 * sigma * sigma)))


# Budget of the float64 blocks that pairwise_sq_dists and the mmd_loss
# backward stream through: about half of a core's 2 MiB L2, and never less
# than one row or column.
_SCRATCH_BYTES = 1 << 20


def _block_len(width: int) -> int:
    """Float64 vectors of ``width`` per block: as many as fit
    ``_SCRATCH_BYTES``, at least one."""
    return max(1, _SCRATCH_BYTES // (max(1, width) * 8))


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``, [N, N] float64.

    One contiguous row reduction of (x_j - x_i)**2 per unordered pair, then
    mirrored: an entry depends only on its pair, so the matrix is bitwise
    symmetric with an exact zero diagonal. The rows j > i are cast to
    float64 as they are copied, in blocks, into one scratch buffer of about
    ``_SCRATCH_BYTES`` (at least one row), so a float32 ``x`` is read as it
    is and the scratch is bounded, not O(N*D). The cast is exact, so the
    result has the same bits as on ``x.astype(np.float64)``; copying first
    is faster than a mixed-dtype subtract."""
    n, dim = x.shape
    d = np.zeros((n, n))
    rows = max(1, min(n - 1, _block_len(dim)))
    scratch = np.empty((rows, dim))
    for i in range(n - 1):
        xi = x[i].astype(np.float64, copy=False)
        for j0 in range(i + 1, n, rows):
            j1 = min(j0 + rows, n)
            b = scratch[:j1 - j0]
            b[...] = x[j0:j1]
            b -= xi
            np.multiply(b, b, out=b)
            d[i, j0:j1] = b.sum(axis=1)
    return d + d.T


def median_bandwidth(samples: np.ndarray) -> float:
    """Median Euclidean distance over all unordered sample pairs."""
    x = np.asarray(samples)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 samples")
    dists = np.sqrt(pairwise_sq_dists(x)[np.triu_indices(n, k=1)])
    sigma = float(np.median(dists))
    if sigma == 0.0:
        raise ValueError("all pairwise distances are zero; perturb or skip")
    return sigma


def mmd_loss(feats_source: Tensor, feats_target: Tensor, sigma: float) -> Tensor:
    """Differentiable biased MMD^2 between two feature matrices [N, D].

    mean(Kss) + mean(Ktt) - 2 mean(Kst) with a Gaussian kernel of bandwidth
    ``sigma``, all three sliced from one kernel matrix over ``[s; t]``;
    gradients flow into both feature sets (sigma is a constant). The rows
    stay in their own dtype; only bounded blocks of them are cast to float64.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    fs, ft = feats_source, feats_target
    if fs.shape[1] != ft.shape[1]:
        raise ValueError(f"feature dims differ: {fs.shape[1]} vs {ft.shape[1]}")
    ns, nt = fs.shape[0], ft.shape[0]
    if ns < 1 or nt < 1:
        raise ValueError("both sample sets must be non-empty")
    x = np.concatenate([fs.data, ft.data])
    k = np.exp(-pairwise_sq_dists(x) * (1.0 / (2.0 * sigma * sigma)))
    # fsum is order-independent, making the estimator exactly symmetric
    # under a set swap and exactly zero on identical sets
    value = (math.fsum(k[:ns, :ns].ravel()) / (ns * ns)
             + math.fsum(k[ns:, ns:].ravel()) / (nt * nt)
             - 2.0 * math.fsum(k[:ns, ns:].ravel()) / (ns * nt))

    def bwd(g):
        g = float(np.asarray(g).reshape(()))
        # MMD^2 = w^T K w with w = +1/Ns on source rows, -1/Nt on target rows;
        # d/dx_a = (2/sigma^2) w_a sum_j w_j K[a,j] (x_j - x_a)
        n = ns + nt
        w = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, -1.0 / nt)])
        kw_mat = k * w
        kw = (k @ w)[:, None]
        cw = ((2.0 * g / (sigma * sigma)) * w)[:, None]
        # x goes through the GEMM one float64 column block at a time, in two
        # buffers of the scratch budget, and each block is rounded into the
        # sides' gradient rows in their dtype: column by column, the same ops
        # on the same operands as the one-shot float64
        # cw * ((k * w) @ x - kw * x) and its astype, so the same bits
        # without a float64 [N, D] array. Both matmul operands stay float64,
        # since a mixed-dtype matmul is much slower.
        sides = [(t, np.empty_like(t.data), rows)
                 for t, rows in ((fs, slice(0, ns)), (ft, slice(ns, n)))
                 if t.requires_grad]
        cols = _block_len(n)
        blk_buf, acc_buf = np.empty(n * cols), np.empty(n * cols)
        for c0 in range(0, x.shape[1], cols):
            c1 = min(c0 + cols, x.shape[1])
            blk = blk_buf[:n * (c1 - c0)].reshape(n, c1 - c0)
            acc = acc_buf[:n * (c1 - c0)].reshape(n, c1 - c0)
            blk[...] = x[:, c0:c1]
            np.matmul(kw_mat, blk, out=acc)
            acc -= np.multiply(kw, blk, out=blk)
            acc *= cw
            for _, grad, rows in sides:
                grad[:, c0:c1] = acc[rows]
        for t, grad, _ in sides:
            t._accumulate(grad)

    return _make(np.asarray(value, dtype=fs.dtype).reshape(()), (fs, ft), bwd)


def mmd_brute_force(s: np.ndarray, t: np.ndarray, sigma: float) -> float:
    """Double-loop oracle for the biased estimator; test use only."""
    ns, nt = len(s), len(t)
    tot = 0.0
    for i in range(ns):
        for j in range(ns):
            tot += gaussian_kernel(s[i], s[j], sigma) / (ns * ns)
    for i in range(nt):
        for j in range(nt):
            tot += gaussian_kernel(t[i], t[j], sigma) / (nt * nt)
    for i in range(ns):
        for j in range(nt):
            tot -= 2.0 * gaussian_kernel(s[i], t[j], sigma) / (ns * nt)
    return tot
