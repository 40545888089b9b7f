import math
import tracemalloc

import numpy as np
import pytest

from convmkit.mmd import (_SCRATCH_BYTES, gaussian_kernel, median_bandwidth,
                          mmd_brute_force, mmd_loss, pairwise_sq_dists)
from convmkit.tensor import Tensor

# float64 widths at which pairwise_sq_dists and the mmd_loss backward work
# in blocks of three rows, and of one row
WIDE_BLOCKS = _SCRATCH_BYTES // (3 * 8)
WIDE_ROWS = _SCRATCH_BYTES // 8 + 1
# width at which the mmd_loss backward of 6 + 5 rows ends on a partial
# float64 column block
PARTIAL_COLS = 2 * (_SCRATCH_BYTES // (11 * 8)) + 5


def test_kernel_self_is_one():
    x = np.array([1.0, -2.0, 3.0])
    assert gaussian_kernel(x, x, 2.0) == 1.0


def test_kernel_requires_positive_sigma():
    with pytest.raises(ValueError):
        gaussian_kernel(np.zeros(2), np.ones(2), 0.0)


def test_median_of_three_points():
    # pairwise distances {1, 2, 3} -> median 2
    assert median_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0


def test_median_even_pair_count():
    # four 1-D points 0,1,2,4 -> distances {1,1,2,2,3,4} -> (2+2)/2
    assert median_bandwidth(np.array([[0.0], [1.0], [2.0], [4.0]])) == 2.0


def test_median_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 8))
    dists = sorted(float(np.linalg.norm(x[i] - x[j]))
                   for i in range(50) for j in range(i + 1, 50))
    want = float(np.median(dists))
    assert abs(median_bandwidth(x) - want) < 1e-12


def test_median_zero_distance_error():
    with pytest.raises(ValueError):
        median_bandwidth(np.zeros((4, 3)))


def test_mmd_identical_sets_zero():
    x = np.random.default_rng(1).standard_normal((6, 4))
    val = float(mmd_loss(Tensor(x, dtype=np.float64), Tensor(x.copy(), dtype=np.float64),
                         1.3).data)
    assert val == 0.0


def test_mmd_single_sample_closed_form():
    xs = np.array([[1.0, 2.0]])
    xt = np.array([[0.5, -1.0]])
    sigma = 1.7
    want = 2.0 - 2.0 * np.exp(-np.sum((xs - xt) ** 2) / (2 * sigma ** 2))
    got = float(mmd_loss(Tensor(xs, dtype=np.float64), Tensor(xt, dtype=np.float64),
                         sigma).data)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_mmd_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    ns, nt, d = rng.integers(2, 8), rng.integers(2, 8), rng.integers(1, 6)
    s = rng.standard_normal((ns, d))
    t = rng.standard_normal((nt, d))
    sigma = float(rng.uniform(0.5, 3.0))
    got = float(mmd_loss(Tensor(s, dtype=np.float64), Tensor(t, dtype=np.float64),
                         sigma).data)
    assert abs(got - mmd_brute_force(s, t, sigma)) < 1e-10


def test_mmd_symmetry():
    rng = np.random.default_rng(5)
    s = rng.standard_normal((6, 4))
    t = rng.standard_normal((5, 4))
    a = float(mmd_loss(Tensor(s, dtype=np.float64), Tensor(t, dtype=np.float64), 1.1).data)
    b = float(mmd_loss(Tensor(t, dtype=np.float64), Tensor(s, dtype=np.float64), 1.1).data)
    assert a == b


def test_mmd_nonnegative_and_positive_on_distinct_sets():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = rng.standard_normal((8, 3))
        t = rng.standard_normal((8, 3)) + 0.5
        v = float(mmd_loss(Tensor(s, dtype=np.float64), Tensor(t, dtype=np.float64),
                           1.0).data)
        assert v > 0.0


def test_mmd_invariant_under_common_feature_permutation():
    rng = np.random.default_rng(7)
    s = rng.standard_normal((5, 6))
    t = rng.standard_normal((4, 6))
    perm = rng.permutation(6)
    a = float(mmd_loss(Tensor(s, dtype=np.float64), Tensor(t, dtype=np.float64), 0.9).data)
    b = float(mmd_loss(Tensor(s[:, perm], dtype=np.float64),
                       Tensor(t[:, perm], dtype=np.float64), 0.9).data)
    assert abs(a - b) < 1e-12


def test_mmd_gradient_flows_into_both_sets():
    rng = np.random.default_rng(8)
    s = Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
    t = Tensor(rng.standard_normal((5, 3)), requires_grad=True, dtype=np.float64)
    mmd_loss(s, t, 1.2).backward()
    assert s.grad is not None and np.any(s.grad != 0)
    assert t.grad is not None and np.any(t.grad != 0)


def test_mmd_dim_mismatch():
    with pytest.raises(ValueError):
        mmd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), 1.0)


def test_pairwise_sq_dists_clipped_nonnegative():
    x = np.full((3, 2), 7.0)
    assert np.all(pairwise_sq_dists(x) >= 0.0)


def check_symmetry_diagonal_and_permutation(dim):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((9, dim))
    d = pairwise_sq_dists(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    perm = rng.permutation(9)
    assert np.array_equal(pairwise_sq_dists(x[perm]), d[np.ix_(perm, perm)])


def test_pairwise_sq_dists_exact_symmetry_diagonal_and_permutation():
    check_symmetry_diagonal_and_permutation(1000)


@pytest.mark.parametrize("dim", [WIDE_BLOCKS, WIDE_ROWS])
def test_pairwise_sq_dists_exact_symmetry_diagonal_and_permutation_in_blocks(dim):
    check_symmetry_diagonal_and_permutation(dim)


@pytest.mark.parametrize("dim", [WIDE_BLOCKS, WIDE_ROWS])
def test_float32_rows_give_the_bits_of_their_float64_cast(dim):
    x = np.random.default_rng(dim).standard_normal((7, dim)).astype(np.float32)
    x64 = x.astype(np.float64)
    assert pairwise_sq_dists(x).tobytes() == pairwise_sq_dists(x64).tobytes()
    assert median_bandwidth(x) == median_bandwidth(x64)


def test_mmd_float32_swap_symmetry_at_width():
    rng = np.random.default_rng(12)
    s = rng.standard_normal((5, 3000)).astype(np.float32)
    t = (rng.standard_normal((7, 3000)) + 0.2).astype(np.float32)
    sigma = median_bandwidth(np.concatenate([s, t]))
    ab = mmd_loss(Tensor(s), Tensor(t), sigma).data
    ba = mmd_loss(Tensor(t), Tensor(s), sigma).data
    assert ab.dtype == np.float32 and ab.tobytes() == ba.tobytes()


def broadcast_mmd(s, t, sigma):
    """Biased MMD^2 from three broadcast [Na, Nb, D] distance blocks."""
    def kmat(a, b):
        d = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        return np.exp(-d * (1.0 / (2.0 * sigma * sigma)))

    ns, nt = len(s), len(t)
    return (math.fsum(kmat(s, s).ravel()) / (ns * ns)
            + math.fsum(kmat(t, t).ravel()) / (nt * nt)
            - 2.0 * math.fsum(kmat(s, t).ravel()) / (ns * nt))


@pytest.mark.parametrize("ns,nt,d", [(1, 1, 3), (3, 8, 7), (6, 4, 200), (9, 5, 1500),
                                     (9, 5, WIDE_BLOCKS), (3, 2, WIDE_ROWS)])
def test_mmd_bitwise_equals_broadcast_reference(ns, nt, d):
    rng = np.random.default_rng(d)
    s = rng.standard_normal((ns, d))
    t = rng.standard_normal((nt, d)) + 0.3
    sigma = 0.8 * np.sqrt(d)
    got = mmd_loss(Tensor(s, dtype=np.float64), Tensor(t, dtype=np.float64), sigma).item()
    assert got == broadcast_mmd(s, t, sigma)


def test_mmd_and_bandwidth_peak_memory_linear_in_rows():
    # a broadcast [Nt, Nt, D] float64 Ktt temporary alone would be 25x both.nbytes
    ns, nt, d = 24, 40, 4096
    rng = np.random.default_rng(13)
    s = Tensor(rng.standard_normal((ns, d)), requires_grad=True, dtype=np.float64)
    t = Tensor(rng.standard_normal((nt, d)), requires_grad=True, dtype=np.float64)
    both = np.concatenate([s.data, t.data])
    tracemalloc.start()
    try:
        mmd_loss(s, t, median_bandwidth(both)).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * both.nbytes


def test_pairwise_sq_dists_scratch_is_bounded():
    # one row is 1.6 MB; an unblocked (x[i+1:] - x[i]) ** 2 per row peaks at 24 MB
    x = np.random.default_rng(14).standard_normal((16, 200_000))
    tracemalloc.start()
    try:
        d = pairwise_sq_dists(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 + 2 * d.nbytes


def test_float32_mmd_peak_memory_without_float64_copies():
    # the float32 [s; t] concat, the gradient rows and the leaf gradients are
    # three input-sized arrays; a float64 copy of the rows alone would be two
    rng = np.random.default_rng(15)
    s = Tensor(rng.standard_normal((8, 200_000), dtype=np.float32), requires_grad=True)
    t = Tensor(rng.standard_normal((8, 200_000), dtype=np.float32) + 0.2,
               requires_grad=True)
    nbytes = s.data.nbytes + t.data.nbytes
    tracemalloc.start()
    try:
        sigma = median_bandwidth(np.concatenate([s.data, t.data]))
        mmd_loss(s, t, sigma).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.grad.dtype == np.float32 and t.grad.dtype == np.float32
    assert peak < 3.5 * nbytes + 4 * 2**20


def out_of_place_grads(s, t, sigma):
    """The MMD gradient as one out-of-place expression, at g = 1."""
    ns, nt = len(s), len(t)
    x = np.concatenate([s.astype(np.float64), t.astype(np.float64)])
    k = np.exp(-pairwise_sq_dists(x) * (1.0 / (2.0 * sigma * sigma)))
    w = np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, -1.0 / nt)])
    grad = (2.0 / (sigma * sigma)) * w[:, None] * ((k * w) @ x - (k @ w)[:, None] * x)
    return grad[:ns].astype(s.dtype), grad[ns:].astype(t.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [300, WIDE_BLOCKS, WIDE_ROWS, PARTIAL_COLS])
def test_mmd_gradient_bitwise_equals_out_of_place(dtype, d):
    rng = np.random.default_rng(d)
    s = rng.standard_normal((6, d)).astype(dtype)
    t = (rng.standard_normal((5, d)) + 0.3).astype(dtype)
    sigma = median_bandwidth(np.concatenate([s, t]))
    fs = Tensor(s, requires_grad=True, dtype=dtype)
    ft = Tensor(t, requires_grad=True, dtype=dtype)
    mmd_loss(fs, ft, sigma).backward()
    want_s, want_t = out_of_place_grads(s, t, sigma)
    assert fs.grad.dtype == dtype and ft.grad.dtype == dtype
    assert fs.grad.tobytes() == (np.zeros_like(s) + want_s).tobytes()
    assert ft.grad.tobytes() == (np.zeros_like(t) + want_t).tobytes()
