"""Bit-identity witness for the kernel-matrix layers.

The element functions (sinc, the windows, the B-spline) and kernel_matrix
work in place.  Their results must not move by a single bit: the
benchmark's reference and the preset CSVs depend on the rounding of every
step.  The reference formulas below are the straightforward forms the
package evaluated before, one temporary per operation; a reordered or fused
step in the package makes one of these comparisons fail.
"""

import math

import numpy as np
import pytest

import regusamp.reconstruct as reconstruct_mod
from regusamp import specfun
from regusamp.kernel import sinc
from regusamp.reconstruct import (
    KERNEL_WEIGHTS,
    IndexOutOfRange,
    TestFunction,
    _block_rows,
    approximation_error,
    kernel_matrix,
    noise_amplification,
    noise_response_max,
    reconstruct_grid,
    sample,
)
from regusamp.windows import (
    SamplingConfig,
    WindowKind,
    bspline_center_value,
    default_params,
    eval_truncated,
    eval_window,
)


def ref_sinc(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    x2 = x * x
    return np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / np.where(small, 1.0, xs))


def ref_bspline(order_2s, x):
    s = order_2s // 2
    coef = specfun._bspline_pieces(s)
    w = s - np.abs(np.asarray(x, dtype=float))
    p = np.floor(np.minimum(np.fmax(w, 0.0), s - 1))
    u = np.maximum(w - p, 0.0)
    piece = p.astype(np.intp)
    out = np.take(coef[-1], piece)
    for row in coef[-2::-1]:
        out = out * u + np.take(row, piece)
    return out


def ref_window(w, cfg, x):
    x = np.asarray(x, dtype=float)
    m_over_L = cfg.m / cfg.L
    if w.kind is WindowKind.RECT:
        return (np.abs(x) <= m_over_L).astype(float)
    if w.kind is WindowKind.GAUSS:
        return np.exp(-(x * x) / (2.0 * w.sigma * w.sigma))
    if w.kind is WindowKind.BSPLINE:
        return ref_bspline(2 * w.s, cfg.L * x * w.s / cfg.m) / bspline_center_value(w.s)
    r = cfg.L * x / cfg.m
    u = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
    beta = w.beta
    return np.where(
        np.abs(r) <= 1.0,
        np.exp(beta * (u - 1.0)) * (-np.expm1(-2.0 * beta * u)) / (-math.expm1(-2.0 * beta)),
        0.0,
    )


def ref_truncated(w, cfg, x):
    out = ref_window(w, cfg, x)
    if w.kind is WindowKind.GAUSS:
        out = np.where(np.abs(np.asarray(x, dtype=float)) <= cfg.m / cfg.L, out, 0.0)
    return out


def ref_kernel_matrix(w, cfg, t):
    L, m = cfg.L, cfg.m
    Lt = L * t
    k = np.floor(Lt)
    ongrid = Lt == k
    k = k.astype(np.int64)
    idx = k[:, None] + np.arange(-m + 1, m + 1, dtype=np.int64)[None, :]
    x = t[:, None] - idx / L
    weights = ref_sinc(L * math.pi * x) * ref_truncated(w, cfg, x)
    idx[ongrid] = k[ongrid, None]
    weights[ongrid] = 0.0
    weights[ongrid, m - 1] = 1.0
    return idx, weights


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# B-spline m = 8 gives s = 5, m = 5 gives s = 3; sinh and gauss take their
# defaults at each m.
CFGS = [SamplingConfig(128, 1.0, 1 / 3, 5), SamplingConfig(256, 2.0, 9 / 20, 8)]
KINDS = list(WindowKind)


def element_inputs(cfg):
    """Random points over and beyond the support, the sample offsets l/L
    (support ends included), the sinc series threshold, +-0 and NaN."""
    rng = np.random.default_rng(cfg.m)
    edge = cfg.m / cfg.L
    rand = rng.uniform(-1.3 * edge, 1.3 * edge, (41, 2 * cfg.m))
    grid = np.arange(-cfg.m - 1, cfg.m + 2) / cfg.L
    tiny = np.array([1e-4, 1e-4 * (1 - 2**-52), 3e-5, 1e-300, 0.0]) / (cfg.L * math.pi)
    special = np.array([0.0, -0.0, np.nan, edge, -edge, np.nextafter(edge, 1), 2.0, -7.5])
    return np.concatenate([rand.ravel(), grid, tiny, -tiny, special])


@pytest.mark.parametrize("cfg", CFGS, ids=lambda c: f"m{c.m}")
def test_sinc_bits(cfg):
    x = element_inputs(cfg)
    for arg in (x, cfg.L * math.pi * x, np.array([-0.0, 0.0, 1e-4, -1e-4, 9.99e-5, np.nan])):
        assert_same_bits(sinc(arg), ref_sinc(arg))
    assert_same_bits(sinc(x.reshape(-1, 1)), ref_sinc(x.reshape(-1, 1)))
    for scalar in (0.0, -0.0, 5e-5, 0.3, -2.5, 1e-4):
        got = sinc(scalar)
        assert type(got) is float
        assert_same_bits(got, ref_sinc(scalar))


@pytest.mark.parametrize("cfg", CFGS, ids=lambda c: f"m{c.m}")
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_window_bits(cfg, kind):
    w = default_params(kind, cfg)
    x = element_inputs(cfg)
    for arg in (x, x.reshape(-1, 1)):
        assert_same_bits(eval_window(w, cfg, arg), ref_window(w, cfg, arg))
        assert_same_bits(eval_truncated(w, cfg, arg), ref_truncated(w, cfg, arg))
    for scalar in (0.0, -0.0, 0.3 * cfg.m / cfg.L, -cfg.m / cfg.L, 1.0):
        for got, want in ((eval_window(w, cfg, scalar), ref_window(w, cfg, scalar)),
                          (eval_truncated(w, cfg, scalar), ref_truncated(w, cfg, scalar))):
            assert type(got) is float
            assert_same_bits(got, want)


def test_bspline_bits():
    x = np.concatenate([np.linspace(-6.5, 6.5, 2001), [0.0, -0.0, np.nan, 3.0, -3.0, 1.0]])
    for order in (2, 4, 6, 10, 16):
        assert_same_bits(specfun.cardinal_bspline(order, x), ref_bspline(order, x))
        assert_same_bits(specfun.cardinal_bspline(order, x.reshape(-1, 1)), ref_bspline(order, x.reshape(-1, 1)))
        got = specfun.cardinal_bspline(order, 0.75)
        assert type(got) is float
        assert_same_bits(got, ref_bspline(order, 0.75))


@pytest.mark.parametrize("cfg", CFGS, ids=lambda c: f"m{c.m}")
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_kernel_matrix_bits(cfg, kind):
    # Random and on-grid targets, +-0 (on-grid at index 0), with a block
    # edge between an on-grid and an off-grid target.
    w = default_params(kind, cfg)
    block = _block_rows(KERNEL_WEIGHTS, cfg.m)[0].stop
    rng = np.random.default_rng(7)
    t = rng.uniform(-1.0, 1.0, block + 9)
    t[::5] = rng.integers(-cfg.L, cfg.L, t[::5].size) / cfg.L
    t[block - 1:block + 3] = [17 / cfg.L, 0.123456789, -0.0, 0.0]
    want_idx, want_w = ref_kernel_matrix(w, cfg, t)
    want_start = want_idx[:, cfg.m - 1] - (cfg.m - 1)
    start, weights = kernel_matrix(w, cfg, t)
    assert np.array_equal(start, want_start) and start.dtype == want_start.dtype
    assert_same_bits(weights, want_w)
    blocks = [kernel_matrix(w, cfg, t[rows]) for rows in _block_rows(t.size, cfg.m)]
    assert len(blocks) == 2
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), want_start)
    assert_same_bits(np.concatenate([b[1] for b in blocks]), want_w)
    one_start, one_w = kernel_matrix(w, cfg, t[block:block + 1])
    assert np.array_equal(one_start, want_start[block:block + 1])
    assert_same_bits(one_w, want_w[block:block + 1])


def ref_reductions(ss, w, t, noise_lo, noise):
    """The four reductions from ref_kernel_matrix: the reconstruction as
    one einsum of the gathered samples, its largest error against f, the
    noise response as one matrix product per run of a block's rows that
    share a window start, and the largest row sum of |weights|."""
    cfg, m = ss.cfg, ss.cfg.m
    idx, weights = ref_kernel_matrix(w, cfg, t)
    grid = np.einsum("ij,ij->i", ss.values[idx - ss.index_lo], weights)
    noise_max = 0.0
    for rows in _block_rows(t.size, m):
        start = idx[rows, m - 1] - (m - 1)
        edges = [0, *(np.flatnonzero(np.diff(start)) + 1), start.size]
        for a, b in zip(edges[:-1], edges[1:]):
            s = start[a] - noise_lo
            response = weights[rows][a:b] @ noise[:, s:s + 2 * m].T
            noise_max = max(noise_max, float(response.max()), -float(response.min()))
    return grid, noise_max, float(np.max(np.sum(np.abs(weights), axis=1)))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("m", [2, 5, 8])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_reductions_bits(kind, m, threads, monkeypatch):
    # Three blocks of random, on-grid and both end-of-set targets, on one
    # thread and on three: every reduction equals its reference formula.
    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: threads)
    cfg = SamplingConfig(128, 1.0, 1 / 3, m)
    w = default_params(kind, cfg)
    f = TestFunction("sincband", cfg.delta)
    lo, hi = -cfg.L - m, cfg.L + m
    ss = sample(f, cfg, lo, hi)
    block = _block_rows(KERNEL_WEIGHTS, m)[0].stop
    rng = np.random.default_rng(m)
    t = rng.uniform(-1.0, 1.0, 2 * block + 11)
    t[::7] = rng.integers(lo, hi + 1, t[::7].size) / cfg.L
    # The ends of the sample set read samples beyond it under zero weights.
    t[[0, block - 1, block, -1]] = [lo / cfg.L, hi / cfg.L, lo / cfg.L, hi / cfg.L]
    noise_lo = lo - m
    noise = rng.uniform(-1e-3, 1e-3, (5, hi - lo + 1 + 2 * m))
    grid, noise_max, lebesgue = ref_reductions(ss, w, t, noise_lo, noise)
    assert_same_bits(reconstruct_grid(ss, w, t), grid)
    assert approximation_error(ss, f, w, t) == np.max(np.abs(f(t) - grid))
    assert noise_response_max(w, cfg, t, noise_lo, noise) == noise_max
    assert noise_amplification(w, cfg, t) == lebesgue
    # A target beyond every sample index, in the last block, and an on-grid
    # one just off the set, in the second.
    far = t.copy()
    far[-3] = -2.0**62 / cfg.L
    with pytest.raises(IndexOutOfRange, match=r"lies beyond every sample index"):
        reconstruct_grid(ss, w, far)
    with pytest.raises(IndexOutOfRange, match=r"lies beyond every sample index"):
        approximation_error(ss, f, w, far)
    with pytest.raises(IndexOutOfRange, match=r"lies beyond every sample index"):
        noise_response_max(w, cfg, far, noise_lo, noise)
    with pytest.raises(IndexOutOfRange, match=r"lies beyond every sample index"):
        noise_amplification(w, cfg, far)
    far[block + 1] = (hi + 1) / cfg.L
    with pytest.raises(IndexOutOfRange, match=rf"needs sample index {hi + 1}; sample set covers \[{lo}, {hi}\]"):
        reconstruct_grid(ss, w, far)


def test_kernel_matrices_held_at_once_stay_independent():
    # kernel_matrix returns new arrays: neither a second call nor a
    # reduction touches them.
    cfg = CFGS[0]
    w = default_params(WindowKind.BSPLINE, cfg)
    rng = np.random.default_rng(11)
    t1, t2 = rng.uniform(-1.0, 1.0, 500), rng.uniform(-1.0, 1.0, 500)
    first = kernel_matrix(w, cfg, t1)
    kept = [a.copy() for a in first]
    second = kernel_matrix(w, cfg, t2)
    noise_amplification(w, cfg, t2)
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    for got, want in zip(first, kept):
        assert_same_bits(got, want)
    assert_same_bits(second[1], ref_kernel_matrix(w, cfg, t2)[1])
