"""Reconstruction operator: interpolation, locality, linearity, noise."""

import math
import sys
import threading
import time

import numpy as np
import pytest

import regusamp.reconstruct as reconstruct_mod
from regusamp.kernel import KernelEval, NonFiniteInput, ft_window, psi
from regusamp.reconstruct import (
    KERNEL_WEIGHTS,
    IndexOutOfRange,
    SampleSet,
    TestFunction,
    TestFunctionKind,
    _block_rows,
    _draw_noise,
    approximation_error,
    kernel_matrix,
    load_samples,
    noise_amplification,
    noise_response_max,
    perturb,
    reconstruct_grid,
    sample,
)
from regusamp.windows import SamplingConfig, WindowKind, WindowSpec, default_params
from samples_io import save_samples

CFG = SamplingConfig(128, 1.0, 1 / 3, 5)
F = TestFunction(TestFunctionKind.SINC_BAND, delta=CFG.delta)


def reconstruct_point(ss, w, t):
    """The reconstruction at the single target t, from a one-element grid."""
    return float(reconstruct_grid(ss, w, np.array([t]))[0])


def block_rows(m):
    """Targets per kernel block at 2m weights per target."""
    return _block_rows(KERNEL_WEIGHTS, m)[0].stop


BLOCK = block_rows(CFG.m)


def full_sample_set(cfg=CFG, f=None):
    f = f or TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
    return sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)


# ---------------------------------------------------------------------------
# Test functions and sampling


def test_sincband_values():
    assert F(0.0) == math.sqrt(2.0 * CFG.delta)
    assert F.l2_norm == 1.0
    f4 = TestFunction(TestFunctionKind.SINC_BAND, delta=CFG.L / 4.0)
    assert abs(f4(2.0 / CFG.L)) <= 1e-13  # sqrt(L/2)*sinc(pi)


def test_sincsqband_values():
    f = TestFunction(TestFunctionKind.SINC_SQ_BAND, delta=CFG.delta)
    assert f(0.0) == CFG.delta
    assert f.l2_norm == pytest.approx(math.sqrt(2.0 * CFG.delta / 3.0), rel=1e-15)


def test_sample_values_exact():
    ss = full_sample_set()
    ell = np.arange(ss.index_lo, ss.index_hi + 1)
    assert np.array_equal(ss.values, np.asarray(F(ell / CFG.L)))


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(CFG, 0, 3, np.zeros(3))


# ---------------------------------------------------------------------------
# Perturbation


def test_perturb_bounded_and_deterministic():
    ss = full_sample_set()
    noisy1 = perturb(ss, 1e-3, seed=404)
    noisy2 = perturb(ss, 1e-3, seed=404)
    other = perturb(ss, 1e-3, seed=405)
    assert np.max(np.abs(noisy1.values - ss.values)) < 1e-3
    assert np.array_equal(noisy1.values, noisy2.values)
    assert not np.array_equal(noisy1.values, other.values)
    assert (noisy1.cfg, noisy1.index_lo, noisy1.index_hi) == (ss.cfg, ss.index_lo, ss.index_hi)


def test_perturb_is_samples_plus_drawn_noise():
    # A perturbed set is plain sample data: f(l/L) + eps_l, with eps_l the
    # seeded draw of _draw_noise, bit for bit.
    ss = full_sample_set()
    for eps, seed in ((1e-3, 404), (0.25, 7), (1e-12, 2)):
        noise = _draw_noise(len(ss), eps, seed)
        assert np.max(np.abs(noise)) < eps
        assert np.array_equal(perturb(ss, eps, seed).values, ss.values + noise)


def test_perturb_vanishing_noise_limit():
    ss = full_sample_set()
    noisy = perturb(ss, 1e-12, seed=2)
    w = default_params(WindowKind.GAUSS, CFG)
    for t in (0.013, -0.4567, 0.9991):
        diff = abs(reconstruct_point(noisy, w, t) - reconstruct_point(ss, w, t))
        assert diff < 1e-9


def test_perturb_requires_positive_eps():
    with pytest.raises(ValueError):
        perturb(full_sample_set(), 0.0, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_delta_and_eps_rejected(bad):
    with pytest.raises(ValueError, match="delta must be finite and > 0"):
        TestFunction(TestFunctionKind.SINC_BAND, delta=bad)
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        perturb(full_sample_set(), bad, seed=1)


# ---------------------------------------------------------------------------
# Point reconstruction


def test_interpolation_on_grid_exact():
    ss = full_sample_set()
    rng = np.random.default_rng(61)
    for kind in WindowKind:
        w = default_params(kind, CFG)
        for ell in rng.integers(ss.index_lo, ss.index_hi + 1, 20):
            want = ss.values[ell - ss.index_lo]
            assert reconstruct_point(ss, w, ell / CFG.L) == want


def test_interpolation_identity_of_raw_sum():
    # The unshortcut 2m-term sum itself reproduces the sample up to the
    # sinc(integer*pi) round-off; this is the analytic interpolation
    # property rather than the implementation shortcut.
    ss = full_sample_set()
    k = KernelEval(default_params(WindowKind.SINH, CFG), CFG)
    for ell in (-130, -7, 0, 19, 250):
        t = ell / CFG.L
        idx = np.arange(ell - CFG.m + 1, ell + CFG.m + 1)
        raw = float(np.sum(ss.values[idx - ss.index_lo] * np.asarray(psi(k, t - idx / CFG.L))))
        want = ss.values[ell - ss.index_lo]
        assert raw == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_noisy_on_grid_returns_perturbed_sample():
    ss = full_sample_set()
    noisy = perturb(ss, 1e-3, seed=8)
    w = default_params(WindowKind.BSPLINE, CFG)
    got = reconstruct_point(noisy, w, 3 / CFG.L)
    noise = _draw_noise(len(ss), 1e-3, 8)
    assert got == ss.values[3 - ss.index_lo] + noise[3 - ss.index_lo]


def test_zero_samples_zero_everywhere():
    zero = SampleSet(CFG, -CFG.L - CFG.m, CFG.L + CFG.m, np.zeros(2 * (CFG.L + CFG.m) + 1))
    for kind in WindowKind:
        w = default_params(kind, CFG)
        assert reconstruct_point(zero, w, 0.377) == 0.0


def test_locality_reads_exactly_2m_samples():
    # R f(t) reads the samples k-m+1..k+m alone, and an on-grid t = j/L reads
    # sample j alone: replacing every other sample leaves the value
    # bit-identical, and changing any one sample it reads moves it.
    ss = full_sample_set()
    w = default_params(WindowKind.GAUSS, CFG)
    rng = np.random.default_rng(17)
    k = math.floor(CFG.L * 0.1234)
    for t, reads in ((0.1234, range(k - CFG.m + 1, k + CFG.m + 1)), (5 / CFG.L, [5])):
        pos = np.asarray(reads) - ss.index_lo
        want = reconstruct_point(ss, w, t)
        others = rng.uniform(-1.0, 1.0, len(ss))
        others[pos] = ss.values[pos]
        assert reconstruct_point(SampleSet(CFG, ss.index_lo, ss.index_hi, others), w, t) == want
        for j in pos:
            moved = ss.values.copy()
            moved[j] += 0.5
            assert reconstruct_point(SampleSet(CFG, ss.index_lo, ss.index_hi, moved), w, t) != want


def test_linearity():
    rng = np.random.default_rng(71)
    f = full_sample_set()
    g_fun = TestFunction(TestFunctionKind.SINC_SQ_BAND, delta=CFG.delta)
    g = full_sample_set(f=g_fun)
    w = default_params(WindowKind.SINH, CFG)
    for _ in range(10):
        a, b = rng.uniform(-3, 3, 2)
        t = float(rng.uniform(-1, 1))
        combo = SampleSet(CFG, f.index_lo, f.index_hi, a * f.values + b * g.values)
        lhs = reconstruct_point(combo, w, t)
        rhs = a * reconstruct_point(f, w, t) + b * reconstruct_point(g, w, t)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_index_out_of_range_message():
    ss = sample(F, CFG, -10, 10)
    w = default_params(WindowKind.GAUSS, CFG)
    with pytest.raises(IndexOutOfRange, match=r"requires samples for indices \[124, 133\]"):
        reconstruct_point(ss, w, 0.5001)  # k = floor(128.02) = 128
    with pytest.raises(IndexOutOfRange, match=r"needs sample index 128"):
        reconstruct_point(ss, w, 0.5)  # exactly on-grid


def test_noise_propagation_bound():
    # |R(f~) - R(f)| <= eps*(2 + L*phihat(0)) across seeds and targets.
    ss = full_sample_set()
    eps = 1e-3
    t = np.linspace(-1.0, 1.0, 201)
    for kind in WindowKind:
        w = default_params(kind, CFG)
        cap = eps * (2.0 + CFG.L * ft_window(w, CFG, 0.0))
        clean = reconstruct_grid(ss, w, t)
        for seed in range(100):
            noisy = perturb(ss, eps, seed=seed)
            diff = np.max(np.abs(reconstruct_grid(noisy, w, t) - clean))
            assert diff <= cap


# ---------------------------------------------------------------------------
# Grid reconstruction


def test_grid_matches_pointwise():
    ss = full_sample_set()
    w = default_params(WindowKind.BSPLINE, CFG)
    t = np.array([-1.0, -0.57, 3 / CFG.L, 0.0, 0.123456, 1.0])
    grid_vals = reconstruct_grid(ss, w, t)
    point_vals = np.array([reconstruct_point(ss, w, float(x)) for x in t])
    assert np.array_equal(grid_vals, point_vals)


def test_grid_out_of_range():
    ss = sample(F, CFG, -64, 64)
    w = default_params(WindowKind.GAUSS, CFG)
    with pytest.raises(IndexOutOfRange):
        reconstruct_grid(ss, w, np.linspace(-1, 1, 11))


@pytest.mark.parametrize("t,message", [
    (3e17, r"t = 3e\+17 lies beyond every sample index: \|t\| >= 2\*\*62/L"),
    (-3e17, r"t = -3e\+17 lies beyond every sample index"),
    (1e308, r"t = 1e\+308 lies beyond every sample index"),  # L*t overflows
    (2.0**53, r"t = 9007199254740992\.0 needs sample index 2305843009213693952;"),  # L*t = 2**61
])
def test_far_target_rejected_before_index_cast(t, message):
    # |L*t| >= 2**63 would wrap in the int64 cast of floor(L*t).
    with pytest.raises(IndexOutOfRange, match=message):
        reconstruct_grid(full_sample_set(), default_params(WindowKind.GAUSS, CFG), np.array([t]))


def test_far_target_has_no_kernel_row_and_no_lebesgue_value():
    # kernel_matrix leaves such a row without weights; every evaluator rejects it.
    w = default_params(WindowKind.GAUSS, CFG)
    _, weights = kernel_matrix(w, CFG, np.array([0.25, 3e17]))
    assert np.all(np.isfinite(weights[0])) and np.all(np.isnan(weights[1]))
    with pytest.raises(IndexOutOfRange, match=r"t = 3e\+17 lies beyond every sample index"):
        noise_amplification(w, CFG, np.array([0.25, 3e17]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_targets_rejected(bad):
    ss = full_sample_set()
    w = default_params(WindowKind.GAUSS, CFG)
    with pytest.raises(NonFiniteInput):
        reconstruct_point(ss, w, bad)
    with pytest.raises(NonFiniteInput):
        reconstruct_grid(ss, w, np.array([0.1, bad]))
    with pytest.raises(NonFiniteInput):
        kernel_matrix(w, CFG, np.array([bad]))


def test_kernel_matrix_shapes():
    m = CFG.m
    start, weights = kernel_matrix(default_params(WindowKind.SINH, CFG), CFG, np.array([0.3, 1.0, -0.5]))
    assert start.shape == (3,) and weights.shape == (3, 2 * m)
    k = int(np.floor(CFG.L * 0.3))
    assert start[0] == k - m + 1
    # An on-grid row t = j/L reads sample j alone, with a unit weight at
    # column m - 1 of its window j - m + 1 .. j + m.
    unit = np.zeros(2 * m)
    unit[m - 1] = 1.0
    for row, j in ((1, CFG.L), (2, -CFG.L // 2)):
        assert start[row] == j - m + 1
        assert np.array_equal(weights[row], unit)


@pytest.mark.parametrize("kind", list(WindowKind))
def test_kernel_matrix_column_m_minus_1_is_window_start(kind):
    # The row layout noise_response_max relies on: kernel_matrix's start is
    # the window start floor(L*t) - m + 1 of every row, on the grid or off it.
    rng = np.random.default_rng(3)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 500), np.arange(-CFG.L, CFG.L + 1) / CFG.L])
    rng.shuffle(t)
    m = CFG.m
    start, _ = kernel_matrix(default_params(kind, CFG), CFG, t)
    assert np.array_equal(start, np.floor(CFG.L * t).astype(np.int64) - m + 1)


def whole_array_grid(ss, w, t):
    """One kernel_matrix over all targets, reduced with one einsum."""
    start, weights = kernel_matrix(w, ss.cfg, t)
    return np.einsum("ij,ij->i", ss.values[window_indices(start - ss.index_lo, ss.cfg.m)], weights)


def window_indices(start, m):
    """The 2m sample positions of each row, from its window start."""
    return np.add.outer(start, np.arange(2 * m))


def test_kernel_blocks_tile_the_targets():
    for m, rows in ((2, 8192), (5, 3276), (10, 1638)):
        assert block_rows(m) == rows
        n = 2 * rows + 1
        t = np.arange(n)
        assert [(b.start, len(t[b])) for b in _block_rows(n, m)] == [(0, rows), (rows, rows), (2 * rows, 1)]
        assert np.array_equal(np.concatenate([t[b] for b in _block_rows(n, m)]), t)
        assert _block_rows(0, m) == []
    # A window wider than the budget still puts one target in each block.
    assert _block_rows(3, KERNEL_WEIGHTS) == [slice(0, 1), slice(1, 2), slice(2, 3)]


@pytest.mark.parametrize("kind", [WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH])
def test_blocked_grid_bit_equal_to_whole_array(kind):
    ss = full_sample_set()
    w = default_params(kind, CFG)
    t = np.linspace(-1.0, 1.0, 2 * BLOCK + 1)
    # On-grid targets on both sides of each block edge.
    for pos in (BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK):
        t[pos] = round(CFG.L * t[pos]) / CFG.L
    shuffled = np.random.default_rng(5).permutation(t)
    for targets in (t, shuffled):
        got = reconstruct_grid(ss, w, targets)
        assert np.array_equal(got, whole_array_grid(ss, w, targets))
    edge = t[BLOCK - 1:BLOCK + 1]
    j = np.rint(CFG.L * edge).astype(int)
    assert np.array_equal(reconstruct_grid(ss, w, t)[BLOCK - 1:BLOCK + 1],
                          ss.values[j - ss.index_lo])


def test_grid_out_of_range_in_last_block_only():
    ss = sample(F, CFG, -140, 140)
    w = default_params(WindowKind.GAUSS, CFG)
    t = np.linspace(-0.5, 0.5, 2 * BLOCK + 1)
    reconstruct_grid(ss, w, t[:-1])
    t[-1] = 0.7  # needs indices up to floor(0.7 * 256) + 5 = 184
    with pytest.raises(IndexOutOfRange, match=r"indices \[175, 184\]"):
        reconstruct_grid(ss, w, t)
    with pytest.raises(IndexOutOfRange, match=r"indices \[175, 184\]"):
        approximation_error(ss, F, w, t)


@pytest.mark.parametrize("t,message", [
    ([0.0, 0.9, -0.8, 0.95], r"t = 0\.9 requires samples for indices \[226, 235\]; sample set covers \[-140, 140\]"),
    ([0.0, 0.75, 0.9], r"t = 0\.75 needs sample index 192; sample set covers \[-140, 140\]"),
    # A target beyond every sample index is uncovered at its own place.
    ([0.0, 0.9, 3e17], r"t = 0\.9 requires samples for indices \[226, 235\]; sample set covers \[-140, 140\]"),
    ([0.0, -3e17, 0.9], r"t = -3e\+17 lies beyond every sample index: \|t\| >= 2\*\*62/L"),
])
def test_grid_out_of_range_names_first_uncovered_target(t, message):
    ss = sample(F, CFG, -140, 140)
    w = default_params(WindowKind.GAUSS, CFG)
    with pytest.raises(IndexOutOfRange, match=message):
        reconstruct_grid(ss, w, np.array(t))
    with pytest.raises(IndexOutOfRange, match=message):
        approximation_error(ss, F, w, np.array(t))


def test_noise_response_rejects_uncovered_windows():
    w = default_params(WindowKind.SINH, CFG)
    t = np.linspace(-0.5, 0.5, 2 * BLOCK + 1)
    lo, hi = -128 - CFG.m + 1, 128 + CFG.m  # exactly the windows of t
    noise = np.random.default_rng(2).uniform(-1.0, 1.0, (3, hi - lo + 1))
    assert noise_response_max(w, CFG, t, lo, noise) > 0.0
    # One sample short at either end: a negative or an overlong slice.
    with pytest.raises(IndexOutOfRange):
        noise_response_max(w, CFG, t, lo + 1, noise[:, 1:])
    with pytest.raises(IndexOutOfRange):
        noise_response_max(w, CFG, t, lo, noise[:, :-1])
    late = t.copy()
    late[-1] = 0.7  # only the last block leaves the range
    with pytest.raises(IndexOutOfRange):
        noise_response_max(w, CFG, late, lo, noise)


@pytest.mark.parametrize("t,message", [
    # An on-grid target reads its whole window here, unlike in reconstruct_grid.
    ([0.0, 0.75, -0.8, 0.7], r"t = 0\.75 requires samples for indices \[188, 197\]; noise covers \[-140, 140\]"),
    ([0.0, -0.6, 0.7], r"t = -0\.6 requires samples for indices \[-158, -149\]; noise covers \[-140, 140\]"),
    ([0.0, -0.6, 1e308], r"t = -0\.6 requires samples for indices \[-158, -149\]; noise covers \[-140, 140\]"),
    ([0.0, 1e308, -0.6], r"t = 1e\+308 lies beyond every sample index"),
])
def test_noise_response_out_of_range_names_first_uncovered_target(t, message):
    w = default_params(WindowKind.GAUSS, CFG)
    noise = np.random.default_rng(4).uniform(-1.0, 1.0, (2, 281))
    with pytest.raises(IndexOutOfRange, match=message):
        noise_response_max(w, CFG, np.array(t), -140, noise)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noise_response_rejects_non_finite_noise(bad):
    # One non-finite entry, or all of them, raises instead of dropping out
    # of the maximum.
    w = default_params(WindowKind.GAUSS, CFG)
    t = np.linspace(-0.5, 0.5, 101)
    noise = np.random.default_rng(6).uniform(-1.0, 1.0, (3, 281))
    noise[1, 140] = bad
    with pytest.raises(NonFiniteInput, match=r"noise must be finite"):
        noise_response_max(w, CFG, t, -140, noise)
    with pytest.raises(NonFiniteInput, match=r"noise must be finite"):
        noise_response_max(w, CFG, t, -140, np.full((3, 281), bad))


def test_noise_response_needs_a_target():
    w = default_params(WindowKind.GAUSS, CFG)
    with pytest.raises(ValueError, match="need at least one target"):
        noise_response_max(w, CFG, np.array([]), -140, np.zeros((2, 281)))


def test_noise_response_needs_a_trial():
    w = default_params(WindowKind.GAUSS, CFG)
    with pytest.raises(ValueError, match="need at least one noise trial"):
        noise_response_max(w, CFG, np.linspace(-0.5, 0.5, 11), -140, np.zeros((0, 281)))


def test_noise_response_matches_gathered_sums():
    # Unsorted targets with on-grid points at a block edge, against an
    # explicit gather of every trial.
    w = default_params(WindowKind.BSPLINE, CFG)
    rng = np.random.default_rng(9)
    t = rng.uniform(-1.0, 1.0, BLOCK + 7)
    t[BLOCK - 1:BLOCK + 1] = [17 / CFG.L, -3 / CFG.L]
    lo, hi = -CFG.L - CFG.m, CFG.L + CFG.m
    noise = rng.uniform(-1e-3, 1e-3, (4, hi - lo + 1))
    start, weights = kernel_matrix(w, CFG, t)
    want = max(float(np.max(np.abs(np.einsum("ij,ij->i", row[window_indices(start - lo, CFG.m)], weights))))
               for row in noise)
    got = noise_response_max(w, CFG, t, lo, noise)
    assert abs(got - want) <= 4 * np.spacing(want)
    # On-grid targets alone echo their own noise sample, exactly.
    j = np.array([17, -3, 0, CFG.L])
    assert noise_response_max(w, CFG, j / CFG.L, lo, noise) == np.max(np.abs(noise[:, j - lo]))


def serial_reductions(ss, w, t, noise):
    """reconstruct_grid, noise_response_max and noise_amplification as one
    loop over the blocks, on the calling thread."""
    cfg, lo, m = ss.cfg, ss.index_lo, ss.cfg.m
    grid = np.empty(t.shape)
    noise_max = lebesgue = 0.0
    for rows in _block_rows(t.size, m):
        start, weights = kernel_matrix(w, cfg, t[rows])
        grid[rows] = np.einsum("ij,ij->i", ss.values[window_indices(start - lo, m)], weights)
        edges = [0, *(np.flatnonzero(np.diff(start)) + 1), start.size]
        for a, b in zip(edges[:-1], edges[1:]):
            s = start[a] - lo
            response = weights[a:b] @ noise[:, s:s + 2 * m].T
            noise_max = max(noise_max, float(np.max(np.abs(response))))
        lebesgue = max(lebesgue, float(np.max(np.sum(np.abs(weights), axis=1))))
    return grid, noise_max, lebesgue


def spy_block_threads(monkeypatch):
    """The threads that build kernel matrices from now on."""
    seen = set()
    real = reconstruct_mod.kernel_matrix

    def spy(w, cfg, t):
        seen.add(threading.get_ident())
        return real(w, cfg, t)

    monkeypatch.setattr(reconstruct_mod, "kernel_matrix", spy)
    return seen


@pytest.mark.parametrize("kind", list(WindowKind))
def test_threaded_blocks_bit_equal_to_serial_loop(kind, monkeypatch):
    # Three threads over four blocks, whatever the host's CPU count, at
    # m = 5 and at the narrowest window, 2m = 4.
    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: 3)
    threads = spy_block_threads(monkeypatch)
    for cfg in (CFG, SamplingConfig(128, 1.0, 1 / 3, 2)):
        ss = full_sample_set(cfg)
        w = default_params(kind, cfg)
        block = block_rows(cfg.m)
        rng = np.random.default_rng(17)
        t = rng.uniform(-1.0, 1.0, 3 * block + 5)
        # On-grid targets on both sides of two block edges.
        t[block - 1:block + 1] = [17 / cfg.L, -3 / cfg.L]
        t[2 * block - 1:2 * block + 1] = [0.0, 1.0]
        noise = rng.uniform(-1e-3, 1e-3, (5, len(ss)))
        grid, noise_max, lebesgue = serial_reductions(ss, w, t, noise)
        f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
        threads.clear()
        assert reconstruct_grid(ss, w, t).tobytes() == grid.tobytes()
        assert approximation_error(ss, f, w, t) == np.max(np.abs(f(t) - grid))
        assert noise_response_max(w, cfg, t, ss.index_lo, noise) == noise_max
        assert noise_amplification(w, cfg, t) == lebesgue
        assert len(threads) > 1


def test_approximation_error_propagates_nan(monkeypatch):
    # A NaN of f in one block is the result, as in np.max of the whole error.
    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: 3)
    ss = full_sample_set()
    w = default_params(WindowKind.SINH, CFG)
    t = np.linspace(-1.0, 1.0, 3 * BLOCK)

    def f_with_nan(x):
        y = F(x)
        y[x == t[BLOCK + 5]] = np.nan
        return y

    assert math.isnan(approximation_error(ss, f_with_nan, w, t))


def test_approximation_error_needs_a_target():
    ss = full_sample_set()
    with pytest.raises(ValueError, match="need at least one target"):
        approximation_error(ss, F, default_params(WindowKind.GAUSS, CFG), np.array([]))


@pytest.mark.parametrize("m,blocks", [(5, 1), (2, 1), (2, 3)])
def test_threads_only_for_several_blocks(m, blocks, monkeypatch):
    # One block starts no thread; several blocks use the pool, even at the
    # narrowest window, 2m = 4.
    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: 3)
    cfg = SamplingConfig(128, 1.0, 1 / 3, m)
    ss = full_sample_set(cfg)
    threads = spy_block_threads(monkeypatch)
    before = threading.active_count()
    reconstruct_grid(ss, default_params(WindowKind.SINH, cfg), np.linspace(-1.0, 1.0, blocks * block_rows(m)))
    if blocks == 1:
        assert threads == {threading.get_ident()}
        assert threading.active_count() == before
    else:
        assert len(threads) > 1


def test_concurrent_callers_share_the_pool(monkeypatch):
    # Eight calls from four threads of their own, each three threads wide,
    # with a short switch interval: each gets the one-thread result.
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: 3)
    ss = full_sample_set()
    w = default_params(WindowKind.SINH, CFG)
    t = np.linspace(-1.0, 1.0, 4 * BLOCK + 3)
    want = whole_array_grid(ss, w, t)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            calls = [callers.submit(reconstruct_grid, ss, w, t) for _ in range(8)]
            got = [call.result(timeout=60) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, want) for g in got)


def test_first_failing_block_raises_when_a_later_one_fails_first(monkeypatch):
    # Blocks 1 and 3 of five leave the data; block 1 is held back until
    # block 3 has failed, and its error must still be the one raised.
    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: 3)
    ss = sample(F, CFG, -140, 140)
    w = default_params(WindowKind.GAUSS, CFG)
    t = np.linspace(-0.5, 0.5, 5 * BLOCK)
    t[BLOCK + 7] = 0.9
    t[3 * BLOCK + 1] = -0.8
    real = reconstruct_mod.kernel_matrix

    def slow_block_1(w, cfg, targets):
        if 0.9 in targets:
            time.sleep(0.2)
        return real(w, cfg, targets)

    monkeypatch.setattr(reconstruct_mod, "kernel_matrix", slow_block_1)
    with pytest.raises(IndexOutOfRange, match=r"t = 0\.9 requires"):
        reconstruct_grid(ss, w, t)
    noise = np.zeros((2, len(ss)))
    with pytest.raises(IndexOutOfRange, match=r"t = 0\.9 requires"):
        noise_response_max(w, CFG, t, ss.index_lo, noise)


def test_grid_memory_does_not_grow_with_targets(monkeypatch):
    # On one block thread each reduction holds only a few blocks' arrays at
    # once, whatever the number of targets.  Beyond its output, a call's
    # tracemalloc peak stays below 8 blocks' weights (2 MiB; the B-spline
    # window, the deepest path, peaks near 7.9) at S = 1e5 and 4e5, and
    # grows by at most 256 KiB between them, where one whole-array kernel
    # matrix would grow by tens of MB.
    import tracemalloc

    monkeypatch.setattr(reconstruct_mod, "usable_cpu_count", lambda: 1)
    for m in (2, 8):
        cfg = SamplingConfig(128, 1.0, 1 / 3, m)
        w = default_params(WindowKind.BSPLINE, cfg)
        f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
        ss = full_sample_set(cfg, f)
        noise = np.random.default_rng(5).uniform(-1e-3, 1e-3, (10, len(ss)))
        reductions = {
            "reconstruct_grid": lambda t: reconstruct_grid(ss, w, t),
            "approximation_error": lambda t: approximation_error(ss, f, w, t),
            "noise_response_max": lambda t: noise_response_max(w, cfg, t, ss.index_lo, noise),
            "noise_amplification": lambda t: noise_amplification(w, cfg, t),
        }
        for name, call in reductions.items():
            beyond_output = {}
            for S in (100_000, 400_000):
                t = np.linspace(-1.0, 1.0, S)
                tracemalloc.start()
                try:
                    out = call(t)
                    beyond_output[S] = tracemalloc.get_traced_memory()[1] - np.asarray(out).nbytes
                finally:
                    tracemalloc.stop()
                assert beyond_output[S] < 8 * KERNEL_WEIGHTS * 8, (name, m, S)
            assert beyond_output[400_000] - beyond_output[100_000] <= 1 << 18, (name, m)


# ---------------------------------------------------------------------------
# Classical truncated baseline


def test_classical_slow_error_decay_trend():
    # The rect error decays only algebraically: quadrupling m shrinks it by
    # a modest constant factor (never the orders-of-magnitude collapse of
    # the exponential windows).
    import warnings

    errs = []
    for m in (10, 40, 160):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = SamplingConfig(256, 1.0, 1 / 3, m)
        f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
        ss = sample(f, cfg, -cfg.L - m, cfg.L + m)
        t = np.linspace(-1.0, 1.0, 4001)
        errs.append(np.max(np.abs(np.asarray(f(t)) - reconstruct_grid(ss, WindowSpec(WindowKind.RECT), t))))
    assert errs[0] > errs[1] > errs[2]
    for hi, lo in zip(errs, errs[1:]):
        assert 0.05 <= lo / hi <= 0.8
    assert errs[2] > 1e-4  # nowhere near an exponential-decay floor


# ---------------------------------------------------------------------------
# Sample CSV round trip


def test_csv_round_trip(tmp_path):
    ss = sample(F, CFG, -5, 9)
    path = tmp_path / "samples.csv"
    save_samples(ss, path)
    back = load_samples(path, CFG)
    assert back.index_lo == -5 and back.index_hi == 9
    assert np.array_equal(back.values, ss.values)
    header = path.read_text().splitlines()[0]
    assert header == "index,value"


def test_csv_rejects_gaps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n0,1.0\n2,2.0\n")
    with pytest.raises(ValueError) as info:
        load_samples(path, CFG)
    assert str(info.value) == f"{path}, line 3: sample indices must be contiguous and ascending, expected 1, got 2"


@pytest.mark.parametrize("row,why", [
    ("1,2.0,3", "expected 2 fields 'index,value', got 3"),
    ("1", "expected 2 fields 'index,value', got 1"),
    ("1;2.0", "expected 2 fields 'index,value', got 1"),
    ("1,abc", "could not convert string to float: 'abc'"),
    ("1.5,2.0", "invalid literal for int"),
    ("0,1.0 # note", "could not convert string to float: '1.0 # note'"),
    ("1 2,3.5", "invalid literal for int() with base 10: '1 2'"),
])
def test_csv_bad_row_names_file_and_line(tmp_path, row, why):
    # Line 3 is blank and skipped; the bad row is line 4.
    path = tmp_path / "rows.csv"
    path.write_text(f"index,value\n0,1.0\n\n{row}\n2,2.0\n")
    with pytest.raises(ValueError) as info:
        load_samples(path, CFG)
    assert str(info.value).startswith(f"{path}, line 4: {why}")


def test_non_finite_samples_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("index,value\n0,1.0\n\n1,nan\n2,2.0\n")
    with pytest.raises(NonFiniteInput) as info:
        load_samples(path, CFG)
    assert str(info.value) == f"{path}, line 4: sample values must be finite, got nan"
    with pytest.raises(NonFiniteInput):
        SampleSet(CFG, 0, 1, np.array([1.0, math.inf]))


@pytest.mark.parametrize("data,why", [
    (b"idx,value\n0,1.0\n", ", line 1: expected header 'index,value', got 'idx,value'"),
    (b"index,value\n\n  \n", ": sample file contains no rows"),
    (b"index,value\n0,1.0\n1,2.0\n\n0,3.0\n", ", line 5: sample indices must be contiguous and ascending, expected 2, got 0"),
    (b"index,value\n0,1.0\n1,2.\xc3\xa9\n",
     ", line 3: 'ascii' codec can't decode byte 0xc3 in position 22: ordinal not in range(128)"),
    (b"index,value\r0,1.0\r\n1,2.\xc3\xa9\r",
     ", line 3: 'ascii' codec can't decode byte 0xc3 in position 23: ordinal not in range(128)"),
], ids=["header", "no-rows", "out-of-order", "non-ascii", "non-ascii-cr"])
def test_sample_file_error_names_file_and_line(tmp_path, data, why):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_samples(path, CFG)
    assert str(info.value) == f"{path}{why}"


@pytest.mark.parametrize("data,lo,fields", [
    (b"index,value\r\n0,1.5\r\n1,-2.25\r\n", 0, ["1.5", "-2.25"]),
    (b"index,value\r0,1.5\r1,-2.25\r", 0, ["1.5", "-2.25"]),
    (b"index,value\n\n4,1.5\n  \n\t\n5,-2.25\n \n", 4, ["1.5", "-2.25"]),
    (b" index,value \n -1 ,0.125\n0,\t7 \n\x0b1 ,\x0c8\x1c\n", -1, ["0.125", "7", "8"]),
    (b"index,value\n0,1.5\n1,-2.25", 0, ["1.5", "-2.25"]),
    (b"index,value\n+3,1_0\n4, 2.5e-3 \n5,0.1000000000000000055511151231257827\n", 3,
     ["1_0", "2.5e-3", "0.1000000000000000055511151231257827"]),
    (b"index,value\n9,+3\n1_0,-0\n", 9, ["+3", "-0"]),
], ids=["crlf", "cr", "blank-lines", "spaces", "no-final-newline", "numerals", "signs"])
def test_sample_file_syntax(tmp_path, data, lo, fields):
    # Each value is bit-equal to float() of its field, -0 included.
    path = tmp_path / "ok.csv"
    path.write_bytes(data)
    ss = load_samples(path, CFG)
    assert (ss.index_lo, ss.index_hi) == (lo, lo + len(fields) - 1)
    assert ss.values.tobytes() == np.array([float(f) for f in fields]).tobytes()


@pytest.mark.parametrize("chars", [1, 7, 30])
def test_sample_file_parsed_in_pieces(tmp_path, monkeypatch, chars):
    # Pieces of a few characters end after every line or every few lines:
    # the samples, and which error is reported first, are those of one piece.
    monkeypatch.setattr(reconstruct_mod, "_CHUNK_CHARS", chars)
    path = tmp_path / "pieces.csv"
    path.write_bytes(b"index,value\n\n-2, 0.5\n\n \n-1,1_0\r\n0,2.5e-3\n1,-0\n")
    ss = load_samples(path, CFG)
    assert (ss.index_lo, ss.index_hi) == (-2, 1)
    assert ss.values.tobytes() == np.array([0.5, 10.0, 2.5e-3, -0.0]).tobytes()
    for text, why in [
        ("index,value\n0,1.0\n2,nan\n\n3,abc\n", "line 5: could not convert string to float: 'abc'"),
        ("index,value\n0,1.0\n\n2,2.0\n3,nan\n", "line 4: sample indices must be contiguous and ascending, expected 1, got 2"),
        ("index,value\n0,1.0\n\n1,2.0\n2,inf\n", "line 5: sample values must be finite, got inf"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_samples(path, CFG)
        assert str(info.value) == f"{path}, {why}"


def test_sample_file_memory_bounded_by_its_text(tmp_path):
    # The reader holds the text, the values and the fields of one piece: a
    # peak below twice the file's size plus 2 MB.  Line-by-line reading held
    # about four times the file's size, whole-text parsing about eleven.
    import tracemalloc

    rows = 50_000
    path = tmp_path / "big.csv"
    rng = np.random.default_rng(3)
    path.write_text("index,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(rng.standard_normal(rows).tolist())))
    tracemalloc.start()
    try:
        ss = load_samples(path, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ss) == rows
    assert peak < 2 * path.stat().st_size + 2**21
