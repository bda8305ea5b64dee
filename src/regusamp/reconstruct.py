"""Localized reconstruction of bandlimited functions from equispaced samples.

The reconstruction operator sums 2m windowed-sinc terms around the target
point: for t in the grid cell (k/L, (k+1)/L) with k = floor(L*t),

    (R f)(t) = sum_{l=k-m+1}^{k+m} f(l/L) * psi(t - l/L),

and R interpolates the samples exactly on (1/L)*Z.  A perturbed signal is
plain sample data: perturb returns the samples f(l/L) + eps_l, which every
evaluator reads like any other sample set.

Every evaluation goes through one block evaluator, kernel_blocks, which
builds the 2m-wide kernel matrix of KERNEL_BLOCK targets at a time.  Every
row has one layout: an on-grid target j/L reads sample j alone, with a unit
weight at column m - 1, so column m - 1 always sits at index floor(L*t).
reconstruct_grid reduces each block against the samples, and reconstruct_at
is its one-point call, so a point gets the same value alone or in a grid.
noise_response_max reduces each block against a whole matrix of noise
trials at once, with one small matrix product per run of targets that share
a window.  Memory therefore stays fixed as the number of targets grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernel import KernelEval, check_finite, psi, sinc
from .windows import SamplingConfig, WindowSpec


class IndexOutOfRange(IndexError):
    """The 2m-sample window around the target point is not covered."""


class TestFunctionKind(str, Enum):
    __test__ = False  # not a pytest collection target

    SINC_BAND = "sincband"
    SINC_SQ_BAND = "sincsqband"


@dataclass(frozen=True)
class TestFunction:
    """Bandlimited test signal with bandwidth parameter delta.

    sincband:   f(t) = sqrt(2*delta) * sinc(2*delta*pi*t), unit L2 norm,
                flat spectrum on [-delta, delta].
    sincsqband: f(t) = delta * sinc(delta*pi*t)^2, triangular spectrum on
                [-delta, delta], L2 norm sqrt(2*delta/3).
    Both norms are closed forms; they scale the error bounds.
    """

    __test__ = False  # not a pytest collection target

    kind: TestFunctionKind
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "kind", TestFunctionKind(self.kind))
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind is TestFunctionKind.SINC_BAND:
            out = math.sqrt(2.0 * self.delta) * sinc(2.0 * self.delta * math.pi * t)
        else:
            out = self.delta * np.asarray(sinc(self.delta * math.pi * t)) ** 2
        out = np.asarray(out)
        return out if out.ndim else float(out)

    @property
    def l2_norm(self) -> float:
        if self.kind is TestFunctionKind.SINC_BAND:
            return 1.0
        return math.sqrt(2.0 * self.delta / 3.0)


@dataclass
class SampleSet:
    """Equispaced samples f(l/L) for l = index_lo..index_hi.

    The values array is frozen after construction.
    """

    cfg: SamplingConfig
    index_lo: int
    index_hi: int
    values: np.ndarray

    def __post_init__(self):
        n = self.index_hi - self.index_lo + 1
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (n,):
            raise ValueError(
                f"values must have length {n} for index range "
                f"[{self.index_lo}, {self.index_hi}], got shape {self.values.shape}"
            )
        check_finite("sample values", self.values)
        self.values.flags.writeable = False

    def __len__(self):
        return self.index_hi - self.index_lo + 1

    def take(self, indices) -> np.ndarray:
        """Sample values at the given absolute indices."""
        idx = np.asarray(indices)
        if idx.size and (idx.min() < self.index_lo or idx.max() > self.index_hi):
            raise IndexOutOfRange(
                f"indices [{idx.min()}, {idx.max()}] outside sample range "
                f"[{self.index_lo}, {self.index_hi}]"
            )
        return self.values[idx - self.index_lo]


def sample(f: TestFunction, cfg: SamplingConfig, lo: int, hi: int) -> SampleSet:
    """Clean samples f(l/L) for l = lo..hi."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got {lo} > {hi}")
    ell = np.arange(lo, hi + 1)
    return SampleSet(cfg, int(lo), int(hi), np.asarray(f(ell / cfg.L), dtype=float))


def _draw_noise(n: int, eps: float, seed) -> np.ndarray:
    """n i.i.d. uniform draws on (-eps, eps) from a PCG64 stream.

    ``seed`` may be an int or a numpy SeedSequence; the same seed yields the
    same stream on every platform.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return eps * (2.0 * rng.random(n) - 1.0)


def perturb(ss: SampleSet, eps: float, seed: int) -> SampleSet:
    """The perturbed samples f(l/L) + eps_l, with seeded uniform eps_l in
    (-eps, eps) drawn by _draw_noise(len(ss), eps, seed)."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    return SampleSet(ss.cfg, ss.index_lo, ss.index_hi, ss.values + _draw_noise(len(ss), eps, seed))


def reconstruct_at(ss: SampleSet, w: WindowSpec, t: float) -> float:
    """Localized reconstruction at a single point from exactly 2m samples.

    A one-point call of reconstruct_grid.  On-grid points t = j/L return the
    sample value exactly, through kernel_matrix's unit weight.
    """
    return float(reconstruct_grid(ss, w, np.array([t], dtype=float))[0])


# Targets per block of the batched evaluators.  One block's index and weight
# arrays hold 2 * 2048 * 2m values (655 KB at m = 10), and the element
# functions add two or three float temporaries of the same shape, so a
# block's working set stays near a 2 MB L2 cache and its memory does not
# grow with the number of targets.  Smaller blocks pay more often a fixed
# cost of some 50 us per block in numpy calls; larger ones leave the cache.
# Of 1024, 1536, 2048, 3072 and 4096, 2048 ran the fig10 cells fastest on a
# Xeon with 2 MB of L2 per core.
KERNEL_BLOCK = 2048


def kernel_matrix(w: WindowSpec, cfg: SamplingConfig, t):
    """Per-point sample indices and kernel weights for a batch of targets.

    Returns (idx, weights): for row i the reconstruction is
    sum(values[idx[i]] * weights[i]).  Row i covers the window k - m + 1 ..
    k + m with k = floor(L*t[i]), so idx[i, m - 1] - (m - 1) is its window
    start.  A row at an exact grid point t = j/L reads sample j alone: idx
    is j in every column and the weight is a unit at column m - 1, which
    keeps that window start.  The batched evaluators call it on one block of
    kernel_blocks at a time.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    check_finite("targets", t)
    L, m = cfg.L, cfg.m
    Lt = L * t
    k = np.floor(Lt)
    ongrid = Lt == k
    k = k.astype(np.int64)
    offs = np.arange(-m + 1, m + 1, dtype=np.int64)
    idx = k[:, None] + offs[None, :]
    x = idx / L
    np.subtract(t[:, None], x, out=x)
    weights = psi(KernelEval(w, cfg), x)
    if ongrid.any():
        idx[ongrid] = k[ongrid, None]
        weights[ongrid] = 0.0
        weights[ongrid, m - 1] = 1.0
    return idx, weights


def kernel_blocks(w: WindowSpec, cfg: SamplingConfig, t):
    """kernel_matrix over consecutive blocks of KERNEL_BLOCK targets.

    Yields (rows, (idx, weights)), where ``rows`` is the slice of
    ``t`` the block covers.  Every batched evaluation (reconstruct_grid,
    noise_response_max, bounds.noise_amplification) reduces the blocks as
    they come, so no S x 2m array is ever held whole.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    for start in range(0, t.size, KERNEL_BLOCK):
        rows = slice(start, start + KERNEL_BLOCK)
        yield rows, kernel_matrix(w, cfg, t[rows])


def reconstruct_grid(ss: SampleSet, w: WindowSpec, t) -> np.ndarray:
    """The localized reconstruction at every target of a 1-D array.

    This is the one evaluation path; reconstruct_at is its one-point call.
    Each block of kernel_blocks is reduced into a preallocated output, so
    the memory beyond that output does not grow with the number of targets.
    Off-grid sums run in index order.  A block whose samples the set does
    not cover raises IndexOutOfRange naming its first uncovered target.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    for rows, (idx, weights) in kernel_blocks(w, ss.cfg, t):
        try:
            values = ss.take(idx)
        except IndexOutOfRange:
            raise _uncovered(ss, t[rows], idx) from None
        np.einsum("ij,ij->i", values, weights, out=out[rows])
    return out


def _uncovered(ss: SampleSet, t, idx) -> IndexOutOfRange:
    """The error for the first target of a block whose window ``ss`` lacks;
    an on-grid row is the one whose indices are all equal."""
    i = int(np.argmax((idx[:, 0] < ss.index_lo) | (idx[:, -1] > ss.index_hi)))
    covers = f"sample set covers [{ss.index_lo}, {ss.index_hi}]"
    if idx[i, 0] == idx[i, -1]:
        return IndexOutOfRange(f"t = {float(t[i])!r} needs sample index {int(idx[i, 0])}; {covers}")
    return IndexOutOfRange(
        f"t = {float(t[i])!r} requires samples for indices [{int(idx[i, 0])}, {int(idx[i, -1])}]; {covers}"
    )


def noise_response_max(w: WindowSpec, cfg: SamplingConfig, t, index_lo: int, noise) -> float:
    """max over targets t and rows r of |R(noise[r])(t)|.

    ``noise`` is a (trials, n) matrix whose row r perturbs the samples
    l = index_lo .. index_lo + n - 1.  Since R is linear, this is the largest
    deviation R(f~) - R(f) over all trials at once.  Within a block of
    kernel_blocks consecutive rows that share a window start k - m + 1 read
    one slice of every trial's noise, so each run of such rows is a single
    matrix product weights[run] @ noise[:, s:s+2m].T (sorted targets make
    the runs long).  kernel_matrix puts an on-grid row's unit weight at
    column m - 1 of that window, so every row reads it the same way.  Raises
    IndexOutOfRange when a target's window is not covered.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2:
        raise ValueError("noise must be a (trials, n) matrix")
    m2 = 2 * cfg.m
    n = noise.shape[1]
    worst = 0.0
    for _, (idx, weights) in kernel_blocks(w, cfg, t):
        start = idx[:, cfg.m - 1] - (cfg.m - 1) - index_lo
        lo, hi = int(start.min()), int(start.max()) + m2 - 1
        if lo < 0 or hi >= n:
            raise IndexOutOfRange(
                f"targets require samples for indices [{lo + index_lo}, {hi + index_lo}]; "
                f"noise covers [{index_lo}, {index_lo + n - 1}]"
            )
        edges = [0, *(np.flatnonzero(np.diff(start)) + 1), start.size]
        for a, b in zip(edges[:-1], edges[1:]):
            s = start[a]
            response = weights[a:b] @ noise[:, s:s + m2].T
            worst = max(worst, float(np.max(np.abs(response))))
    return worst


def save_samples(ss: SampleSet, path) -> None:
    """Write the clean samples as CSV with header ``index,value``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,value\n")
        for ell, val in zip(range(ss.index_lo, ss.index_hi + 1), ss.values):
            fh.write(f"{ell},{val:.17g}\n")


def load_samples(path, cfg: SamplingConfig) -> SampleSet:
    """Read an ``index,value`` CSV into a SampleSet.

    Indices must form a contiguous ascending range.  A row without exactly
    two fields, or with a field that is not a number, raises ValueError
    naming the file and its line number.
    """
    indices = []
    values = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise ValueError(f"expected header 'index,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                s_idx, s_val = line.split(",")
                indices.append(int(s_idx))
                values.append(float(s_val))
            except ValueError as exc:
                n = line.count(",") + 1
                why = exc if n == 2 else f"expected 2 fields 'index,value', got {n}"
                raise ValueError(f"{path}, line {lineno}: {why}") from None
    if not indices:
        raise ValueError("sample file contains no rows")
    lo, hi = indices[0], indices[-1]
    if indices != list(range(lo, hi + 1)):
        raise ValueError("sample indices must be contiguous and ascending")
    return SampleSet(cfg, lo, hi, np.array(values))
