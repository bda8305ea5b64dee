"""Localized reconstruction of bandlimited functions from equispaced samples.

The reconstruction operator sums 2m windowed-sinc terms around the target
point: for t in the grid cell (k/L, (k+1)/L) with k = floor(L*t),

    (R f)(t) = sum_{l=k-m+1}^{k+m} f(l/L) * psi(t - l/L),

and R interpolates the samples exactly on (1/L)*Z.  Sample sets carry an
optional bounded perturbation so clean and noisy evaluations share one set
of function values.

Every evaluation goes through one block evaluator, kernel_blocks, which
builds the 2m-wide kernel matrix of KERNEL_BLOCK targets at a time.
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

from .kernel import KernelEval, psi, sinc
from .windows import SamplingConfig, WindowSpec


class IndexOutOfRange(IndexError):
    """The 2m-sample window around the target point is not covered."""


class NonFiniteInput(ValueError):
    """A target point or a sample value is NaN or infinite."""


def check_finite(what: str, x) -> None:
    """Raise NonFiniteInput unless every entry of ``x`` is finite."""
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteInput(f"{what} must be finite, got {float(x[~finite].ravel()[0])!r}")


class TestFunctionKind(str, Enum):
    __test__ = False  # not a pytest collection target

    SINC_BAND = "sincband"
    SINC_SQ_BAND = "sincsqband"
    CUSTOM = "custom"


@dataclass(frozen=True)
class TestFunction:
    """Bandlimited test signal with bandwidth parameter delta.

    sincband:   f(t) = sqrt(2*delta) * sinc(2*delta*pi*t), unit L2 norm,
                flat spectrum on [-delta, delta].
    sincsqband: f(t) = delta * sinc(delta*pi*t)^2, triangular spectrum on
                [-delta, delta], L2 norm sqrt(2*delta/3).
    custom:     any callable plus its L2 norm (needed for bound scaling).
    """

    __test__ = False  # not a pytest collection target

    kind: TestFunctionKind
    delta: float
    func: object = None
    norm: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", TestFunctionKind(self.kind))
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta!r}")
        if self.kind is TestFunctionKind.CUSTOM and self.func is None:
            raise ValueError("custom test function needs a callable")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind is TestFunctionKind.SINC_BAND:
            out = math.sqrt(2.0 * self.delta) * sinc(2.0 * self.delta * math.pi * t)
        elif self.kind is TestFunctionKind.SINC_SQ_BAND:
            out = self.delta * np.asarray(sinc(self.delta * math.pi * t)) ** 2
        else:
            out = np.asarray(self.func(t), dtype=float)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    @property
    def l2_norm(self) -> float:
        if self.kind is TestFunctionKind.SINC_BAND:
            return 1.0
        if self.kind is TestFunctionKind.SINC_SQ_BAND:
            return math.sqrt(2.0 * self.delta / 3.0)
        if self.norm is None:
            raise ValueError("custom test function has no recorded L2 norm")
        return self.norm


@dataclass
class SampleSet:
    """Equispaced samples f(l/L) for l = index_lo..index_hi.

    ``noise`` stores bounded perturbations separately from the clean values,
    so both variants are evaluable from one set.  Arrays are frozen after
    construction.
    """

    cfg: SamplingConfig
    index_lo: int
    index_hi: int
    values: np.ndarray
    noise: np.ndarray | None = None
    noise_eps: float = 0.0

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
        if self.noise is not None:
            self.noise = np.asarray(self.noise, dtype=float)
            if self.noise.shape != (n,):
                raise ValueError("noise must align with the sample range")
            if self.noise_eps <= 0:
                raise ValueError("noise present but noise_eps not positive")
            if np.max(np.abs(self.noise)) > self.noise_eps:
                raise ValueError("stored perturbations exceed the declared bound")
            self.noise.flags.writeable = False
        elif self.noise_eps != 0.0:
            raise ValueError("noise_eps set without stored perturbations")

    def __len__(self):
        return self.index_hi - self.index_lo + 1

    def take(self, indices, noisy: bool = False) -> np.ndarray:
        """Sample values at the given absolute indices."""
        idx = np.asarray(indices)
        if idx.size and (idx.min() < self.index_lo or idx.max() > self.index_hi):
            raise IndexOutOfRange(
                f"indices [{idx.min()}, {idx.max()}] outside sample range "
                f"[{self.index_lo}, {self.index_hi}]"
            )
        out = self.values[idx - self.index_lo]
        if noisy:
            if self.noise is None:
                raise ValueError("sample set carries no perturbations")
            out = out + self.noise[idx - self.index_lo]
        return out


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
    """New SampleSet sharing the clean values, with seeded uniform noise."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    noise = _draw_noise(len(ss), eps, seed)
    return SampleSet(ss.cfg, ss.index_lo, ss.index_hi, ss.values, noise, eps)


def reconstruct_at(ss: SampleSet, w: WindowSpec, t: float, use_noisy: bool = False) -> float:
    """Localized reconstruction at a single point from exactly 2m samples.

    A one-point call of reconstruct_grid.  On-grid points t = j/L return the
    sample value exactly, through kernel_matrix's unit weight.
    """
    return float(reconstruct_grid(ss, w, np.array([t], dtype=float), use_noisy)[0])


# Targets per block of the batched evaluators.  One block's index and weight
# arrays hold 2 * 4096 * 2m values (1.3 MB at m = 10), so their working memory
# does not grow with the number of targets.
KERNEL_BLOCK = 4096


def kernel_matrix(cfg: SamplingConfig, w: WindowSpec, t):
    """Per-point sample indices and kernel weights for a batch of targets.

    Returns (idx, weights, ongrid, j): for row i the reconstruction is
    sum(values[idx[i]] * weights[i]); rows at exact grid points are encoded
    as a single unit weight on index j[i].  The batched evaluators call it
    on one block of kernel_blocks at a time.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    check_finite("targets", t)
    L, m = cfg.L, cfg.m
    Lt = L * t
    j = np.rint(Lt)
    ongrid = Lt == j
    j = j.astype(np.int64)
    k = np.floor(Lt).astype(np.int64)
    offs = np.arange(-m + 1, m + 1, dtype=np.int64)
    idx = k[:, None] + offs[None, :]
    x = t[:, None] - idx / L
    weights = np.asarray(psi(KernelEval(w, cfg), x))
    if np.any(ongrid):
        idx[ongrid] = j[ongrid, None]
        unit = np.zeros(2 * m)
        unit[0] = 1.0
        weights[ongrid] = unit
    return idx, weights, ongrid, j


def kernel_blocks(cfg: SamplingConfig, w: WindowSpec, t):
    """kernel_matrix over consecutive blocks of KERNEL_BLOCK targets.

    Yields (rows, (idx, weights, ongrid, j)), where ``rows`` is the slice of
    ``t`` the block covers.  Every batched evaluation (reconstruct_grid,
    noise_response_max, bounds.noise_amplification) reduces the blocks as
    they come, so no S x 2m array is ever held whole.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    for start in range(0, t.size, KERNEL_BLOCK):
        rows = slice(start, start + KERNEL_BLOCK)
        yield rows, kernel_matrix(cfg, w, t[rows])


def reconstruct_grid(ss: SampleSet, w: WindowSpec, t, use_noisy: bool = False) -> np.ndarray:
    """The localized reconstruction at every target of a 1-D array.

    This is the one evaluation path; reconstruct_at is its one-point call.
    Each block of kernel_blocks is reduced into a preallocated output, so
    the memory beyond that output does not grow with the number of targets.
    Off-grid sums run in index order.  A block whose samples the set does
    not cover raises IndexOutOfRange naming its first uncovered target.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    for rows, (idx, weights, ongrid, _) in kernel_blocks(ss.cfg, w, t):
        if idx.min() < ss.index_lo or idx.max() > ss.index_hi:
            raise _uncovered(ss, t[rows], idx, ongrid)
        np.einsum("ij,ij->i", ss.take(idx, use_noisy), weights, out=out[rows])
    return out


def _uncovered(ss: SampleSet, t, idx, ongrid) -> IndexOutOfRange:
    """The error for the first target of a block whose window ``ss`` lacks."""
    i = int(np.argmax((idx[:, 0] < ss.index_lo) | (idx[:, -1] > ss.index_hi)))
    covers = f"sample set covers [{ss.index_lo}, {ss.index_hi}]"
    if ongrid[i]:
        return IndexOutOfRange(f"t = {float(t[i])!r} needs sample index {int(idx[i, 0])}; {covers}")
    return IndexOutOfRange(
        f"t = {float(t[i])!r} requires samples for indices [{int(idx[i, 0])}, {int(idx[i, -1])}]; {covers}"
    )


def noise_response_max(cfg: SamplingConfig, w: WindowSpec, t, index_lo: int, noise) -> float:
    """max over targets t and rows r of |R(noise[r])(t)|.

    ``noise`` is a (trials, n) matrix whose row r perturbs the samples
    l = index_lo .. index_lo + n - 1.  Since R is linear, this is the largest
    deviation R(f~) - R(f) over all trials at once.  Within a block of
    kernel_blocks consecutive rows that share a window start k - m + 1 read
    one slice of every trial's noise, so each run of such rows is a single
    matrix product weights[run] @ noise[:, s:s+2m].T (sorted targets make
    the runs long).  An on-grid row becomes a unit weight at column m - 1 of
    its window, which is exact.  Raises IndexOutOfRange when a target's
    window is not covered.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2:
        raise ValueError("noise must be a (trials, n) matrix")
    m2 = 2 * cfg.m
    n = noise.shape[1]
    unit = np.zeros(m2)
    unit[cfg.m - 1] = 1.0
    worst = 0.0
    for _, (idx, weights, ongrid, j) in kernel_blocks(cfg, w, t):
        start = idx[:, 0] - index_lo
        start[ongrid] = j[ongrid] - cfg.m + 1 - index_lo
        weights[ongrid] = unit
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

    Indices must form a contiguous ascending range.
    """
    indices = []
    values = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise ValueError(f"expected header 'index,value', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            s_idx, s_val = line.split(",")
            indices.append(int(s_idx))
            values.append(float(s_val))
    if not indices:
        raise ValueError("sample file contains no rows")
    lo, hi = indices[0], indices[-1]
    if indices != list(range(lo, hi + 1)):
        raise ValueError("sample indices must be contiguous and ascending")
    return SampleSet(cfg, lo, hi, np.array(values))
