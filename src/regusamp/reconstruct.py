"""Localized reconstruction of bandlimited functions from equispaced samples.

The reconstruction operator sums 2m windowed-sinc terms around the target
point: for t in the grid cell (k/L, (k+1)/L) with k = floor(L*t),

    (R f)(t) = sum_{l=k-m+1}^{k+m} f(l/L) * psi(t - l/L),

and R interpolates the samples exactly on (1/L)*Z.  A perturbed signal is
plain sample data: perturb returns the samples f(l/L) + eps_l, which every
evaluator reads like any other sample set.

The four reductions of the operator (reconstruct_grid, approximation_error,
noise_response_max, noise_amplification) are the only callers of one block
evaluator, _map_blocks, which builds the kernel matrix (kernel_matrix) a
block of targets at a time, so memory stays bounded however many targets
there are.  Whether a block's samples are present is decided by one helper,
_require_covered.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernel import KernelEval, NonFiniteInput, check_finite, psi, sinc
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
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")

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
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    return SampleSet(ss.cfg, ss.index_lo, ss.index_hi, ss.values + _draw_noise(len(ss), eps, seed))


# Kernel weights per block of the batched evaluators, whatever m is: a
# block has 2**15 // (2m) targets, and each block-sized array takes 256 KB.
# Smaller blocks pay more often a fixed cost of some 50 us per block in numpy
# calls: 2**13 cut the window's time per weight by a third but lost it again
# to that cost.  On 2 cores, 2**14 ran the benchmark's approx and perturb
# rounds 20-30% slower, and 2**16 raised their peak RSS by 5%.
KERNEL_WEIGHTS = 1 << 15

# |L*t| at and beyond which no int64 sample index reaches a target.
_INDEX_LIMIT = 2.0**62


def kernel_matrix(w: WindowSpec, cfg: SamplingConfig, t):
    """Per-point window starts and kernel weights for a batch of targets.

    Returns (start, weights): row i covers the samples start[i] ..
    start[i] + 2m - 1, so the reconstruction is sum(values[start[i] + j] *
    weights[i, j]) over j, with start[i] = k - m + 1 and k = floor(L*t[i]).
    Its offsets are x = t - (k + j)/L from the float k + j, the same
    rounding as the integer k + j.  A row at an exact grid point t = j/L
    reads sample j alone: its weight is a unit at column m - 1, the other
    columns are 0.  A target with |t| >= 2**62/L lies beyond every int64
    sample index: its row has NaN weights, and the batched evaluators reject
    it (_require_covered) at its place in target order.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    check_finite("targets", t)
    L, m = cfg.L, cfg.m
    far = np.abs(t) >= _INDEX_LIMIT / L
    tk = np.where(far, 0.0, t) if far.any() else t  # keeps the int64 cast from wrapping
    Lt = L * tk
    k = np.floor(Lt)
    ongrid = Lt == k
    x = k[:, None] + np.arange(-m + 1, m + 1, dtype=float)
    x /= L
    np.subtract(tk[:, None], x, out=x)
    weights = psi(KernelEval(w, cfg), x)
    if ongrid.any():
        weights[ongrid] = 0.0
        weights[ongrid, m - 1] = 1.0
    if tk is not t:
        weights[far] = np.nan
    return k.astype(np.int64) - (m - 1), weights


def _block_rows(n: int, m: int) -> list[slice]:
    """The slices of n targets that make up the blocks at 2m weights per
    target, in order: KERNEL_WEIGHTS // (2m) targets each, at least one."""
    rows = max(1, KERNEL_WEIGHTS // (2 * m))
    return [slice(start, start + rows) for start in range(0, n, rows)]


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The process's pool of usable_cpu_count() threads, which evaluate the
# blocks of a call while the caller waits.  It is made on first use, and each
# thread starts only when a call has blocks for it.  Calls made on its threads
# (_pool_thread.inline is set there) and in a forked child evaluate their
# blocks inline: the first would wait on the pool from inside it, the second
# on its parent's; inline children also keep N worker processes at N busy
# threads.
_pool = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()
_forked_child = False


def _mark_forked_child() -> None:
    global _forked_child
    _forked_child = True


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_mark_forked_child)


def _block_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(usable_cpu_count(), thread_name_prefix="regusamp-blocks",
                                       initializer=setattr, initargs=(_pool_thread, "inline", True))
        return _pool


# numpy's BLAS thread count while one_blas_thread holds it at one: the
# (setter, getter) pair of numpy's bundled OpenBLAS, looked up on first use
# (() where numpy has none), how many callers hold it, and the count to give
# back when the last one leaves.
_blas_calls = None
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_restore = 1


def _blas_thread_calls():
    """(set_num_threads, get_num_threads) of the OpenBLAS that numpy links,
    or () where it exports none; looked up once, on the first call."""
    global _blas_calls
    if _blas_calls is None:
        _blas_calls = ()
        try:
            import ctypes

            from numpy._core import _multiarray_umath

            lib = ctypes.CDLL(_multiarray_umath.__file__)
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except (ImportError, OSError, AttributeError):
            return _blas_calls
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        _blas_calls = (setter, getter)
    return _blas_calls


@contextmanager
def one_blas_thread():
    """Hold numpy's BLAS to one thread for the duration, then give back the
    count the caller had.

    The package's block threads and worker processes already keep every
    core busy; BLAS threads beside them only spin on the same cores.
    Concurrent and nested holders share one count under a lock: the first
    saves the caller's count, and only the last to leave restores it, so no
    restore lands while another caller's blocks still run.  Where numpy's
    BLAS exports no thread setter, this does nothing.
    """
    global _blas_holders, _blas_restore
    with _blas_lock:
        calls = _blas_thread_calls()
        if calls:
            if not _blas_holders:
                _blas_restore = calls[1]()
                calls[0](1)
            _blas_holders += 1
    try:
        yield
    finally:
        if calls:
            with _blas_lock:
                _blas_holders -= 1
                if not _blas_holders:
                    calls[0](_blas_restore)


def _map_blocks(w: WindowSpec, cfg: SamplingConfig, t, reduce) -> list:
    """reduce(rows, start, weights) of every block of _block_rows(t.size, m),
    where (start, weights) = kernel_matrix(w, cfg, t[rows]), in block order.

    Every batched evaluation (reconstruct_grid, approximation_error,
    noise_response_max, noise_amplification) goes through here.  The blocks
    go in block order to the queue of the process's pool while the caller
    waits, with numpy's BLAS held to one thread; numpy releases the GIL in
    the element functions, the gathers and the matrix products.  They run
    inline, starting no thread, when there is one block or one usable CPU,
    in a forked child, and in a call made on a pool thread (by a block's f
    that reconstructs, say).  Each block is built and reduced exactly as it
    would be alone, so the results do not depend on the number of threads.
    The first block in block order that raises raises here, as in a loop
    over the blocks; then, or on an interrupt, the blocks not yet started
    are cancelled and the started ones waited for.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    blocks = _block_rows(t.size, cfg.m)

    def run(rows):
        start, weights = kernel_matrix(w, cfg, t[rows])
        return reduce(rows, start, weights)

    if len(blocks) <= 1 or usable_cpu_count() == 1 or _forked_child or getattr(_pool_thread, "inline", False):
        return [run(rows) for rows in blocks]
    from concurrent.futures import wait

    with one_blas_thread():
        futures = [_block_pool().submit(run, rows) for rows in blocks]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
            wait(futures)


def _require_covered(cfg: SamplingConfig, t, first, last, lo: int, hi: int, what: str) -> None:
    """Raise IndexOutOfRange unless every target's sample span first..last
    lies in lo..hi, naming the first target that leaves it; ``what`` names
    the data covering lo..hi.  A target with |t| >= 2**62/L has no window,
    since no int64 sample index reaches it, so it leaves every range."""
    far = np.abs(t) >= _INDEX_LIMIT / cfg.L
    outside = (first < lo) | (last > hi) | far
    if not outside.any():
        return
    i = int(np.argmax(outside))
    if far[i]:
        raise IndexOutOfRange(f"t = {float(t[i])!r} lies beyond every sample index: |t| >= 2**62/L")
    a, b = int(first[i]), int(last[i])
    needs = f"needs sample index {a}" if a == b else f"requires samples for indices [{a}, {b}]"
    raise IndexOutOfRange(f"t = {float(t[i])!r} {needs}; {what} covers [{lo}, {hi}]")


def _row_sums(ss: SampleSet, t, start, weights, out=None) -> np.ndarray:
    """The reconstruction at the targets ``t`` of one block, from their
    kernel rows (start, weights): one sum per row, in column order, into
    ``out`` if given.  Raises IndexOutOfRange, naming the first target,
    unless the sample set covers every row's span; an on-grid row's span is
    its one sample, at column m - 1.

    The samples are gathered by one take of the block's sample positions.
    mode="clip" lets an on-grid row at the edge of the set read the edge
    sample in place of the missing ones, under zero weights.
    """
    m = ss.cfg.m
    first, last = start, start + (2 * m - 1)
    if first.min() < ss.index_lo or last.max() > ss.index_hi:
        with np.errstate(over="ignore"):  # an overflow lies beyond 2**62/L, which _require_covered rejects
            Lt = ss.cfg.L * t
        ongrid = Lt == np.floor(Lt)
        first, last = first + (m - 1) * ongrid, last - m * ongrid
    _require_covered(ss.cfg, t, first, last, ss.index_lo, ss.index_hi, "sample set")
    samples = ss.values.take((start - ss.index_lo)[:, None] + np.arange(2 * m), mode="clip")
    return np.einsum("ij,ij->i", samples, weights, out=out)


def reconstruct_grid(ss: SampleSet, w: WindowSpec, t) -> np.ndarray:
    """The localized reconstruction at every target of a 1-D array.

    This is the one evaluation path; a single point is a one-element array.
    Each block of _map_blocks is reduced into its slice of a preallocated
    output, so the memory beyond that output does not grow with the number
    of targets.  A block whose samples the set does not cover raises
    IndexOutOfRange naming its first uncovered target, and the first such
    block raises.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    _map_blocks(w, ss.cfg, t, lambda rows, start, weights: _row_sums(ss, t[rows], start, weights, out[rows]))
    return out


def approximation_error(ss: SampleSet, f, w: WindowSpec, t) -> float:
    """max over the targets ``t`` of |f(t) - Rf(t)|, where Rf reconstructs
    from the samples ``ss`` and f is an elementwise function of an array.

    Each block of _map_blocks sums its rows as reconstruct_grid does, then
    evaluates f on its own targets and reduces |f - Rf| in place on its
    row sums, so beyond ``t`` nothing grows with the number of targets.  The
    result is bit-equal to np.max(np.abs(f(t) - reconstruct_grid(ss, w, t))),
    a NaN included; uncovered targets raise the same IndexOutOfRange, and
    no targets raise ValueError.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("need at least one target")

    def reduce(rows, start, weights):
        err = _row_sums(ss, t[rows], start, weights)
        np.subtract(f(t[rows]), err, out=err)
        return np.max(np.abs(err, out=err))

    return float(np.max(_map_blocks(w, ss.cfg, t, reduce)))


def noise_response_max(w: WindowSpec, cfg: SamplingConfig, t, index_lo: int, noise) -> float:
    """max over targets t and rows r of |R(noise[r])(t)|.

    ``noise`` is a (trials, n) matrix whose row r perturbs the samples
    l = index_lo .. index_lo + n - 1.  Since R is linear, this is the largest
    deviation R(f~) - R(f) over all trials at once.  Within a block of
    _map_blocks consecutive rows that share a window start k - m + 1 read
    one slice of every trial's noise, so each run of such rows is a single
    matrix product weights[run] @ noise[:, s:s+2m].T (sorted targets make
    the runs long).  kernel_matrix puts an on-grid row's unit weight at
    column m - 1 of that window, so every row, on the grid or off it, reads
    all of it: a target whose window the noise lacks raises IndexOutOfRange.
    No targets, no trials and non-finite noise (NonFiniteInput) raise
    ValueError.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("need at least one target")
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2:
        raise ValueError("noise must be a (trials, n) matrix")
    if not noise.shape[0]:
        raise ValueError("need at least one noise trial")
    check_finite("noise", noise)
    m2 = 2 * cfg.m
    index_hi = index_lo + noise.shape[1] - 1

    def reduce(rows, start, weights):
        _require_covered(cfg, t[rows], start, start + (m2 - 1), index_lo, index_hi, "noise")
        worst = 0.0
        edges = [0, *(np.flatnonzero(np.diff(start)) + 1), start.size]
        for a, b in zip(edges[:-1], edges[1:]):
            s = start[a] - index_lo
            response = weights[a:b] @ noise[:, s:s + m2].T
            worst = max(worst, float(response.max()), -float(response.min()))
        return worst

    return max(_map_blocks(w, cfg, t, reduce))


def noise_amplification(w: WindowSpec, cfg: SamplingConfig, t) -> float:
    """Largest value over the targets ``t`` of the Lebesgue function

        Lambda(t) = sum_l |psi(t - l/L)|

    of the localized operator (1 at grid points, where R echoes the sample).
    For noise bounded by eps, sup |R(noise)(t)| = eps * Lambda(t), attained
    by noise = eps * sign(psi), so eps * max Lambda is the exact worst case
    on ``t`` that seeded noise trials only estimate from below, and every
    robustness bound must dominate it.  One row sum of |weights| per block
    of _map_blocks; a target with |t| >= 2**62/L has no window and raises
    IndexOutOfRange.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("need at least one target")

    def reduce(rows, start, weights):
        # Every int64 index is in range, so only a target without a window raises.
        _require_covered(cfg, t[rows], start, start, -2**63, 2**63 - 1, "int64")
        return float(np.max(np.sum(np.abs(weights, out=weights), axis=1)))

    return max(_map_blocks(w, cfg, t, reduce))


# translate() deletes these bytes and keeps the separators ',' and '\n' of a
# sample CSV.
_NOT_SEPARATOR = bytes(set(range(128)) - {ord(","), ord("\n")})

# Characters of sample text parsed at a time, so that the Python objects made
# for the fields of one piece are all that is held beside the text and the
# values read so far, however long the file.
_CHUNK_CHARS = 1 << 16


def _one_comma_per_row(rows: str) -> bool:
    """Whether every line of ``rows`` holds exactly one comma: then its
    commas and newlines alternate, starting and ending with a comma."""
    return rows.encode("ascii").translate(None, _NOT_SEPARATOR) == b",\n" * rows.count("\n") + b","


def load_samples(path, cfg: SamplingConfig) -> SampleSet:
    """Read an ``index,value`` CSV into a SampleSet.

    The file is ASCII text with universal newlines: the header line
    ``index,value``, then one ``index,value`` row per line.  Blank and
    whitespace-only lines are skipped, whitespace around either field is
    ignored, and a field may be any numeral that int() or float() accepts
    (``+3``, ``1_0``, ``2.5e-3``).  Indices must form a contiguous ascending
    range and values must be finite.  Every violation raises ValueError
    (NonFiniteInput for a value) naming the file and, where one line is at
    fault, its line number.

    The file is read in one piece and parsed in pieces of about _CHUNK_CHARS
    characters that end at a line end.  Each piece has its lines stripped,
    its blank lines dropped and its commas counted in one pass, and each of
    its columns parsed by one map over its fields.  A row that does not
    parse is reported before an index out of order, and that before a
    value that is not finite, wherever each lies in the file.  Only when a
    check fails does a scan over the lines look for the first one at fault.
    """
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # exc.object is the whole file; a non-ASCII byte ends no line.
        lineno = len(exc.object[:exc.start + 1].splitlines())
        raise ValueError(f"{path}, line {lineno}: {exc}") from None
    start = text.find("\n") + 1 or len(text)
    header = text[:start].strip()
    if header != "index,value":
        raise ValueError(f"{path}, line 1: expected header 'index,value', got {header!r}")
    chunks = []
    n = 0
    gap = None  # (row, index) of the first index out of order
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        rows = "\n".join(filter(None, map(str.strip, text[start:stop].split("\n"))))
        start = stop
        if not rows:
            continue
        if not _one_comma_per_row(rows):
            raise _scan_rows(path, text)
        fields = rows.replace("\n", ",").split(",")
        try:
            indices = list(map(int, fields[0::2]))
            chunks.append(np.fromiter(map(float, fields[1::2]), float, len(indices)))
        except ValueError:
            raise _scan_rows(path, text) from None
        if not n:
            lo = indices[0]
        if gap is None and indices != list(range(lo + n, lo + n + len(indices))):
            gap = next((k, index) for k, index in enumerate(indices, start=n) if index != lo + k)
        n += len(indices)
    if not n:
        raise ValueError(f"{path}: sample file contains no rows")
    if gap is not None:
        k, index = gap
        raise ValueError(
            f"{path}, line {_scan_rows(path, text, k)}: sample indices must be contiguous and ascending, "
            f"expected {lo + k}, got {index}"
        )
    values = np.concatenate(chunks)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteInput(f"{path}, line {_scan_rows(path, text, k)}: sample values must be finite, got {float(values[k])!r}")
    return SampleSet(cfg, lo, lo + n - 1, values)


def _scan_rows(path, text: str, k=None):
    """One walk over the rows of a sample file's ``text``, its non-blank
    lines after the header: the line number of row k, or the ValueError for
    the first row that is not two fields that int() and float() accept."""
    row = 0
    for lineno, line in enumerate(text.split("\n")[1:], start=2):
        if not (line := line.strip()):
            continue
        if row == k:
            return lineno
        row += 1
        try:
            s_idx, s_val = line.split(",")
            int(s_idx)
            float(s_val)
        except ValueError as exc:
            n = line.count(",") + 1
            why = exc if n == 2 else f"expected 2 fields 'index,value', got {n}"
            return ValueError(f"{path}, line {lineno}: {why}")
    raise AssertionError(f"{path}: the whole-text checks rejected a file whose every row parses")
