"""Experiment driver: measured maximum errors over [-1, 1] against the
theoretical constants, on the parameter grids used throughout the error
studies (N = 128, m = 2..10, tau in {1/20, 1/10, 1/4, 1/3, 9/20} at lam = 1
and lam in {0, 0.5, 1, 2} at tau = 1/3; plus the three-window comparison at
N = 256, tau = 0.45).

A plan is a cartesian grid (windows x tau_list x lambda_list x m_list); a
plan file may stack several grids separated by ``---`` lines, which is how
the paired tau-sweep/lambda-sweep figures are expressed.  Runs are
deterministic given the plan seed: every (cell, trial) perturbation stream
is derived from (seed, cell_index, trial) through a SeedSequence, so results
do not depend on worker scheduling.  run_plan is the one runner: it returns
the rows of a plan's cells, and several plans are run one after the other.

Clean and noisy cells share the block evaluator of ``reconstruct``: a clean
cell reduces the kernel blocks against the samples (reconstruct_grid), a
noisy cell draws its trials as a (trials x n) matrix, in blocks capped at
_NOISE_BLOCK_VALUES values, and reduces every kernel block against all of
them at once (noise_response_max).  Every cell runs through one picklable
runner, _run_cell, which sets the cell up, lets _approx_cell or _perturb_cell
measure the error and its bound, and makes the one bound check, so ``jobs``
> 1 changes the scheduling only, never a row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .bounds import closed_form_bound, robustness_bound
from .reconstruct import TestFunction, TestFunctionKind, _draw_noise, noise_response_max, reconstruct_grid, sample
from .windows import SamplingConfig, WindowKind, default_params


class BoundViolation(RuntimeError):
    """A measured error exceeded its proven bound; the run is unsound."""


@dataclass(frozen=True)
class ExperimentPlan:
    """One grid of experiment cells plus evaluation settings.

    ``eps`` = 0 requests clean approximation-error runs; a finite ``eps`` > 0
    requests perturbation runs with ``trials`` seeded noise draws per cell,
    drawn from streams of the ``seed`` >= 0.  ``S`` equidistant evaluation
    points cover [-1, 1] inclusive.
    """

    test_fn: TestFunctionKind
    N: int
    m_list: tuple[int, ...]
    tau_list: tuple[float, ...]
    lambda_list: tuple[float, ...]
    windows: tuple[WindowKind, ...]
    S: int = 100_000
    trials: int = 100
    eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "test_fn", TestFunctionKind(self.test_fn))
        object.__setattr__(self, "m_list", tuple(int(m) for m in self.m_list))
        object.__setattr__(self, "tau_list", tuple(float(t) for t in self.tau_list))
        object.__setattr__(self, "lambda_list", tuple(float(l) for l in self.lambda_list))
        object.__setattr__(self, "windows", tuple(WindowKind(w) for w in self.windows))
        if self.S < 2:
            raise ValueError("S must be >= 2")
        for name in ("windows", "tau_list", "lambda_list", "m_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        for tau in self.tau_list:
            for lam in self.lambda_list:
                for m in self.m_list:
                    SamplingConfig(self.N, lam, tau, m)  # validates every cell

    def cells(self):
        """Cell tuples (window, tau, lam, m) in deterministic plan order."""
        return [
            (w, tau, lam, m)
            for w in self.windows
            for tau in self.tau_list
            for lam in self.lambda_list
            for m in self.m_list
        ]


@dataclass(frozen=True)
class ErrorRow:
    window: WindowKind
    m: int
    tau: float
    lam: float
    measured: float
    bound: float | None  # None where the closed-form bound is inapplicable


def _approx_cell(plan: ExperimentPlan, cfg, w, t, lo: int, hi: int) -> tuple[float, float | None]:
    f = TestFunction(plan.test_fn, delta=cfg.delta)
    rec = reconstruct_grid(sample(f, cfg, lo, hi), w, t)
    measured = float(np.max(np.abs(f(t) - rec)))
    closed = closed_form_bound(w, cfg)
    return measured, None if closed is None else closed * f.l2_norm


# Noise values held at once by a perturbation cell: its trials are drawn as
# a (trials x n) matrix in blocks of at most this many values (8 MB).
_NOISE_BLOCK_VALUES = 1 << 20


def _trial_noise(plan: ExperimentPlan, cell_index: int, n: int, trials: range) -> np.ndarray:
    """The perturbations of ``trials`` as the rows of one matrix; trial r
    draws from its own stream SeedSequence((seed, cell_index, r))."""
    out = np.empty((len(trials), n))
    for row, trial in enumerate(trials):
        seed = np.random.SeedSequence((plan.seed, cell_index, trial))
        out[row] = _draw_noise(n, plan.eps, seed)
    return out


def _perturb_cell(plan: ExperimentPlan, cell_index: int, cfg, w, t, lo: int, hi: int) -> tuple[float, float]:
    n = hi - lo + 1
    per_block = max(1, _NOISE_BLOCK_VALUES // n)
    measured = 0.0
    for first in range(0, plan.trials, per_block):
        noise = _trial_noise(plan, cell_index, n, range(first, min(first + per_block, plan.trials)))
        # R(f~) - R(f) is linear in the perturbation, so reconstruct it alone.
        measured = max(measured, noise_response_max(w, cfg, t, lo, noise))
    return measured, robustness_bound(w, cfg, plan.eps).value


def _run_cell(plan: ExperimentPlan, i: int) -> ErrorRow:
    """Row of cell i: a perturbation run when eps > 0, else a clean one,
    on S equidistant targets covering [-1, 1] inclusive."""
    kind, tau, lam, m = plan.cells()[i]
    cfg = SamplingConfig(plan.N, lam, tau, m)
    w = default_params(kind, cfg)
    try:
        t = np.linspace(-1.0, 1.0, plan.S)
    except MemoryError:
        raise ValueError(f"S = {plan.S} targets are too large to allocate") from None
    lo, hi = -cfg.L - m, cfg.L + m
    if plan.eps > 0:
        what = "perturbation"
        measured, bound = _perturb_cell(plan, i, cfg, w, t, lo, hi)
    else:
        what = "approximation"
        measured, bound = _approx_cell(plan, cfg, w, t, lo, hi)
    if bound is not None and measured > bound:
        raise BoundViolation(
            f"{what} error {measured:.6e} exceeds bound {bound:.6e} at "
            f"window={kind.value}, m={m}, tau={tau:g}, lam={lam:g}"
        )
    return ErrorRow(kind, m, tau, lam, measured, bound)


def run_plan(plan: ExperimentPlan, jobs: int = 1) -> tuple[ErrorRow, ...]:
    """Rows of every cell in plan order.  ``jobs`` > 1 runs the cells in
    worker processes, which changes no row.  With ``jobs`` = 1 a cell's
    kernel blocks run on threads (reconstruct._map_blocks); a forked worker
    runs them inline, so ``jobs`` workers keep ``jobs`` threads busy.

    Samples cover l = -L-m .. L+m, which is exactly the range the localized
    formula touches for targets in [-1, 1].  With eps = 0 a row is the
    measured max |f - Rf| over [-1, 1] paired with the window's closed-form
    bound (NA where the B-spline gate rejects the cell).  With eps > 0 it is
    the measured max |R(f~) - R(f)| over [-1, 1], maximized over the seeded
    noise trials, paired with the window-specialized robustness bound.  A
    measured error above a valid bound aborts the run with BoundViolation.
    """
    worker = partial(_run_cell, plan)
    count = len(plan.cells())
    if jobs <= 1 or count <= 1:
        rows = [worker(i) for i in range(count)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # A pool forks all its workers on the first submit: no more than cells.
        with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
            rows = list(pool.map(worker, range(count)))
    return tuple(rows)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_csv(rows, path) -> None:
    """Write ``window,m,tau,lambda,measured,bound,bound_valid`` rows, 17
    significant digits, in plan iteration order; bound is the literal ``NA``
    on rows whose closed-form bound is inapplicable."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("window,m,tau,lambda,measured,bound,bound_valid\n")
        for r in rows:
            valid = r.bound is not None
            bound = _fmt(r.bound) if valid else "NA"
            fh.write(
                f"{r.window.value},{r.m},{_fmt(r.tau)},{_fmt(r.lam)},"
                f"{_fmt(r.measured)},{bound},{str(valid).lower()}\n"
            )


def parse_fraction(text: str) -> float:
    """A decimal or a fraction such as 1/3, as a float.  A zero denominator
    raises ValueError, like any other text that is not a number."""
    if "/" not in text:
        return float(text)
    try:
        return float(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_list(text: str):
    return [item.strip() for item in text.split(",") if item.strip()]


def _fractions(text: str):
    return [parse_fraction(x) for x in _parse_list(text)]


# Plan key -> converter from its text.  ExperimentPlan itself turns the
# lists into tuples and the names into TestFunctionKind and WindowKind.
_PLAN_KEYS = {
    "test_fn": str,
    "N": int,
    "m_list": lambda text: [int(x) for x in _parse_list(text)],
    "tau_list": _fractions,
    "lambda_list": _fractions,
    "windows": _parse_list,
    "S": int,
    "trials": int,
    "eps": parse_fraction,
    "seed": int,
}


def parse_plan(text: str) -> ExperimentPlan:
    """Parse one key = value block; keys mirror the ExperimentPlan fields,
    lists are comma-separated, and fractions like 1/3 are accepted.  A key
    given twice in one block is an error, not an override."""
    fields: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad plan line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _PLAN_KEYS:
            raise ValueError(f"unknown plan key {key!r}")
        if key in fields:
            raise ValueError(f"plan key {key!r} given twice")
        try:
            fields[key] = _PLAN_KEYS[key](val)
        except ValueError as exc:
            raise ValueError(f"plan key {key!r}: {exc}") from None
    missing = {"test_fn", "N", "m_list", "tau_list", "lambda_list", "windows"} - set(fields)
    if missing:
        raise ValueError(f"plan is missing keys: {sorted(missing)}")
    return ExperimentPlan(**fields)


def load_plans(path) -> list[ExperimentPlan]:
    """Plans from a plain-text file; blocks separated by ``---`` lines."""
    with open(path, "r", encoding="utf-8") as fh:
        runs = itertools.groupby(fh.read().splitlines(), key=lambda line: line.strip() == "---")
    blocks = ["\n".join(lines) for is_rule, lines in runs if not is_rule]
    plans = [parse_plan(b) for b in blocks if b.strip()]
    if not plans:
        raise ValueError(f"no plans found in {path}")
    return plans


PRESETS = ("fig2", "fig5", "fig6", "fig8", "fig9", "fig10")


def load_preset(name: str) -> list[ExperimentPlan]:
    """The checked-in plans of a preset, as its file states them."""
    from importlib import resources

    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    with resources.as_file(resources.files("regusamp").joinpath("presets", f"{name}.plan")) as p:
        return load_plans(p)
