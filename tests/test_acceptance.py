"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them inline).

By default the error measurements use S = 10^4 evaluation points and 10
noise trials per cell so the suite stays CI-sized; setting
REGUSAMP_ACCEPT_FULL=1 switches to the full S = 10^5 and 100 trials with
identical assertions.
"""

import math
import os
from fractions import Fraction

import numpy as np

from regusamp.bounds import (
    bspline_bound,
    closed_form_bound,
    e1_numeric,
    e2_numeric,
    rect_bound,
    robustness_bound,
    sinh_bound,
)
from regusamp.kernel import KernelEval, ft_psi, ft_psi_quadrature
from regusamp.reconstruct import (
    TestFunction,
    TestFunctionKind,
    _draw_noise,
    kernel_matrix,
    reconstruct_grid,
    sample,
)
from regusamp.specfun import m2s_at_zero
from regusamp.windows import SamplingConfig, WindowKind, default_params

FULL = os.environ.get("REGUSAMP_ACCEPT_FULL", "") == "1"
S_POINTS = 100_000 if FULL else 10_000
TRIALS = 100 if FULL else 10

# The experiment grids: tau sweep at lam = 1, lam sweep at tau = 1/3.
GRID_PAIRS = [(t, 1.0) for t in (1 / 20, 1 / 10, 1 / 4, 1 / 3, 9 / 20)] + [
    (1 / 3, l) for l in (0.0, 0.5, 1.0, 2.0)
]
M_RANGE = range(2, 11)
WINDOWS3 = (WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH)


def _report(num: int, desc: str, ok: bool) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def _measured_approx(cfg: SamplingConfig, kind: WindowKind, fn_kind: TestFunctionKind) -> float:
    w = default_params(kind, cfg)
    f = TestFunction(fn_kind, delta=cfg.delta)
    ss = sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
    t = np.linspace(-1.0, 1.0, S_POINTS)
    start, weights = kernel_matrix(w, cfg, t)
    rec = np.einsum("ij,ij->i", ss.values[np.add.outer(start - ss.index_lo, np.arange(2 * cfg.m))], weights)
    return float(np.max(np.abs(np.asarray(f(t)) - rec)))


# ---------------------------------------------------------------------------
# 1. Exact B-spline center values


def test_criterion_1_exact_center_values():
    table = {
        1: Fraction(1),
        2: Fraction(2, 3),
        3: Fraction(11, 20),
        4: Fraction(151, 315),
        5: Fraction(15619, 36288),
        6: Fraction(655177, 1663200),
    }
    ok = all(m2s_at_zero(s) == want for s, want in table.items())
    ok &= abs(float(m2s_at_zero(50)) - 0.137990) <= 5e-7
    assert _report(1, "exact M_{2s}(0) rationals and M_100(0) to 5e-7", ok)


# ---------------------------------------------------------------------------
# 2. Interpolation identity


def test_criterion_2_interpolation_identity():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 5)
    f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
    ss = sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
    rng = np.random.default_rng(2024)
    ok = True
    for kind in WindowKind:
        w = default_params(kind, cfg)
        for ell in rng.integers(ss.index_lo, ss.index_hi + 1, 50):
            want = ss.values[ell - ss.index_lo]
            got = float(reconstruct_grid(ss, w, np.array([ell / cfg.L]))[0])
            ok &= abs(got - want) <= 1e-12 * max(abs(want), 1e-300)
    assert _report(2, "on-grid reconstruction reproduces samples (1e-12 rel)", ok)


# ---------------------------------------------------------------------------
# 3. Transform closed forms vs quadrature oracle


def test_criterion_3_ft_oracle_equivalence():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 5)
    rng = np.random.default_rng(333)
    worst = 0.0
    for kind in WINDOWS3:
        k = KernelEval(default_params(kind, cfg), cfg)
        for v in rng.uniform(-cfg.L, cfg.L, 20):
            worst = max(worst, abs(ft_psi(k, float(v)) - ft_psi_quadrature(k, float(v))))
    ok = worst <= 1e-8
    assert _report(3, f"closed-form psi transforms vs quadrature, worst |diff| = {worst:.2e}", ok)


# ---------------------------------------------------------------------------
# 4. Bound dominance for the clean approximation error


def test_criterion_4_bound_dominance_approximation():
    closed_failures = []
    e12_failures = []
    cells = 0
    for kind in WINDOWS3:
        for tau, lam in GRID_PAIRS:
            for m in M_RANGE:
                cfg = SamplingConfig(128, lam, tau, m)
                measured = _measured_approx(cfg, kind, TestFunctionKind.SINC_BAND)
                w = default_params(kind, cfg)
                e_sum = e1_numeric(w, cfg) + e2_numeric(w, cfg)
                if measured > e_sum:
                    e12_failures.append((kind.value, m, round(tau, 4), lam, measured, e_sum))
                closed = closed_form_bound(w, cfg)
                if closed is not None and measured > closed:
                    closed_failures.append((kind.value, m, round(tau, 4), lam, measured, closed))
                cells += 1
    ok = not closed_failures and not e12_failures
    detail = (
        f"closed-form dominance {'PASS' if not closed_failures else 'FAIL'} and "
        f"E1+E2 dominance {'PASS' if not e12_failures else f'FAIL on {len(e12_failures)} cells'} "
        f"over {cells} cells (S = {S_POINTS})"
    )
    if e12_failures and not closed_failures:
        # Known defect of the plain E1 constant: it ignores the spectral
        # image bands at +-jL, whose kernel-transform tails rival the
        # in-band defect for the compact windows at small tau.  See
        # bounds.e1_alias_aware, tests/test_bounds.py::
        # test_alias_bands_defeat_plain_e1 and the README's note on the
        # acceptance suite for the analysis.
        detail += "; the plain E1 constant provably under-covers these cells"
    assert _report(4, detail, ok), (closed_failures[:4], e12_failures[:8])


# ---------------------------------------------------------------------------
# 5. Bound dominance under bounded noise


def test_criterion_5_bound_dominance_noise():
    eps = 1e-3
    failures = []
    cells = 0
    for kind in WINDOWS3:
        for tau, lam in GRID_PAIRS:
            for m in M_RANGE:
                cfg = SamplingConfig(128, lam, tau, m)
                w = default_params(kind, cfg)
                lo, hi = -cfg.L - m, cfg.L + m
                t = np.linspace(-1.0, 1.0, S_POINTS)
                start, weights = kernel_matrix(w, cfg, t)
                flat = np.add.outer(start - lo, np.arange(2 * m))
                measured = 0.0
                for trial in range(TRIALS):
                    seed = np.random.SeedSequence((813, cells, trial))
                    noise = _draw_noise(hi - lo + 1, eps, seed)
                    diff = np.einsum("ij,ij->i", noise[flat], weights)
                    measured = max(measured, float(np.max(np.abs(diff))))
                rb = robustness_bound(w, cfg, eps)
                if measured > rb.specialized:
                    failures.append((kind.value, m, tau, lam, measured, "specialized", rb.specialized))
                if measured > rb.generic:
                    failures.append((kind.value, m, tau, lam, measured, "generic", rb.generic))
                cells += 1
    ok = not failures
    assert _report(
        5,
        f"perturbation error within robustness bounds on {cells} cells "
        f"({TRIALS} trials, eps = {eps}){'' if ok else ': ' + repr(failures[:4])}",
        ok,
    ), failures[:8]


# ---------------------------------------------------------------------------
# 6. Decay rates


def test_criterion_6_decay_rates():
    # (a) the sinh bound's log-decrement equals -pi*(1+lam-2*tau)/(1+lam).
    ok_exact = True
    for tau, lam in GRID_PAIRS:
        rate = math.pi * (1.0 + lam - 2.0 * tau) / (1.0 + lam)
        for m in range(2, 10):
            b0 = sinh_bound(SamplingConfig(128, lam, tau, m))
            b1 = sinh_bound(SamplingConfig(128, lam, tau, m + 1))
            ok_exact &= abs((math.log(b1) - math.log(b0)) + rate) <= 1e-12

    # (b) measured sinh decay at >= 90% of the theoretical rate.
    tau, lam = 1 / 3, 1.0
    rate = math.pi * (1.0 + lam - 2.0 * tau) / (1.0 + lam)
    ms, logs = [], []
    for m in range(2, 9):
        cfg = SamplingConfig(128, lam, tau, m)
        measured = _measured_approx(cfg, WindowKind.SINH, TestFunctionKind.SINC_BAND)
        if measured > 2e-15:  # exclude the round-off plateau
            ms.append(m)
            logs.append(math.log(measured))
    slope = np.polyfit(ms, logs, 1)[0]
    ok_slope = slope <= -0.9 * rate

    # (c) rect bound asymptotics: rect_bound(m)*sqrt(m) -> L*sqrt(2)/pi.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SamplingConfig(16384, 1.0, 1 / 3, 10_000)
    want = cfg.L * math.sqrt(2.0) / math.pi
    ok_rect = abs(rect_bound(cfg) * math.sqrt(cfg.m) - want) <= 0.01 * want

    ok = ok_exact and ok_slope and ok_rect
    assert _report(
        6,
        f"sinh log-decrement exact, measured slope {slope:.3f} <= {-0.9 * rate:.3f}, "
        f"rect bound ~ L*sqrt(2/m)/pi",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. Window ordering on the comparison grids


def test_criterion_7_window_ordering():
    failures = []
    for lam in (0.5, 1.0, 2.0):
        for m in M_RANGE:
            cfg = SamplingConfig(256, lam, 9 / 20, m)
            errs = {
                kind: _measured_approx(cfg, kind, TestFunctionKind.SINC_SQ_BAND)
                for kind in WINDOWS3
            }
            if not (errs[WindowKind.SINH] < errs[WindowKind.GAUSS]
                    and errs[WindowKind.SINH] < errs[WindowKind.BSPLINE]):
                failures.append((lam, m, errs))
    ok = not failures
    assert _report(
        7,
        "sinh window beats Gaussian and B-spline on every comparison cell"
        + ("" if ok else f": {failures[:3]!r}"),
        ok,
    ), failures[:6]


# ---------------------------------------------------------------------------
# 8. Applicability gate of the B-spline bound


def _gate_rejects(tau: float, lam: float) -> bool:
    return bspline_bound(SamplingConfig(1_000_000, lam, tau, 2)) is None


def test_criterion_8_applicability_gate():
    # Bisection on tau at lam = 1: threshold 1 - 2/pi ~ 0.3634.
    lo, hi = 0.30, 0.45
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if _gate_rejects(mid, 1.0):
            hi = mid
        else:
            lo = mid
    tau_star = 0.5 * (lo + hi)
    ok_tau = abs(tau_star - 0.3634) <= 5e-5

    # Bisection on lam at tau = 1/3: threshold ~ 0.8346.  lam is kept on a
    # 1e-6 grid so the sample scale L = N*(1+lam) stays an exact integer.
    lo_k, hi_k = 700_000, 950_000
    while hi_k - lo_k > 1:
        mid_k = (lo_k + hi_k) // 2
        if _gate_rejects(1 / 3, mid_k / 1_000_000):
            lo_k = mid_k
        else:
            hi_k = mid_k
    lam_star = hi_k / 1_000_000
    ok_lam = abs(lam_star - 0.8346) <= 5e-5

    ok = ok_tau and ok_lam
    assert _report(
        8,
        f"bspline gate thresholds: tau* = {tau_star:.6f} (want 0.3634), "
        f"lam* = {lam_star:.6f} (want 0.8346)",
        ok,
    )
