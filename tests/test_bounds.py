"""Error constants: numeric E1/E2, closed forms, gates, robustness."""

import math

import numpy as np
import pytest

from regusamp import bounds, specfun
from regusamp.bounds import (
    _E1_GRID_POINTS,
    bspline_bound,
    bspline_condition_ok,
    closed_form_bound,
    compute_report,
    e1_numeric,
    e2_numeric,
    eta,
    gauss_bound,
    rect_bound,
    robustness_bound,
    sinh_bound,
)
from regusamp.kernel import KernelEval, ft_psi, ft_window
from regusamp.reconstruct import TestFunction, TestFunctionKind, reconstruct_grid, sample
from regusamp.windows import SamplingConfig, WindowKind, WindowSpec, default_params

CFG = SamplingConfig(128, 1.0, 1 / 3, 5)


def spec_for(kind, cfg=CFG):
    return default_params(kind, cfg)


def case_one_sinh(cfg):
    """The sinh window with the paper's other admissible beta ("case one"),
    pi*m*(1+lam+2*tau)/(1+lam), which decays more slowly than the default."""
    return WindowSpec(WindowKind.SINH, beta=math.pi * cfg.m * (1.0 + cfg.lam + 2.0 * cfg.tau) / (1.0 + cfg.lam))


# ---------------------------------------------------------------------------
# eta


def test_eta_even():
    rng = np.random.default_rng(83)
    v = rng.uniform(0.0, CFG.delta, 25)
    for kind in WindowKind:
        w = spec_for(kind)
        assert np.max(np.abs(eta(w, CFG, v) - eta(w, CFG, -v))) <= 1e-12


def test_eta_gauss_identity_with_transform():
    # For the Gaussian, eta(v) = 1 - L * psihat(v) exactly.
    w = spec_for(WindowKind.GAUSS)
    k = KernelEval(w, CFG)
    for v in (0.0, 10.0, CFG.delta):
        assert eta(w, CFG, v) == pytest.approx(1.0 - CFG.L * ft_psi(k, v), abs=1e-14)


def test_eta_bspline_against_band_quadrature():
    # Direct band quadrature of the closed-form transform, independent of
    # the tail that eta and ft_psi share.
    w = spec_for(WindowKind.BSPLINE)
    for v in (0.0, CFG.delta / 3, CFG.delta):
        band = specfun.integrate(
            lambda u: float(ft_window(w, CFG, u)),
            v - CFG.L / 2.0,
            v + CFG.L / 2.0,
            specfun.Quadrature(abs_tol=1e-13, rel_tol=1e-12),
            points=[0.0],
        ).value
        assert eta(w, CFG, v) == pytest.approx(1.0 - band, abs=1e-9)
    assert 0.0 < eta(w, CFG, 0.0) < 1.0


def test_eta_sinh_against_band_quadrature():
    w = spec_for(WindowKind.SINH)
    for v in (0.0, CFG.delta / 2, CFG.delta):
        band = specfun.integrate(
            lambda u: float(ft_window(w, CFG, u)),
            v - CFG.L / 2.0,
            v + CFG.L / 2.0,
            specfun.Quadrature(abs_tol=1e-13, rel_tol=1e-12),
            points=[-w.beta * CFG.L / (2 * math.pi * CFG.m), w.beta * CFG.L / (2 * math.pi * CFG.m)],
        ).value
        assert eta(w, CFG, v) == pytest.approx(1.0 - band, abs=1e-10)


def test_eta_sinh_case_one_branch():
    # Case-1 beta puts the band edge inside the I1 region of the transform;
    # the tail's I1 branch must still match direct band quadrature.
    w = case_one_sinh(CFG)
    v = CFG.delta
    band = specfun.integrate(
        lambda u: float(ft_window(w, CFG, u)),
        v - CFG.L / 2.0,
        v + CFG.L / 2.0,
        specfun.Quadrature(abs_tol=1e-13, rel_tol=1e-12),
        points=[-w.beta * CFG.L / (2 * math.pi * CFG.m), w.beta * CFG.L / (2 * math.pi * CFG.m)],
    ).value
    assert eta(w, CFG, v) == pytest.approx(1.0 - band, abs=1e-10)


def test_eta_outside_band_rejected():
    with pytest.raises(ValueError):
        eta(spec_for(WindowKind.GAUSS), CFG, CFG.delta * 1.01)


def test_eta_sinh_magnitude_bound():
    # |eta| < 3*e^-beta for the default sinh shape.
    w = spec_for(WindowKind.SINH)
    v = np.linspace(0.0, CFG.delta, 501)
    assert np.max(np.abs(eta(w, CFG, v))) < 3.0 * math.exp(-w.beta)


# ---------------------------------------------------------------------------
# E1 / E2


def test_e1_rect_dwarfs_bspline():
    assert e1_numeric(spec_for(WindowKind.RECT), CFG) > e1_numeric(spec_for(WindowKind.BSPLINE), CFG)


def test_e1_gauss_within_closed_estimate():
    w = spec_for(WindowKind.GAUSS)
    sig = w.sigma
    est = (
        math.sqrt(CFG.delta)
        / (math.sqrt(math.pi) * math.pi * sig * (CFG.L / 2.0 - CFG.delta))
        * math.exp(-2.0 * math.pi**2 * sig * sig * (CFG.L / 2.0 - CFG.delta) ** 2)
    )
    assert e1_numeric(w, CFG) <= est


def test_e1_improves_with_oversampling():
    lo = SamplingConfig(128, 0.0, 1 / 3, 6)
    hi = SamplingConfig(128, 4.0, 1 / 3, 6)
    assert e1_numeric(default_params(WindowKind.GAUSS, hi), hi) < e1_numeric(
        default_params(WindowKind.GAUSS, lo), lo
    )


def test_e1_rect_interior_peak_against_mpmath():
    # rect |eta| at m = 5 peaks inside the band, at v = 25.6, where L/2 -+ v
    # sit on the sinc zeros 4*pi and 6*pi of phihat, so eta'(v) = 0 exactly.
    # eta(v) = 1 - (Si(a*(v+L/2)) - Si(a*(v-L/2)))/pi with a = 2*pi*m/L.  A
    # grid of eta with three golden-section steps read 1.35e-8 low here.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, v, half = 2 * mp.pi * CFG.m / CFG.L, mp.mpf(128) / 5, mp.mpf(CFG.L) / 2
        peak = mp.sqrt(2 * mp.mpf(CFG.delta)) * abs(1 - (mp.si(a * (v + half)) - mp.si(a * (v - half))) / mp.pi)
    assert float(peak) == pytest.approx(0.38636384046774156, rel=1e-16)
    assert e1_numeric(spec_for(WindowKind.RECT), CFG) == pytest.approx(float(peak), rel=1e-15)


def test_e1_bspline_edge_peak_against_mpmath():
    # The B-spline |eta| at m = 5 peaks at the band edge v = delta: a 30-digit
    # band integral of the closed-form phihat, split at the zeros of its sinc
    # power, against e1_numeric and the largest |eta| on a dense grid, to
    # eta's rounding level 1e-15.
    mp = pytest.importorskip("mpmath")
    w = spec_for(WindowKind.BSPLINE)
    s, L, m = w.s, CFG.L, CFG.m
    with mp.workdps(30):
        num = sum((-1) ** j * math.comb(2 * s, j) * (s - j) ** (2 * s - 1) for j in range(s))
        m0 = mp.mpf(num) / math.factorial(2 * s - 1)  # M_{2s}(0)
        a, b, zero = mp.mpf(CFG.delta) - L / 2, mp.mpf(CFG.delta) + L / 2, mp.mpf(s * L) / m
        pts = [a] + [k * zero for k in range(int(mp.floor(a / zero)) + 1, int(mp.ceil(b / zero)))] + [b]
        edge = abs(float(1 - mp.quad(lambda u: m / (s * L * m0) * mp.sinc(mp.pi * u / zero) ** (2 * s), pts)))
    assert np.max(np.abs(eta(w, CFG, np.linspace(0.0, CFG.delta, 4097)))) <= edge + 1e-15
    assert e1_numeric(w, CFG) / math.sqrt(2.0 * CFG.delta) == pytest.approx(edge, abs=1e-15)


@pytest.mark.parametrize("kind", list(WindowKind))
def test_e1_never_below_the_eta_grid(kind):
    # The stationary-point search against the grid of eta it replaced: never
    # lower than the largest |eta| on the _E1_GRID_POINTS grid, up to eta's
    # rounding level 1e-15 (absolute).
    for tau in (1 / 20, 1 / 4, 1 / 3, 9 / 20):
        for lam in (0.0, 0.5, 2.0):
            for m in range(2, 11):
                cfg = SamplingConfig(128, lam, tau, m)
                w = default_params(kind, cfg)
                grid_max = np.max(np.abs(eta(w, cfg, np.linspace(0.0, cfg.delta, _E1_GRID_POINTS))))
                assert e1_numeric(w, cfg) >= math.sqrt(2.0 * cfg.delta) * (grid_max - 1e-15), (tau, lam, m)


@pytest.mark.parametrize("kind", list(WindowKind))
def test_e1_makes_one_eta_call_off_the_grid(kind, monkeypatch):
    sizes = []

    def counted(w, cfg, v):
        sizes.append(np.size(v))
        return eta(w, cfg, v)

    monkeypatch.setattr(bounds, "eta", counted)
    e1_numeric(spec_for(kind), CFG)
    assert len(sizes) == 1 and sizes[0] < _E1_GRID_POINTS


def test_e2_zero_for_compact_windows():
    for kind in (WindowKind.RECT, WindowKind.BSPLINE, WindowKind.SINH):
        assert e2_numeric(spec_for(kind), CFG) == 0.0


def test_e2_gauss_closed_form_and_upper_estimate():
    w = spec_for(WindowKind.GAUSS)
    val = e2_numeric(w, CFG)
    # Brute-force the definition by quadrature of the squared window tail.
    from regusamp.windows import eval_window

    tail = specfun.integrate(
        lambda x: float(eval_window(w, CFG, x)) ** 2, CFG.m / CFG.L, CFG.m / CFG.L + 14 * w.sigma
    ).value
    phi_m = float(eval_window(w, CFG, CFG.m / CFG.L))
    brute = math.sqrt(2.0 * CFG.L) / (math.pi * CFG.m) * math.sqrt(phi_m**2 + CFG.L * tail)
    assert val == pytest.approx(brute, rel=1e-10)
    # The paper's closed upper estimate of the Gaussian E2.
    L, m, s2 = CFG.L, CFG.m, w.sigma * w.sigma
    upper = (
        math.sqrt(2.0 * L) / (math.pi * m)
        * math.sqrt((2.0 * m + L * L * s2) / (2.0 * m))
        * math.exp(-m * m / (2.0 * L * L * s2))
    )
    assert val <= upper


# ---------------------------------------------------------------------------
# Closed-form bounds


def test_rect_bound_value():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 2)
    assert rect_bound(cfg) == pytest.approx((256.0 / math.pi) * math.sqrt(5.0) / 2.0, rel=1e-15)


def test_rect_bound_quadrupling_halves():
    import warnings

    for m in (50, 200, 1000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = rect_bound(SamplingConfig(16384, 1.0, 1 / 3, m))
            b = rect_bound(SamplingConfig(16384, 1.0, 1 / 3, 4 * m))
        assert 0.49 <= b / a <= 0.51


def test_rect_bound_asymptotics():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SamplingConfig(16384, 1.0, 1 / 3, 10_000)
    want = cfg.L * math.sqrt(2.0) / math.pi
    assert abs(rect_bound(cfg) * math.sqrt(cfg.m) - want) <= 0.01 * want


def test_gauss_bound_fixture():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 2)
    assert gauss_bound(cfg) == pytest.approx(1.093528362609633, rel=1e-14)


def test_gauss_bound_decay_ratio():
    # bound(m+1)/bound(m) approaches exp(-pi*(1/2 - tau/(1+lam))).
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2m > L/4 is intentional here
        cfg50 = SamplingConfig(128, 1.0, 1 / 3, 50)
        cfg51 = SamplingConfig(128, 1.0, 1 / 3, 51)
    ratio = gauss_bound(cfg51) / gauss_bound(cfg50)
    want = math.exp(-math.pi * (0.5 - CFG.tau / (1.0 + CFG.lam)))
    assert abs(ratio - want) <= 0.05 * want


def test_gauss_bound_dominates_numeric_constants():
    for m in range(2, 11):
        cfg = SamplingConfig(128, 1.0, 1 / 3, m)
        w = default_params(WindowKind.GAUSS, cfg)
        assert e1_numeric(w, cfg) + e2_numeric(w, cfg) <= gauss_bound(cfg) + 1e-12


def test_bspline_gate_examples():
    assert bspline_bound(SamplingConfig(128, 1.0, 9 / 20, 5)) is None  # tau/(1+lam) = 0.225
    assert bspline_bound(SamplingConfig(128, 1.0, 1 / 3, 5)) > 0.0
    assert bspline_bound(SamplingConfig(128, 0.0, 1 / 3, 5)) is None


def test_bspline_bound_dominates_numeric_constants():
    for m in range(2, 11):
        cfg = SamplingConfig(128, 1.0, 1 / 3, m)
        w = default_params(WindowKind.BSPLINE, cfg)
        assert e1_numeric(w, cfg) + e2_numeric(w, cfg) <= bspline_bound(cfg) + 1e-12


def test_sinh_bound_fixture():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 5)
    want = 3.0 * math.sqrt(2.0 * cfg.delta) * math.exp(-10.0 * math.pi / 3.0)
    assert sinh_bound(cfg) == pytest.approx(want, rel=1e-14)


def sinh_case_one_bound(cfg):
    """The paper's uniform-error constant of case_one_sinh(cfg):

    sqrt(beta*pi*delta) / ((1-2e^-beta)*(1-w0^2)^(1/4)) * exp(-beta*(1-sqrt(1-w0^2)))
      + 2*sqrt(2*delta)/(1-e^-2beta) * exp(-beta),

    with w0 = (1+lam-2*tau)/(1+lam+2*tau).
    """
    lam, tau, delta = cfg.lam, cfg.tau, cfg.delta
    beta = case_one_sinh(cfg).beta
    w0 = (1.0 + lam - 2.0 * tau) / (1.0 + lam + 2.0 * tau)
    first = (
        math.sqrt(beta * math.pi * delta)
        / ((1.0 - 2.0 * math.exp(-beta)) * (1.0 - w0 * w0) ** 0.25)
        * math.exp(-beta * (1.0 - math.sqrt(1.0 - w0 * w0)))
    )
    second = 2.0 * math.sqrt(2.0 * delta) / (-math.expm1(-2.0 * beta)) * math.exp(-beta)
    return first + second


def test_sinh_case_two_beats_case_one():
    for tau in (1 / 20, 1 / 4, 9 / 20):
        for lam in (0.0, 0.5, 1.0, 2.0):
            for m in range(2, 11):
                cfg = SamplingConfig(128, lam, tau, m)
                assert sinh_bound(cfg) < sinh_case_one_bound(cfg)


def test_sinh_bound_dominates_numeric_constant():
    for m in range(2, 11):
        cfg = SamplingConfig(128, 1.0, 1 / 3, m)
        w = default_params(WindowKind.SINH, cfg)
        assert e1_numeric(w, cfg) <= sinh_bound(cfg) + 1e-12


def test_sinh_log_bound_decrement_exact():
    for tau, lam in ((1 / 20, 1.0), (1 / 3, 0.5), (9 / 20, 2.0)):
        rate = math.pi * (1.0 + lam - 2.0 * tau) / (1.0 + lam)
        for m in range(2, 10):
            b0 = sinh_bound(SamplingConfig(128, lam, tau, m))
            b1 = sinh_bound(SamplingConfig(128, lam, tau, m + 1))
            assert abs((math.log(b1) - math.log(b0)) + rate) <= 1e-12


def test_closed_form_dispatch():
    assert closed_form_bound(spec_for(WindowKind.RECT), CFG) == rect_bound(CFG)
    assert closed_form_bound(spec_for(WindowKind.GAUSS), CFG) == gauss_bound(CFG)
    assert closed_form_bound(spec_for(WindowKind.BSPLINE), CFG) == bspline_bound(CFG)
    assert closed_form_bound(spec_for(WindowKind.SINH), CFG) == sinh_bound(CFG)


def test_rect_e1_below_rect_bound_across_grid():
    for tau in (1 / 20, 1 / 3, 9 / 20):
        for m in (2, 5, 10):
            cfg = SamplingConfig(128, 1.0, tau, m)
            w = default_params(WindowKind.RECT, cfg)
            assert e1_numeric(w, cfg) <= rect_bound(cfg)


def test_numeric_constants_below_closed_forms_everywhere():
    # E1 + E2 <= closed-form bound on the whole experiment grid (both sides
    # are analytic objects; the closed forms were derived as upper estimates
    # of the band-defect maximum).
    pairs = [(t, 1.0) for t in (1 / 20, 1 / 10, 1 / 4, 1 / 3, 9 / 20)] + [
        (1 / 3, l) for l in (0.0, 0.5, 2.0)
    ]
    skipped = 0
    for kind in WindowKind:
        for tau, lam in pairs:
            for m in (2, 5, 10):
                cfg = SamplingConfig(128, lam, tau, m)
                w = default_params(kind, cfg)
                closed = closed_form_bound(w, cfg)
                # None exactly where the B-spline gate rejects the cell.
                assert (closed is None) == (kind is WindowKind.BSPLINE and not bspline_condition_ok(cfg))
                if closed is None:
                    skipped += 1
                    continue
                assert e1_numeric(w, cfg) + e2_numeric(w, cfg) <= closed + 1e-12
    assert skipped > 0


def test_alias_bands_defeat_plain_e1():
    # Known counterexample to the plain E1+E2 constant: at tau = 1/20 the
    # B-spline in-band defect is tiny while the kernel transform's tail over
    # the spectral image band [L-delta, L+delta] is comparable, and the
    # measured uniform error lands between the two constants.  The closed
    # per-window bound still dominates.
    import numpy as np

    from regusamp.bounds import e1_alias_aware
    from regusamp.reconstruct import TestFunction, TestFunctionKind, kernel_matrix, sample

    cfg = SamplingConfig(128, 1.0, 1 / 20, 5)
    w = default_params(WindowKind.BSPLINE, cfg)
    f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
    ss = sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
    t = np.linspace(-1.0, 1.0, 20_001)
    start, weights = kernel_matrix(w, cfg, t)
    rec = np.einsum("ij,ij->i", ss.values[np.add.outer(start - ss.index_lo, np.arange(2 * cfg.m))], weights)
    measured = float(np.max(np.abs(np.asarray(f(t)) - rec)))
    plain = e1_numeric(w, cfg) + e2_numeric(w, cfg)
    aware = e1_alias_aware(w, cfg) + e2_numeric(w, cfg)
    assert measured > plain  # the plain constant genuinely under-covers
    assert measured <= aware
    assert measured <= bspline_bound(cfg) * f.l2_norm


def test_alias_aware_constant_dominates_across_windows():
    from regusamp.bounds import e1_alias_aware

    for kind in (WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH):
        for tau in (1 / 20, 1 / 3):
            cfg = SamplingConfig(128, 1.0, tau, 4)
            w = default_params(kind, cfg)
            assert e1_alias_aware(w, cfg) > e1_numeric(w, cfg)


def test_gauss_legendre_rules_built_once(monkeypatch):
    from regusamp.bounds import e1_alias_aware

    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    specfun._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    for kind in (WindowKind.BSPLINE, WindowKind.SINH):
        cfg = SamplingConfig(128, 1.0, 1 / 20, 2)
        w = default_params(kind, cfg)
        e1_alias_aware(w, cfg)
        e1_alias_aware(w, cfg)
    assert calls and len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# Robustness bounds


def test_robustness_gauss_fixture():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 4)
    rb = robustness_bound(default_params(WindowKind.GAUSS, cfg), cfg, 1e-3)
    assert rb.specialized == pytest.approx(1e-3 * (2.0 + 2.0 * math.sqrt(3.0)), rel=1e-14)


def test_robustness_bspline_fixture():
    cfg = SamplingConfig(128, 1.0, 1 / 3, 9)
    rb = robustness_bound(default_params(WindowKind.BSPLINE, cfg), cfg, 1e-3)
    assert rb.specialized == pytest.approx(1e-3 * 6.5, rel=1e-15)


def test_robustness_generic_uses_window_transform():
    for kind in WindowKind:
        w = spec_for(kind)
        rb = robustness_bound(w, CFG, 1e-3)
        want = 1e-3 * (2.0 + CFG.L * ft_window(w, CFG, 0.0))
        assert rb.generic == pytest.approx(want, rel=1e-14)
        # The bound a run is held to: rect has only the generic one.
        assert rb.value == (rb.generic if kind is WindowKind.RECT else rb.specialized)
    assert robustness_bound(spec_for(WindowKind.RECT), CFG, 1e-3).specialized is None


def test_robustness_requires_positive_eps():
    for eps in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            robustness_bound(spec_for(WindowKind.GAUSS), CFG, eps)


# ---------------------------------------------------------------------------
# Reports


def test_compute_report_fields():
    rep = compute_report(spec_for(WindowKind.SINH), CFG)
    assert rep.e1 > 0 and rep.e2 == 0.0
    assert rep.closed_form == sinh_bound(CFG)
    assert rep.eta_max == pytest.approx(rep.e1 / math.sqrt(2.0 * CFG.delta), rel=1e-15)
    assert rep.robustness > 0
    assert rep.robust == robustness_bound(spec_for(WindowKind.SINH), CFG, 1e-3)
    assert rep.robustness == rep.robust.value


@pytest.mark.parametrize("w,cfg", [
    (WindowSpec(WindowKind.BSPLINE, s=8), SamplingConfig(128, 1.0, 1 / 20, 6)),
    (WindowSpec(WindowKind.GAUSS, sigma=0.001), SamplingConfig(128, 1.0, 1 / 3, 4)),
    (WindowSpec(WindowKind.SINH, beta=40.0), SamplingConfig(128, 1.0, 1 / 3, 4)),
])
def test_non_default_window_gets_no_proven_constant(w, cfg):
    # The closed forms hold for the default shape parameter only: this
    # window's measured error exceeds the default window's closed form.
    f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
    ss = sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
    t = np.linspace(-1.0, 1.0, 20_001)
    measured = float(np.max(np.abs(f(t) - reconstruct_grid(ss, w, t))))
    assert measured > closed_form_bound(default_params(w.kind, cfg), cfg) * f.l2_norm
    assert closed_form_bound(w, cfg) is None
    assert compute_report(w, cfg).closed_form is None
    assert robustness_bound(w, cfg, 1e-3).specialized is None


def test_compute_report_invalid_bspline_cell():
    cfg = SamplingConfig(128, 0.0, 1 / 3, 5)
    rep = compute_report(default_params(WindowKind.BSPLINE, cfg), cfg)
    assert rep.closed_form is None
    assert rep.e1 > 0
