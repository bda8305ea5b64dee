"""Regularized sinc kernel: interpolation zeros, transform closed forms
against the quadrature oracle, maxima, tail bounds."""

import math

import numpy as np
import pytest

from regusamp import specfun
from regusamp.kernel import (
    EpsilonOutOfRange,
    KernelEval,
    WrongKind,
    ft_psi,
    ft_psi_quadrature,
    ft_window,
    kernel_band_tail,
    psi,
    sinc,
    tail_bound,
)
from regusamp.windows import SamplingConfig, WindowKind, WindowSpec, default_params

CFG = SamplingConfig(128, 1.0, 1 / 3, 5)


def kernel_for(kind, cfg=CFG):
    return KernelEval(default_params(kind, cfg), cfg)


# ---------------------------------------------------------------------------
# sinc


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(math.pi)) <= 1e-16
    assert sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_sinc_series_branch_continuous():
    # The series branch and the direct ratio must agree at the switch point.
    for x in (9.9e-5, 1.01e-4, -9.9e-5):
        assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-14)


def test_sinc_vectorized():
    x = np.array([0.0, 1e-9, math.pi, 1.0])
    vals = sinc(x)
    assert vals.shape == (4,)
    assert vals[0] == 1.0


# ---------------------------------------------------------------------------
# psi


def test_psi_at_zero():
    for kind in WindowKind:
        assert psi(kernel_for(kind), 0.0) == 1.0


def test_psi_interpolation_zeros():
    for kind in WindowKind:
        k = kernel_for(kind)
        for ell in range(-CFG.m, CFG.m + 1):
            if ell == 0:
                continue
            assert abs(psi(k, ell / CFG.L)) <= 1e-13


def test_psi_outside_support():
    for kind in WindowKind:
        k = kernel_for(kind)
        assert psi(k, (CFG.m + 1) / CFG.L) == 0.0
        assert psi(k, -(CFG.m + 0.5) / CFG.L) == 0.0


# ---------------------------------------------------------------------------
# Closed-form transforms vs the quadrature oracle


@pytest.mark.parametrize("kind", [WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH])
def test_ft_closed_form_matches_quadrature(kind):
    k = kernel_for(kind)
    rng = np.random.default_rng(37)
    for v in rng.uniform(-CFG.L, CFG.L, 6):
        closed = ft_psi(k, float(v))
        oracle = ft_psi_quadrature(k, float(v))
        assert abs(closed - oracle) <= 1e-8


def test_ft_rect_matches_quadrature():
    k = kernel_for(WindowKind.RECT)
    for v in (0.0, 17.3, -120.0):
        assert abs(ft_psi(k, v) - ft_psi_quadrature(k, v)) <= 1e-8


def test_ft_gauss_maximum_at_zero():
    k = kernel_for(WindowKind.GAUSS)
    sigma = k.window.sigma
    want = math.erf(math.sqrt(2.0) * math.pi * sigma * CFG.L / 2.0) / CFG.L
    assert ft_psi(k, 0.0) == pytest.approx(want, rel=1e-14)
    assert ft_psi(k, 0.0) < 1.0 / CFG.L


def test_ft_gauss_even_and_decreasing():
    # Positivity and strict decrease hold wherever the erf difference has
    # not underflowed (beyond ~1.3L the true value drops under 1e-16/L).
    k = kernel_for(WindowKind.GAUSS)
    v = np.linspace(0.0, CFG.L, 100)
    vals = ft_psi(k, v)
    assert np.array_equal(ft_psi(k, -v), vals)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_ft_bspline_maximum_below_reciprocal_scale():
    k = kernel_for(WindowKind.BSPLINE)
    assert ft_psi(k, 0.0) < 1.0 / CFG.L


def test_ft_bspline_normalization_identity():
    # int_R sinc(pi*v*m/(s*L))^{2s} dv = s*L*M_{2s}(0)/m, checked by
    # truncating where the envelope (sL/(pi v m))^{2s} falls below 1e-12.
    k = kernel_for(WindowKind.BSPLINE)
    s, m, L = k.window.s, CFG.m, CFG.L
    m0 = float(specfun.m2s_at_zero(s))
    cut = (s * L / (math.pi * m)) * (1e12) ** (1.0 / (2 * s - 1))
    f = lambda v: float(sinc(math.pi * v * m / (s * L))) ** (2 * s)
    q = specfun.Quadrature(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=5000)
    val = 2.0 * specfun.integrate(f, 0.0, cut, q).value
    assert (m / (s * L)) * val / m0 == pytest.approx(1.0, abs=1e-8)


def test_ft_sinh_even():
    k = kernel_for(WindowKind.SINH)
    rng = np.random.default_rng(41)
    for v in rng.uniform(0.0, CFG.L, 5):
        assert ft_psi(k, float(v)) == pytest.approx(ft_psi(k, -float(v)), abs=1e-15)


def test_ft_psi_maximum_bounded():
    # psihat <= 1/L for the Gaussian and B-spline (proven maxima at v = 0).
    # The sinh band integral may overshoot 1 by O(e^-beta) (its band defect
    # goes slightly negative), so only the weaker cap applies there.
    v = np.linspace(0.0, 0.9 * CFG.L, 25)
    for kind in (WindowKind.GAUSS, WindowKind.BSPLINE):
        k = kernel_for(kind)
        vals = np.array([ft_psi(k, float(x)) for x in v])
        assert np.all(vals <= 1.0 / CFG.L + 1e-12)
    k = kernel_for(WindowKind.SINH)
    beta = k.window.beta
    vals = np.array([ft_psi(k, float(x)) for x in v])
    assert np.all(np.abs(vals) <= (1.0 + 3.0 * math.exp(-beta)) / CFG.L)


def test_ft_window_values():
    gauss = kernel_for(WindowKind.GAUSS).window
    assert ft_window(gauss, CFG, 0.0) == pytest.approx(math.sqrt(2 * math.pi) * gauss.sigma, rel=1e-14)
    sinh = kernel_for(WindowKind.SINH).window
    v_at_beta = sinh.beta * CFG.L / (2.0 * math.pi * CFG.m)
    want = math.pi * CFG.m * sinh.beta / (CFG.L * math.sinh(sinh.beta)) * 0.5
    assert ft_window(sinh, CFG, v_at_beta) == pytest.approx(want, rel=1e-12)


def test_ft_window_sinh_continuous_across_branch():
    w = kernel_for(WindowKind.SINH).window
    v_at_beta = w.beta * CFG.L / (2.0 * math.pi * CFG.m)
    at = ft_window(w, CFG, v_at_beta)
    just_below = ft_window(w, CFG, v_at_beta * (1 - 1e-9))
    just_above = ft_window(w, CFG, v_at_beta * (1 + 1e-9))
    assert at == pytest.approx(just_below, rel=1e-6)
    assert at == pytest.approx(just_above, rel=1e-6)


def test_ft_window_matches_quadrature():
    for kind in WindowKind:
        w = default_params(kind, CFG)
        hi = 12.0 * w.sigma if kind is WindowKind.GAUSS else CFG.m / CFG.L
        for v in (0.7, 31.0):
            from regusamp.windows import eval_window

            want = 2.0 * specfun.integrate(
                lambda x: float(eval_window(w, CFG, x)) * math.cos(2.0 * math.pi * v * x), 0.0, hi
            ).value
            assert ft_window(w, CFG, v) == pytest.approx(want, abs=1e-10)


def _phihat_mp(mp, w, cfg):
    """Closed-form phihat(u) in mpmath, written out apart from the package,
    with the break points of its band integrals: the zeros of the
    oscillating factor every ``width`` (none for the Gaussian) and the sinh
    Bessel branch points."""
    L, m = mp.mpf(cfg.L), mp.mpf(cfg.m)
    if w.kind is WindowKind.RECT:
        return (lambda u: 2 * m / L * mp.sinc(2 * mp.pi * m * u / L)), L / (2 * m), []
    if w.kind is WindowKind.GAUSS:
        sig = mp.mpf(w.sigma)
        return (lambda u: mp.sqrt(2 * mp.pi) * sig * mp.exp(-2 * (mp.pi * sig * u) ** 2)), None, []
    if w.kind is WindowKind.BSPLINE:
        s = w.s
        # M_{2s}(0) from the alternating binomial sum, in exact integers.
        num = sum((-1) ** j * math.comb(2 * s, j) * (s - j) ** (2 * s - 1) for j in range(s))
        M0 = mp.mpf(num) / math.factorial(2 * s - 1)
        return (lambda u: m / (s * L * M0) * mp.sinc(mp.pi * u * m / (s * L)) ** (2 * s)), s * L / m, []
    beta = mp.mpf(w.beta)
    pref = mp.pi * m * beta / (L * mp.sinh(beta))

    def f(u):
        x2 = (2 * mp.pi * m * u / L) ** 2 - beta**2
        if x2 > 0:
            return pref * mp.besselj(1, mp.sqrt(x2)) / mp.sqrt(x2)
        if x2 < 0:
            return pref * mp.besseli(1, mp.sqrt(-x2)) / mp.sqrt(-x2)
        return pref / 2

    branch = beta * L / (2 * mp.pi * m)
    return f, L / (4 * m), [-branch, branch]


def _band_mp(mp, w, cfg, v):
    """int_{v-L/2}^{v+L/2} phihat at the working precision of mp."""
    f, width, breaks = _phihat_mp(mp, w, cfg)
    a, b = mp.mpf(v) - mp.mpf(cfg.L) / 2, mp.mpf(v) + mp.mpf(cfg.L) / 2
    pts = {a, b} | {x for x in breaks if a < x < b}
    if width is not None:
        pts |= {k * width for k in range(int(mp.ceil(a / width)), int(mp.floor(b / width)) + 1)}
    return mp.quad(f, sorted(x for x in pts if a <= x <= b))


@pytest.mark.parametrize("kind,case_one", [
    (WindowKind.RECT, False), (WindowKind.GAUSS, False), (WindowKind.BSPLINE, False),
    (WindowKind.SINH, False), (WindowKind.SINH, True),
])
def test_band_quantities_against_mpmath(kind, case_one):
    # psihat and eta, both differences of the transform tail, against a
    # 20-digit band integral of the closed-form phihat: in the band, across
    # the transition near L/2 (the sinh I1 branch) and in the image bands
    # j = 1..3.  eta = 1 - L*psihat in the band, so its tolerance is the
    # psihat tolerance 1e-13/L in units of L*psihat.
    mp = pytest.importorskip("mpmath")
    from regusamp.bounds import eta

    k = kernel_for(kind)
    if case_one:  # the paper's other admissible sinh beta, pi*m*(1+lam+2*tau)/(1+lam)
        k = KernelEval(WindowSpec(kind, beta=math.pi * CFG.m * (1.0 + CFG.lam + 2.0 * CFG.tau) / (1.0 + CFG.lam)), CFG)
    L, d = CFG.L, CFG.delta
    freqs = [0.0, -d / 2, d, 0.45 * L, -0.5 * L, 0.55 * L]
    freqs += [j * L + off for j in (1, 2, 3) for off in (-d, d / 3)]
    band_v = [0.0, d / 2, -d]
    with mp.workdps(20):
        want_psi = np.array([float(_band_mp(mp, k.window, CFG, v) / L) for v in freqs])
        want_eta = np.array([float(1 - _band_mp(mp, k.window, CFG, v)) for v in band_v])
    assert np.max(np.abs(ft_psi(k, np.array(freqs)) - want_psi)) <= 1e-13 / L
    assert np.max(np.abs(eta(k.window, CFG, np.array(band_v)) - want_eta)) <= 1e-13


@pytest.mark.parametrize("kind", [WindowKind.BSPLINE, WindowKind.SINH])
@pytest.mark.parametrize("m", [2, 10])
def test_eta_on_dense_e1_grid_against_mpmath(kind, m):
    # The E1 grid (eta's oracle grid in test_bounds.py) spaces its nodes
    # about max_width/1000 apart, so every panel of the band tail takes the
    # narrow-panel rule.  Check eta on the whole grid at both ends and three
    # interior indices.
    mp = pytest.importorskip("mpmath")
    from regusamp.bounds import _E1_GRID_POINTS, eta

    cfg = SamplingConfig(128, 1.0, 1 / 20, m)
    w = default_params(kind, cfg)
    grid = np.linspace(0.0, cfg.delta, _E1_GRID_POINTS)
    got = eta(w, cfg, grid)
    idx = [0, 1, _E1_GRID_POINTS // 2, _E1_GRID_POINTS - 2, _E1_GRID_POINTS - 1]
    with mp.workdps(20):
        want = np.array([float(1 - _band_mp(mp, w, cfg, grid[i])) for i in idx])
    # The band tolerance 1e-13, made relative where eta itself is that small
    # (sinh at m = 10 peaks at 1.3e-13); the reference holds about 1e-20.
    assert np.max(np.abs(got[idx] - want)) <= min(1e-13, 1e-6 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind", list(WindowKind))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_band_quantities_reject_non_finite(kind, bad):
    from regusamp.bounds import eta
    from regusamp.kernel import NonFiniteInput

    k = kernel_for(kind)
    with pytest.raises(NonFiniteInput, match="x must be finite"):
        kernel_band_tail(k.window, CFG, np.array([0.0, bad]))
    with pytest.raises(NonFiniteInput, match="v must be finite"):
        ft_psi(k, bad)
    with pytest.raises(NonFiniteInput, match="v must be finite"):
        eta(k.window, CFG, [0.0, bad])


# ---------------------------------------------------------------------------
# Tail bounds (essential bandlimitation)


def test_tail_bound_gauss():
    k = kernel_for(WindowKind.GAUSS)
    eps = 0.5
    bound = tail_bound(k, eps)
    v = CFG.L * (1 + eps) / 2.0 * 1.01
    assert 0 < ft_psi(k, v) <= bound
    with pytest.raises(EpsilonOutOfRange):
        tail_bound(k, 1.5)


def test_tail_bound_bspline():
    k = kernel_for(WindowKind.BSPLINE)
    s = k.window.s
    eps = 2.0 * s / (CFG.m * math.pi) * 1.5
    bound = tail_bound(k, eps)
    v = CFG.L * (1 + eps) / 2.0 * 1.01
    assert abs(ft_psi(k, v)) <= bound
    with pytest.raises(EpsilonOutOfRange):
        tail_bound(k, 2.0 * s / (CFG.m * math.pi))


def test_tail_bound_sinh():
    k = kernel_for(WindowKind.SINH)
    s = k.window.beta * (1 + CFG.lam) / (math.pi * (1 + 2 * CFG.lam))
    eps = 4.0 * s / CFG.m
    bound = tail_bound(k, eps)
    v = CFG.L * (1 + eps) / 2.0 * 1.01
    assert abs(ft_psi(k, v)) <= bound
    with pytest.raises(EpsilonOutOfRange):
        tail_bound(k, eps * 0.9)


def test_tail_bound_rect_unsupported():
    with pytest.raises(WrongKind):
        tail_bound(kernel_for(WindowKind.RECT), 0.5)


# ---------------------------------------------------------------------------
# Diagnostics backing proof-internal facts


def test_diag_gauss_inband_deviation():
    # Inside the shrunken band, 1/L - psihat is controlled by
    # 2/(sqrt(2 pi) L^2 pi sigma eps) * exp(-pi^2 sigma^2 L^2 eps^2 / 2).
    k = kernel_for(WindowKind.GAUSS)
    sigma = k.window.sigma
    eps = 0.4
    cap = 2.0 / (math.sqrt(2 * math.pi) * CFG.L**2 * math.pi * sigma * eps) * math.exp(
        -math.pi**2 * sigma**2 * CFG.L**2 * eps**2 / 2.0
    )
    for v in np.linspace(0.0, CFG.L * (1 - eps) / 2.0, 9):
        dev = 1.0 / CFG.L - ft_psi(k, float(v))
        assert 0.0 < dev <= cap


def test_diag_oscillatory_bessel_partial_integrals():
    # 0 <= int_0^T J1(beta*sinh t) dt <= 3*(1-e^-beta)/(2*beta) for all T,
    # checked densely via the z = beta*sinh(t) substitution up to T = 10.
    for beta in (math.pi * 4.0 / 3.0, 21.0):
        z_max = beta * math.sinh(10.0)
        nodes = np.concatenate([[0.0], np.geomspace(1e-3, z_max, 4000)])
        f = lambda z: specfun.bessel_j1(z) / np.sqrt(beta * beta + z * z)
        cum = specfun.gl_cumulative(f, nodes, max_width=1.0)
        cap = 3.0 * (1.0 - math.exp(-beta)) / (2.0 * beta)
        assert cum.min() >= -1e-12
        assert cum.max() <= cap


def test_diag_tail_kernel_prefactor():
    # max_{w >= 2} w^{3/2} / (w^2-1)^{3/4} < 5/4.
    w = np.linspace(2.0, 1e4, 200_000)
    vals = w**1.5 / (w * w - 1.0) ** 0.75
    assert vals.max() < 1.25
