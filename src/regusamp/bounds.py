"""Theoretical error constants for localized windowed-sinc reconstruction.

Two numerically evaluated constants control the uniform error for any
window:

    E1 = sqrt(2*delta) * max_{|v|<=delta} |eta(v)|,
    eta(v) = 1 - int_{v-L/2}^{v+L/2} phihat(u) du,
    E2 = sqrt(2L)/(pi*m) * (phi(m/L)^2 + L*int_{m/L}^inf phi^2)^{1/2},

with ||f - Rf||_inf <= (E1 + E2) * ||f||_2.  E2 vanishes for the compactly
supported windows.  On top of these, each window family has a proven closed
form: the rectangular bound decays like 1/sqrt(m) while the Gaussian,
B-spline and sinh bounds decay exponentially in m.  Perturbations bounded by
eps propagate to at most eps*(2 + L*phihat(0)) uniformly, with sqrt(m)-growth
closed forms per window; the exact worst case on a target grid is eps times
the maximum of the operator's Lebesgue function
(reconstruct.noise_amplification, one of the operator's block reductions).
Each closed form is proven only for the shape parameter that
windows.default_params picks, and is None for any other window.

Every band integral here is a difference of one window-transform tail
T(x) = int_x^inf phihat(u) du (kernel.kernel_band_tail).  Because phihat
integrates to phi(0) = 1, eta(v) = T(L/2-v) + T(L/2+v) with no cancellation
against 1, and the image-band terms of the alias-aware E1 are the band
integrals L*psihat(v) = T(v-L/2) - T(v+L/2) at v near jL.  E1 is found at
the zeros of eta' that a grid brackets, so a pair inside one cell is missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .kernel import KernelEval, check_finite, ft_psi, ft_window, kernel_band_tail
from .windows import SamplingConfig, WindowKind, WindowSpec, default_params


def eta(w: WindowSpec, cfg: SamplingConfig, v):
    """Band defect eta(v) = 1 - int_{v-L/2}^{v+L/2} phihat(u) du, |v| <= delta.

    Evaluated as T(L/2-v) + T(L/2+v) from the window-transform tail T of
    kernel_band_tail, which has no cancellation against 1.  Even in v; its
    maximum modulus over the band drives the regularization error constant
    E1.  Vectorized over v.
    """
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    check_finite("v", varr)
    if varr.size and np.max(np.abs(varr)) > cfg.delta * (1.0 + 1e-12):
        raise ValueError(f"eta is defined on |v| <= delta = {cfg.delta:g}")
    half = cfg.L / 2.0
    t = kernel_band_tail(w, cfg, np.concatenate([half - varr.ravel(), half + varr.ravel()]))
    out = (t[: varr.size] + t[varr.size :]).reshape(varr.shape)
    return out if np.ndim(v) else float(out[0])


# Uniform nodes of eta' in e1_numeric on [0, delta]; image bands of
# e1_alias_aware and the points on each band.
_E1_GRID_POINTS = 4097
_ALIAS_BANDS = 3
_ALIAS_GRID_POINTS = 129


def e1_numeric(w: WindowSpec, cfg: SamplingConfig) -> float:
    """E1 = sqrt(2*delta) * max |eta| over [-delta, delta].

    eta is even and eta'(v) = phihat(L/2-v) - phihat(L/2+v), so |eta| peaks
    on [0, delta] at 0, at delta or at a zero of eta'.  One ft_window pass
    gives eta' on _E1_GRID_POINTS nodes; exact zeros are candidates, and
    Illinois regula falsi refines all strict sign changes at once until no
    step moves by 2^-26 of a cell (at most 64 steps).  Its halving only
    flattens the secant, so a step bounds the distance to the zero, where
    eta is flat to second order: the loss is at most 2^-50 of what a peak
    inside the cell could lose.  One eta call on the candidates gives the
    maximum.  Two zeros of eta' in one cell make no sign change and are
    missed, losing at most the dip of |eta| between them.
    """
    half, delta = cfg.L / 2.0, cfg.delta

    def deta(v):
        phi = ft_window(w, cfg, np.concatenate([half - v, half + v]))
        return phi[: v.size] - phi[v.size :]

    grid = np.linspace(0.0, delta, _E1_GRID_POINTS)
    g = deta(grid)
    i = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    a, fa, b, fb = grid[i], g[i], grid[i + 1], g[i + 1]  # b: latest estimate; a: kept end
    for _ in range(64):
        c = b - fb * (b - a) / (fb - fa)
        if not np.any(np.abs(c - b) > grid[1] * 2.0**-26):
            break
        fc = deta(c)
        flip = np.sign(fc) != np.sign(fb)
        a, fa, b, fb = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa), c, fc
    peaks = np.abs(eta(w, cfg, np.concatenate([[0.0, delta], grid[g == 0.0], c])))
    return math.sqrt(2.0 * delta) * float(peaks.max())


def e1_alias_aware(w: WindowSpec, cfg: SamplingConfig) -> float:
    """3-band estimate of the regularization constant with image bands.

    The sampled spectrum is L-periodic, so the reconstruction error picks up
    the kernel transform over the image bands [jL-delta, jL+delta] as well
    as the in-band defect eta; the plain E1 constant ignores those images
    and genuinely under-covers the error when the transform's tail beyond
    L/2 rivals the in-band defect (B-spline and sinh windows at small tau).
    This variant adds sqrt(2*delta) * sum_j max over band j of the band
    integral L*|psihat|, for the bands j = 1..3 only, each maximized on a
    129-point grid.  It is an estimate, not a proven bound: the bands beyond
    the third and any peak between grid points are left out.
    """
    L, delta, n = cfg.L, cfg.delta, _ALIAS_GRID_POINTS
    v = np.concatenate([np.linspace(j * L - delta, j * L + delta, n) for j in range(1, _ALIAS_BANDS + 1)])
    peaks = np.max(np.abs(L * ft_psi(KernelEval(w, cfg), v)).reshape(_ALIAS_BANDS, n), axis=1)
    extra = 2.0 * float(np.sum(peaks))  # bands at +-j contribute equally (even transform)
    return e1_numeric(w, cfg) + math.sqrt(2.0 * delta) * extra


def e2_numeric(w: WindowSpec, cfg: SamplingConfig) -> float:
    """E2 = sqrt(2L)/(pi*m) * (phi(m/L)^2 + L*int_{m/L}^inf phi^2)^{1/2}.

    Exactly zero for the compactly supported windows (B-spline, sinh, and
    the truncated rect kernel, whose terms beyond the 2m window vanish).
    For the Gaussian both summands have erfc closed forms.
    """
    if w.kind is not WindowKind.GAUSS:
        return 0.0
    L, m = cfg.L, cfg.m
    sig = w.sigma
    boundary = math.exp(-m * m / (L * L * sig * sig))
    tail = L * sig * math.sqrt(math.pi) / 2.0 * specfun.erfc(m / (L * sig))
    return math.sqrt(2.0 * L) / (math.pi * m) * math.sqrt(boundary + tail)


def rect_bound(cfg: SamplingConfig) -> float:
    """Uniform-error constant of the rect window: (L/pi)*sqrt(2/m + 1/m^2).

    Only O(1/sqrt(m)); the reason regularizing windows are worth having.
    """
    m = cfg.m
    return cfg.L / math.pi * math.sqrt(2.0 / m + 1.0 / (m * m))


def gauss_bound(cfg: SamplingConfig) -> float:
    """Exponential uniform-error constant of the Gaussian window with the
    default sigma:

    (2*sqrt(pi*delta*L) + L*(m+1)/sqrt(m)) / (pi*sqrt(m*pi*(L-2*delta)))
      * exp(-pi*m*(L/2 - delta)/L).
    """
    L, m, delta = cfg.L, cfg.m, cfg.delta
    pre = (2.0 * math.sqrt(math.pi * delta * L) + L * (m + 1) / math.sqrt(m)) / (
        math.pi * math.sqrt(m * math.pi * (L - 2.0 * delta))
    )
    return pre * math.exp(-math.pi * m * (L / 2.0 - delta) / L)


def bspline_condition_ok(cfg: SamplingConfig) -> bool:
    """Convergence gate of the B-spline bound: tau/(1+lam) < 1/2 - 1/pi."""
    return cfg.tau / (1.0 + cfg.lam) < 0.5 - 1.0 / math.pi


def bspline_bound(cfg: SamplingConfig) -> float | None:
    """Exponential uniform-error constant of the B-spline window with the
    s that default_params(BSPLINE, cfg) picks:

    3*sqrt(delta*s)/((2s-1)*pi)
      * exp(-m*(ln(pi*m*(1+lam-2*tau)) - ln(2*s*(1+lam)))).

    None when tau/(1+lam) >= 1/2 - 1/pi (bspline_condition_ok fails), where
    the underlying geometric ratio reaches 1 and the estimate carries no
    information (the reconstruction itself still works there).
    """
    if not bspline_condition_ok(cfg):
        return None
    m = cfg.m
    s = default_params(WindowKind.BSPLINE, cfg).s
    rate = math.log(math.pi * m * (1.0 + cfg.lam - 2.0 * cfg.tau)) - math.log(2.0 * s * (1.0 + cfg.lam))
    return 3.0 * math.sqrt(cfg.delta * s) / ((2 * s - 1) * math.pi) * math.exp(-m * rate)


def sinh_bound(cfg: SamplingConfig) -> float:
    """Exponential uniform-error constant of the sinh window with the beta
    that default_params(SINH, cfg) picks:

    3*sqrt(2*delta)*exp(-beta).
    """
    beta = default_params(WindowKind.SINH, cfg).beta
    return 3.0 * math.sqrt(2.0 * cfg.delta) * math.exp(-beta)


_CLOSED_FORMS = {
    WindowKind.RECT: rect_bound,
    WindowKind.GAUSS: gauss_bound,
    WindowKind.BSPLINE: bspline_bound,
    WindowKind.SINH: sinh_bound,
}


def closed_form_bound(w: WindowSpec, cfg: SamplingConfig) -> float | None:
    """The per-family uniform-error constant of ``w``.  None unless ``w`` is
    default_params(w.kind, cfg), the one window its theorem covers, and None
    for a B-spline cell that fails bspline_condition_ok."""
    if w != default_params(w.kind, cfg):
        return None
    return _CLOSED_FORMS[w.kind](cfg)


@dataclass(frozen=True)
class RobustnessBound:
    """Generic and window-specialized uniform noise-propagation bounds.

    Both are valid upper bounds; neither dominates the other in general.
    ``specialized`` is None for the rect window, which has no sqrt(m)-growth
    closed form, and for any window but default_params(w.kind, cfg).
    """

    generic: float
    specialized: float | None

    @property
    def value(self) -> float:
        """The bound a run is held to: specialized where it exists, else generic."""
        return self.generic if self.specialized is None else self.specialized


def robustness_bound(w: WindowSpec, cfg: SamplingConfig, eps: float) -> RobustnessBound:
    """Bounds on the uniform reconstruction perturbation under sample noise
    bounded by eps.

    Generic (any window): eps * (2 + L*phihat(0)).  Specialized closed forms
    (for the default shape parameters only, else None):
        gauss:   eps * (2 + sqrt((2+2*lam)/(lam+1-2*tau)) * sqrt(m))
        bspline: eps * (2 + (3/2)*sqrt(m))
        sinh:    eps * (2 + sqrt((2+2*lam)/(1+lam-2*tau))
                            / (1 - e^{-2*beta}) * sqrt(m))
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    generic = eps * (2.0 + cfg.L * ft_window(w, cfg, 0.0))
    m, lam, tau = cfg.m, cfg.lam, cfg.tau
    if w != default_params(w.kind, cfg):
        special = None
    elif w.kind is WindowKind.GAUSS:
        special = eps * (2.0 + math.sqrt((2.0 + 2.0 * lam) / (lam + 1.0 - 2.0 * tau)) * math.sqrt(m))
    elif w.kind is WindowKind.BSPLINE:
        special = eps * (2.0 + 1.5 * math.sqrt(m))
    elif w.kind is WindowKind.SINH:
        special = eps * (
            2.0
            + math.sqrt((2.0 + 2.0 * lam) / (1.0 + lam - 2.0 * tau))
            / (-math.expm1(-2.0 * w.beta))
            * math.sqrt(m)
        )
    else:
        special = None
    return RobustnessBound(generic, special)


@dataclass(frozen=True)
class BoundReport:
    """All error constants of one (window, config) cell; robustness is robust.value."""

    e1: float
    e2: float
    closed_form: float | None
    robust: RobustnessBound
    eta_max: float

    @property
    def robustness(self) -> float:
        return self.robust.value


def compute_report(w: WindowSpec, cfg: SamplingConfig, eps: float = 1e-3) -> BoundReport:
    """Evaluate E1, E2, the closed-form constant (None where closed_form_bound
    gives none) and both robustness bounds."""
    robust = robustness_bound(w, cfg, eps)
    e1 = e1_numeric(w, cfg)
    return BoundReport(e1, e2_numeric(w, cfg), closed_form_bound(w, cfg), robust, e1 / math.sqrt(2.0 * cfg.delta))
