"""Regularized sinc kernel psi = sinc(L*pi*x) * phi(x) and its Fourier
transform.

For each window the transform of psi is the window transform averaged over a
frequency band of width L,

    psihat(v) = (1/L) * int_{v-L/2}^{v+L/2} phihat(u) du
              = (T(v-L/2) - T(v+L/2)) / L,

where T(x) = int_x^inf phihat(u) du is the window-transform tail.  T is the
one primitive behind every band quantity of the package (psihat here, eta
and the E1 constants in bounds).  kernel_band_tail evaluates it vectorized:
in closed form for rect (sine integral) and Gaussian (erfc), and by
cumulative Gauss-Legendre sums of the closed-form phihat for B-spline and
sinh.  A direct quadrature oracle of psi itself, independent of T, is
provided for cross-validation.  Tail bounds quantify essential
bandlimitation: psihat is negligible outside [-L(1+eps)/2, L(1+eps)/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .windows import SamplingConfig, WindowKind, WindowSpec, bspline_center_value, eval_truncated, eval_window


class WrongKind(ValueError):
    """Operation applied to a window kind it does not support."""


class EpsilonOutOfRange(ValueError):
    """Tail-bound band enlargement eps outside the bound's validity range."""


class NonFiniteInput(ValueError):
    """A frequency, a target point or a sample value is NaN or infinite."""


def check_finite(what: str, x) -> None:
    """Raise NonFiniteInput unless every entry of ``x`` is finite."""
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteInput(f"{what} must be finite, got {float(x[~finite].ravel()[0])!r}")


def sinc(x, out=None):
    """sin(x)/x with sinc(0) = 1.

    For |x| < 1e-4 the truncated Taylor series 1 - x^2/6 + x^4/120 is used;
    its truncation error there is below 1e-28.  The result goes to ``out``
    if given (not ``x`` itself), else to a new array: sin and the division
    run in place there, and only the few small entries are overwritten with
    the series.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    small = np.abs(x, out=out) < 1e-4
    np.sin(x, out=out)
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, replaced below
        np.divide(out, x, out=out)
    if small.any():
        xs = x[small]
        x2 = xs * xs
        out[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelEval:
    """A (window, sampling config) pair, the evaluable regularized kernel."""

    window: WindowSpec
    cfg: SamplingConfig


def psi(k: KernelEval, x, out=None):
    """Truncated regularized sinc: sinc(L*pi*x) * phi_m(x).

    psi(0) = 1 and psi(l/L) = 0 for integer l != 0, so reconstruction with
    psi interpolates the samples.  Zero outside [-m/L, m/L].  The result
    goes to ``out`` if given (not ``x`` itself), else to a new array.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    arg = np.multiply(x, k.cfg.L * math.pi, out=np.empty_like(x))
    sinc(arg, out=out)
    out *= eval_truncated(k.window, k.cfg, x, out=arg)
    return out if out.ndim else float(out)


def ft_window(w: WindowSpec, cfg: SamplingConfig, v):
    """Closed-form window transform phihat(v).  Vectorized over v.

    rect:    (2m/L) * sinc(2*pi*m*v/L)
    gauss:   sqrt(2*pi)*sigma * exp(-2*pi^2*sigma^2*v^2)
    bspline: m/(s*L*M_{2s}(0)) * sinc(pi*v*m/(s*L))^{2s}
    sinh:    pi*m*beta/(L*sinh(beta)) * B(w),  w = 2*pi*m*v/L, where B is
             J1(sqrt(w^2-beta^2))/sqrt(w^2-beta^2) for |w| > beta,
             I1(sqrt(beta^2-w^2))/sqrt(beta^2-w^2) for |w| < beta, and the
             common limit 1/2 at w = +-beta.  Evaluated through the scaled
             Bessel function so large beta cannot overflow.
    """
    scalar = np.ndim(v) == 0
    v = np.atleast_1d(np.asarray(v, dtype=float))
    L, m = cfg.L, cfg.m
    if w.kind is WindowKind.RECT:
        out = (2.0 * m / L) * sinc(2.0 * math.pi * m * v / L)
    elif w.kind is WindowKind.GAUSS:
        s2 = w.sigma * w.sigma
        out = math.sqrt(2.0 * math.pi) * w.sigma * np.exp(-2.0 * math.pi**2 * s2 * v * v)
    elif w.kind is WindowKind.BSPLINE:
        out = (m / (w.s * L * bspline_center_value(w.s))) * sinc(math.pi * v * m / (w.s * L)) ** (2 * w.s)
    else:
        beta = w.beta
        ww = 2.0 * math.pi * m * v / L
        x2 = ww * ww - beta * beta
        # pref = pi*m*beta/(L*sinh(beta)), written overflow-free
        pref = 2.0 * math.pi * m * beta * math.exp(-beta) / (L * (-math.expm1(-2.0 * beta)))
        prefe = 2.0 * math.pi * m * beta / (L * (-math.expm1(-2.0 * beta)))
        out = np.full(v.shape, pref * 0.5)  # the limit, kept where |x2| < 1e-10
        j, i = x2 >= 1e-10, x2 <= -1e-10  # each Bessel branch only where it applies
        xj, xi = np.sqrt(x2[j]), np.sqrt(-x2[i])
        out[j] = pref * (specfun.bessel_j1(xj) / xj)
        # I1(x)/x * e^{-beta} = i1e(x) * e^{x-beta} / x
        out[i] = prefe * (specfun.bessel_i1_scaled(xi) * np.exp(xi - beta) / xi)
    return float(out[0]) if scalar else out


def _cumulative(f, nodes, max_width: float) -> np.ndarray:
    """int_{min(nodes)}^e f for each e in ``nodes`` (any order), from one
    gl_cumulative pass over the sorted nodes."""
    order = np.argsort(nodes, kind="stable")
    cum = np.empty_like(nodes)
    cum[order] = specfun.gl_cumulative(f, nodes[order], max_width)
    return cum


def _tail(f, starts, total: float, max_width: float) -> np.ndarray:
    """int_e^inf f for each e >= 0 in ``starts``, given int_0^inf f = total.

    The integrals are accumulated downward from the largest start point, so
    a difference of two tails is as accurate as the tails themselves even
    where both are far below ``total`` (the image bands of psihat).
    """
    back = _cumulative(lambda t: f(-t), -np.concatenate([[0.0], starts]), max_width)
    return (total - back[0]) + back[1:]


def kernel_band_tail(w: WindowSpec, cfg: SamplingConfig, x):
    """Window-transform tail T(x) = int_x^inf phihat(u) du for any real x.

    phihat is even and integrates to phi(0) = 1, so T(0) = 1/2 and
    T(-x) = 1 - T(x); the tail is evaluated at |x| and reflected.  Every band
    quantity is a difference of tails, e.g. psihat(v) = (T(v-L/2) -
    T(v+L/2))/L.  Vectorized over x; one pass per call whatever the size.

    rect:    1/2 - Si(2*pi*m*x/L)/pi
    gauss:   erfc(sqrt(2)*pi*sigma*x)/2
    bspline: (1/(pi*M)) * int_Y^inf (sin y/y)^{2s} dy, Y = pi*m*x/(s*L),
             M = M_{2s}(0); the half-line total is pi*M/2
    sinh:    in the scaled frequency W = 2*pi*m*x/L, with p = beta/(2*sinh
             beta) and T at W = beta equal to e^-beta/(1+e^-beta):
             W >= beta: p * int_Z^inf J1(z)/sqrt(beta^2+z^2) dz,
                        Z = sqrt(W^2-beta^2)  (w = beta*cosh t, z = beta*sinh t;
                        the half-line total is (1-e^-beta)/beta)
             W <  beta: T(beta) + p * int_0^{arccos(W/beta)} I1(beta*sin f) df
                        (w = beta*cos f)
             Every factor carries e^-beta, so nothing overflows for large beta.

    The bspline and sinh integrals are cumulative Gauss-Legendre sums
    (specfun.gl_cumulative) over all end points at once.  Their panel widths
    meet its condition omega*max_width <= 13.95: (sin y/y)^{2s} is
    bandlimited to omega = 2s (width 0.3), J1(z)/sqrt(beta^2+z^2) oscillates
    at omega near 1 (width 0.5), and the I1 integrand varies on the scale
    1/beta in f (width 0.05).
    """
    scalar = np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    check_finite("x", x)
    a = np.abs(x).ravel()
    L, m = cfg.L, cfg.m
    if w.kind is WindowKind.RECT:
        from scipy.special import sici

        t = 0.5 - sici(2.0 * math.pi * m * a / L)[0] / math.pi
    elif w.kind is WindowKind.GAUSS:
        t = 0.5 * specfun.erfc(math.sqrt(2.0) * math.pi * w.sigma * a)
    elif w.kind is WindowKind.BSPLINE:
        s = w.s
        half = math.pi * bspline_center_value(s) / 2.0
        t = _tail(lambda y: sinc(y) ** (2 * s), math.pi * m * a / (s * L), half, 0.3) / (2.0 * half)
    else:
        beta = w.beta
        W = 2.0 * math.pi * m * a / L
        pref = beta * math.exp(-beta) / (-math.expm1(-2.0 * beta))  # beta/(2 sinh beta)
        scale = beta / (-math.expm1(-2.0 * beta))  # pref * e^beta
        t = np.empty(a.shape)
        above = W >= beta
        t[above] = pref * _tail(
            lambda z: specfun.bessel_j1(z) / np.sqrt(beta * beta + z * z),
            np.sqrt(W[above] ** 2 - beta * beta), -math.expm1(-beta) / beta, 0.5,
        )
        # I1(beta*sin f) * pref = scale * i1e(beta*sin f) * e^{-beta*(1 - sin f)}
        t[~above] = math.exp(-beta) / (1.0 + math.exp(-beta)) + _cumulative(
            lambda f: scale * specfun.bessel_i1_scaled(beta * np.sin(f)) * np.exp(-beta * (1.0 - np.sin(f))),
            np.concatenate([[0.0], np.arccos(W[~above] / beta)]), 0.05,
        )[1:]
    out = np.where(x.ravel() < 0, 1.0 - t, t).reshape(x.shape)
    return float(out) if scalar else out


def ft_psi(k: KernelEval, v):
    """psihat(v) = (T(|v|-L/2) - T(|v|+L/2))/L for every window kind, from
    one kernel_band_tail call.  Evaluating at |v| keeps it exactly even.
    Vectorized over v."""
    scalar = np.ndim(v) == 0
    check_finite("v", v)
    a = np.abs(np.asarray(v, dtype=float)).ravel()
    half = k.cfg.L / 2.0
    t = kernel_band_tail(k.window, k.cfg, np.concatenate([a - half, a + half]))
    out = ((t[: a.size] - t[a.size :]) / k.cfg.L).reshape(np.shape(v))
    return float(out) if scalar else out


def ft_psi_quadrature(k: KernelEval, v):
    """Direct quadrature reference for psihat: 2*int_0^R psi(x)*cos(2*pi*v*x) dx,
    to 1e-11 absolute and relative tolerance.

    For the Gaussian the untruncated product sinc * phi is integrated (that
    is what the closed form describes) with the support cut at
    R = max(m/L, 12*sigma), where the Gaussian factor is below 1e-31; the
    compact windows use R = m/L.  Slow; intended for cross-validation only.
    """
    varr = np.atleast_1d(np.asarray(v, dtype=float))
    cfg, w = k.cfg, k.window
    if w.kind is WindowKind.GAUSS:
        R = max(cfg.m / cfg.L, 12.0 * w.sigma)

        def integrand(x, vv):
            return float(sinc(cfg.L * math.pi * x)) * float(eval_window(w, cfg, x)) * math.cos(2.0 * math.pi * vv * x)
    else:
        R = cfg.m / cfg.L

        def integrand(x, vv):
            return float(psi(k, x)) * math.cos(2.0 * math.pi * vv * x)

    q = specfun.Quadrature(abs_tol=1e-11, rel_tol=1e-11)
    out = np.array([
        2.0 * specfun.integrate(lambda x: integrand(x, vv), 0.0, R, q).value
        for vv in varr
    ])
    return out if np.ndim(v) else float(out[0])


def tail_bound(k: KernelEval, epsilon: float) -> float:
    """Upper bound on |psihat(v)| for |v| >= L*(1+eps)/2.

    gauss   (eps in (0,1)):    exp(-pi^2 sigma^2 L^2 eps^2 / 2)
                               / (sqrt(2 pi) L^2 pi sigma eps)
    bspline (eps > 2s/(m pi)): (2s/(eps m pi))^{2s-1}
                               / ((2s-1) pi L M_{2s}(0))
    sinh    (eps >= 4s/m, s = beta(1+lam)/(pi(1+2 lam))):
                               5 sqrt(2 s beta) / (4 L sqrt(m eps) sinh beta)
    """
    w, cfg = k.window, k.cfg
    L, m = cfg.L, cfg.m
    if w.kind is WindowKind.GAUSS:
        if not 0.0 < epsilon < 1.0:
            raise EpsilonOutOfRange(f"gauss tail bound needs eps in (0,1), got {epsilon!r}")
        sig = w.sigma
        return math.exp(-math.pi**2 * sig * sig * L * L * epsilon * epsilon / 2.0) / (
            math.sqrt(2.0 * math.pi) * L * L * math.pi * sig * epsilon
        )
    if w.kind is WindowKind.BSPLINE:
        s = w.s
        if not epsilon > 2.0 * s / (m * math.pi):
            raise EpsilonOutOfRange(
                f"bspline tail bound needs eps > 2s/(m*pi) = {2.0 * s / (m * math.pi):g}, got {epsilon!r}"
            )
        return (2.0 * s / (epsilon * m * math.pi)) ** (2 * s - 1) / (
            (2 * s - 1) * math.pi * L * bspline_center_value(s)
        )
    if w.kind is WindowKind.SINH:
        beta = w.beta
        s = beta * (1.0 + cfg.lam) / (math.pi * (1.0 + 2.0 * cfg.lam))
        if not epsilon >= 4.0 * s / m:
            raise EpsilonOutOfRange(
                f"sinh tail bound needs eps >= 4s/m = {4.0 * s / m:g}, got {epsilon!r}"
            )
        # 1/sinh(beta) = 2 e^-beta / (1 - e^-2beta)
        inv_sinh = 2.0 * math.exp(-beta) / (-math.expm1(-2.0 * beta))
        return 5.0 * math.sqrt(2.0 * s * beta) * inv_sinh / (4.0 * L * math.sqrt(m * epsilon))
    raise WrongKind("no tail bound for the rect window")
