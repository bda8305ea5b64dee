"""Reference computations for the benchmark's correctness checks.

Nothing here imports regusamp.  The windows, the kernel, the 2m-term
reconstruction sum, the closed-form bounds and the noise streams are
written out from their definitions, so a fault in the package's special
functions or window code cannot hide in both sides of a comparison.  The
high-precision values (eta at the band edge, psihat, phihat(0), the
Gaussian E2 integral) come from mpmath quadrature of the closed-form window
transforms at 30 significant digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
from scipy.interpolate import BSpline

mpmath.mp.dps = 30

UNIT_ROUNDOFF = 2.0**-53

# Tolerances of the comparisons, fixed from the arithmetic before any run.
# A 2m-term sum evaluated in a different order, with window values that
# differ in their last bits, may differ by a few hundred roundoffs of the
# sum of the absolute terms (2m <= 20 terms, each carrying a window value
# and a sinc value with a few ulps of error).
SUM_TOL_ULPS = 256
# Constants that the package evaluates by double-precision quadrature
# (eta, psihat) are compared with mpmath to this absolute error relative to
# the quantity's natural scale (1 for eta, 1/L for psihat), ten times the
# package's own quadrature tolerance of 1e-12, plus this relative error of
# the value itself.
CONST_ABS_TOL = 1e-11
CONST_REL_TOL = 1e-9
# Closed forms evaluated in double precision on both sides.
CLOSED_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Shape parameters and windows, from the paper's definitions.

def shape_param(kind: str, N: int, lam: float, tau: float, m: int):
    """Default shape parameter: Gaussian sigma, B-spline half-order s or
    sinh beta (None for the rectangular window)."""
    L = round(N * (1.0 + lam))
    delta = tau * N
    if kind == "gauss":
        return math.sqrt(m / (math.pi * L * (L - 2.0 * delta)))
    if kind == "bspline":
        return (m + 2) // 2
    if kind == "sinh":
        return math.pi * m * (1.0 + lam - 2.0 * tau) / (1.0 + lam)
    return None


def _bspline_basis(s: int) -> BSpline:
    """Centered cardinal B-spline M_{2s}, knots -s..s (it integrates to 1)."""
    return BSpline.basis_element(np.arange(-s, s + 1, dtype=float), extrapolate=False)


def window(kind: str, p, L: int, m: int, x) -> np.ndarray:
    """Truncated window phi_m(x): zero outside [-m/L, m/L]."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= m / L
    if kind == "rect":
        return inside.astype(float)
    if kind == "gauss":
        return np.where(inside, np.exp(-x * x / (2.0 * p * p)), 0.0)
    if kind == "bspline":
        basis = _bspline_basis(p)
        val = np.nan_to_num(basis(L * x * p / m), nan=0.0)
        return np.where(inside, val / float(basis(0.0)), 0.0)
    r = L * x / m
    u = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
    return np.where(inside, np.sinh(p * u) / math.sinh(p), 0.0)


def kernel_rows(kind: str, p, L: int, m: int, t):
    """Sample indices l = k-m+1..k+m (k = floor(L t)) and kernel weights
    psi(t - l/L), psi(x) = sinc(L x) * phi_m(x), for each target.

    A target with L*t an integer gets a unit weight on its own sample, which
    is the interpolation property of the method.
    """
    t = np.asarray(t, dtype=float)
    Lt = L * t
    k = np.floor(Lt).astype(np.int64)
    ell = k[:, None] + np.arange(-m + 1, m + 1)[None, :]
    x = t[:, None] - ell / L
    weights = np.sinc(L * x) * window(kind, p, L, m, x)
    on = Lt == np.rint(Lt)
    weights[on] = 0.0
    weights[on, m - 1] = 1.0  # l = k
    return ell, weights


def rf_sum(values: np.ndarray, lo: int, ell: np.ndarray, weights: np.ndarray):
    """The plain 2m-term sum of f(l/L) psi(t - l/L) per target, and the sum
    of the absolute terms, which scales the rounding tolerance of any
    comparison with it.  ``values[i]`` is the sample at index lo + i."""
    terms = values[ell - lo] * weights
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def sum_tol(scale):
    return SUM_TOL_ULPS * UNIT_ROUNDOFF * np.asarray(scale)


# ---------------------------------------------------------------------------
# Test signals.

def sincsqband(delta: float, t):
    """delta sinc(delta pi t)^2: triangular spectrum, L2 norm sqrt(2 delta/3)."""
    return delta * np.sinc(delta * np.asarray(t, dtype=float)) ** 2


def sinc_series(delta: float, shift: float, coeffs: np.ndarray, t):
    """sqrt(2 delta) sum_k c_k sinc(2 delta pi (t - shift) - k pi).

    The terms are orthonormal in L2, so the norm is sqrt(sum c_k^2); the
    spectrum lies in [-delta, delta].
    """
    t = np.asarray(t, dtype=float)
    K = (len(coeffs) - 1) // 2
    k = np.arange(-K, K + 1)
    arg = 2.0 * delta * (t[..., None] - shift) - k
    return math.sqrt(2.0 * delta) * (np.sinc(arg) @ coeffs)


# ---------------------------------------------------------------------------
# Closed-form bounds, written out from the theorems.

def closed_form_bound(kind: str, N: int, lam: float, tau: float, m: int):
    """Uniform-error constant for the default shape parameter, or None where
    the B-spline theorem's condition tau/(1+lam) < 1/2 - 1/pi fails."""
    L = round(N * (1.0 + lam))
    delta = tau * N
    if kind == "rect":
        return L / math.pi * math.sqrt(2.0 / m + 1.0 / (m * m))
    if kind == "gauss":
        pre = (2.0 * math.sqrt(math.pi * delta * L) + L * (m + 1) / math.sqrt(m)) / (
            math.pi * math.sqrt(m * math.pi * (L - 2.0 * delta)))
        return pre * math.exp(-math.pi * m * (L / 2.0 - delta) / L)
    if kind == "bspline":
        if not tau / (1.0 + lam) < 0.5 - 1.0 / math.pi:
            return None
        s = (m + 2) // 2
        rate = math.log(math.pi * m * (1.0 + lam - 2.0 * tau) / (2.0 * s * (1.0 + lam)))
        return 3.0 * math.sqrt(delta * s) / ((2 * s - 1) * math.pi) * math.exp(-m * rate)
    beta = math.pi * m * (1.0 + lam - 2.0 * tau) / (1.0 + lam)
    return 3.0 * math.sqrt(2.0 * delta) * math.exp(-beta)


def robustness_specialized(kind: str, lam: float, tau: float, m: int, eps: float):
    """Window-specialized sqrt(m) noise-propagation bound (None for rect)."""
    if kind == "gauss":
        return eps * (2.0 + math.sqrt((2.0 + 2.0 * lam) / (lam + 1.0 - 2.0 * tau) * m))
    if kind == "bspline":
        return eps * (2.0 + 1.5 * math.sqrt(m))
    if kind == "sinh":
        beta = math.pi * m * (1.0 + lam - 2.0 * tau) / (1.0 + lam)
        return eps * (2.0 + math.sqrt((2.0 + 2.0 * lam) / (1.0 + lam - 2.0 * tau) * m)
                      / (1.0 - math.exp(-2.0 * beta)))
    return None


# ---------------------------------------------------------------------------
# Noise streams, as documented by the experiment harness: trial k of cell c
# in a plan with seed q draws n uniforms on (-eps, eps) from
# PCG64(SeedSequence((q, c, k))), one per sample l = index_lo..index_hi.

def noise(plan_seed: int, cell: int, trial: int, n: int, eps: float) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((plan_seed, cell, trial))))
    return eps * (2.0 * rng.random(n) - 1.0)


# ---------------------------------------------------------------------------
# High-precision values.

def _bspline_center_exact(s: int) -> Fraction:
    """M_{2s}(0) = A(2s-1, s-1)/(2s-1)! with the Eulerian number A taken
    from its triangle recurrence A(n,k) = (k+1)A(n-1,k) + (n-k)A(n-1,k-1)."""
    n = 2 * s - 1
    row = [1]
    for nn in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0) + (nn - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(nn)
        ]
    return Fraction(row[s - 1], factorial(n))


def _mp(x):
    return mpmath.mpf(x) if not isinstance(x, Fraction) else mpmath.mpf(x.numerator) / x.denominator


def phihat_mp(kind: str, p, L: int, m: int):
    """The window transform phihat(u) as an mpmath function, and a panel
    width for quadrature: the spacing of the zeros of its oscillating factor
    (None for the Gaussian)."""
    L, m = _mp(L), _mp(m)
    if kind == "rect":
        return (lambda u: 2 * m / L * mpmath.sinc(2 * mpmath.pi * m * u / L)), L / (2 * m)
    if kind == "gauss":
        sig = _mp(p)
        return (lambda u: mpmath.sqrt(2 * mpmath.pi) * sig
                * mpmath.exp(-2 * mpmath.pi**2 * sig**2 * u**2)), None
    if kind == "bspline":
        s = p
        M0 = _mp(_bspline_center_exact(s))
        return (lambda u: m / (s * L * M0) * mpmath.sinc(mpmath.pi * u * m / (s * L)) ** (2 * s)), s * L / m
    beta = _mp(p)
    pref = mpmath.pi * m * beta / (L * mpmath.sinh(beta))

    def f(u):
        w = 2 * mpmath.pi * m * u / L
        x2 = w * w - beta * beta
        if x2 > 0:
            x = mpmath.sqrt(x2)
            return pref * mpmath.besselj(1, x) / x
        if x2 < 0:
            x = mpmath.sqrt(-x2)
            return pref * mpmath.besseli(1, x) / x
        return pref / 2

    # J1 zeros are about pi apart in x, i.e. L/(2m) apart in u; half of that
    # keeps each panel within one lobe.
    return f, L / (4 * m)


def _band_integral(kind, p, L, m, v):
    """int_{v-L/2}^{v+L/2} phihat(u) du, in panels that split at the zeros
    of the oscillation and, for sinh, at the Bessel branch points."""
    f, width = phihat_mp(kind, p, L, m)
    a, b = _mp(v) - _mp(L) / 2, _mp(v) + _mp(L) / 2
    pts = {a, b}
    if width is not None:
        k = mpmath.ceil(a / width)
        while k * width < b:
            pts.add(k * width)
            k += 1
    if kind == "sinh":
        branch = _mp(p) * L / (2 * mpmath.pi * m)  # |w| = beta
        pts.update(x for x in (-branch, branch) if a < x < b)
    return mpmath.quad(f, sorted(x for x in pts if a <= x <= b))


def eta_mp(kind: str, p, L: int, m: int, v: float):
    """eta(v) = 1 - int_{v-L/2}^{v+L/2} phihat(u) du at 30 digits."""
    return 1 - _band_integral(kind, p, L, m, v)


def psihat_mp(kind: str, p, L: int, m: int, v: float):
    """psihat(v) = (1/L) int_{v-L/2}^{v+L/2} phihat(u) du at 30 digits."""
    return _band_integral(kind, p, L, m, v) / L


def phihat0_mp(kind: str, p, L: int, m: int):
    """phihat(0) = integral of the window over [-m/L, m/L], by quadrature of
    the window itself (not of a closed form of its integral)."""
    Lm, mm = _mp(L), _mp(m)
    a = mm / Lm
    if kind == "rect":
        return 2 * a
    if kind == "gauss":
        sig = _mp(p)
        return mpmath.quad(lambda x: mpmath.exp(-x * x / (2 * sig * sig)), [-mpmath.inf, 0, mpmath.inf])
    if kind == "bspline":
        s = p
        c = factorial(2 * s - 1)

        def M(y):
            return sum((-1) ** j * mpmath.binomial(2 * s, j) * max(y + s - j, 0) ** (2 * s - 1)
                       for j in range(2 * s + 1)) / c

        M0 = M(0)
        knots = [a * j / s for j in range(-s, s + 1)]
        return mpmath.quad(lambda x: M(Lm * x * s / mm) / M0, knots)
    beta = _mp(p)
    return mpmath.quad(lambda x: mpmath.sinh(beta * mpmath.sqrt(max(1 - (Lm * x / mm) ** 2, 0)))
                       / mpmath.sinh(beta), [-a, 0, a])


def e2_gauss_mp(p, L: int, m: int):
    """E2 = sqrt(2L)/(pi m) (phi(m/L)^2 + L int_{m/L}^inf phi^2)^(1/2) for
    the Gaussian window phi(x) = exp(-x^2/(2 sigma^2))."""
    sig, Lm, mm = _mp(p), _mp(L), _mp(m)
    phi = lambda x: mpmath.exp(-x * x / (2 * sig * sig))
    tail = mpmath.quad(lambda x: phi(x) ** 2, [mm / Lm, mpmath.inf])
    return mpmath.sqrt(2 * Lm) / (mpmath.pi * mm) * mpmath.sqrt(phi(mm / Lm) ** 2 + Lm * tail)
