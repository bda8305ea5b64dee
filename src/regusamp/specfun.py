"""Special functions and quadrature backing the window/kernel/bound layers.

Everything here is a pure function of its arguments; all evaluators accept
scalars or numpy arrays and broadcast elementwise.  The complementary error
function and the Bessel functions are delegated to scipy.special (Cephes /
AMOS), which meets the accuracy targets of this package (erfc absolute error
<= 1e-15, J1/I1 relative error <= 1e-12 away from their zeros); scipy's J1
is odd bit for bit.  scipy.special loads on the first call of erfc, J1 or
I1e, so importing the package and reconstructing never load it.  The
centered cardinal B-spline (piecewise Horner on exact piece coefficients),
its exact center values and the Eulerian numbers are implemented here
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np


class InvalidOrder(ValueError):
    """B-spline order must be an even integer >= 2."""


class InvalidRange(ValueError):
    """Eulerian number index out of the valid range 1 <= k <= n."""


class NoConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


def erfc(x):
    """Complementary error function 1 - erf(x)."""
    from scipy.special import erfc as sp_erfc

    x = np.asarray(x, dtype=float)
    out = sp_erfc(x)
    return out if out.ndim else float(out)


def bessel_j1(x):
    """Bessel function of the first kind J1(x)."""
    from scipy.special import j1

    x = np.asarray(x, dtype=float)
    out = j1(x)
    return out if out.ndim else float(out)


def bessel_i1_scaled(x):
    """Exponentially scaled I1: exp(-|x|) * I1(x).  Safe for all finite x."""
    from scipy.special import i1e

    x = np.asarray(x, dtype=float)
    out = i1e(x)
    return out if out.ndim else float(out)


def cardinal_bspline(order_2s, x, out=None):
    """Centered cardinal B-spline M_{2s}(x) of even order ``order_2s``.

    M_{2s} is supported on [-s, s] and is a polynomial of degree 2s-1 on each
    unit piece between the integer knots.  It is evaluated in the distance
    to the support edge, w = s - |x|: on piece p = floor(w) (clipped to
    0..s-1) it is a polynomial in the local variable u = w - p, evaluated by
    Horner's rule with the coefficients of :func:`_bspline_pieces`.  Only
    |x| enters, so the result is exactly even; the outermost piece is
    u^{2s-1}/(2s-1)!, so values near the edge carry no cancellation; the
    result is exactly 0 for |x| >= s.  NaN propagates.

    The result goes to ``out`` if given, which may be ``x`` itself, else to
    a new array.
    """
    order = int(order_2s)
    if order != order_2s or order < 2 or order % 2:
        raise InvalidOrder(f"order must be an even integer >= 2, got {order_2s!r}")
    s = order // 2
    coef = _bspline_pieces(s)
    x = np.asarray(x, dtype=float)
    u = np.abs(x, out=np.empty_like(x))
    np.subtract(s, u, out=u)  # w = s - |x|
    # fmax maps NaN to piece 0, where u keeps the NaN; |x| >= s gives u = 0.
    p = np.fmax(u, 0.0, out=np.empty_like(x))
    np.minimum(p, s - 1, out=p)
    np.floor(p, out=p)
    np.subtract(u, p, out=u)
    np.maximum(u, 0.0, out=u)
    piece = p.astype(np.intp)
    # Horner's rule; p is spent, so it holds each row's gathered
    # coefficients (mode="clip" lets take write into its out unbuffered:
    # piece is in 0..s-1).
    out = coef[-1].take(piece, out=out, mode="clip")
    for row in coef[-2::-1]:
        out *= u
        out += row.take(piece, out=p, mode="clip")
    return out if out.ndim else float(out)


@lru_cache(maxsize=64)
def _bspline_pieces(s: int) -> np.ndarray:
    """Piece coefficients of M_{2s}, rounded once from exact rationals.

    Row k, column p holds the coefficient of u^k on piece p, where
    w = s - |x| = p + u with 0 <= u <= 1.  They come from the truncated-power
    form M_{2s}(x) = (1/(2s-1)!) sum_i (-1)^i C(2s, i) (w - i)_+^{2s-1}: on
    piece p the terms i = 0..p are active, and (p - i + u)^{2s-1} is expanded
    binomially in Fraction arithmetic.  The array is read-only.
    """
    n = 2 * s - 1
    scale = Fraction(1, factorial(n))
    coef = np.empty((n + 1, s))
    for p in range(s):
        for k in range(n + 1):
            total = sum(
                (-1) ** i * comb(2 * s, i) * (p - i) ** (n - k) for i in range(p + 1)
            )
            coef[k, p] = float(comb(n, k) * total * scale)
    coef.setflags(write=False)
    return coef


def m2s_at_zero(s):
    """Exact center value M_{2s}(0) as a Fraction.

    M_{2s}(0) = E(2s-1, s-1) / (2s-1)!, the Eulerian number from
    eulerian_number(2s - 1, s) in exact integer arithmetic; the
    floating-point form of its alternating sum has catastrophic cancellation
    for large s.
    """
    s = int(s)
    if s < 1:
        raise InvalidRange(f"s must be >= 1, got {s}")
    return Fraction(eulerian_number(2 * s - 1, s), factorial(2 * s - 1))


def eulerian_number(n, k):
    """Eulerian number E(n, k-1): permutations of 1..n with k-1 ascents.

    Exact integer; satisfies M_{2s}(0) = E(2s-1, s-1) / (2s-1)!.
    """
    n = int(n)
    k = int(k)
    if k < 1 or k > n:
        raise InvalidRange(f"need 1 <= k <= n, got n={n}, k={k}")
    return sum((-1) ** j * comb(n + 1, j) * (k - j) ** n for j in range(k))


@dataclass(frozen=True)
class Quadrature:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float


def integrate(f, a, b, q=Quadrature(), points=None):
    """Adaptive quadrature of ``f`` over [a, b] to the tolerances in ``q``.

    Backed by QUADPACK's globally adaptive Gauss-Kronrod scheme (21-point
    rule on each panel).  ``points`` may list interior break points such as
    removable singularities, so that no panel straddles them.  Returns an
    IntegralResult with the estimate and the achieved error estimate; raises
    NoConvergence when the subdivision budget is exhausted or QUADPACK gives
    up before meeting the tolerances.
    """
    # Only the quadrature oracles integrate, so scipy.integrate stays off the
    # import path of the package.
    from scipy import integrate as sci_integrate

    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return IntegralResult(0.0, 0.0)
    pts = None
    if points is not None:
        pts = [p for p in points if a < p < b]
        pts = pts or None
    out = sci_integrate.quad(
        f, a, b,
        epsabs=q.abs_tol, epsrel=q.rel_tol, limit=q.max_subdivisions,
        points=pts, full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:  # (value, err, infodict, message[, explain])
        raise NoConvergence(f"quadrature on [{a:g}, {b:g}] did not converge: {out[3]}")
    if not (err <= max(q.abs_tol, q.rel_tol * abs(value)) * 50):
        # QUADPACK reported success but the error estimate is far off target.
        raise NoConvergence(
            f"quadrature on [{a:g}, {b:g}] reached error {err:g} only"
        )
    return IntegralResult(float(value), float(err))


def _gl_resolved_width(n: int) -> float:
    """Largest omega*h at which the n-point Gauss-Legendre remainder on a
    panel of width h stays below C*h*2^-53 for |f^(2n)| <= C*omega^(2n)."""
    remainder = factorial(n) ** 4 / ((2 * n + 1) * factorial(2 * n) ** 3)
    return (2.0**-53 / remainder) ** (1.0 / (2 * n))


# Orders of the cumulative rule: wide panels, and panels narrower than
# _NARROW_PANEL * max_width.
_GL_WIDE, _GL_NARROW = 15, 5
_NARROW_PANEL = _gl_resolved_width(_GL_NARROW) / _gl_resolved_width(_GL_WIDE)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gl_cumulative(f, nodes, max_width):
    """Cumulative integrals of ``f`` from nodes[0] to each node.

    Gauss-Legendre panels between consecutive nodes, with gaps wider than
    ``max_width`` split into uniform panels no wider than it.  ``nodes``
    must be finite and sorted ascending; ``f`` must be vectorized.  Returns
    an array aligned with ``nodes``.  This is the bulk-evaluation companion
    of :func:`integrate` for the error-constant grids, where thousands of
    cumulative values of one smooth integrand are needed at once.

    The order follows the panel width.  The n-point remainder on a panel of
    width h is h^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) * f^(2n)(xi).  For an
    integrand with |f^(k)| <= C*omega^k (Bernstein's inequality gives this
    for f bandlimited to omega) it is at most C*h*2^-53, rounding level,
    while omega*h <= theta_n; theta_15 = 13.95 and theta_5 = 0.4415.  The
    caller picks ``max_width`` so that the 15-point rule resolves a full
    panel, omega*max_width <= theta_15.  A panel narrower than
    max_width*theta_5/theta_15 (max_width/31.6) then has omega*h <= theta_5,
    so 5 points meet the same bound; wider panels get 15.  eta on a
    4097-point grid of the band gives gaps of about max_width/1000.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("nodes must be a 1-D array with at least one entry")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes must be finite")
    gap = np.diff(nodes)
    if np.any(gap < 0):
        raise ValueError("nodes must be sorted ascending")
    if nodes.size == 1:
        return np.zeros(1)
    # Panel grid: gap i is split into nsub[i] uniform panels, whose points
    # nodes[i] + gap*k/nsub for k = 1..nsub sit at grid positions
    # ends[i]-nsub[i]+1 .. ends[i].  The last one is set to nodes[i+1]
    # itself, so every node lies exactly on the grid, at position ends[i].
    nsub = np.maximum(1, np.ceil(gap / max_width)).astype(np.int64)
    ends = np.cumsum(nsub)
    owner = np.repeat(np.arange(gap.size), nsub)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - nsub, nsub)
    grid = np.empty(ends[-1] + 1)
    grid[0] = nodes[0]
    grid[1:] = nodes[owner] + gap[owner] * k / nsub[owner]
    grid[ends] = nodes[1:]
    lo, hi = grid[:-1], grid[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    narrow = half < 0.5 * _NARROW_PANEL * max_width
    panel = np.empty(half.size)
    for n, sel in ((_GL_NARROW, narrow), (_GL_WIDE, ~narrow)):
        if sel.all():
            sel = slice(None)
        elif not sel.any():
            continue
        x, w = _gauss_legendre(n)
        h = half[sel]
        panel[sel] = h * (f(mid[sel][:, None] + h[:, None] * x) @ w)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return cum[np.concatenate([[0], ends])]
