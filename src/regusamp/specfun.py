"""Special functions and quadrature backing the window/kernel/bound layers.

Everything here is a pure function of its arguments; all evaluators accept
scalars or numpy arrays and broadcast elementwise.  The complementary error
function and the Bessel functions are delegated to scipy.special (Cephes /
AMOS), which meets the accuracy targets of this package (erfc absolute error
<= 1e-15, J1/I1 relative error <= 1e-12 away from their zeros); the odd
symmetry of J1 is enforced by construction.  The centered cardinal B-spline
(piecewise Horner on exact piece coefficients), its exact center values and
the Eulerian numbers are implemented here directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
from scipy import special as _sp


class InvalidOrder(ValueError):
    """B-spline order must be an even integer >= 2."""


class InvalidRange(ValueError):
    """Eulerian number index out of the valid range 1 <= k <= n."""


class NoConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


def erfc(x):
    """Complementary error function 1 - erf(x)."""
    x = np.asarray(x, dtype=float)
    out = _sp.erfc(x)
    return out if out.ndim else float(out)


def bessel_j1(x):
    """Bessel function of the first kind J1(x); odd by construction."""
    x = np.asarray(x, dtype=float)
    out = _sp.j1(np.abs(x))
    out = np.where(x < 0, -out, out)
    return out if out.ndim else float(out)


def bessel_i1_scaled(x):
    """Exponentially scaled I1: exp(-|x|) * I1(x).  Safe for all finite x."""
    x = np.asarray(x, dtype=float)
    out = _sp.i1e(x)
    return out if out.ndim else float(out)


def cardinal_bspline(order_2s, x):
    """Centered cardinal B-spline M_{2s}(x) of even order ``order_2s``.

    M_{2s} is supported on [-s, s] and is a polynomial of degree 2s-1 on each
    unit piece between the integer knots.  It is evaluated in the distance
    to the support edge, w = s - |x|: on piece p = floor(w) (clipped to
    0..s-1) it is a polynomial in the local variable u = w - p, evaluated by
    Horner's rule with the coefficients of :func:`_bspline_pieces`.  Only
    |x| enters, so the result is exactly even; the outermost piece is
    u^{2s-1}/(2s-1)!, so values near the edge carry no cancellation; the
    result is exactly 0 for |x| >= s.  NaN propagates.
    """
    order = int(order_2s)
    if order != order_2s or order < 2 or order % 2:
        raise InvalidOrder(f"order must be an even integer >= 2, got {order_2s!r}")
    s = order // 2
    coef = _bspline_pieces(s)
    w = s - np.abs(np.asarray(x, dtype=float))
    # fmax maps NaN to piece 0, where u keeps the NaN; |x| >= s gives u = 0.
    p = np.floor(np.minimum(np.fmax(w, 0.0), s - 1))
    u = np.maximum(w - p, 0.0)
    piece = p.astype(np.intp)
    out = np.take(coef[-1], piece)
    for row in coef[-2::-1]:
        out = out * u + np.take(row, piece)
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

    Computed from the alternating binomial sum
    M_{2s}(0) = (1/(2s-1)!) * sum_{j=0}^{s-1} (-1)^j C(2s, j) (s-j)^{2s-1}
    in exact integer arithmetic; the floating-point form of this sum has
    catastrophic cancellation for large s.
    """
    s = int(s)
    if s < 1:
        raise InvalidRange(f"s must be >= 1, got {s}")
    num = sum((-1) ** j * comb(2 * s, j) * (s - j) ** (2 * s - 1) for j in range(s))
    return Fraction(num, factorial(2 * s - 1))


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


def gl_cumulative(f, nodes, max_width, order=15):
    """Cumulative integrals of ``f`` from nodes[0] to each node.

    Fixed-order Gauss-Legendre panels between consecutive nodes, with wide
    gaps subdivided to ``max_width`` so a panel never spans more than a
    fraction of the integrand's oscillation scale.  ``nodes`` must be finite
    and sorted ascending; ``f`` must be vectorized.  Returns an array aligned with
    ``nodes``.  This is the bulk-evaluation companion of :func:`integrate`
    for the error-constant grids, where thousands of cumulative values of
    one smooth integrand are needed at once.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("nodes must be a 1-D array with at least one entry")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes must be finite")
    if np.any(np.diff(nodes) < 0):
        raise ValueError("nodes must be sorted ascending")
    if nodes.size == 1:
        return np.zeros(1)
    xgl, wgl = np.polynomial.legendre.leggauss(order)
    # Refined panel grid: gap i between nodes[i] and nodes[i+1] is split into
    # nsub[i] uniform panels, whose points nodes[i] + gap*k/nsub for
    # k = 1..nsub sit at grid positions ends[i]-nsub[i]+1 .. ends[i].  The
    # last one is set to nodes[i+1] itself, so every original node lies
    # exactly on the grid, at position ends[i].
    gap = np.diff(nodes)
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
    samples = f(mid[:, None] + half[:, None] * xgl[None, :])
    panel = half * (samples @ wgl)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return cum[np.concatenate([[0], ends])]
