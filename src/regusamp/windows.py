"""Window functions for regularized sinc reconstruction.

A window phi is an even function with phi(0) = 1, nonincreasing on [0, inf),
with an explicitly known Fourier transform.  Four families are provided:
rectangular, Gaussian, B-spline and sinh-type.  The shape parameters carry
the optimal defaults tied to the sampling configuration: the Gaussian width
balances the in-band and out-of-band transform tails, the B-spline half-order
grows like m/2, and the sinh shape grows linearly in m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import specfun


class InvalidConfig(ValueError):
    """A sampling configuration or window parameter outside its valid range."""


def _require_integer(name: str, x, least: int) -> None:
    """Raise InvalidConfig unless x is a whole number >= least, such as 3 or 3.0."""
    try:
        whole = float(x).is_integer()
    except OverflowError:  # an int beyond every float
        raise InvalidConfig(f"{name} is too large for a float") from None
    if not (whole and x >= least):
        raise InvalidConfig(f"{name} must be an integer >= {least}, got {x!r}")


def _require_scale(name: str, x) -> None:
    """Raise InvalidConfig unless 1e-150 <= x <= 1e150.  The window and its
    transform square x and scale the square by up to 2*pi**2; in this range
    the results are finite normal floats."""
    if not 0 < x < math.inf:
        raise InvalidConfig(f"{name} must be finite and > 0, got {x!r}")
    if not 1e-150 <= x <= 1e150:
        raise InvalidConfig(f"{name} must lie in [1e-150, 1e150], got {x!r}")


# Largest B-spline half-order.  The exact piece coefficients of M_{2s} take
# 0.3 s to build at s = 64 and about s**4 longer beyond (112 s at s = 256).
MAX_BSPLINE_S = 64


class WindowKind(str, Enum):
    RECT = "rect"
    GAUSS = "gauss"
    BSPLINE = "bspline"
    SINH = "sinh"


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling setup: bandwidth scale N, oversampling lam, bandwidth
    fraction tau, and truncation parameter m.

    Samples live on the grid (1/L)*Z with L = N*(1+lam); L must come out as
    an integer so the sample indices are well defined.  The reconstructed
    signals are bandlimited to [-delta, delta] with delta = tau*N < N/2.
    Localized evaluation uses 2m samples per point, which requires 2m <= L.
    """

    N: int
    lam: float
    tau: float
    m: int

    def __post_init__(self):
        _require_integer("N", self.N, 1)
        if not 0 <= self.lam < math.inf:
            raise InvalidConfig(f"lam must be finite and >= 0, got {self.lam!r}")
        if not 0.0 < self.tau < 0.5:
            raise InvalidConfig(f"tau must lie in (0, 1/2), got {self.tau!r}")
        _require_integer("m", self.m, 2)
        L_real = self.N * (1.0 + self.lam)
        L = round(L_real) if L_real < math.inf else 0
        if abs(L_real - L) > 1e-9 or L < 1:
            raise InvalidConfig(
                f"N*(1+lam) = {L_real!r} is not an integer; sample grid undefined"
            )
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "_L", int(L))
        if 2 * self.m > L:
            raise InvalidConfig(f"need 2m <= L, got m={self.m}, L={L}")
        if 2 * self.m > L / 4:
            warnings.warn(
                f"2m = {2 * self.m} exceeds L/4 = {L / 4:g}; the localized-sampling "
                "error analysis assumes 2m well below L",
                stacklevel=3,  # the caller of the dataclass __init__
            )

    @property
    def L(self) -> int:
        """Samples per unit length, L = N*(1+lam)."""
        return self._L

    @property
    def delta(self) -> float:
        """Bandwidth delta = tau*N."""
        return self.tau * self.N


# The one shape parameter of each window kind (None: the rect window has none).
SHAPE_PARAM = {
    WindowKind.RECT: None,
    WindowKind.GAUSS: "sigma",
    WindowKind.BSPLINE: "s",
    WindowKind.SINH: "beta",
}


@dataclass(frozen=True)
class WindowSpec:
    """A window family plus its single shape parameter.

    Exactly the parameter matching ``kind`` must be present: sigma for
    Gaussian (width, time units) and beta for sinh-type (dimensionless),
    each in [1e-150, 1e150]; s for B-spline (half-order, integer in
    2..MAX_BSPLINE_S).  The rectangular window has none.
    """

    kind: WindowKind
    sigma: float | None = None
    s: int | None = None
    beta: float | None = None

    def __post_init__(self):
        try:
            kind = WindowKind(self.kind)
        except ValueError:
            raise InvalidConfig(f"unknown window kind {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        present = {
            name: val
            for name, val in (("sigma", self.sigma), ("s", self.s), ("beta", self.beta))
            if val is not None
        }
        required = SHAPE_PARAM[kind]
        if required is None:
            if present:
                raise InvalidConfig(f"rect window takes no shape parameter, got {present}")
            return
        if set(present) != {required}:
            raise InvalidConfig(
                f"{kind.value} window needs exactly the parameter {required!r}, got {present}"
            )
        if required == "s":
            _require_integer("s", self.s, 2)
            if self.s > MAX_BSPLINE_S:
                raise InvalidConfig(f"s must be <= {MAX_BSPLINE_S}, got {self.s!r}")
            object.__setattr__(self, "s", int(self.s))
        else:
            _require_scale(required, getattr(self, required))


def default_params(kind, cfg: SamplingConfig) -> WindowSpec:
    """WindowSpec with the shape parameter set to its proven default.

    Gaussian: sigma = sqrt(m / (pi*L*(L - 2*delta))), which balances the
    regularization and truncation errors at a common exponential rate.
    B-spline: s = ceil((m+1)/2), making the polynomial decay order at least m;
    beyond m = 2*MAX_BSPLINE_S - 2 it exceeds MAX_BSPLINE_S.
    Sinh: beta = pi*m*(1+lam-2*tau)/(1+lam); this is the faster-decaying of
    the two admissible choices and the one used throughout the experiments.
    """
    kind = WindowKind(kind)
    if kind is WindowKind.RECT:
        return WindowSpec(kind)
    if kind is WindowKind.GAUSS:
        L = cfg.L
        sigma = math.sqrt(cfg.m / (math.pi * L * (L - 2.0 * cfg.delta)))
        return WindowSpec(kind, sigma=sigma)
    if kind is WindowKind.BSPLINE:
        return WindowSpec(kind, s=(cfg.m + 2) // 2)  # ceil((m+1)/2)
    beta = math.pi * cfg.m * (1.0 + cfg.lam - 2.0 * cfg.tau) / (1.0 + cfg.lam)
    return WindowSpec(WindowKind.SINH, beta=beta)


@lru_cache(maxsize=128)
def bspline_center_value(s: int) -> float:
    """float(M_{2s}(0)), cached; the B-spline normalization constant."""
    return float(specfun.m2s_at_zero(s))


def eval_window(w: WindowSpec, cfg: SamplingConfig, x):
    """The untruncated window phi(x).  Vectorized over x.

    rect:    indicator of the closed interval [-m/L, m/L]
    gauss:   exp(-x^2 / (2 sigma^2)), supported on all of R
    bspline: M_{2s}(L*x*s/m) / M_{2s}(0), zero outside [-m/L, m/L]
    sinh:    sinh(beta*sqrt(1-(Lx/m)^2)) / sinh(beta) on [-m/L, m/L], else 0

    The sinh ratio is evaluated as exp(beta*(u-1)) * (1-exp(-2*beta*u)) /
    (1-exp(-2*beta)) with u = sqrt(1-(Lx/m)^2), which never overflows.
    Each kind allocates its result once and works in place after that.
    """
    x = np.asarray(x, dtype=float)
    m_over_L = cfg.m / cfg.L
    if w.kind is WindowKind.RECT:
        out = np.abs(x, out=np.empty_like(x))
        np.less_equal(out, m_over_L, out=out)  # stored as 1.0 or 0.0
    elif w.kind is WindowKind.GAUSS:
        out = np.multiply(x, x, out=np.empty_like(x))
        np.negative(out, out=out)
        np.divide(out, 2.0 * w.sigma * w.sigma, out=out)
        np.exp(out, out=out)
    elif w.kind is WindowKind.BSPLINE:
        arg = np.multiply(x, cfg.L, out=np.empty_like(x))
        arg *= w.s
        arg /= cfg.m
        out = np.asarray(specfun.cardinal_bspline(2 * w.s, arg))
        out /= bspline_center_value(w.s)
    else:
        r = np.multiply(x, cfg.L, out=np.empty_like(x))
        r /= cfg.m
        u = np.multiply(r, r, out=np.empty_like(r))
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        np.sqrt(u, out=u)
        beta = w.beta
        out = np.subtract(u, 1.0, out=np.empty_like(u))
        out *= beta
        np.exp(out, out=out)
        u *= -2.0 * beta
        np.expm1(u, out=u)
        np.negative(u, out=u)
        out *= u
        out /= -math.expm1(-2.0 * beta)
        out[~(np.abs(r, out=r) <= 1.0)] = 0.0  # as np.where: NaN maps to 0
    return out if out.ndim else float(out)


def eval_truncated(w: WindowSpec, cfg: SamplingConfig, x):
    """The truncated window phi_m(x) = phi(x) * 1_[-m/L, m/L](x).

    Identical to eval_window except for the Gaussian, whose infinite support
    is clipped here.  The indicator is closed, so the rectangular window is
    1 at |x| = m/L while B-spline and sinh are 0 there by continuity.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(eval_window(w, cfg, x), dtype=float)
    if w.kind is WindowKind.GAUSS:
        out[~(np.abs(x) <= cfg.m / cfg.L)] = 0.0  # as np.where: NaN maps to 0
    return out if out.ndim else float(out)

