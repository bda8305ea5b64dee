"""Special-function layer: series oracles, exact values, quadrature."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from regusamp import specfun
from regusamp.specfun import (
    InvalidOrder,
    InvalidRange,
    NoConvergence,
    Quadrature,
    bessel_j1,
    cardinal_bspline,
    eulerian_number,
    integrate,
    m2s_at_zero,
)

# ---------------------------------------------------------------------------
# Independent oracles: power series summed in exact rational arithmetic, so
# they share no code or rounding behavior with the implementations they check.


def erf_series(x: float) -> float:
    """erf(x) = (2/sqrt(pi)) * sum (-1)^n x^(2n+1) / (n! (2n+1)), exact sum."""
    xf = Fraction(x)
    total = Fraction(0)
    term = xf  # x^(2n+1)/n! at n=0
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += (-1) ** n * contrib
        if abs(contrib) < Fraction(1, 10**30):
            break
        n += 1
        term = term * xf * xf / n
    return 2.0 / math.sqrt(math.pi) * float(total)


def j1_series(x: float) -> float:
    """J1(x) = sum (-1)^k (x/2)^(2k+1) / (k! (k+1)!), exact sum."""
    half = Fraction(x) / 2
    total = Fraction(0)
    term = half  # (x/2)^(2k+1)/(k!(k+1)!) at k=0
    k = 0
    while True:
        total += (-1) ** k * term
        if abs(term) < Fraction(1, 10**30):
            break
        k += 1
        term = term * half * half / (k * (k + 1))
    return float(total)


def i1_series(x: float) -> float:
    """I1(x): the J1 series with the alternating signs removed (J1(ix) = i*I1(x))."""
    half = Fraction(x) / 2
    total = Fraction(0)
    term = half
    k = 0
    while True:
        total += term
        if term < Fraction(1, 10**30) * (total if total else 1):
            break
        k += 1
        term = term * half * half / (k * (k + 1))
    return float(total)


def erf(x):
    """erf as the package evaluates it: 1 - erfc(x)."""
    return 1.0 - specfun.erfc(x)


def bessel_i1(x):
    """I1 as the package evaluates it: the exponentially scaled I1 times e^x."""
    return specfun.bessel_i1_scaled(x) * np.exp(x)


def ascent_count(perm) -> int:
    return sum(perm[i] < perm[i + 1] for i in range(len(perm) - 1))


# ---------------------------------------------------------------------------
# erf, through erfc


def test_erf_at_zero():
    assert erf(0.0) == 0.0


def test_erf_saturates():
    assert abs(erf(6.0) - 1.0) <= 1e-15


def test_erf_at_one():
    assert abs(erf(1.0) - 0.8427007929497149) <= 1e-15
    assert abs(erf(1.0) - erf_series(1.0)) <= 1e-15


def test_erf_matches_series():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-2.5, 2.5, 25):
        assert abs(erf(float(x)) - erf_series(float(x))) <= 1e-14


def test_erf_odd_increasing_bounded():
    rng = np.random.default_rng(5)
    x = rng.uniform(-6.0, 6.0, 1000)
    vals = erf(x)
    # erf rounds to exactly 1.0 in double precision beyond |x| ~ 5.86.
    assert np.all(np.abs(vals) <= 1.0)
    inner = np.abs(x) <= 5.5
    assert np.all(np.abs(vals[inner]) < 1.0)
    xs = np.sort(x)
    sorted_vals = erf(xs)
    assert np.all(np.diff(sorted_vals) >= 0)
    strict = (np.abs(xs[:-1]) <= 5.5) & (np.abs(xs[1:]) <= 5.5)
    assert np.all(np.diff(sorted_vals)[strict] > 0)


# ---------------------------------------------------------------------------
# Bessel J1, and I1 through the scaled I1


def test_j1_at_zero():
    assert bessel_j1(0.0) == 0.0


def test_j1_small_argument_leading_term():
    x = 1e-6
    assert abs(bessel_j1(x) / x - 0.5) <= 1e-10


def test_j1_at_one():
    assert abs(bessel_j1(1.0) - 0.4400505857449335) <= 1e-15
    assert abs(bessel_j1(1.0) - j1_series(1.0)) <= 1e-15


def test_j1_matches_series_away_from_zeros():
    rng = np.random.default_rng(7)
    checked = 0
    for x in rng.uniform(0.05, 12.0, 60):
        ref = j1_series(float(x))
        if abs(ref) < 1e-2:  # relative error is ill-posed at the zeros
            continue
        assert abs(bessel_j1(float(x)) - ref) <= 1e-12 * abs(ref)
        checked += 1
    assert checked > 30


def test_j1_odd():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 40.0, 200)
    assert np.array_equal(bessel_j1(-x), -bessel_j1(x))


def test_j1_envelope_bound():
    # |J1(x)| < 1/sqrt(x) on (0, 1e4]; numerical check on a dense grid.
    x = np.geomspace(1e-3, 1e4, 200_000)
    assert np.all(np.abs(bessel_j1(x)) * np.sqrt(x) < 1.0)


def test_i1_at_zero():
    assert bessel_i1(0.0) == 0.0


def test_i1_at_one():
    assert abs(bessel_i1(1.0) - 0.5651591039924851) <= 1e-15
    assert abs(bessel_i1(1.0) - i1_series(1.0)) <= 1e-15


def test_i1_matches_removed_sign_j1_series():
    # J1(ix) = i*I1(x): the I1 series is the J1 series with signs removed.
    rng = np.random.default_rng(9)
    for x in rng.uniform(0.01, 20.0, 40):
        ref = i1_series(float(x))
        assert abs(bessel_i1(float(x)) - ref) <= 1e-12 * abs(ref)


def test_i1_exponential_bound():
    # sqrt(2 pi x) e^-x I1(x) < 1 (the anchor used by the sinh-window bounds).
    for x in (0.5, 2.0, 10.0, 50.0, 300.0):
        assert math.sqrt(2.0 * math.pi * x) * math.exp(-x) * bessel_i1(x) < 1.0


def test_i1_scaled_consistency():
    for x in (0.3, 5.0, 40.0):
        assert abs(specfun.bessel_i1_scaled(x) - math.exp(-x) * i1_series(x)) <= 1e-15


# ---------------------------------------------------------------------------
# Cardinal B-splines


def test_bspline_center_values():
    assert cardinal_bspline(2, 0.0) == 1.0
    assert abs(cardinal_bspline(4, 0.0) - 2.0 / 3.0) <= 1e-15


def test_bspline_support_boundary():
    assert cardinal_bspline(4, 2.0) == 0.0
    assert cardinal_bspline(4, -2.0) == 0.0
    assert cardinal_bspline(4, 2.5) == 0.0


def test_bspline_even_nonnegative():
    rng = np.random.default_rng(13)
    for s in (1, 2, 3, 5):
        x = rng.uniform(-s - 1.0, s + 1.0, 200)
        vals = cardinal_bspline(2 * s, x)
        assert np.all(vals >= 0.0)
        assert np.max(np.abs(vals - cardinal_bspline(2 * s, -x))) <= 1e-15
        assert np.all(vals[np.abs(x) > s] == 0.0)


def test_bspline_partition_of_unity():
    rng = np.random.default_rng(17)
    for s in (1, 2, 5, 10):
        x = rng.uniform(-4.0, 4.0, 100)
        total = sum(cardinal_bspline(2 * s, x - k) for k in range(-s - 5, s + 6))
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def bspline_truncated_powers(s: int, x: float) -> Fraction:
    """M_{2s}(x) = (1/(2s-1)!) sum_i (-1)^i C(2s, i) (x + s - i)_+^{2s-1}, exact."""
    t = Fraction(x) + s
    n = 2 * s - 1
    total = sum((-1) ** i * math.comb(2 * s, i) * (t - i) ** n for i in range(2 * s + 1) if t > i)
    return total / math.factorial(n)


def test_bspline_exact_witness():
    # Every order 2..32 against the exact truncated-power sum at the float
    # inputs themselves: one random point in each unit piece (so a shifted
    # coefficient row or an off-by-one piece index shows), more random
    # points, every knot and knot +- 1e-12, points next to +-s and points
    # outside the support.
    rng = np.random.default_rng(23)
    for s in range(1, 17):
        knots = np.arange(-s, s + 1, dtype=float)
        edge = np.nextafter(float(s), 0.0)
        inside = np.concatenate([
            np.arange(-s, s) + rng.uniform(0.0, 1.0, 2 * s),
            rng.uniform(-s, s, 20),
            knots, knots + 1e-12, knots - 1e-12,
            [edge, -edge, s - 1e-9, 1e-9 - s, s - 1e-3],
        ])
        vals = cardinal_bspline(2 * s, inside)
        worst = max(
            abs(Fraction(float(v)) - bspline_truncated_powers(s, float(x)))
            for x, v in zip(inside, vals)
        )
        assert worst <= 2.5e-16, (s, float(worst))
        assert np.array_equal(cardinal_bspline(2 * s, -inside), vals)
        outside = np.array([s, -s, np.nextafter(float(s), np.inf), s + 0.25, -s - 0.25, 1e6, -np.inf])
        assert np.all(cardinal_bspline(2 * s, outside) == 0.0)


def test_bspline_invalid_order():
    with pytest.raises(InvalidOrder):
        cardinal_bspline(3, 0.0)
    with pytest.raises(InvalidOrder):
        cardinal_bspline(0, 0.0)


# ---------------------------------------------------------------------------
# Exact center values and Eulerian numbers


def test_m2s_exact_table():
    table = {
        1: Fraction(1),
        2: Fraction(2, 3),
        3: Fraction(11, 20),
        4: Fraction(151, 315),
        5: Fraction(15619, 36288),
        6: Fraction(655177, 1663200),
    }
    for s, want in table.items():
        assert m2s_at_zero(s) == want


def test_m2s_large_order():
    assert abs(float(m2s_at_zero(50)) - 0.137990) <= 5e-7


def test_m2s_matches_bspline_at_zero():
    for s in range(1, 11):
        assert abs(float(m2s_at_zero(s)) - cardinal_bspline(2 * s, 0.0)) <= 1e-13


def test_m2s_scaled_sequence_monotone_and_bounded():
    # sqrt(2s)*M_{2s}(0) increases in s; checked exactly via 2s*M^2.
    prev = None
    for s in range(2, 51):
        cur = 2 * s * m2s_at_zero(s) ** 2
        if prev is not None:
            assert cur > prev
        prev = cur
        assert math.sqrt(2 * s) * float(m2s_at_zero(s)) < math.sqrt(6.0 / math.pi)


def test_eulerian_base_cases():
    assert eulerian_number(1, 1) == 1
    assert eulerian_number(3, 2) == 4


def test_eulerian_brute_force():
    # E(n, k-1) counts permutations of 1..n with exactly k-1 ascents.
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(1, n + 1)):
            counts[ascent_count(perm)] = counts.get(ascent_count(perm), 0) + 1
        for k in range(1, n + 1):
            assert eulerian_number(n, k) == counts.get(k - 1, 0)


def test_eulerian_center_value_relation():
    # M_{2s}(0) = E(2s-1, s-1)/(2s-1)!; at s = 3: E(5,2) = 66.
    assert eulerian_number(5, 3) == 66
    assert m2s_at_zero(3) * math.factorial(5) == 66
    for s in range(1, 8):
        assert m2s_at_zero(s) == Fraction(
            eulerian_number(2 * s - 1, s), math.factorial(2 * s - 1)
        )


def test_eulerian_invalid_range():
    with pytest.raises(InvalidRange):
        eulerian_number(3, 0)
    with pytest.raises(InvalidRange):
        eulerian_number(3, 4)


# ---------------------------------------------------------------------------
# Quadrature


def test_integrate_constant():
    res = integrate(lambda t: 1.0, 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-14


def test_integrate_sine():
    res = integrate(math.sin, 0.0, math.pi)
    assert abs(res.value - 2.0) <= 1e-12


def test_integrate_gaussian_tail():
    # int_0^30 e^{-t^2} = sqrt(pi)/2 * erf(30); erf(30) = 1 to far below 1e-15.
    want = math.sqrt(math.pi) / 2.0 * erf_series(6.0)  # erf(6) = 1 - 2e-17
    res = integrate(lambda t: math.exp(-t * t), 0.0, 30.0)
    assert abs(res.value - want) <= 1e-12
    assert abs(res.value - math.sqrt(math.pi) / 2.0) <= 1e-12


def test_integrate_reports_error_estimate():
    res = integrate(lambda t: t * t, 0.0, 2.0)
    assert abs(res.value - 8.0 / 3.0) <= 1e-12
    assert 0.0 <= res.error <= 1e-8


def test_integrate_empty_interval():
    assert integrate(math.sin, 1.0, 1.0).value == 0.0


def test_integrate_no_convergence():
    q = Quadrature(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=1)
    with pytest.raises(NoConvergence):
        integrate(lambda t: math.sin(200.0 * t) * math.cos(311.0 * t), 0.0, 10.0, q)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        Quadrature(abs_tol=0.0)
    with pytest.raises(ValueError):
        Quadrature(max_subdivisions=0)


def test_gl_cumulative_matches_adaptive():
    f = lambda z: np.sin(3.0 * z) * np.exp(-0.1 * z)
    nodes = np.array([0.0, 0.7, 2.2, 2.2, 9.5])
    cum = specfun.gl_cumulative(f, nodes, max_width=0.4)
    for node, got in zip(nodes, cum):
        want = integrate(lambda t: math.sin(3.0 * t) * math.exp(-0.1 * t), 0.0, float(node))
        assert abs(got - want.value) <= 1e-12
