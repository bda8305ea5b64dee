"""Window families: membership properties, defaults, transforms at zero."""

import math

import numpy as np
import pytest
import scipy.special

from regusamp import specfun
from regusamp.kernel import ft_window
from regusamp.windows import (
    MAX_BSPLINE_S,
    InvalidConfig,
    SamplingConfig,
    WindowKind,
    WindowSpec,
    default_params,
    eval_truncated,
    eval_window,
)

CFG = SamplingConfig(128, 1.0, 1 / 3, 5)
ALL_KINDS = list(WindowKind)


def spec_for(kind, cfg=CFG):
    return default_params(kind, cfg)


# ---------------------------------------------------------------------------
# SamplingConfig


def test_config_derived_values():
    assert CFG.L == 256
    assert abs(CFG.delta - 128 / 3) <= 1e-12
    assert CFG.delta < CFG.N / 2 < CFG.L / 2


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        SamplingConfig(0, 1.0, 1 / 3, 5)
    with pytest.raises(ValueError):
        SamplingConfig(128, -0.5, 1 / 3, 5)
    with pytest.raises(ValueError):
        SamplingConfig(128, 1.0, 0.5, 5)
    with pytest.raises(ValueError):
        SamplingConfig(128, 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        SamplingConfig(128, 1.0, 1 / 3, 1)


def test_config_requires_integer_sample_scale():
    with pytest.raises(ValueError):
        SamplingConfig(128, 0.3, 1 / 3, 5)  # 128*1.3 = 166.4
    assert SamplingConfig(128, 0.5, 1 / 3, 5).L == 192


def test_config_rejects_overwide_window():
    with pytest.raises(ValueError):
        SamplingConfig(4, 0.0, 1 / 3, 3)  # 2m = 6 > L = 4


def test_config_warns_when_window_crowds_grid():
    with pytest.warns(UserWarning) as record:
        SamplingConfig(16, 0.0, 1 / 3, 4)  # 2m = 8 > L/4 = 4
    assert record[0].filename == __file__  # the caller, not the generated __init__


def test_windowspec_parameter_discipline():
    with pytest.raises(ValueError):
        WindowSpec(WindowKind.RECT, sigma=1.0)
    with pytest.raises(ValueError):
        WindowSpec(WindowKind.GAUSS)
    with pytest.raises(ValueError):
        WindowSpec(WindowKind.GAUSS, sigma=1.0, beta=2.0)
    with pytest.raises(ValueError):
        WindowSpec(WindowKind.BSPLINE, s=1)
    with pytest.raises(ValueError):
        WindowSpec(WindowKind.SINH, beta=0.0)


def test_config_errors_are_typed():
    bad_configs = [
        (0, 1.0, 1 / 3, 5), (128, 1.0, 0.6, 5), (128, 0.3, 1 / 3, 5), (4, 0.0, 1 / 3, 3),
        (128, math.inf, 1 / 3, 5), (128, math.nan, 1 / 3, 5), (math.inf, 1.0, 1 / 3, 5),
        (math.nan, 1.0, 1 / 3, 5), (128, 1.0, math.nan, 5), (128, 1.0, 1 / 3, math.inf),
        (128, 1.0, 1 / 3, 2.5),
    ]
    for args in bad_configs:
        with pytest.raises(InvalidConfig):
            SamplingConfig(*args)
    bad_windows = [
        ("triangle", {}), (WindowKind.GAUSS, {}), (WindowKind.GAUSS, {"sigma": math.nan}),
        (WindowKind.BSPLINE, {"s": math.inf}), (WindowKind.BSPLINE, {"s": 2.5}),
        (WindowKind.SINH, {"beta": -1.0}), (WindowKind.GAUSS, {"sigma": math.inf}),
        (WindowKind.SINH, {"beta": math.inf}), (WindowKind.SINH, {"beta": math.nan}),
        (WindowKind.GAUSS, {"sigma": 9.9e-151}), (WindowKind.GAUSS, {"sigma": 1.1e150}),
        (WindowKind.SINH, {"beta": 9.9e-151}), (WindowKind.SINH, {"beta": 1.1e150}),
        (WindowKind.BSPLINE, {"s": MAX_BSPLINE_S + 1}),
    ]
    for kind, params in bad_windows:
        with pytest.raises(InvalidConfig):
            WindowSpec(kind, **params)
    # The limits themselves are accepted.
    for kind, params in [(WindowKind.GAUSS, {"sigma": 1e-150}), (WindowKind.GAUSS, {"sigma": 1e150}),
                         (WindowKind.SINH, {"beta": 1e-150}), (WindowKind.SINH, {"beta": 1e150}),
                         (WindowKind.BSPLINE, {"s": MAX_BSPLINE_S})]:
        WindowSpec(kind, **params)


# ---------------------------------------------------------------------------
# Default parameters


def test_default_gauss_sigma_two_closed_forms():
    for m in (2, 5, 10):
        cfg = SamplingConfig(128, 1.0, 1 / 3, m)
        w = spec_for(WindowKind.GAUSS, cfg)
        s1 = math.sqrt(m / (math.pi * cfg.L * (cfg.L - 2 * cfg.delta)))
        s2 = (1 / cfg.N) * math.sqrt(m / (math.pi * (1 + cfg.lam) * (1 + cfg.lam - 2 * cfg.tau)))
        assert abs(w.sigma - s1) <= 1e-14 * s1
        assert abs(w.sigma - s2) <= 1e-14 * s2


def test_default_bspline_half_order():
    assert spec_for(WindowKind.BSPLINE, SamplingConfig(128, 1.0, 1 / 3, 5)).s == 3
    assert spec_for(WindowKind.BSPLINE, SamplingConfig(128, 1.0, 1 / 3, 6)).s == 4
    assert spec_for(WindowKind.BSPLINE, SamplingConfig(128, 1.0, 1 / 3, 2)).s == 2


def test_default_sinh_beta_cases():
    cfg = SamplingConfig(128, 1.0, 3 / 8, 5)
    # The paper's other admissible beta ("case one"), pi*m*(1+lam+2*tau)/(1+lam).
    case1 = WindowSpec(WindowKind.SINH, beta=math.pi * cfg.m * (1.0 + cfg.lam + 2.0 * cfg.tau) / (1.0 + cfg.lam))
    assert abs(case1.beta - 55.0 * math.pi / 8.0) <= 1e-12
    case2 = default_params(WindowKind.SINH, cfg)
    assert abs(case2.beta - math.pi * 5 * (2 - 3 / 4) / 2) <= 1e-12
    assert case2.beta < case1.beta


def test_default_rect_has_no_parameter():
    w = spec_for(WindowKind.RECT)
    assert (w.sigma, w.s, w.beta) == (None, None, None)


# ---------------------------------------------------------------------------
# Window evaluation


def test_window_value_one_at_origin():
    for kind in ALL_KINDS:
        assert eval_window(spec_for(kind), CFG, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_window_even():
    rng = np.random.default_rng(23)
    x = rng.uniform(-2 * CFG.m / CFG.L, 2 * CFG.m / CFG.L, 300)
    for kind in ALL_KINDS:
        w = spec_for(kind)
        assert np.max(np.abs(eval_window(w, CFG, x) - eval_window(w, CFG, -x))) <= 1e-15


def test_window_nonincreasing_on_support():
    x = np.linspace(0.0, CFG.m / CFG.L, 10_000)
    for kind in ALL_KINDS:
        vals = eval_window(spec_for(kind), CFG, x)
        assert np.all(np.diff(vals) <= 1e-12)


def test_sinh_vanishes_at_support_edge():
    assert eval_window(spec_for(WindowKind.SINH), CFG, CFG.m / CFG.L) == 0.0


def test_bspline_vanishes_at_support_edge():
    assert eval_window(spec_for(WindowKind.BSPLINE), CFG, CFG.m / CFG.L) == 0.0


def test_rect_closed_at_support_edge():
    assert eval_window(spec_for(WindowKind.RECT), CFG, CFG.m / CFG.L) == 1.0
    assert eval_window(spec_for(WindowKind.RECT), CFG, CFG.m / CFG.L + 1e-12) == 0.0


def test_gauss_half_maximum():
    w = spec_for(WindowKind.GAUSS)
    assert eval_window(w, CFG, w.sigma * math.sqrt(2.0 * math.log(2.0))) == pytest.approx(0.5, rel=1e-12)


def test_sinh_large_beta_stable():
    cfg = SamplingConfig(1000, 1.0, 1 / 3, 150)
    w = WindowSpec(WindowKind.SINH, beta=650.0)
    vals = eval_window(w, cfg, np.array([0.0, cfg.m / (2 * cfg.L), cfg.m / cfg.L]))
    assert vals[0] == 1.0 and 0.0 < vals[1] < 1.0 and vals[2] == 0.0
    assert np.all(np.isfinite(vals))


def test_truncated_clips_gauss():
    w = spec_for(WindowKind.GAUSS)
    assert eval_truncated(w, CFG, 2.0 * CFG.m / CFG.L) == 0.0
    assert eval_truncated(w, CFG, 0.0) == 1.0
    inside = 0.8 * CFG.m / CFG.L
    assert eval_truncated(w, CFG, inside) == eval_window(w, CFG, inside)


def test_truncated_identity_for_compact_windows():
    rng = np.random.default_rng(29)
    x = rng.uniform(-3 * CFG.m / CFG.L, 3 * CFG.m / CFG.L, 200)
    for kind in (WindowKind.BSPLINE, WindowKind.SINH, WindowKind.RECT):
        w = spec_for(kind)
        assert np.array_equal(eval_truncated(w, CFG, x), eval_window(w, CFG, x))


def test_truncated_zero_outside_support():
    x = np.array([-1.5, -1.0001, 1.0001, 2.0]) * CFG.m / CFG.L
    for kind in ALL_KINDS:
        assert np.all(eval_truncated(spec_for(kind), CFG, x) == 0.0)


# ---------------------------------------------------------------------------
# Transform at zero


def test_ft_at_zero_closed_forms():
    gauss = spec_for(WindowKind.GAUSS)
    assert ft_window(gauss, CFG, 0.0) == pytest.approx(math.sqrt(2 * math.pi) * gauss.sigma, rel=1e-14)
    bspl = spec_for(WindowKind.BSPLINE)
    m0 = float(specfun.m2s_at_zero(bspl.s))
    assert ft_window(bspl, CFG, 0.0) == pytest.approx(CFG.m / (bspl.s * CFG.L * m0), rel=1e-14)
    assert ft_window(spec_for(WindowKind.RECT), CFG, 0.0) == pytest.approx(2 * CFG.m / CFG.L, rel=1e-15)
    sinh = spec_for(WindowKind.SINH)
    want = math.pi * CFG.m * scipy.special.i1(sinh.beta) / (CFG.L * math.sinh(sinh.beta))
    assert ft_window(sinh, CFG, 0.0) == pytest.approx(want, rel=1e-13)


def test_ft_at_zero_matches_quadrature():
    for kind in ALL_KINDS:
        w = spec_for(kind)
        if kind is WindowKind.GAUSS:
            hi = 12.0 * w.sigma
        else:
            hi = CFG.m / CFG.L
        val = 2.0 * specfun.integrate(lambda x: float(eval_window(w, CFG, x)), 0.0, hi).value
        assert abs(val - ft_window(w, CFG, 0.0)) <= 1e-10
