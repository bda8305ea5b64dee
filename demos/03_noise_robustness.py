"""Noise robustness: bounded sample errors propagate boundedly.

Perturbs every sample by i.i.d. uniform noise on (-eps, eps) and measures
the worst uniform deviation of the reconstruction over seeded trials.  The
deviation grows only like sqrt(m) and stays below both the generic bound
eps*(2 + L*phihat(0)) and each window's closed form.
"""

import numpy as np

from regusamp import (
    ExperimentPlan,
    SamplingConfig,
    TestFunction,
    TestFunctionKind,
    WindowKind,
    default_params,
    perturb,
    reconstruct_grid,
    robustness_bound,
    run_plan,
    sample,
)

EPS = 1e-3
plan = ExperimentPlan(
    test_fn=TestFunctionKind.SINC_BAND,
    N=128,
    m_list=(2, 4, 6, 8, 10),
    tau_list=(1 / 3,),
    lambda_list=(1.0,),
    windows=(WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH),
    S=10_001,
    trials=25,
    eps=EPS,
    seed=7,
)
results = run_plan(plan)

print(f"eps = {EPS}, {plan.trials} trials per cell, worst |R(noisy) - R(clean)| on [-1, 1]\n")
print("window    m   measured      specialized   generic")
for r in results:
    cfg = SamplingConfig(plan.N, r.lam, r.tau, r.m)
    rb = robustness_bound(default_params(r.window, cfg), cfg, EPS)
    print(f"{r.window.value:8s} {r.m:2d}   {r.measured:.3e}    {rb.specialized:.3e}     {rb.generic:.3e}")

print("\nsublinear growth: the measured deviation grows like sqrt(m):")
for kind in plan.windows:
    vals = [r.measured for r in results if r.window == kind]
    print(f"  {kind.value:8s} measured(m=10)/measured(m=2) = {vals[-1] / vals[0]:.2f} "
          f"(sqrt(10/2) = {np.sqrt(5):.2f})")

# A single perturbed reconstruction, end to end through the public API:
# perturb returns the noisy samples f(l/L) + eps_l as a plain sample set.
cfg = SamplingConfig(128, 1.0, 1 / 3, 6)
f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
clean = sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
noisy = perturb(clean, EPS, seed=42)
w = default_params(WindowKind.SINH, cfg)
t = np.linspace(-1, 1, 5001)
dev = np.max(np.abs(reconstruct_grid(noisy, w, t) - reconstruct_grid(clean, w, t)))
cap = robustness_bound(w, cfg, EPS).generic
print(f"\nsingle sinh run at m=6: deviation {dev:.3e} <= generic bound {cap:.3e}")
