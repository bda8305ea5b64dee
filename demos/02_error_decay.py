"""Uniform reconstruction error vs the proven bounds, as m grows.

Reconstructs the unit-norm band-limited signal sqrt(2 delta) sinc(2 delta
pi t) on [-1, 1] from 2m samples per point and tabulates the measured
maximum error next to each window's closed-form constant.  The exponential
windows lose several digits per extra sample pair; the rectangular baseline
crawls at 1/sqrt(m).
"""

import numpy as np

from regusamp import (
    ExperimentPlan,
    SamplingConfig,
    TestFunctionKind,
    WindowKind,
    e1_numeric,
    e2_numeric,
    default_params,
    run_plan,
)

plan = ExperimentPlan(
    test_fn=TestFunctionKind.SINC_BAND,
    N=128,
    m_list=tuple(range(2, 11)),
    tau_list=(1 / 3,),
    lambda_list=(1.0,),
    windows=(WindowKind.RECT, WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH),
    S=20_001,
    seed=1,
)
rows = {}
for r in run_plan(plan):
    rows.setdefault(r.window, []).append(r)

print(f"N={plan.N}, tau=1/3, lambda=1, S={plan.S} evaluation points on [-1, 1]\n")
header = "m   " + "".join(f"{k.value:>23s}" for k in plan.windows)
print("measured max |f - Rf|")
print(header)
for i, m in enumerate(plan.m_list):
    line = f"{m:<4d}"
    for kind in plan.windows:
        line += f"{rows[kind][i].measured:>23.3e}"
    print(line)

print("\nclosed-form error constants (same cells)")
print(header)
for i, m in enumerate(plan.m_list):
    line = f"{m:<4d}"
    for kind in plan.windows:
        line += f"{rows[kind][i].bound:>23.3e}"
    print(line)

print("\nnumerically evaluated constants E1 + E2 for the sinh window:")
for m in plan.m_list:
    cfg = SamplingConfig(plan.N, 1.0, 1 / 3, m)
    w = default_params(WindowKind.SINH, cfg)
    e = e1_numeric(w, cfg) + e2_numeric(w, cfg)
    meas = rows[WindowKind.SINH][m - plan.m_list[0]].measured
    print(f"  m={m:2d}  E1+E2 = {e:.3e}   measured = {meas:.3e}")

rate = np.pi * (1 + 1.0 - 2 / 3) / (1 + 1.0)
meas = [r.measured for r in rows[WindowKind.SINH] if r.measured > 2e-15]
slope = np.polyfit(plan.m_list[: len(meas)], np.log(meas), 1)[0]
print(f"\nsinh decay: fitted slope of log(error) vs m = {slope:.3f} "
      f"(theory: -pi(1+lambda-2 tau)/(1+lambda) = {-rate:.3f})")
