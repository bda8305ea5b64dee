"""Windows, regularized sinc kernels, and their Fourier transforms.

Walks through the four window families at one sampling configuration:
evaluates the kernel on its 2m-sample support, checks the interpolation
zeros, and compares each closed-form transform against direct quadrature
of the kernel.  Finishes with the essential-bandlimitation tail bounds.
"""

import numpy as np

from regusamp import (
    KernelEval,
    SamplingConfig,
    WindowKind,
    default_params,
    ft_psi,
    ft_window,
    psi,
    tail_bound,
)
from regusamp.kernel import ft_psi_quadrature

cfg = SamplingConfig(N=128, lam=1.0, tau=1 / 3, m=5)
print(f"configuration: N={cfg.N}, lambda={cfg.lam}, tau={cfg.tau:.4f}")
print(f"derived: L={cfg.L} samples/unit, bandwidth delta={cfg.delta:.3f}, "
      f"kernel support [-{cfg.m}/{cfg.L}, {cfg.m}/{cfg.L}]\n")

print("window parameters chosen by the error analysis:")
for kind in WindowKind:
    w = default_params(kind, cfg)
    param = w.sigma or w.s or w.beta
    print(f"  {kind.value:8s} shape={param!r:24s} phihat(0)={ft_window(w, cfg, 0.0):.6e}")

print("\nkernel values on the first few grid offsets (interpolation zeros):")
offsets = np.arange(0, 4)
for kind in WindowKind:
    k = KernelEval(default_params(kind, cfg), cfg)
    vals = ", ".join(f"{float(np.atleast_1d(psi(k, o / cfg.L))[0]): .2e}" for o in offsets)
    print(f"  {kind.value:8s} psi(l/L) for l=0..3: {vals}")

print("\nclosed-form transform vs direct quadrature of the kernel:")
rng = np.random.default_rng(1)
for kind in (WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH):
    k = KernelEval(default_params(kind, cfg), cfg)
    worst = max(
        abs(ft_psi(k, float(v)) - ft_psi_quadrature(k, float(v)))
        for v in rng.uniform(-cfg.L, cfg.L, 5)
    )
    print(f"  {kind.value:8s} worst |closed - quadrature| over 5 random v: {worst:.2e}")

print("\ntransform concentration: psihat at v = 0 vs one band out (v = L):")
for kind in (WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH):
    k = KernelEval(default_params(kind, cfg), cfg)
    print(f"  {kind.value:8s} L*psihat(0) = {cfg.L * ft_psi(k, 0.0):.9f}   "
          f"L*psihat(L) = {cfg.L * ft_psi(k, float(cfg.L)):.3e}")

print("\nessential-bandlimitation tail bounds |psihat(v)| for |v| >= L(1+eps)/2:")
for kind, eps in ((WindowKind.GAUSS, 0.5), (WindowKind.BSPLINE, 0.6), (WindowKind.SINH, 1.7778)):
    k = KernelEval(default_params(kind, cfg), cfg)
    v = cfg.L * (1 + eps) / 2 * 1.01
    print(f"  {kind.value:8s} eps={eps:.3f}: |psihat({v:7.1f})| = {abs(ft_psi(k, v)):.3e}"
          f"  <=  bound {tail_bound(k, eps):.3e}")

print("\nwindow transforms at a band edge (closed forms, vectorized):")
v = np.array([0.0, cfg.delta, cfg.L / 2])
for kind in WindowKind:
    w = default_params(kind, cfg)
    print(f"  {kind.value:8s} phihat at v=(0, delta, L/2): "
          + np.array2string(np.asarray(ft_window(w, cfg, v)), formatter={"float": "{: .3e}".format}))
