"""Command-line front end.

Subcommands:
    reconstruct  evaluate the localized reconstruction from a sample CSV,
                 every target in one batched reconstruct_grid call
    bounds       print the error constants for a configuration
    experiment   run an experiment plan or a checked-in preset, write CSV
    selftest     fast invariant suite

stdout carries machine-parseable CSV only; diagnostics go to stderr.  Exit
codes are stable API: 0 ok, 1 selftest failure, 2 usage, 3 missing sample
range, 4 bound violation, 5 I/O error.  ``main`` alone chooses the code,
from the type of the error a command raises, and prints its message; any
other exception is a defect and keeps its traceback.  ``reconstruct`` and
``bounds`` write their CSV only after every row is computed, so a failing
call leaves stdout empty; ``reconstruct`` then writes its rows in chunks of
_ROWS_PER_WRITE, each formatted by one call.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import bounds as bounds_mod
from . import harness, specfun
from .kernel import KernelEval, check_finite, ft_psi, ft_psi_quadrature, sinc
from .reconstruct import (
    IndexOutOfRange,
    TestFunction,
    TestFunctionKind,
    load_samples,
    reconstruct_grid,
    sample,
    usable_cpu_count,
)
from .windows import SHAPE_PARAM, SamplingConfig, WindowKind, WindowSpec, default_params

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_DATA_RANGE = 3
EXIT_BOUND = 4
EXIT_IO = 5

# Rows of `reconstruct` output formatted by one call and written at once, so
# the text held at a time is bounded however many targets there are.
_ROWS_PER_WRITE = 4096


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="regusamp",
        description="Regularized Shannon sampling with localized sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cfg_flags(p):
        p.add_argument("--N", type=int, required=True, help="bandwidth scale (samples/unit)")
        p.add_argument("--lambda", dest="lam", type=harness.parse_fraction, required=True,
                       help="oversampling parameter >= 0; N*(1+lambda) must be integer")
        p.add_argument("--tau", type=harness.parse_fraction, required=True,
                       help="bandwidth fraction in (0, 1/2); accepts fractions like 1/3")
        p.add_argument("--window", choices=[k.value for k in WindowKind], required=True)
        p.add_argument("--sigma", type=float, help="Gaussian width override")
        p.add_argument("--s", type=int, help="B-spline half-order override")
        p.add_argument("--beta", type=float, help="sinh shape override")

    rec = sub.add_parser("reconstruct", help="evaluate the reconstruction at points")
    add_cfg_flags(rec)
    rec.add_argument("--m", type=int, required=True, help="truncation parameter (2m samples/point)")
    rec.add_argument("--samples", required=True, help="CSV with header index,value")
    grp = rec.add_mutually_exclusive_group(required=True)
    grp.add_argument("--at", type=float, help="single evaluation point t")
    grp.add_argument("--grid", type=grid, metavar="a,b,count", help="inclusive equidistant grid")

    bnd = sub.add_parser("bounds", help="print error constants")
    add_cfg_flags(bnd)
    bnd.add_argument("--m", required=True, help="truncation parameter or comma list, e.g. 2,3,4")
    bnd.add_argument("--eps", type=harness.parse_fraction, default=1e-3, help="noise bound for robustness columns")

    exp = sub.add_parser("experiment", help="run an experiment plan")
    src = exp.add_mutually_exclusive_group(required=True)
    src.add_argument("--plan", help="plan file (blocks separated by --- lines)")
    src.add_argument("--preset", choices=harness.PRESETS, help="checked-in figure grid")
    exp.add_argument("--out", required=True, help="output CSV path")
    exp.add_argument("--jobs", type=int, default=usable_cpu_count(),
                     help="worker processes over configuration cells (default: the CPUs this process "
                          "may use); a single process runs a cell's kernel blocks on threads")

    sub.add_parser("selftest", help="fast invariant suite")
    return parser


def grid(text: str) -> tuple[float, float, int]:
    """The a, b and count of ``--grid a,b,count``.  argparse reports text
    that does not split into three numbers as an invalid grid value."""
    a, b, count = text.split(",")
    return float(a), float(b), int(count)


def _window_from_flags(args, cfg: SamplingConfig) -> WindowSpec:
    kind = WindowKind(args.window)
    param = SHAPE_PARAM[kind]
    for name in filter(None, SHAPE_PARAM.values()):
        if name != param and getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to the {kind.value} window")
    if param is None:
        return WindowSpec(kind)
    if getattr(args, param) is not None:
        return WindowSpec(kind, **{param: getattr(args, param)})
    w = default_params(kind, cfg)
    print(f"using default {param} = {getattr(w, param):.17g}", file=sys.stderr)
    return w


def _cmd_reconstruct(args) -> int:
    cfg = SamplingConfig(args.N, args.lam, args.tau, args.m)
    w = _window_from_flags(args, cfg)
    ss = load_samples(args.samples, cfg)
    if args.at is not None:
        points = np.array([args.at])
    else:
        a, b, count = args.grid
        if count < 1:
            raise ValueError(f"--grid count must be >= 1, got {count}")
        check_finite("targets", [a, b])
        points = harness.equidistant(a, b, count, f"--grid count {count}")
    values = reconstruct_grid(ss, w, points)
    sys.stdout.write("t,value\n")
    for i in range(0, points.size, _ROWS_PER_WRITE):
        pairs = np.column_stack((points[i:i + _ROWS_PER_WRITE], values[i:i + _ROWS_PER_WRITE]))
        sys.stdout.write("%.17g,%.17g\n" * len(pairs) % tuple(pairs.ravel().tolist()))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    item = r"\s*[+-]?\d+(?:_\d+)*\s*"  # an integer as int() reads it
    if not re.fullmatch(rf"{item}(?:,{item})*", args.m):
        raise ValueError(f"--m expects an integer or a comma list of integers, got {args.m!r}")
    m_values = [int(x) for x in args.m.split(",")]
    rows = ["window,m,tau,lambda,e1,e2,closed_form,robust_generic,robust_specialized,eta_max\n"]
    for m in m_values:
        cfg = SamplingConfig(args.N, args.lam, args.tau, m)
        w = _window_from_flags(args, cfg)
        rep = bounds_mod.compute_report(w, cfg, eps=args.eps)
        closed = f"{rep.closed_form:.17g}" if rep.closed_form is not None else "NA"
        special = f"{rep.robust.specialized:.17g}" if rep.robust.specialized is not None else "NA"
        rows.append(
            f"{w.kind.value},{m},{cfg.tau:.17g},{cfg.lam:.17g},{rep.e1:.17g},"
            f"{rep.e2:.17g},{closed},{rep.robust.generic:.17g},{special},{rep.eta_max:.17g}\n"
        )
    sys.stdout.write("".join(rows))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    plans = harness.load_preset(args.preset) if args.preset else harness.load_plans(args.plan)
    rows = [row for plan in plans for row in harness.run_plan(plan, jobs=max(1, args.jobs))]
    harness.emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    checks: list[tuple[str, bool]] = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    from fractions import Fraction as F

    check("M_2(0) = 1", specfun.m2s_at_zero(1) == F(1))
    check("M_4(0) = 2/3", specfun.m2s_at_zero(2) == F(2, 3))
    check("M_6(0) = 11/20", specfun.m2s_at_zero(3) == F(11, 20))
    check("M_10(0) = 15619/36288", specfun.m2s_at_zero(5) == F(15619, 36288))
    check(
        "M_6(0) = E(5,2)/5!",
        F(specfun.eulerian_number(5, 3), math.factorial(5)) == F(11, 20),
    )
    check(
        "M_{2s}(0) evaluates to its exact value, s=1..8",
        all(
            abs(float(specfun.m2s_at_zero(s)) - specfun.cardinal_bspline(2 * s, 0.0)) <= 1e-13
            for s in range(1, 9)
        ),
    )
    check(
        "M_8(3/2) = 20219/215040",
        abs(specfun.cardinal_bspline(8, 1.5) - float(F(20219, 215040))) <= 2.5e-16,
    )
    check("erfc(1)", abs(specfun.erfc(1.0) - 0.15729920705028513) <= 1e-15)
    x = 1e-6
    check(
        "J1 leading series at 1e-6",
        abs(specfun.bessel_j1(x) / x - 0.5) <= 1e-10,
    )
    check("sinc(0) = 1", sinc(0.0) == 1.0)
    check("sinc(pi) ~ 0", abs(sinc(math.pi)) <= 1e-16)

    cfg = SamplingConfig(32, 1.0, 1 / 3, 4)
    f = TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta)
    ss = sample(f, cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
    on_grid = np.array([-5, 0, 7]) / cfg.L
    interp_ok = True
    for kind in WindowKind:
        interp_ok &= np.array_equal(reconstruct_grid(ss, default_params(kind, cfg), on_grid), f(on_grid))
    check("interpolation property on the grid", interp_ok)

    ft_ok = True
    for kind in (WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH):
        w = default_params(kind, cfg)
        k = KernelEval(w, cfg)
        v = 0.37 * cfg.L
        ft_ok &= abs(ft_psi(k, v) - ft_psi_quadrature(k, v)) <= 1e-8
    check("psi transform matches quadrature", ft_ok)

    width = max(len(name) for name, _ in checks)
    failed = 0
    for name, ok in checks:
        status = "ok" if ok else "FAIL"
        print(f"{name:<{width}}  {status}", file=sys.stderr)
        failed += not ok
    print(f"selftest,{len(checks) - failed},{failed}")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST


def _join_point_values(argv: list[str]) -> list[str]:
    """Rewrite ``--at VALUE`` and ``--grid VALUE`` as ``--at=VALUE`` and
    ``--grid=VALUE``.  argparse reads a separate value that starts with '-'
    and is not a plain decimal (-0.5,0.5,3 or -1e-3) as an option."""
    out = []
    it = iter(argv)
    for arg in it:
        value = next(it, None) if arg in ("--at", "--grid") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_point_values(sys.argv[1:] if argv is None else argv))
    command = {"reconstruct": _cmd_reconstruct, "bounds": _cmd_bounds,
               "experiment": _cmd_experiment, "selftest": _cmd_selftest}[args.command]
    # The exit code of each error type, the first match counting: a request
    # too large to allocate, its output included, is a usage error.
    exit_codes = (
        (IndexOutOfRange, EXIT_DATA_RANGE),
        (harness.BoundViolation, EXIT_BOUND),
        (OSError, EXIT_IO),
        (ValueError, EXIT_USAGE),
        (MemoryError, EXIT_USAGE),
    )
    try:
        return command(args)
    except tuple(error for error, _ in exit_codes) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return next(code for error, code in exit_codes if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
