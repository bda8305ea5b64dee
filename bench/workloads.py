"""The benchmark's four workloads.

A workload builds its inputs from the seed (``setup``), hands the runner a
fixed list of operations that makes up one round, and afterwards checks the
outputs of those operations against ``reference`` (``check``).  Every
operation goes through the package's public interface: the ``regusamp``
command line, called in process, or the library functions.  Package
functions are looked up when an operation runs, so the tracer's wrappers
are seen.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


class OpFailed(RuntimeError):
    """An operation did not complete: nonzero exit code or an exception."""


@dataclass
class Op:
    key: str
    call: Callable[[], object]  # the timed part
    read: Callable[[object], object]  # untimed: the output that is checked


def run_cli(argv: list[str]):
    """``regusamp <argv>`` in this process: (exit code, stdout, stderr)."""
    from regusamp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _expect_ok(raw):
    rc, out, err = raw
    if rc != 0:
        raise OpFailed(f"exit code {rc}: {err.strip()[-300:]}")
    return out


def _frac(text: str) -> float:
    return float(Fraction(text))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# Experiment cells through `regusamp experiment --plan`.

PLAN_KEYS = ("test_fn", "N", "m_list", "tau_list", "lambda_list", "windows", "S", "trials", "eps", "seed")


def _write_plan(path: Path, **fields) -> None:
    path.write_text("".join(f"{k} = {fields[k]}\n" for k in PLAN_KEYS if k in fields), encoding="ascii")


def _experiment_op(key: str, plan: Path, out: Path) -> Op:
    argv = ["experiment", "--plan", str(plan), "--out", str(out), "--jobs", "1"]

    def read(raw):
        _expect_ok(raw)
        lines = out.read_text(encoding="ascii").splitlines()
        if len(lines) != 2 or lines[0] != "window,m,tau,lambda,measured,bound,bound_valid":
            raise OpFailed(f"{out.name}: expected a header and one row, got {lines!r}")
        return lines[1]

    return Op(key, lambda: run_cli(argv), read)


def _parse_row(row: str):
    window, m, tau, lam, measured, bound, valid = row.split(",")
    return {
        "window": window, "m": int(m), "tau": float(tau), "lam": float(lam),
        "measured": float(measured), "bound": None if bound == "NA" else float(bound),
        "bound_valid": valid == "true",
    }


def _check_identity(key, row, window, m, tau, lam, problems):
    if (row["window"], row["m"]) != (window, m) or row["tau"] != tau or row["lam"] != lam:
        problems.append(f"{key}: row is for another cell: {row}")
        return False
    return True


class Approx:
    """Clean approximation cells of the three-window comparison grid
    (fig10): sincsqband, N = 256, tau = 9/20, S = 1e5."""

    name = "approx"
    N = 256
    TAU = "9/20"
    WINDOWS = ("gauss", "bspline", "sinh")
    # (lambda, m): every lambda of the grid, with m from its low, middle and
    # high end; the B-spline bound's condition holds only at lambda = 2.
    LAMBDA_M = ((0.5, 2), (1.0, 5), (2.0, 8))
    S = 100_000
    CHECK_TARGETS = 256

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        cells = [(w, lam, m) for w in self.WINDOWS for lam, m in self.LAMBDA_M]
        self.cells = {}
        ops = []
        for i in rng.permutation(len(cells)):
            w, lam, m = cells[i]
            key = f"{w}-lam{lam:g}-m{m}"
            plan = workdir / f"{key}.plan"
            _write_plan(plan, test_fn="sincsqband", N=self.N, m_list=m, tau_list=self.TAU,
                        lambda_list=f"{lam:g}", windows=w, S=self.S, eps=0, seed=self.seed)
            self.cells[key] = (w, lam, m)
            ops.append(_experiment_op(key, plan, workdir / f"{key}.csv"))
        self.check_idx = np.sort(rng.choice(self.S, self.CHECK_TARGETS, replace=False))
        return ops

    def check(self, outputs: dict) -> list[str]:
        from regusamp import TestFunction, default_params, reconstruct_grid, sample
        from regusamp.windows import SamplingConfig

        problems = []
        tau = _frac(self.TAU)
        t_sub = np.linspace(-1.0, 1.0, self.S)[self.check_idx]
        for key, out in outputs.items():
            w, lam, m = self.cells[key]
            row = _parse_row(out)
            if not _check_identity(key, row, w, m, tau, lam, problems):
                continue
            L, delta = round(self.N * (1 + lam)), tau * self.N
            norm = math.sqrt(2.0 * delta / 3.0)
            cf = ref.closed_form_bound(w, self.N, lam, tau, m)
            if row["bound_valid"] != (cf is not None):
                problems.append(f"{key}: bound_valid is {row['bound_valid']}, the theorem's condition says {cf is not None}")
            if cf is not None:
                if row["bound"] is None or not _close(row["bound"], cf * norm, ref.CLOSED_REL_TOL):
                    problems.append(f"{key}: bound {row['bound']} != recomputed {cf * norm!r}")
                if not row["measured"] <= cf * norm:
                    problems.append(f"{key}: measured {row['measured']!r} exceeds the bound {cf * norm!r}")
            # Independent error on a seeded subset of the S targets.
            p = ref.shape_param(w, self.N, lam, tau, m)
            lo, hi = -L - m, L + m
            ell, weights = ref.kernel_rows(w, p, L, m, t_sub)
            values = ref.sincsqband(delta, np.arange(lo, hi + 1) / L)
            rec, scale = ref.rf_sum(values, lo, ell, weights)
            f_t = ref.sincsqband(delta, t_sub)
            err_sub = np.max(np.abs(f_t - rec) - ref.sum_tol(scale + np.abs(f_t)))
            if not row["measured"] >= err_sub:
                problems.append(f"{key}: measured {row['measured']!r} is below the independent error {float(err_sub)!r} on the target subset")
            # The package's batched evaluator against the plain sum, on the
            # package's own samples.
            cfg = SamplingConfig(self.N, lam, tau, m)
            ss = sample(TestFunction("sincsqband", delta=cfg.delta), cfg, lo, hi)
            got = reconstruct_grid(ss, default_params(w, cfg), t_sub)
            want, scale = ref.rf_sum(np.asarray(ss.values), lo, ell, weights)
            bad = np.abs(got - want) > ref.sum_tol(scale)
            if np.any(bad):
                i = int(np.argmax(bad))
                problems.append(f"{key}: reconstruct_grid({float(t_sub[i])!r}) = {float(got[i])!r}, plain sum {float(want[i])!r}")
        return problems


class Perturb:
    """Perturbation cells of the sinh-window noise grid (fig6): sincband,
    N = 128, eps = 1e-3, 100 seeded trials per cell, S = 1e5."""

    name = "perturb"
    N = 128
    EPS = 1e-3
    TRIALS = 100
    S = 100_000
    # (tau, lambda, m): both ends of the tau sweep at lambda = 1 and of the
    # lambda sweep at tau = 1/3, with m spread over 2..8.
    CELLS = (("1/20", 1.0, 2), ("9/20", 1.0, 6), ("1/3", 0.0, 4), ("1/3", 2.0, 8))
    CHECK_TARGETS = 256

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        plan_seeds = rng.integers(0, 2**31, size=len(self.CELLS))
        self.cells = {}
        ops = []
        for i in rng.permutation(len(self.CELLS)):
            tau, lam, m = self.CELLS[i]
            key = f"sinh-tau{tau.replace('/', '_')}-lam{lam:g}-m{m}"
            plan = workdir / f"{key}.plan"
            _write_plan(plan, test_fn="sincband", N=self.N, m_list=m, tau_list=tau,
                        lambda_list=f"{lam:g}", windows="sinh", S=self.S, trials=self.TRIALS,
                        eps=self.EPS, seed=int(plan_seeds[i]))
            self.cells[key] = (_frac(tau), lam, m, int(plan_seeds[i]))
            ops.append(_experiment_op(key, plan, workdir / f"{key}.csv"))
        self.check_idx = np.sort(rng.choice(self.S, self.CHECK_TARGETS, replace=False))
        return ops

    def check(self, outputs: dict) -> list[str]:
        problems = []
        t_sub = np.linspace(-1.0, 1.0, self.S)[self.check_idx]
        for key, out in outputs.items():
            tau, lam, m, plan_seed = self.cells[key]
            row = _parse_row(out)
            if not _check_identity(key, row, "sinh", m, tau, lam, problems):
                continue
            L = round(self.N * (1 + lam))
            p = ref.shape_param("sinh", self.N, lam, tau, m)
            special = ref.robustness_specialized("sinh", lam, tau, m, self.EPS)
            generic = self.EPS * (2.0 + L * float(ref.phihat0_mp("sinh", p, L, m)))
            if row["bound"] is None or not _close(row["bound"], special, ref.CLOSED_REL_TOL):
                problems.append(f"{key}: bound {row['bound']} != recomputed {special!r}")
            for label, bound in (("specialized", special), ("generic", generic)):
                if not row["measured"] <= bound:
                    problems.append(f"{key}: measured {row['measured']!r} exceeds the {label} bound {bound!r}")
            # Independent maximum over the target subset, from the noise
            # streams of the plan's only cell (index 0).
            lo, hi = -L - m, L + m
            ell, weights = ref.kernel_rows("sinh", p, L, m, t_sub)
            worst = 0.0
            for trial in range(self.TRIALS):
                diff, scale = ref.rf_sum(ref.noise(plan_seed, 0, trial, hi - lo + 1, self.EPS), lo, ell, weights)
                worst = max(worst, float(np.max(np.abs(diff) - ref.sum_tol(scale))))
            if not row["measured"] >= worst:
                problems.append(f"{key}: measured {row['measured']!r} is below the independent maximum {worst!r} on the target subset")
        return problems


class Constants:
    """Error constants and kernel transforms of the four windows at N = 128,
    through the library: e1_numeric, e2_numeric, e1_alias_aware,
    compute_report, eta at the band edge and ft_psi on seeded frequencies in
    the band and the first image bands."""

    name = "constants"
    N = 128
    # (window, tau, lambda, m).  The alias-aware constant of the B-spline
    # and sinh windows costs about a second even at m = 2.
    CONFIGS = (("rect", "1/3", 1.0, 8), ("gauss", "1/20", 1.0, 4),
               ("bspline", "1/20", 1.0, 2), ("sinh", "1/4", 0.5, 2))
    FREQS_PER_BAND = 16
    EPS = 1e-3  # compute_report's default noise level

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        self.cells = {}
        ops = []
        for i in rng.permutation(len(self.CONFIGS)):
            w, tau_s, lam, m = self.CONFIGS[i]
            tau = _frac(tau_s)
            L, delta = round(self.N * (1 + lam)), tau * self.N
            n = self.FREQS_PER_BAND
            v = np.concatenate([rng.uniform(-delta, delta, n),
                                rng.uniform(L - delta, L + delta, n),
                                rng.uniform(-L - delta, -L + delta, n)])
            key = f"{w}-tau{tau_s.replace('/', '_')}-lam{lam:g}-m{m}"
            self.cells[key] = (w, tau, lam, m, v)
            ops.append(Op(key, self._call(w, tau, lam, m, v), lambda raw: raw))
        return ops

    def _call(self, w_kind, tau, lam, m, v):
        N = self.N

        def call():
            from regusamp import bounds, kernel, windows

            cfg = windows.SamplingConfig(N, lam, tau, m)
            w = windows.default_params(w_kind, cfg)
            rep = bounds.compute_report(w, cfg)
            return {
                "e1": bounds.e1_numeric(w, cfg),
                "e2": bounds.e2_numeric(w, cfg),
                "e1_alias_aware": bounds.e1_alias_aware(w, cfg),
                "report": (rep.e1, rep.e2, rep.closed_form, rep.robustness, rep.eta_max),
                "eta_edge": float(bounds.eta(w, cfg, cfg.delta)),
                "ft_psi": tuple(float(x) for x in kernel.ft_psi(kernel.KernelEval(w, cfg), v)),
            }

        return call

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for key, out in outputs.items():
            w, tau, lam, m, v = self.cells[key]
            N = self.N
            L, delta = round(N * (1 + lam)), tau * N
            p = ref.shape_param(w, N, lam, tau, m)
            root = math.sqrt(2.0 * delta)

            def agree(label, got, want, scale):
                if not abs(got - want) <= ref.CONST_ABS_TOL * scale + ref.CONST_REL_TOL * abs(want):
                    problems.append(f"{key}: {label} = {got!r}, mpmath {want!r}")

            eta_ref = float(ref.eta_mp(w, p, L, m, delta))
            agree("eta(delta)", out["eta_edge"], eta_ref, 1.0)
            n = self.FREQS_PER_BAND
            for i in (0, n, 2 * n):  # one frequency in each band
                agree(f"psihat({float(v[i])!r})", out["ft_psi"][i], float(ref.psihat_mp(w, p, L, m, v[i])), 1.0 / L)
            if w == "gauss":
                e2_ref = float(ref.e2_gauss_mp(p, L, m))
                if not _close(out["e2"], e2_ref, ref.CLOSED_REL_TOL):
                    problems.append(f"{key}: e2 = {out['e2']!r}, mpmath {e2_ref!r}")
            elif out["e2"] != 0.0:
                problems.append(f"{key}: e2 = {out['e2']!r} for a compactly supported window")
            e1_floor = root * (abs(eta_ref) - ref.CONST_ABS_TOL - ref.CONST_REL_TOL * abs(eta_ref))
            if not out["e1"] >= e1_floor:
                problems.append(f"{key}: e1 = {out['e1']!r} < sqrt(2 delta) |eta(delta)| = {root * abs(eta_ref)!r}")
            if not out["e1_alias_aware"] >= out["e1"]:
                problems.append(f"{key}: e1_alias_aware {out['e1_alias_aware']!r} < e1 {out['e1']!r}")
            r_e1, r_e2, r_closed, r_robust, r_eta_max = out["report"]
            if (r_e1, r_e2) != (out["e1"], out["e2"]) or not _close(r_eta_max * root, r_e1, ref.CLOSED_REL_TOL):
                problems.append(f"{key}: compute_report (e1, e2, eta_max) = {(r_e1, r_e2, r_eta_max)!r} disagrees with e1_numeric/e2_numeric")
            cf = ref.closed_form_bound(w, N, lam, tau, m)
            if (r_closed is None) != (cf is None) or (cf is not None and not _close(r_closed, cf, ref.CLOSED_REL_TOL)):
                problems.append(f"{key}: compute_report closed_form = {r_closed!r}, recomputed {cf!r}")
            robust = ref.robustness_specialized(w, lam, tau, m, self.EPS)
            if robust is None:
                robust = self.EPS * (2.0 + L * float(ref.phihat0_mp(w, p, L, m)))
            if not _close(r_robust, robust, ref.CLOSED_REL_TOL):
                problems.append(f"{key}: compute_report robustness = {r_robust!r}, recomputed {robust!r}")
        return problems


class PointQueries:
    """`regusamp reconstruct --samples FILE --grid=a,b,300` invocations on
    seeded sample files, all four windows, N = 128, lambda = 1, tau = 1/3."""

    name = "point-queries"
    N = 128
    LAM = 1.0
    TAU = "1/3"
    WINDOWS = ("rect", "gauss", "bspline", "sinh")
    MS = (4, 8)
    TARGETS = 300
    FILES = 4
    TERMS = 49  # sinc terms of each seeded test signal

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        L = round(self.N * (1 + self.LAM))
        delta = _frac(self.TAU) * self.N
        self.lo = -L - max(self.MS)
        ell = np.arange(self.lo, L + max(self.MS) + 1)
        self.signals = []
        for i in range(self.FILES):
            coeffs = rng.standard_normal(self.TERMS)
            shift = float(rng.uniform(-0.5, 0.5))
            values = ref.sinc_series(delta, shift, coeffs, ell / L)
            path = workdir / f"samples{i}.csv"
            path.write_text("index,value\n" + "".join(f"{l},{x:.17g}\n" for l, x in zip(ell, values)),
                            encoding="ascii")
            self.signals.append((path, shift, coeffs, values))
        span_aligned = (self.TARGETS - 1) / (2 * L)  # spacing 1/(2L): every other target on the grid
        self.cells = {}
        todo = [(w, m, aligned) for w in self.WINDOWS for m in self.MS for aligned in (True, False)]
        ops = []
        for i in rng.permutation(len(todo)):
            w, m, aligned = todo[i]
            if aligned:
                a = int(rng.integers(-L, math.floor(L * (1 - span_aligned)) + 1)) / L
                b = a + span_aligned
            else:
                a = float(rng.uniform(-1.0, 0.4))
                b = a + 0.6
            sig = int(rng.integers(self.FILES))
            key = f"{w}-m{m}-{'aligned' if aligned else 'offgrid'}"
            grid = f"{a:.17g},{b:.17g},{self.TARGETS}"
            argv = ["reconstruct", "--samples", str(self.signals[sig][0]), "--N", str(self.N),
                    "--lambda", f"{self.LAM:g}", "--tau", self.TAU, "--m", str(m), "--window", w,
                    f"--grid={grid}"]
            self.cells[key] = (w, m, a, b, sig)
            ops.append(Op(key, lambda argv=argv: run_cli(argv), _expect_ok))
        return ops

    def check(self, outputs: dict) -> list[str]:
        problems = []
        L = round(self.N * (1 + self.LAM))
        tau = _frac(self.TAU)
        delta = tau * self.N
        for key, out in outputs.items():
            w, m, a, b, sig = self.cells[key]
            _, shift, coeffs, values = self.signals[sig]
            lines = out.splitlines()
            if not lines or lines[0] != "t,value" or len(lines) != self.TARGETS + 1:
                problems.append(f"{key}: expected a header and {self.TARGETS} rows, got {len(lines)} lines")
                continue
            t, got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T
            if not np.array_equal(t, np.linspace(a, b, self.TARGETS)):
                problems.append(f"{key}: targets differ from the requested grid {a!r},{b!r},{self.TARGETS}")
                continue
            p = ref.shape_param(w, self.N, self.LAM, tau, m)
            ell, weights = ref.kernel_rows(w, p, L, m, t)
            want, scale = ref.rf_sum(values, self.lo, ell, weights)
            on = L * t == np.rint(L * t)
            if np.any(got[on] != want[on]):
                problems.append(f"{key}: an on-grid target does not return its sample value")
            off = ~on
            bad = np.abs(got[off] - want[off]) > ref.sum_tol(scale[off])
            if np.any(bad):
                i = int(np.argmax(bad))
                problems.append(f"{key}: R f({float(t[off][i])!r}) = {float(got[off][i])!r}, plain sum {float(want[off][i])!r}")
            f_t = ref.sinc_series(delta, shift, coeffs, t)
            bound = ref.closed_form_bound(w, self.N, self.LAM, tau, m) * float(np.linalg.norm(coeffs))
            if np.max(np.abs(got - f_t) - ref.sum_tol(np.abs(f_t))) > bound:
                problems.append(f"{key}: error {float(np.max(np.abs(got - f_t)))!r} exceeds the bound {bound!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Approx, Perturb, Constants, PointQueries)}
