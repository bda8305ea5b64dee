"""Fast self-test of the benchmark's checks and tracer.

    python3 bench/selftest.py

For each workload it runs a few cheap operations through the package,
shows that the workload's check accepts their outputs, and then that the
check rejects each deliberately corrupted copy: a scaled ``measured``
value, a perturbed reconstruction value, a wrong constant.  It also shows
that the tracer reports a missing function as absent and restores every
wrapped function.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

failures: list[str] = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def outputs_of(workload, workdir: Path, keys) -> dict:
    ops = {op.key: op for op in workload.setup(workdir)}
    return {key: ops[key].read(ops[key].call()) for key in keys}


def with_field(row: str, index: int, value: float) -> str:
    fields = row.split(",")
    fields[index] = repr(value)
    return ",".join(fields)


def scaled_measured(outputs: dict, key: str, factor: float) -> dict:
    row = outputs[key]
    return {key: with_field(row, 4, float(row.split(",")[4]) * factor)}


def check_approx(workdir: Path) -> None:
    wl = workloads.Approx(seed=7)
    keys = ("gauss-lam0.5-m2", "bspline-lam2-m8", "sinh-lam0.5-m2")
    out = outputs_of(wl, workdir, keys)
    expect("approx: true outputs", wl.check(out), rejected=False)
    expect("approx: measured halved", wl.check(scaled_measured(out, "gauss-lam0.5-m2", 0.5)), rejected=True)
    expect("approx: measured x1e3 above a valid bound",
           wl.check(scaled_measured(out, "bspline-lam2-m8", 1e3)), rejected=True)
    expect("approx: bound column changed",
           wl.check({"bspline-lam2-m8": with_field(out["bspline-lam2-m8"], 5, 1.0)}), rejected=True)


def check_perturb(workdir: Path) -> None:
    wl = workloads.Perturb(seed=7)
    key = "sinh-tau1_20-lam1-m2"
    out = outputs_of(wl, workdir, (key,))
    expect("perturb: true outputs", wl.check(out), rejected=False)
    expect("perturb: measured halved", wl.check(scaled_measured(out, key, 0.5)), rejected=True)
    expect("perturb: measured x10 above the bounds", wl.check(scaled_measured(out, key, 10.0)), rejected=True)


def check_constants(workdir: Path) -> None:
    wl = workloads.Constants(seed=7)
    keys = ("rect-tau1_3-lam1-m8", "gauss-tau1_20-lam1-m4")
    out = outputs_of(wl, workdir, keys)
    expect("constants: true outputs", wl.check(out), rejected=False)
    g = out["gauss-tau1_20-lam1-m4"]

    def changed(**fields):
        return {"gauss-tau1_20-lam1-m4": {**g, **fields}}

    psi = list(g["ft_psi"])
    psi[16] *= 1.0 + 1e-6
    report = list(g["report"])
    report[2] *= 1.01
    expect("constants: eta(delta) off by 1e-6", wl.check(changed(eta_edge=g["eta_edge"] * (1 + 1e-6))), rejected=True)
    expect("constants: psihat in an image band off by 1e-6", wl.check(changed(ft_psi=tuple(psi))), rejected=True)
    expect("constants: e2 off by 1e-9", wl.check(changed(e2=g["e2"] * (1 + 1e-9))), rejected=True)
    expect("constants: e1 halved", wl.check(changed(e1=g["e1"] * 0.5)), rejected=True)
    expect("constants: closed-form constant off by 1%", wl.check(changed(report=tuple(report))), rejected=True)


def check_point_queries(workdir: Path) -> None:
    wl = workloads.PointQueries(seed=7)
    keys = ("rect-m4-aligned", "sinh-m8-offgrid")
    out = outputs_of(wl, workdir, keys)
    expect("point-queries: true outputs", wl.check(out), rejected=False)

    def perturbed(key, row, rel):
        lines = out[key].splitlines()
        t, v = lines[row].split(",")
        lines[row] = f"{t},{float(v) * (1 + rel)!r}"
        return {key: "\n".join(lines) + "\n"}

    # Row 1 of an aligned grid is on a sample point, row 2 lies halfway between two.
    expect("point-queries: on-grid value off by 1e-15", wl.check(perturbed("rect-m4-aligned", 1, 1e-15)), rejected=True)
    expect("point-queries: off-grid value off by 1e-9", wl.check(perturbed("sinh-m8-offgrid", 2, 1e-9)), rejected=True)
    short = "\n".join(out["sinh-m8-offgrid"].splitlines()[:-1]) + "\n"
    expect("point-queries: a row missing", wl.check({"sinh-m8-offgrid": short}), rejected=True)


def check_tracer() -> None:
    from regusamp import reconstruct

    original = reconstruct.kernel_matrix
    tracer = Tracer()
    tracer.install({**SPANS, ("reconstruct", "no_such_function"): None})
    wrapped = reconstruct.kernel_matrix is not original
    tracer.uninstall()
    absent = tracer.absent == ["reconstruct.no_such_function"]
    restored = reconstruct.kernel_matrix is original
    ok = wrapped and absent and restored
    print(f"{'ok  ' if ok else 'FAIL'} tracer: wraps, reports a missing function as absent, restores")
    if not ok:
        failures.append("tracer")


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        check_approx(workdir)
        check_perturb(workdir)
        check_constants(workdir)
        check_point_queries(workdir)
        check_tracer()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass
    print(f"{len(failures)} failed" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
