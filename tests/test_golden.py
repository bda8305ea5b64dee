"""Byte-identity of the program's outputs against the files in tests/golden.

Each file is regenerated here and compared byte for byte:

- plan.csv: a small experiment plan (four windows, m = 2, 5, 10, S = 5001,
  clean and noisy with 3 trials), at jobs = 1 and at jobs = 2.  S = 5001
  makes three kernel blocks, so the block threads run at m >= 5 and the
  inline path at m = 2;
- bounds.txt, reconstruct.txt, selftest.txt: ``regusamp bounds``,
  ``regusamp reconstruct`` (with two exit-3 calls) and ``regusamp
  selftest``, each call's exit code, stdout and stderr.

numpy picks its loops for sin, exp and the like by the CPU's SIMD features,
so a host with other features may round the last bits differently.
simd.txt holds the numpy version and SIMD line (as ``numpy.show_runtime()``
prints it) of the host that wrote the files.  A mismatch fails on a host
with that line and is skipped, naming both lines, on any other.

REGUSAMP_ACCEPT_FULL=1 also runs the six presets at full size, at jobs = 1
and at the CPU count, and compares the SHA-256 prefixes of their CSVs with
presets.sha256.

``PYTHONPATH=src python tests/test_golden.py`` rewrites every file but
presets.sha256, for a change that moves digits on purpose.
"""

import contextlib
import hashlib
import io
import itertools
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from regusamp import cli, harness
from regusamp.reconstruct import TestFunction, TestFunctionKind, sample, usable_cpu_count
from regusamp.windows import SamplingConfig, WindowKind
from samples_io import save_samples

GOLDEN = Path(__file__).resolve().parent / "golden"
FULL = os.environ.get("REGUSAMP_ACCEPT_FULL", "") == "1"
WINDOWS = [k.value for k in WindowKind]

PLANS = [
    harness.ExperimentPlan(
        test_fn=TestFunctionKind.SINC_BAND, N=128, m_list=(2, 5, 10), tau_list=(1 / 3,),
        lambda_list=(1.0,), windows=tuple(WindowKind), S=5001, **noise,
    )
    for noise in ({}, {"trials": 3, "eps": 1e-3})
]


def simd_line() -> str:
    """The numpy version and the simd_extensions entry of numpy.show_runtime()."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    found = re.search(r"'simd_extensions': \{[^}]*\}", " ".join(out.getvalue().split()))
    return f"numpy {np.__version__} {found.group(0)}"


def csv_of(plans, jobs: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        harness.emit_csv([row for plan in plans for row in harness.run_plan(plan, jobs=jobs)], path)
        with open(path, encoding="ascii") as fh:
            return fh.read()


def cli_record(calls) -> str:
    """Each ``regusamp`` call of ``calls`` with its exit code, stdout and
    stderr; ``{samples}`` in an argument is a sample file of (N, lambda,
    tau, m) = (64, 1, 1/3, 5) covering [-1, 1]."""
    cfg = SamplingConfig(64, 1.0, 1 / 3, 5)
    ss = sample(TestFunction(TestFunctionKind.SINC_BAND, delta=cfg.delta), cfg, -cfg.L - cfg.m, cfg.L + cfg.m)
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        samples = os.path.join(tmp, "samples.csv")
        save_samples(ss, samples)
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([arg.format(samples=samples) for arg in argv])
            shown = " ".join(arg.format(samples="samples.csv") for arg in argv)
            parts.append(f"$ regusamp {shown}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(parts)


def bounds_calls():
    return [
        ["bounds", "--N", "128", "--lambda", lam, "--tau", tau, "--window", window, "--m", "2,3,4,5,6,7,8,9,10"]
        for tau, lam in (("1/3", "1"), ("9/20", "1/2"))
        for window in WINDOWS
    ]


def reconstruct_calls():
    flags = ["reconstruct", "--samples", "{samples}", "--N", "64", "--lambda", "1", "--tau", "1/3", "--m", "5"]
    calls = [[*flags, "--window", window, "--grid=-1,1,101"] for window in WINDOWS]
    calls.append([*flags, "--window", "rect", "--grid=-1.5,1,3"])  # exit 3: samples missing
    calls.append([*flags, "--window", "sinh", "--grid=0.9,3e17,2"])  # exit 3: no window at all
    return calls


OUTPUTS = {
    "plan.csv": lambda: csv_of(PLANS, jobs=1),
    "bounds.txt": lambda: cli_record(bounds_calls()),
    "reconstruct.txt": lambda: cli_record(reconstruct_calls()),
    "selftest.txt": lambda: cli_record([["selftest"]]),
}


def skip_on_other_host(what: str) -> None:
    """Skip, naming both SIMD lines, unless this host's is the one that wrote the files."""
    recorded, here = (GOLDEN / "simd.txt").read_text().strip(), simd_line()
    if here != recorded:
        pytest.skip(f"{what} differs on a host with other SIMD loops: written with {recorded!r}, here {here!r}")


def assert_golden(name: str, got: str) -> None:
    want = (GOLDEN / name).read_bytes()
    if got.encode("ascii") == want:
        return
    skip_on_other_host(name)
    lines = itertools.zip_longest(got.splitlines(), want.decode("ascii").splitlines())
    n, (a, b) = next((n, pair) for n, pair in enumerate(lines, start=1) if pair[0] != pair[1])
    pytest.fail(f"{name} differs first at line {n}: got {a!r}, golden {b!r}")


@pytest.mark.parametrize("jobs", [1, 2])
def test_plan_csv(jobs):
    assert_golden("plan.csv", csv_of(PLANS, jobs))


@pytest.mark.parametrize("name", ["bounds.txt", "reconstruct.txt", "selftest.txt"])
def test_cli_output(name):
    assert_golden(name, OUTPUTS[name]())


def preset_digests():
    with open(GOLDEN / "presets.sha256", encoding="ascii") as fh:
        return dict(line.split() for line in fh if line.strip())


@pytest.mark.skipif(not FULL, reason="full presets run with REGUSAMP_ACCEPT_FULL=1")
@pytest.mark.parametrize("jobs", sorted({1, usable_cpu_count()}))
@pytest.mark.parametrize("preset", harness.PRESETS)
def test_full_preset_sha256(preset, jobs):
    text = csv_of(harness.load_preset(preset), jobs)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    want = preset_digests()[preset]
    if not digest.startswith(want):
        skip_on_other_host(preset)
        pytest.fail(f"{preset} at jobs={jobs}: SHA-256 {digest[:len(want)]}, golden {want}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in OUTPUTS.items():
        (GOLDEN / name).write_bytes(make().encode("ascii"))
    (GOLDEN / "simd.txt").write_text(simd_line() + "\n")
