"""Command-line interface: exit codes, CSV output, determinism.

Most calls run ``cli.main`` in this process (``run_cli``); a few start
``python -m regusamp.cli`` (``run_process``) to cover the module entry point.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import regusamp
from regusamp import cli
from regusamp.harness import BoundViolation
from regusamp.kernel import NonFiniteInput
from regusamp.reconstruct import (
    IndexOutOfRange,
    TestFunction,
    TestFunctionKind,
    reconstruct_grid,
    sample,
    usable_cpu_count,
)
from regusamp.windows import SamplingConfig, WindowKind, default_params
from samples_io import save_samples

CFG = SamplingConfig(32, 1.0, 1 / 3, 4)
# The CLI subprocess imports the package the tests imported, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(regusamp.__file__))


def run_process(*args, timeout=None):
    """``python -m regusamp.cli *args`` in a fresh interpreter, ended after
    ``timeout`` seconds if given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "regusamp.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_cli(*args):
    """``regusamp *args`` through ``cli.main`` in this process, returned like
    a finished subprocess: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "samples.csv"
    f = TestFunction(TestFunctionKind.SINC_BAND, delta=CFG.delta)
    ss = sample(f, CFG, -CFG.L - CFG.m, CFG.L + CFG.m)
    save_samples(ss, path)
    return path, ss


# Run in a fresh interpreter with the arguments package root, sample file
# (CFG) and plan file: which heavy modules each step has loaded, one JSON
# object per step.
IMPORT_PATH_PROBE = """
import contextlib, io, json, os, sys, threading
root, samples, plan = sys.argv[1:]
sys.path.insert(0, root)
HEAVY = ("scipy.special", "scipy.integrate", "concurrent.futures", "concurrent.futures.process",
         "concurrent.futures.thread", "logging")

def loaded(step):
    print(json.dumps({"step": step, **{name: name in sys.modules for name in HEAVY}}))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

from regusamp import cli
loaded("import")
flags = ("--N", "32", "--lambda", "1", "--tau", "1/3")
for window in ("rect", "gauss", "bspline", "sinh"):
    run("reconstruct", "--samples", samples, *flags, "--m", "4", "--window", window, "--grid", "-1,1,21")
assert threading.active_count() == 1, threading.enumerate()
loaded("reconstruct")
run("experiment", "--plan", plan, "--out", os.path.join(os.path.dirname(plan), "o.csv"), "--jobs", "1")
loaded("reconstruct+experiment")
run("bounds", *flags, "--window", "sinh", "--m", "2")
loaded("bounds")
"""


def test_import_path_loads_scipy_special_on_first_use(sample_csv, tmp_path):
    # Importing the package and reconstructing need numpy only: scipy.special
    # (erfc, J1, I1e) loads when bounds first needs it, scipy.integrate with
    # the quadrature oracles, the process pool with jobs > 1 and the thread
    # pool with the first call of several kernel blocks; one block starts
    # no thread and loads neither concurrent.futures nor, with it, logging.
    plan = tmp_path / "clean.plan"
    plan.write_text(PLAN_TEXT.replace("windows = gauss,sinh", "windows = rect,gauss,bspline,sinh"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_PROBE, PACKAGE_ROOT, str(sample_csv[0]), str(plan)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps = {s.pop("step"): s for s in map(json.loads, proc.stdout.splitlines())}
    assert steps["import"] == {"scipy.special": False, "scipy.integrate": False, "concurrent.futures": False,
                               "concurrent.futures.process": False, "concurrent.futures.thread": False,
                               "logging": False}
    assert steps["reconstruct"]["concurrent.futures.thread"] is False
    assert steps["reconstruct"]["concurrent.futures"] is False
    assert steps["reconstruct"]["logging"] is False
    assert steps["reconstruct+experiment"]["scipy.special"] is False
    assert steps["bounds"]["scipy.special"] is True


def test_selftest_passes():
    proc = run_process("selftest")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stderr
    assert proc.stdout.strip().endswith(",0")


def test_usage_errors_exit_2(sample_csv):
    assert run_cli("reconstruct", "--bogus").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("experiment", "--out", "x.csv").returncode == 2  # no plan/preset
    path, _ = sample_csv
    proc = run_cli(  # shape flag for the wrong window family
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "sinh", "--sigma", "0.1", "--at", "0.0",
    )
    assert proc.returncode == 2
    assert "--sigma" in proc.stderr


def test_reconstruct_on_grid_echoes_sample(sample_csv):
    path, ss = sample_csv
    ell = 5
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "bspline", "--at", repr(ell / CFG.L),
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,value"
    t_out, val_out = lines[1].split(",")
    assert float(val_out) == pytest.approx(ss.values[ell - ss.index_lo], rel=1e-12)


def test_reconstruct_empty_grid_exit_2(sample_csv):
    path, _ = sample_csv
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "rect", "--grid=-0.5,0.5,0",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""  # rejected before the CSV header
    assert "count" in proc.stderr


@pytest.mark.parametrize("flag,value", [("--tau", "0.6"), ("--lambda", "inf")])
def test_reconstruct_out_of_range_config_exit_2(sample_csv, flag, value):
    path, _ = sample_csv
    settings = {"--N": "32", "--lambda": "1", "--tau": "1/3", "--m": "4", flag: value}
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--window", "rect", "--at", "0.01",
        *(arg for item in settings.items() for arg in item),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag.lstrip("-").replace("lambda", "lam") in proc.stderr


def test_reconstruct_default_sigma_on_stderr(sample_csv):
    path, _ = sample_csv
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "gauss", "--at", "0.01",
    )
    assert proc.returncode == 0
    assert "default sigma" in proc.stderr


DEFAULT_SHAPE_STDERR = {
    "rect": "",
    "gauss": "using default sigma = 0.021593384341958465\n",
    "bspline": "using default s = 3\n",
    "sinh": "using default beta = 8.3775804095727828\n",
}
SHAPE_FLAGS = {"gauss": ("--sigma", "0.01"), "bspline": ("--s", "3"), "sinh": ("--beta", "9.5")}


@pytest.mark.parametrize("window", [k.value for k in WindowKind])
@pytest.mark.parametrize("flag", [None, *SHAPE_FLAGS])
def test_reconstruct_window_shape_flags(sample_csv, window, flag):
    # Each window takes only its own shape flag; without it the default is
    # reported on stderr.
    path, _ = sample_csv
    extra = SHAPE_FLAGS[flag] if flag else ()
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", window, *extra, "--at", "0.01",
    )
    if flag is None:
        assert (proc.returncode, proc.stderr) == (0, DEFAULT_SHAPE_STDERR[window])
    elif flag == window:
        assert (proc.returncode, proc.stderr) == (0, "")
    else:
        name = SHAPE_FLAGS[flag][0]
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"{name} does not apply to the {window} window\n"
    assert proc.stdout.startswith("t,value\n0.01,") == (proc.returncode == 0)


def test_reconstruct_missing_samples_exit_3(sample_csv):
    path, _ = sample_csv
    proc = run_process(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "rect", "--at", "30.0",
    )
    assert proc.returncode == 3
    assert "sample" in proc.stderr and "index" in proc.stderr


def test_reconstruct_grid_rows(sample_csv):
    path, _ = sample_csv
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "sinh", "--grid=-0.5,0.5,7",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 8
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == pytest.approx(list(np.linspace(-0.5, 0.5, 7)))


def test_reconstruct_grid_output_is_reconstruct_grid(sample_csv):
    path, ss = sample_csv
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "sinh", "--grid=-0.5,0.5,129",
    )
    assert proc.returncode == 0, proc.stderr
    t = np.linspace(-0.5, 0.5, 129)  # spacing 1/(2L): every other target on the grid
    want = reconstruct_grid(ss, default_params(WindowKind.SINH, CFG), t)
    assert proc.stdout == "t,value\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, want))
    on = t[::2]
    j = np.rint(CFG.L * on).astype(int)
    assert np.array_equal(CFG.L * on, j)
    rows = proc.stdout.splitlines()[1::2]
    assert np.array_equal([float(row.split(",")[1]) for row in rows], ss.values[j - ss.index_lo])


@pytest.mark.parametrize("target,message", [
    ("--grid=0.0078125,1.5078125,4", "t = 1.5078125 requires samples for indices [93, 100]; sample set covers [-68, 68]"),
    ("--at=2.0", "t = 2.0 needs sample index 128; sample set covers [-68, 68]"),
    ("--at=3e17", "t = 3e+17 lies beyond every sample index"),
    ("--grid=1.5078125,3e17,2",  # the far second target does not hide the first
     "t = 1.5078125 requires samples for indices [93, 100]; sample set covers [-68, 68]"),
])
def test_reconstruct_exit_3_writes_no_rows(sample_csv, target, message):
    # The grid's first three targets are covered; none of their rows may appear.
    path, _ = sample_csv
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "rect", target,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert message in proc.stderr


def test_reconstruct_grid_negative_start_as_separate_argument(sample_csv):
    path, _ = sample_csv
    flags = ("reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
             "--tau", "1/3", "--m", "4", "--window", "sinh")
    spaced = run_cli(*flags, "--grid", "-0.5,0.5,3")
    joined = run_cli(*flags, "--grid=-0.5,0.5,3")
    assert spaced.returncode == 0, spaced.stderr
    assert joined.returncode == 0
    assert spaced.stdout == joined.stdout
    assert len(spaced.stdout.strip().splitlines()) == 4
    at = run_cli(*flags, "--at", "-1e-3")  # not a plain decimal either
    assert at.returncode == 0, at.stderr
    assert at.stdout == run_cli(*flags, "--at=-1e-3").stdout


@pytest.mark.parametrize("flag,value", [("--at", "inf"), ("--at", "nan"), ("--grid", "-inf,0,3")])
def test_reconstruct_non_finite_target_exit_2(sample_csv, flag, value):
    path, _ = sample_csv
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "gauss", "--sigma", "0.01", flag, value,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""  # rejected before the CSV header
    assert "finite" in proc.stderr


def test_reconstruct_non_finite_sample_exit_2(tmp_path):
    path = tmp_path / "nan.csv"
    rows = [f"{ell},{'nan' if ell == 3 else 0.5}" for ell in range(-CFG.L - CFG.m, CFG.L + CFG.m + 1)]
    path.write_text("index,value\n" + "\n".join(rows) + "\n")
    proc = run_cli(
        "reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "rect", "--at", "0.01",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "finite" in proc.stderr


def test_bounds_csv(sample_csv):
    proc = run_cli("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3",
                   "--window", "sinh", "--m", "2,5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("window,m,tau,lambda,e1,e2,closed_form")
    assert len(lines) == 3
    assert lines[1].startswith("sinh,2,")


def test_bounds_invalid_bspline_cell_is_na():
    proc = run_cli("bounds", "--N", "128", "--lambda", "0", "--tau", "1/3",
                   "--window", "bspline", "--m", "4")
    assert proc.returncode == 0
    assert ",NA," in proc.stdout.splitlines()[1]


def test_bounds_bad_m_writes_no_rows():
    # The m = 2 row can be computed; it may not appear when m = 0 then fails.
    proc = run_cli("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3",
                   "--window", "gauss", "--m", "2,0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "m must be an integer >= 2, got 0" in proc.stderr


def test_bounds_evaluates_robustness_once_per_row(monkeypatch):
    # compute_report keeps both robustness columns, so the CLI reads them
    # from the report instead of evaluating the bound again.
    from regusamp import bounds

    original, calls = bounds.robustness_bound, []
    monkeypatch.setattr(bounds, "robustness_bound", lambda *args: calls.append(args) or original(*args))
    proc = run_cli("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3", "--window", "sinh", "--m", "2,3,4")
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 4
    assert len(calls) == 3


@pytest.mark.parametrize("value", ["2.5", "3,"])
def test_bounds_unparsable_m_names_flag(value):
    proc = run_cli("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3",
                   "--window", "gauss", "--m", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--m expects an integer or a comma list of integers, got {value!r}" in proc.stderr


@pytest.mark.parametrize("window,flag,value", [
    ("bspline", "--s", "8"), ("gauss", "--sigma", "0.001"), ("sinh", "--beta", "40"),
])
def test_bounds_non_default_window_has_no_proven_constant(window, flag, value):
    common = ("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3", "--window", window, "--m", "4")
    row = run_cli(*common, flag, value).stdout.splitlines()[1].split(",")
    assert row[6] == row[8] == "NA"  # closed_form, robust_specialized
    default = run_cli(*common)
    printed = default.stderr.rsplit(" = ", 1)[1].strip()  # "using default s = 3"
    assert run_cli(*common, flag, printed).stdout == default.stdout
    assert "NA" not in default.stdout


PLAN_TEXT = (
    "test_fn = sincband\nN = 64\nm_list = 2,4\ntau_list = 1/3\n"
    "lambda_list = 1\nwindows = gauss,sinh\nS = 501\neps = 0\nseed = 9\n"
)


def test_experiment_plan_runs_and_is_deterministic(tmp_path):
    plan = tmp_path / "small.plan"
    plan.write_text(PLAN_TEXT)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    p1 = run_cli("experiment", "--plan", str(plan), "--out", str(out1), "--jobs", "1")
    p2 = run_cli("experiment", "--plan", str(plan), "--out", str(out2), "--jobs", "2")
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "window,m,tau,lambda,measured,bound,bound_valid"
    assert len(lines) == 5


def test_experiment_bound_violation_exit_4(tmp_path, monkeypatch):
    from regusamp import cli as cli_mod
    from regusamp.harness import BoundViolation

    plan = tmp_path / "small.plan"
    plan.write_text(PLAN_TEXT)

    def boom(plan, jobs):
        raise BoundViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod.harness, "run_plan", boom)
    code = cli_mod.main(["experiment", "--plan", str(plan), "--out", str(tmp_path / "o.csv")])
    assert code == 4


@pytest.mark.parametrize("flag", ["--tau", "--lambda"])
def test_zero_denominator_flag_exit_2(flag):
    args = {"--N": "128", "--lambda": "1", "--tau": "1/3", "--window": "rect", "--m": "2", flag: "1/0"}
    proc = run_cli("bounds", *(x for item in args.items() for x in item))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag}" in proc.stderr and "'1/0'" in proc.stderr


def test_experiment_zero_denominator_plan_exit_2(tmp_path):
    plan = tmp_path / "zero.plan"
    plan.write_text(PLAN_TEXT.replace("tau_list = 1/3", "tau_list = 1/0"))
    out = tmp_path / "o.csv"
    proc = run_cli("experiment", "--plan", str(plan), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert "'1/0'" in proc.stderr


def test_experiment_repeated_plan_key_exit_2(tmp_path):
    plan = tmp_path / "twice.plan"
    plan.write_text(PLAN_TEXT + "tau_list = 1/4\n")
    out = tmp_path / "o.csv"
    proc = run_cli("experiment", "--plan", str(plan), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert "'tau_list' given twice" in proc.stderr


@pytest.mark.parametrize("window,flag,value,message", [
    ("sinh", "--eps", "nan", "eps must be finite and > 0, got nan"),
    ("sinh", "--eps", "inf", "eps must be finite and > 0, got inf"),
    ("gauss", "--sigma", "inf", "sigma must be finite and > 0, got inf"),
    ("sinh", "--beta", "inf", "beta must be finite and > 0, got inf"),
    ("sinh", "--beta", "nan", "beta must be finite and > 0, got nan"),
])
def test_bounds_non_finite_value_exit_2(window, flag, value, message):
    proc = run_cli("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3",
                   "--window", window, "--m", "2", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("window,flag,value,message", [
    ("gauss", "--sigma", "1e-300", "sigma must lie in [1e-150, 1e150]"),
    ("gauss", "--sigma", "1e300", "sigma must lie in [1e-150, 1e150]"),
    ("sinh", "--beta", "1e300", "beta must lie in [1e-150, 1e150]"),
    ("bspline", "--s", "100000", "s must be <= 64, got 100000"),
], ids=["sigma-tiny", "sigma-huge", "beta-huge", "s-huge"])
def test_bounds_shape_parameter_out_of_range_exit_2(window, flag, value, message):
    # A fresh process with a timeout: a B-spline of half-order 1e5 would
    # build its exact coefficients for minutes before printing anything.
    proc = run_process("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3",
                       "--window", window, "--m", "2", flag, value, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("change,message", [
    (("eps = 0", "eps = nan"), "eps must be finite and >= 0, got nan"),
    (("eps = 0", "eps = inf"), "eps must be finite and >= 0, got inf"),
    (("seed = 9", "seed = -1"), "seed must be >= 0, got -1"),
], ids=["plan-eps-nan", "plan-eps-inf", "plan-seed-negative"])
def test_experiment_bad_noise_or_seed_exit_2(tmp_path, change, message):
    # Rejected before any cell runs: no row, no CSV.
    plan = tmp_path / "bad.plan"
    plan.write_text(PLAN_TEXT.replace(*change))
    out = tmp_path / "o.csv"
    proc = run_cli("experiment", "--plan", str(plan), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert message in proc.stderr


BIG = "1" + "0" * 400  # an integer beyond every float


@pytest.mark.parametrize("flags,plan_change,message", [
    ({"--lambda": "1e308"}, None, "N*(1+lam) = inf is not an integer"),
    ({"--N": BIG}, None, "N is too large for a float"),
    ({"--window": "bspline", "--s": BIG}, None, "s is too large for a float"),
    ({"--m": BIG}, None, "m is too large for a float"),
    (None, ("lambda_list = 1", "lambda_list = 1e308"), "N*(1+lam) = inf is not an integer"),
], ids=["lambda", "N", "s", "m", "plan-lambda"])
def test_overflowing_config_exit_2(tmp_path, flags, plan_change, message):
    out = tmp_path / "o.csv"
    if flags is None:
        plan = tmp_path / "big.plan"
        plan.write_text(PLAN_TEXT.replace(*plan_change))
        proc = run_cli("experiment", "--plan", str(plan), "--out", str(out))
    else:
        args = {"--N": "128", "--lambda": "1", "--tau": "1/3", "--window": "gauss", "--m": "4", **flags}
        proc = run_cli("bounds", *(x for item in args.items() for x in item))
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert message in proc.stderr


@pytest.mark.parametrize("key", ["windows", "tau_list", "lambda_list", "m_list"])
def test_experiment_empty_grid_list_exit_2(tmp_path, key):
    # Rejected before any cell runs: no header-only CSV.
    plan = tmp_path / "empty.plan"
    plan.write_text(re.sub(rf"^{key} = .*$", f"{key} =", PLAN_TEXT, flags=re.M))
    out = tmp_path / "o.csv"
    proc = run_cli("experiment", "--plan", str(plan), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert f"{key} must be nonempty" in proc.stderr


def test_bounds_eps_accepts_fraction():
    args = ("bounds", "--N", "128", "--lambda", "1", "--tau", "1/3", "--window", "sinh", "--m", "2,5")
    frac = run_cli(*args, "--eps", "1/1000")
    dec = run_cli(*args, "--eps", "0.001")
    assert frac.returncode == 0 and dec.returncode == 0
    assert frac.stdout == dec.stdout and frac.stdout.count("\n") == 3
    assert frac.stderr == dec.stderr


def test_reconstruct_malformed_sample_row_exit_2(sample_csv, tmp_path):
    path, _ = sample_csv
    bad = tmp_path / "bad.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].rstrip("\n") + ",7\n"
    bad.write_text("".join(lines))
    proc = run_cli(
        "reconstruct", "--samples", str(bad), "--N", "32", "--lambda", "1",
        "--tau", "1/3", "--m", "4", "--window", "rect", "--at", "0.1",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{bad}, line 4: expected 2 fields" in proc.stderr


# cli.main in a fresh interpreter whose address space is capped, set in that
# interpreter alone; the arguments are the package root, the cap in MB, then
# the command line.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]) << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.path.insert(0, sys.argv[1])
from regusamp import cli
sys.exit(cli.main(sys.argv[3:]))
"""


def run_capped(cap_mb, *args):
    """``regusamp *args`` in a fresh interpreter capped at ``cap_mb`` MB of
    address space, with a one-thread BLAS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", CAPPED_CLI, PACKAGE_ROOT, str(cap_mb), *args],
                          capture_output=True, text=True, env=env, timeout=120)


RECONSTRUCT_FLAGS = ("reconstruct", "--N", "32", "--lambda", "1", "--tau", "1/3", "--m", "4", "--window", "rect")


@pytest.mark.parametrize("argv,named", [
    ((*RECONSTRUCT_FLAGS, "--samples", "{samples}", "--grid=0,0.5,1000000000000"), "--grid count 1000000000000"),
    (("experiment", "--plan", "{plan}", "--out", "{out}", "--jobs", "1"), "S = 1000000000000000"),
], ids=["grid-count", "plan-S"])
def test_targets_too_large_to_allocate_exit_2(sample_csv, tmp_path, argv, named):
    plan = tmp_path / "huge.plan"
    plan.write_text(PLAN_TEXT.replace("S = 501", "S = 1000000000000000"))
    paths = {"samples": sample_csv[0], "plan": plan, "out": tmp_path / "o.csv"}
    proc = run_capped(2048, *(a.format(**paths) for a in argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{named} " in proc.stderr and "too large to allocate" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


# Counts beyond numpy's largest array, where np.linspace raises ValueError
# ("array is too big" from 2**60, "Maximum allowed size exceeded" above
# 2**63) or, within about 512 of 2**63, IndexError; none allocates, so they
# run in process.
@pytest.mark.parametrize("count", [2**60, 2**63 - 1, 10**20], ids=["2^60", "2^63-1", "1e20"])
@pytest.mark.parametrize("source", ["grid", "plan"])
def test_count_beyond_largest_array_is_named_exit_2(sample_csv, tmp_path, source, count):
    out = tmp_path / "o.csv"
    if source == "grid":
        named = f"--grid count {count}"
        proc = run_cli(*RECONSTRUCT_FLAGS, "--samples", str(sample_csv[0]), f"--grid=0,1,{count}")
    else:
        named = f"S = {count}"
        plan = tmp_path / "huge.plan"
        plan.write_text(PLAN_TEXT.replace("S = 501", f"S = {count}"))
        proc = run_cli("experiment", "--plan", str(plan), "--out", str(out), "--jobs", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{named} is too large to allocate\n"
    assert not out.exists()


def test_output_too_large_to_allocate_exit_2(sample_csv):
    # At 700 MB the 381 MiB of targets fit and the 381 MiB of reconstructed
    # values do not: reconstruct_grid's output raises numpy's MemoryError.
    proc = run_capped(700, *RECONSTRUCT_FLAGS, "--samples", str(sample_csv[0]), "--grid=0,0.5,50000000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "allocate" in proc.stderr


@pytest.mark.parametrize("error,code", [
    (IndexOutOfRange("t = 2.0 needs sample index 128; sample set covers [-68, 68]"), 3),
    (BoundViolation("approximation error 2e-01 exceeds bound 1e-01 at window=sinh, m=2"), 4),
    (FileNotFoundError(2, "No such file or directory", "nope.csv"), 5),
    (NonFiniteInput("targets must be finite, got [nan]"), 2),
    (MemoryError("Unable to allocate 381. MiB for an array with shape (50000000,)"), 2),
    (MemoryError(), 2),
], ids=["IndexOutOfRange", "BoundViolation", "OSError", "NonFiniteInput", "MemoryError", "bare-MemoryError"])
def test_main_maps_error_type_to_exit_code(monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_selftest", fail)
    proc = run_cli("selftest")
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == f"{str(error) or type(error).__name__}\n"


def test_main_lets_a_defect_keep_its_traceback(monkeypatch):
    def fail(args):
        raise TypeError("a defect")

    monkeypatch.setattr(cli, "_cmd_selftest", fail)
    with pytest.raises(TypeError, match="a defect"):
        run_cli("selftest")


def test_experiment_missing_plan_exit_5(tmp_path):
    proc = run_cli("experiment", "--plan", str(tmp_path / "nope.plan"), "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 5


def test_experiment_unwritable_out_exit_5(tmp_path):
    plan = tmp_path / "small.plan"
    plan.write_text(PLAN_TEXT)
    proc = run_cli("experiment", "--plan", str(plan), "--out", str(tmp_path / "no/dir/o.csv"))
    assert proc.returncode == 5


def test_jobs_default_counts_the_cpus_the_process_may_use(monkeypatch):
    # In a container limited to a cpuset, os.cpu_count() also counts CPUs
    # outside the process's affinity mask.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cli._build_parser.cache_clear()
    try:
        args = cli._build_parser().parse_args(["experiment", "--preset", "fig2", "--out", "o.csv"])
    finally:
        cli._build_parser.cache_clear()
    assert args.jobs == usable_cpu_count() == 1


def test_in_process_calls_repeat_fresh_processes(sample_csv, tmp_path):
    # The parser is built once per process; a call must not see the calls
    # before it, the usage error that argparse leaves half-parsed included.
    assert cli._build_parser() is cli._build_parser()
    path, _ = sample_csv
    plan = tmp_path / "small.plan"
    plan.write_text(PLAN_TEXT)
    out = tmp_path / "o.csv"
    flags = ("reconstruct", "--samples", str(path), "--N", "32", "--lambda", "1",
             "--tau", "1/3", "--m", "4", "--window", "gauss")
    calls = [
        (*flags, "--at", "0.01", "--grid=0,1,3"),  # --at and --grid exclude each other
        (*flags, "--at", "-1e-3"),
        (*flags, "--grid", "-0.5,0.5,5"),
        ("experiment", "--plan", str(plan), "--out", str(out), "--jobs", "1"),
    ]

    def outcome(run, argv):
        proc = run(*argv)
        written = out.read_bytes() if argv[0] == "experiment" else None
        return proc.returncode, proc.stdout, proc.stderr, written

    in_process = [outcome(run_cli, argv) for argv in calls]
    fresh = [outcome(run_process, argv) for argv in calls]
    assert [result[0] for result in in_process] == [2, 0, 0, 0]
    assert in_process == fresh
