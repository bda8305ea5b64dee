"""Experiment harness: plan parsing, determinism, CSV contract, trends."""

import dataclasses
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import regusamp
import regusamp.harness as harness_mod
from regusamp.bounds import e1_numeric, e2_numeric, robustness_bound
from regusamp.harness import (
    PRESETS,
    BoundViolation,
    ErrorRow,
    ExperimentPlan,
    emit_csv,
    load_plans,
    load_preset,
    parse_plan,
    run_plan,
)
from regusamp.reconstruct import TestFunctionKind, _draw_noise, kernel_matrix, noise_amplification
from regusamp.windows import SamplingConfig, WindowKind, default_params

PACKAGE_ROOT = os.path.dirname(os.path.dirname(regusamp.__file__))

SMALL_PLAN = ExperimentPlan(
    test_fn=TestFunctionKind.SINC_BAND,
    N=64,
    m_list=(2, 4, 6),
    tau_list=(1 / 3,),
    lambda_list=(1.0,),
    windows=(WindowKind.GAUSS, WindowKind.SINH),
    S=801,
    eps=0.0,
    seed=11,
)


def test_plan_validates_cells():
    with pytest.raises(ValueError):
        ExperimentPlan(
            test_fn=TestFunctionKind.SINC_BAND, N=64, m_list=(),
            tau_list=(1 / 3,), lambda_list=(1.0,), windows=(WindowKind.GAUSS,),
        )
    with pytest.raises(ValueError):
        ExperimentPlan(
            test_fn=TestFunctionKind.SINC_BAND, N=64, m_list=(2,),
            tau_list=(0.7,), lambda_list=(1.0,), windows=(WindowKind.GAUSS,),
        )
    with pytest.raises(ValueError):  # non-integer L
        ExperimentPlan(
            test_fn=TestFunctionKind.SINC_BAND, N=64, m_list=(2,),
            tau_list=(1 / 3,), lambda_list=(0.3,), windows=(WindowKind.GAUSS,),
        )


def test_cells_order():
    cells = SMALL_PLAN.cells()
    assert cells[0] == (WindowKind.GAUSS, 1 / 3, 1.0, 2)
    assert cells[3] == (WindowKind.SINH, 1 / 3, 1.0, 2)
    assert len(cells) == 6


def test_approximation_rows_and_decay():
    rows = run_plan(SMALL_PLAN)
    assert len(rows) == 6
    for row in rows:
        assert row.bound is not None and row.measured <= row.bound
    by_window = {}
    for row in rows:
        by_window.setdefault(row.window, []).append(row.measured)
    for vals in by_window.values():
        floor = 2e-15
        filtered = [v for v in vals if v > floor]
        assert all(a >= b for a, b in zip(filtered, filtered[1:]))


def test_measured_below_numeric_constants():
    for row in run_plan(SMALL_PLAN):
        cfg = SamplingConfig(SMALL_PLAN.N, row.lam, row.tau, row.m)
        w = default_params(row.window, cfg)
        assert row.measured <= e1_numeric(w, cfg) + e2_numeric(w, cfg)


def test_perturbation_bounds_and_determinism(tmp_path):
    plan = dataclasses.replace(SMALL_PLAN, eps=1e-3, trials=4, S=501)
    rep1 = run_plan(plan)
    rep2 = run_plan(plan)
    assert rep1 == rep2
    for row in rep1:
        assert row.measured <= row.bound
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rep1, p1)
    emit_csv(rep2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_perturbation_seed_changes_measurements():
    plan = dataclasses.replace(SMALL_PLAN, eps=1e-3, trials=2, S=301)
    other = dataclasses.replace(plan, seed=99)
    assert run_plan(plan) != run_plan(other)


def test_perturbation_sublinear_growth_in_m():
    plan = dataclasses.replace(
        SMALL_PLAN, m_list=(2, 8), windows=(WindowKind.SINH,), eps=1e-3, trials=10, S=2001
    )
    rows = run_plan(plan)
    assert rows[1].measured / rows[0].measured < 4.0  # sqrt(m)-like, not linear


def test_parallel_matches_serial():
    rep1 = run_plan(SMALL_PLAN, jobs=1)
    rep2 = run_plan(SMALL_PLAN, jobs=2)
    assert rep1 == rep2
    noisy = dataclasses.replace(SMALL_PLAN, eps=1e-3, trials=5, S=501)
    rows1 = run_plan(noisy, jobs=1)
    rows2 = run_plan(noisy, jobs=2)
    assert len(rows1) == len(noisy.cells())
    for r1, r2 in zip(rows1, rows2):
        assert r1 == r2


def test_pool_capped_at_cell_count(monkeypatch):
    # A process pool forks all its workers on the first submit, so run_plan
    # asks for no more than the plan has cells.  The fake pool records the
    # request and maps in process, so no worker starts.
    import concurrent.futures

    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    plan = dataclasses.replace(SMALL_PLAN, m_list=(2,), S=201)
    assert len(plan.cells()) == 2
    assert run_plan(plan, jobs=64) == run_plan(plan, jobs=1)
    assert requested == [2]


# Run in a fresh interpreter with the package root as argument.  Cells of
# three kernel blocks run on threads in this process, then in forked pool
# workers; then a plain forked child must build every block on its one
# thread.  Exit status 0 when all holds.
FORK_PROBE = """
import os, sys, threading
sys.path.insert(0, sys.argv[1])
import numpy as np
import regusamp.reconstruct as rec
from regusamp import SamplingConfig, default_params
from regusamp.harness import ExperimentPlan, run_plan

rec.usable_cpu_count = lambda: 2  # threads even on a one-CPU host
block = rec._block_rows(rec.KERNEL_WEIGHTS, 5)[0].stop
plan = ExperimentPlan("sincband", 32, (5, 6), (1 / 3,), (1.0,), ("gauss",), S=3 * block)
assert run_plan(plan, jobs=1) == run_plan(plan, jobs=2)
seen = set()
real = rec.kernel_matrix

def spy(*args):
    seen.add(threading.get_ident())
    return real(*args)

rec.kernel_matrix = spy
cfg = SamplingConfig(32, 1.0, 1 / 3, 5)
ss = rec.sample(rec.TestFunction("sincband", cfg.delta), cfg, -cfg.L - 5, cfg.L + 5)
t = np.linspace(-1.0, 1.0, 3 * block)
pid = os.fork()
if pid == 0:
    rec.reconstruct_grid(ss, default_params("gauss", cfg), t)
    os._exit(0 if seen == {threading.get_ident()} else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, "a forked child ran blocks on other threads"
"""


def test_pool_workers_after_threaded_cells_finish():
    # A forked child must never wait on a thread pool of its parent: this
    # probe hangs when it does, so it runs under a timeout, in a session of
    # its own that the timeout ends with the pool workers it forked.
    proc = subprocess.Popen([sys.executable, "-c", FORK_PROBE, PACKAGE_ROOT], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the probe hung after forking pool workers")
    assert proc.returncode == 0, err


NOISY_PLAN = dataclasses.replace(SMALL_PLAN, eps=1e-3, trials=7, S=1001)


def per_trial_reference(plan, cell_index):
    """The perturbation maximum of one cell, one trial at a time: a gather
    and an einsum over the whole kernel matrix per noise draw."""
    kind, tau, lam, m = plan.cells()[cell_index]
    cfg = SamplingConfig(plan.N, lam, tau, m)
    w = default_params(kind, cfg)
    lo, hi = -cfg.L - m, cfg.L + m
    idx, weights = kernel_matrix(w, cfg, np.linspace(-1.0, 1.0, plan.S))
    measured = 0.0
    for trial in range(plan.trials):
        seed = np.random.SeedSequence((plan.seed, cell_index, trial))
        noise = _draw_noise(hi - lo + 1, plan.eps, seed)
        diff = np.einsum("ij,ij->i", noise[idx - lo], weights)
        measured = max(measured, float(np.max(np.abs(diff))))
    return measured


def test_batched_trials_match_per_trial_loop():
    rows = run_plan(NOISY_PLAN)
    for i, row in enumerate(rows):
        want = per_trial_reference(NOISY_PLAN, i)
        assert abs(row.measured - want) <= 4 * np.spacing(want)


def test_trial_blocks_do_not_change_the_maximum(monkeypatch):
    whole = run_plan(NOISY_PLAN)
    # Blocks of 3 noise rows (the cells have n = 2L + 2m + 1 <= 269 samples).
    monkeypatch.setattr(harness_mod, "_NOISE_BLOCK_VALUES", 3 * 269)
    blocked = run_plan(NOISY_PLAN)
    for a, b in zip(whole, blocked):
        assert abs(a.measured - b.measured) <= 4 * np.spacing(a.measured)


def test_first_trial_noise_stream():
    n = 2 * 128 + 2 * 2 + 1
    noise = harness_mod._trial_noise(NOISY_PLAN, 0, n, range(0, 3))
    assert noise.shape == (3, n)
    first = _draw_noise(n, NOISY_PLAN.eps, np.random.SeedSequence((NOISY_PLAN.seed, 0, 0)))
    assert np.array_equal(noise[0], first)
    later = harness_mod._trial_noise(NOISY_PLAN, 0, n, range(2, 3))
    assert np.array_equal(later[0], noise[2])


@pytest.mark.parametrize("preset", ["fig6", "fig9"])
def test_trial_maximum_below_exact_amplification_below_bounds(preset):
    # Deterministic invariant of every fourth cell at reduced S: the noise
    # trials cannot beat the exact worst case eps * max Lambda on the same
    # targets, and both proven robustness bounds must dominate that.
    for plan in (dataclasses.replace(p, S=2001) for p in load_preset(preset)):
        t = np.linspace(-1.0, 1.0, plan.S)
        cells = plan.cells()
        for i in range(0, len(cells), 4):
            kind, tau, lam, m = cells[i]
            cfg = SamplingConfig(plan.N, lam, tau, m)
            w = default_params(kind, cfg)
            worst = plan.eps * noise_amplification(w, cfg, t)
            measured = harness_mod._run_cell(plan, i).measured
            rb = robustness_bound(w, cfg, plan.eps)
            assert measured <= worst <= min(rb.specialized, rb.generic), (cells[i], measured, worst, rb)


def test_smaller_tau_and_larger_lambda_improve_gauss():
    plan = dataclasses.replace(
        SMALL_PLAN, N=128, m_list=(6,), windows=(WindowKind.GAUSS,),
        tau_list=(1 / 20, 9 / 20), lambda_list=(1.0,), S=4001,
    )
    rows = run_plan(plan)
    assert rows[0].measured < rows[1].measured  # tau = 1/20 beats 9/20
    plan = dataclasses.replace(plan, tau_list=(1 / 3,), lambda_list=(0.0, 2.0))
    rows = run_plan(plan)
    assert rows[1].measured < rows[0].measured  # lambda = 2 beats 0


def test_comparison_preset_row_layout():
    plans = [dataclasses.replace(p, S=201) for p in load_preset("fig10")]
    rows = run_plan(plans[0])
    assert len(rows) == 81  # 3 windows x 3 lambdas x 9 m-values
    for lam in (0.5, 1.0, 2.0):
        assert sum(r.lam == lam for r in rows) == 27
    # B-spline closed form applies only at lambda = 2 on this grid.
    for r in rows:
        if r.window is WindowKind.BSPLINE:
            assert (r.bound is not None) == (r.lam == 2.0)
        else:
            assert r.bound is not None


def test_bound_violation_aborts_run(monkeypatch):
    import regusamp.harness as harness_mod

    monkeypatch.setattr(harness_mod, "closed_form_bound", lambda w, cfg: 1e-300)
    with pytest.raises(BoundViolation, match="approximation error"):
        run_plan(SMALL_PLAN)

    from regusamp.bounds import RobustnessBound

    monkeypatch.setattr(
        harness_mod, "robustness_bound", lambda w, cfg, eps: RobustnessBound(1e-300, 1e-300)
    )
    noisy = dataclasses.replace(SMALL_PLAN, eps=1e-3, trials=1, S=101)
    with pytest.raises(BoundViolation, match="perturbation error"):
        run_plan(noisy)


def test_emit_csv_contract(tmp_path):
    path = tmp_path / "r.csv"
    emit_csv((), path)
    assert path.read_text() == "window,m,tau,lambda,measured,bound,bound_valid\n"
    rows = (
        ErrorRow(WindowKind.BSPLINE, 3, 0.45, 1.0, 1.25e-3, None),
        ErrorRow(WindowKind.SINH, 3, 0.45, 1.0, 1.25e-3, 5e-2),
    )
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == "bspline,3,0.45000000000000001,1,0.00125,NA,false"
    assert lines[2].startswith("sinh,3,") and lines[2].endswith(",0.050000000000000003,true")


def test_parse_plan_fractions_and_comments():
    plan = parse_plan(
        """
        # comment
        test_fn = sincband
        N = 128
        m_list = 2,3
        tau_list = 1/3, 9/20
        lambda_list = 1
        windows = gauss, sinh
        eps = 1e-3
        trials = 7
        seed = 5
        """
    )
    assert plan.tau_list == (1 / 3, 9 / 20)
    assert plan.windows == (WindowKind.GAUSS, WindowKind.SINH)
    assert plan.trials == 7 and plan.eps == 1e-3


ALL_PLAN_KEYS = {
    "test_fn": "sincsqband",
    "N": "128",
    "m_list": "2, 5,10",
    "tau_list": "1/3, 0.45",
    "lambda_list": "0, 1/2, 2",
    "windows": "rect, bspline",
    "S": "2001",
    "trials": "12",
    "eps": "1/1000",
    "seed": "77",
}


def plan_block(**overrides):
    return "".join(f"{k} = {v}\n" for k, v in {**ALL_PLAN_KEYS, **overrides}.items())


def test_parse_plan_all_keys_match_constructor():
    plan = parse_plan(plan_block())
    assert plan == ExperimentPlan(
        test_fn=TestFunctionKind.SINC_SQ_BAND, N=128, m_list=(2, 5, 10),
        tau_list=(1 / 3, 0.45), lambda_list=(0.0, 0.5, 2.0),
        windows=(WindowKind.RECT, WindowKind.BSPLINE), S=2001, trials=12, eps=1e-3, seed=77,
    )
    assert all(type(x) is int for x in (plan.N, plan.S, plan.trials, plan.seed, *plan.m_list))
    assert all(type(x) is float for x in (plan.eps, *plan.tau_list, *plan.lambda_list))


# A plan with an unknown test signal ("custom"), a zero denominator, a key
# given twice, a non-finite noise level or a negative seed fails while
# parsing, before any cell runs.  A value its key's converter rejects names
# that key.
CONVERTER_REJECTS = {("m_list", "2.5"), ("tau_list", "1/0"), ("N", "32.5"), ("S", "x")}


@pytest.mark.parametrize(
    "key,value",
    [("m_list", "2.5"), ("windows", "bogus"), ("test_fn", "custom"), ("tau_list", "1/0"),
     ("tau_list", "1/3\ntau_list = 1/4"), ("eps", "nan"), ("eps", "inf"), ("seed", "-1"),
     ("N", "32.5"), ("S", "x")],
)
def test_parse_plan_rejects_bad_values(key, value):
    named = f"plan key '{key}': " if (key, value) in CONVERTER_REJECTS else None
    with pytest.raises(ValueError, match=named):
        parse_plan(plan_block(**{key: value}))


def test_parse_plan_repeated_key_is_named():
    with pytest.raises(ValueError, match="plan key 'tau_list' given twice"):
        parse_plan(plan_block(tau_list="1/3\ntau_list = 1/4"))


def test_parse_plan_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown plan key"):
        parse_plan("test_fn = sincband\nN = 64\nm_list = 2\ntau_list = 1/3\nlambda_list = 1\nwindows = gauss\nbogus = 1")


def test_parse_plan_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        parse_plan("N = 64")


def test_load_plans_multiblock(tmp_path):
    path = tmp_path / "p.plan"
    path.write_text(
        "test_fn = sincband\nN = 64\nm_list = 2\ntau_list = 1/3\n"
        "lambda_list = 1\nwindows = gauss\n---\n"
        "test_fn = sincband\nN = 64\nm_list = 3\ntau_list = 1/4\n"
        "lambda_list = 0.5\nwindows = sinh\n"
    )
    plans = load_plans(path)
    assert len(plans) == 2
    assert plans[1].windows == (WindowKind.SINH,)


def test_presets_all_parse():
    for name in PRESETS:
        plans = load_preset(name)
        assert plans and all(p.seed == 1 and p.S == 100_000 for p in plans)
    fig2 = load_preset("fig2")
    assert len(fig2) == 2
    assert fig2[0].windows == (WindowKind.GAUSS,)
    assert fig2[0].tau_list == (1 / 20, 1 / 10, 1 / 4, 1 / 3, 9 / 20)
    assert fig2[1].lambda_list == (0.0, 0.5, 1.0, 2.0)
    fig10 = load_preset("fig10")
    assert len(fig10) == 1
    assert fig10[0].N == 256 and fig10[0].tau_list == (9 / 20,)
    assert fig10[0].windows == (WindowKind.GAUSS, WindowKind.BSPLINE, WindowKind.SINH)
    assert fig10[0].test_fn is TestFunctionKind.SINC_SQ_BAND
    for name in ("fig6", "fig9"):
        assert all(p.eps == 1e-3 and p.trials == 100 for p in load_preset(name))


def test_unknown_preset():
    with pytest.raises(ValueError):
        load_preset("fig99")
