"""Seeded fuzzing of the command line.

Argument vectors, sample files and plan files, valid and malformed, are
drawn from a fixed seed and run through ``cli.main`` in this process.  Each
call must end with an exit code in 0-5 (argparse's SystemExit(2) counts),
let no other exception escape, and write nothing to stdout unless it exits
0.  Counts are drawn either small or beyond numpy's largest array, so no
case allocates much memory.
"""

import random

import pytest

from regusamp.reconstruct import TestFunction, TestFunctionKind, sample
from samples_io import save_samples
from test_cli import BIG, CFG, run_cli

SEED = 20261020
CASES = 150  # per command

HUGE_COUNTS = (2**60, 2**63 - 1, 10**20)
WINDOWS = ("rect", "gauss", "bspline", "sinh")

# Flag -> (good values, bad values).  A case gives every flag of its command
# a good value, except for at most two flags, which get a bad value or are
# left out.  The good values of reconstruct fit the sample files (CFG).
RECONSTRUCT = {
    "--N": (("32",), ("16", "0", "-4", "x", "", BIG)),
    "--lambda": (("1", "1/1"), ("0", "1/2", "1/0", "nan", "-1", "1e308")),
    "--tau": (("1/3", "1/4", "0.3", "1/20"), ("1/2", "0.6", "0", "-1/3", "x")),
    "--m": (("4", "3", "2"), ("5", "1", "0", "-3", "2.5", BIG)),
    "--window": (WINDOWS, ("kaiser", "")),
}
AT = (("0", "0.01", "-1e-3", "0.5", "-0.999"),
      ("1.0078125", "2", "30", "3e17", "1e300", "nan", "inf", "-inf", "x", ""))
GRID = (("-0.5,0.5,7", "0,1,1", "0,0,4", "1,0,5", "-1,1,300", " 0 , 1 , 3 "),
        ("1.5078125,3e17,2", "0,1,0", "0,1,-3", "0,1", "0,1,2,3", "a,b,3", "-1,1,3.5", "0,1e300,3",
         "nan,1,3", "-inf,0,3", *(f"0,1,{n}" for n in HUGE_COUNTS)))
BOUNDS = {
    "--N": (("128", "64", "32"), ("0", "-1", "x", BIG)),
    "--lambda": (("1", "0", "1/2", "2"), ("1/0", "nan", "inf", "-1", "1e308")),
    "--tau": (("1/3", "1/20", "9/20", "1/4"), ("1/2", "0.6", "0", "x")),
    "--window": (WINDOWS, ("kaiser",)),
    "--m": (("2", "4", "2,5", "10", "2,3,4", " 4", "+3", "1_0", "٣"), ("0", "1", "2,0", "3,", "2.5", "", "x", BIG)),
}
EPS = (("1e-3", "1/1000", "0.5"), ("0", "-1", "nan", "inf", "x"))
SHAPE_FLAGS = {
    "gauss": ("--sigma", ("0.01", "0.02"), ("1e-300", "inf", "nan", "-1", "0")),
    "bspline": ("--s", ("3", "2", "64"), ("65", "0", "x")),
    "sinh": ("--beta", ("9.5", "4"), ("1e300", "inf", "0", "-2")),
}

PLAN = ("test_fn = sincband\nN = 16\nm_list = 2,3\ntau_list = 1/3\nlambda_list = 1\n"
        "windows = gauss,sinh\nS = 21\ntrials = 3\neps = 0\nseed = 9\n")
# Plan line -> (good replacements, bad replacements).
PLAN_CHANGES = {
    "S = 21": (("S = 2", "S = 33"), ("S = 1", "S = 0", "S = -5", "S = x", "S = 2.5",
                                     *(f"S = {n}" for n in HUGE_COUNTS))),
    "N = 16": (("N = 32",), ("N = 0", "N = -16", "N = 1e3", f"N = {BIG}")),
    "m_list = 2,3": (("m_list = 4", "m_list = 2, 3,"), ("m_list = 1", "m_list =", "m_list = x")),
    "tau_list = 1/3": (("tau_list = 1/20,9/20",), ("tau_list = 1/0", "tau_list = 0.6", "tau_list = nan")),
    "lambda_list = 1": (("lambda_list = 0,1/2",), ("lambda_list = 1e308", "lambda_list = -1")),
    "windows = gauss,sinh": (("windows = rect,bspline",), ("windows = kaiser", "windows =")),
    "eps = 0": (("eps = 1e-3", "eps = 1/1000"), ("eps = nan", "eps = -1")),
    "seed = 9": (("seed = 99999999999999999999",), ("seed = -1", "seed = x")),
    "trials = 3": (("trials = 1",), ("trials = 0",)),
    "test_fn = sincband": ((), ("test_fn = nope",)),
}


def mutate(rng, text):
    """``text`` with one character replaced, inserted or deleted, or one line
    dropped or repeated, at a random place."""
    i = rng.randrange(len(text))
    char = rng.choice(",-.e n9\r\n\x00é")
    lines = text.splitlines(keepends=True)
    j = rng.randrange(len(lines))
    return rng.choice([
        text[:i] + char + text[i + 1:],
        text[:i] + char + text[i:],
        text[:i] + text[i + 1:],
        "".join(lines[:j] + lines[j + 1:]),
        "".join(lines[:j + 1] + lines[j:]),
    ])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Sample files, plan files and output paths: valid ones, malformed
    ones, random mutations of the valid ones, a directory and a path that
    does not exist."""
    rng = random.Random(SEED)
    root = tmp_path_factory.mktemp("fuzz")
    valid = root / "valid.csv"
    f = TestFunction(TestFunctionKind.SINC_BAND, delta=CFG.delta)
    save_samples(sample(f, CFG, -CFG.L - CFG.m, CFG.L + CFG.m), valid)
    text = valid.read_text()
    header, *rows = text.splitlines(keepends=True)
    good_samples = [text, text.replace("\n", "\r\n"), header + "\n  \n".join(rows)]
    bad_samples = [
        "",
        header,
        "idx,value\n" + "".join(rows),
        header + "".join(rows[:3]) + rows[3].rstrip("\n") + ",7\n" + "".join(rows[4:]),
        header + "".join(rows[:5] + rows[6:]),
        header + "".join(reversed(rows)),
        text.replace(rows[3], rows[3].split(",")[0] + ",nan\n"),
        text.replace(rows[7], rows[7].split(",")[0] + ",inf\n"),
        text.replace(rows[0], f"{10**20}," + rows[0].split(",")[1]),
        *(mutate(rng, text) for _ in range(12)),
    ]
    good_plans, bad_plans = [PLAN, PLAN + "---\n" + PLAN.replace("eps = 0", "eps = 1e-3")], [
        "", "---\n", PLAN + "bogus line\n", PLAN + "unknown = 1\n", PLAN + "S = 22\n",
        *(mutate(rng, PLAN) for _ in range(6)),
    ]
    for plans, bad in ((good_plans, 0), (good_plans, 0), (bad_plans, 1)) * 6:
        plan = PLAN
        for i, line in enumerate(rng.sample(sorted(PLAN_CHANGES), 2)):
            pool = PLAN_CHANGES[line][bad and i == 0]
            plan = plan.replace(line, rng.choice(pool)) if pool else plan
        plans.append(plan)

    def write(name, content):
        path = root / name
        path.write_bytes(content.encode("utf-8"))
        return str(path)

    missing, directory = str(root / "missing"), str(root)
    return {
        "--samples": ([write(f"s{i}.csv", t) for i, t in enumerate(good_samples)],
                      [write(f"b{i}.csv", t) for i, t in enumerate(bad_samples)] + [missing, directory]),
        "--plan": ([write(f"p{i}.plan", t) for i, t in enumerate(good_plans)],
                   [write(f"q{i}.plan", t) for i, t in enumerate(bad_plans)] + [missing, directory]),
        "--out": ((str(root / "o.csv"),), (directory, str(root / "no" / "o.csv"))),
    }


def draw_argv(rng, command, spec):
    """``command`` with every flag of ``spec`` good, except for at most two
    flags, each left out now and then and otherwise bad."""
    bad = set(rng.sample(sorted(spec), rng.choice((0, 0, 1, 1, 1, 2))))
    argv = [command]
    for flag, (good, wrong) in spec.items():
        if flag in bad and rng.random() < 0.15:
            continue
        value = rng.choice(wrong if flag in bad else good)
        joined = flag in ("--at", "--grid") and rng.random() < 0.5
        argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


def reconstruct_argv(rng, inputs):
    target = rng.choice(({"--at": AT}, {"--grid": GRID}, {"--grid": GRID}))
    if rng.random() < 0.03:
        target = {"--at": AT, "--grid": GRID}  # they exclude each other
    argv = draw_argv(rng, "reconstruct", {"--samples": inputs["--samples"], **RECONSTRUCT, **target})
    return argv + shape_flag(rng, argv)


def bounds_argv(rng, inputs):
    argv = draw_argv(rng, "bounds", BOUNDS | ({"--eps": EPS} if rng.random() < 0.3 else {}))
    return argv + shape_flag(rng, argv)


def shape_flag(rng, argv):
    """Now and then the shape flag of a window family: mostly that of the
    chosen window, good or bad, else that of another window."""
    if rng.random() > 0.3:
        return []
    window = argv[argv.index("--window") + 1] if "--window" in argv else ""
    flag, good, bad = SHAPE_FLAGS.get(window if rng.random() < 0.8 else "", rng.choice(list(SHAPE_FLAGS.values())))
    return [flag, rng.choice(good if rng.random() < 0.7 else bad)]


def experiment_argv(rng, inputs):
    spec = {"--plan": inputs["--plan"], "--out": inputs["--out"], "--jobs": (("1", "0"), ("-3", "x"))}
    argv = draw_argv(rng, "experiment", spec)
    return argv + ["--preset", "fig99"] if rng.random() < 0.03 else argv


@pytest.mark.parametrize("draw,codes", [
    (reconstruct_argv, {0, 2, 3, 5}),
    (bounds_argv, {0, 2}),
    (experiment_argv, {0, 2, 5}),
], ids=["reconstruct", "bounds", "experiment"])
def test_fuzzed_calls_exit_with_a_documented_code(inputs, draw, codes):
    rng = random.Random(f"{SEED}-{draw.__name__}")
    seen, problems = set(), []
    for _ in range(CASES):
        argv = draw(rng, inputs)
        try:
            proc = run_cli(*argv)
        except Exception as exc:  # a defect: main let it escape
            problems.append((argv, repr(exc)))
            continue
        seen.add(proc.returncode)
        if proc.returncode not in range(6):
            problems.append((argv, f"exit {proc.returncode}"))
        elif proc.returncode != 0 and proc.stdout:
            problems.append((argv, f"exit {proc.returncode} after writing {proc.stdout[:60]!r}"))
    assert problems == []
    assert seen >= codes  # the draws reach every code the command can give
