"""Benchmark of regusamp: one workload per process.

    python3 bench/run.py --workload approx --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, one process each

A run builds the workload's inputs from the seed and runs one untimed round
of the workload's fixed list of operations, whose outputs are checked
against the reference computations in ``reference.py``.  It then runs
timed rounds until another would pass ``--seconds`` (at least one); their
outputs must repeat the first round's exactly.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
wraps the package's functions in spans and reports the per-module metrics,
per round.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One thread per numerical library, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REGUSAMP_SEED", None)  # would override the plans' seeds

import argparse
import importlib
import json
import pkgutil
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import regusamp\n"
    "print(time.perf_counter() - t0)\n"
)


def import_seconds() -> float:
    """Time to import regusamp (numpy and scipy included) in a fresh
    interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_round(ops):
    """One pass over ``ops``: its duration, the duration of each operation
    that completed, their outputs and the failures."""
    from workloads import OpFailed

    times, outputs, failures = {}, {}, []
    r0 = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw = op.call()
            dt = time.perf_counter() - t0
            outputs[op.key] = op.read(raw)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{op.key}: {exc.__class__.__name__}: {exc}")
            if not isinstance(exc, OpFailed):
                traceback.print_exc(file=sys.stderr)
            continue
        times[op.key] = dt
    return time.perf_counter() - r0, times, outputs, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import regusamp

    for info in pkgutil.iter_modules(regusamp.__path__):  # every module the tracer may wrap
        importlib.import_module(f"regusamp.{info.name}")
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    workload = WORKLOADS[name](seed)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t_import = 0.0 if trace else import_seconds()
            t0 = time.perf_counter()
            ops = workload.setup(workdir)
            setups.append(t_import + time.perf_counter() - t0)

        # The first round warms the allocator and lazy imports; its outputs
        # are the ones checked, its times are not reported.
        _, _, outputs, failures = run_round(ops)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        rounds, op_times, drift = [], {}, []
        start = time.perf_counter()
        try:
            while not rounds or time.perf_counter() - start + rounds[-1] <= seconds:
                dur, times, outs, fails = run_round(ops)
                rounds.append(dur)
                for key, dt in times.items():
                    op_times.setdefault(key, []).append(dt)
                failures += fails
                drift += [key for key, out in outs.items() if outputs.get(key, out) != out]
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = [f"output changed between rounds: {key}" for key in drift]
        try:
            problems += workload.check(outputs)
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc(file=sys.stderr)
            problems.append(f"check raised {exc.__class__.__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    values = {}
    wall = statistics.median(rounds)
    if trace:
        values["trace.wall_s"] = wall
        for metric, get in PER_LAYER.items():
            values[metric] = get(tracer) / len(rounds)
    elif op_times:
        # Each operation's time is its median over the timed rounds; the
        # percentiles are taken over those, one value per operation, so they
        # neither depend on how many rounds fit into the run nor follow a
        # single slow repetition.
        per_op = [statistics.median(v) for v in op_times.values()]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_p90_ms": 1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    missing = [m["name"] for m in declared if m["name"] not in metrics]

    attempted = len(ops) * (1 + len(rounds))
    print(f"workload {name}  seed {seed}  operations per round {len(ops)}  timed rounds "
          + " ".join(f"{r:.3f}s" for r in rounds))
    print("environment " + json.dumps(environment(), sort_keys=True))
    for key, val in metrics.items():
        print(f"  {key:36s} {val['value']:.6g} {val['unit']}")
    if tracer and tracer.absent:
        print("absent from the package, reported as 0: " + ", ".join(tracer.absent))
    for line in failures + problems:
        print(f"FAIL {line}", file=sys.stderr)
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            ok = proc.returncode == 0 and json.loads(last[0]).get("correct") is True
        except json.JSONDecodeError:
            ok = False
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["approx", "perturb", "constants", "point-queries", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regusamp" / "__init__.py").is_file():
        print(f"no regusamp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
