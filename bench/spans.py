"""Spans around calls into the package's modules, recorded from outside.

``Tracer.install`` wraps selected functions of the ``regusamp`` modules.
Each call is timed as a span nested in the span that was open when it
started.  The tracer keeps per-function totals of calls, inclusive time,
self time (duration minus the time covered by child spans) and a few counts
taken from results, in memory, and the runner reads them at the end.  The wrapper replaces the
function in every ``regusamp`` module namespace that holds it, so calls
through ``from .x import f`` names are traced too.  A function that the
package no longer defines is recorded as absent and left alone.
``uninstall`` puts every original back; with tracing off nothing is wrapped.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


def _kernel_matrix_bytes(args, kwargs, result):
    return sum(getattr(a, "nbytes", 0) for a in result)


def _array_size(args, kwargs, result):
    return getattr(result, "size", 0)


# (module, function) -> count taken from each call, if any.
SPANS = {
    ("specfun", "cardinal_bspline"): None,
    ("specfun", "integrate"): None,
    ("specfun", "gl_cumulative"): None,
    ("windows", "eval_window"): None,
    ("windows", "eval_truncated"): None,
    ("kernel", "sinc"): None,
    ("kernel", "psi"): None,
    ("kernel", "ft_psi"): None,
    ("kernel", "ft_psi_bspline"): None,
    ("kernel", "ft_psi_sinh"): None,
    ("reconstruct", "kernel_matrix"): _kernel_matrix_bytes,
    ("reconstruct", "sample"): None,
    ("reconstruct", "_draw_noise"): _array_size,
    ("reconstruct", "reconstruct_at"): None,
    ("reconstruct", "load_samples"): None,
    ("bounds", "eta"): None,
    ("bounds", "e1_numeric"): None,
    ("bounds", "e1_alias_aware"): None,
    ("bounds", "closed_form_bound"): None,
    ("bounds", "robustness_bound"): None,
    ("harness", "_approx_cell"): None,
    ("harness", "_perturb_cell"): None,
    ("harness", "emit_csv"): None,
    ("cli", "_cmd_reconstruct"): None,
}


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0
    count: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)  # open spans: [name, child seconds]
    _patched: list = field(default_factory=list)  # (module, attribute, original)

    def _wrap(self, name, fn, counter):
        st = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                st.calls += 1
                st.self_s += dur - frame[1]
                if not nested:
                    st.inclusive_s += dur
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                st.count += counter(args, kwargs, result)
            return result

        return traced

    def install(self, spans: dict = SPANS) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "regusamp" or key.startswith("regusamp."))]
        for (modname, fname), counter in spans.items():
            name = f"{modname}.{fname}"
            home = sys.modules.get(f"regusamp.{modname}")
            original = getattr(home, fname, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def inclusive(self, name: str) -> float:
        return self._get(name).inclusive_s

    def self_time(self, name: str) -> float:
        return self._get(name).self_s

    def calls(self, name: str) -> int:
        return self._get(name).calls

    def count(self, name: str) -> int:
        return self._get(name).count


# Per-module metrics (name -> value from the tracer), totals of a run before
# they are divided by the number of rounds.
PER_LAYER = {
    "specfun.cardinal_bspline_s": lambda t: t.inclusive("specfun.cardinal_bspline"),
    "specfun.integrate_calls": lambda t: t.calls("specfun.integrate"),
    "specfun.integrate_s": lambda t: t.inclusive("specfun.integrate"),
    "specfun.gl_cumulative_s": lambda t: t.inclusive("specfun.gl_cumulative"),
    "windows.eval_self_s": lambda t: t.self_time("windows.eval_window") + t.self_time("windows.eval_truncated"),
    "kernel.sinc_s": lambda t: t.inclusive("kernel.sinc"),
    "kernel.psi_self_s": lambda t: t.self_time("kernel.psi"),
    "kernel.ft_psi_s": lambda t: t.inclusive("kernel.ft_psi"),
    "kernel.ft_psi_bspline_s": lambda t: t.inclusive("kernel.ft_psi_bspline"),
    "kernel.ft_psi_sinh_s": lambda t: t.inclusive("kernel.ft_psi_sinh"),
    "reconstruct.kernel_matrix_self_s": lambda t: t.self_time("reconstruct.kernel_matrix"),
    "reconstruct.kernel_matrix_bytes": lambda t: t.count("reconstruct.kernel_matrix"),
    "reconstruct.sample_s": lambda t: t.inclusive("reconstruct.sample"),
    "reconstruct.draw_noise_s": lambda t: t.inclusive("reconstruct._draw_noise"),
    "reconstruct.noise_values": lambda t: t.count("reconstruct._draw_noise"),
    "reconstruct.reconstruct_at_self_s": lambda t: t.self_time("reconstruct.reconstruct_at"),
    "reconstruct.reconstruct_at_calls": lambda t: t.calls("reconstruct.reconstruct_at"),
    "reconstruct.load_samples_s": lambda t: t.inclusive("reconstruct.load_samples"),
    "bounds.e1_numeric_s": lambda t: t.inclusive("bounds.e1_numeric"),
    "bounds.e1_alias_aware_s": lambda t: t.inclusive("bounds.e1_alias_aware"),
    "bounds.eta_calls": lambda t: t.calls("bounds.eta"),
    "bounds.cell_bounds_s": lambda t: t.inclusive("bounds.closed_form_bound") + t.inclusive("bounds.robustness_bound"),
    "harness.perturb_cell_self_s": lambda t: t.self_time("harness._perturb_cell"),
    "harness.approx_cell_self_s": lambda t: t.self_time("harness._approx_cell"),
    "harness.emit_csv_s": lambda t: t.inclusive("harness.emit_csv"),
    "cli.reconstruct_self_s": lambda t: t.self_time("cli._cmd_reconstruct"),
}
