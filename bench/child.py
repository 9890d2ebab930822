"""Run one ``wavekin`` CLI command in this process and record where its time went.

Usage: python3 bench/child.py PROBE_OUT {probe,trace} -- WAVEKIN_ARGS...

The wavekin package is imported from ``src/`` of the checkout that holds this
file.  Before the command runs, functions of the package are replaced by timing
wrappers at every module that binds them, so calls made through any of those
names are seen.  ``probe`` wraps only the few entry points the end-to-end
metrics need (a handful of calls per step); ``trace`` wraps every function in
TRACED.  A name that no longer exists is an error, never a silent zero.  The
recorded spans go to PROBE_OUT as JSON; the exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# exit code for a broken benchmark, apart from wavekin's own 0, 1 and 2
HARNESS_ERROR = 3

# (module, attribute, span key).  An attribute "Class.method" wraps a method.
PROBED = [
    ("wavekin.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("wavekin.cli", "cmd_verify_geometry", "cli.cmd_verify_geometry"),
    ("wavekin.solver", "evolve", "solver.evolve"),
    ("wavekin.solver", "step", "solver.step"),
]
TRACED = PROBED + [
    ("wavekin.config", "load_config_file", "config.load"),
    ("wavekin.solver", "OmegaGrid.__init__", "solver.grid"),
    ("wavekin.solver", "build_kernel_table", "solver.table"),
    # every operator evaluation of step() and evolve() goes through this
    # private kernel; the public rhs() is a thin wrapper around it
    ("wavekin.solver", "_rhs_of_g", "solver.rhs"),
    ("wavekin.diagnostics", "make_record", "diagnostics.record"),
    ("wavekin.diagnostics", "convex_production", "diagnostics.production"),
    ("wavekin.diagnostics", "cascade_report", "diagnostics.report"),
    ("wavekin.dispersion", "invert_omega", "dispersion.invert"),
    ("wavekin.dispersion", "eval_omega", "dispersion.eval"),
    ("wavekin.reference", "cap_coverage_mc", "reference.cap_coverage_mc"),
    ("wavekin.reference", "vcone_mc", "reference.vcone_mc"),
    ("wavekin.reference", "mollified_delta_mc", "reference.mollified_delta_mc"),
    ("wavekin.resonance_geometry", "manifold_quadrature", "resonance_geometry.quadrature"),
    ("wavekin.resonance_geometry", "digamma_root", "resonance_geometry.root"),
]
# spans whose per-call durations are kept, for percentiles
KEEP_DURATIONS = {"solver.rhs", "solver.step", "diagnostics.record"}


class Tracer:
    """Spans per key: calls, total and self time, first entry, last exit.

    Times come from time.monotonic(), the system-wide CLOCK_MONOTONIC on
    Linux, so the parent process can compare them with its own clock.
    """

    def __init__(self):
        self.spans = {}
        self.nested = {}  # "parent>child" -> calls of child directly under parent
        self.durations = {key: [] for key in KEEP_DURATIONS}
        self.table = None
        self._stack = []

    def wrap(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]  # key, time spent in child spans
            self._stack.append(frame)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self._close(frame, start, end)
            if key == "solver.table":
                self._note_table(result)
            return result
        return wrapper

    def _close(self, frame, start, end):
        key, child_time = frame
        dur = end - start
        span = self.spans.get(key)
        if span is None:
            span = self.spans[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "first_enter": start, "last_exit": end}
        span["calls"] += 1
        span["total_s"] += dur
        span["self_s"] += dur - child_time
        span["last_exit"] = end
        if key in self.durations:
            self.durations[key].append(dur)
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            pair = f"{parent[0]}>{key}"
            self.nested[pair] = self.nested.get(pair, 0) + 1

    def _note_table(self, table):
        arrays = (table.i, table.j, table.l, table.m, table.w, table.mult, table.coef)
        self.table = {
            "entries": int(table.n_entries),
            "bytes": int(sum(a.nbytes for a in arrays)),
            "coef_itemsize": int(table.coef.itemsize),
            "index_itemsize": int(table.i.itemsize),
        }

    def to_json(self):
        return {"spans": self.spans, "nested": self.nested,
                "durations": self.durations, "table": self.table}


def install(tracer, targets):
    """Replace each target function by its wrapper at every wavekin binding."""
    modules = [m for name, m in sys.modules.items()
               if name == "wavekin" or name.startswith("wavekin.")]
    for module_name, attr, key in targets:
        owner = importlib.import_module(module_name)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = vars(owner).get(name)
        if original is None:
            print(f"bench: {module_name}.{attr} no longer exists; update the "
                  "benchmark's span list", file=sys.stderr)
            raise SystemExit(HARNESS_ERROR)
        wrapped = tracer.wrap(key, original)
        setattr(owner, name, wrapped)
        if not cls:
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapped)


def main(argv):
    if len(argv) < 4 or argv[2] != "--" or argv[1] not in ("probe", "trace"):
        print(__doc__, file=sys.stderr)
        return HARNESS_ERROR
    probe_out, mode, cli_args = argv[0], argv[1], argv[3:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import wavekin.cli

    if not os.path.abspath(wavekin.cli.__file__).startswith(src + os.sep):
        print(f"bench: imported wavekin from {wavekin.cli.__file__}, not {src}",
              file=sys.stderr)
        return HARNESS_ERROR
    tracer = Tracer()
    install(tracer, TRACED if mode == "trace" else PROBED)
    try:
        code = wavekin.cli.main(cli_args)
    finally:
        with open(probe_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
