#!/usr/bin/env python3
"""The wavekin benchmark: the CLI on three workloads, timed, checked and traced.

Run from the repository root:

    python3 bench/run.py --workload cascade --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

One client drives the ``wavekin`` CLI in a closed loop: a sample is one child
process running the workload's command, started only after the previous one
has exited, and samples repeat for about ``--seconds`` (see run_workload).  The
children import wavekin from this checkout's ``src/`` and run with
WAVEKIN_THREADS=1, single-threaded BLAS and a fixed PYTHONHASHSEED.  The
workload's input is made from ``--seed`` alone: one of VARIANTS bump shapes (or
verify seeds), so the same seed always gives the same input, and every
simulate input has stored reference values in ``bench/reference.json``
(written by ``bench/make_reference.py``).

Every sample's outputs are checked (see check_simulate and check_verify); a
sample that fails any check counts in ``failed`` and the run exits 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the median
over the run's samples, measured with only a few entry points wrapped (a few
calls per step).  ``--trace 1`` alternates such samples with traced ones, whose
wrappers time the public functions of every wavekin module (see child.py), and
reports the per-layer metrics of BENCHMARK.json, medians over the traced
samples, plus the tracing overhead.  Byte counts named ``*_mib``/``*_bytes``
under ``solver.`` are computed from array sizes, not measured.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the machine, the per-metric
sample counts and failed_frac.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import List, Optional

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from child import HARNESS_ERROR  # noqa: E402

# A run must end within 180 s: no child is started or left running past this.
RUN_DEADLINE_S = 170.0
VARIANTS = 8
OMEGA_MAX = 8.0
# never reached: max_steps ends every simulate run
T_END = 1.0e9
DRIFT_TOL = 1e-10          # the solver's own conservation guarantee
REFERENCE_RTOL = 1e-8      # against reference.json; the step is deterministic

SIMULATE = {
    # criterion-4 shape: every accepted step is written, with two test
    # functions, so diagnostics do about a third of the work
    "cascade": {
        "alpha": 2.0, "n_nodes": 128, "cutoff_n": None, "max_steps": 50,
        "output_every": 0.0, "dt0": 0.02, "band_radius": 1.7, "deltas": [0.5],
        "test_functions": ["low_pass:2.0", "quadratic"],
    },
    # O(n^3) table of 3.27M entries: operator and table set-up dominate,
    # diagnostics only see the first and last record
    "fine-grid": {
        "alpha": 1.5, "n_nodes": 320, "cutoff_n": 3, "max_steps": 8,
        "output_every": T_END, "dt0": None, "band_radius": 2.2, "deltas": [],
        "test_functions": [],
    },
}
# verify-kernel is not a workload: it is one ~30 s child of scalar Python, so a
# run holds a single sample, and its time drifts with the shared host's speed by
# more than the largest bound a metric may have
WORKLOAD_ORDER = ("cascade", "fine-grid", "verify-geometry")
CHILD_ENV = {"WAVEKIN_THREADS": "1", "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result may be printed."""


# --- inputs -------------------------------------------------------------------


def bump(seed):
    """Centre and width of the initial Gaussian bump for this seed."""
    k = seed % VARIANTS
    return 3.9 + 0.03 * k, 0.55 + 0.02 * (k % 4)


def verify_seed(seed):
    return 1 + seed % VARIANTS


def simulate_config(workload, seed):
    p = SIMULATE[workload]
    center, width = bump(seed)
    cfg = {
        "dispersion": {"alpha": p["alpha"]},
        "grid": {"n_nodes": p["n_nodes"], "omega_max": OMEGA_MAX},
        "initial": {"preset": "gaussian_bump", "center": center, "width": width,
                    "amplitude": 1.0},
        "integrator": {"t_end": T_END, "output_every": p["output_every"],
                       "max_steps": p["max_steps"]},
        "diagnostics": {"band_radii": [p["band_radius"]], "deltas": p["deltas"],
                        "test_functions": p["test_functions"]},
        "seed": seed % VARIANTS,
    }
    if p["cutoff_n"] is not None:
        cfg["kernel"] = {"cutoff_n": p["cutoff_n"]}
    if p["dt0"] is not None:
        cfg["integrator"]["dt0"] = p["dt0"]
    return cfg


def write_config(path, cfg, why):
    # PyYAML writes floats that it reads back as floats (1.0e+9, never 1e9,
    # which YAML 1.1 reads as a string); the round trip below proves it
    text = yaml.safe_dump(cfg, sort_keys=True)
    if yaml.safe_load(text) != cfg:
        raise HarnessError(f"config does not survive a YAML round trip:\n{text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# why: {why}\n{text}")


def initial_invariants(workload, seed):
    """Mass and energy of the initial bump, computed here without wavekin."""
    n = SIMULATE[workload]["n_nodes"]
    h = OMEGA_MAX / (n - 1)
    center, width = bump(seed)
    g = [0.0] + [math.exp(-0.5 * ((i * h - center) / width) ** 2) for i in range(1, n)]
    return h * math.fsum(g), h * math.fsum(gi * i * h for i, gi in enumerate(g))


# --- child processes ----------------------------------------------------------


@dataclass
class Child:
    """One finished child: its clock marks, exit code, peak RSS and spans."""

    start: float
    end: float
    code: int
    rss_mib: float
    stdout: str
    probe: Optional[dict]

    def span(self, key):
        return self.probe["spans"].get(key) if self.probe else None


def run_child(cli_args, mode, tag, work, deadline):
    probe_path = os.path.join(work, f"{tag}.probe.json")
    log_path = os.path.join(work, f"{tag}.log")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), probe_path, mode, "--",
           *cli_args]
    env = {k: v for k, v in os.environ.items()
           if k not in ("WAVEKIN_SEED", "WAVEKIN_OUT")}
    env.update(CHILD_ENV)
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=work, env=env)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
            # the largest of every child so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if code == HARNESS_ERROR:
        raise HarnessError(f"child {' '.join(cli_args)} failed:\n{stdout}")
    probe = None
    if os.path.exists(probe_path):
        with open(probe_path, encoding="utf-8") as fh:
            probe = json.load(fh)
    elif code == 0:
        raise HarnessError(f"child {' '.join(cli_args)} wrote no probe file")
    return Child(start, end, code, usage.ru_maxrss / 1024.0, stdout, probe)


# --- checks -------------------------------------------------------------------


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def series_tail(out_dir):
    """Number of data rows in series.csv and its last row by column name."""
    with open(os.path.join(out_dir, "series.csv"), encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return len(rows), dict(zip(header, map(float, rows[-1]))) if rows else {}


def check_simulate(workload, seed, out_dir, child, reference):
    """Problems with one simulate run's outputs; empty when they are right."""
    p = SIMULATE[workload]
    if child.code != 0:
        return [f"exit code {child.code}: {child.stdout.strip()[-500:]}"]
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    for key in ("mass_drift_rel", "energy_drift_rel"):
        if not summary[key] <= DRIFT_TOL:
            problems.append(f"{key} {summary[key]:.3e} > {DRIFT_TOL:g}")
    n_rows, final = series_tail(out_dir)
    want_rows = p["max_steps"] if p["output_every"] == 0.0 else 1
    if n_rows != want_rows:
        return problems + [f"series.csv has {n_rows} rows, expected {want_rows}"]
    mass0, energy0 = initial_invariants(workload, seed)
    band_col = f"band_energy_R{p['band_radius']:g}"
    ref = reference[workload][str(seed % VARIANTS)]
    # time catches a uniformly rescaled operator, which the rate-limited step
    # turns into the same states at different times
    for name, got, want, rtol in (("mass", final["mass"], mass0, DRIFT_TOL),
                                  ("energy", final["energy"], energy0, DRIFT_TOL),
                                  ("time", final["time"], ref["time"], REFERENCE_RTOL),
                                  (band_col, final[band_col], ref["band_energy"],
                                   REFERENCE_RTOL)):
        if not _close(got, want, rtol):
            problems.append(f"final {name} {got!r}, reference {want!r} (rtol {rtol:g})")
    steps = child.span("solver.step")
    if steps is None or steps["calls"] != p["max_steps"]:
        problems.append(f"took {steps and steps['calls']} steps, expected {p['max_steps']}")
    return problems


def verify_checks(stdout):
    return [line.split()[0] for line in stdout.splitlines()
            if line.strip().startswith(("PASS", "FAIL"))]


def check_verify(child):
    checks = verify_checks(child.stdout)
    if child.code == 0 and checks and "FAIL" not in checks \
            and "all checks passed" in child.stdout:
        return []
    fails = [line.strip() for line in child.stdout.splitlines()
             if line.strip().startswith("FAIL")]
    return [f"exit code {child.code}: {'; '.join(fails) or child.stdout.strip()[-500:]}"]


# --- samples ------------------------------------------------------------------


@dataclass
class Sample:
    """One run of the workload's command: its child and the checks it failed."""

    traced: bool
    child: Child
    problems: List[str] = field(default_factory=list)
    output_bytes: int = 0

    @property
    def wall_s(self):
        return self.child.end - self.child.start


def run_sample(workload, seed, index, traced, work, deadline, reference, why):
    mode = "trace" if traced else "probe"
    tag = f"{index:03d}"
    if workload == "verify-geometry":
        child = run_child([workload, "--seed", str(verify_seed(seed))], mode, tag,
                          work, deadline)
        return Sample(traced, child, check_verify(child))
    cfg_path = os.path.join(work, "config.yaml")
    if not os.path.exists(cfg_path):
        write_config(cfg_path, simulate_config(workload, seed), why)
    out_dir = os.path.join(work, f"{tag}-out")
    child = run_child(["simulate", "--config", cfg_path, "--out", out_dir], mode,
                      tag, work, deadline)
    sample = Sample(traced, child)
    try:
        sample.problems += check_simulate(workload, seed, out_dir, child, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        sample.problems.append(f"unreadable output: {exc!r}")
    if os.path.isdir(out_dir):
        sample.output_bytes = sum(e.stat().st_size for e in os.scandir(out_dir))
        shutil.rmtree(out_dir)
    return sample


def end_to_end(workload, sample):
    child = sample.child
    if workload == "verify-geometry":
        # set-up ends on entry into cmd_verify_geometry; the solver takes no
        # steps here, so the rate is verify checks per second inside it
        entry = child.span("cli.cmd_verify_geometry")
        work_done = len(verify_checks(child.stdout))
    else:
        entry = child.span("solver.evolve")
        work_done = child.span("solver.step")["calls"]
    return {
        "wall_s": sample.wall_s,
        "setup_s": entry["first_enter"] - child.start,
        "steps_per_s": work_done / entry["total_s"],
        "peak_rss_mib": child.rss_mib,
    }


def per_layer(sample):
    child = sample.child
    spans, nested, durations, table = (child.probe[key] for key in
                                       ("spans", "nested", "durations", "table"))

    def calls(key):
        return spans.get(key, {}).get("calls", 0)

    def total(key):
        return spans.get(key, {}).get("total_s", 0.0)

    def ms(key, decile):
        values = durations.get(key, [])
        if len(values) < 2:
            return 1e3 * sum(values)  # no calls, or the one call
        return 1e3 * statistics.quantiles(values, n=10, method="inclusive")[decile - 1]

    entries = table["entries"] if table else 0
    steps, rhs_calls, invert_calls = (calls("solver.step"), calls("solver.rhs"),
                                      calls("dispersion.invert"))
    # bytes one rhs call touches per table entry: coef and the i, j, l indices
    # read, three gathered g values, rho written, then four bincounts that each
    # read an index array and rho
    per_entry = (table["coef_itemsize"] + 3 * table["index_itemsize"] + 3 * 8 + 8
                 + 4 * (table["index_itemsize"] + 8)) if table else 0
    simulate = child.span("cli.cmd_simulate")
    evolve = spans.get("solver.evolve")
    return {
        "solver.grid_s": total("solver.grid"),
        "solver.table_s": total("solver.table"),
        "solver.table_entries": entries,
        "solver.table_mib": table["bytes"] / 2 ** 20 if table else 0.0,
        "solver.steps": steps,
        "solver.rhs_calls": rhs_calls,
        "solver.rhs_calls_per_step": rhs_calls / steps if steps else 0.0,
        "solver.rhs_s": total("solver.rhs"),
        "solver.rhs_ms.p50": ms("solver.rhs", 5),
        "solver.rhs_ms.p90": ms("solver.rhs", 9),
        "solver.rhs_bytes": entries * per_entry,
        "solver.step_ms.p50": ms("solver.step", 5),
        "solver.step_ms.p90": ms("solver.step", 9),
        "solver.evolve_self_s": evolve["self_s"] if evolve else 0.0,
        "diagnostics.records": calls("diagnostics.record"),
        "diagnostics.record_ms.p50": ms("diagnostics.record", 5),
        "diagnostics.record_ms.p90": ms("diagnostics.record", 9),
        "diagnostics.production_calls": calls("diagnostics.production"),
        "diagnostics.production_s": total("diagnostics.production"),
        "diagnostics.report_s": total("diagnostics.report"),
        "dispersion.invert_calls": invert_calls,
        "dispersion.invert_s": total("dispersion.invert"),
        "dispersion.eval_calls": calls("dispersion.eval"),
        "dispersion.eval_per_invert": (nested.get("dispersion.invert>dispersion.eval", 0)
                                       / invert_calls if invert_calls else 0.0),
        "reference.cap_coverage_mc_s": total("reference.cap_coverage_mc"),
        "reference.vcone_mc_s": total("reference.vcone_mc"),
        "reference.mollified_delta_mc_s": total("reference.mollified_delta_mc"),
        "resonance_geometry.quadrature_s": total("resonance_geometry.quadrature"),
        "resonance_geometry.root_s": total("resonance_geometry.root"),
        "config.load_s": total("config.load"),
        "cli.output_s": (simulate["last_exit"] - child.span("solver.evolve")["last_exit"]
                         if simulate else 0.0),
        "cli.output_bytes": sample.output_bytes,
    }


def run_workload(workload, seed, seconds, trace, reference, why, work):
    """Closed loop of samples for about `seconds`.

    A sample is started only while it is expected, from the median sample so
    far, to end within `seconds`; the first always runs, and a traced run
    always gets one untraced and one traced sample.  Returns the samples, the
    metric medians and how many samples those medians are taken over.
    """
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(workload, seed, len(samples), traced, work,
                                  deadline, reference, why))
        now = time.monotonic()
        expected_end = now + statistics.median(s.wall_s for s in samples)
        both_kinds = not trace or len(samples) >= 2
        if (expected_end - start > seconds and both_kinds) or now >= deadline \
                or samples[-1].problems:
            break
    good = [s for s in samples if not s.problems]
    if trace:
        rows = [per_layer(s) for s in good if s.traced]
        # samples alternate untraced, traced; a pair ran close together in
        # time, so its difference is less affected by the machine's drift
        pairs = [t.wall_s - u.wall_s for u, t in zip(samples[::2], samples[1::2])
                 if not (u.problems or t.problems)]
        for row in rows:
            row["trace.overhead_s"] = statistics.median(pairs)
    else:
        rows = [end_to_end(workload, s) for s in good if not s.traced]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in (rows[0] if rows else {})}
    return samples, metrics, len(rows)


# --- reporting ----------------------------------------------------------------


def machine():
    """Where the numbers were taken: commit, CPU, caches and library versions."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    # os.sysconf has no cache names; glibc's getconf has
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              check=False, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        conf = ""
    caches = {name: int(value) for name, value in
              (line.split() for line in conf.splitlines()
               if "CACHE_SIZE" in line and len(line.split()) == 2)}
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": model,
            "cache_bytes": caches, "python": platform.python_version(), **versions}


# byte counts worked out from the kernel table's array sizes, not measured
COMPUTED = {"solver.table_mib", "solver.rhs_bytes"}


def report(workload, trace, samples, metrics, n_rows, units):
    failed = sum(1 for s in samples if s.problems)
    kind = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"{workload}: {len(samples)} samples, {kind} metrics are medians of {n_rows}")
    print(f"  {'failed_frac':34s} {failed / len(samples):.4g} ({failed}/{len(samples)})")
    for name, value in metrics.items():
        note = "  (computed from array sizes)" if name in COMPUTED else ""
        print(f"  {name:34s} {value:.6g} {units[name]}{note}")
    for s in samples:
        for problem in s.problems:
            print(f"  FAILED sample: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOAD_ORDER) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_inputs():
    if not os.path.isfile(os.path.join(ROOT, "src", "wavekin", "cli.py")):
        raise HarnessError(f"no wavekin sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return spec, reference


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps the running child
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    try:
        spec, reference = load_inputs()
    except (HarnessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    declared = {False: spec["end_to_end"], True: spec["per_layer"]}
    workloads = WORKLOAD_ORDER if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    print("env: " + json.dumps(machine(), sort_keys=True))
    attempted = failed = 0
    result = {}
    try:
        os.makedirs(work)
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                        " import wavekin.cli", os.path.join(ROOT, "src")],
                       check=True, timeout=60)  # compiles bytecode, warms file cache
        for workload in workloads:
            for trace in modes:
                run_dir = os.path.join(work, f"{workload}-{int(trace)}")
                os.makedirs(run_dir)
                samples, metrics, n_rows = run_workload(
                    workload, args.seed, seconds, trace, reference,
                    whys[workload], run_dir)
                units = {m["name"]: m["unit"] for m in declared[trace]}
                if metrics and set(metrics) != set(units):
                    raise HarnessError(f"metrics {sorted(set(metrics) ^ set(units))} "
                                       "differ from BENCHMARK.json")
                report(workload, trace, samples, metrics, n_rows, units)
                attempted += len(samples)
                failed += sum(1 for s in samples if s.problems)
                prefix = f"{workload}." if args.workload == "all" else ""
                result.update({prefix + name: {"value": value, "unit": units[name]}
                               for name, value in metrics.items()})
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
