"""Command-line front end: simulate, verify-kernel, verify-geometry, report.

Exit codes: 0 success, 1 runtime or verification failure, 2 bad usage or
invalid configuration.  Option precedence for seed and output directory is
flag > environment (WAVEKIN_SEED, WAVEKIN_OUT) > config file > built-in
default.  Outputs are deterministic: the same config and seed produce
byte-identical series.csv files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from wavekin import diagnostics as diag
from wavekin import reference
from wavekin import resonance_geometry as geom
from wavekin.collision_kernel import (
    four_sine_closed_form,
    resonant_quadruple,
    sine_integral_oracle,
)
from wavekin.config import ConfigError, RunConfig, load_config_file
from wavekin.dispersion import DispersionRelation, eval_omega
from wavekin.solver import (
    ConservationError,
    MemoryBudgetError,
    StiffnessError,
    build_kernel_table,
    evolve,
)

__all__ = ["main", "cmd_simulate", "cmd_verify_kernel", "cmd_verify_geometry",
           "cmd_report"]

_ENV_SEED = "WAVEKIN_SEED"
_ENV_OUT = "WAVEKIN_OUT"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; stable for identical binary values."""
    return repr(float(x))


def _resolve_int(flag: Optional[int], env_name: str, file_value: int) -> int:
    if flag is not None:
        return flag
    env = os.environ.get(env_name)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(env_name, f"environment value {env!r} is not an integer")
    return file_value


def _resolve_out(flag: Optional[str], cfg: RunConfig, seed: int) -> str:
    if flag is not None:
        return flag
    env = os.environ.get(_ENV_OUT)
    if env:
        return env
    if cfg.output.dir is not None:
        return cfg.output.dir
    digest = hashlib.sha256(
        (yaml.safe_dump(cfg.to_dict(), sort_keys=True) + f"|seed={seed}").encode()
    ).hexdigest()[:12]
    return os.path.join("runs", digest)


def _load_cfg(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise ConfigError("--config", f"no such file: {path}")
    return load_config_file(path)


def _effective(cfg: RunConfig, seed: int, out_dir: str, dump: bool) -> RunConfig:
    return dataclasses.replace(
        cfg,
        seed=seed,
        output=dataclasses.replace(cfg.output, dir=out_dir, dump_spectrum=dump),
    )


# --- simulate -----------------------------------------------------------------


def _series_header(cfg: RunConfig, n_nodes: int) -> List[str]:
    cols = ["time", "mass", "energy"]
    for names in cfg.diagnostic_columns().values():
        cols += names
    if cfg.output.dump_spectrum:
        cols += [f"g_{i}" for i in range(n_nodes)]
    return cols


def _series_row(cfg: RunConfig, state, rec: diag.DiagnosticsRecord) -> List[str]:
    vals = [rec.time, rec.mass, rec.energy]
    vals += [rec.band_energy[R] for R in cfg.diagnostics.band_radii]
    vals += [rec.low_mass[dd] for dd in cfg.diagnostics.deltas]
    vals += [rec.convex_production[tid] for tid in cfg.diagnostics.test_functions]
    out = [_fmt(v) for v in vals]
    if cfg.output.dump_spectrum:
        out += [_fmt(v) for v in state.g]
    return out


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    """Run the configured evolution and write the run artifacts to out_dir."""
    grid = cfg.make_grid(cfg.make_dispersion())
    table = build_kernel_table(cfg.make_kernel_weights(), grid,
                               max_bytes=int(cfg.kernel.max_table_mb * 2 ** 20))
    state0 = cfg.make_initial_state(grid)
    series = evolve(
        table, state0, cfg.integrator.t_end,
        output_every=cfg.integrator.output_every,
        diagnostics_config=cfg.make_diagnostics_config(),
        max_steps=cfg.integrator.max_steps,
        max_dt=cfg.integrator.dt0,
    )

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)

    # data rows start with the first accepted step; the initial record's
    # numbers are preserved in summary.json, so a zero-length run writes a
    # header-only series
    cols = _series_header(cfg, grid.n_nodes)
    with open(os.path.join(out_dir, "series.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for state, rec in series[1:]:
            fh.write(",".join(_series_row(cfg, state, rec)) + "\n")

    first, last = series[0][1], series[-1][1]
    summary = {
        "n_records": len(series),
        "n_table_entries": table.n_entries,
        "final_time": last.time,
        "mass_initial": first.mass,
        "mass_final": last.mass,
        "mass_drift_rel": abs(last.mass - first.mass) / max(first.mass, 1e-300),
        "energy_initial": first.energy,
        "energy_final": last.energy,
        "energy_drift_rel": abs(last.energy - first.energy) / max(first.energy, 1e-300),
        "cascade": diag.cascade_report([rec for _, rec in series]),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"simulate: {len(series)} records -> {out_dir}")
    print(f"  mass drift {summary['mass_drift_rel']:.3e}, "
          f"energy drift {summary['energy_drift_rel']:.3e}")
    return 0


# --- verify-kernel ------------------------------------------------------------


def _check(ok: bool, name: str, detail: str) -> Tuple[bool, str]:
    """One verify check: its verdict and its PASS/FAIL line."""
    return ok, f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}"


def _check_line(name: str, err: float, tol: float) -> Tuple[bool, str]:
    return _check(err <= tol, name, f"max err {err:.3e} (tol {tol:.1e})")


def _finish_verify(command: str, header: str, results: List[Tuple[bool, str]],
                   out_dir: Optional[str]) -> int:
    """Print the checks, write <command>.json to out_dir if given; exit code."""
    print(f"{command}: {header}")
    for _, line in results:
        print(line)
    ok = all(flag for flag, _ in results)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, command.replace("-", "_") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"passed": ok, "checks": [line.strip() for _, line in results]},
                      fh, indent=2)
            fh.write("\n")
    print(f"{command}: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def cmd_verify_kernel(cfg: RunConfig, out_dir: Optional[str]) -> int:
    """Cross-check the kernel closed forms against direct quadrature."""
    d = cfg.make_dispersion()
    rng = np.random.default_rng(cfg.seed)
    tol = 1e-3  # guarantee 1's quadrature tolerance; the oracle cuts its tail at 1e4
    results = []

    # closed form vs quadrature on arbitrary positive quadruples
    err = 0.0
    for _ in range(25):
        radii = rng.uniform(0.2, 4.0, size=4)
        ref_val = sine_integral_oracle(*radii)
        err = max(err, abs(four_sine_closed_form(*radii) - ref_val))
    results.append(_check_line("closed form vs quadrature (general)", err, tol))

    # min form vs quadrature on frequency-resonant quadruples
    err = 0.0
    for _ in range(25):
        r, r1, r2, r3 = resonant_quadruple(d, rng)
        val = (np.pi / 4.0) * min(r1, r2, r3, r)
        err = max(err, abs(val - sine_integral_oracle(r1, r2, r3, r)))
    results.append(_check_line("min identity vs quadrature (resonant)", err, tol))

    # min form vs closed form, many samples, tight tolerance
    err = 0.0
    for _ in range(10000):
        r, r1, r2, r3 = resonant_quadruple(d, rng)
        val = (np.pi / 4.0) * min(r1, r2, r3, r)
        err = max(err, abs(val - four_sine_closed_form(r1, r2, r3, r)) / max(1.0, val))
    results.append(_check_line("min identity vs closed form (resonant)", err, 1e-12))

    return _finish_verify("verify-kernel", f"alpha={d.alpha:g}, seed={cfg.seed}, "
                          "tail_cut=10000", results, out_dir)


# --- verify-geometry ----------------------------------------------------------


def cmd_verify_geometry(cfg: RunConfig, out_dir: Optional[str]) -> int:
    """Check the geometric predictions against Monte Carlo estimates."""
    d = cfg.make_dispersion()
    seed = cfg.seed
    results: List[Tuple[bool, str]] = []

    def sigma_check(name: str, predicted: float, mc: float, stderr: float,
                    n_sigma: float = 4.0, abs_floor: float = 1e-12) -> None:
        ok = abs(predicted - mc) <= n_sigma * stderr + abs_floor
        results.append(_check(ok, name, f"predicted {predicted:.6g}, mc {mc:.6g} "
                                        f"+/- {stderr:.2g}"))

    # cap coverage: closed-form expectation vs simulated experiments
    for q, n_caps in ((0.05, 20), (0.1, 44), (0.2, 10)):
        pred = geom.cap_coverage_expectation(q, n_caps)
        mc, se = reference.cap_coverage_mc(q, n_caps, n_experiments=60,
                                           points_per_experiment=2000,
                                           seed=seed)
        sigma_check(f"cap coverage q={q:g} N={n_caps}", pred, mc, se)
    n44 = geom.least_covering_caps(0.1)
    results.append(_check(n44 == 44, "least caps at q=0.1", f"{n44} (expected 44)"))

    # cone volumes vs Monte Carlo
    for R, rho in ((1.0, 0.0), (1.0, 0.4), (2.0, 1.5)):
        pred = geom.vcone(R, rho)
        mc, se = reference.vcone_mc(R, rho, n_samples=400_000, seed=seed + 1)
        sigma_check(f"cone volume R={R:g} rho={rho:g}", pred, mc, se)

    # expanded radius fixed point check
    er = geom.expanded_radius(0.1, 1.0)
    ok_er = abs(er.value - 1.1658839174214948) <= 1e-12 and er.exceeds
    results.append(_check(ok_er, "expanded radius (0.1, 1)",
                          f"{er.value:.10f}, exceeds={er.exceeds}"))

    # pair-production root: residual of the defining equation
    err = 0.0
    try:
        for alpha in (1.1, 1.5, 2.0):
            da = d if abs(alpha - d.alpha) < 1e-12 else DispersionRelation.power_law(alpha)
            for R in (0.5, 1.0, 3.0):
                s0 = geom.digamma_root(da, R)
                kap = R / 2.0
                res = abs(eval_omega(da, (1 + s0) * kap) + eval_omega(da, (s0 - 1) * kap)
                          - 2 * eval_omega(da, R))
                err = max(err, res)
        results.append(_check_line("pair-production root residual", err, 1e-10))
    except (geom.BracketError, ArithmeticError) as exc:
        results.append(_check(False, "pair-production root", str(exc)))

    # resonance-manifold quadrature vs independent references
    rng = np.random.default_rng(seed + 2)
    d_quad = DispersionRelation.power_law(2.0)
    err = 0.0
    for _ in range(3):
        k2 = rng.normal(size=3)
        k3 = rng.normal(size=3)
        if np.linalg.norm(k2 + k3) < 0.3 or np.linalg.norm(k2 - k3) < 0.3:
            k3 = k3 + np.array([0.7, 0.0, 0.0])
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        m = geom.ResonanceManifold(k2, k3, d_quad)
        got = geom.manifold_quadrature(
            m, lambda u, c=coeffs: c[0] + c[1] * u + c[2] * u * u)
        want = reference.sphere_manifold_oracle(k2, k3, coeffs)
        err = max(err, abs(got - want) / max(1.0, abs(want)))
    results.append(_check_line("manifold quadrature vs sphere form (alpha=2)",
                               err, 1e-8))

    d2 = DispersionRelation.power_law(1.5)
    k2 = np.array([0.9, 0.1, 0.0])
    k3 = np.array([-0.2, 0.8, 0.3])
    m = geom.ResonanceManifold(k2, k3, d2)
    got = geom.manifold_quadrature(m, lambda u: 1.0 + u)
    mc, se = reference.mollified_delta_mc(d2, k2, k3, lambda rr: 1.0 + rr,
                                          n_samples=4_000_000, seed=seed + 3,
                                          n_batches=4)
    sigma_check("manifold quadrature vs mollified MC (alpha=1.5)", got, mc, se,
                abs_floor=0.01 * abs(got))

    return _finish_verify("verify-geometry", f"seed={seed}", results, out_dir)


# --- report -------------------------------------------------------------------


def _records_from_csv(path: str) -> List[diag.DiagnosticsRecord]:
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        for col in ("time", "mass", "energy"):
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        band_cols = [c for c in reader.fieldnames if c.startswith("band_energy_R")]
        low_cols = [c for c in reader.fieldnames if c.startswith("low_mass_d")]
        prod_cols = [c for c in reader.fieldnames if c.startswith("production_")]
        records = []
        for row in reader:
            records.append(diag.DiagnosticsRecord(
                time=float(row["time"]),
                mass=float(row["mass"]),
                energy=float(row["energy"]),
                band_energy={float(c[len("band_energy_R"):]): float(row[c])
                             for c in band_cols},
                low_mass={float(c[len("low_mass_d"):]): float(row[c])
                          for c in low_cols},
                convex_production={c[len("production_"):]: float(row[c])
                                   for c in prod_cols},
            ))
    return records


def cmd_report(series_path: str, out_dir: Optional[str],
               discard_fraction: float = 0.2) -> int:
    """Summarize a series.csv into a cascade report (stdout, plus JSON file)."""
    if not 0.0 <= discard_fraction < 1.0:
        raise ConfigError("--discard-fraction",
                          f"must lie in [0, 1), got {discard_fraction}")
    if not os.path.exists(series_path):
        raise ConfigError("series", f"no such file: {series_path}")
    records = _records_from_csv(series_path)
    if not records:
        print(f"report: {series_path} has no data rows", file=sys.stderr)
        return 1
    rep = diag.cascade_report(records, discard_fraction=discard_fraction)
    text = json.dumps(rep, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# --- entrypoint ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavekin",
        description="Isotropic four-wave kinetic simulator and verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_dump: bool = False) -> None:
        p.add_argument("--config", help="YAML config file (defaults apply if omitted)")
        p.add_argument("--out", help=f"output directory (env {_ENV_OUT})")
        p.add_argument("--seed", type=int, help=f"RNG seed (env {_ENV_SEED})")
        if with_dump:
            p.add_argument("--dump-spectrum", action="store_true", default=None,
                           help="append per-node g columns to series.csv")

    p_sim = sub.add_parser("simulate", help="run an evolution and write artifacts")
    add_common(p_sim, with_dump=True)

    p_vk = sub.add_parser("verify-kernel", help="cross-check kernel closed forms")
    add_common(p_vk)

    p_vg = sub.add_parser("verify-geometry", help="cross-check geometric predictions")
    add_common(p_vg)

    p_rep = sub.add_parser("report", help="summarize a series.csv")
    p_rep.add_argument("series", help="path to a series.csv produced by simulate")
    p_rep.add_argument("--out", help="directory for report.json (optional)")
    p_rep.add_argument("--discard-fraction", type=float, default=0.2,
                       help="initial fraction of records to drop as transient")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.series, args.out, args.discard_fraction)

        cfg = _load_cfg(args.config)
        seed = _resolve_int(args.seed, _ENV_SEED, cfg.seed)
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("--seed", "must fit in an unsigned 64-bit integer")

        if args.command == "simulate":
            dump = cfg.output.dump_spectrum if args.dump_spectrum is None else True
            out_dir = _resolve_out(args.out, cfg, seed)
            cfg = _effective(cfg, seed, out_dir, dump)
            return cmd_simulate(cfg, out_dir)

        out_dir = args.out if args.out is not None else os.environ.get(_ENV_OUT)
        cfg = dataclasses.replace(cfg, seed=seed)
        if args.command == "verify-kernel":
            return cmd_verify_kernel(cfg, out_dir)
        if args.command == "verify-geometry":
            return cmd_verify_geometry(cfg, out_dir)
        parser.error(f"unknown command {args.command!r}")
        return 2
    except ConfigError as exc:
        print(f"wavekin: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, ConservationError, MemoryBudgetError, OSError,
            ValueError) as exc:
        print(f"wavekin: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
