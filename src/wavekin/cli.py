"""Command-line front end: simulate, verify-kernel, verify-geometry, report.

Exit codes: 0 success, 1 runtime or verification failure, 2 bad usage or
invalid configuration.  Every command resolves its seed and output directory
the same way: flag > environment (WAVEKIN_SEED, WAVEKIN_OUT) > config file;
only simulate then defaults the directory, to runs/<digest>.  Outputs are
deterministic: the same config and seed produce byte-identical series.csv
files.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    TAIL_CUT,
    four_sine_closed_form,
    resonant_quadruple,
    sine_integral_oracle,
)
from wavekin.config import ConfigError, RunConfig, load_config_file
from wavekin.dispersion import DispersionRelation, eval_omega
from wavekin.solver import (
    ConservationError,
    StiffnessError,
    build_operator,
    evolve,
)

__all__ = ["main", "cmd_simulate", "cmd_verify_kernel", "cmd_verify_geometry",
           "cmd_report"]

_ENV_SEED = "WAVEKIN_SEED"
_ENV_OUT = "WAVEKIN_OUT"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; stable for identical binary values."""
    return repr(float(x))


def _option(flag, env_name: str, file_value, parse=str):
    """The flag if given, else the environment variable if set, else the file's value."""
    if flag is not None:
        return flag
    env = os.environ.get(env_name)
    if not env:
        return file_value
    try:
        return parse(env)
    except ValueError:
        raise ConfigError(env_name,
                          f"environment value {env!r} is not a valid {parse.__name__}")


def _load_cfg(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise ConfigError("--config", f"no such file: {path}")
    return load_config_file(path)


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


def cmd_simulate(cfg: RunConfig) -> int:
    """Run the configured evolution and write the run artifacts to cfg.output.dir."""
    out_dir = cfg.output.dir
    grid = cfg.make_grid(cfg.make_dispersion())
    op = build_operator(cfg.make_kernel_weights(), grid)
    state0 = cfg.make_initial_state(grid)
    series = evolve(
        op, state0, cfg.integrator.t_end,
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
        "n_table_entries": op.n_entries,
        "final_time": last.time,
        "mass_initial": first.mass,
        "mass_final": last.mass,
        "mass_drift_rel": diag.relative_drift(first.mass, last.mass),
        "energy_initial": first.energy,
        "energy_final": last.energy,
        "energy_drift_rel": diag.relative_drift(first.energy, last.energy),
        "cascade": diag.cascade_report([rec for _, rec in series]),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"simulate: {len(series)} records -> {out_dir}")
    print(f"  mass drift {summary['mass_drift_rel']:.3e}, "
          f"energy drift {summary['energy_drift_rel']:.3e}")
    return 0


# --- checks: one per guarantee, shared with tests/test_acceptance.py ----------


def _check(ok: bool, name: str, detail: str) -> Tuple[bool, str]:
    """One verify check: its verdict and its PASS/FAIL line."""
    return ok, f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}"


def _check_line(name: str, err: float, tol: float) -> Tuple[bool, str]:
    return _check(err <= tol, name, f"max err {err:.3e} (tol {tol:.1e})")


def _mc_check(name: str, predicted: float, mc: float, stderr: float,
              allowed: float) -> Tuple[bool, str]:
    return _check(abs(predicted - mc) <= allowed, name,
                  f"predicted {predicted:.6g}, mc {mc:.6g} +/- {stderr:.2g}")


def _polynomial(coeffs: Sequence[float]):
    """u -> coeffs[0] + coeffs[1]*u + coeffs[2]*u*u + ..., on floats or arrays."""
    def poly(u):
        total = 0.0
        for k, c in enumerate(coeffs):
            for _ in range(k):
                c = c * u
            total = total + c
        return total
    return poly


def check_kernel_forms(box, on_cone, many_on_cone) -> List[Tuple[bool, str]]:
    """Guarantee 1: the closed form vs quadrature on ``box``; (pi/4)*min vs
    quadrature on ``on_cone`` and vs the closed form on ``many_on_cone``.

    Both cone sets need sorted radii with max + min <= mid + mid (every
    resonant quadruple qualifies).  Quadrature is held to 1e-3, because the
    oracle cuts its tail at TAIL_CUT.
    """
    tol = 1e-3
    err_box = max(abs(four_sine_closed_form(*q) - sine_integral_oracle(*q)) for q in box)
    err_cone = max(abs((np.pi / 4.0) * min(q) - sine_integral_oracle(*q)) for q in on_cone)
    err_exact = max(abs((np.pi / 4.0) * min(q) - four_sine_closed_form(*q))
                    for q in many_on_cone)
    return [_check_line("closed form vs quadrature (general)", err_box, tol),
            _check_line("min identity vs quadrature (resonant)", err_cone, tol),
            _check_line("min identity vs closed form (resonant)", err_exact, 1e-12)]


def check_covering(cap_cases, cone_cases, n_sigma: float, seeds: Tuple[int, int],
                   n_experiments: int) -> List[Tuple[bool, str]]:
    """Guarantee 5: cap cases (q, N) and cone cases (R, rho) against Monte
    Carlo, within ``n_sigma`` standard errors; a cap's is floored at one
    flipped test point.  ``seeds`` seed the cap and the cone estimates."""
    results = []
    for q, n_caps in cap_cases:
        pred = geom.cap_coverage_expectation(q, n_caps)
        mc, se = reference.cap_coverage_mc(q, n_caps, n_experiments=n_experiments,
                                           seed=seeds[0])
        flip = 1.0 / (n_experiments * reference.CAP_POINTS)
        results.append(_mc_check(f"cap coverage q={q:g} N={n_caps}", pred, mc, se,
                                 n_sigma * max(se, flip)))
    n44 = geom.least_covering_caps(0.1)
    results.append(_check(n44 == 44 and 0.9 ** 44 < 0.01 <= 0.9 ** 43,
                          "least caps at q=0.1", f"{n44} (expected 44)"))
    for R, rho in cone_cases:
        pred = geom.vcone(R, rho)
        mc, se = reference.vcone_mc(R, rho, seed=seeds[1])
        results.append(_mc_check(f"cone volume R={R:g} rho={rho:g}", pred, mc, se,
                                 n_sigma * se))
    return results


def check_expanded_radius() -> List[Tuple[bool, str]]:
    """Guarantee 6: for r/R in 1e-3..1e-1 the expanded radius exceeds R and
    equals its closed form to 1e-12, and at (0.1, 1) its pinned value."""
    margin, dev = np.inf, 0.0
    for r in (1e-3, 2e-3, 1e-2, 1e-1):
        value, exceeds = geom.expanded_radius(r, 1.0)
        margin = min(margin, value - 1.0 if exceeds else -np.inf)
        dev = max(dev, abs(value - (np.sqrt(1.0 - 45.0 * r * r) + 3.0 * np.sqrt(2.0) * r)))
    sweep_ok = margin > 0.0 and dev <= 1e-12
    er = geom.expanded_radius(0.1, 1.0)
    detail = f"{er.value:.10f}, exceeds={er.exceeds}"
    if not sweep_ok:
        detail += f"; r/R 1e-3..1e-1: min margin {margin:.2e}, closed-form dev {dev:.2e}"
    ok = sweep_ok and er.exceeds and abs(er.value - 1.1658839174214948) <= 1e-12
    return [_check(ok, "expanded radius (0.1, 1)", detail)]


def check_spreading_root(alphas: Sequence[float],
                         radii: Sequence[float]) -> List[Tuple[bool, str]]:
    """Guarantee 7 for every (alpha, R): the root lies in (1, 2), the bracket
    [1, 2] straddles 2*omega(R), and the residual is <= 1e-10."""
    err, inside = 0.0, True
    try:
        for alpha in alphas:
            d = DispersionRelation.power_law(alpha)
            for R in radii:
                kap = R / 2.0
                target = 2 * eval_omega(d, R)

                def lhs(s: float) -> float:
                    return eval_omega(d, (1 + s) * kap) + eval_omega(d, (s - 1) * kap)

                s0 = geom.digamma_root(d, R)
                err = max(err, abs(lhs(s0) - target))
                inside = inside and 1.0 < s0 < 2.0 and lhs(1.0) < target < lhs(2.0)
    except (geom.BracketError, ArithmeticError) as exc:
        return [_check(False, "pair-production root", str(exc))]
    if not inside:
        return [_check(False, "pair-production root",
                       "a root outside (1, 2) or a bracket not straddling 2*omega(R)")]
    return [_check_line("pair-production root residual", err, 1e-10)]


def check_manifold_quadrature(sphere_cases, mc_cases, n_sigma: float, seed: int,
                              n_batches: int) -> List[Tuple[bool, str]]:
    """Guarantee 8 on cases (k2, k3, polynomial coefficients, constant first):
    alpha = 2 against the sphere closed form, alpha = 1.5 against
    mollified-delta Monte Carlo within ``n_sigma`` standard errors plus 1%."""
    d2 = DispersionRelation.power_law(2.0)
    err = 0.0
    for k2, k3, coeffs in sphere_cases:
        got = geom.manifold_quadrature(geom.ResonanceManifold(k2, k3, d2),
                                       _polynomial(coeffs))
        want = reference.sphere_manifold_oracle(k2, k3, coeffs)
        err = max(err, abs(got - want) / max(1.0, abs(want)))
    results = [_check_line("manifold quadrature vs sphere form (alpha=2)", err, 1e-8)]
    d15 = DispersionRelation.power_law(1.5)
    for k2, k3, coeffs in mc_cases:
        poly = _polynomial(coeffs)
        got = geom.manifold_quadrature(geom.ResonanceManifold(k2, k3, d15), poly)
        mc, se = reference.mollified_delta_mc(d15, k2, k3, poly, n_samples=4_000_000,
                                              seed=seed, n_batches=n_batches)
        results.append(_mc_check("manifold quadrature vs mollified MC (alpha=1.5)",
                                 got, mc, se, n_sigma * se + 0.01 * abs(got)))
    return results


# --- verify-kernel, verify-geometry --------------------------------------------


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


def cmd_verify_kernel(cfg: RunConfig) -> int:
    """Cross-check the kernel closed forms against direct quadrature."""
    d = cfg.make_dispersion()
    rng = np.random.default_rng(cfg.seed)
    box = rng.uniform(0.2, 4.0, size=(25, 4))
    resonant = [resonant_quadruple(d, rng) for _ in range(25 + 10_000)]
    on_cone = [(r1, r2, r3, r) for r, r1, r2, r3 in resonant]
    results = check_kernel_forms(box, on_cone[:25], on_cone[25:])
    return _finish_verify("verify-kernel", f"alpha={d.alpha:g}, seed={cfg.seed}, "
                          f"tail_cut={TAIL_CUT:g}", results, cfg.output.dir)


def cmd_verify_geometry(cfg: RunConfig) -> int:
    """Check the geometric predictions against Monte Carlo estimates."""
    seed = cfg.seed
    rng = np.random.default_rng(seed + 2)
    sphere_cases = []
    for _ in range(3):
        k2 = rng.normal(size=3)
        k3 = rng.normal(size=3)
        if np.linalg.norm(k2 + k3) < 0.3 or np.linalg.norm(k2 - k3) < 0.3:
            k3 = k3 + np.array([0.7, 0.0, 0.0])
        sphere_cases.append((k2, k3, rng.uniform(-1.0, 1.0, size=3)))
    mc_cases = [(np.array([0.9, 0.1, 0.0]), np.array([-0.2, 0.8, 0.3]), (1.0, 1.0))]

    # 4 sigma, not the tests' 3: this must pass on any seed a user picks
    results = (check_covering(((0.05, 20), (0.1, 44), (0.2, 10)),
                              ((1.0, 0.0), (1.0, 0.4), (2.0, 1.5)),
                              4.0, (seed, seed + 1), n_experiments=60)
               + check_expanded_radius()
               + check_spreading_root((1.1, 1.5, 2.0), (0.5, 1.0, 3.0))
               + check_manifold_quadrature(sphere_cases, mc_cases, 4.0, seed + 3,
                                           n_batches=4))
    return _finish_verify("verify-geometry", f"seed={seed}", results, cfg.output.dir)


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
            p.add_argument("--dump-spectrum", action="store_true",
                           help="append per-node g columns to series.csv")

    p_sim = sub.add_parser("simulate", help="run an evolution and write artifacts")
    add_common(p_sim, with_dump=True)

    p_vk = sub.add_parser("verify-kernel", help="cross-check kernel closed forms")
    add_common(p_vk)

    p_vg = sub.add_parser("verify-geometry", help="cross-check geometric predictions")
    add_common(p_vg)

    p_rep = sub.add_parser("report", help="summarize a series.csv")
    p_rep.add_argument("series", help="path to a series.csv produced by simulate")
    p_rep.add_argument("--out", help=f"directory for report.json (env {_ENV_OUT})")
    p_rep.add_argument("--discard-fraction", type=float, default=0.2,
                       help="initial fraction of records to drop as transient")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(getattr(args, "config", None))
        seed = _option(getattr(args, "seed", None), _ENV_SEED, cfg.seed, int)
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("--seed", "must fit in an unsigned 64-bit integer")
        out_dir = _option(args.out, _ENV_OUT, cfg.output.dir)
        if args.command == "report":
            return cmd_report(args.series, out_dir, args.discard_fraction)

        if out_dir is None and args.command == "simulate":
            import hashlib  # here only: it maps OpenSSL, megabytes resident

            digest = hashlib.sha256(
                (yaml.safe_dump(cfg.to_dict(), sort_keys=True) + f"|seed={seed}").encode()
            ).hexdigest()[:12]
            out_dir = os.path.join("runs", digest)
        dump = getattr(args, "dump_spectrum", False) or cfg.output.dump_spectrum
        cfg = dataclasses.replace(
            cfg, seed=seed,
            output=dataclasses.replace(cfg.output, dir=out_dir, dump_spectrum=dump))
        command = {"simulate": cmd_simulate, "verify-kernel": cmd_verify_kernel,
                   "verify-geometry": cmd_verify_geometry}[args.command]
        return command(cfg)
    except ConfigError as exc:
        print(f"wavekin: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, ConservationError, OSError, ValueError) as exc:
        print(f"wavekin: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
