"""Config parsing (strict, line-numbered errors) and the command-line front end.

CLI behavior is exercised through main(argv) in-process: exit codes, the
flag > environment > file > default precedence chain, and byte-identical
reruns of simulate for a fixed (config, seed).
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import wavekin
from wavekin import cli, solver
from wavekin.cli import main
from wavekin.collision_kernel import KernelWeights
from wavekin.config import _RANGES, ConfigError, RunConfig, load_config_file, parse_config
from wavekin.dispersion import DispersionRelation
from wavekin.solver import ring_in_r

MINI_YAML = """
dispersion:
  alpha: 1.5
grid:
  n_nodes: 40
  omega_max: 4.0
initial:
  preset: gaussian_bump
  center: 2.0
  width: 0.4
  amplitude: 1.0
integrator:
  t_end: 0.02
  output_every: 0.005
diagnostics:
  band_radii: [1.0, 2.0]
  deltas: [0.5]
  test_functions: ["low_pass:2.0", "quadratic"]
seed: 7
"""


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.dispersion.alpha == 2.0
        assert cfg.grid.n_nodes == 64
        assert cfg.grid.omega_max == 4.0
        assert cfg.seed == 0

    def test_round_trip_through_to_dict(self):
        cfg = parse_config(MINI_YAML)
        again = parse_config(yaml.safe_dump(cfg.to_dict()))
        assert again == cfg

    def test_unknown_key_reports_line_and_alternatives(self):
        text = "grid:\n  n_knots: 32\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msg = str(exc.value)
        assert "line 2" in msg
        assert "n_knots" in msg
        assert "n_nodes" in msg  # allowed keys are listed

    def test_alpha_out_of_range_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("dispersion:\n  alpha: 2.5\n")
        msg = str(exc.value)
        assert "line 2" in msg and "alpha" in msg

    def test_negative_n_nodes(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            parse_config("grid:\n  n_nodes: -3\n")

    def test_duplicate_key_rejected(self):
        text = "grid:\n  n_nodes: 8\n  n_nodes: 16\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    @pytest.mark.parametrize("text, line", [
        ("grid: [1\n", 2),
        ("grid:\n  n_nodes: 8\n\tomega_max: 2\n", 3),
        ("seed: !!python/object:os.getcwd 1\n", 1),
        ("seed: 1\x07\n", None),  # rejected while reading, before any line
    ])
    def test_invalid_yaml_is_a_config_error(self, text, line):
        with pytest.raises(ConfigError, match="not valid YAML") as exc:
            parse_config(text)
        assert exc.value.key == "<document>" and exc.value.line == line

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("grid:\n  n_nodes: many\n")

    def test_bad_test_function_id(self):
        with pytest.raises(ConfigError, match="test_functions"):
            parse_config("diagnostics:\n  test_functions: ['gauss:1']\n")

    def test_seed_must_fit_u64(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(f"seed: {2 ** 64}\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed: -1\n")

    def test_nonpositive_prefactor_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("grid:\n  n_nodes: 8\nkernel:\n  c_q: -5\n")
        msg = str(exc.value)
        assert "line 4" in msg and "kernel.c_q" in msg and "positive" in msg

    @pytest.mark.parametrize("text, line", [
        ("kernel:\n  c_q: 1.0\n  table_cache: t.npz\n", 3),
        ("seed: 1\nthreads: 2\n", 2),
        ("dispersion:\n  alpha: 1.5\n  kind: power_law\n", 3),
        ("kernel:\n  oracle:\n    tol: 1e-3\n", 2),
        ("integrator:\n  t_end: 0.5\n  safety: 0.5\n", 3),
        ("integrator:\n  method: rk4\n", 2),
        ("grid:\n  n_nodes: 8\nkernel:\n  max_table_mb: 64\n", 4),
    ])
    def test_removed_keys_are_unknown(self, text, line):
        with pytest.raises(ConfigError, match=f"line {line}, .*unknown key"):
            parse_config(text)

    @pytest.mark.parametrize("text, key, column", [
        ("diagnostics:\n  deltas: [0.5]\n  band_radii: [1.0000001, 1.0000002]\n",
         "diagnostics.band_radii", "band_energy_R1"),
        ("diagnostics:\n  band_radii: [1.0]\n  deltas: [0.5, 0.5]\n",
         "diagnostics.deltas", "low_mass_d0.5"),
        ("diagnostics:\n  deltas: []\n  test_functions: [quadratic, quadratic]\n",
         "diagnostics.test_functions", "production_quadratic"),
    ])
    def test_repeated_series_column_rejected(self, text, key, column):
        # series.csv would hold two columns of one name, and the cascade
        # report one of them
        with pytest.raises(ConfigError, match=f"line 3, key '{key}'.*'{column}'"):
            parse_config(text)

    def test_ring_preset_builds_ring_in_r(self):
        cfg = parse_config("grid:\n  n_nodes: 16\ninitial:\n  preset: ring\n")
        grid = cfg.make_grid(cfg.make_dispersion())
        want = ring_in_r(grid, 0.5 * grid.r[-1], 0.1 * grid.r[-1], 1.0)
        assert np.array_equal(cfg.make_initial_state(grid).g, want.g)
        cfg = parse_config("grid:\n  n_nodes: 16\ninitial:\n  preset: ring\n"
                           "  r_center: 0.7\n  width: 0.3\n  amplitude: 2.5\n")
        want = ring_in_r(grid, 0.7, 0.3, 2.5)
        assert np.array_equal(cfg.make_initial_state(grid).g, want.g)

    def test_type_rules_follow_the_schema(self):
        for text, key in (("output:\n  dump_spectrum: 1\n", "dump_spectrum"),
                          ("output:\n  dir: 5\n", "output.dir"),
                          ("integrator:\n  max_steps: 2.5\n", "max_steps"),
                          ("diagnostics:\n  deltas: 0.5\n", "deltas"),
                          ("diagnostics:\n  deltas: [a]\n", "deltas"),
                          ("kernel: 3\n", "kernel.*expected a mapping"),
                          ("integrator:\n  dt0: 1e-2x\n", "dt0"),
                          ("kernel:\n  c_q: -1e1\n", "c_q.*positive")):
            with pytest.raises(ConfigError, match=key):
                parse_config(text)
        cfg = parse_config("integrator:\n  max_steps: 4.0\n  dt0: 1\n"
                           "diagnostics:\n  deltas: [1, 0.5]\n")
        assert cfg.integrator.max_steps == 4 and type(cfg.integrator.max_steps) is int
        assert type(cfg.integrator.dt0) is float
        assert cfg.diagnostics.deltas == (1.0, 0.5)
        # YAML 1.1 reads these exponent literals as strings
        cfg = parse_config("kernel:\n  c_q: 1e4\n"
                           "integrator:\n  max_steps: 1e3\n  dt0: 2.5e-3\n")
        assert cfg.kernel.c_q == 1e4
        assert cfg.integrator.max_steps == 1000 and type(cfg.integrator.max_steps) is int
        assert cfg.integrator.dt0 == 2.5e-3

    def test_readme_table_lists_exactly_the_schema_keys(self):
        def dotted(cls, prefix=""):
            for f in dataclasses.fields(cls):
                path = prefix + f.name
                if dataclasses.is_dataclass(f.default_factory):
                    yield from dotted(f.default_factory, path + ".")
                else:
                    yield path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration reference", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
        keys = sorted(dotted(RunConfig))
        assert sorted(listed) == keys
        # a misspelt range key would silently drop its check
        assert set(_RANGES) <= set(keys)

    def test_factories_build_consistent_objects(self):
        cfg = parse_config(MINI_YAML)
        d = cfg.make_dispersion()
        grid = cfg.make_grid(d)
        assert grid.n_nodes == 40
        assert grid.omega_max == pytest.approx(4.0)
        state = cfg.make_initial_state(grid)
        assert state.g.shape == (40,)
        diag_cfg = cfg.make_diagnostics_config()
        assert set(diag_cfg.test_functions) == {"low_pass:2.0", "quadratic"}

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(MINI_YAML)
        assert load_config_file(str(path)) == parse_config(MINI_YAML)


@pytest.fixture()
def clean_env(monkeypatch):
    for var in ("WAVEKIN_SEED", "WAVEKIN_THREADS", "WAVEKIN_OUT"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


@pytest.fixture()
def run_dir(tmp_path, clean_env):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(MINI_YAML)
    return tmp_path, cfg_path


def _child_env():
    """The environment for a child interpreter that imports this wavekin."""
    src = str(Path(wavekin.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _simulate(cfg_path: Path, out: Path, *extra: str) -> int:
    return main(["simulate", "--config", str(cfg_path), "--out", str(out), *extra])


class TestSimulateCommand:
    def test_artifacts_written(self, run_dir):
        tmp_path, cfg_path = run_dir
        out = tmp_path / "out"
        assert _simulate(cfg_path, out) == 0
        assert (out / "series.csv").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "effective_config.yaml").is_file()

        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert header[:3] == ["time", "mass", "energy"]
        assert "band_energy_R1" in header and "band_energy_R2" in header
        assert "low_mass_d0.5" in header
        assert "production_low_pass:2.0" in header
        assert not any(col.startswith("g_") for col in header)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["mass_final"] == pytest.approx(summary["mass_initial"],
                                                      rel=1e-10)
        assert summary["final_time"] == pytest.approx(0.02, rel=1e-9)
        assert summary["n_records"] >= 2

    def test_reruns_are_byte_identical(self, run_dir):
        tmp_path, cfg_path = run_dir
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _simulate(cfg_path, out1) == 0
        assert _simulate(cfg_path, out2) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_dump_spectrum_adds_columns(self, run_dir):
        tmp_path, cfg_path = run_dir
        out = tmp_path / "dump"
        assert _simulate(cfg_path, out, "--dump-spectrum") == 0
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert "g_0" in header and "g_39" in header

    def test_zero_horizon_writes_header_only_csv(self, run_dir, tmp_path):
        cfg_path = tmp_path / "zero.yaml"
        cfg_path.write_text("integrator:\n  t_end: 0.0\n")
        out = tmp_path / "zero_out"
        assert _simulate(cfg_path, out) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert len(lines) == 1  # header only; the initial record is in summary
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 1
        assert summary["mass_initial"] == summary["mass_final"]

    def test_missing_config_file_is_a_config_error(self, tmp_path, clean_env, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_config_exits_2(self, tmp_path, clean_env, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("dispersion:\n  alpha: 2.5\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        # non-finite test-function parameters would write NaN productions
        bad.write_text('diagnostics:\n  test_functions: ["low_pass:nan", "band_cap:inf", '
                       '"ramp:-inf"]\n')
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2, key 'diagnostics.test_functions'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("integrator: {t_end: .inf, max_steps: 5}\n", 1),
        ("grid:\n  omega_max: .inf\n", 2),
        ("grid:\n  omega_max: 1e400\n", 2),
        ("kernel:\n  c_q: .inf\n", 2),
        ("kernel:\n  cutoff_n: .inf\n", 2),
        ("initial:\n  center: .nan\n", 2),
    ], ids=["t_end", "omega_max", "omega_max-1e400", "c_q", "cutoff_n", "center-nan"])
    def test_nonfinite_number_exits_2(self, tmp_path, clean_env, capsys, text, line):
        bad = tmp_path / "nonfinite.yaml"
        bad.write_text(text)
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"line {line}, " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tiny_output_every_records_every_step(self, tmp_path, clean_env):
        # one output period per step used to mean ~1e298 loop turns per step;
        # a subprocess with a timeout turns a hang into a failure
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("grid:\n  n_nodes: 16\n"
                       "integrator:\n  output_every: 1.0e-300\n  max_steps: 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wavekin.cli", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "o" / "series.csv").read_text().splitlines()) == 1 + 3

    def test_removed_safety_key_exits_2(self, tmp_path, clean_env, capsys):
        cfg = tmp_path / "safety.yaml"
        cfg.write_text("integrator:\n  t_end: 0.5\n  safety: 0.5\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 3, key 'integrator.safety': unknown key" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, run_dir, capsys):
        # --out names a regular file, so creating the run directory raises
        # OSError -> 1
        tmp_path, cfg_path = run_dir
        taken = tmp_path / "taken"
        taken.write_text("")
        assert _simulate(cfg_path, taken) == 1
        assert str(taken) in capsys.readouterr().err

    def test_640_nodes_with_a_test_function_exit_0(self, tmp_path, clean_env):
        # the table of this grid would need about 2,129 MiB; production does
        # not build it
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("grid:\n  n_nodes: 640\nintegrator:\n  max_steps: 1\n"
                       "diagnostics:\n  test_functions: [quadratic]\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "series.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[0].endswith(",production_quadratic")

    @pytest.mark.parametrize("test_functions", ["[]", "[quadratic]"])
    def test_no_run_builds_the_table(self, tmp_path, clean_env, monkeypatch, test_functions):
        # neither the operator nor convex production needs the O(n^3) table
        calls = []
        build = solver.build_kernel_table

        def counted(*args):
            calls.append(args)
            return build(*args)

        for module in (solver, cli):  # every binding of the builder
            if vars(module).get("build_kernel_table") is build:
                monkeypatch.setattr(module, "build_kernel_table", counted)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("grid:\n  n_nodes: 24\nintegrator:\n  t_end: 0.01\n"
                       f"diagnostics:\n  test_functions: {test_functions}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls == []
        # the summary's entry count is the table's
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        grid = solver.OmegaGrid(DispersionRelation.power_law(2.0), 24, 4.0)  # defaults
        assert summary["n_table_entries"] == build(KernelWeights(), grid).n_entries

    def test_production_needs_less_memory_than_the_table(self, tmp_path, clean_env):
        # the cascade workload's shape: every record's production at n = 128
        # peaks below what the table's arrays alone would take, 33 bytes per
        # entry (four int32 indices, w, coef, and the int8 multiplicity)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("grid:\n  n_nodes: 128\n  omega_max: 8.0\n"
                       "initial:\n  center: 4.0\n  width: 0.6\n"
                       "integrator:\n  output_every: 0.0\n  max_steps: 4\n"
                       "diagnostics:\n  test_functions: [low_pass:2.0, quadratic]\n")
        op = solver.build_operator(KernelWeights(), solver.OmegaGrid(
            DispersionRelation.power_law(2.0), 128, 8.0))
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "o" / "series.csv").read_text().splitlines()) == 1 + 4
        assert peak < 33 * op.n_entries


class TestPrecedence:
    def test_seed_flag_beats_env_beats_file(self, run_dir):
        tmp_path, cfg_path = run_dir

        def seed_of(out: Path, *extra: str) -> int:
            assert _simulate(cfg_path, out, *extra) == 0
            eff = yaml.safe_load((out / "effective_config.yaml").read_text())
            return eff["seed"]

        assert seed_of(tmp_path / "o1") == 7  # from the file

        os.environ["WAVEKIN_SEED"] = "11"
        try:
            assert seed_of(tmp_path / "o2") == 11
            assert seed_of(tmp_path / "o3", "--seed", "13") == 13
        finally:
            del os.environ["WAVEKIN_SEED"]

    def test_stale_threads_env_is_ignored(self, run_dir):
        # the thread-count knob is gone; a value left in the environment
        # must neither be rejected nor show up in the effective config
        tmp_path, cfg_path = run_dir
        os.environ["WAVEKIN_THREADS"] = "not-a-number"
        try:
            out = tmp_path / "t"
            assert _simulate(cfg_path, out) == 0
            eff = yaml.safe_load((out / "effective_config.yaml").read_text())
            assert "threads" not in eff
        finally:
            del os.environ["WAVEKIN_THREADS"]

    def test_out_env_used_when_flag_absent(self, run_dir):
        tmp_path, cfg_path = run_dir
        target = tmp_path / "env_out"
        os.environ["WAVEKIN_OUT"] = str(target)
        try:
            rc = main(["simulate", "--config", str(cfg_path)])
        finally:
            del os.environ["WAVEKIN_OUT"]
        assert rc == 0
        assert (target / "series.csv").is_file()

    def test_unparseable_env_seed_exits_2(self, run_dir, capsys):
        tmp_path, cfg_path = run_dir
        os.environ["WAVEKIN_SEED"] = "not-a-number"
        try:
            rc = main(["simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o")])
        finally:
            del os.environ["WAVEKIN_SEED"]
        assert rc == 2
        assert "WAVEKIN_SEED" in capsys.readouterr().err

    def test_bad_flag_seed_exits_2(self, run_dir, capsys):
        tmp_path, cfg_path = run_dir
        rc = main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"), "--seed", "-5"])
        assert rc == 2

    def test_default_directory_only_for_simulate(self, run_dir, monkeypatch, capsys):
        tmp_path, cfg_path = run_dir
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        runs = list((tmp_path / "runs").iterdir())
        assert len(runs) == 1 and re.fullmatch(r"[0-9a-f]{12}", runs[0].name)
        assert (runs[0] / "series.csv").is_file()
        _fast_verify_kernel(monkeypatch)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["verify-kernel", "--seed", "1"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert len(list((tmp_path / "runs").iterdir())) == 1

    def test_verify_writes_into_the_config_output_dir(self, tmp_path, clean_env,
                                                      monkeypatch, capsys):
        _fast_verify_kernel(monkeypatch)
        cfg = tmp_path / "vk.yaml"
        cfg.write_text(f"output:\n  dir: '{tmp_path / 'from_file'}'\n")
        assert main(["verify-kernel", "--config", str(cfg), "--seed", "1"]) == 0
        report = json.loads((tmp_path / "from_file" / "verify_kernel.json").read_text())
        assert report["passed"] is True

    def test_report_out_env_used_when_flag_absent(self, run_dir, capsys):
        tmp_path, cfg_path = run_dir
        assert _simulate(cfg_path, tmp_path / "sim") == 0
        capsys.readouterr()
        os.environ["WAVEKIN_OUT"] = str(tmp_path / "env_rep")
        try:
            rc = main(["report", str(tmp_path / "sim" / "series.csv")])
        finally:
            del os.environ["WAVEKIN_OUT"]
        assert rc == 0
        on_disk = json.loads((tmp_path / "env_rep" / "report.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)


class TestReportCommand:
    def test_report_from_series(self, run_dir, capsys, monkeypatch):
        tmp_path, cfg_path = run_dir
        out = tmp_path / "sim"
        reported = []  # the records of each cascade_report call
        cascade_report = cli.diag.cascade_report
        monkeypatch.setattr(cli.diag, "cascade_report", lambda records, **kw: (
            reported.append(list(records)) or cascade_report(records, **kw)))
        assert _simulate(cfg_path, out) == 0
        capsys.readouterr()  # drop the simulate chatter
        rc = main(["report", str(out / "series.csv")])
        assert rc == 0
        text = capsys.readouterr().out
        rep = json.loads(text)
        assert rep["n_records"] >= 2
        assert "1" in rep["band_energy"]
        assert "0.5" in rep["low_mass"]
        assert set(rep["convex_production_min"]) == {"low_pass:2.0", "quadratic"}
        assert rep["mass_drift_rel"] <= 1e-10
        # every column kind (band, low-mass, production) reads back key for key
        # and bit for bit: series.csv holds simulate's records from the second on
        simulated, parsed = reported
        assert parsed == simulated[1:]
        assert text == json.dumps(cascade_report(simulated[1:]), indent=2, sort_keys=True) + "\n"

    def test_report_writes_json_with_out(self, run_dir, capsys):
        tmp_path, cfg_path = run_dir
        out = tmp_path / "sim2"
        assert _simulate(cfg_path, out) == 0
        capsys.readouterr()
        rep_dir = tmp_path / "rep"
        rc = main(["report", str(out / "series.csv"), "--out", str(rep_dir)])
        assert rc == 0
        on_disk = json.loads((rep_dir / "report.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("fraction", ["1.5", "nan"])
    def test_discard_fraction_outside_unit_interval_exits_2(self, tmp_path, clean_env,
                                                           capsys, fraction):
        series = tmp_path / "series.csv"
        series.write_text("time,mass,energy\n0.1,1.0,2.0\n0.2,1.0,2.0\n")
        rc = main(["report", str(series), "--discard-fraction", fraction])
        assert rc == 2
        assert "--discard-fraction" in capsys.readouterr().err

    def test_report_missing_series_is_a_usage_error(self, tmp_path, clean_env, capsys):
        rc = main(["report", str(tmp_path / "none.csv")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err


# simulate, report and verify-geometry in one fresh interpreter; the last
# stdout line lists the scipy modules loaded by then
_SCIPY_PROBE = """
import json, sys
from wavekin.cli import main
cfg, out = sys.argv[1], sys.argv[2]
codes = [main(["simulate", "--config", cfg, "--out", out]),
         main(["report", out + "/series.csv"]),
         main(["verify-geometry", "--seed", "1"])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


class TestImportGuard:
    def test_simulate_report_and_geometry_never_import_scipy(self, run_dir):
        # SciPy costs ~1 s of import time; only PointSet3's k-d tree uses it
        tmp_path, cfg_path = run_dir
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, str(cfg_path), str(tmp_path / "sim")],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"codes": [0, 0, 0], "scipy": []}

    def test_simulate_with_an_out_directory_never_loads_openssl(self, run_dir):
        # hashlib maps OpenSSL (_hashlib) into the process; only the default
        # runs/<digest> directory needs it, so a run given --out never does
        tmp_path, cfg_path = run_dir
        probe = ("import sys\nfrom wavekin.cli import main\n"
                 "code = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                 "print(code, '_hashlib' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(cfg_path), str(tmp_path / "sim")],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 False"


def _fast_verify_kernel(monkeypatch, bad_calls=()):
    """Make verify-kernel quick: equal-radii quadruples, except at the
    sampler calls numbered in ``bad_calls``, which get one outside the
    (pi/4)*min cone, and the closed form in place of quadrature."""
    import wavekin.cli as cli

    calls = []

    def quadruple(d, rng):
        calls.append(1)
        return (0.9, 0.7, 2.1, 1.3) if len(calls) in bad_calls else (1.0, 1.0, 1.0, 1.0)

    monkeypatch.setattr(cli, "resonant_quadruple", quadruple)
    monkeypatch.setattr(cli, "sine_integral_oracle", cli.four_sine_closed_form)


def _check_names(out: str):
    """The name (the text before the colon) of each PASS/FAIL line, in order."""
    return [line[8:].split(":")[0] for line in out.splitlines()
            if line.startswith(("  PASS  ", "  FAIL  "))]


class TestVerifyCommands:
    def test_verify_kernel_passes(self, tmp_path, clean_env, capsys):
        cfg = tmp_path / "vk.yaml"
        cfg.write_text("dispersion:\n  alpha: 1.5\nseed: 3\n")
        rc = main(["verify-kernel", "--config", str(cfg),
                   "--out", str(tmp_path / "vk")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        assert _check_names(out) == ["closed form vs quadrature (general)",
                                     "min identity vs quadrature (resonant)",
                                     "min identity vs closed form (resonant)"]
        assert (tmp_path / "vk" / "verify_kernel.json").is_file()

    def test_verify_kernel_reports_a_min_identity_violation(self, tmp_path, clean_env,
                                                            capsys, monkeypatch):
        # the sampler yields one quadruple outside the (pi/4)*min cone
        # (max + min > mid + mid) to the second check and one to the third
        _fast_verify_kernel(monkeypatch, bad_calls=(10, 30))
        rc = main(["verify-kernel", "--seed", "1", "--out", str(tmp_path / "vk")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "  FAIL  min identity vs quadrature (resonant)" in out
        assert "  FAIL  min identity vs closed form (resonant)" in out
        assert out.count("PASS") == 1
        report = json.loads((tmp_path / "vk" / "verify_kernel.json").read_text())
        assert report["passed"] is False
        assert report["checks"][1].startswith("FAIL  min identity vs quadrature")
        assert report["checks"][2].startswith("FAIL  min identity vs closed form")

    def test_verify_geometry_passes(self, tmp_path, clean_env, capsys):
        # the benchmark counts these lines as verify-geometry's work done
        rc = main(["verify-geometry", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        assert _check_names(out) == [
            "cap coverage q=0.05 N=20", "cap coverage q=0.1 N=44",
            "cap coverage q=0.2 N=10", "least caps at q=0.1",
            "cone volume R=1 rho=0", "cone volume R=1 rho=0.4",
            "cone volume R=2 rho=1.5", "expanded radius (0.1, 1)",
            "pair-production root residual",
            "manifold quadrature vs sphere form (alpha=2)",
            "manifold quadrature vs mollified MC (alpha=1.5)"]

    def test_verify_geometry_memory(self, clean_env, capsys):
        # the Monte-Carlo oracles keep only their normals (22.9 MiB per chunk
        # here); with whole-chunk uniforms and products this peaked at 47.5 MiB
        tracemalloc.start()
        try:
            assert main(["verify-geometry", "--seed", "1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2 ** 20
