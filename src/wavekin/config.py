"""Run configuration: parsing, validation, and construction of run objects.

Configs are YAML documents with fixed blocks (dispersion, grid, kernel,
initial, integrator, diagnostics, output) plus a scalar ``seed``.  The block
dataclasses below are the schema: each field's name, type and default is the
key's only declaration, and one walker checks a document against them.
Parsing is strict: unknown keys, duplicate keys, type mismatches, and
out-of-range values (see ``_RANGES``) are all reported with the offending key
and line.  Every field has a default, so the empty document is a valid
config.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Dict, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import yaml

from wavekin.collision_kernel import KernelWeights, DEFAULT_C_Q
from wavekin.diagnostics import DiagnosticsConfig, test_function_registry
from wavekin.dispersion import DispersionRelation
from wavekin.solver import (
    OmegaGrid,
    SpectrumState,
    gaussian_bump,
    ring_in_r,
    state_from_file,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config_file"]


class ConfigError(ValueError):
    """Invalid configuration; knows the key and source line when available."""

    def __init__(self, key: str, reason: str, line: Optional[int] = None):
        self.key = key
        self.reason = reason
        self.line = line
        where = f"line {line}, " if line is not None else ""
        super().__init__(f"config error at {where}key '{key}': {reason}")


@dataclass(frozen=True)
class DispersionBlock:
    alpha: float = 2.0


@dataclass(frozen=True)
class GridBlock:
    n_nodes: int = 64
    omega_max: float = 4.0


@dataclass(frozen=True)
class KernelBlock:
    c_q: float = DEFAULT_C_Q
    cutoff_n: Optional[float] = None  # None means no truncation


@dataclass(frozen=True)
class InitialBlock:
    preset: str = "gaussian_bump"
    center: Optional[float] = None     # gaussian_bump; default omega_max / 2
    width: Optional[float] = None      # default omega_max / 10 (or r-units for ring)
    amplitude: float = 1.0
    r_center: Optional[float] = None   # ring
    path: Optional[str] = None         # file preset


@dataclass(frozen=True)
class IntegratorBlock:
    t_end: float = 1.0
    output_every: float = 0.0
    dt0: Optional[float] = None        # optional ceiling on the adaptive step
    max_steps: Optional[int] = None


@dataclass(frozen=True)
class DiagnosticsBlock:
    band_radii: Tuple[float, ...] = ()
    deltas: Tuple[float, ...] = ()
    test_functions: Tuple[str, ...] = ()


@dataclass(frozen=True)
class OutputBlock:
    dir: Optional[str] = None
    dump_spectrum: bool = False


@dataclass(frozen=True)
class RunConfig:
    dispersion: DispersionBlock = field(default_factory=DispersionBlock)
    grid: GridBlock = field(default_factory=GridBlock)
    kernel: KernelBlock = field(default_factory=KernelBlock)
    initial: InitialBlock = field(default_factory=InitialBlock)
    integrator: IntegratorBlock = field(default_factory=IntegratorBlock)
    diagnostics: DiagnosticsBlock = field(default_factory=DiagnosticsBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    seed: int = 0

    # --- constructors for the run objects ---

    def make_dispersion(self) -> DispersionRelation:
        return DispersionRelation.power_law(self.dispersion.alpha)

    def make_grid(self, d: DispersionRelation) -> OmegaGrid:
        return OmegaGrid(d, self.grid.n_nodes, self.grid.omega_max)

    def make_kernel_weights(self) -> KernelWeights:
        n = self.kernel.cutoff_n
        return KernelWeights(c_q=self.kernel.c_q,
                             cutoff_n=math.inf if n is None else n)

    def make_initial_state(self, grid: OmegaGrid) -> SpectrumState:
        blk = self.initial
        if blk.preset == "gaussian_bump":
            center = blk.center if blk.center is not None else 0.5 * grid.omega_max
            width = blk.width if blk.width is not None else 0.1 * grid.omega_max
            return gaussian_bump(grid, center, width, blk.amplitude)
        if blk.preset == "ring":
            r_center = blk.r_center if blk.r_center is not None else 0.5 * grid.r[-1]
            width = blk.width if blk.width is not None else 0.1 * grid.r[-1]
            return ring_in_r(grid, r_center, width, blk.amplitude)
        if blk.preset == "file":
            return state_from_file(grid, blk.path)
        raise ConfigError("initial.preset", f"unknown preset {blk.preset!r}")

    def make_diagnostics_config(self) -> DiagnosticsConfig:
        return DiagnosticsConfig(
            band_radii=self.diagnostics.band_radii,
            deltas=self.diagnostics.deltas,
            test_functions=test_function_registry(self.diagnostics.test_functions),
        )

    def diagnostic_columns(self) -> Dict[str, List[str]]:
        """The series.csv column names that each diagnostics key adds, in order."""
        blk = self.diagnostics
        return {
            "diagnostics.band_radii": [f"band_energy_R{R:g}" for R in blk.band_radii],
            "diagnostics.deltas": [f"low_mass_d{dd:g}" for dd in blk.deltas],
            "diagnostics.test_functions": [f"production_{t}" for t in blk.test_functions],
        }

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested dict for YAML output; tuples become lists."""
        def plain(x):
            if isinstance(x, dict):
                return {k: plain(v) for k, v in x.items()}
            return list(x) if isinstance(x, tuple) else x
        return plain(asdict(self))


# Value checks by dotted key, applied after type coercion to values that are
# not None.  A message may use {v}, the offending value.
_RANGES = {
    "dispersion.alpha": (
        lambda v: 1.0 < v <= 2.0,
        "must lie in (1, 2], got {v:g}: growth outside that range is not "
        "covered by the supported dispersion class"),
    "grid.n_nodes": (lambda v: v >= 2, "must be >= 2, got {v}"),
    "grid.omega_max": (lambda v: v > 0, "must be positive, got {v:g}"),
    "kernel.c_q": (lambda v: v > 0, "must be positive, got {v:g}"),
    "kernel.cutoff_n": (lambda v: v > 1.0, "must exceed 1, got {v:g}"),
    "initial.preset": (lambda v: v in ("gaussian_bump", "ring", "file"),
                       "unknown preset {v!r} (gaussian_bump, ring, file)"),
    "initial.width": (lambda v: v > 0, "must be positive, got {v:g}"),
    "initial.amplitude": (lambda v: v >= 0, "must be nonnegative"),
    "integrator.t_end": (lambda v: v >= 0, "must be nonnegative, got {v:g}"),
    "integrator.output_every": (lambda v: v >= 0, "must be nonnegative"),
    "integrator.dt0": (lambda v: v > 0, "must be positive"),
    "integrator.max_steps": (lambda v: v >= 1, "must be >= 1"),
    "diagnostics.band_radii": (lambda v: all(x > 0 for x in v),
                               "radii must be positive"),
    "diagnostics.deltas": (lambda v: all(x >= 0 for x in v), "must be nonnegative"),
    "seed": (lambda v: 0 <= v <= 2 ** 64 - 1,
             "must fit in an unsigned 64-bit integer"),
}


# --- YAML parsing with line tracking -----------------------------------------


def _load_yaml(text: str) -> Tuple[Any, Dict[str, int]]:
    """Parse text once: its value, and dotted key paths -> 1-based lines.

    Duplicate keys are rejected from the composed node tree, before its value
    is constructed exactly as ``yaml.safe_load`` would.
    """
    lines: Dict[str, int] = {}

    def walk(n, prefix: str) -> None:
        if isinstance(n, yaml.MappingNode):
            seen = set()
            for key_node, value_node in n.value:
                key = str(key_node.value)
                path = f"{prefix}.{key}" if prefix else key
                if key in seen:
                    raise ConfigError(path, "duplicate key",
                                      key_node.start_mark.line + 1)
                seen.add(key)
                lines[path] = key_node.start_mark.line + 1
                walk(value_node, path)

    try:
        loader = yaml.SafeLoader(text)
        node = loader.get_single_node()
        if node is None:
            return None, lines
        walk(node, "")
        return loader.construct_document(node), lines
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError("<document>", f"not valid YAML: {exc}", line) from exc


# YAML 1.1 reads an exponent literal as a string unless its mantissa has a dot
# and its exponent a sign (1e4 and 1.0e4 are strings, 1.0e+4 is a float); a
# numeric key takes such a string as the number it spells
_EXPONENT_LITERAL = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _scalar(tp: type, value: Any, path: str, line: Optional[int]) -> Any:
    """Coerce one YAML scalar to bool, str, int or float, or raise."""
    if tp in (int, float) and isinstance(value, str) and _EXPONENT_LITERAL.fullmatch(value):
        value = float(value)
    if tp is bool:
        if isinstance(value, bool):
            return value
        expected = "true/false"
    elif tp is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        expected = "a number"
    elif (tp is float or isinstance(value, float)) and not abs(value) <= sys.float_info.max:
        expected = "a finite number"  # NaN, +-inf, or an integer past the float range
    elif tp is float:
        return float(value)
    elif isinstance(value, int) or value.is_integer():
        return int(value)
    else:
        expected = "an integer"
    raise ConfigError(path, f"expected {expected}, got {value!r}", line)


def _coerce(tp: Any, value: Any, path: str, lines: Dict[str, int]) -> Any:
    """Check one value against a field type: block, Optional, tuple or scalar."""
    line = lines.get(path)
    if is_dataclass(tp):
        if value is None:
            value = {}
        if not isinstance(value, dict):
            raise ConfigError(path, "expected a mapping", line)
        return _parse_block(tp, value, path, lines)
    if get_origin(tp) is Union:  # Optional[X]
        if value is None:
            return None
        return _coerce(get_args(tp)[0], value, path, lines)
    if get_origin(tp) is tuple:  # Tuple[X, ...]
        if value is None:
            return ()
        if not isinstance(value, list):
            raise ConfigError(path, "expected a list", line)
        return tuple(_scalar(get_args(tp)[0], v, path, line) for v in value)
    return _scalar(tp, value, path, line)


def _parse_block(cls: type, data: Dict, prefix: str, lines: Dict[str, int]) -> Any:
    """Build dataclass ``cls`` from a mapping; absent keys keep their defaults."""
    hints = get_type_hints(cls)
    for key in data:
        if key not in hints:
            path = f"{prefix}.{key}" if prefix else str(key)
            raise ConfigError(
                path, f"unknown key (allowed: {', '.join(sorted(hints))})",
                lines.get(path),
            )
    values = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        path = f"{prefix}.{f.name}" if prefix else f.name
        value = _coerce(hints[f.name], data[f.name], path, lines)
        check = _RANGES.get(path)
        if check is not None and value is not None and not check[0](value):
            raise ConfigError(path, check[1].format(v=value), lines.get(path))
        values[f.name] = value
    return cls(**values)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config; all fields have defaults."""
    data, lines = _load_yaml(text)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("<document>", "top level must be a mapping", 1)
    cfg = _parse_block(RunConfig, data, "", lines)

    # rules that span keys or defer to another module
    if cfg.initial.preset == "file" and cfg.initial.path is None:
        raise ConfigError("initial.path", "file preset needs a path",
                          lines.get("initial.path") or lines.get("initial.preset"))
    try:
        test_function_registry(cfg.diagnostics.test_functions)
    except ValueError as exc:
        raise ConfigError("diagnostics.test_functions", str(exc),
                          lines.get("diagnostics.test_functions")) from exc
    for key, cols in cfg.diagnostic_columns().items():
        dup = next((c for c in cols if cols.count(c) > 1), None)
        if dup is not None:
            raise ConfigError(key, f"two entries give series.csv the same column {dup!r}",
                              lines.get(key))
    return cfg


def load_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
