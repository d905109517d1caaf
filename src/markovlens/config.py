"""Declarative JSON configuration: schema validation and construction of
families, grids and task options."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from importlib import resources

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match

from . import signals
from .divisibility import TimeGrid, VerdictTolerances
from .dynamics import (
    MapFamily,
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
)
from .errors import ConfigError

PRESETS = ("amplitude_damping", "pauli_channel", "equilibrium_relaxation")
DEFAULT_N_POINTS = 400


@functools.cache
def _validator(name: str) -> jsonschema.protocols.Validator:
    """The shipped schema's validator, built once per process. The schema's own
    metaschema check runs in the test suite, since only shipped files come here."""
    schema = json.loads(resources.files("markovlens.schemas").joinpath(name).read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def matrix_from_json(rows) -> np.ndarray:
    """Complex matrix from row-major nested [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested [re, im] pairs (language-neutral, lossless)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def signal_from_json(spec: dict) -> signals.ScalarSignal:
    kind = spec["kind"]
    try:
        if kind == "constant":
            return signals.constant(spec["value"])
        if kind == "exp_decay":
            return signals.exp_decay(spec["rate"])
        if kind == "cosine_clipped":
            return signals.cosine_clipped(spec["omega"], spec["t_star"])
        if kind == "sinusoidal":
            return signals.sinusoidal(spec["amplitude"], spec["omega"],
                                      spec.get("phase", 0.0), spec.get("offset", 0.0))
        if kind == "inverse_gap":
            return signals.inverse_gap(spec["t1"])
        if kind == "piecewise_linear":
            return signals.piecewise_linear(spec["knots"])
    except KeyError as exc:
        raise ConfigError(f"signal kind {kind!r} is missing parameter {exc}") from exc
    raise ConfigError(f"unknown signal kind {kind!r}")


@dataclass
class AnalysisConfig:
    """Validated analysis request: family, grid, tolerances, tasks and
    per-task options."""

    family_spec: dict
    grid_spec: dict
    tasks: list
    output: str
    tolerances: VerdictTolerances = field(default_factory=VerdictTolerances)
    witness: dict = field(default_factory=dict)
    blp: dict = field(default_factory=dict)
    extend: dict = field(default_factory=dict)

    def build_family(self) -> MapFamily:
        spec = self.family_spec
        params = spec["params"]
        t_max = float(self.grid_spec["t_max"])
        try:
            if spec["preset"] == "amplitude_damping":
                return preset_amplitude_damping(
                    g=_maybe_signal(params, "g"),
                    gamma=_maybe_signal(params, "gamma"),
                    s=_maybe_signal(params, "s"),
                    t_max=t_max)
            if spec["preset"] == "pauli_channel":
                gammas = params.get("gammas")
                lambdas = params.get("lambdas")
                return preset_pauli_channel(
                    gammas=[signal_from_json(s) for s in gammas] if gammas else None,
                    lambdas=[signal_from_json(s) for s in lambdas] if lambdas else None,
                    t_max=t_max)
            if spec["preset"] == "equilibrium_relaxation":
                return preset_equilibrium_relaxation(
                    omega=matrix_from_json(params["omega"]),
                    f=signal_from_json(params["f"]),
                    t_max=t_max)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"invalid family parameters: {exc}") from exc
        raise ConfigError(
            f"unknown preset {spec['preset']!r}; valid presets: {', '.join(PRESETS)}")

    def build_grid(self) -> TimeGrid:
        if "times" in self.grid_spec:
            times = np.asarray(self.grid_spec["times"], dtype=float)
        else:
            n = int(self.grid_spec.get("n_points", DEFAULT_N_POINTS))
            times = np.linspace(0.0, float(self.grid_spec["t_max"]), n)
        try:
            return TimeGrid(times=times)
        except ValueError as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc


def _maybe_signal(params: dict, key: str) -> signals.ScalarSignal | None:
    return signal_from_json(params[key]) if params.get(key) is not None else None


def load_config(path: str) -> AnalysisConfig:
    """Read, schema-validate (unknown keys rejected) and assemble a config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> AnalysisConfig:
    # the error jsonschema.validate raises, from the cached validator
    exc = best_match(_validator("config.schema.json").iter_errors(raw))
    if exc is not None:
        hint = ""
        if list(exc.absolute_path)[:1] == ["family"] and "preset" in str(exc.message):
            hint = f" (valid presets: {', '.join(PRESETS)})"
        raise ConfigError(
            f"config validation failed at {'/'.join(str(p) for p in exc.absolute_path) or '<root>'}: "
            f"{exc.message}{hint}") from exc

    try:
        tols = VerdictTolerances(**{k: float(v) for k, v in raw.get("tolerances", {}).items()})
    except ValueError as exc:  # names the key: NaN and Infinity pass the schema's "number"
        raise ConfigError(f"tolerances.{exc}") from exc
    # the schema's "integer" admits integral floats such as 4.0; witness_scan takes ints
    witness = {k: v if k == "ancilla_kind" else int(v) for k, v in raw.get("witness", {}).items()}
    if "seed" in witness:
        tols = replace(tols, seed=witness["seed"])
    return AnalysisConfig(
        family_spec=raw["family"],
        grid_spec=raw["grid"],
        tasks=list(raw["tasks"]),
        output=raw["output"],
        tolerances=tols,
        witness=witness,
        blp=dict(raw.get("blp", {})),
        extend=dict(raw.get("extend", {})),
    )


def validate_verdict_report(report: dict) -> None:
    """Validate a verdict report against the shipped schema (raises on failure)."""
    error = best_match(_validator("verdict.schema.json").iter_errors(report))
    if error is not None:
        raise error
