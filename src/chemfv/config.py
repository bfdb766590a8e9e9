"""Strict INI-style run configuration.

Every key has a documented default, so an empty file is a valid config;
unknown sections or keys are rejected outright (experiment files must not
contain silent typos).  ``--set section.key=value`` overrides are applied
before validation.  This module only translates values into the library
types, which own every rule.  Values marked ``auto`` resolve from the model:
q1, q2 and the certificate p through ``certificates.default_exponents``
(n+3, (n+3)/2, ceil(p_bar)).  The monitors have no exponent of their own:
they evaluate phi_p at the certificate's p.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .certificates import AuxiliaryExponents, ModelParams, compute_p_bar, default_exponents
from .errors import ChemfvError, ConfigError
from .grid import Grid
from .initial import parse_profile
from .oracle import OracleConfig
from .solver import SolverConfig

_INT, _FLOAT, _BOOL, _STR, _AUTO_FLOAT, _OPT_FLOAT = "int", "float", "bool", "str", "auto_float", "opt_float"

_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "model": {
        "n": (_INT, 1),
        "m": (_FLOAT, 1.0),
        "alpha": (_FLOAT, 0.0),
        "k": (_FLOAT, 0.0),
        "mu": (_FLOAT, 1.0),
        "chi0": (_FLOAT, 1.0),
        "a": (_FLOAT, 0.0),
    },
    "grid": {
        "dim": (_INT, 1),
        "nx": (_INT, 128),
        "ny": (_INT, 128),
        "Lx": (_FLOAT, 1.0),
        "Ly": (_FLOAT, 1.0),
    },
    "time": {
        "t_end": (_FLOAT, 1.0),
        "safety": (_FLOAT, 0.4),
        "dt_min": (_FLOAT, 1e-12),
        "u_max": (_FLOAT, 1e6),
        "max_steps": (_INT, 50_000_000),
    },
    "init": {
        "u0": (_STR, "constant(1.0)"),
        "v0": (_STR, "constant(1.0)"),
    },
    "monitor": {
        "cadence_steps": (_INT, 10),
        "cadence_time": (_OPT_FLOAT, None),
    },
    "output": {
        "dir": (_STR, "."),
    },
    "certificate": {
        "q1": (_AUTO_FLOAT, "auto"),
        "q2": (_AUTO_FLOAT, "auto"),
        "p": (_AUTO_FLOAT, "auto"),
        "k1-literal": (_BOOL, True),
    },
    "oracle": {
        "trials": (_INT, 1000),
        "seed": (_INT, 12345),
        "q": (_FLOAT, 1.0),
        "num_modes": (_INT, 8),
    },
    "sweep": {
        "mu_lo": (_OPT_FLOAT, None),
        "mu_hi": (_OPT_FLOAT, None),
        "bisection_steps": (_INT, 8),
    },
}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


@dataclass
class SweepSpec:
    mu_lo: float
    mu_hi: float
    bisection_steps: int

    def __post_init__(self):
        if not (0.0 < self.mu_lo < math.inf and 0.0 < self.mu_hi < math.inf):
            raise ConfigError(f"sweep bounds must be positive and finite, "
                              f"got mu_lo={self.mu_lo}, mu_hi={self.mu_hi}")
        if not self.mu_lo < self.mu_hi:
            raise ConfigError("sweep requires mu_lo < mu_hi")
        if self.bisection_steps < 1:
            raise ConfigError("bisection_steps must be >= 1")


@dataclass
class RunConfig:
    model: ModelParams
    grid: Grid
    solver: SolverConfig
    u0_spec: str
    v0_spec: str
    out_dir: str
    exponents: AuxiliaryExponents
    k1_literal: bool
    oracle: OracleConfig
    sweep: SweepSpec | None


def _convert(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _STR:
            return raw
        if kind == _BOOL:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        if kind == _AUTO_FLOAT:
            return "auto" if raw.lower() == "auto" else float(raw)
        if kind == _OPT_FLOAT:
            return None if raw.lower() == "none" else float(raw)
    except ValueError:
        pass
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind}")


def _read_values(text: str, overrides: tuple[str, ...]) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigError(f"config parse error: {exc}", line=line)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    values: dict[str, dict[str, object]] = {s: dict() for s in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _convert(section, key, _SCHEMA[section][key][0], raw)

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, _, raw = item.partition("=")
        section, _, key = target.strip().partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"override targets unknown key [{section}] {key}")
        values[section][key] = _convert(section, key, _SCHEMA[section][key][0], raw)

    for section, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            values[section].setdefault(key, default)
    return values


def parse_config(text: str, overrides: tuple[str, ...] = ()) -> RunConfig:
    """Parse, apply overrides, fill defaults, and validate semantically."""
    v = _read_values(text, tuple(overrides))

    try:
        model = ModelParams(
            n=v["model"]["n"], m=v["model"]["m"], alpha=v["model"]["alpha"],
            k=v["model"]["k"], mu=v["model"]["mu"], chi0=v["model"]["chi0"], a=v["model"]["a"],
        )
    except ChemfvError as exc:
        raise ConfigError(f"invalid [model]: {exc}")

    dim = v["grid"]["dim"]
    if dim not in (1, 2):
        raise ConfigError(f"grid dim must be 1 or 2, got {dim}")
    if model.n != dim:
        raise ConfigError(f"model n={model.n} must match grid dim={dim}")
    try:
        if dim == 1:
            grid = Grid.line(v["grid"]["nx"], v["grid"]["Lx"])
        else:
            grid = Grid.rect(v["grid"]["nx"], v["grid"]["ny"],
                             v["grid"]["Lx"], v["grid"]["Ly"])
    except ChemfvError as exc:
        raise ConfigError(f"invalid [grid]: {exc}")

    cadence_steps = v["monitor"]["cadence_steps"]
    cadence_time = v["monitor"]["cadence_time"]
    if cadence_time is not None:
        cadence_steps = None
    try:
        solver = SolverConfig(
            t_end=v["time"]["t_end"], safety=v["time"]["safety"],
            dt_min=v["time"]["dt_min"], u_max=v["time"]["u_max"],
            max_steps=v["time"]["max_steps"],
            output_every_steps=cadence_steps, output_every_time=cadence_time,
        )
    except ChemfvError as exc:
        raise ConfigError(f"invalid [time]: {exc}")

    for which in ("u0", "v0"):
        parse_profile(v["init"][which])  # raises ConfigError on bad profiles

    q1, q2, p_cert = (None if v["certificate"][key] == "auto" else v["certificate"][key]
                      for key in ("q1", "q2", "p"))
    try:
        exponents = default_exponents(model, q1, q2, p_cert)
        p_bar = compute_p_bar(model.n, model.m, model.alpha, exponents.q1, exponents.q2)
    except ChemfvError as exc:
        raise ConfigError(f"invalid [certificate]: {exc}")
    if exponents.p < p_bar:
        raise ConfigError(
            f"certificate p={exponents.p} is below the minimal admissible exponent {p_bar}"
        )

    try:
        oracle = OracleConfig(
            grid=grid, trials=v["oracle"]["trials"], seed=v["oracle"]["seed"],
            q=v["oracle"]["q"], num_modes=v["oracle"]["num_modes"],
        )
    except ChemfvError as exc:
        raise ConfigError(f"invalid [oracle]: {exc}")

    sweep = None
    if v["sweep"]["mu_lo"] is not None or v["sweep"]["mu_hi"] is not None:
        if v["sweep"]["mu_lo"] is None or v["sweep"]["mu_hi"] is None:
            raise ConfigError("sweep needs both mu_lo and mu_hi")
        sweep = SweepSpec(v["sweep"]["mu_lo"], v["sweep"]["mu_hi"],
                          v["sweep"]["bisection_steps"])

    return RunConfig(
        model=model, grid=grid, solver=solver,
        u0_spec=v["init"]["u0"], v0_spec=v["init"]["v0"],
        out_dir=v["output"]["dir"],
        exponents=exponents, k1_literal=v["certificate"]["k1-literal"],
        oracle=oracle, sweep=sweep,
    )
