"""Strict INI-style run configuration.

Every key has a documented default, so an empty file is a valid config.
Each value, from the file or from a ``--set section.key=value`` override,
passes one check that rejects unknown sections and keys with the same message
(experiment files must not contain silent typos) and converts it with its
kind's entry in one table: ``bool`` takes configparser's eight words, and
``opt_float`` reads ``none`` as None.  Overrides then replace file values
before validation.  This module only translates values into the library
types, which own every rule: the ``[model]``, ``[time]``, ``[monitor]``,
``[oracle]`` and ``[sweep]`` keys are their field names, and a type's error
is reported as ``invalid [section]: ...``.
``auto`` reads as None, for which ``certificates.default_exponents`` chooses
q1, q2 and the certificate p (n+3, (n+3)/2, ceil(p_bar)); it also rejects a
given p below p_bar.  The monitors have no exponent of their own: they
evaluate phi_p at the certificate's p.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .certificates import AuxiliaryExponents, ModelParams, default_exponents
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
        "q1": (_AUTO_FLOAT, None),   # None is "auto": default_exponents chooses
        "q2": (_AUTO_FLOAT, None),
        "p": (_AUTO_FLOAT, None),
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


def _float_or_none(word: str):
    """``float``, except that ``word`` in any case reads as None."""
    return lambda raw: None if raw.lower() == word else float(raw)


# kind -> converter; a ValueError or KeyError rejects the value
_CONVERTERS = {
    _INT: int,
    _FLOAT: float,
    _STR: str,
    _BOOL: lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
    _AUTO_FLOAT: _float_or_none("auto"),
    _OPT_FLOAT: _float_or_none("none"),
}


@dataclass
class SweepSpec:
    mu_lo: float
    mu_hi: float
    bisection_steps: int

    def __post_init__(self):
        if self.mu_lo is None or self.mu_hi is None:
            raise ConfigError("sweep needs both mu_lo and mu_hi")
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


def _keys(section: str) -> dict[str, tuple[str, object]]:
    if section not in _SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    return _SCHEMA[section]


def _convert(section: str, key: str, raw: str):
    """Check that ``[section] key`` exists and convert ``raw`` to the schema's kind."""
    if key not in _keys(section):
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    kind = _SCHEMA[section][key][0]
    convert, raw = _CONVERTERS[kind], raw.strip()
    try:
        return convert(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind}") from None


def _read_values(text: str, overrides: tuple[str, ...],
                 source: str) -> dict[str, dict[str, object]]:
    # No header can name a section "\n", so [DEFAULT] is an ordinary, unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    values = {section: {key: default for key, (_, default) in keys.items()}
              for section, keys in _SCHEMA.items()}
    for section in parser.sections():
        _keys(section)   # an empty section has no key to check
        for key, raw in parser[section].items():
            values[section][key] = _convert(section, key, raw)

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, _, raw = item.partition("=")
        section, _, key = target.strip().partition(".")
        values[section][key] = _convert(section, key, raw)
    return values


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ChemfvError`` reported as ``invalid [section]``."""
    try:
        return make(*args, **kwargs)
    except ChemfvError as exc:
        raise ConfigError(f"invalid [{section}]: {exc}")


def parse_config(text: str, overrides: tuple[str, ...] = (),
                 source: str = "<string>") -> RunConfig:
    """Parse, apply overrides, fill defaults, and validate semantically.

    ``source`` names the text in a parse error, the config file's path for the CLI."""
    v = _read_values(text, tuple(overrides), source)
    model = _build("model", ModelParams, **v["model"])

    g = v["grid"]
    if g["dim"] not in (1, 2):
        raise ConfigError(f"invalid [grid]: grid dim must be 1 or 2, got {g['dim']}")
    if model.n != g["dim"]:
        raise ConfigError(f"model n={model.n} must match grid dim={g['dim']}")
    grid = (_build("grid", Grid.line, g["nx"], g["Lx"]) if g["dim"] == 1
            else _build("grid", Grid.rect, g["nx"], g["ny"], g["Lx"], g["Ly"]))

    solver = _build("monitor", replace, _build("time", SolverConfig, **v["time"]), **v["monitor"])

    for which in ("u0", "v0"):
        parse_profile(v["init"][which])  # raises ConfigError on bad profiles

    k1_literal = v["certificate"].pop("k1-literal")
    exponents = _build("certificate", default_exponents, model, **v["certificate"])

    oracle = _build("oracle", OracleConfig, grid=grid, **v["oracle"])

    sweep = (None if v["sweep"]["mu_lo"] is None and v["sweep"]["mu_hi"] is None
             else _build("sweep", SweepSpec, **v["sweep"]))

    return RunConfig(
        model=model, grid=grid, solver=solver,
        u0_spec=v["init"]["u0"], v0_spec=v["init"]["v0"],
        out_dir=v["output"]["dir"],
        exponents=exponents, k1_literal=k1_literal,
        oracle=oracle, sweep=sweep,
    )
