"""Named initial-data profiles, nonnegative by construction.

Profiles are specified as strings such as ``constant(1.0)``,
``gaussian-bump(center=0.5, width=0.1, amplitude=1.0, floor=0.0)`` or
``cosine(amplitude=1.0, mode=1, floor=1.0)``.  ``center`` is a fraction of
each axis extent.  ``parse_profile`` owns every rule, so a profile with a
non-finite parameter, or whose minimum would be negative, is rejected before
any grid exists.  ``build_profile`` samples a bump at the cell centres through
``grid.field_from_function`` and a cosine through ``grid.cosine_field``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import Grid, ScalarField, constant_field, cosine_field, field_from_function

_PROFILE_DEFAULTS = {
    "constant": {"value": None},
    "gaussian-bump": {"center": 0.5, "width": 0.1, "amplitude": 1.0, "floor": 0.0},
    "cosine": {"amplitude": 1.0, "mode": 1, "floor": 0.0},
}


def _finite(args: dict[str, float]) -> dict[str, float]:
    """``args``, once each is checked finite: NaN passes the comparisons of
    ``parse_profile``'s rules."""
    for key, value in args.items():
        if not math.isfinite(value):
            raise ConfigError(f"profile parameter {key} must be finite, got {value}")
    return args


def parse_profile(text: str) -> tuple[str, dict[str, float]]:
    """Parse ``name(key=value, ...)``; ``constant`` also accepts one bare value."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ConfigError(f"malformed profile {text!r}; expected name(key=value, ...)")
    name, _, arg_text = text.partition("(")
    name = name.strip()
    if name not in _PROFILE_DEFAULTS:
        raise ConfigError(f"unknown profile {name!r}; known: {sorted(_PROFILE_DEFAULTS)}")
    args = dict(_PROFILE_DEFAULTS[name])
    given = set()
    body = arg_text[:-1].strip()
    if body:
        for part in body.split(","):
            part = part.strip()
            if "=" in part:
                key, _, raw = part.partition("=")
                key = key.strip()
            elif name == "constant" and part:
                key, raw = "value", part
            else:
                raise ConfigError(f"profile argument {part!r} must be key=value")
            if key not in args:
                raise ConfigError(f"profile {name!r} has no parameter {key!r}")
            if key in given:
                raise ConfigError(f"profile {name!r} repeats parameter {key!r}")
            given.add(key)
            try:
                args[key] = float(raw)
            except ValueError:
                raise ConfigError(f"profile parameter {key}={raw.strip()!r} is not a number")
    if name == "constant":
        if args["value"] is None:
            raise ConfigError("constant profile needs a value")
        if args["value"] < 0.0:
            raise ConfigError(f"constant profile must be nonnegative, got {args['value']}")
        return name, _finite(args)
    if name == "cosine" and not (float(args["mode"]).is_integer()
                                 and abs(args["mode"]) < 2.0**63):
        # cosine_field holds modes as 64-bit integers
        raise ConfigError(f"cosine mode must be a finite integer below 2**63 in magnitude, "
                          f"got {args['mode']}")
    floor, amplitude = args["floor"], args["amplitude"]
    if floor < 0.0:
        raise ConfigError(f"profile floor must be nonnegative, got {floor}")
    if name == "gaussian-bump":
        if not args["width"] > 0.0:
            raise ConfigError(f"gaussian-bump width must be positive, got {args['width']}")
        if not 1e-150 <= args["width"] <= 1e150 and math.isfinite(args["width"]):
            # 2 width^2 stays normal and finite: no 0/0 at the center, no float power overflow
            raise ConfigError(f"gaussian-bump width must lie in [1e-150, 1e150], "
                              f"got {args['width']}")
        if floor + min(amplitude, 0.0) < 0.0:
            raise ConfigError("gaussian-bump would go negative (floor + amplitude < 0)")
    elif floor - abs(amplitude) < 0.0:
        raise ConfigError("cosine would go negative (floor < |amplitude|)")
    return name, _finite(args)


def build_profile(grid: Grid, text: str) -> ScalarField:
    name, args = parse_profile(text)
    if name == "constant":
        return constant_field(grid, args["value"])

    floor, amplitude = args["floor"], args["amplitude"]
    with np.errstate(over="ignore"):   # overflow is inf: exp(-inf) = 0, else reported non-finite
        if name == "gaussian-bump":
            def bump(*centers):
                r_sq = sum((x - args["center"] * length) ** 2
                           for x, length in zip(centers, grid.extents))
                return floor + amplitude * np.exp(-r_sq / (2.0 * args["width"]**2))
            return field_from_function(grid, bump)

        # cosine: floor + amplitude * prod_a cos(mode pi x_a / L_a)
        mode = int(args["mode"])
        return ScalarField(grid, floor + cosine_field(grid, [[mode] * grid.dim], [amplitude]).values)


def build_initial_data(grid: Grid, u0_spec: str, v0_spec: str) -> tuple[ScalarField, ScalarField]:
    return build_profile(grid, u0_spec), build_profile(grid, v0_spec)
