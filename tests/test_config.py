"""Strict config parsing: defaults, auto resolution, overrides, rejection paths."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemfv import ConfigError, Grid, default_exponents
from chemfv.config import parse_config
from chemfv.initial import build_profile, parse_profile, profile_sup
from chemfv.oracle import OracleConfig


class TestDefaults:
    def test_empty_config_is_fully_defaulted(self):
        cfg = parse_config("")
        assert cfg.solver.safety == 0.4
        assert cfg.solver.dt_min == 1e-12
        assert cfg.solver.u_max == 1e6
        assert cfg.model.mu == 1.0
        assert cfg.exponents.q1 == 4.0      # n + 3
        assert cfg.exponents.q2 == 2.0      # (n + 3) / 2
        assert cfg.exponents.p == 3.0       # ceil(p_bar)
        assert cfg.k1_literal is True
        assert cfg.grid == Grid.line(128, 1.0)

    def test_auto_p_follows_model(self):
        cfg = parse_config("[model]\nn = 2\nm = 1.0\nalpha = 0.0\n[grid]\ndim = 2\n")
        assert cfg.exponents.q1 == 5.0
        assert cfg.exponents.q2 == 2.5
        # p_bar = max{0, 2.5, 2, 2.5, -10, -5} + 1 = 3.5 -> ceil = 4
        assert cfg.exponents.p == 4.0

    @pytest.mark.parametrize("section, given", [
        ("", {}),
        ("q1 = 6.0\n", {"q1": 6.0}),
        ("q2 = 3.0\np = 9.0\n", {"q2": 3.0, "p": 9.0}),
    ])
    def test_auto_exponents_are_default_exponents(self, section, given):
        cfg = parse_config(f"[certificate]\n{section}")
        assert cfg.exponents == default_exponents(cfg.model, **given)

    def test_oracle_section_builds_an_oracle_config(self):
        cfg = parse_config("[oracle]\ntrials = 3\nseed = 9\nq = 2.0\nnum_modes = 4\n")
        assert cfg.oracle == OracleConfig(grid=cfg.grid, trials=3, seed=9, q=2.0, num_modes=4)


class TestSemanticErrors:
    def test_alpha_admissibility(self):
        with pytest.raises(ConfigError, match=r"alpha < \(m\+1\)/2"):
            parse_config("[model]\nalpha = 2\nm = 1\n")

    def test_mu_positive(self):
        with pytest.raises(ConfigError, match="mu must be positive"):
            parse_config("[model]\nmu = 0\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[model]\nmuu = 1\n")

    def test_sensitivity_exponent_b_is_not_a_key(self):
        # chi(v) = chi0 / (1 + a v)^2 fixes the sensitivity exponent at 2
        with pytest.raises(ConfigError, match="unknown key 'b'"):
            parse_config("[model]\nb = 2.0\n")
        # nor are the monitor tolerances (the bound slack is a constant and the
        # solver owns the maximum principles), a monitor exponent (phi_p is taken
        # at the certificate's p) or a second switch for --dump-fields
        for section, key, value in (("monitor", "p", "3"),
                                    ("monitor", "tol_mass", "0.05"),
                                    ("monitor", "tol_grad", "0.05"),
                                    ("monitor", "tol_maxprin", "1e-8"),
                                    ("output", "dump_fields", "true")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(f"[{section}]\n{key} = {value}\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[modle]\nmu = 1\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"\[line  3\]"):
            parse_config("[model]\nmu = 1\nthis line has no equals sign\n")

    def test_parse_error_names_its_source(self):
        text = "[model]\nmu = 1\nthis line has no equals sign\n"
        with pytest.raises(ConfigError, match="parsing errors: '<string>'"):
            parse_config(text)
        with pytest.raises(ConfigError, match="parsing errors: 'conf/run.ini'"):
            parse_config(text, source="conf/run.ini")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="not a valid float"):
            parse_config("[model]\nmu = soon\n")

    @pytest.mark.parametrize("override, message", [
        ("grid.nx=12.5", "[grid] nx = '12.5' is not a valid int"),
        ("model.mu= soon ", "[model] mu = 'soon' is not a valid float"),
        ("certificate.k1-literal=maybe", "[certificate] k1-literal = 'maybe' is not a valid bool"),
        ("certificate.p=automatic", "[certificate] p = 'automatic' is not a valid auto_float"),
        ("monitor.cadence_time=never", "[monitor] cadence_time = 'never' is not a valid opt_float"),
    ])
    def test_bad_value_names_its_kind(self, override, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config("", overrides=(override,))

    @pytest.mark.parametrize("word, value", [("1", True), ("Yes", True), ("TRUE", True),
                                             ("on", True), ("0", False), ("no", False),
                                             ("False", False), ("OFF", False)])
    def test_bool_words(self, word, value):
        assert parse_config("", overrides=(f"certificate.k1-literal={word}",)).k1_literal is value

    def test_auto_and_none_ignore_case(self):
        assert (parse_config("", overrides=("certificate.p=AUTO",)).exponents
                == parse_config("").exponents)
        assert parse_config("", overrides=("monitor.cadence_time=None",)).solver.cadence_time is None

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="must match grid dim"):
            parse_config("[model]\nn = 2\n")

    def test_p_below_p_bar(self):
        with pytest.raises(ConfigError, match="below the minimal admissible"):
            parse_config("[certificate]\np = 2.0\n")

    def test_sweep_needs_both_bounds(self):
        with pytest.raises(ConfigError, match="both mu_lo and mu_hi"):
            parse_config("[sweep]\nmu_lo = 0.1\n")

    @pytest.mark.parametrize("bounds", ["mu_lo = 1.0\nmu_hi = inf", "mu_lo = nan\nmu_hi = 2.0"])
    def test_sweep_bounds_finite(self, bounds):
        with pytest.raises(ConfigError, match="sweep bounds must be positive and finite"):
            parse_config(f"[sweep]\n{bounds}\n")

    def test_sweep_ordering(self):
        with pytest.raises(ConfigError, match="mu_lo < mu_hi"):
            parse_config("[sweep]\nmu_lo = 2.0\nmu_hi = 1.0\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_oracle_num_modes_positive(self, value):
        with pytest.raises(ConfigError, match="num_modes must be >= 1"):
            parse_config(f"[oracle]\nnum_modes = {value}\n")

    @pytest.mark.parametrize("value", ["0.5", "0", "nan"])
    def test_oracle_q_at_least_one(self, value):
        with pytest.raises(ConfigError, match="q must be >= 1"):
            parse_config(f"[oracle]\nq = {value}\n")

    @pytest.mark.parametrize("key", ["m", "alpha", "k", "mu", "chi0", "a"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_model_coefficients_finite(self, key, value):
        with pytest.raises(ConfigError, match=rf"invalid \[model\]: {key} must be finite"):
            parse_config(f"[model]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_t_end_finite(self, value):
        with pytest.raises(ConfigError, match=r"invalid \[time\]: t_end must be positive and finite"):
            parse_config(f"[time]\nt_end = {value}\n")

    def test_dt_min_finite(self):
        with pytest.raises(ConfigError, match=r"invalid \[time\]: dt_min must be positive and finite"):
            parse_config("[time]\ndt_min = inf\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_steps_positive(self, value):
        with pytest.raises(ConfigError, match=r"invalid \[time\]: max_steps must be >= 1"):
            parse_config(f"[time]\nmax_steps = {value}\n")

    def test_oracle_trials_positive(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            parse_config("[oracle]\ntrials = 0\n")

    @pytest.mark.parametrize("value", ["1.0", "0.5", "-2.0"])
    def test_explicit_p_at_most_one_rejected(self, value):
        with pytest.raises(ConfigError, match="certificate"):
            parse_config(f"[certificate]\np = {value}\n")

    @pytest.mark.parametrize("profile, message", [
        ("constant(-1)", "constant profile must be nonnegative, got -1.0"),
        ("gaussian-bump(floor=-0.5)", "profile floor must be nonnegative, got -0.5"),
        ("cosine(amplitude=0.0, floor=-0.5)", "profile floor must be nonnegative, got -0.5"),
        ("gaussian-bump(width=0)", "gaussian-bump width must be positive, got 0.0"),
        ("gaussian-bump(width=nan)", "gaussian-bump width must be positive, got nan"),
        ("gaussian-bump(amplitude=-2.0, floor=1.0)",
         r"gaussian-bump would go negative \(floor \+ amplitude < 0\)"),
        ("cosine(amplitude=-2.0, floor=1.0)", r"cosine would go negative \(floor < \|amplitude\|\)"),
        ("constant(nan)", "profile parameter value must be finite, got nan"),
        ("constant(inf)", "profile parameter value must be finite, got inf"),
        ("gaussian-bump(amplitude=nan)", "profile parameter amplitude must be finite, got nan"),
        ("gaussian-bump(amplitude=inf)", "profile parameter amplitude must be finite, got inf"),
        ("gaussian-bump(center=-inf)", "profile parameter center must be finite, got -inf"),
        ("gaussian-bump(width=inf)", "profile parameter width must be finite, got inf"),
        ("gaussian-bump(floor=nan)", "profile parameter floor must be finite, got nan"),
        ("cosine(amplitude=nan, mode=1, floor=1.0)",
         "profile parameter amplitude must be finite, got nan"),
        ("cosine(amplitude=0.5, mode=1, floor=inf)", "profile parameter floor must be finite, got inf"),
    ])
    @pytest.mark.parametrize("which", ["u0", "v0"])
    def test_profile_rules_run_at_parse_time(self, profile, message, which):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(f"[init]\n{which} = {profile}\n")

    @pytest.mark.parametrize("cells, extents", [
        ((8, 8), (1e200, 1e200)),      # both volumes overflow
        ((4, 4), (1e154, 1.9e154)),    # the domain volume alone overflows
    ])
    def test_grid_volumes_finite(self, cells, extents):
        text = (f"[model]\nn = 2\n[grid]\ndim = 2\nnx = {cells[0]}\nny = {cells[1]}\n"
                f"Lx = {extents[0]}\nLy = {extents[1]}\n")
        with pytest.raises(ConfigError,
                           match=r"^invalid \[grid\]: domain and cell volumes must be finite"):
            parse_config(text)

    @pytest.mark.parametrize("mode", ["1.5", "nan", "inf", "-inf", "1e19", "-9.3e18"])
    def test_cosine_mode_must_be_a_finite_integer(self, mode):
        with pytest.raises(ConfigError, match="cosine mode"):
            parse_config(f"[init]\nv0 = cosine(amplitude=0.5, mode={mode}, floor=1.0)\n")


def test_shipped_example_config_parses():
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "configs" / "example.ini").read_text()
    cfg = parse_config(text)
    assert cfg.model.mu == 2100.0
    assert cfg.sweep is not None and cfg.sweep.bisection_steps == 8


class TestOverrides:
    def test_set_overrides_value(self):
        cfg = parse_config("[model]\nmu = 1.0\n", overrides=("model.mu=7.5",))
        assert cfg.model.mu == 7.5

    def test_override_is_validated(self):
        with pytest.raises(ConfigError, match="mu must be positive"):
            parse_config("", overrides=("model.mu=-1",))

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("", overrides=("model.nope=1",))

    @pytest.mark.parametrize("override, message", [
        ("modle.mu=1", r"^unknown config section \[modle\]$"),
        ("model.muu=1", r"^unknown key 'muu' in section \[model\]$"),
    ])
    def test_override_unknown_name_gets_the_files_message(self, override, message):
        with pytest.raises(ConfigError, match=message):
            parse_config("", overrides=(override,))
        section, _, rest = override.partition(".")
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[{section}]\n{rest.replace('=', ' = ')}\n")

    @pytest.mark.parametrize("text", ["[DEFAULT]\nmu = 5\n",
                                      "[DEFAULT]\nmu = 5\n[model]\nk = 1\n",
                                      "[model]\nk = 1\n[DEFAULT]\nmu = 5\n",
                                      "[DEFAULT]\nmu = 5\n[grid]\nnx = 8\n",
                                      "[DEFAULT]\n"])
    def test_default_section_is_an_unknown_section(self, text):
        # configparser's [DEFAULT] would otherwise feed its keys to every section
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
            parse_config(text)

    def test_empty_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown config section \[modle\]$"):
            parse_config("[modle]\n")

    def test_file_values_are_converted_before_overrides(self):
        with pytest.raises(ConfigError, match="not a valid float"):
            parse_config("[model]\nmu = soon\n", overrides=("model.mu=2.0",))

    def test_override_shape(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_config("", overrides=("mu=1",))

    def test_k1_literal_key(self):
        cfg = parse_config("[certificate]\nk1-literal = false\n")
        assert cfg.k1_literal is False


def _ref_gaussian_bump(grid, center, width, amplitude, floor):
    # the bump as build_profile sampled it before it went through field_from_function
    centers = grid.centers()
    r_sq = np.zeros(grid.shape)
    for axis in range(grid.dim):
        c = center * grid.extents[axis]
        r_sq = r_sq + (centers[axis] - c) ** 2
    values = floor + amplitude * np.exp(-r_sq / (2.0 * width**2))
    return np.broadcast_to(values, grid.shape).copy()


@st.composite
def profile_cases(draw):
    """An admissible profile of each kind and a 1D or 2D grid to sample it on."""
    dim = draw(st.sampled_from([1, 2]))
    grid = Grid(tuple(draw(st.integers(4, 40)) for _ in range(dim)),
                tuple(draw(st.floats(1e-3, 1e3)) for _ in range(dim)))
    kind = draw(st.sampled_from(["constant", "gaussian-bump", "cosine"]))
    floor = draw(st.floats(0.0, 10.0))
    if kind == "constant":
        return grid, f"constant({floor!r})"
    if kind == "gaussian-bump":
        center, width = draw(st.floats(-0.5, 1.5)), draw(st.floats(1e-3, 2.0))
        return grid, (f"gaussian-bump(center={center!r}, width={width!r}, "
                      f"amplitude={draw(st.floats(-floor, 10.0))!r}, floor={floor!r})")
    return grid, (f"cosine(amplitude={draw(st.floats(-floor, floor))!r}, "
                  f"mode={draw(st.integers(-9, 9))}, floor={floor!r})")


class TestProfileSup:
    @pytest.mark.parametrize("text, sup", [
        ("constant(0.7)", 0.7),
        ("gaussian-bump(center=0.3, width=0.01, amplitude=1, floor=0.1)", 1.1),
        ("gaussian-bump(amplitude=-0.4, floor=0.5)", 0.5),
        ("cosine(amplitude=-0.3, mode=2, floor=0.5)", 0.8),
        ("cosine(amplitude=-0.3, mode=0, floor=0.5)", 0.2),
    ])
    def test_closed_forms(self, text, sup):
        assert profile_sup(text) == sup

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=profile_cases())
    def test_no_sample_exceeds_it(self, case):
        grid, text = case
        assert profile_sup(text) >= build_profile(grid, text).values.max()


class TestProfiles:
    def test_constant_zero(self):
        g = Grid.line(16, 1.0)
        f = build_profile(g, "constant(0)")
        assert np.all(f.values == 0.0)

    def test_gaussian_bump_peak_at_center(self):
        g = Grid.line(64, 1.0)
        f = build_profile(g, "gaussian-bump(center=0.5, width=0.1, amplitude=2.0, floor=0.5)")
        peak = f.values.max()
        assert peak == pytest.approx(2.5, abs=0.01)  # floor + amplitude near the center cell
        center_cell = np.argmax(f.values)
        assert abs(g.axis_centers(0)[center_cell] - 0.5) <= g.spacing[0]
        assert f.values.min() >= 0.5 - 1e-12

    def test_cosine_range(self):
        g = Grid.line(128, 1.0)
        f = build_profile(g, "cosine(amplitude=1.0, mode=1, floor=1.0)")
        assert f.values.min() >= 0.0
        assert f.values.min() == pytest.approx(0.0, abs=1e-3)   # near x = 1
        assert f.values.max() == pytest.approx(2.0, abs=1e-3)   # near x = 0

    @pytest.mark.parametrize("grid", [Grid.line(37, 2.5), Grid.rect(12, 7, 1.0, 0.6)])
    @pytest.mark.parametrize("mode", [-2, 0, 1, 3, 7, 2**53 + 1])
    @pytest.mark.parametrize("amplitude, floor", [(0.0, 0.0), (0.5, 1.0), (-0.3, 0.3)])
    def test_cosine_profile_is_the_product_of_axis_cosines(self, grid, mode, amplitude, floor):
        # the profile as it was built before it went through grid.cosine_field
        values = np.full(grid.shape, 1.0)
        for axis, centers in enumerate(grid.centers()):
            values = values * np.cos(mode * np.pi * centers / grid.extents[axis])
        f = build_profile(grid, f"cosine(amplitude={amplitude}, mode={mode}, floor={floor})")
        assert f.values.tobytes() == (floor + amplitude * values).tobytes()

    @pytest.mark.parametrize("grid", [Grid.line(37, 2.5), Grid.rect(13, 9, 1.7, 0.6)], ids=str)
    def test_gaussian_bump_keeps_its_bits(self, grid):
        text = "gaussian-bump(center=0.3, width=0.17, amplitude=0.9, floor=0.05)"
        f = build_profile(grid, text)
        assert f.values.tobytes() == _ref_gaussian_bump(grid, 0.3, 0.17, 0.9, 0.05).tobytes()

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            build_profile(Grid.line(8, 1.0), "blob(1.0)")

    def test_negative_combinations_rejected(self):
        g = Grid.line(8, 1.0)
        with pytest.raises(ConfigError, match="negative"):
            build_profile(g, "cosine(amplitude=2.0, mode=1, floor=1.0)")
        with pytest.raises(ConfigError, match="negative"):
            build_profile(g, "gaussian-bump(amplitude=-2.0, floor=1.0)")
        with pytest.raises(ConfigError, match="nonnegative"):
            build_profile(g, "constant(-1.0)")

    def test_2d_profiles(self):
        g = Grid.rect(16, 16, 1.0, 1.0)
        f = build_profile(g, "gaussian-bump(center=0.5, width=0.2, amplitude=1.0, floor=0.0)")
        assert f.values.shape == (16, 16)
        assert f.values.max() <= 1.0 + 1e-12
        cos = build_profile(g, "cosine(amplitude=0.5, mode=1, floor=0.5)")
        assert cos.values.min() >= 0.0

    @pytest.mark.parametrize("text, key", [
        ("constant(1.0, 2.0)", "value"),
        ("constant(value=1, 2)", "value"),
        ("constant(1, value=1)", "value"),
        ("gaussian-bump(width=0.1, width=0.2)", "width"),
        ("cosine(mode=1, amplitude=0.5, mode=2)", "mode"),
    ])
    def test_repeated_parameter_rejected(self, text, key):
        # the last value would otherwise win silently
        with pytest.raises(ConfigError, match=f"^profile '[a-z-]+' repeats parameter '{key}'$"):
            parse_profile(text)

    def test_narrow_bump_is_its_floor_off_the_center_cell(self):
        # r^2 / (2 width^2) overflows off the center, and exp(-inf) = 0
        f = build_profile(Grid.line(129, 1e10),
                          "gaussian-bump(width=1e-150, amplitude=2.0, floor=0.5)")
        assert f.values[64] == 2.5
        assert np.all(np.delete(f.values, 64) == 0.5)

    def test_malformed_profiles(self):
        g = Grid.line(8, 1.0)
        with pytest.raises(ConfigError):
            build_profile(g, "constant")
        with pytest.raises(ConfigError):
            build_profile(g, "cosine(amplitude=x, mode=1, floor=0)")
        with pytest.raises(ConfigError):
            build_profile(g, "cosine(wibble=1)")
