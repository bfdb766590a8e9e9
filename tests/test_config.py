"""Strict config parsing: defaults, auto resolution, overrides, rejection paths."""
from __future__ import annotations

import numpy as np
import pytest

from chemfv import ConfigError, Grid
from chemfv.config import parse_config
from chemfv.initial import build_profile


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
        assert cfg.monitor.p == 3.0
        assert cfg.k1_literal is True
        assert cfg.grid == Grid.line(128, 1.0)

    def test_auto_p_follows_model(self):
        cfg = parse_config("[model]\nn = 2\nm = 1.0\nalpha = 0.0\n[grid]\ndim = 2\n")
        assert cfg.exponents.q1 == 5.0
        assert cfg.exponents.q2 == 2.5
        # p_bar = max{0, 2.5, 2, 2.5, -10, -5} + 1 = 3.5 -> ceil = 4
        assert cfg.exponents.p == 4.0


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

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[modle]\nmu = 1\n")

    def test_parse_error_carries_line_number(self):
        try:
            parse_config("[model]\nmu = 1\nthis line has no equals sign\n")
        except ConfigError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected ConfigError")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="not a valid float"):
            parse_config("[model]\nmu = soon\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="must match grid dim"):
            parse_config("[model]\nn = 2\n")

    def test_p_below_p_bar(self):
        with pytest.raises(ConfigError, match="below the minimal admissible"):
            parse_config("[certificate]\np = 2.0\n")

    def test_sweep_needs_both_bounds(self):
        with pytest.raises(ConfigError, match="both mu_lo and mu_hi"):
            parse_config("[sweep]\nmu_lo = 0.1\n")

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

    def test_override_shape(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_config("", overrides=("mu=1",))

    def test_k1_literal_key(self):
        cfg = parse_config("[certificate]\nk1-literal = false\n")
        assert cfg.k1_literal is False


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

    def test_malformed_profiles(self):
        g = Grid.line(8, 1.0)
        with pytest.raises(ConfigError):
            build_profile(g, "constant")
        with pytest.raises(ConfigError):
            build_profile(g, "cosine(amplitude=x, mode=1, floor=0)")
        with pytest.raises(ConfigError):
            build_profile(g, "cosine(wibble=1)")
