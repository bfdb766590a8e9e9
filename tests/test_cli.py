"""End-to-end CLI behavior: outputs, exit codes 0-4, determinism."""
from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chemfv.certificates
import chemfv.cli
import chemfv.monitors
import chemfv.oracle
import chemfv.solver
from chemfv import ChemfvError, CorruptionError, mu_threshold
from chemfv.cli import CSV_HEADER, main, sweep_report
from chemfv.config import parse_config

BASE_CONFIG = """\
[model]
n = 1
m = 1.0
alpha = 0.0
k = 1.0
mu = 2.0
chi0 = 1.0
a = 1.0

[grid]
dim = 1
nx = 64
Lx = 1.0

[time]
t_end = 0.05

[init]
u0 = gaussian-bump(center=0.5, width=0.05, amplitude=0.4, floor=0.05)
v0 = constant(1.0)

[monitor]
cadence_steps = 50

[output]
dir = .
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


class TestCertify:
    def test_verdict_is_data_not_exit_code(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path, "certificate.json")
        assert report["schema"] == 1
        assert report["satisfied"] is False  # mu = 2 is far below the threshold
        assert report["p_bar"] == 3.0
        assert report["mu_min"] == pytest.approx(1010.9015380635619, rel=1e-12)

    def test_satisfied_with_large_mu(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "model.mu=1200"])
        assert code == 0
        assert read_json(tmp_path, "certificate.json")["satisfied"] is True

    def test_zero_signal(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "init.v0=constant(0.0)", "--set", "model.mu=0.001"])
        assert code == 0
        report = read_json(tmp_path, "certificate.json")
        assert report["mu_min"] == 0.0
        assert report["satisfied"] is True

    def test_verdict_reads_the_profiles_sup(self, tmp_path):
        # the narrow bump's largest sample, about 1.097, would put mu_min near
        # 1754, below mu = 1770; the profile's sup, 1.1, puts it near 1783.3
        example = str(Path(__file__).resolve().parents[1] / "configs" / "example.ini")
        code = main(["certify", "--config", example, "--out", str(tmp_path), "--set",
                     "init.v0=gaussian-bump(center=0.3, width=0.01, amplitude=1, floor=0.1)",
                     "--set", "model.mu=1770"])
        assert code == 0
        report = read_json(tmp_path, "certificate.json")
        assert report["inputs"]["v0_sup"] == 1.1
        assert report["mu_min"] == mu_threshold(3.0, 1, 1.1) == pytest.approx(1783.30, abs=0.01)
        assert report["satisfied"] is False

    @pytest.mark.parametrize("value", ["1.0", "0.0", "-0.0", "0.3"])
    def test_constant_v0_certificate_is_the_sampled_ones(self, tmp_path, monkeypatch, value):
        cfg = write_config(tmp_path)
        argv = ["certify", "--config", cfg, "--set", f"init.v0=constant({value})"]
        assert main(argv + ["--out", str(tmp_path / "profile")]) == 0
        monkeypatch.setattr(chemfv.cli, "profile_sup", lambda text: -math.inf)
        assert main(argv + ["--out", str(tmp_path / "sampled")]) == 0
        assert ((tmp_path / "profile" / "certificate.json").read_bytes()
                == (tmp_path / "sampled" / "certificate.json").read_bytes())

    def test_inadmissible_alpha_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "model.alpha=2.0"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["1.5", "nan", "inf"])
    def test_non_integer_cosine_mode_exits_1(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--set", f"init.v0=cosine(amplitude=0.5, mode={mode}, floor=1.0)"])
        assert code == 1
        assert "error: cosine mode" in capsys.readouterr().err

    def test_overflowing_signal_gradient_is_one_error_line(self, tmp_path, capsys):
        # |grad v|^2 overflows to inf, which the certificate's input check names
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "init.v0=cosine(amplitude=1e160, floor=1e160)"])
        assert code == 1
        assert capsys.readouterr().err == "error: gradv0_l2sq must be finite, got inf\n"

    @pytest.mark.parametrize("command", ["certify", "run", "sweep"])
    def test_overflowing_signal_gradient_is_named_by_every_command(self, command, tmp_path,
                                                                   capsys):
        # every cell of v0 and its sup are finite; the gradient itself overflows
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        out = tmp_path / "out"
        code = main([command, "--config", write_config(tmp_path, text), "--out", str(out),
                     "--set", "grid.nx=4",
                     "--set", "init.v0=cosine(amplitude=0.8e308, mode=1, floor=0.9e308)"])
        assert code == 1
        assert capsys.readouterr().err == "error: gradv0_l2sq must be finite, got inf\n"
        assert not out.exists()

    def test_overflowing_cosine_is_one_error_line(self, tmp_path, capsys):
        # floor + amplitude cos overflows to inf, which the finiteness check reports
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "init.v0=cosine(amplitude=1e308, floor=1e308)"])
        assert code == 1
        assert capsys.readouterr().err == "error: field contains non-finite values\n"

    def test_cosine_on_a_huge_domain_has_finite_phases(self, tmp_path, capsys):
        # k pi x overflows at Lx = 1e308; the field is finite, and the bound
        # |Omega| ||v0||^2 is the one thing that overflows
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "grid.Lx=1e308",
                     "--set", "init.v0=cosine(amplitude=1, mode=1, floor=2)"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: certificate constant M_grad is inf (")

    def test_zero_signal_with_tiny_damping(self, tmp_path):
        # the first term of M_grad is 0 * inf when v0 = 0; it is 0
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "init.v0=constant(0)", "--set", "model.mu=1e-300"])
        assert code == 0
        cert = read_json(tmp_path, "certificate.json")
        assert cert["M_grad"] == cert["inputs"]["gradv0_l2sq"]

    @pytest.mark.parametrize("profile,name", [("u0=constant(1e308)", "u0_mass"),
                                              ("v0=cosine(amplitude=1e153, floor=1e153)",
                                               "gradv0_l2sq")])
    def test_overflowing_integral_is_one_error_line(self, tmp_path, capsys, profile, name):
        # the row sum of finite values passes the float range: the integral is inf
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", f"init.{profile}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {name} must be finite, got inf\n"

    def test_bump_far_out_on_a_huge_domain_is_its_floor(self, tmp_path):
        # each squared distance to the center overflows; exp(-inf) = 0
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "grid.Lx=1e300"])
        assert code == 0

    @pytest.mark.parametrize("width", ["1e-200", "1e200"])
    def test_bump_width_out_of_range_exits_1(self, tmp_path, capsys, width):
        # 2 width^2 underflows to 0 (the exponent divided by 0) or overflows
        out = tmp_path / "out"
        code = main(["certify", "--config", write_config(tmp_path), "--out", str(out),
                     "--set", f"init.u0=gaussian-bump(width={width})"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: gaussian-bump width must lie in [1e-150, 1e150], got {float(width)}\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_domain_volume_exits_1(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
        cfg = write_config(tmp_path, text)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "grid.Lx=1e200",
                     "--set", "grid.Ly=1e200"])
        assert code == 1
        assert ("error: invalid [grid]: domain and cell volumes must be finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "certificate.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])   # certify: above
    def test_overflowing_grid_volume_exits_1_at_parse_time(self, tmp_path, capsys, command):
        text = (BASE_CONFIG.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
                + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy overflow warning either
            code = main([command, "--config", write_config(tmp_path, text), "--out", str(out),
                         "--set", "grid.nx=8", "--set", "grid.ny=8", "--set", "grid.Lx=1e200",
                         "--set", "grid.Ly=1e200"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: invalid [grid]: domain and cell volumes must be finite, got inf and inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "run", "sweep"])
    @pytest.mark.parametrize("override", ["certificate.p=150", "certificate.p=100",
                                          "init.v0=constant(1e200)", "model.mu=1e-310"])
    def test_overflowing_certificate_exits_1(self, tmp_path, capsys, command, override):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        cfg = write_config(tmp_path, text)
        code = main([command, "--config", cfg, "--out", str(tmp_path), "--set", override])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: certificate constant")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    @pytest.mark.parametrize("override,section", [
        ("model.chi0=nan", "model"), ("model.mu=inf", "model"), ("time.t_end=inf", "time"),
        ("time.dt_min=inf", "time")])
    def test_non_finite_coefficient_exits_1(self, tmp_path, capsys, override, section):
        cfg = write_config(tmp_path)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path), "--set", override])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: invalid [{section}]: ")
        assert not (tmp_path / "certificate.json").exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.ini")]) == 1

    @pytest.mark.parametrize("command, override", [
        *((c, "certificate.p=100") for c in ("certify", "run", "sweep")),   # overflows
        *((c, "init.v0=gaussian-bump(width=0)") for c in ("certify", "run", "sweep", "verify")),
        *((c, o) for c in ("certify", "run", "sweep", "verify")
          for o in ("init.u0=constant(nan)", "init.v0=constant(inf)",
                    "init.u0=gaussian-bump(amplitude=nan)",
                    "init.v0=cosine(amplitude=nan, mode=1, floor=1.0)")),   # not finite
    ])
    def test_failed_command_makes_no_output_directory(self, tmp_path, command, override):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        out = tmp_path / "new" / "out"
        code = main([command, "--config", write_config(tmp_path, text), "--out", str(out),
                     "--set", override])
        assert code == 1
        assert not (tmp_path / "new").exists()

    def test_output_directory_is_made_at_the_first_write(self, tmp_path):
        out = tmp_path / "new" / "out"
        assert main(["certify", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json"]


class TestRun:
    def test_clean_run_exit_0(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        csv_lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert csv_lines[0] == CSV_HEADER
        assert csv_lines[0] == "t,mass_u,sup_u,min_u,sup_v,gradv_l2sq,phi_p,dt"
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "completed"
        assert summary["t_end_reached"] is True
        assert summary["violations"] == []
        assert summary["schema"] == 1
        assert summary["certificate"]["m_mass"] == pytest.approx(0.5, rel=1e-2)

    def test_overflowing_sensitivity_denominator_is_silent(self, tmp_path, capsys):
        # (1 + a v_face)^2 overflows at a = 1e300, where chi -> 0 is the right
        # limit; warnings are errors in this suite
        example = str(Path(__file__).resolve().parents[1] / "configs" / "example.ini")
        code = main(["run", "--config", example, "--out", str(tmp_path),
                     "--set", "model.a=1e300", "--set", "time.t_end=0.001"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert read_json(tmp_path, "summary.json")["status"] == "completed"

    def test_pure_heat_mass_conservation(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--set", "model.chi0=0.0", "--set", "model.k=0.0",
                     "--set", "model.mu=1e-20"])
        assert code == 0
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()[1:]
        masses = np.array([float(r.split(",")[1]) for r in rows])
        assert np.abs(masses - masses[0]).max() <= 1e-12 * masses[0]

    def test_repeated_profile_parameter_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path), "--out", str(out),
                     "--set", "init.u0=constant(1.0, 2.0)"])
        assert code == 1
        assert capsys.readouterr().err == "error: profile 'constant' repeats parameter 'value'\n"
        assert not out.exists()

    def test_blowup_threshold_below_initial_sup_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--set", "time.u_max=0.1"])
        assert code == 2
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "blowup_detected"
        assert summary["t_end_reached"] is False

    def test_bound_violation_exits_3(self, tmp_path, monkeypatch):
        # the provable bounds cannot be violated honestly at these resolutions,
        # so shrink the mass bound to drive the full violation path end to end
        monkeypatch.setattr(chemfv.certificates, "mass_bound",
                            lambda k, mu, vol, u0: 1e-6)
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "completed"
        assert summary["violations"]
        assert summary["violations"][0]["bound_name"] == "mass"

    def test_dump_fields(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path), "--dump-fields"])
        assert code == 0
        assert (tmp_path / "u_final.csv").read_text().splitlines()[0] == "1,64,1.0"
        assert (tmp_path / "v_final.csv").exists()

    def test_step_budget_writes_summary_and_exits_1(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path), "--dump-fields",
                     "--set", "time.max_steps=10", "--set", "monitor.cadence_steps=4"])
        assert code == 1
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "step_budget_exceeded"
        assert summary["t_end_reached"] is False
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and len(rows) == 1 + 3   # t = 0, steps 4 and 8
        assert (tmp_path / "u_final.csv").exists()

    def test_phi_overflow_writes_summary_and_exits_1(self, tmp_path):
        # (u+1)^p overflows on the initial state u0 = 1e120, so no record is made
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path), "--dump-fields",
                     "--set", "time.t_end=0.001", "--set", "init.u0=constant(1e120)"])
        assert code == 1
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "corrupted"
        assert summary["reason"] == "phi overflowed (large p on a large state)"
        assert summary["t_end_reached"] is False
        assert (tmp_path / "timeseries.csv").read_text() == CSV_HEADER + "\n"
        assert (tmp_path / "u_final.csv").exists()

    def test_chi0_power_overflow_writes_summary_and_exits_1(self, tmp_path):
        # chi0 * sup v0 = 1 satisfies the certificate, but chi0^(2p) overflows
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--set", "time.t_end=0.001", "--set", "model.chi0=1e60",
                     "--set", "init.v0=constant(1e-60)"])
        assert code == 1
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "corrupted"
        assert summary["reason"] == "phi overflowed (large p on a large state)"
        assert (tmp_path / "timeseries.csv").read_text() == CSV_HEADER + "\n"

    @pytest.mark.parametrize("lx", ["1e-152", "1e-160"])
    def test_tiny_domain_ends_dt_underflow(self, tmp_path, lx):
        # at Lx = 1e-160 the squared cell width underflows to 0
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path), "--set", f"grid.Lx={lx}"])
        assert code == 2
        summary = read_json(tmp_path, "summary.json")
        assert (summary["status"], summary["t_end_reached"]) == ("dt_underflow", False)

    @pytest.mark.parametrize("overrides", [
        ["grid.Lx=1e160"],
        ["grid.Lx=1e160", "model.m=2.0"],
        ["grid.dim=2", "model.n=2", "grid.nx=16", "grid.ny=16", "grid.Lx=1e160"],
    ])
    def test_huge_domain_has_no_diffusive_limit(self, tmp_path, overrides):
        # h^2 overflows on the long axis, which then puts no bound on dt
        sets = overrides + ["init.u0=constant(0.5)"]
        code = main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path)]
                    + [arg for item in sets for arg in ("--set", item)])
        assert code == 0
        assert read_json(tmp_path, "summary.json")["status"] == "completed"

    def test_bump_centered_on_a_cell_with_too_narrow_a_width_exits_1(self, tmp_path, capsys):
        # 129 cells put a cell center on the bump's center, where the exponent was 0/0
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path), "--out", str(out),
                     "--set", "grid.nx=129", "--set", "init.u0=gaussian-bump(width=1e-200)"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: gaussian-bump width must lie in [1e-150, 1e150], got 1e-200\n")
        assert not out.exists()

    def test_corruption_in_the_monitors_keeps_the_earlier_records(self, tmp_path, monkeypatch):
        real_phi, calls = chemfv.monitors.phi, []

        def phi(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise CorruptionError("phi overflowed (large p on a large state)")
            return real_phi(*args, **kwargs)
        monkeypatch.setattr(chemfv.monitors, "phi", phi)
        code = main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path)])
        assert code == 1
        summary = read_json(tmp_path, "summary.json")
        assert (summary["status"], summary["t_end_reached"]) == ("corrupted", False)
        assert summary["reason"].startswith("phi overflowed")
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and len(rows) == 1 + 2   # t = 0 and step 50

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


class TestSweep:
    def test_invalid_bounds_read_like_every_section(self, tmp_path, capsys):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1.0\nmu_hi = 2.0\nbisection_steps = 1\n"
        out = tmp_path / "out"
        code = main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out),
                     "--set", "sweep.mu_lo=5", "--set", "sweep.mu_hi=1"])
        assert code == 1
        assert capsys.readouterr().err == "error: invalid [sweep]: sweep requires mu_lo < mu_hi\n"
        assert not out.exists()

    def test_synthetic_bisection_brackets_frontier(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1.0\nmu_hi = 2.0\nbisection_steps = 3\n"
        cfg = parse_config(text)
        calls = []

        def fake_run(mu):
            calls.append(mu)
            return "completed", mu >= 1.55, False, {}

        report = sweep_report(cfg, run_once=fake_run)
        assert calls[:2] == [1.0, 2.0]
        assert len(calls) == 2 + 3
        # bracket width after 3 bisections of [1, 2] is 0.125
        assert report["mu_empirical_hi"] - report["mu_empirical_lo"] == pytest.approx(0.125)
        assert report["mu_empirical_lo"] < 1.55 <= report["mu_empirical_hi"]

    def test_single_step_probes_midpoint_only(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1.0\nmu_hi = 3.0\nbisection_steps = 1\n"
        cfg = parse_config(text)
        calls = []

        def fake_run(mu):
            calls.append(mu)
            return "completed", mu > 1.5, False, {}

        sweep_report(cfg, run_once=fake_run)
        assert calls == [1.0, 3.0, 2.0]

    def test_no_bracket_skips_bisection(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1.0\nmu_hi = 2.0\nbisection_steps = 5\n"
        cfg = parse_config(text)
        report = sweep_report(cfg, run_once=lambda mu: ("completed", True, False, {}))
        assert len(report["runs"]) == 2
        assert report["mu_empirical_lo"] is None
        assert report["mu_empirical_hi"] == 1.0

    def test_real_sweep_cli(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        cfg = write_config(tmp_path, text)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path, "sweep.json")
        assert report["schema"] == 1
        assert report["sufficiency_contradicted"] is False
        assert all(r["bounded"] for r in report["runs"])

    def test_step_budget_probes_keep_their_status_and_exit_code(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        cfg = write_config(tmp_path, text)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--set", "time.max_steps=5"])
        assert code == 1   # every probe ran out of steps, as when the budget raised
        report = read_json(tmp_path, "sweep.json")
        assert [r["status"] for r in report["runs"]] == ["step_budget_exceeded"] * 2
        assert not any(r["bounded"] for r in report["runs"])
        assert report["all_runs_errored"] is True

    def test_probes_the_monitors_stopped_count_as_errored(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        cfg = write_config(tmp_path, text)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--set", "init.u0=constant(1e120)"])
        assert code == 1   # every probe's phi overflowed, as when the overflow raised
        report = read_json(tmp_path, "sweep.json")
        assert [(r["status"], r["reason"]) for r in report["runs"]] == [
            ("corrupted", "phi overflowed (large p on a large state)")] * 2
        assert not any(r["bounded"] for r in report["runs"])
        assert report["all_runs_errored"] is True

    def test_probes_the_invariant_checks_stopped_count_as_errored(self, tmp_path):
        # the drift takes u below zero within 35 steps, and the positivity check
        # ends both probes corrupted before u grows: a scheme defect, not a
        # verdict, so mu_hi = 1e5 above mu_min (63,966) contradicts nothing
        example = str(Path(__file__).resolve().parents[1] / "configs" / "example.ini")
        code = main(["sweep", "--config", example, "--out", str(tmp_path),
                     "--set", "grid.nx=32",
                     "--set", "init.v0=cosine(amplitude=1, mode=1, floor=1)",
                     "--set", "time.t_end=0.01", "--set", "sweep.mu_hi=1e5",
                     "--set", "sweep.bisection_steps=1"])
        assert code == 1
        report = read_json(tmp_path, "sweep.json")
        assert [r["status"] for r in report["runs"]] == ["corrupted"] * 2
        assert not any("reason" in r for r in report["runs"])
        assert report["mu_min_certificate"] < 1e5
        assert report["sufficiency_contradicted"] is False
        assert report["mu_empirical_lo"] is None and report["mu_empirical_hi"] is None
        assert report["all_runs_errored"] is True

    def test_errored_endpoints_give_no_verdict(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1.0\nmu_hi = 2.0\nbisection_steps = 4\n"
        cfg = parse_config(text)

        def fake_run(mu):   # mu_lo unbounded, mu_hi ran out of steps
            if mu == 2.0:
                return "step_budget_exceeded", False, True, {}
            return "blowup_detected", False, False, {}

        report = sweep_report(cfg, run_once=fake_run)
        assert [r["mu"] for r in report["runs"]] == [1.0, 2.0]   # no bracket, no bisection
        assert report["mu_empirical_lo"] == 1.0
        assert report["mu_empirical_hi"] is None
        assert "all_runs_errored" not in report

        def raising_run(mu):
            if mu == 1.0:
                raise ChemfvError("probe failed")
            return "completed", True, False, {}

        report = sweep_report(cfg, run_once=raising_run)
        assert [r["status"] for r in report["runs"]] == ["error: probe failed", "completed"]
        assert report["mu_empirical_lo"] is None
        assert report["mu_empirical_hi"] == 2.0

    def test_errored_midpoint_stops_bisection(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1.0\nmu_hi = 2.0\nbisection_steps = 5\n"
        cfg = parse_config(text)

        def fake_run(mu):
            if mu == 1.75:
                return "corrupted", False, True, {"reason": "phi overflowed"}
            return "completed", mu >= 1.55, False, {}

        report = sweep_report(cfg, run_once=fake_run)
        assert [r["mu"] for r in report["runs"]] == [1.0, 2.0, 1.5, 1.75]
        assert report["runs"][-1]["reason"] == "phi overflowed"
        assert (report["mu_empirical_lo"], report["mu_empirical_hi"]) == (1.5, 2.0)
        assert report["sufficiency_contradicted"] is False

    def test_step_budget_probes_above_threshold_contradict_nothing(self, tmp_path):
        # mu_min is 1010.9; both probes run out of steps, so neither is a verdict
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 1100\nmu_hi = 1200\n"
        cfg = write_config(tmp_path, text)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--set", "time.max_steps=5"])
        assert code == 1
        report = read_json(tmp_path, "sweep.json")
        assert [r["status"] for r in report["runs"]] == ["step_budget_exceeded"] * 2
        assert report["mu_min_certificate"] < 1100
        assert report["sufficiency_contradicted"] is False
        assert report["mu_empirical_lo"] is None and report["mu_empirical_hi"] is None
        assert report["all_runs_errored"] is True

    def test_missing_sweep_section_exits_1(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestVerify:
    def test_all_oracles_pass_exit_0(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "oracle.trials=50"])
        assert code == 0
        report = read_json(tmp_path, "verify.json")
        assert report["all_passed"] is True
        names = {v["inequality_name"] for v in report["verdicts"]}
        assert names == {"laplacian_vs_hessian", "hessian_gradient_cauchy_schwarz",
                         "gradient_power_hessian", "young_combination", "pbar_relations"}
        assert all(v["passed"] for v in report["verdicts"])
        assert report["gn_empirical_constant"] > 0.0

    @pytest.mark.parametrize("seed_args", [["--set", "oracle.seed=-1"], ["--seed", "-1"]])
    def test_negative_seed_exits_1(self, tmp_path, capsys, seed_args):
        cfg = write_config(tmp_path)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), *seed_args])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed must be >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "verify.json").exists()
        # --seed N is the override oracle.seed=N, so both forms print the same line
        assert err == "error: invalid [oracle]: seed must be >= 0\n"

    def test_seed_flag_applies_after_every_set(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(chemfv.cli, "cmd_verify",
                            lambda cfg, out_dir: seen.append(cfg.oracle.seed) or 0)
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "5",
                     "--set", "oracle.seed=9", "--set", "oracle.seed=11"]) == 0
        assert seen == [5]

    # Each overflows |grad f|^(2q+2): a tiny 1D spacing, a tiny 2D spacing, a large q.
    @pytest.mark.parametrize("dim, overrides, named", [
        (1, ["grid.Lx=1e-200"], "q = 1.0 on grid spacing (1.5625e-202,)"),
        (2, ["grid.nx=16", "grid.ny=16", "grid.Lx=1e-100", "grid.Ly=1e-100"],
         "q = 1.0 on grid spacing (6.25e-102, 6.25e-102)"),
        (1, ["oracle.q=400"], "q = 400.0 on grid spacing (0.015625,)"),
    ])
    def test_gradient_power_overflow_names_the_check(self, tmp_path, capsys, dim, overrides,
                                                     named):
        text = BASE_CONFIG
        if dim == 2:
            text = text.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
        sets = [arg for item in overrides + ["oracle.trials=20"] for arg in ("--set", item)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the error line is all that is printed
            code = main(["verify", "--config", write_config(tmp_path, text), "--out",
                         str(tmp_path / "out"), *sets])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: gradient_power_hessian: |grad f|^(2q+2) or |grad f|^(2q-2) |D2 f|^2 "
            f"is not finite at {named}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", ["init.u0=constant(-1)",
                                          "init.v0=cosine(amplitude=2.0, floor=1.0)"])
    def test_negative_profile_exits_1(self, tmp_path, capsys, override):
        code = main(["verify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "oracle.trials=1", "--set", override])
        assert code == 1
        assert "negative" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_poisoned_d3_exits_4(self, tmp_path, monkeypatch):
        # negative control: a Young defect constant 1.0 too small must fail the verdict
        real = chemfv.oracle.d3_constant

        def poisoned(d1, d2):
            k, d3 = real(d1, d2)
            return k, d3 - 1.0

        monkeypatch.setattr(chemfv.oracle, "d3_constant", poisoned)
        cfg = write_config(tmp_path)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "oracle.trials=10"])
        assert code == 4
        report = read_json(tmp_path, "verify.json")
        assert report["all_passed"] is False

    def test_single_trial_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(out_a),
                     "--set", "oracle.trials=1", "--seed", "7"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out_b),
                     "--set", "oracle.trials=1", "--seed", "7"]) == 0
        assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()

    ORACLE_SETTINGS = ["--set", "oracle.trials=3", "--set", "oracle.q=2.0",
                       "--set", "oracle.num_modes=4"]

    def test_seed_flag_matches_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(out_a),
                     *self.ORACLE_SETTINGS, "--seed", "5"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out_b),
                     *self.ORACLE_SETTINGS, "--set", "oracle.seed=5"]) == 0
        assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()

    def test_seed_flag_keeps_other_oracle_settings(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(chemfv.cli, "cmd_verify",
                            lambda cfg, out_dir: seen.append(cfg.oracle) or 0)
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                     *self.ORACLE_SETTINGS, "--seed", "5"]) == 0
        (oracle,) = seen
        assert (oracle.trials, oracle.seed, oracle.q, oracle.num_modes) == (3, 5, 2.0, 4)

    def test_2d_margins_are_pinned(self, tmp_path):
        # Recorded from the np.pad-based stencils: a change to the grid
        # operators or the trial fields that moves any margin by one ulp fails.
        text = BASE_CONFIG.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
        cfg = write_config(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "7",
                     "--set", "grid.nx=16", "--set", "grid.ny=16",
                     "--set", "oracle.trials=20"]) == 0
        report = read_json(tmp_path, "verify.json")
        margins = {v["inequality_name"]: v["worst_margin"] for v in report["verdicts"]}
        assert margins == {
            "laplacian_vs_hessian": 0.0004015052567783138,
            "hessian_gradient_cauchy_schwarz": 1.0595163226474152e-05,
            "gradient_power_hessian": 0.9318746068718154,
            "young_combination": 0.0,
            "pbar_relations": 0.07432179779609542,
        }
        assert report["gn_empirical_constant"] == 0.6096980284342736

    def test_margins_past_the_gn_field_cap_are_pinned(self, tmp_path):
        # Recorded from the per-oracle loops that each built their own trial
        # fields; 250 trials run past GN_MAX_FIELDS = 200.
        text = BASE_CONFIG.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
        cfg = write_config(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "7",
                     "--set", "grid.nx=8", "--set", "grid.ny=8",
                     "--set", "oracle.trials=250"]) == 0
        report = read_json(tmp_path, "verify.json")
        margins = {v["inequality_name"]: v["worst_margin"] for v in report["verdicts"]}
        assert margins == {
            "laplacian_vs_hessian": 2.8746864476091743e-05,
            "hessian_gradient_cauchy_schwarz": 1.3370228777436822e-06,
            "gradient_power_hessian": 0.7002763404820667,
            "young_combination": 0.0,
            "pbar_relations": 0.07432179779609542,
        }
        assert report["gn_empirical_constant"] == 0.6399593920480326

    def test_each_trial_field_and_operator_is_built_once(self, tmp_path, monkeypatch):
        # 200 cells: stacks of 16384 // 200 = 81 trial fields, the last one short
        stacks, calls = [], []
        real_stack = chemfv.oracle.random_smooth_stack

        def fields(grid, seeds, num_modes):
            stacks.append(real_stack(grid, seeds, num_modes))
            return stacks[-1]
        monkeypatch.setattr(chemfv.oracle, "random_smooth_stack", fields)
        for name in ("hessian", "gradient_cells"):
            def counted(f, _fn=getattr(chemfv.oracle, name), _name=name):
                calls.append((_name, f))
                return _fn(f)
            monkeypatch.setattr(chemfv.oracle, name, counted)
        trials = 250
        assert main(["verify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     "--set", "grid.nx=200", "--set", "oracle.trials=" + str(trials)]) == 0
        assert [len(s.values) for s in stacks] == [81, 81, 81, 7]
        assert sum(len(s.values) for s in stacks) == trials
        assert [(name, id(f)) for name, f in calls] == [
            (name, id(s)) for s in stacks for name in ("hessian", "gradient_cells")]

    def test_nan_margin_exits_4(self, tmp_path, monkeypatch):
        # Both sides of the gradient-power inequality overflow to inf on a
        # long, thin domain of finite volume 1e300; the NaN margin must fail
        # rather than be skipped.  A GN ratio is injected as NaN here, and must
        # reach verify.json as a NaN GN constant; grid.Lx=1e308 makes one NaN
        # unaided (test_huge_domain_fields_are_finite_and_the_gn_constant_is_not).
        real = chemfv.oracle._gn_ratios

        def with_a_nan(ops, theta, count):
            ratios = real(ops, theta, count)
            ratios[-1] = math.nan
            return ratios

        monkeypatch.setattr(chemfv.oracle, "_gn_ratios", with_a_nan)
        text = BASE_CONFIG.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
        cfg = write_config(tmp_path, text)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "grid.Lx=1e-3",
                     "--set", "grid.Ly=1e303", "--set", "oracle.trials=5"])
        assert code == 4
        report = read_json(tmp_path, "verify.json")
        assert report["all_passed"] is False
        power = next(v for v in report["verdicts"]
                     if v["inequality_name"] == "gradient_power_hessian")
        assert math.isnan(power["worst_margin"]) and power["passed"] is False
        assert math.isnan(report["gn_empirical_constant"])

    def test_huge_domain_fields_are_finite_and_the_gn_constant_is_not(self, tmp_path, capsys):
        # k pi x overflows at Lx = 1e308; the trial fields take finite phases,
        # so every verdict passes with no warning.  The GN ratio forms
        # |Omega|-scaled norms before their square roots, which overflow:
        # the constant is NaN and the run exits 4.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--config", write_config(tmp_path), "--out", str(tmp_path),
                         "--set", "grid.Lx=1e308", "--set", "oracle.trials=50"])
        assert code == 4
        assert capsys.readouterr().err == ""
        report = read_json(tmp_path, "verify.json")
        assert all(v["passed"] for v in report["verdicts"])
        assert math.isnan(report["gn_empirical_constant"])


class TestOutputKeys:
    def test_key_sets_of_certificate_verdicts_and_violations(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        cert = read_json(tmp_path, "certificate.json")
        assert set(cert) == {"schema", "p_bar", "p_used", "k1", "k2", "mu_min", "m_mass",
                             "M_grad", "satisfied", "inputs"}
        assert set(cert["inputs"]) == {"model", "exponents", "v0_sup", "u0_mass",
                                       "gradv0_l2sq", "domain_volume", "k1_literal"}
        assert set(cert["inputs"]["model"]) == {"n", "m", "alpha", "k", "mu", "chi0", "a"}
        assert set(cert["inputs"]["exponents"]) == {"q1", "q2", "p"}

        assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--set", "oracle.trials=5"]) == 0
        for verdict in read_json(tmp_path, "verify.json")["verdicts"]:
            assert set(verdict) == {"inequality_name", "trials_run", "worst_margin", "passed",
                                    "slack"}

        # the violation path of test_bound_violation_exits_3
        monkeypatch.setattr(chemfv.certificates, "mass_bound",
                            lambda k, mu, vol, u0: 1e-6)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3
        violation = read_json(tmp_path, "summary.json")["violations"][0]
        assert set(violation) == {"t", "bound_name", "bound_value", "observed"}


class TestExitCodeMapping:
    def test_all_statuses(self):
        from chemfv.cli import _exit_code_for
        assert _exit_code_for("completed", []) == 0
        assert _exit_code_for("completed", [{"bound_name": "mass"}]) == 3
        assert _exit_code_for("blowup_detected", []) == 2
        assert _exit_code_for("dt_underflow", []) == 2  # blow-up surrogate
        assert _exit_code_for("corrupted", []) == 1
        assert _exit_code_for("step_budget_exceeded", []) == 1


class TestConfigErrors:
    @pytest.mark.parametrize("section, overrides, line", [
        ("", ["grid.dim=3", "model.n=3"], "invalid [grid]: grid dim must be 1 or 2, got 3"),
        ("[sweep]\nmu_lo = 1.0\n", [], "invalid [sweep]: sweep needs both mu_lo and mu_hi"),
        ("[sweep]\nmu_hi = 2.0\n", [], "invalid [sweep]: sweep needs both mu_lo and mu_hi"),
        ("", ["monitor.cadence_steps=0"], "invalid [monitor]: cadence_steps must be >= 1"),
        ("", ["monitor.cadence_time=-1"], "invalid [monitor]: cadence_time must be positive"),
        ("", ["monitor.cadence_time=nan"], "invalid [monitor]: cadence_time must be positive"),
        ("", ["monitor.cadence_steps=-5", "monitor.cadence_time=0.01"],
         "invalid [monitor]: cadence_steps must be >= 1"),
        ("", ["certificate.p=2.0"], "invalid [certificate]: certificate p=2.0 is below the "
                                    "minimal admissible exponent 3.0"),
    ])
    def test_single_section_errors_name_the_section(self, tmp_path, capsys, section,
                                                    overrides, line):
        out = tmp_path / "out"
        argv = ["certify", "--config", write_config(tmp_path, BASE_CONFIG + "\n" + section),
                "--out", str(out)]
        code = main(argv + [arg for item in overrides for arg in ("--set", item)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    def test_parse_error_names_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("[model]\nmu = 1\nthis line has no equals sign\n")
        code = main(["certify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == f"error: config parse error: Source contains parsing errors: {str(cfg)!r}"
        assert rest == ["\t[line  3]: 'this line has no equals sign\\n'"]


class TestAdvectiveSkip:
    """The kernel skips its advective speed pass when the march's extrema prove
    that limit cannot set the step; every output must be as if it never did."""

    EXAMPLE = str(Path(__file__).resolve().parents[1] / "configs" / "example.ini")
    COSINE_V0 = "init.v0=cosine(amplitude=0.5, mode=1, floor=1)"
    _2D = ["grid.dim=2", "model.n=2"]

    @staticmethod
    def _outputs(out):
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    @pytest.mark.parametrize("sets", [
        ["time.t_end=0.02"],   # run-1d, shortened
        _2D + ["grid.ny=128", "model.m=1.5", "model.alpha=0.5", "monitor.cadence_steps=1",
               "time.t_end=0.0003"],   # run-2d, shortened
        ["model.mu=0.01", COSINE_V0, "grid.nx=64", "time.t_end=0.2"],
        # the bound fires on 3267 of 4096 steps; the other 829 take the exact pass
        ["model.mu=0.01", "model.chi0=1.5", COSINE_V0, "grid.nx=64", "time.t_end=0.2"],
        _2D + ["grid.nx=32", "grid.ny=24", "model.mu=0.01", "model.m=1.5", "model.alpha=0.5",
               COSINE_V0, "time.t_end=0.02", "monitor.cadence_steps=20"],
    ], ids=["run-1d", "run-2d", "cosine-v0-1d", "cosine-v0-1d-chi0-1.5", "cosine-v0-2d"])
    def test_outputs_match_the_exact_pass(self, tmp_path, monkeypatch, sets):
        argv = ["run", "--config", self.EXAMPLE, "--dump-fields",
                *(arg for item in sets for arg in ("--set", item))]
        assert main(argv + ["--out", str(tmp_path / "skip")]) == 0
        kernel = chemfv.solver._kernel

        def exact_kernel(grid, params):   # inf v "not known": the bound never fires
            s, rates = kernel(grid, params)
            return s, lambda sup_u, sup_v, inf_v: rates(sup_u, sup_v, -math.inf)
        monkeypatch.setattr(chemfv.solver, "_kernel", exact_kernel)
        assert main(argv + ["--out", str(tmp_path / "exact")]) == 0
        skip, exact = self._outputs(tmp_path / "skip"), self._outputs(tmp_path / "exact")
        assert sorted(skip) == ["summary.json", "timeseries.csv", "u_final.csv", "v_final.csv"]
        assert skip == exact

    def test_the_example_march_skips_every_step(self, tmp_path, monkeypatch):
        # Every step reports the bound, below the exact limit, but the first:
        # there the constant v0 makes the bound 0 and both limits inf.
        kernel, limits = chemfv.solver._kernel, []

        def recording_kernel(grid, params):
            s, rates = kernel(grid, params)

            def recorded(sup_u, sup_v, inf_v):
                result = rates(sup_u, sup_v, inf_v)
                limits.append((result[2], rates(sup_u, sup_v)[2]))
                return result
            return s, recorded
        monkeypatch.setattr(chemfv.solver, "_kernel", recording_kernel)
        assert main(["run", "--config", self.EXAMPLE, "--out", str(tmp_path),
                     "--set", "time.t_end=0.02"]) == 0
        assert len(limits) == 1639 and limits[0] == (math.inf, math.inf)
        assert all(bound < exact for bound, exact in limits[1:])


class TestRecordedExtrema:
    """A record takes min_u, sup_u and sup_v from the extrema the march hands
    its hook; each must be that of the state the hook saw."""

    @pytest.mark.parametrize("sets", [
        ["init.u0=constant(0.0)", "monitor.cadence_steps=20"],
        ["grid.dim=2", "model.n=2", "grid.nx=16", "grid.ny=12", "model.chi0=1.5",
         "init.v0=cosine(amplitude=0.5, mode=1, floor=1)", "time.t_end=0.01",
         "monitor.cadence_steps=2"],
    ], ids=["u0-zero-1d", "cosine-v0-2d"])
    def test_csv_extrema_are_the_hooked_states(self, tmp_path, monkeypatch, sets):
        record, hooked = chemfv.monitors.record, []

        def keeping(state, dt, cert, extrema):   # a hooked state is valid during the call only
            hooked.append((state.u.values.copy(), state.v.values.copy()))
            return record(state, dt, cert, extrema)
        monkeypatch.setattr(chemfv.monitors, "record", keeping)
        assert main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path),
                     *(arg for item in sets for arg in ("--set", item))]) == 0
        rows = [dict(zip(CSV_HEADER.split(","), map(float, line.split(","))))
                for line in (tmp_path / "timeseries.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(hooked) > 5
        for row, (u, v) in zip(rows, hooked):
            assert (row["min_u"], row["sup_u"], row["sup_v"]) == (
                float(u.min()), float(u.max()), float(v.max()))


class TestUnwritableOutput:
    def test_out_under_a_file_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["certify", "--config", write_config(tmp_path),
                     "--out", str(blocker / "x")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output:")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("under, expected", [
        (("x",), "[Errno 20] Not a directory: '{out}'"),
        (("x", "y"), "[Errno 20] Not a directory: '{out}'"),
        ((), "[Errno 17] File exists: '{out}'"),
    ], ids=["child", "grandchild", "the-file"])
    def test_unwritable_out_fails_before_the_march(self, tmp_path, capsys, monkeypatch,
                                                   command, under, expected):
        def no_march(*args, **kwargs):
            raise AssertionError("marched before checking --out")

        monkeypatch.setattr(chemfv.cli, "run", no_march)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker.joinpath(*under)
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        code = main([command, "--config", write_config(tmp_path, text), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write output: {expected.format(out=out)}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.ini"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_ancestor_fails_before_the_march(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # root may write anywhere, so the ancestor's permission bits alone
        # cannot show this: os.access reports it unwritable
        def no_march(*args, **kwargs):
            raise AssertionError("marched before checking --out")

        monkeypatch.setattr(chemfv.cli, "run", no_march)
        text = BASE_CONFIG + "\n[sweep]\nmu_lo = 0.5\nmu_hi = 4.0\nbisection_steps = 1\n"
        cfg = write_config(tmp_path, text)
        monkeypatch.setattr(chemfv.cli.os, "access", lambda path, mode: False)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "new" / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write output: [Errno 13] Permission denied: '{tmp_path}'\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


class TestTimeCadence:
    def test_config_time_cadence_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--set", "monitor.cadence_time=0.013"])  # does not divide t_end
        assert code == 0
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert times[0] == 0.0
        assert times[1] == 0.013 and times[2] == 0.026 and times[3] == 0.039
        assert times[-1] == 0.05

    def test_2d_run_end_to_end(self, tmp_path):
        text = BASE_CONFIG.replace("n = 1", "n = 2").replace("dim = 1", "dim = 2")
        text = text.replace("nx = 64", "nx = 24\nny = 24")
        cfg = write_config(tmp_path, text)
        code = main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--set", "time.t_end=0.02", "--dump-fields"])
        assert code == 0
        summary = read_json(tmp_path, "summary.json")
        assert summary["status"] == "completed"
        assert summary["violations"] == []
        assert (tmp_path / "u_final.csv").read_text().splitlines()[0] == "2,24,24,1.0,1.0"


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        # the child imports the same chemfv as this process, installed or not
        src = str(Path(chemfv.certificates.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        proc = subprocess.run(
            [sys.executable, "-m", "chemfv", "certify", "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert '"satisfied"' in proc.stdout


def test_bench_traced_attributes_resolve():
    # The bench tracer wraps these module attributes from outside; a refactor
    # that drops or renames one would make every traced bench child fail.
    path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TRACED
    missing = [f"{module}.{attr}" for module, attr, _ in child.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def load_digest_tool():
    """tools/output_digests.py as a module."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  root / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digests_hash_the_certify_outputs(tmp_path, capsys, monkeypatch):
    # tools/output_digests.py runs the CLI in a subprocess; its certify digest
    # must be that of the exit code, streams and files this process gets
    root = Path(__file__).resolve().parents[1]
    tool = load_digest_tool()
    (tmp_path / "tool").mkdir()
    digest = tool.run_case(root, "certify", tmp_path / "tool")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example.ini").write_bytes((root / "configs" / "example.ini").read_bytes())
    code = main(["certify", "--config", "example.ini", "--out", "out"])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert list(files) == ["certificate.json"]
    assert digest == tool.digest(code, captured.out.encode(), captured.err.encode(), files)


PHI_OVERFLOW = "phi overflowed (large p on a large state)"
DIGEST_RUN_ENDS = {   # digest case -> (status, reason) it is named for
    "run-budget": ("step_budget_exceeded", None),
    "run-blowup-t0": ("blowup_detected", None),
    "run-blowup-march": ("blowup_detected", None),
    "run-dt-underflow": ("dt_underflow", None),
    "run-phi-overflow-t0": ("corrupted", PHI_OVERFLOW),
    "run-phi-overflow-march": ("corrupted", PHI_OVERFLOW),
    "run-cadence-time": ("completed", None),
    "run-nx100-p3.5": ("completed", None),
    "run-cosine-2d-24x20-chi0-2": ("corrupted", None),
}


@pytest.mark.parametrize("name", list(DIGEST_RUN_ENDS))
def test_output_digest_run_cases_end_as_named(name, tmp_path, monkeypatch):
    # a digest case that stopped reaching its terminal path would leave the
    # byte-identity check blind to that path while still comparing equal
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example.ini").write_bytes((root / "configs" / "example.ini").read_bytes())
    main(load_digest_tool().case_argv(name))
    summary = read_json(tmp_path / "out", "summary.json")
    assert (summary["status"], summary.get("reason")) == DIGEST_RUN_ENDS[name]
