"""Monitor quantities, violation flags and the phi trend heuristic."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chemfv import (AuxiliaryExponents, CorruptionError, DomainError, Grid,
                    ModelParams, MonitorConfig, MonitorRecord, ScalarField,
                    SimState, SolverConfig, constant_field, evaluate_certificate,
                    field_from_function, phi, phi_trend, record, run)
import chemfv.monitors
from chemfv.monitors import gradv_l2sq


def make_cert(mu=2.0, k=1.0, chi0=1.0, v0_sup=1.0, u0_mass=0.1,
              gradv0_l2sq=0.0, domain_volume=1.0):
    params = ModelParams(n=1, m=1.0, alpha=0.0, k=k, mu=mu, chi0=chi0, a=1.0, b=2.0)
    exps = AuxiliaryExponents(4.0, 2.0, 3.0)
    return evaluate_certificate(params, exps, v0_sup, u0_mass=u0_mass,
                                gradv0_l2sq=gradv0_l2sq, domain_volume=domain_volume)


class TestPhi:
    def test_flat_state_unit_domain(self):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 2.0))
        assert phi(state, 3.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_chi0_keeps_only_u_term(self):
        g = Grid.line(32, 1.0)
        state = SimState(0.0, constant_field(g, 1.0),
                         field_from_function(g, lambda x: np.cos(np.pi * x)))
        assert phi(state, 2.0, 0.0) == pytest.approx(4.0, rel=1e-14)

    def test_u_term_value(self):
        g = Grid.line(16, 2.0)
        state = SimState(0.0, constant_field(g, 1.0), constant_field(g, 0.0))
        assert phi(state, 3.0, 1.0) == pytest.approx(16.0, rel=1e-14)  # 2 * 2^3

    def test_p_below_one_rejected(self):
        g = Grid.line(8, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 0.0))
        with pytest.raises(DomainError):
            phi(state, 0.5, 1.0)

    def test_overflow_is_corruption(self):
        g = Grid.line(8, 1.0)
        state = SimState(0.0, constant_field(g, 1e300), constant_field(g, 0.0))
        with pytest.raises(CorruptionError):
            phi(state, 4.0, 1.0)


class TestRecord:
    def test_clean_state_has_no_violations(self):
        g = Grid.line(16, 1.0)
        cert = make_cert()
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        rec = record(state, 0.0, cert, MonitorConfig(p=3.0))
        assert rec.violations == []
        assert rec.mass_u == 0.0
        assert rec.sup_v == 1.0
        assert rec.gradv_l2sq == 0.0

    def test_mass_violation_flagged(self):
        g = Grid.line(16, 1.0)
        cert = make_cert(mu=2.0, k=0.0, u0_mass=0.1)  # m_mass = 0.1
        state = SimState(0.0, constant_field(g, 0.5), constant_field(g, 1.0))
        rec = record(state, 1e-3, cert, MonitorConfig(p=3.0))
        names = [v.bound_name for v in rec.violations]
        assert names == ["mass"]
        assert rec.violations[0].observed == pytest.approx(0.5)
        assert rec.violations[0].bound_value == pytest.approx(0.1)

    def test_negative_u_flagged(self):
        g = Grid.line(16, 1.0)
        cert = make_cert()
        values = np.zeros(16)
        values[3] = -1e-3
        state = SimState(0.0, ScalarField(g, values), constant_field(g, 1.0))
        rec = record(state, 0.0, cert, MonitorConfig(p=3.0))
        assert "min_u" in [v.bound_name for v in rec.violations]

    def test_sup_v_violation_flagged(self):
        g = Grid.line(16, 1.0)
        cert = make_cert(v0_sup=0.5)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        rec = record(state, 0.0, cert, MonitorConfig(p=3.0))
        assert [v.bound_name for v in rec.violations] == ["sup_v"]

    def test_tolerance_is_relative(self):
        g = Grid.line(16, 1.0)
        cert = make_cert(mu=2.0, k=0.0, u0_mass=1.0)  # m_mass = 1.0
        state = SimState(0.0, constant_field(g, 1.04), constant_field(g, 1.0))
        rec = record(state, 0.0, cert, MonitorConfig(p=3.0, tol_mass=5e-2))
        assert rec.violations == []  # 1.04 <= 1.0 * 1.05


    def test_one_gradient_per_record(self, monkeypatch):
        g = Grid.rect(12, 10, 1.0, 1.0)
        u = field_from_function(g, lambda x, y: 0.2 + 0.1 * np.cos(np.pi * x))
        v = field_from_function(g, lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
        state = SimState(0.0, u, v)
        cert = make_cert()
        cfg = MonitorConfig(p=2.5)
        calls = []
        real = chemfv.monitors.gradient_cells
        monkeypatch.setattr(chemfv.monitors, "gradient_cells",
                            lambda f: calls.append(f) or real(f))
        rec = record(state, 1e-3, cert, cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        assert rec.gradv_l2sq == gradv_l2sq(v)
        assert rec.phi_p == phi(state, 2.5, cert.params.chi0)


class TestGradEnergy:
    def test_cosine_value(self):
        g = Grid.line(256, 1.0)
        v = field_from_function(g, lambda x: np.cos(np.pi * x))
        # int_0^1 pi^2 sin^2(pi x) = pi^2 / 2, up to O(h^2)
        assert gradv_l2sq(v) == pytest.approx(math.pi**2 / 2.0, rel=1e-3)


class TestPhiTrend:
    def _records(self, values):
        return [MonitorRecord(t=float(i), mass_u=0.0, sup_u=0.0, min_u=0.0,
                              sup_v=0.0, gradv_l2sq=0.0, phi_p=v, dt=1e-3)
                for i, v in enumerate(values)]

    def test_decreasing_is_bounded(self):
        trend = phi_trend(self._records([10.0, 8.0, 5.0, 3.0, 2.0, 1.5, 1.2, 1.1]))
        assert trend.bounded
        assert trend.sup_phi == 10.0
        assert trend.t_of_sup == 0.0

    def test_terminal_geometric_growth_is_unbounded(self):
        trend = phi_trend(self._records([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0]))
        assert not trend.bounded

    def test_plateau_is_bounded(self):
        trend = phi_trend(self._records([2.0] * 12))
        assert trend.bounded

    def test_needs_two_records(self):
        with pytest.raises(DomainError):
            phi_trend(self._records([1.0]))


class TestRunLevelInvariants:
    def test_sup_v_nonincreasing_and_mass_constant(self):
        g = Grid.line(64, 1.0)
        params = ModelParams(n=1, m=1.0, alpha=0.0, k=0.0, mu=1e-20, chi0=0.0,
                             a=0.0, b=2.0)
        u0 = field_from_function(g, lambda x: 0.2 + 0.2 * np.cos(np.pi * x))
        v0 = field_from_function(g, lambda x: 0.5 + 0.5 * np.cos(np.pi * x))
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        cert = evaluate_certificate(params, exps, v0_sup=float(v0.values.max()),
                                    u0_mass=0.2, domain_volume=1.0)
        cfg = MonitorConfig(p=3.0)
        records = []
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=0.2, output_every_steps=100),
                     lambda s, dt: records.append(record(s, dt, cert, cfg)))
        assert result.status == "completed"
        assert all(r.violations == [] for r in records)
        masses = np.array([r.mass_u for r in records])
        assert np.abs(masses - masses[0]).max() <= 1e-12 * masses[0]
        sups = [r.sup_v for r in records]
        for prev, cur in zip(sups, sups[1:]):
            assert cur <= prev * (1.0 + 1e-10)
