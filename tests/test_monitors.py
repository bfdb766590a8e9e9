"""Monitor quantities, violation flags and the phi trend heuristic."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from chemfv import (AuxiliaryExponents, CorruptionError, DomainError, Grid,
                    ModelParams, MonitorRecord, ScalarField,
                    SimState, SolverConfig, constant_field, evaluate_certificate,
                    field_from_function, integrate, phi, phi_trend, record, run)
import chemfv.monitors
from chemfv.monitors import gradv_l2sq
from chemfv.solver import _extrema


def extrema_of(state):
    """The extrema a march hands its hook with ``state``."""
    return _extrema(np.stack((state.u.values, state.v.values)))


def make_cert(mu=2.0, k=1.0, chi0=1.0, v0_sup=1.0, u0_mass=0.1,
              gradv0_l2sq=0.0, domain_volume=1.0, p=3.0):
    params = ModelParams(n=1, m=1.0, alpha=0.0, k=k, mu=mu, chi0=chi0, a=1.0)
    exps = AuxiliaryExponents(4.0, 2.0, p)   # p_bar = 3
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

    @pytest.mark.parametrize("amplitude, chi0", [(1e-60, 1e60), (1e3, 1.0)])
    def test_gradient_term_overflow_is_phi_overflow(self, amplitude, chi0):
        # chi0^(2p) overflows as a Python float power; |grad v|^(2p) as an array
        g = Grid.line(16, 1.0)
        v = field_from_function(g, lambda x: amplitude * (1.0 + np.cos(np.pi * x)))
        state = SimState(0.0, constant_field(g, 0.0), v)
        with pytest.raises(CorruptionError, match=r"^phi overflowed"):
            phi(state, 200.0, chi0)

    def test_overflow_is_corruption(self):
        g = Grid.line(8, 1.0)
        state = SimState(0.0, constant_field(g, 1e300), constant_field(g, 0.0))
        with pytest.raises(CorruptionError):
            phi(state, 4.0, 1.0)


def _phi_by_pow(state, p, chi0):
    """phi as it was written with ``**`` for every power."""
    gsq = chemfv.monitors._grad_sq(state.v)
    g = state.u.grid
    return (integrate(ScalarField(g, (state.u.values + 1.0) ** p))
            + chi0 ** (2.0 * p) * integrate(ScalarField(g, gsq**p)))


class TestPhiPowers:
    # Binary powering at integral p: the bits of ``**`` at p = 1 and 2 (and at
    # any non-integral p, which keeps ``**``), else within gamma_{p-1} per cell
    # and the two pairwise sums' rounding, (p - 1 + 2 ceil(log2 N)) 2^-53.
    GRID = Grid.rect(12, 10, 1.0, 1.0)

    def _state(self):
        rng = np.random.default_rng(43)
        u = rng.uniform(0.0, 2.0, self.GRID.shape)
        v = field_from_function(self.GRID, lambda x, y: 1.0 + 0.1 * np.cos(np.pi * x)
                                * np.cos(2.0 * np.pi * y))
        return SimState(0.0, ScalarField(self.GRID, u), v)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 200.0, 4.5])
    def test_matches_the_pow_form(self, p):
        state = self._state()
        gsq = chemfv.monitors._grad_sq(state.v)
        kept = gsq.copy()
        value = phi(state, p, 1.3, grad_sq=gsq)
        assert gsq.tobytes() == kept.tobytes()   # the caller's array is only read
        expected = _phi_by_pow(state, p, 1.3)
        if p in (1.0, 2.0, 4.5):
            assert value == expected
        else:
            n = math.prod(self.GRID.shape)
            bound = (p - 1.0 + 2.0 * math.ceil(math.log2(n))) * 2.0**-53
            assert abs(value - expected) <= bound * expected

    def test_integral_p_overflow_is_phi_overflow(self):
        state = SimState(0.0, constant_field(self.GRID, 1e3), constant_field(self.GRID, 1.0))
        with pytest.raises(CorruptionError, match=r"^phi overflowed"):
            phi(state, 200.0, 1.0)


class TestPhiScratch:
    def test_a_second_call_allocates_no_grid_array(self):
        # u + 1 and both powers go into two arrays held from the first call on
        # this grid shape; before, each call allocated three of 32 KB.
        grid = Grid.rect(64, 64, 1.0, 1.0)
        u = np.random.default_rng(5).uniform(0.0, 2.0, grid.shape)
        v = field_from_function(grid, lambda x, y: 1.0 + 0.1 * np.cos(np.pi * x)
                                * np.cos(2.0 * np.pi * y))
        state = SimState(0.0, ScalarField(grid, u), v)
        gsq = chemfv.monitors._grad_sq(v)
        first = phi(state, 6.0, 1.3, grad_sq=gsq)
        tracemalloc.start()
        try:
            second = phi(state, 6.0, 1.3, grad_sq=gsq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first
        assert peak < u.nbytes

    def test_grids_of_other_shapes_keep_their_values(self):
        states = [SimState(0.0, constant_field(g, 1.0), constant_field(g, 0.0))
                  for g in (Grid.line(16, 2.0), Grid.rect(8, 8, 1.0, 1.0), Grid.line(16, 2.0))]
        assert [phi(s, 3.0, 1.0) for s in states] == pytest.approx([16.0, 8.0, 16.0], rel=1e-14)


class TestRecord:
    def test_clean_state_has_no_violations(self):
        g = Grid.line(16, 1.0)
        cert = make_cert()
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        rec = record(state, 0.0, cert, extrema_of(state))
        assert rec.violations == []
        assert rec.mass_u == 0.0
        assert rec.sup_v == 1.0
        assert rec.gradv_l2sq == 0.0

    def test_mass_violation_flagged(self):
        g = Grid.line(16, 1.0)
        cert = make_cert(mu=2.0, k=0.0, u0_mass=0.1)  # m_mass = 0.1
        state = SimState(0.0, constant_field(g, 0.5), constant_field(g, 1.0))
        rec = record(state, 1e-3, cert, extrema_of(state))
        names = [v.bound_name for v in rec.violations]
        assert names == ["mass"]
        assert rec.violations[0].observed == pytest.approx(0.5)
        assert rec.violations[0].bound_value == pytest.approx(0.1)

    def test_gradient_energy_violation_flagged(self):
        # M_grad = max(gradv0_l2sq, ...) is about 0.1 here; int |grad v|^2 of
        # v = 1 + cos(pi x) is about pi^2 / 2
        g = Grid.line(64, 1.0)
        cert = make_cert(gradv0_l2sq=0.1)
        v = field_from_function(g, lambda x: 1.0 + np.cos(np.pi * x))
        state = SimState(0.0, constant_field(g, 0.05), v)
        rec = record(state, 1e-3, cert, extrema_of(state))
        assert [viol.bound_name for viol in rec.violations] == ["gradv_l2"]
        assert rec.violations[0].bound_value == cert.M_grad
        assert rec.violations[0].observed == rec.gradv_l2sq == gradv_l2sq(v)
        assert rec.gradv_l2sq > cert.M_grad * (1.0 + chemfv.monitors.BOUND_SLACK)

    def test_tolerance_is_relative(self):
        g = Grid.line(16, 1.0)
        cert = make_cert(mu=2.0, k=0.0, u0_mass=1.0)  # m_mass = 1.0
        state = SimState(0.0, constant_field(g, 1.04), constant_field(g, 1.0))
        rec = record(state, 0.0, cert, extrema_of(state))
        assert rec.violations == []  # 1.04 <= 1.0 * 1.05


    def test_one_gradient_per_record(self, monkeypatch):
        g = Grid.rect(12, 10, 1.0, 1.0)
        u = field_from_function(g, lambda x, y: 0.2 + 0.1 * np.cos(np.pi * x))
        v = field_from_function(g, lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
        state = SimState(0.0, u, v)
        cert = make_cert(p=4.5)
        calls = []
        real = chemfv.monitors.gradient_cells
        monkeypatch.setattr(chemfv.monitors, "gradient_cells",
                            lambda f: calls.append(f) or real(f))
        rec = record(state, 1e-3, cert, extrema_of(state))
        assert len(calls) == 1
        monkeypatch.undo()
        assert rec.gradv_l2sq == gradv_l2sq(v)
        assert rec.phi_p == phi(state, 4.5, cert.params.chi0)

    def test_phi_is_taken_at_the_certificates_p_used(self):
        # exps.p = 1.5 lies below p_bar = 3, so the certificate takes mu_min,
        # and the monitors phi_p, at p_used = 3
        g = Grid.line(16, 1.0)
        u = field_from_function(g, lambda x: 0.5 + 0.2 * np.cos(np.pi * x))
        v = field_from_function(g, lambda x: 1.0 + 0.3 * np.cos(np.pi * x))
        state = SimState(0.0, u, v)
        cert = make_cert(p=1.5)
        assert (cert.exps.p, cert.p_bar, cert.p_used) == (1.5, 3.0, 3.0)
        rec = record(state, 0.0, cert, extrema_of(state))
        assert rec.phi_p == phi(state, 3.0, cert.params.chi0)
        assert rec.phi_p != phi(state, 1.5, cert.params.chi0)


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
                             a=0.0)
        u0 = field_from_function(g, lambda x: 0.2 + 0.2 * np.cos(np.pi * x))
        v0 = field_from_function(g, lambda x: 0.5 + 0.5 * np.cos(np.pi * x))
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        cert = evaluate_certificate(params, exps, v0_sup=float(v0.values.max()),
                                    u0_mass=0.2, domain_volume=1.0)
        records = []
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=0.2, cadence_steps=100),
                     lambda s, dt, extrema: records.append(record(s, dt, cert, extrema)))
        assert result.status == "completed"
        assert all(r.violations == [] for r in records)
        masses = np.array([r.mass_u for r in records])
        assert np.abs(masses - masses[0]).max() <= 1e-12 * masses[0]
        sups = [r.sup_v for r in records]
        for prev, cur in zip(sups, sups[1:]):
            assert cur <= prev * (1.0 + 1e-10)
