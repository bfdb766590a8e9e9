"""Solver kernels, stability bound, step outcomes and run-level invariants."""
from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chemfv import (CorruptionError, DomainError, Grid, ModelParams, ScalarField,
                    SimState, SolverConfig, constant_field, field_from_function, integrate,
                    laplacian, run, stable_dt, step)
from chemfv.config import parse_config
from chemfv.initial import build_initial_data
from chemfv.solver import (ADVANCED, BLOWUP, COMPLETED, CORRUPTED, DT_UNDERFLOW, STEP_BUDGET,
                           U_NEG_TOL, V_SUP_REL_TOL, _advance, _extrema, _kernel)


def params_1d(**overrides):
    base = dict(n=1, m=1.0, alpha=0.0, k=0.0, mu=1.0, chi0=1.0, a=0.0)
    base.update(overrides)
    return ModelParams(**base)


def rates(u, v, params):
    """The kernel's (du_dt, dv_dt, dt_diff, dt_adv, dt_react) at (u, v)."""
    s, kernel = _kernel(u.grid, params)
    s[0], s[1] = u.values, v.values
    (du_dt, dv_dt), *limits = kernel(float(u.values.max()), float(v.values.max()))
    return (du_dt, dv_dt, *limits)


def net_face_fluxes(u, v, params):
    """Face fluxes D grad u - (u+1)^alpha chi(v) grad v of a 1D grid, read off du_dt.

    du_dt less k u - mu u^2 is (F_right - F_left)/h per cell, and the left
    boundary face is 0, so the running sum times h recovers every face; the
    last entry is the right boundary face.
    """
    du_dt = rates(u, v, params)[0]
    div = du_dt - (params.k * u.values - params.mu * u.values * u.values)
    return np.concatenate(([0.0], u.grid.spacing[0] * np.cumsum(div)))


class TestDiffusiveFlux:
    def test_constant_field(self):
        g = Grid.line(16, 1.0)
        u = constant_field(g, 2.0)
        fx = net_face_fluxes(u, u, params_1d(m=3.0, chi0=0.0))
        assert np.all(fx == 0.0)

    def test_heat_reduction_at_m_1(self):
        g = Grid.line(32, 1.0)
        u = field_from_function(g, lambda x: 0.5 * x)
        fx = net_face_fluxes(u, u, params_1d(m=1.0, chi0=0.0))
        assert np.allclose(fx[1:-1], 0.5, rtol=0, atol=1e-13)
        assert fx[0] == 0.0 and fx[-1] == pytest.approx(0.0, abs=1e-13)

    def test_face_coefficient_is_arithmetic_mean(self):
        g = Grid.line(4, 4.0)
        u = ScalarField(g, np.array([0.0, 1.0, 3.0, 3.0]))
        fx = net_face_fluxes(u, constant_field(g, 0.0), params_1d(m=2.0, chi0=0.0))
        # face between cells 0 and 1: mean of (u+1) is 1.5, slope is 1
        assert fx[1] == pytest.approx(1.5 * 1.0)


class TestChemotacticFlux:
    # u == 1 throughout, so the diffusive flux is 0 and the net face flux is
    # minus the chemotactic one
    def test_constant_v(self):
        g = Grid.line(16, 1.0)
        u, v = constant_field(g, 1.0), constant_field(g, 2.0)
        assert np.all(net_face_fluxes(u, v, params_1d()) == 0.0)
        assert rates(u, v, params_1d())[3] == math.inf

    def test_zero_chi0(self):
        g = Grid.line(16, 1.0)
        u, v = constant_field(g, 1.0), field_from_function(g, lambda x: x)
        assert np.all(net_face_fluxes(u, v, params_1d(chi0=0.0)) == 0.0)
        assert rates(u, v, params_1d(chi0=0.0))[3] == math.inf

    def test_uniform_drift(self):
        # u == 1, v linear with slope s, alpha = 0, a = 0: every interior face
        # carries chi0 * s, and so does the advective speed
        g = Grid.line(32, 1.0)
        u, v = constant_field(g, 1.0), field_from_function(g, lambda x: 0.75 * x)
        fx = net_face_fluxes(u, v, params_1d(chi0=2.0))
        assert np.allclose(-fx[1:-1], 2.0 * 0.75, rtol=0, atol=1e-13)
        h = g.spacing[0]
        assert rates(u, v, params_1d(chi0=2.0))[3] == pytest.approx(h / (2.0 * 2.0 * 0.75))

    def test_upwind_factor_from_donor_cell(self):
        g = Grid.line(4, 4.0)
        u = ScalarField(g, np.array([3.0, 0.0, 0.0, 0.0]))
        v = ScalarField(g, np.array([0.0, 1.0, 2.0, 3.0]))  # drift points right
        p = params_1d(alpha=1.0, m=2.0, chi0=1.0)
        fx = net_face_fluxes(u, v, p)
        # face 1 sits between cells 0 and 1; with w > 0 the donor is cell 0,
        # and the diffusive part is the face mean 2.5 of (u+1) times slope -3
        assert fx[1] == pytest.approx(2.5 * -3.0 - (3.0 + 1.0) * 1.0)
        # face 2 between cells 1 and 2: donor cell 1 carries factor 1
        assert fx[2] == pytest.approx(-1.0)
        # the speed bound takes the larger factor of the face's two cells
        assert rates(u, v, p)[3] == pytest.approx(1.0 / (2.0 * (3.0 + 1.0) * 1.0))


class TestReactionAndSignal:
    # constant fields carry no flux, so du_dt is k u - mu u^2 and dv_dt is -u v
    def test_reaction_values(self):
        g = Grid.line(8, 1.0)
        v = constant_field(g, 1.0)
        assert np.all(rates(constant_field(g, 0.0), v, params_1d(k=1.0, mu=1.0))[0] == 0.0)
        assert np.allclose(rates(constant_field(g, 0.5), v, params_1d(k=1.0, mu=2.0))[0], 0.0)
        assert np.allclose(rates(constant_field(g, 2.0), v, params_1d(k=1.0, mu=1.0))[0], -2.0)

    def test_rhs_v_values(self):
        g = Grid.line(8, 1.0)
        p = params_1d()
        assert np.all(rates(constant_field(g, 0.0), constant_field(g, 3.0), p)[1] == 0.0)
        assert np.all(rates(constant_field(g, 5.0), constant_field(g, 0.0), p)[1] == 0.0)
        out = rates(constant_field(g, 2.0), constant_field(g, 3.0), p)[1]
        assert np.allclose(out, -6.0, rtol=0, atol=1e-13)


class TestStableDt:
    def test_pure_heat_value(self):
        g = Grid.line(16, 1.0)
        params = params_1d(chi0=0.0, k=0.0, mu=1e-6, m=1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        cfg = SolverConfig(t_end=1.0, safety=0.4)
        h = g.spacing[0]
        expected = 0.4 * min(h**2 / 2.0, 1.0 / (0.0 + 0.0 + 0.0 + 1.0 + 1.0))
        assert stable_dt(state, params, cfg) == pytest.approx(expected, rel=1e-14)

    def test_resolution_scaling(self):
        params = params_1d(chi0=0.0, m=1.0, mu=1e-6)
        cfg = SolverConfig(t_end=1.0)
        dts = []
        for nx in (512, 1024):
            g = Grid.line(nx, 1.0)
            state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 0.0))
            dts.append(stable_dt(state, params, cfg))
        assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)

    def test_nonlinear_diffusivity_raises_the_bound(self):
        g = Grid.line(16, 1.0)
        cfg = SolverConfig(t_end=1.0)
        state = SimState(0.0, constant_field(g, 3.0), constant_field(g, 0.0))
        dt_linear = stable_dt(state, params_1d(chi0=0.0, m=1.0, mu=1e-6), cfg)
        dt_degenerate = stable_dt(state, params_1d(chi0=0.0, m=2.0, mu=1e-6), cfg)
        # (u+1)^(m-1) = 4 at m = 2 shrinks the diffusive candidate 4x; the
        # reaction candidate may bind instead, so only check the ordering
        assert dt_degenerate < dt_linear

    def test_nonfinite_state_rejected(self):
        g = Grid.line(8, 1.0)
        u = constant_field(g, 0.0)
        u.values[0] = math.inf
        state = SimState(0.0, u, constant_field(g, 0.0))
        with pytest.raises(CorruptionError):
            stable_dt(state, params_1d(), SolverConfig(t_end=1.0))


def composed_rates(u, v, params):
    """du_dt and dv_dt composed from numpy face differences, apart from the kernel.

    Each face carries the face mean of (u+1)^(m-1) times the u difference,
    less the donor-cell (u+1)^alpha times chi0/(1 + a v_face)^2 times the v
    difference; zero boundary faces close it and np.diff takes the divergence.
    """
    uu, vv = u.values, v.values
    du = params.k * uu - params.mu * uu * uu
    for axis, h in enumerate(u.grid.spacing):
        lo = tuple(slice(0, -1) if i == axis else slice(None) for i in range(uu.ndim))
        hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(uu.ndim))
        coef = (uu + 1.0) ** (params.m - 1.0)
        trans = (uu + 1.0) ** params.alpha
        v_face = 0.5 * (vv[lo] + vv[hi])
        w = params.chi0 / (1.0 + params.a * v_face) ** 2 * np.diff(vv, axis=axis) / h
        flux = (0.5 * (coef[lo] + coef[hi]) * np.diff(uu, axis=axis) / h
                - np.where(w > 0.0, trans[lo], trans[hi]) * w)
        pad = [(0, 0)] * uu.ndim
        pad[axis] = (1, 1)
        du = du + np.diff(np.pad(flux, pad), axis=axis) / h
    return du, laplacian(v).values - uu * vv


class TestStep:
    def test_logistic_fixed_point(self):
        g = Grid.line(16, 1.0)
        params = params_1d(k=1.0, mu=2.0, chi0=1.0, a=1.0)
        state = SimState(0.0, constant_field(g, 0.5), constant_field(g, 0.0))
        new, out = step(state, params, SolverConfig(t_end=1.0), v0_sup=0.0)
        assert out.status == ADVANCED
        assert np.array_equal(new.u.values, state.u.values)
        assert np.array_equal(new.v.values, state.v.values)

    def test_new_state_shares_no_memory_with_its_input(self):
        g = Grid.rect(8, 6, 1.0, 0.8)
        rng = np.random.default_rng(17)
        state = SimState(0.0, ScalarField(g, rng.uniform(0.5, 2.0, g.shape)),
                         ScalarField(g, rng.uniform(0.2, 1.0, g.shape)))
        before = (state.u.values.tobytes(), state.v.values.tobytes())
        params = ModelParams(n=2, m=1.5, alpha=0.5, k=0.5, mu=1.5, chi0=1.2, a=0.7)
        new, out = step(state, params, SolverConfig(t_end=1.0), v0_sup=1.0)
        assert out.status == ADVANCED
        for a, b in itertools.product((new.u, new.v), (state.u, state.v)):
            assert not np.shares_memory(a.values, b.values)
        assert (state.u.values.tobytes(), state.v.values.tobytes()) == before

    def test_zero_u_constant_v(self):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 2.0))
        new, out = step(state, params_1d(k=1.0), SolverConfig(t_end=1.0), v0_sup=2.0)
        assert out.status == ADVANCED
        assert np.all(new.u.values == 0.0)
        assert np.array_equal(new.v.values, state.v.values)

    def test_constant_state_is_exact_euler(self):
        g = Grid.line(16, 1.0)
        params = params_1d(k=1.0, mu=3.0, chi0=2.0, a=1.0)
        c, w = 2.0, 1.5
        state = SimState(0.0, constant_field(g, c), constant_field(g, w))
        new, out = step(state, params, SolverConfig(t_end=1.0), v0_sup=w)
        dt = out.dt_used
        assert np.allclose(new.u.values, c + dt * (params.k * c - params.mu * c**2),
                           rtol=0, atol=1e-15)
        assert np.allclose(new.v.values, w * (1.0 - c * dt), rtol=0, atol=1e-15)

    def test_matches_kernel_composition(self):
        # every branch of the kernel: coef is None at m = 1, trans is None at
        # alpha = 0 or chi0 = 0, the chi0 = 0 flux, and the speed at alpha > 0
        rng = np.random.default_rng(3)
        for dim, m, alpha, chi0 in itertools.product((1, 2), (1.0, 1.6), (-0.5, 0.0, 0.7),
                                                     (0.0, 1.3)):
            g = Grid.line(12, 1.0) if dim == 1 else Grid.rect(8, 10, 1.0, 2.0)
            params = ModelParams(n=dim, m=m, alpha=alpha, k=0.5, mu=2.0, chi0=chi0,
                                 a=0.7)
            u = ScalarField(g, rng.uniform(0.0, 2.0, g.shape))
            v = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
            state = SimState(0.0, u, v)
            new, out = step(state, params, SolverConfig(t_end=10.0),
                            v0_sup=float(v.values.max()))
            du, dv = composed_rates(u, v, params)
            case = (dim, m, alpha, chi0)
            assert np.abs(new.u.values - (u.values + out.dt_used * du)).max() < 1e-14, case
            assert np.abs(new.v.values - (v.values + out.dt_used * dv)).max() < 1e-14, case

    def test_dt_matches_stable_dt(self):
        g = Grid.line(16, 1.0)
        params = params_1d(k=1.0, mu=2.0, chi0=1.5, a=0.5)
        state = SimState(0.0, constant_field(g, 1.0),
                         field_from_function(g, lambda x: 0.5 + 0.4 * np.cos(np.pi * x)))
        cfg = SolverConfig(t_end=10.0)
        _, out = step(state, params, cfg, v0_sup=0.9)
        assert out.dt_used == stable_dt(state, params, cfg)

    def test_dt_matches_stable_dt_2d_nonlinear(self):
        rng = np.random.default_rng(5)
        g = Grid.rect(10, 8, 1.0, 0.7)
        params = ModelParams(n=2, m=1.6, alpha=0.7, k=0.5, mu=2.0, chi0=1.3, a=0.7)
        state = SimState(0.0, ScalarField(g, rng.uniform(0.0, 2.0, g.shape)),
                         ScalarField(g, rng.uniform(0.0, 1.0, g.shape)))
        cfg = SolverConfig(t_end=10.0)
        _, out = step(state, params, cfg, v0_sup=1.0)
        assert out.dt_used == stable_dt(state, params, cfg)

    def test_clips_to_target(self):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        new, out = step(state, params_1d(), SolverConfig(t_end=1.0), v0_sup=1.0,
                        t_target=1e-5)
        assert new.t == 1e-5
        assert out.dt_used == 1e-5

    def test_dt_underflow(self):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        _, out = step(state, params_1d(), SolverConfig(t_end=1.0, dt_min=1.0), v0_sup=1.0)
        assert out.status == DT_UNDERFLOW

    def test_corrupted_on_nan(self):
        g = Grid.line(16, 1.0)
        u = constant_field(g, 0.0)
        u.values[2] = math.nan
        state = SimState(0.0, u, constant_field(g, 1.0))
        _, out = step(state, params_1d(), SolverConfig(t_end=1.0), v0_sup=1.0)
        assert out.status == CORRUPTED

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["u", "v"])
    def test_nonfinite_input(self, field, bad):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.5), constant_field(g, 1.0))
        getattr(state, field).values[3] = bad
        _, out = step(state, params_1d(), SolverConfig(t_end=1.0), v0_sup=1.0)
        assert out.status == CORRUPTED
        with pytest.raises(CorruptionError):
            stable_dt(state, params_1d(), SolverConfig(t_end=1.0))

    def test_corrupted_on_overflowing_update(self):
        # mu u^2 overflows, so u_new = -inf: the post-update check must see it
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 1e200), constant_field(g, 0.0))
        cfg = SolverConfig(t_end=1.0, dt_min=1e-300, u_max=1e300)
        with np.errstate(over="ignore"):
            new, out = step(state, params_1d(), cfg, v0_sup=0.0)
        assert out.status == CORRUPTED
        assert np.all(new.u.values == -math.inf)

    def test_drift_out_of_an_empty_cell_is_corrupted(self):
        # the chemotactic flux (u+1)^alpha chi(v) grad v does not vanish at
        # u = 0, so drift out of an empty cell makes u negative; the step must
        # report that, not clip it
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), field_from_function(g, lambda x: x**2))
        new, out = step(state, params_1d(), SolverConfig(t_end=1.0), v0_sup=1.0)
        assert out.status == CORRUPTED
        assert new.u.values.min() < -U_NEG_TOL

    def test_corrupted_on_max_principle_violation(self):
        # declaring a v0_sup below the current sup v makes the check fire
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0))
        _, out = step(state, params_1d(), SolverConfig(t_end=1.0), v0_sup=0.5)
        assert out.status == CORRUPTED

    def test_blowup_threshold(self):
        g = Grid.line(16, 1.0)
        params = params_1d(k=5.0, mu=1e-6)
        state = SimState(0.0, constant_field(g, 1.0), constant_field(g, 0.0))
        new, out = step(state, params, SolverConfig(t_end=1.0, u_max=1.0), v0_sup=0.0)
        assert out.status == BLOWUP
        assert out.sup_u > 1.0


class TestRun:
    def test_mass_conservation_without_sources(self):
        # k = 0, mu ~ 0: the flux-form update conserves mass for any chi0, m, alpha
        g = Grid.line(128, 1.0)
        params = ModelParams(n=1, m=1.7, alpha=0.4, k=0.0, mu=1e-20, chi0=1.0,
                             a=0.5)
        u0 = field_from_function(g, lambda x: 0.1 + np.exp(-((x - 0.5) ** 2) / 0.01))
        v0 = field_from_function(g, lambda x: 0.5 + 0.5 * np.cos(np.pi * x))
        masses = []
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=0.2, cadence_steps=50),
                     lambda s, dt, _: masses.append(integrate(s.u)))
        assert result.status == COMPLETED
        masses = np.array(masses)
        assert np.abs(masses - masses[0]).max() <= 1e-12 * masses[0]

    def test_logistic_decay_tracks_ode(self):
        g = Grid.line(4, 1.0)
        params = params_1d(chi0=0.0, k=0.0, mu=1.0)
        records = []
        result = run(SimState(0.0, constant_field(g, 1.0), constant_field(g, 1.0)),
                     params, SolverConfig(t_end=1.0, cadence_steps=1),
                     lambda s, dt, _: records.append((s.t, float(s.u.values[0]))))
        assert result.status == COMPLETED
        err = max(abs(u - 1.0 / (1.0 + t)) for t, u in records)
        assert err < 0.02

    def test_constant_state_reproduces_euler_iterates(self):
        # spatially constant states must evolve as the plain Euler map of the
        # reaction ODEs, with no spurious spatial coupling
        g = Grid.line(8, 1.0)
        params = params_1d(k=0.5, mu=1.0, chi0=1.0, a=1.0)
        trace = []
        run(SimState(0.0, constant_field(g, 1.0), constant_field(g, 1.0)), params,
            SolverConfig(t_end=0.2, cadence_steps=1),
            lambda s, dt, _: trace.append((dt, s.u.values.copy(), s.v.values.copy())))
        u, v = 1.0, 1.0
        for dt, u_arr, v_arr in trace[1:]:
            v = v * (1.0 - dt * u)  # consumption uses the pre-step u
            u = u + dt * (0.5 * u - u * u)
            assert np.all(u_arr == u_arr[0]) and np.all(v_arr == v_arr[0])
            assert u_arr[0] == pytest.approx(u, abs=1e-15)
            assert v_arr[0] == pytest.approx(v, abs=1e-15)

    def test_positivity_and_max_principle_on_bump_run(self):
        g = Grid.line(96, 1.0)
        params = ModelParams(n=1, m=1.0, alpha=0.0, k=1.0, mu=2.0, chi0=1.0, a=1.0)
        u0 = field_from_function(
            g, lambda x: 0.05 + 0.4 * np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2)))
        v0 = constant_field(g, 1.0)
        sup_vs, min_us = [], []
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=0.5, cadence_steps=200),
                     lambda s, dt, _: (sup_vs.append(float(s.v.values.max())),
                                    min_us.append(float(s.u.values.min()))))
        assert result.status == COMPLETED
        assert min(min_us) >= -1e-12
        for prev, cur in zip(sup_vs, sup_vs[1:]):
            assert cur <= prev * (1.0 + 1e-10)

    def test_blowup_at_step_zero(self):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 2.0), constant_field(g, 1.0))
        result = run(state, params_1d(), SolverConfig(t_end=1.0, u_max=1.5))
        assert result.status == BLOWUP
        assert result.steps == 0

    def test_rejects_negative_initial_data(self):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, -0.1), constant_field(g, 1.0))
        with pytest.raises(DomainError):
            run(state, params_1d(), SolverConfig(t_end=1.0))

    @pytest.mark.parametrize("field", ["u", "v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_initial_data(self, field, bad):
        g = Grid.line(16, 1.0)
        state = SimState(0.0, constant_field(g, 0.5), constant_field(g, 1.0))
        getattr(state, field).values[3] = bad
        with pytest.raises(CorruptionError, match="^non-finite initial data$"):
            run(state, params_1d(), SolverConfig(t_end=1.0))

    def test_a_run_in_a_hook_leaves_the_callers_overflow_state(self):
        # run enters np.errstate(over="ignore") per call: the outer march stays
        # silent after a run inside its hook returns, and the caller's state
        # is back once the outer run returns
        def state(g):
            return SimState(0.0, constant_field(g, 0.5), constant_field(g, 1.0))

        seen = []

        def hook(s, dt, _):
            run(state(Grid.line(8, 1.0)), params_1d(), SolverConfig(t_end=0.001))
            seen.append(np.geterr()["over"])

        before = np.geterr()
        run(state(Grid.line(16, 1.0)), params_1d(),
            SolverConfig(t_end=0.001, cadence_steps=1), hook)
        assert len(seen) > 1 and set(seen) == {"ignore"}
        assert np.geterr() == before

    def test_step_budget_returns_last_state(self):
        g = Grid.line(16, 1.0)
        u0 = field_from_function(g, lambda x: 0.2 + 0.5 * x)
        v0 = field_from_function(g, lambda x: 1.0 - 0.3 * x)
        params, cfg = params_1d(k=0.5), SolverConfig(t_end=1.0, max_steps=7)
        result = run(SimState(0.0, u0, v0), params, cfg)
        assert result.status == STEP_BUDGET
        assert result.steps == 7
        state = SimState(0.0, u0, v0)
        for _ in range(7):
            state, out = step(state, params, cfg, v0_sup=1.0, t_target=cfg.t_end)
            assert out.status == ADVANCED
        assert 0.0 < result.state.t == state.t < cfg.t_end
        assert np.array_equal(result.state.u.values, state.u.values)
        assert np.array_equal(result.state.v.values, state.v.values)

    @pytest.mark.parametrize("make,status,steps,hooked_steps,final", [
        (lambda g: (constant_field(g, 2.0), constant_field(g, 1.0), params_1d(),
                    SolverConfig(t_end=1.0, u_max=1.5)),
         BLOWUP, 0, [0], "initial"),
        (lambda g: (constant_field(g, 1.0), constant_field(g, 0.0), params_1d(k=5.0, mu=1e-6),
                    SolverConfig(t_end=1.0, u_max=1.5, cadence_steps=50)),
         BLOWUP, 105, [0, 50, 100, 105], "hooked"),
        (lambda g: (constant_field(g, 1.0), constant_field(g, 0.0), params_1d(k=50.0, mu=1e-6),
                    SolverConfig(t_end=1.0, u_max=1e300, dt_min=5e-4)),
         DT_UNDERFLOW, 176, [0], "unhooked"),
        (lambda g: (field_from_function(g, lambda x: 0.2 + 0.5 * x),
                    field_from_function(g, lambda x: 1.0 - 0.3 * x), params_1d(k=0.5),
                    SolverConfig(t_end=1.0, max_steps=7, cadence_steps=3)),
         STEP_BUDGET, 7, [0, 3, 6], "unhooked"),
        (lambda g: (constant_field(g, 0.0), field_from_function(g, lambda x: x**2), params_1d(),
                    SolverConfig(t_end=1.0, cadence_steps=1)),
         CORRUPTED, 1, [0], "unhooked"),
    ], ids=["blowup-t0", "blowup-march", "dt-underflow", "step-budget", "invariant-corruption"])
    def test_hook_schedule_on_each_terminal_path(self, make, status, steps, hooked_steps, final):
        # which states each way of ending hooks; a final state that ends
        # dt_underflow, step_budget_exceeded or corrupted by the invariant
        # checks is never hooked
        u0, v0, params, cfg = make(Grid.line(16, 1.0))
        initial = SimState(0.0, u0, v0)
        hooked = []

        def hook(s, dt, _):
            hooked.append((s.t, dt, s is initial, float(s.u.values.min())))
        result = run(initial, params, cfg, hook)
        assert (result.status, result.steps, result.reason) == (status, steps, None)
        reached, state = [(0.0, 0.0)], initial   # (t, dt) after each step
        for _ in range(steps):
            state, out = step(state, params, cfg, v0_sup=float(v0.values.max()),
                              t_target=cfg.t_end)
            reached.append((state.t, out.dt_used))
        assert [(t, dt) for t, dt, *_ in hooked] == [reached[i] for i in hooked_steps]
        assert [is_initial for _, _, is_initial, _ in hooked] == [True] + [False] * (
            len(hooked) - 1)
        assert min(u_min for *_, u_min in hooked) >= -U_NEG_TOL
        if final == "initial":
            assert result.state is initial
        else:
            assert result.state is not initial and result.state.t == reached[-1][0]
            assert (result.state.t == hooked[-1][0]) == (final == "hooked")
        if status == CORRUPTED:
            assert result.state.u.values.min() < -U_NEG_TOL

    @pytest.mark.parametrize("fail_at", [0, 3])
    def test_corruption_raised_by_the_hook_ends_the_run(self, fail_at):
        g = Grid.line(16, 1.0)
        u0 = field_from_function(g, lambda x: 0.2 + 0.5 * x)
        v0 = field_from_function(g, lambda x: 1.0 - 0.3 * x)
        cfg = SolverConfig(t_end=1.0, cadence_steps=1)
        hooked = []

        def hook(state, dt, _):
            hooked.append(state)
            if len(hooked) > fail_at:
                raise CorruptionError("monitor says no")
        result = run(SimState(0.0, u0, v0), params_1d(k=0.5), cfg, hook)
        assert (result.status, result.reason) == (CORRUPTED, "monitor says no")
        assert result.steps == fail_at
        assert result.state is hooked[-1] and len(hooked) == fail_at + 1
        assert result.sup_u_max >= float(result.state.u.values.max())

    def test_never_aliases_the_caller_or_its_own_buffers(self):
        # the march updates its one buffer in place: the initial arrays keep
        # their bytes, the hook reads the buffer through read-only views, and
        # the result keeps its bytes through a later march
        g = Grid.rect(8, 6, 1.0, 0.8)
        rng = np.random.default_rng(29)
        u0 = ScalarField(g, rng.uniform(0.5, 2.0, g.shape))
        v0 = ScalarField(g, rng.uniform(0.2, 1.0, g.shape))
        initial = SimState(0.0, u0, v0)
        before = (u0.values.tobytes(), v0.values.tobytes())
        params = ModelParams(n=2, m=1.5, alpha=0.5, k=0.5, mu=1.5, chi0=1.2, a=0.7)
        held = []

        def hook(s, dt, _):
            held.append((s, dt))
            if s is not initial:
                for values in (s.u.values, s.v.values):
                    with pytest.raises(ValueError, match="read-only"):
                        values[0, 0] = 0.0
        result = run(initial, params, SolverConfig(t_end=1e-2, cadence_steps=2), hook)
        assert result.status == COMPLETED and result.steps > 6
        assert (u0.values.tobytes(), v0.values.tobytes()) == before
        assert held[0][0] is initial
        assert result.state is held[-1][0]
        final = (result.state.u.values.tobytes(), result.state.v.values.tobytes())
        run(initial, params, SolverConfig(t_end=2e-2))   # a second march changes nothing held
        assert (result.state.u.values.tobytes(), result.state.v.values.tobytes()) == final

    def test_hook_call_holds_no_state_sized_array(self):
        # the hook reads the march's own buffer: while it runs, nothing the
        # size of a state is live beyond the kernel's arrays
        g = Grid.rect(64, 64, 1.0, 1.0)
        rng = np.random.default_rng(7)
        initial = SimState(0.0, ScalarField(g, rng.uniform(0.5, 2.0, g.shape)),
                           ScalarField(g, rng.uniform(0.2, 1.0, g.shape)))
        params = ModelParams(n=2, m=1.5, alpha=0.5, k=0.5, mu=1.5, chi0=1.2, a=0.7)
        state_bytes = 2 * initial.u.values.nbytes
        live = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernel = _kernel(g, params)
            kernel_bytes = tracemalloc.get_traced_memory()[0] - base
            del kernel
            base = tracemalloc.get_traced_memory()[0]
            result = run(initial, params, SolverConfig(t_end=1.0, max_steps=5, cadence_steps=1),
                         lambda s, dt, _: live.append(tracemalloc.get_traced_memory()[0] - base))
        finally:
            tracemalloc.stop()
        assert result.status == STEP_BUDGET and len(live) == 6
        assert max(live) < kernel_bytes + state_bytes // 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_hook_gets_the_extrema_of_its_state(self, dim):
        rng = np.random.default_rng(5)
        g = Grid.line(24, 1.0) if dim == 1 else Grid.rect(12, 10, 1.0, 0.8)
        u0 = ScalarField(g, rng.uniform(0.0, 2.0, g.shape))
        v0 = ScalarField(g, rng.uniform(0.2, 1.0, g.shape))
        params = ModelParams(n=dim, m=1.5, alpha=0.5, k=0.5, mu=1.5, chi0=1.2, a=0.7)
        matches = []

        def hook(s, dt, extrema):
            matches.append(extrema == _extrema(np.stack((s.u.values, s.v.values))))
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=1e-2, cadence_steps=1), hook)
        assert result.status == COMPLETED
        assert len(matches) == result.steps + 1 > 5 and all(matches)

    def test_step_cadence_hook_count(self):
        g = Grid.line(16, 1.0)
        times = []
        result = run(SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0)),
                     params_1d(), SolverConfig(t_end=0.01, cadence_steps=3),
                     lambda s, dt, _: times.append(s.t))
        assert result.status == COMPLETED
        assert times[0] == 0.0 and times[-1] == 0.01
        # hooks at t=0, every 3rd step, and the final step
        assert len(times) >= 3

    @pytest.mark.parametrize("cadence_steps", [None, 1])
    def test_time_cadence_lands_exactly(self, cadence_steps):
        g = Grid.line(16, 1.0)
        times = []
        cfg = SolverConfig(t_end=0.01, cadence_steps=cadence_steps, cadence_time=0.002)
        result = run(SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0)),
                     params_1d(), cfg, lambda s, dt, _: times.append(s.t))
        assert result.status == COMPLETED
        expected = [0.0] + [k * 0.002 for k in range(1, 6)]
        assert times == expected


class TestRunStepParity:
    """``run`` marches on raw arrays; its states must be the public ``step``
    iterates bit for bit."""

    @pytest.mark.parametrize("dim,m,alpha,chi0", [
        (1, 1.0, 0.0, 1.2), (1, 1.7, 0.6, 1.2), (1, 0.8, -0.5, 1.2), (1, 1.5, 0.5, 0.0),
        (2, 1.0, 0.0, 1.2), (2, 1.7, 0.6, 1.2), (2, 0.8, -0.5, 1.2), (2, 1.0, 0.3, 0.0),
    ])
    @pytest.mark.parametrize("coarse", [False, True])  # True: the reaction limit binds
    def test_hook_states_equal_step_iterates(self, dim, m, alpha, chi0, coarse):
        rng = np.random.default_rng(11)
        scale = 24.0 if coarse else 1.0
        g = (Grid.line(24, scale) if dim == 1 else Grid.rect(12, 10, scale, 0.8 * scale))
        u0 = ScalarField(g, rng.uniform(0.5, 2.0, g.shape))
        v0 = ScalarField(g, rng.uniform(0.2, 1.0, g.shape))
        params = ModelParams(n=dim, m=m, alpha=alpha, k=0.5, mu=1.5, chi0=chi0, a=0.7)
        dt0 = stable_dt(SimState(0.0, u0, v0), params, SolverConfig(t_end=1.0))
        cfg = SolverConfig(t_end=40.5 * dt0, cadence_steps=1)
        hooked = []

        def keep(s, dt, _):   # a hooked state is valid during the call only
            hooked.append((SimState(s.t, ScalarField(g, s.u.values.copy()),
                                    ScalarField(g, s.v.values.copy())), dt))
        result = run(SimState(0.0, u0, v0), params, cfg, keep)
        assert result.status == COMPLETED
        assert len(hooked) == result.steps + 1 > 5
        # the monitors leave the maximum principles to the solver: every state
        # the hook sees already satisfies them
        v_cap = float(v0.values.max()) * (1.0 + V_SUP_REL_TOL)
        for s, _ in hooked:
            assert s.u.values.min() >= -U_NEG_TOL and s.v.values.max() <= v_cap

        state = hooked[0][0]
        for expected, dt in hooked[1:]:
            state, out = step(state, params, cfg, v0_sup=float(v0.values.max()),
                              t_target=cfg.t_end)
            assert out.status == ADVANCED
            assert out.dt_used == dt and state.t == expected.t
            assert np.array_equal(state.u.values, expected.u.values)
            assert np.array_equal(state.v.values, expected.v.values)
        assert state.t == cfg.t_end
        assert np.array_equal(result.state.u.values, state.u.values)
        assert np.array_equal(result.state.v.values, state.v.values)

    TERMINAL_LIMITS = {DT_UNDERFLOW: dict(dt_min=2e-3), BLOWUP: dict(u_max=40.0), CORRUPTED: {}}

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("end", [DT_UNDERFLOW, CORRUPTED, BLOWUP])
    def test_terminal_state_equals_step(self, end, dim):
        # the march updates its one state in place: a run that stops must hand
        # out what ``step`` gives, the state before the step on underflow and
        # the rejected update on corruption
        rng = np.random.default_rng(5)
        g = Grid.line(8, 4.0) if dim == 1 else Grid.rect(8, 6, 4.0, 3.0)
        if end == CORRUPTED:   # drift out of an empty cell, slow enough to take steps
            params = ModelParams(n=dim, m=1.0, alpha=0.0, k=0.0, mu=1e-6, chi0=2e-12, a=0.0)
            u0 = np.zeros(g.shape)
            v0 = field_from_function(g, lambda *x: sum(c**2 for c in x)).values
        else:   # logistic growth drives sup u up and the reaction limit down
            params = ModelParams(n=dim, m=1.0, alpha=0.0, k=50.0, mu=1e-6, chi0=1.0, a=0.0)
            u0, v0 = rng.uniform(0.5, 1.5, g.shape), rng.uniform(0.2, 1.0, g.shape)
        cfg = SolverConfig(t_end=10.0, **self.TERMINAL_LIMITS[end])
        initial = SimState(0.0, ScalarField(g, u0), ScalarField(g, v0))
        result = run(initial, params, cfg)
        assert result.status == end and result.steps > 5

        state, steps = initial, 0
        while True:
            new, out = step(state, params, cfg, v0_sup=float(v0.max()), t_target=cfg.t_end)
            if out.status != ADVANCED:
                break
            state, steps = new, steps + 1
        assert out.status == end
        assert result.steps == (steps if end == DT_UNDERFLOW else steps + 1)
        assert (new is state) == (end == DT_UNDERFLOW)
        assert result.state.t == new.t
        assert result.state.u.values.tobytes() == new.u.values.tobytes()
        assert result.state.v.values.tobytes() == new.v.values.tobytes()


# The kernel, extrema and update as they were before the march moved to a
# stacked, preallocated state, copied verbatim: the reference for the
# byte-parity tests below.
def _ref_kernel(grid, params):
    m, alpha, chi0 = params.m, params.alpha, params.chi0
    k, mu = params.k, params.mu
    h = grid.spacing
    inv_h2 = sum(1.0 / hx**2 for hx in h)
    dt_diff_linear = 1.0 / (2.0 * inv_h2)
    h_min, two_dim = min(h), 2.0 * grid.dim
    a_half, abs_k, two_mu = params.a * 0.5, abs(k), 2.0 * mu
    axes = []
    for axis, hx in enumerate(h):
        lo = tuple(slice(0, -1) if i == axis else slice(None) for i in range(grid.dim))
        hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(grid.dim))
        axes.append((hx, lo, hi))

    def rates(u, v, sup_u, sup_v):
        coef = None if m == 1.0 else (u + 1.0) ** (m - 1.0)
        trans = None if alpha == 0.0 or chi0 == 0.0 else (u + 1.0) ** alpha
        du_dt = np.zeros(u.shape)
        dv_dt = np.zeros(v.shape)
        speed_max = 0.0
        for hx, lo, hi in axes:
            f_diff = (u[hi] - u[lo]) / hx
            if coef is not None:
                f_diff = 0.5 * (coef[lo] + coef[hi]) * f_diff
            v_l, v_r = v[lo], v[hi]
            dv = (v_r - v_l) / hx
            if chi0 == 0.0:
                flux = f_diff / hx
            else:
                w = (chi0 / (1.0 + a_half * (v_l + v_r)) ** 2) * dv
                if trans is None:
                    f_chem, speed = w, np.abs(w)
                else:
                    t_l, t_r = trans[lo], trans[hi]
                    f_chem = np.where(w > 0.0, t_l, t_r) * w
                    speed = np.abs(w) * np.maximum(t_l, t_r) if alpha > 0.0 else np.abs(w)
                speed_max = max(speed_max, float(speed.max()))
                flux = (f_diff - f_chem) / hx
            dv = dv / hx
            du_dt[lo] += flux
            du_dt[hi] -= flux
            dv_dt[lo] += dv
            dv_dt[hi] -= dv
        du_dt += k * u - mu * u * u
        dv_dt -= u * v

        dt_diff = (dt_diff_linear if coef is None
                   else 1.0 / (2.0 * max(1.0, float(coef.max())) * inv_h2))
        dt_adv = h_min / (two_dim * speed_max) if speed_max > 0.0 else math.inf
        dt_react = 1.0 / (abs_k + two_mu * sup_u + sup_u + sup_v + 1.0)
        return du_dt, dv_dt, dt_diff, dt_adv, dt_react

    return rates


def _ref_extrema(u, v):
    u_lo, u_hi, v_lo, v_hi = float(u.min()), float(u.max()), float(v.min()), float(v.max())
    finite = -math.inf < u_lo and u_hi < math.inf and -math.inf < v_lo and v_hi < math.inf
    return u_lo, u_hi, v_lo, v_hi, finite


def _ref_advance(rates, u, v, sup_u, sup_v, t, t_target, config, v_cap):
    du_dt, dv_dt, dt_diff, dt_adv, dt_react = rates(u, v, sup_u, sup_v)
    dt = config.safety * min(dt_diff, dt_adv, dt_react)
    if dt < config.dt_min:
        return DT_UNDERFLOW, dt, t, u, v, sup_u, sup_v
    t_new = t + dt
    if t_target is not None and t_new >= t_target:
        dt = t_target - t
        t_new = t_target
    u_new = u + dt * du_dt
    v_new = v + dt * dv_dt
    u_lo, u_hi, v_lo, v_hi, finite = _ref_extrema(u_new, v_new)
    if not finite or u_lo < -U_NEG_TOL or v_lo < -U_NEG_TOL or v_hi > v_cap:
        status = CORRUPTED
    elif u_hi > config.u_max:
        status = BLOWUP
    else:
        status = ADVANCED
    return status, dt, t_new, u_new, v_new, u_hi, v_hi


class TestKernelByteParity:
    """The stacked, preallocated kernel and march reproduce the reference
    above bit for bit: rates, limits, extrema and every marched state."""

    STEPS = 30

    @staticmethod
    def _fields(rng, g, profile):
        u = rng.uniform(0.5, 2.0, g.shape)
        v = rng.uniform(0.2, 1.0, g.shape)
        if profile == "u_zero":
            u = np.zeros(g.shape)
        elif profile == "v_constant":
            v = np.full(g.shape, 0.75)
        elif profile == "negative_zeros":
            u.flat[::3] = -0.0
            v.flat[1::4] = -0.0
            u.flat[1] = 0.0
        return u, v

    def _assert_march_identical(self, g, params, u, v):
        cfg = SolverConfig(t_end=1e6)
        v_cap = float(v.max()) * (1.0 + V_SUP_REL_TOL)
        ref_rates = _ref_kernel(g, params)
        s, kernel = _kernel(g, params)
        s[0], s[1] = u, v
        ref = _ref_extrema(u, v)
        assert _extrema(s) == ref
        _, sup_u, _, sup_v, _ = ref

        expected = ref_rates(u, v, sup_u, sup_v)
        (du_dt, dv_dt), *limits = kernel(sup_u, sup_v)
        assert du_dt.tobytes() == expected[0].tobytes()
        assert dv_dt.tobytes() == expected[1].tobytes()
        assert limits == list(expected[2:])

        t = t_ref = 0.0
        extrema = ref   # the march carries the extrema, inf v too, into the kernel
        for n in range(self.STEPS):
            status_ref, dt_ref, t_ref, u, v, sup_u, sup_v = _ref_advance(
                ref_rates, u, v, sup_u, sup_v, t_ref, None, cfg, v_cap)
            status, dt, t, extrema = _advance(kernel, s, extrema, t, None, cfg, v_cap)
            _, su, lv, sv, _ = extrema
            assert (status, dt, t, su, sv, lv) == (
                status_ref, dt_ref, t_ref, sup_u, sup_v, _ref_extrema(u, v)[2]), n
            assert s[0].tobytes() == u.tobytes(), n
            assert s[1].tobytes() == v.tobytes(), n
            if status != ADVANCED:
                break
        return n

    def test_parameter_grid(self):
        rng = np.random.default_rng(17)
        marched = 0
        for dim, m, alpha, chi0, a in itertools.product(
                (1, 2), (1.0, 1.7), (-0.5, 0.0, 0.6), (0.0, 1.2), (0.0, 0.7)):
            g = Grid.line(20, 1.0) if dim == 1 else Grid.rect(9, 11, 1.0, 1.3)
            params = ModelParams(n=dim, m=m, alpha=alpha, k=0.5, mu=1.5, chi0=chi0, a=a)
            u, v = self._fields(rng, g, "random")
            marched += self._assert_march_identical(g, params, u, v) + 1
        assert marched == 48 * self.STEPS

    @pytest.mark.parametrize("profile", ["u_zero", "v_constant", "negative_zeros"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_edge_profiles(self, profile, dim):
        rng = np.random.default_rng(23)
        g = Grid.line(20, 1.0) if dim == 1 else Grid.rect(9, 11, 1.0, 1.3)
        for m, alpha, chi0 in ((1.0, 0.0, 1.2), (1.7, 0.6, 1.2), (1.5, -0.5, 0.0)):
            params = ModelParams(n=dim, m=m, alpha=alpha, k=0.5, mu=1.5, chi0=chi0, a=0.7)
            self._assert_march_identical(g, params, *self._fields(rng, g, profile))

    # Power-of-two spacings scale the faces by a multiply, any other spacing
    # by a divide; alpha = m - 1 shares one power buffer for (u+1)^(m-1) and
    # (u+1)^alpha.
    @pytest.mark.parametrize("g", [Grid.line(32, 1.0), Grid.rect(16, 8, 1.0, 0.5),
                                   Grid.rect(9, 11, 1.0, 1.3)], ids=str)
    def test_power_of_two_spacings_and_shared_powers(self, g):
        rng = np.random.default_rng(41)
        for m, alpha, chi0 in ((1.0, 0.0, 1.2), (1.7, 0.6, 1.2), (1.5, 0.5, 1.2),
                               (2.0, 1.0, 0.7), (0.5, -0.5, 1.2)):
            params = ModelParams(n=g.dim, m=m, alpha=alpha, k=0.5, mu=1.5, chi0=chi0, a=0.7)
            for profile in ("random", "negative_zeros"):
                self._assert_march_identical(g, params, *self._fields(rng, g, profile))

    # The kernel reads every axis's faces as offset views of the flattened
    # fields; on the last axis of a 2D grid the pairs that join one row's end
    # to the next row's start must leave no trace, on the smallest grids and
    # on thin ones of either orientation too.
    @pytest.mark.parametrize("cells", [(4,), (4, 4), (4, 13), (13, 4)], ids=str)
    def test_small_and_thin_grids(self, cells):
        rng = np.random.default_rng(29)
        g = Grid(cells, (1.0, 1.3)[:len(cells)])
        for m, alpha, chi0, a in itertools.product(
                (1.0, 1.7), (-0.5, 0.0, 0.6), (0.0, 1.2), (0.0, 0.7)):
            params = ModelParams(n=len(cells), m=m, alpha=alpha, k=0.5, mu=1.5, chi0=chi0, a=a)
            for profile in ("random", "negative_zeros"):
                self._assert_march_identical(g, params, *self._fields(rng, g, profile))

    @pytest.mark.parametrize("cells", [(9, 11), (4, 4), (4, 13), (13, 4)], ids=str)
    def test_overflowing_powers_at_row_ends(self, cells):
        # (u+1)^(m-1) and (u+1)^alpha overflow at a row's last cell alone and
        # on both sides of a joining pair; NaN limits count as equal.  So does
        # the advective bound's (sup u + 1)^alpha: the exact pass runs.
        g = Grid.rect(*cells, 1.0, 1.3)
        params = ModelParams(n=2, m=3.2, alpha=2.0, k=0.5, mu=1.5, chi0=1.2, a=0.7)
        u, v = self._fields(np.random.default_rng(31), g, "random")
        u[0, -1] = u[1, -1] = u[2, 0] = 1e200
        s, kernel = _kernel(g, params)
        s[0], s[1] = u, v
        _, sup_u, inf_v, sup_v, _ = _ref_extrema(u, v)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _ref_kernel(g, params)(u, v, sup_u, sup_v)
            (du_dt, dv_dt), *limits = kernel(sup_u, sup_v, inf_v)
        assert not np.isfinite(expected[0]).all()
        assert du_dt.tobytes() == expected[0].tobytes()
        assert dv_dt.tobytes() == expected[1].tobytes()
        assert all(x == y or (math.isnan(x) and math.isnan(y))
                   for x, y in zip(limits, expected[2:], strict=True))

    def test_joining_pair_overflow_warns_but_leaves_no_trace(self):
        # v's face mean overflows np.square only on the pair joining row 0's
        # last cell to row 1's first, which is no face: the kernel computes it
        # anyway and numpy warns where the row-by-row reference is silent.  The
        # rates and limits are unaffected; this pins the known difference.
        g = Grid.rect(9, 11, 1.0, 1.3)
        params = ModelParams(n=2, m=1.0, alpha=0.0, k=0.5, mu=1.5, chi0=1.2, a=0.7)
        u, v = self._fields(np.random.default_rng(37), g, "random")
        v[0, -1] = v[1, 0] = 2e154
        _, sup_u, _, sup_v, _ = _ref_extrema(u, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = _ref_kernel(g, params)(u, v, sup_u, sup_v)
        s, kernel = _kernel(g, params)
        s[0], s[1] = u, v
        with pytest.warns(RuntimeWarning, match="overflow encountered in square") as record:
            (du_dt, dv_dt), *limits = kernel(sup_u, sup_v)
        assert len(record) == 1
        assert du_dt.tobytes() == expected[0].tobytes()
        assert dv_dt.tobytes() == expected[1].tobytes()
        assert limits == list(expected[2:])

    @pytest.mark.parametrize("m, alpha", [(1.0, 0.0), (1.7, 0.6)])
    @pytest.mark.parametrize("g", [Grid.line(20, 1.0), Grid.rect(9, 11, 1.0, 1.3)], ids=str)
    def test_junction_of_u_and_v_is_silent(self, g, m, alpha):
        # The flat run pairs u's last line with v's first: v[0] - u[-1] = 1e307
        # there, which overflows once scaled by 1/h (h = 1/20, 1/9).  That pair
        # is no face; zeroed before any scaling, it warns nowhere (warnings are
        # errors) and leaves every rate +0.0, as in the reference.
        params = ModelParams(n=g.dim, m=m, alpha=alpha, k=0.5, mu=1.5, chi0=1.2, a=0.0)
        u, v = np.zeros(g.shape), np.full(g.shape, 1e307)
        _, sup_u, _, sup_v, _ = _ref_extrema(u, v)
        expected = _ref_kernel(g, params)(u, v, sup_u, sup_v)
        s, kernel = _kernel(g, params)
        s[0], s[1] = u, v
        (du_dt, dv_dt), *limits = kernel(sup_u, sup_v)
        zeros = np.zeros(g.shape).tobytes()
        assert du_dt.tobytes() == expected[0].tobytes() == zeros
        assert dv_dt.tobytes() == expected[1].tobytes() == zeros
        assert limits == list(expected[2:])

    def test_run_1d_settings(self):
        # The benchmarked 1D march: configs/example.ini's model and initial
        # data on its 128 cells, where h = 2^-7 scales the faces by a multiply
        # and the constant v0 starts every drift term from a zero gradient.
        cfg = parse_config((Path(__file__).resolve().parents[1] / "configs"
                            / "example.ini").read_text())
        assert cfg.grid.shape == (128,) and cfg.model.mu == 2100.0
        u0, v0 = build_initial_data(cfg.grid, cfg.u0_spec, cfg.v0_spec)
        self.STEPS = 400
        marched = self._assert_march_identical(cfg.grid, cfg.model, u0.values, v0.values)
        assert marched == self.STEPS - 1


@st.composite
def bound_cases(draw):
    """A model with drift and a nonnegative (u, v) whose spread in v ranges from
    none to wide, on power-of-two and other spacings in 1D and 2D."""
    dim = draw(st.sampled_from([1, 2]))
    cells = tuple(draw(st.integers(4, 12)) for _ in range(dim))
    extents = tuple(n * 2.0 ** draw(st.integers(-6, 1)) if draw(st.booleans())
                    else draw(st.floats(0.1, 4.0)) for n in cells)
    m = draw(st.floats(0.2, 2.9))
    params = ModelParams(n=dim, m=m, alpha=draw(st.sampled_from([-0.5, 0.0, 0.5, m - 1.0])),
                         k=draw(st.floats(-5.0, 5.0)), mu=draw(st.floats(1e-6, 50.0)),
                         chi0=draw(st.floats(1e-3, 5.0)), a=draw(st.floats(0.0, 3.0)))
    u = draw(arrays(float, cells, elements=st.floats(0.0, 10.0)))
    spread = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 3.0]))
    v = draw(st.floats(0.0, 2.0)) + spread * draw(arrays(float, cells,
                                                         elements=st.floats(0.0, 1.0)))
    return Grid(cells, extents), params, u, v


class TestAdvectiveBound:
    """A kernel given inf v may report a lower advective limit than the exact
    one, but only where that limit cannot set the step."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=bound_cases())
    def test_skip_keeps_the_step_and_bounds_the_limit(self, case):
        g, params, u, v = case
        s, kernel = _kernel(g, params)
        s[0], s[1] = u, v
        _, sup_u, inf_v, sup_v, _ = _extrema(s)
        (du_dt, dv_dt), dt_diff, dt_adv, dt_react = kernel(sup_u, sup_v, inf_v)
        expected = _ref_kernel(g, params)(u, v, sup_u, sup_v)
        assert du_dt.tobytes() == expected[0].tobytes()
        assert dv_dt.tobytes() == expected[1].tobytes()
        assert (dt_diff, dt_react) == (expected[2], expected[4])
        assert min(dt_diff, dt_adv, dt_react) == min(expected[2:])
        exact = expected[3]
        if dt_adv != exact:
            assert min(dt_diff, dt_react) < dt_adv <= exact


@st.composite
def step_cases(draw, chi0=st.floats(0.0, 5.0), k=st.floats(-5.0, 5.0),
               mu=st.floats(1e-6, 50.0)):
    """A random admissible model and nonnegative (u, v) on a 1D or 2D grid."""
    dim = draw(st.sampled_from([1, 2]))
    cells = tuple(draw(st.integers(4, 16)) for _ in range(dim))
    grid = Grid(cells, tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim)))
    m = draw(st.floats(0.2, 3.0))
    params = ModelParams(n=dim, m=m, alpha=draw(st.floats(-2.0, (m + 1.0) / 2.0,
                                                           exclude_max=True)),
                         k=draw(k), mu=draw(mu), chi0=draw(chi0),
                         a=draw(st.floats(0.0, 3.0)))
    u = draw(arrays(float, cells, elements=st.floats(0.0, 10.0)))
    v = draw(arrays(float, cells, elements=st.floats(0.0, 3.0)))
    return SimState(0.0, ScalarField(grid, u), ScalarField(grid, v)), params


class TestStepProperties:
    """One step at ``stable_dt`` from random admissible data."""

    @settings(max_examples=60, deadline=None)
    @given(case=step_cases())
    def test_signal_stays_between_zero_and_its_initial_sup(self, case):
        state, params = case
        cfg = SolverConfig(t_end=1.0)
        v0_sup = float(state.v.values.max())
        new, out = step(state, params, cfg, v0_sup=v0_sup)
        assert out.dt_used == stable_dt(state, params, cfg)
        assert new.v.values.min() >= -U_NEG_TOL
        assert new.v.values.max() <= v0_sup * (1.0 + V_SUP_REL_TOL)

    @settings(max_examples=60, deadline=None)
    @given(case=step_cases(chi0=st.just(0.0)))
    def test_density_stays_nonnegative_without_drift(self, case):
        # with drift on, positivity needs more than u >= 0: see
        # TestStep.test_drift_out_of_an_empty_cell_is_corrupted
        state, params = case
        new, out = step(state, params, SolverConfig(t_end=1.0),
                        v0_sup=float(state.v.values.max()))
        assert out.status == ADVANCED
        assert new.u.values.min() >= -U_NEG_TOL

    @settings(max_examples=60, deadline=None)
    @given(case=step_cases(k=st.just(0.0), mu=st.just(1e-20)))  # ModelParams rejects mu = 0
    def test_mass_conserved_without_sources(self, case):
        state, params = case
        new, _ = step(state, params, SolverConfig(t_end=1.0),
                      v0_sup=float(state.v.values.max()))
        before, after = state.u.values.sum(), new.u.values.sum()
        assert abs(after - before) <= 1e-13 * (before + state.u.values.size)
