"""Solver kernels, stability bound, step outcomes and run-level invariants."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chemfv import (CorruptionError, DomainError, Grid, ModelParams, ScalarField,
                    SimState, SolverConfig, constant_field, field_from_function, integrate,
                    laplacian, run, stable_dt, step)
from chemfv.solver import (ADVANCED, BLOWUP, COMPLETED, CORRUPTED, DT_UNDERFLOW,
                           U_NEG_TOL, V_SUP_REL_TOL, _kernel)


def params_1d(**overrides):
    base = dict(n=1, m=1.0, alpha=0.0, k=0.0, mu=1.0, chi0=1.0, a=0.0, b=2.0)
    base.update(overrides)
    return ModelParams(**base)


def rates(u, v, params):
    """The kernel's (du_dt, dv_dt, dt_diff, dt_adv, dt_react) at (u, v)."""
    return _kernel(u.grid, params)(u.values, v.values, float(u.values.max()),
                                   float(v.values.max()))


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
                                 a=0.7, b=2.0)
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
        params = ModelParams(n=2, m=1.6, alpha=0.7, k=0.5, mu=2.0, chi0=1.3, a=0.7, b=2.0)
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
                             a=0.5, b=2.0)
        u0 = field_from_function(g, lambda x: 0.1 + np.exp(-((x - 0.5) ** 2) / 0.01))
        v0 = field_from_function(g, lambda x: 0.5 + 0.5 * np.cos(np.pi * x))
        masses = []
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=0.2, output_every_steps=50),
                     lambda s, dt: masses.append(integrate(s.u)))
        assert result.status == COMPLETED
        masses = np.array(masses)
        assert np.abs(masses - masses[0]).max() <= 1e-12 * masses[0]

    def test_logistic_decay_tracks_ode(self):
        g = Grid.line(4, 1.0)
        params = params_1d(chi0=0.0, k=0.0, mu=1.0)
        records = []
        result = run(SimState(0.0, constant_field(g, 1.0), constant_field(g, 1.0)),
                     params, SolverConfig(t_end=1.0, output_every_steps=1),
                     lambda s, dt: records.append((s.t, float(s.u.values[0]))))
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
            SolverConfig(t_end=0.2, output_every_steps=1),
            lambda s, dt: trace.append((dt, s.u.values.copy(), s.v.values.copy())))
        u, v = 1.0, 1.0
        for dt, u_arr, v_arr in trace[1:]:
            v = v * (1.0 - dt * u)  # consumption uses the pre-step u
            u = u + dt * (0.5 * u - u * u)
            assert np.all(u_arr == u_arr[0]) and np.all(v_arr == v_arr[0])
            assert u_arr[0] == pytest.approx(u, abs=1e-15)
            assert v_arr[0] == pytest.approx(v, abs=1e-15)

    def test_positivity_and_max_principle_on_bump_run(self):
        g = Grid.line(96, 1.0)
        params = ModelParams(n=1, m=1.0, alpha=0.0, k=1.0, mu=2.0, chi0=1.0, a=1.0, b=2.0)
        u0 = field_from_function(
            g, lambda x: 0.05 + 0.4 * np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2)))
        v0 = constant_field(g, 1.0)
        sup_vs, min_us = [], []
        result = run(SimState(0.0, u0, v0), params,
                     SolverConfig(t_end=0.5, output_every_steps=200),
                     lambda s, dt: (sup_vs.append(float(s.v.values.max())),
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

    def test_step_cadence_hook_count(self):
        g = Grid.line(16, 1.0)
        times = []
        result = run(SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0)),
                     params_1d(), SolverConfig(t_end=0.01, output_every_steps=3),
                     lambda s, dt: times.append(s.t))
        assert result.status == COMPLETED
        assert times[0] == 0.0 and times[-1] == 0.01
        # hooks at t=0, every 3rd step, and the final step
        assert len(times) >= 3

    def test_time_cadence_lands_exactly(self):
        g = Grid.line(16, 1.0)
        times = []
        result = run(SimState(0.0, constant_field(g, 0.0), constant_field(g, 1.0)),
                     params_1d(), SolverConfig(t_end=0.01, output_every_time=0.002),
                     lambda s, dt: times.append(s.t))
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
        params = ModelParams(n=dim, m=m, alpha=alpha, k=0.5, mu=1.5, chi0=chi0, a=0.7, b=2.0)
        dt0 = stable_dt(SimState(0.0, u0, v0), params, SolverConfig(t_end=1.0))
        cfg = SolverConfig(t_end=40.5 * dt0, output_every_steps=1)
        hooked = []
        result = run(SimState(0.0, u0, v0), params, cfg,
                     lambda s, dt: hooked.append((s, dt)))
        assert result.status == COMPLETED
        assert len(hooked) == result.steps + 1 > 5

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
                         a=draw(st.floats(0.0, 3.0)), b=2.0)
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
