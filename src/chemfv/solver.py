"""Positivity-aware explicit finite-volume solver for the coupled system.

    u_t = div( (u+1)^(m-1) grad u - (u+1)^alpha chi(v) grad v ) + k u - mu u^2
    v_t = lap v - u v

on a zero-flux rectangular grid.  Time stepping is forward Euler with an
adaptive step bounded by diffusive, advective and reaction limits; the
advective flux upwinds its transported factor by the drift sign.  Fluxes are
assembled face-wise with zero boundary faces, so with k = mu = 0 the total
mass of u is conserved to round-off regardless of the nonlinearity.

One kernel, ``_kernel``, computes every operator (face fluxes, divergence,
lap v, the step limits) on raw arrays for ``step``, ``stable_dt`` and
``run``.  ``run`` marches on raw arrays and builds a ``SimState`` only
for the monitor hook and the result; ``step`` wraps the same one-step code.

Loss of boundedness is detected numerically: a run ends with
``blowup_detected`` when sup u exceeds a threshold or the stable step
underflows, and with ``corrupted`` when the update violates positivity or the
signal maximum principle beyond round-off tolerances.  Negative values of u
are never clipped; a scheme defect must surface as ``corrupted`` rather than
masquerade as physics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import ModelParams
from .errors import ChemfvError, CorruptionError, DomainError
from .grid import Grid, ScalarField

# Tolerances for the scheme-level invariants: u may dip to -1e-12 from
# round-off; v may exceed its initial sup by 1e-10 relative.  Anything worse
# is a corrupted state.
U_NEG_TOL = 1e-12
V_SUP_REL_TOL = 1e-10

ADVANCED = "advanced"
BLOWUP = "blowup_detected"
DT_UNDERFLOW = "dt_underflow"
CORRUPTED = "corrupted"
COMPLETED = "completed"


@dataclass
class SolverConfig:
    t_end: float
    safety: float = 0.4
    dt_min: float = 1e-12
    u_max: float = 1e6
    max_steps: int = 50_000_000
    output_every_steps: int | None = None
    output_every_time: float | None = None

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise DomainError("t_end must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise DomainError("safety must lie in (0, 1]")
        if not self.dt_min > 0.0:
            raise DomainError("dt_min must be positive")
        if not self.u_max > 0.0:
            raise DomainError("u_max must be positive")
        if self.output_every_steps is not None and self.output_every_steps < 1:
            raise DomainError("output_every_steps must be >= 1")
        if self.output_every_time is not None and not self.output_every_time > 0.0:
            raise DomainError("output_every_time must be positive")


@dataclass
class SimState:
    t: float
    u: ScalarField
    v: ScalarField


@dataclass
class StepOutcome:
    status: str
    dt_used: float
    sup_u: float = math.nan


@dataclass
class RunResult:
    status: str
    state: SimState
    steps: int
    sup_u_max: float


def _kernel(grid: Grid, params: ModelParams):
    """Build the rates-and-limits kernel for ``grid`` and the model ``params``.

    ``rates(u, v, sup_u, sup_v)`` returns ``(du_dt, dv_dt, dt_diff, dt_adv,
    dt_react)``.  ``du_dt`` is the divergence of the interior-face flux
    D_face (u_R - u_L)/h - (u+1)^alpha w plus k u - mu u^2, with zero
    boundary faces: D_face is the face mean of (u+1)^(m-1), the drift
    w = chi(v_face) (v_R - v_L)/h takes the face mean of v, and the factor
    (u+1)^alpha comes from the upwind cell.  ``dv_dt`` is lap v - u v.  The
    step limits are unscaled.  The diffusive one uses max(1, max (u+1)^(m-1)),
    as v diffuses with unit diffusivity.  The advective one bounds the speed
    |w| (u+1)^max(alpha, 0) over both cells of a face.  The reaction one adds
    sup u, the consumption rate of v, so the v update stays a convex
    combination.  Face slices, sum 1/h^2 and the other per-run constants are
    computed here once.
    """
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

    def rates(u: np.ndarray, v: np.ndarray, sup_u: float, sup_v: float):
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
            du_dt[lo] += flux   # divergence: each cell gains its right face
            du_dt[hi] -= flux   # and loses its left one; boundary faces are 0
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


def stable_dt(state: SimState, params: ModelParams, config: SolverConfig) -> float:
    """Largest stable step at the current state, already scaled by ``safety``."""
    u, v = state.u.values, state.v.values
    _, sup_u, _, sup_v, finite = _extrema(u, v)
    if not finite:
        raise CorruptionError("non-finite state")
    return config.safety * min(_kernel(state.u.grid, params)(u, v, sup_u, sup_v)[2:])


def _extrema(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float, float, bool]:
    """min u, max u, min v, max v, and whether all four are finite.

    This stands in for a finiteness pass: NaN propagates into both extrema of
    its array, and an infinity shows in one of them.
    """
    u_lo, u_hi, v_lo, v_hi = float(u.min()), float(u.max()), float(v.min()), float(v.max())
    finite = -math.inf < u_lo and u_hi < math.inf and -math.inf < v_lo and v_hi < math.inf
    return u_lo, u_hi, v_lo, v_hi, finite


def _advance(rates, u: np.ndarray, v: np.ndarray, sup_u: float, sup_v: float, t: float,
             t_target: float | None, config: SolverConfig, v_cap: float):
    """One forward-Euler step of finite arrays whose maxima are ``sup_u``/``sup_v``.

    Returns ``(status, dt, t_new, u_new, v_new, sup_u_new, sup_v_new)``.  On
    DT_UNDERFLOW, dt is the stability bound and everything else comes back
    unchanged.
    """
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
    u_lo, u_hi, v_lo, v_hi, finite = _extrema(u_new, v_new)
    if not finite or u_lo < -U_NEG_TOL or v_lo < -U_NEG_TOL or v_hi > v_cap:
        status = CORRUPTED
    elif u_hi > config.u_max:
        status = BLOWUP
    else:
        status = ADVANCED
    return status, dt, t_new, u_new, v_new, u_hi, v_hi


def step(state: SimState, params: ModelParams, config: SolverConfig, *,
         v0_sup: float, t_target: float | None = None) -> tuple[SimState, StepOutcome]:
    """Advance one forward-Euler step.

    The step size is the stability bound, clipped so the run lands exactly on
    ``t_target`` (end time or next output time) when one is given.  Underflow
    is judged on the unclipped stability bound.  The returned state is a new
    snapshot; the input is never mutated.
    """
    grid = state.u.grid
    u, v = state.u.values, state.v.values
    _, sup_u, _, sup_v, finite = _extrema(u, v)
    if not finite:
        return state, StepOutcome(CORRUPTED, 0.0, sup_u)
    status, dt, t, u_new, v_new, sup_u_new, _ = _advance(
        _kernel(grid, params), u, v, sup_u, sup_v, state.t, t_target, config,
        v0_sup * (1.0 + V_SUP_REL_TOL))
    if status == DT_UNDERFLOW:
        return state, StepOutcome(status, dt, sup_u)
    return (SimState(t, ScalarField(grid, u_new), ScalarField(grid, v_new)),
            StepOutcome(status, dt, sup_u_new))


MonitorHook = Callable[[SimState, float], None]


def run(initial: SimState, params: ModelParams, config: SolverConfig,
        monitor_hook: MonitorHook | None = None) -> RunResult:
    """March the system to t_end, blow-up, step underflow, or corruption.

    The hook fires on the initial state, at the configured cadence (every N
    steps or at exact multiples of the output interval), on the final state,
    and on a blow-up state.  Initial data must be nonnegative and finite.
    Each step's sup u and sup v carry over from its post-update check.
    """
    grid = initial.u.grid
    t, u, v = initial.t, initial.u.values, initial.v.values
    u_lo, sup_u, v_lo, sup_v, finite = _extrema(u, v)
    if not finite:
        raise CorruptionError("non-finite initial data")
    if u_lo < 0.0 or v_lo < 0.0:
        raise DomainError("initial data must be nonnegative")
    v_cap = sup_v * (1.0 + V_SUP_REL_TOL)
    t_end = config.t_end
    every_steps, every_time = config.output_every_steps, config.output_every_time

    sup_u_max = sup_u
    last_hook_t = math.nan

    def hook(state: SimState, dt: float) -> None:
        nonlocal last_hook_t
        if monitor_hook is not None and state.t != last_hook_t:
            monitor_hook(state, dt)
            last_hook_t = state.t

    hook(initial, 0.0)
    if sup_u_max > config.u_max:
        return RunResult(BLOWUP, initial, 0, sup_u_max)

    rates = _kernel(grid, params)
    state = initial
    status = COMPLETED
    steps = 0
    out_index = 1
    while t < t_end:
        if steps >= config.max_steps:
            raise ChemfvError(f"step budget exceeded ({config.max_steps} steps)")
        t_target = t_end if every_time is None else min(t_end, out_index * every_time)
        status, dt, t, u, v, sup_u, sup_v = _advance(rates, u, v, sup_u, sup_v, t, t_target,
                                                     config, v_cap)
        if status == DT_UNDERFLOW:
            break
        steps += 1
        sup_u_max = max(sup_u_max, sup_u)
        state = None
        if status == CORRUPTED:
            break
        on_time = every_time is not None and t == out_index * every_time
        if on_time:
            out_index += 1
        if (status == BLOWUP or on_time or t == t_end
                or (every_steps is not None and steps % every_steps == 0)):
            state = SimState(t, ScalarField(grid, u), ScalarField(grid, v))
            hook(state, dt)
        if status == BLOWUP:
            break
    if state is None:
        state = SimState(t, ScalarField(grid, u), ScalarField(grid, v))
    return RunResult(COMPLETED if status == ADVANCED else status, state, steps, sup_u_max)
