"""Positivity-aware explicit finite-volume solver for the coupled system.

    u_t = div( (u+1)^(m-1) grad u - (u+1)^alpha chi(v) grad v ) + k u - mu u^2
    v_t = lap v - u v

on a zero-flux rectangular grid.  Time stepping is forward Euler with an
adaptive step bounded by diffusive, advective and reaction limits; the
advective flux upwinds its transported factor by the drift sign.  Fluxes are
assembled face-wise with zero boundary faces, so with k = mu = 0 the total
mass of u is conserved to round-off regardless of the nonlinearity.

One kernel, ``_kernel``, computes every operator (face fluxes, divergence,
lap v, the step limits) for ``step``, ``stable_dt`` and ``run``.  The march
holds u and v stacked in one ``(2, *shape)`` state, updated in place by each
step, and its rates in one more, both allocated once per run; its scratch is
the grid's work arrays (``grid._work``), shared with the monitor record and
held as ``grid`` describes.  The kernel reads the state and the rates as
one flat run of 2n entries, u's cells then v's, so each axis's faces are two
offset views of one contiguous block and one ufunc call serves both fields;
the pairs that join u's last line to v's first are zeroed right after the
face difference.  The hook and the result get a ``SimState`` over read-only
views of the march state, never a copy.  One min/max reduction per step,
``_extrema``, gives the extrema that the invariant checks, the kernel's step
limits and the hook all read.

Loss of boundedness is detected numerically: a run ends ``blowup_detected``
when sup u exceeds a threshold, ``dt_underflow`` when the stable step
underflows, and ``corrupted`` when the update violates positivity or the
signal maximum principle beyond round-off tolerances; u is never clipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import ModelParams
from .errors import CorruptionError, DomainError
from .grid import Grid, ScalarField, _spacing_divisor, _work

# Tolerances for the scheme-level invariants: u may dip to -1e-12 from round-off;
# v may exceed its initial sup by 1e-10 relative.  Anything worse is corrupted.
U_NEG_TOL = 1e-12
V_SUP_REL_TOL = 1e-10
# Relative slack on (sup u + 1)^alpha in the advective bound: well above the
# few-ulp error of any libm or numpy pow, so no cell's power exceeds it.
POW_SLACK = 1.0 + 1e-9

ADVANCED = "advanced"
BLOWUP = "blowup_detected"
DT_UNDERFLOW = "dt_underflow"
CORRUPTED = "corrupted"
COMPLETED = "completed"
STEP_BUDGET = "step_budget_exceeded"


@dataclass
class SolverConfig:
    """March settings; a set ``cadence_time`` replaces ``cadence_steps`` (see ``run``)."""

    t_end: float
    safety: float = 0.4
    dt_min: float = 1e-12
    u_max: float = 1e6
    max_steps: int = 50_000_000
    cadence_steps: int | None = None
    cadence_time: float | None = None

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise DomainError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0.0 < self.safety <= 1.0:
            raise DomainError("safety must lie in (0, 1]")
        if not 0.0 < self.dt_min < math.inf:
            raise DomainError(f"dt_min must be positive and finite, got {self.dt_min}")
        if not self.u_max > 0.0:
            raise DomainError("u_max must be positive")
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")
        if self.cadence_steps is not None and self.cadence_steps < 1:
            raise DomainError("cadence_steps must be >= 1")
        if self.cadence_time is not None and not self.cadence_time > 0.0:
            raise DomainError("cadence_time must be positive")


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
    reason: str | None = None   # why the monitor hook ended the run ``corrupted``


def _kernel(grid: Grid, params: ModelParams):
    """Build the march state and the rates-and-limits kernel for ``grid`` and ``params``.

    Returns the stacked ``[u; v]`` state ``s`` and ``rates(sup_u, sup_v, inf_v)
    -> (R, dt_diff, dt_adv, dt_react)`` at ``s``, which writes ``R = [du_dt; dv_dt]``
    into the kernel's one rates buffer.  du_dt is the divergence of the face flux D_face
    grad u - (u+1)^alpha w, zero on boundary faces, plus k u - mu u^2: D_face
    is the face mean of (u+1)^(m-1), w = chi(v_face) grad v, and (u+1)^alpha
    comes from the upwind cell.  dv_dt is lap v - u v.  The limits are
    unscaled: diffusive with max(1, max (u+1)^(m-1)), as v diffuses with unit
    diffusivity; advective on the speed |w| (u+1)^max(alpha, 0) over both
    cells of a face; reaction with sup u, the consumption rate of v, added so
    the v update stays convex.  Face views on ``grid._work``'s arrays are made
    here once, and one call on the face buffer serves u and v alike.  The faces are
    scaled by 1/h through ``grid``'s spacing rule, chosen once per axis here,
    and alpha = m - 1 takes both powers from one buffer.  Every per-step
    constant operand but dt and the exponents is a 0-d float64 array built
    here, which a ufunc takes faster than a Python float.  The first axis
    sets each rate entry k < 2n - st to F + 0.0 (the bits of ``0.0 + F``), so
    only v's last st entries start from a fill with +0.0.

    ``s`` and ``R`` are read as one flat run of 2n entries, u's cells then
    v's, each in row-major order, so that each ufunc runs on one contiguous
    block for both fields.  The faces of an axis with flat stride ``st``
    (``ny`` for the first axis of a 2D grid, 1 for the last axis and in 1D)
    pair entry k with entry k + st: the offset views ``run[:-st]`` and
    ``run[st:]``.  Two kinds of pair are not faces.  The junction, the st
    pairs at k in [n - st, n), joins u's last line to v's first; it is set
    to +0.0 in F right after the difference, which cannot overflow as u, v
    >= 0, before any scaling.  On the last axis of a 2D grid, the pairs at
    k = ny-1 (mod ny) join one row's last cell to the next row's first (the
    junction among them); whatever the cells hold, overflow included, they
    are set to +0.0 in the speed before its max and in the flux before the
    divergence.  That leaves the rates bit for bit as a row-by-row loop
    would: after the first axis no rate entry is -0.0 (each is +0.0 or
    ``x + 0.0``, which is never -0.0, and then gets ``a - b``, which is -0.0
    only where a is), so adding and subtracting a +0.0 pair changes nothing.
    The row-joining pairs are still computed before they are zeroed, so
    where one of them alone overflows (v ~ 1e154 on both sides, say) numpy
    prints a RuntimeWarning that a row-by-row loop would not; the rates are
    unaffected.

    ``inf_v``, the least v of ``s`` (``-inf``, the default, for "not known"),
    lets ``rates`` skip the speed pass (abs, the donor-factor max and multiply,
    and a max-reduce per axis) when the extrema prove that the advective limit
    cannot set the step.  With inf_v >= 0, chi0 > 0 and h_min > 0, it takes

        B = chi0 * ((sup_v - inf_v) / h_min), times
            ((sup_u + 1) ** alpha) * POW_SLACK when alpha > 0,

    in Python floats, and skips when h_min / (2 dim B) > min(dt_diff,
    dt_react), both computed first; a tie computes the exact limit.  A
    skipped pass returns dt_adv as that bound, or inf when B = 0; R and the
    min of the three limits are bit for bit those of the exact pass.  The
    proof: every operation rounds monotonically.  A face's v difference is
    at most sup_v - inf_v in size, so rounded it is at most fl(sup_v -
    inf_v), and after the scaling by 1/h, which gives the quotient's bits, at
    most fl(fl(sup_v - inf_v) / h_min).  The chi factor is chi0 divided by
    the square of fl(fl(v_l + v_r) a/2) + 1, which is at least 1 as v >= 0 and
    a >= 0, so it is at most chi0, and |w| is at most chi0 times the scaled
    difference: at most B.  When alpha > 0 each cell's (u+1)^alpha is a pow
    of fl(u + 1) <= fl(sup_u + 1), off the exact power by a few ulps, and
    POW_SLACK covers that and the bound's own roundings, so the speed |w|
    max(t_l, t_r) is at most B too.  The computed speed max is then at most
    B, the computed dt_adv at least the bound, and the bound above the min
    leaves the min unchanged.  B = 0 makes every speed 0 and dt_adv inf
    either way.  A bound that overflows gives 0 and a NaN bound fails the
    test, so both compute the exact limit; so does a negative inf_v (down to
    -U_NEG_TOL after a step), where the chi factor may exceed chi0.  On a
    uniform grid where diffusion binds, the skip fires when chi0 (sup v - inf
    v) (sup u + 1)^max(alpha, 0) < max(1, max (u+1)^(m-1)): on every step of
    ``configs/example.ini``, whose constant v0 is only slowly consumed, and
    on none once chi0 = 5 and v0 = cosine(amplitude=0.5, mode=1, floor=1).
    """
    m, alpha, chi0, k, mu = params.m, params.alpha, params.chi0, params.k, params.mu
    h = grid.spacing
    # hx**2 underflows to 0 on a tiny domain; inf makes the diffusive limit 0,
    # so the run ends dt_underflow.  An axis whose hx**2 overflows bounds nothing.
    inv_h2 = 0.0
    for hx in h:
        try:
            inv_h2 += 1.0 / hx**2 if hx**2 else math.inf
        except OverflowError:   # a Python float power raises where numpy gives inf
            pass
    dt_diff_linear = 1.0 / (2.0 * inv_h2) if inv_h2 else math.inf
    h_min, two_dim, abs_k, two_mu = min(h), 2.0 * grid.dim, abs(k), 2.0 * mu
    bounded = chi0 != 0.0 and h_min > 0.0   # a spacing can underflow to 0
    pow_alpha = alpha if alpha > 0.0 and chi0 != 0.0 else None   # speed carries (u+1)^alpha
    zero, half, one, a_half, chi0_, k_, mu_ = (
        np.array(x, float) for x in (0.0, 0.5, 1.0, params.a * 0.5, chi0, k, mu))
    shape, n = grid.shape, math.prod(grid.shape)
    s, R = np.empty((2, *shape)), np.empty((2, *shape))
    s_run, R_run = s.reshape(2 * n), R.reshape(2 * n)
    u, v, du_dt, dv_dt = s_run[:n], s_run[n:], R_run[:n], R_run[n:]
    # The grid's work arrays serve the axes, one after another, then the reaction terms.
    faces_run, c1, c2 = (b.reshape(-1) for b in _work(shape))
    mask_run = np.empty(n, dtype=bool)
    coef = None if m == 1.0 else np.empty(n)
    trans = (None if alpha == 0.0 or chi0 == 0.0
             else coef if alpha == m - 1.0 else np.empty(n))
    powers = [] if coef is None else [(coef, m - 1.0)]
    if trans is not None and trans is not coef:   # alpha = m - 1 shares coef's powers
        powers.append((trans, alpha))
    R_tail = R_run[2 * n - math.prod(shape[1:]):]   # v's last line: no R_lo of the first axis
    faces = []
    for axis, hx in enumerate(h):
        st = math.prod(shape[axis + 1:])
        lo, hi = slice(0, n - st), slice(st, n)
        F = faces_run[:2 * n - st]   # [u's faces; junction; v's faces]
        w, s1, mask = (b[:n - st] for b in (c1, c2, mask_run))
        # An axis with an outer axis is, on a grid of at most two axes, the
        # last axis of a 2D grid (st = 1): its joining pairs, else None.
        join = slice(shape[axis] - 1, None, shape[axis]) if st * shape[axis] < n else None
        joins = (None, None) if join is None else (s1[join], F[join])   # in speed, in F
        c_lh = (None, None) if coef is None else (coef[lo], coef[hi])
        t_lh = (None, None) if trans is None else (trans[lo], trans[hi])
        R_lo = R_run[:2 * n - st]
        gain = (F, zero) if axis == 0 else (R_lo, F)   # R_lo = gain[0] + gain[1]: sets, then adds
        scale, by = _spacing_divisor(hx)
        faces.append((scale, np.array(by, float), F[n - st:n], *joins, s_run[:2 * n - st],
                      s_run[st:], v[lo], v[hi], F, F[:n - st], F[n:], *gain, R_lo,
                      R_run[st:], *c_lh, *t_lh, w, s1, mask))

    add, subtract, multiply, divide, maximum = (   # bound once
        np.add, np.subtract, np.multiply, np.divide, np.maximum)

    def rates(sup_u: float, sup_v: float, inf_v: float = -math.inf):
        # Each ufunc call writes into its last argument and returns it.
        if powers:
            for buf, exponent in powers:   # (u+1)^(m-1), (u+1)^alpha
                add(u, one, buf)
                buf **= exponent   # in place, ** keeps numpy's fast paths (sqrt, square)
        dt_diff = (dt_diff_linear if coef is None or not inv_h2
                   else 1.0 / (2.0 * max(1.0, float(maximum.reduce(coef))) * inv_h2))
        dt_react = 1.0 / (abs_k + two_mu * sup_u + sup_u + sup_v + 1.0)
        exact = True   # the speed pass runs unless the extrema prove it cannot bind
        if bounded and inf_v >= 0.0:
            speed_bound = chi0 * ((sup_v - inf_v) / h_min)
            if pow_alpha is not None:
                try:
                    speed_bound *= (sup_u + 1.0) ** pow_alpha * POW_SLACK
                except OverflowError:
                    speed_bound = math.inf
            dt_adv = math.inf if speed_bound == 0.0 else h_min / (two_dim * speed_bound)
            exact = not dt_adv > min(dt_diff, dt_react)
        R_tail.fill(0.0)
        speed_max = 0.0
        for (scale, by, junction, speed_join, F_join, s_lo, s_hi, v_l, v_r, F, f_u, f_v,
             g0, g1, R_lo, R_hi, c_l, c_r, t_l, t_r, w, s1, mask) in faces:
            subtract(s_hi, s_lo, F)
            junction.fill(0.0)
            scale(F, by, F)   # F = [grad u; 0; grad v], scale(x, by) = x / h
            if coef is not None:   # D_face grad u
                multiply(multiply(add(c_l, c_r, s1), half, s1), f_u, f_u)
            if chi0 != 0.0:   # w = chi0 / (1 + a v_face)^2 grad v
                add(multiply(add(v_l, v_r, w), a_half, w), one, w)
                multiply(divide(chi0_, np.square(w, w), w), f_v, w)
                f_chem = w
                if trans is not None:   # the donor cell's factor, by the sign of w
                    f_chem = multiply(t_r, w, s1)
                    multiply(t_l, w, s1, where=np.greater(w, zero, mask))
                subtract(f_u, f_chem, f_u)
                if exact:
                    speed = np.abs(w, s1)
                    if pow_alpha is not None:
                        multiply(speed, maximum(t_l, t_r, out=w), speed)
                    if speed_join is not None:
                        speed_join.fill(0.0)
                    speed_max = max(speed_max, float(maximum.reduce(speed)))
            scale(F, by, F)           # F = [flux; 0; dv/h]
            if F_join is not None:
                F_join.fill(0.0)
            add(g0, g1, R_lo)         # divergence: each cell gains its right face
            subtract(R_hi, F, R_hi)   # and loses its left one; boundary faces are 0
        subtract(multiply(u, k_, c1), multiply(multiply(u, mu_, c2), u, c2), c1)
        add(du_dt, c1, du_dt)                        # += k u - mu u^2
        subtract(dv_dt, multiply(u, v, c1), dv_dt)   # -= u v
        if exact:
            dt_adv = h_min / (two_dim * speed_max) if speed_max > 0.0 else math.inf
        return R, dt_diff, dt_adv, dt_react

    return s, rates


_min, _max = np.minimum.reduce, np.maximum.reduce
Extrema = tuple[float, float, float, float, bool]   # min u, max u, min v, max v, finite


def _extrema(s: np.ndarray) -> Extrema:
    """min u, max u, min v, max v of a stacked state, and whether all four are
    finite: NaN propagates into both extrema of its field, inf into one."""
    flat = s.reshape(2, -1)
    (u_lo, v_lo), (u_hi, v_hi) = _min(flat, 1).tolist(), _max(flat, 1).tolist()
    finite = -math.inf < u_lo and u_hi < math.inf and -math.inf < v_lo and v_hi < math.inf
    return u_lo, u_hi, v_lo, v_hi, finite


def _load(state: SimState, params: ModelParams):
    """The stacked march state holding ``state``, its kernel, and its extrema."""
    s, rates = _kernel(state.u.grid, params)
    s[0], s[1] = state.u.values, state.v.values
    return s, rates, _extrema(s)


def stable_dt(state: SimState, params: ModelParams, config: SolverConfig) -> float:
    """Largest stable step at the current state, already scaled by ``safety``."""
    _, rates, (_, sup_u, inf_v, sup_v, finite) = _load(state, params)
    if not finite:
        raise CorruptionError("non-finite state")
    return config.safety * min(rates(sup_u, sup_v, inf_v)[1:])


def _advance(rates, s: np.ndarray, extrema: Extrema, t: float, t_target: float | None,
             config: SolverConfig, v_cap: float):
    """One forward-Euler step of the finite state ``s``, whose ``_extrema`` are
    ``extrema``, in place: returns ``(status, dt, t_new, extrema_new)``.  On
    DT_UNDERFLOW, dt is the stability bound, ``s`` is untouched and the rest
    comes back unchanged; otherwise ``s`` holds the update, even a rejected one."""
    _, sup_u, inf_v, sup_v, _ = extrema
    R, dt_diff, dt_adv, dt_react = rates(sup_u, sup_v, inf_v)
    dt = config.safety * min(dt_diff, dt_adv, dt_react)
    if dt < config.dt_min:
        return DT_UNDERFLOW, dt, t, extrema
    t_new = t + dt
    if t_target is not None and t_new >= t_target:
        dt, t_new = t_target - t, t_target
    np.add(s, np.multiply(R, dt, R), s)
    extrema = u_lo, u_hi, v_lo, v_hi, finite = _extrema(s)
    status = (CORRUPTED if not finite or u_lo < -U_NEG_TOL or v_lo < -U_NEG_TOL or v_hi > v_cap
              else BLOWUP if u_hi > config.u_max else ADVANCED)
    return status, dt, t_new, extrema


def step(state: SimState, params: ModelParams, config: SolverConfig, *,
         v0_sup: float, t_target: float | None = None) -> tuple[SimState, StepOutcome]:
    """Advance one forward-Euler step into a new state; the input is never mutated.

    The step size is the stability bound, clipped so the run lands exactly on
    ``t_target`` (end time or next output time) when one is given.  Underflow
    is judged on the unclipped stability bound.
    """
    s, rates, extrema = _load(state, params)
    if not extrema[4]:
        return state, StepOutcome(CORRUPTED, 0.0, extrema[1])
    status, dt, t, (_, sup_u, *_) = _advance(rates, s, extrema, state.t, t_target, config,
                                             v0_sup * (1.0 + V_SUP_REL_TOL))
    if status == DT_UNDERFLOW:
        return state, StepOutcome(status, dt, sup_u)
    u, v = (ScalarField(state.u.grid, f) for f in s)   # the fields of _load's fresh buffer
    return SimState(t, u, v), StepOutcome(status, dt, sup_u)


# A hook gets a state, the step that reached it and the state's ``_extrema``.
# Past the initial state, the state is read-only and valid during the call
# only: to keep it, copy it.
MonitorHook = Callable[[SimState, float, Extrema], None]


def run(initial: SimState, params: ModelParams, config: SolverConfig,
        monitor_hook: MonitorHook | None = None) -> RunResult:
    """March the system to t_end, blow-up, step underflow, corruption or ``max_steps``.

    The hook fires on the initial state, every ``cadence_steps`` steps or, if
    ``cadence_time`` is set, at its exact multiples instead, on the state at
    t_end, and on a blow-up state.  A final state that ends ``dt_underflow``
    or ``step_budget_exceeded``, or that the invariant checks end
    ``corrupted``, is never hooked: the gap that ROADMAP's "every outcome
    explains itself" item closes.  A ``CorruptionError`` from the hook (say, phi
    overflowing) ends the run ``corrupted`` on the hooked state, with the
    error's message as the result's ``reason``.  Initial data must be
    nonnegative and finite; the march never writes into it.  Past the initial
    state, the hook and the result get one ``SimState`` of read-only views of
    the march's own state: valid during a hook call only, fixed once ``run``
    returns.  With each state the hook gets its ``_extrema``, ``(min u, max
    u, min v, max v, finite)``, which also carry over from a step's
    post-update check into the next step's limits.  Overflow in the march and
    its hook is silent: each inf fails the finite flag or is the right limit.
    """
    with np.errstate(over="ignore"):
        s, rates, extrema = _load(initial, params)
        u_lo, sup_u, v_lo, sup_v, finite = extrema
        if not finite:
            raise CorruptionError("non-finite initial data")
        if u_lo < 0.0 or v_lo < 0.0:
            raise DomainError("initial data must be nonnegative")
        frozen = s.view()
        frozen.flags.writeable = False
        march = SimState(initial.t, *(ScalarField(initial.u.grid, f) for f in frozen))
        v_cap = sup_v * (1.0 + V_SUP_REL_TOL)
        t, t_end = initial.t, config.t_end
        every_time = config.cadence_time
        every_steps = config.cadence_steps if every_time is None else None
        status = BLOWUP if sup_u > config.u_max else ADVANCED
        sup_u_max, steps, out_index, hooked_t, reason = sup_u, 0, 1, None, None
        dt, on_time = 0.0, False
        while True:
            if monitor_hook is not None and t != hooked_t and (
                    steps == 0 or status == BLOWUP or on_time or t == t_end
                    or (every_steps is not None and steps % every_steps == 0)):
                march.t = hooked_t = t
                try:
                    monitor_hook(march if steps else initial, dt, extrema)
                except CorruptionError as exc:
                    status, reason = CORRUPTED, str(exc)
                    break
            if status == BLOWUP or not t < t_end:
                break
            if steps >= config.max_steps:
                status = STEP_BUDGET
                break
            t_target = t_end if every_time is None else min(t_end, out_index * every_time)
            status, dt, t, extrema = _advance(rates, s, extrema, t, t_target, config, v_cap)
            if status == DT_UNDERFLOW:
                break
            steps += 1
            sup_u_max = max(sup_u_max, extrema[1])
            if status == CORRUPTED:
                break
            on_time = every_time is not None and t == out_index * every_time
            if on_time:
                out_index += 1
        march.t = t
        return RunResult(COMPLETED if status == ADVANCED else status, march if steps else initial,
                         steps, sup_u_max, reason)
