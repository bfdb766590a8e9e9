"""Numerical verification of the standalone functional and algebraic inequalities.

Three kinds of checks, with tolerances matched to what each one can honestly
promise:

* Pointwise matrix/vector inequalities ((lap f)^2 <= n |D2 f|^2 and the
  Cauchy-Schwarz bound |D2 f grad f|^2 <= |D2 f|^2 |grad f|^2) hold for ANY
  symmetric matrix and vector, so they are tested on the raw discrete Hessian
  and gradient values with round-off slack only (1e-12).  A failure here is
  an algebra bug, not discretization error.
* The integral gradient-power inequality is a statement about smooth fields
  with the zero-flux boundary property; test fields are Neumann-compatible
  cosine series and the relative slack is ``1e-9 + H_SLACK * max(h)``, an
  O(h) term for discretization error.
* The Young-combination inequality is pure scalar algebra on random tuples.

Every verdict is deterministic given the master seed: per-trial generators
are derived from (seed, trial_index).  The Gagliardo-Nirenberg estimate looks
at the first ``GN_MAX_FIELDS`` trial fields only.

``verify_fields`` is the one pass over the trial fields.  It builds them in
stacks of ``max(1, TRIAL_BATCH_CELLS // max(cells, num_modes * dim))`` fields,
each drawn from its own generator; each stack's Hessians and gradients come
from one call per grid operator, and the three field checks and the GN
ratios are read from those shared arrays.  Every per-field reduction is one
contiguous row of the stack, summed in the order of the field alone, so each
trial's margins are the ones the field gives by itself.  The per-oracle functions select their
result from the pass.  A margin or ratio that evaluates to NaN (say, a cell
volume that overflows) is never skipped: it makes the worst margin NaN, which
fails the verdict, and makes the GN constant NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .certificates import compute_p_bar, d3_constant, pbar_relation_margins
from .errors import CorruptionError, DomainError
from .grid import (FieldStack, Grid, ScalarField, gradient_cells, hessian, integrate,
                   random_smooth_stack)

POINTWISE_SLACK = 1e-12
ADDITIVE_SLACK = 1e-9
H_SLACK = 1.0  # coefficient of the O(h) relative slack of the integral check
GN_MAX_FIELDS = 200
# Entries per array of a stack of trial fields: the pass builds
# max(1, TRIAL_BATCH_CELLS // max(cells, num_modes * dim)) fields at a time
# (4 at 64^2, 128 on a 128-cell line, 1 at 128^2 with the default 8 modes).
TRIAL_BATCH_CELLS = 16_384


@dataclass
class OracleConfig:
    grid: Grid
    trials: int = 1000
    seed: int = 0
    q: float = 1.0
    num_modes: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if not self.q >= 1.0:
            raise DomainError("q must be >= 1")
        if self.num_modes < 1:
            raise DomainError("num_modes must be >= 1")


@dataclass
class OracleVerdict:
    inequality_name: str
    trials_run: int
    worst_margin: float
    passed: bool
    slack: float


def _interior(arr: np.ndarray, dim: int) -> np.ndarray:
    return arr[(...,) + (slice(1, -1),) * dim]


def _rows(arr: np.ndarray) -> np.ndarray:
    """One row per field of a stack ``(count, ...)``."""
    return arr.reshape(len(arr), -1)


class _StackOps(NamedTuple):
    """A stack of fields with their operators, built once and shared by every check."""

    grid: Grid
    values: np.ndarray    # f, shape (count, *grid.shape)
    hess: np.ndarray      # D2 f, shape (n, n, count, *grid.shape)
    grads: np.ndarray     # grad f, shape (n, count, *grid.shape)
    grads_sq: np.ndarray  # grads**2, per component
    hsq: np.ndarray       # |D2 f|^2 per cell
    gsq: np.ndarray       # |grad f|^2 per cell


def _stack_ops(stack: FieldStack) -> _StackOps:
    hess = hessian(stack)
    grads = gradient_cells(stack)
    grads_sq = grads**2
    return _StackOps(stack.grid, stack.values, hess, grads, grads_sq,
                     (hess**2).sum(axis=(0, 1)), grads_sq.sum(axis=0))


def _min_margins(lhs: np.ndarray, rhs: np.ndarray) -> list[float]:
    return _rows((rhs - lhs) / (1.0 + lhs + rhs)).min(axis=1).tolist()


def _laplacian_hessian(ops: _StackOps) -> list[float]:
    dim = ops.grid.dim
    hess = _interior(ops.hess, dim)
    lap = hess[0, 0]
    for axis in range(1, dim):
        lap = lap + hess[axis, axis]
    return _min_margins(lap**2, dim * _interior(ops.hsq, dim))


def _hessian_gradient(ops: _StackOps) -> list[float]:
    dim = ops.grid.dim
    hess = _interior(ops.hess, dim)
    hg = np.einsum("ij...,j...->i...", hess, _interior(ops.grads, dim))
    return _min_margins((hg**2).sum(axis=0), _interior(ops.hsq, dim) * _interior(ops.gsq, dim))


def _gradient_power(ops: _StackOps, q: float) -> list[tuple[float, float]]:
    grid = ops.grid
    try:
        lhs = integrate(FieldStack(grid, ops.gsq ** (q + 1.0)))
        rhs = integrate(FieldStack(grid, ops.gsq ** (q - 1.0) * ops.hsq))
    except CorruptionError:   # a cell's power is not finite
        raise DomainError(f"gradient_power_hessian: |grad f|^(2q+2) or |grad f|^(2q-2) |D2 f|^2 "
                          f"is not finite at q = {q} on grid spacing {grid.spacing}") from None
    sups = _rows(np.abs(ops.values)).max(axis=1).tolist()
    factor = 2.0 * (4.0 * q**2 + grid.dim)
    return [(l, factor * sup_f**2 * r) for l, sup_f, r in zip(lhs, sups, rhs)]


def _gn_ratios(ops: _StackOps, theta: float, count: int) -> list[float]:
    """||f||_2 / (||grad f||_2^theta ||f||_1^(1-theta) + ||f||_1) of the first
    ``count`` fields; 0 where the denominator is."""
    values = ops.values[:count]
    vol = ops.grid.cell_volume
    grads_sq = np.moveaxis(ops.grads_sq[:, :count], 0, 1)   # each field's components in a row
    ratios = []
    for sq, absolute, gsq in zip(_rows(values**2).sum(axis=1).tolist(),
                                 _rows(np.abs(values)).sum(axis=1).tolist(),
                                 _rows(grads_sq).sum(axis=1).tolist()):
        l2 = math.sqrt(vol * sq)
        l1 = vol * absolute
        g2 = math.sqrt(vol * gsq)
        denom = g2**theta * l1 ** (1.0 - theta) + l1
        ratios.append(0.0 if denom <= 1e-300 else l2 / denom)
    return ratios


def _single(f: ScalarField) -> _StackOps:
    return _stack_ops(FieldStack(f.grid, f.values[None]))


def laplacian_hessian_margin(f: ScalarField) -> float:
    """Min over interior cells of the normalized margin of (lap f)^2 <= n |D2 f|^2."""
    return _laplacian_hessian(_single(f))[0]


def hessian_gradient_margin(f: ScalarField) -> float:
    """Min normalized margin of |D2 f grad f|^2 <= |D2 f|^2 |grad f|^2 (interior)."""
    return _hessian_gradient(_single(f))[0]


def gradient_power_sides(f: ScalarField, q: float) -> tuple[float, float]:
    """Both sides of the integral inequality

        int |grad f|^(2q+2) <= 2 (4 q^2 + n) sup|f|^2 int |grad f|^(2q-2) |D2 f|^2

    evaluated with cell-centered gradients and Hessians.
    """
    return _gradient_power(_single(f), q)[0]


def _worse(worst: float, margin: float) -> float:
    """The smaller margin; NaN is worst of all and sticks."""
    return margin if margin < worst or math.isnan(margin) else worst


def _verdict(name: str, trials: int, worst: float, slack: float) -> OracleVerdict:
    """Passes when the worst margin is at least ``-slack``; a NaN margin fails."""
    return OracleVerdict(name, trials, worst, worst >= -slack, slack)


def _stack_margins(cfg: OracleConfig, start: int, count: int,
                   theta: float) -> list[tuple[float, float, float, float]]:
    """Laplacian-Hessian, Hessian-gradient and gradient-power margins and the
    GN ratio (0 past ``GN_MAX_FIELDS``) of trials ``start`` to ``start + count - 1``.

    The stack's arrays die on return, before the next stack is built.
    """
    seeds = [(cfg.seed, index) for index in range(start, start + count)]
    ops = _stack_ops(random_smooth_stack(cfg.grid, seeds, cfg.num_modes))
    powers = [(rhs - lhs) / (1.0 + lhs + rhs) for lhs, rhs in _gradient_power(ops, cfg.q)]
    gn_count = min(count, max(0, GN_MAX_FIELDS - start))
    ratios = (_gn_ratios(ops, theta, gn_count) if gn_count else []) + [0.0] * (count - gn_count)
    return list(zip(_laplacian_hessian(ops), _hessian_gradient(ops), powers, ratios))


def _stack_size(cfg: OracleConfig) -> int:
    """Trial fields per stack: each stack array (fields, operators, mode
    indices) holds about ``TRIAL_BATCH_CELLS`` entries, and at least one field."""
    per_field = max(math.prod(cfg.grid.shape), cfg.num_modes * cfg.grid.dim)
    return max(1, TRIAL_BATCH_CELLS // per_field)


def verify_fields(cfg: OracleConfig) -> tuple[list[OracleVerdict], float]:
    """The three field oracles and the GN constant in one pass over the trials.

    The trials go in stacks of ``_stack_size(cfg)`` fields, and each stack's
    fields, Hessians and gradients are built by one call per operator.
    Returns the Laplacian-Hessian, Hessian-gradient and gradient-power
    verdicts, in that order, and the GN constant of the first
    ``GN_MAX_FIELDS`` fields.
    """
    theta = (1.0 - 0.5) / (1.0 - 0.5 + 1.0 / cfg.grid.dim)
    batch = _stack_size(cfg)
    lap_worst = hg_worst = power_worst = math.inf
    gn = 0.0
    for start in range(0, cfg.trials, batch):
        for lap, hg, power, ratio in _stack_margins(cfg, start, min(batch, cfg.trials - start),
                                                    theta):
            lap_worst = _worse(lap_worst, lap)
            hg_worst = _worse(hg_worst, hg)
            power_worst = _worse(power_worst, power)
            if ratio > gn or math.isnan(ratio):
                gn = ratio
    power_slack = ADDITIVE_SLACK + H_SLACK * max(cfg.grid.spacing)
    return [
        _verdict("laplacian_vs_hessian", cfg.trials, lap_worst, POINTWISE_SLACK),
        _verdict("hessian_gradient_cauchy_schwarz", cfg.trials, hg_worst, POINTWISE_SLACK),
        _verdict("gradient_power_hessian", cfg.trials, power_worst, power_slack),
    ], gn


def verify_laplacian_vs_hessian(cfg: OracleConfig) -> OracleVerdict:
    return verify_fields(cfg)[0][0]


def verify_hessian_gradient(cfg: OracleConfig) -> OracleVerdict:
    return verify_fields(cfg)[0][1]


def verify_gradient_power_hessian(cfg: OracleConfig, q: float | None = None) -> OracleVerdict:
    """Integral check with slack 1e-9 + H_SLACK * max(h) (relative); ``q`` overrides cfg.q."""
    if q is not None:
        cfg = replace(cfg, q=q)
    return verify_fields(cfg)[0][2]


# Deterministic edge cases prepended to the random Young-combination trials:
# equal exponents (both defect terms vanish in the limit) and the zero corner.
_YOUNG_EDGE_CASES = [
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 0.0, 2.0, 2.0),
    (1.0, 0.0, 2.0, 2.0),
    (1.0, 1.0, 0.5, 0.5),
    (100.0, 100.0, 10.0, 10.0),
    (3.0, 7.0, 2.0, 0.5),
]


def verify_young_combination(cfg: OracleConfig, poison_d3: float = 0.0) -> OracleVerdict:
    """A^d1 + B^d2 >= 2^(-k) (A+B)^k - d3 on random (A, B, d1, d2) tuples.

    A, B are uniform on [0, 100]; d1, d2 log-uniform on [0.1, 10].  The
    ``poison_d3`` hook subtracts from d3 to force a detectable failure in
    negative-control tests.
    """
    rng = np.random.default_rng(cfg.seed)
    worst = math.inf
    count = 0
    for A, B, d1, d2 in _YOUNG_EDGE_CASES:
        worst = min(worst, _young_margin(A, B, d1, d2, poison_d3))
        count += 1
    for _ in range(cfg.trials):
        A, B = rng.uniform(0.0, 100.0, size=2)
        d1, d2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        worst = min(worst, _young_margin(A, B, d1, d2, poison_d3))
        count += 1
    return OracleVerdict("young_combination", count, worst,
                         worst >= -ADDITIVE_SLACK, ADDITIVE_SLACK)


def _young_margin(A: float, B: float, d1: float, d2: float, poison_d3: float) -> float:
    k, d3 = d3_constant(d1, d2)
    d3 -= poison_d3
    lhs = A**d1 + B**d2
    rhs = 2.0 ** (-k) * (A + B) ** k - d3
    return (lhs - rhs) / (1.0 + abs(lhs))


def verify_pbar_relations(cfg: OracleConfig, n: int, m: float, alpha: float,
                          q1: float, q2: float) -> OracleVerdict:
    """All seven exponent relations at p = p_bar and at 20 random p > p_bar."""
    p_bar = compute_p_bar(n, m, alpha, q1, q2)
    rng = np.random.default_rng(cfg.seed)
    ps = [p_bar] + list(p_bar + rng.uniform(0.0, 10.0, size=20))
    worst = math.inf
    for p in ps:
        margins = pbar_relation_margins(n, m, alpha, q1, q2, float(p))
        worst = min(worst, min(margins.values()))
    return OracleVerdict("pbar_relations", len(ps), worst, worst > 0.0, 0.0)


def estimate_gn_constant(cfg: OracleConfig) -> float:
    """Empirical interpolation constant over the first GN_MAX_FIELDS trial fields.

    For the instance ||f||_2 <= C (||grad f||_2^theta ||f||_1^(1-theta) + ||f||_1)
    with theta fixed by the usual scaling balance, return the largest observed
    ratio (NaN if any ratio is NaN).  Reported for information; only
    finiteness is ever asserted.
    """
    return verify_fields(replace(cfg, trials=min(cfg.trials, GN_MAX_FIELDS)))[1]
