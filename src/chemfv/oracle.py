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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certificates import compute_p_bar, d3_constant, pbar_relation_margins
from .errors import DomainError
from .grid import Grid, ScalarField, gradient_cells, hessian, integrate, random_smooth_field

POINTWISE_SLACK = 1e-12
ADDITIVE_SLACK = 1e-9
H_SLACK = 1.0  # coefficient of the O(h) relative slack of the integral check
GN_MAX_FIELDS = 200


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


def _trial_field(cfg: OracleConfig, index: int) -> ScalarField:
    return random_smooth_field(cfg.grid, (cfg.seed, index), cfg.num_modes)


def _interior(arr: np.ndarray, dim: int) -> np.ndarray:
    return arr[(...,) + (slice(1, -1),) * dim]


def laplacian_hessian_margin(f: ScalarField) -> float:
    """Min over interior cells of the normalized margin of (lap f)^2 <= n |D2 f|^2."""
    dim = f.grid.dim
    hess = _interior(hessian(f), dim)
    lap = hess[0, 0]
    for axis in range(1, dim):
        lap = lap + hess[axis, axis]
    lhs = lap**2
    rhs = dim * (hess**2).sum(axis=(0, 1))
    margin = (rhs - lhs) / (1.0 + lhs + rhs)
    return float(margin.min())


def hessian_gradient_margin(f: ScalarField) -> float:
    """Min normalized margin of |D2 f grad f|^2 <= |D2 f|^2 |grad f|^2 (interior)."""
    dim = f.grid.dim
    hess = _interior(hessian(f), dim)
    grads = np.stack([_interior(g, dim) for g in gradient_cells(f)])
    hg = np.einsum("ij...,j...->i...", hess, grads)
    lhs = (hg**2).sum(axis=0)
    rhs = (hess**2).sum(axis=(0, 1)) * (grads**2).sum(axis=0)
    margin = (rhs - lhs) / (1.0 + lhs + rhs)
    return float(margin.min())


def gradient_power_sides(f: ScalarField, q: float) -> tuple[float, float]:
    """Both sides of the integral inequality

        int |grad f|^(2q+2) <= 2 (4 q^2 + n) sup|f|^2 int |grad f|^(2q-2) |D2 f|^2

    evaluated with cell-centered gradients and Hessians.
    """
    grid = f.grid
    n = grid.dim
    grads = np.stack(gradient_cells(f))
    gsq = (grads**2).sum(axis=0)
    hess = hessian(f)
    hsq = (hess**2).sum(axis=(0, 1))
    lhs = integrate(ScalarField(grid, gsq ** (q + 1.0)))
    sup_f = float(np.abs(f.values).max())
    rhs = 2.0 * (4.0 * q**2 + n) * sup_f**2 * integrate(ScalarField(grid, gsq ** (q - 1.0) * hsq))
    return lhs, rhs


def _field_verdict(cfg: OracleConfig, name: str, margin, slack: float) -> OracleVerdict:
    """Worst ``margin(field)`` over the trial fields; passes above ``-slack``."""
    worst = math.inf
    for i in range(cfg.trials):
        worst = min(worst, margin(_trial_field(cfg, i)))
    return OracleVerdict(name, cfg.trials, worst, worst >= -slack, slack)


def verify_laplacian_vs_hessian(cfg: OracleConfig) -> OracleVerdict:
    return _field_verdict(cfg, "laplacian_vs_hessian", laplacian_hessian_margin,
                          POINTWISE_SLACK)


def verify_hessian_gradient(cfg: OracleConfig) -> OracleVerdict:
    return _field_verdict(cfg, "hessian_gradient_cauchy_schwarz", hessian_gradient_margin,
                          POINTWISE_SLACK)


def verify_gradient_power_hessian(cfg: OracleConfig, q: float | None = None,
                                  f_sup_normalizer: float | None = None) -> OracleVerdict:
    """Integral check with slack 1e-9 + H_SLACK * max(h) (relative); ``q`` overrides cfg.q."""
    if q is not None:
        cfg = replace(cfg, q=q)

    def margin(f: ScalarField) -> float:
        if f_sup_normalizer is not None:
            sup = float(np.abs(f.values).max())
            if sup > 0.0:
                f = ScalarField(f.grid, f.values * (f_sup_normalizer / sup))
        lhs, rhs = gradient_power_sides(f, cfg.q)
        return (rhs - lhs) / (1.0 + lhs + rhs)

    return _field_verdict(cfg, "gradient_power_hessian", margin,
                          ADDITIVE_SLACK + H_SLACK * max(cfg.grid.spacing))


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
    ratio.  Reported for information; only finiteness is ever asserted.
    """
    n = cfg.grid.dim
    theta = (1.0 - 0.5) / (1.0 - 0.5 + 1.0 / n)
    best = 0.0
    for i in range(min(cfg.trials, GN_MAX_FIELDS)):
        f = _trial_field(cfg, i)
        vol = f.grid.cell_volume
        l2 = math.sqrt(vol * float((f.values**2).sum()))
        l1 = vol * float(np.abs(f.values).sum())
        grads = np.stack(gradient_cells(f))
        g2 = math.sqrt(vol * float((grads**2).sum()))
        denom = g2**theta * l1 ** (1.0 - theta) + l1
        if denom > 1e-300:
            best = max(best, l2 / denom)
    return best
