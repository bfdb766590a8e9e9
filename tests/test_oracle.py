"""Inequality oracle checks: pointwise algebra, integral bounds, scalar combinations."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import chemfv.grid
import chemfv.oracle
from chemfv import (DomainError, Grid, ScalarField, compute_p_bar, field_from_function,
                    gradient_cells, hessian, integrate, random_smooth_field)
from chemfv.oracle import (GN_MAX_FIELDS, TRIAL_BATCH_CELLS, OracleConfig, _stack_margins,
                           _stack_size, estimate_gn_constant, gradient_power_sides,
                           hessian_gradient_margin, laplacian_hessian_margin, verify_fields,
                           verify_gradient_power_hessian, verify_hessian_gradient,
                           verify_laplacian_vs_hessian, verify_pbar_relations,
                           verify_young_combination)


class TestOracleConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 0}, "trials must be >= 1"),
        ({"q": 0.5}, "q must be >= 1"),
        ({"num_modes": 0}, "num_modes must be >= 1"),
    ])
    def test_rejects_invalid_settings(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            OracleConfig(grid=Grid.line(8, 1.0), **kwargs)

    def test_q_argument_is_validated(self):
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=1)
        with pytest.raises(DomainError, match="q must be >= 1"):
            verify_gradient_power_hessian(cfg, q=0.5)


class TestPointwiseMargins:
    def test_paraboloid_attains_equality(self):
        # f = x^2 + y^2: (lap f)^2 = 16 equals n |D2 f|^2 = 2 * 8
        g = Grid.rect(16, 16, 1.0, 1.0)
        f = field_from_function(g, lambda x, y: x**2 + y**2)
        assert abs(laplacian_hessian_margin(f)) <= 1e-12

    def test_constant_field(self):
        g = Grid.rect(8, 8, 1.0, 1.0)
        f = ScalarField(g, np.zeros(g.shape))
        assert laplacian_hessian_margin(f) == 0.0
        assert hessian_gradient_margin(f) == 0.0

    def test_1d_is_equality_for_both(self):
        # in one dimension both pointwise inequalities are identities
        g = Grid.line(64, 1.0)
        f = field_from_function(g, lambda x: np.sin(3 * x) + x**3)
        assert abs(laplacian_hessian_margin(f)) <= 1e-12
        assert abs(hessian_gradient_margin(f)) <= 1e-12

    def test_linear_field_hessian_gradient(self):
        g = Grid.rect(12, 12, 1.0, 1.0)
        f = field_from_function(g, lambda x, y: 2.0 * x + 3.0 * y)
        assert abs(hessian_gradient_margin(f)) <= 1e-12


class TestPointwiseVerdicts:
    def test_random_fields_pass(self):
        cfg = OracleConfig(grid=Grid.rect(32, 32, 1.0, 1.0), trials=100, seed=11)
        v1 = verify_laplacian_vs_hessian(cfg)
        v2 = verify_hessian_gradient(cfg)
        assert v1.passed and v1.trials_run == 100
        assert v2.passed
        assert v1.worst_margin >= -1e-12
        assert v2.worst_margin >= -1e-12

    def test_deterministic(self):
        cfg = OracleConfig(grid=Grid.rect(16, 16, 1.0, 1.0), trials=20, seed=5)
        a = verify_laplacian_vs_hessian(cfg)
        b = verify_laplacian_vs_hessian(cfg)
        assert a.worst_margin == b.worst_margin


class TestGradientPowerInequality:
    def test_single_mode_matches_analytic_sides(self):
        # f = cos(pi x) on [0,1], q = 1:
        # lhs = int |f'|^4 = (3/8) pi^4, rhs = 2 (4+1) * 1 * int |f''|^2 = 5 pi^4
        g = Grid.line(256, 1.0)
        f = field_from_function(g, lambda x: np.cos(np.pi * x))
        lhs, rhs = gradient_power_sides(f, 1.0)
        assert lhs == pytest.approx(3.0 / 8.0 * math.pi**4, rel=5e-3)
        assert rhs == pytest.approx(5.0 * math.pi**4, rel=5e-3)
        assert lhs <= rhs

    def test_constant_field_zero_both_sides(self):
        g = Grid.line(32, 1.0)
        f = ScalarField(g, np.full(g.shape, 3.0))
        lhs, rhs = gradient_power_sides(f, 2.0)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_random_fields_pass(self, q):
        cfg = OracleConfig(grid=Grid.rect(32, 32, 1.0, 1.0), trials=50, seed=8)
        verdict = verify_gradient_power_hessian(cfg, q=q)
        assert verdict.passed, (q, verdict)

    def test_slack_shrinks_with_h(self):
        slacks = []
        for nx in (32, 64, 128):
            cfg = OracleConfig(grid=Grid.line(nx, 1.0), trials=20, seed=3)
            verdict = verify_gradient_power_hessian(cfg)
            assert verdict.passed
            slacks.append(verdict.slack)
        assert slacks[0] > slacks[1] > slacks[2]
        assert slacks[0] / slacks[1] == pytest.approx(2.0, rel=1e-6)


class TestYoungCombination:
    def test_hand_case(self):
        # A=1, B=0, d1=d2=2: lhs 1 >= 2^-2 * 1 - 0 = 0.25
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=1, seed=0)
        verdict = verify_young_combination(cfg)
        assert verdict.passed

    def test_10k_samples_pass(self):
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=10_000, seed=2024)
        verdict = verify_young_combination(cfg)
        assert verdict.passed
        assert verdict.worst_margin >= -1e-9
        assert verdict.trials_run >= 10_000

    def test_poisoned_d3_fails(self, monkeypatch):
        # negative control: a defect constant 1.0 too small must be caught
        real = chemfv.oracle.d3_constant

        def poisoned(d1, d2):
            k, d3 = real(d1, d2)
            return k, d3 - 1.0

        monkeypatch.setattr(chemfv.oracle, "d3_constant", poisoned)
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=10, seed=0)
        verdict = verify_young_combination(cfg)
        assert not verdict.passed

    def test_nan_margin_sticks_and_fails(self, monkeypatch):
        # the third margin (an edge case) is NaN: a later finite margin must not replace it
        real, calls = chemfv.oracle._young_margin, []

        def nan_third(*args):
            calls.append(args)
            return math.nan if len(calls) == 3 else real(*args)

        monkeypatch.setattr(chemfv.oracle, "_young_margin", nan_third)
        verdict = verify_young_combination(OracleConfig(grid=Grid.line(8, 1.0), trials=10))
        assert math.isnan(verdict.worst_margin) and verdict.passed is False
        assert verdict.trials_run == len(calls) == 16


def _ref_young_args(cfg):
    # the per-trial draws: (A, B) then (log10 d1, log10 d2), two values per call
    rng = np.random.default_rng(cfg.seed)
    args = list(chemfv.oracle._YOUNG_EDGE_CASES)
    for _ in range(cfg.trials):
        A, B = rng.uniform(0.0, 100.0, size=2)
        d1, d2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        args.append((A, B, d1, d2))
    return args


class TestYoungDraws:
    @pytest.mark.parametrize("trials", [1, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40])
    def test_one_draw_call_matches_per_trial_draws(self, monkeypatch, seed, trials):
        # The edge cases alone make the worst margin 0, so every tuple drawn
        # is compared as well as the worst margin.
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=trials, seed=seed)
        real, calls = chemfv.oracle._young_margin, []
        ref_args = _ref_young_args(cfg)
        ref_worst = min(real(*args) for args in ref_args)

        def recorded(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(chemfv.oracle, "_young_margin", recorded)
        assert verify_young_combination(cfg).worst_margin == ref_worst
        assert calls == ref_args


class TestPBarRelations:
    def test_reference_case_passes(self):
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=1, seed=1)
        verdict = verify_pbar_relations(cfg, 1, 1.0, 0.0, 4.0, 2.0)
        assert verdict.passed
        assert verdict.trials_run == 21

    def test_below_the_max_entry_fails(self):
        # the relations are claimed for p >= p_bar = max(entries) + 1; at
        # p_bar - 1.5 the binding entry's relation must fail
        from chemfv.certificates import pbar_relation_margins
        p_bar = compute_p_bar(1, 1.0, 0.0, 4.0, 2.0)
        margins = pbar_relation_margins(1, 1.0, 0.0, 4.0, 2.0, p_bar - 1.5)
        assert min(margins.values()) <= 0.0

    def test_100_random_parameter_sets(self):
        rng = np.random.default_rng(17)
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=1, seed=12)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = float(rng.uniform(-2.0, 3.0))
            alpha = (m + 1.0) / 2.0 - float(rng.uniform(0.01, 3.0))
            q1 = n + 2 + float(rng.uniform(0.1, 8.0))
            q2 = (n + 2) / 2.0 + float(rng.uniform(0.1, 4.0))
            assert verify_pbar_relations(cfg, n, m, alpha, q1, q2).passed


class TestGNEstimate:
    def test_finite_and_positive(self):
        cfg = OracleConfig(grid=Grid.rect(24, 24, 1.0, 1.0), trials=50, seed=6)
        c = estimate_gn_constant(cfg)
        assert math.isfinite(c)
        assert c > 0.0


class TestNaNMargins:
    # The domain volume is a finite 1e300, but with the x gradients of order
    # 1e3 both sides of the gradient-power inequality overflow to inf when
    # their sums are scaled by the cell volume of about 4e297, so the margin
    # evaluates to NaN.
    CFG = OracleConfig(grid=Grid.rect(16, 16, 1e-3, 1e303), trials=5)

    def test_nan_margin_fails_its_verdict(self):
        verdict = verify_gradient_power_hessian(self.CFG)
        assert math.isnan(verdict.worst_margin)
        assert verdict.passed is False

    def test_nan_ratio_makes_the_gn_constant_nan(self, monkeypatch):
        # A NaN ratio needed an infinite cell volume, which Grid now rejects;
        # one NaN among finite ratios must still stick.
        real = chemfv.oracle._gn_ratios

        def with_a_nan(ops, theta, count):
            ratios = real(ops, theta, count)
            ratios[1] = math.nan
            return ratios

        monkeypatch.setattr(chemfv.oracle, "_gn_ratios", with_a_nan)
        assert math.isnan(estimate_gn_constant(OracleConfig(grid=Grid.line(16, 1.0), trials=5)))

    def test_finite_checks_are_unaffected(self):
        lap, hg, _ = verify_fields(self.CFG)[0]
        assert lap.passed and hg.passed


# The per-oracle loops as they were before verify_fields: every oracle builds
# its own trial fields and operators.  The one pass must reproduce them with ==.
def _ref_trial_field(cfg, index):
    return random_smooth_field(cfg.grid, (cfg.seed, index), cfg.num_modes)


def _ref_interior(arr, dim):
    return arr[(...,) + (slice(1, -1),) * dim]


def _ref_laplacian_hessian_margin(f):
    dim = f.grid.dim
    hess = _ref_interior(hessian(f), dim)
    lap = hess[0, 0]
    for axis in range(1, dim):
        lap = lap + hess[axis, axis]
    lhs = lap**2
    rhs = dim * (hess**2).sum(axis=(0, 1))
    return float(((rhs - lhs) / (1.0 + lhs + rhs)).min())


def _ref_hessian_gradient_margin(f):
    dim = f.grid.dim
    hess = _ref_interior(hessian(f), dim)
    grads = np.stack([_ref_interior(g, dim) for g in gradient_cells(f)])
    hg = np.einsum("ij...,j...->i...", hess, grads)
    lhs = (hg**2).sum(axis=0)
    rhs = (hess**2).sum(axis=(0, 1)) * (grads**2).sum(axis=0)
    return float(((rhs - lhs) / (1.0 + lhs + rhs)).min())


def _ref_gradient_power_sides(f, q):
    grid = f.grid
    grads = np.stack(gradient_cells(f))
    gsq = (grads**2).sum(axis=0)
    hsq = (hessian(f) ** 2).sum(axis=(0, 1))
    lhs = integrate(ScalarField(grid, gsq ** (q + 1.0)))
    sup_f = float(np.abs(f.values).max())
    rhs = 2.0 * (4.0 * q**2 + grid.dim) * sup_f**2 * integrate(
        ScalarField(grid, gsq ** (q - 1.0) * hsq))
    return lhs, rhs


def _ref_worst(cfg, margin):
    worst = math.inf
    for i in range(cfg.trials):
        worst = min(worst, margin(_ref_trial_field(cfg, i)))
    return worst


def _ref_power_worst(cfg):
    def margin(f):
        lhs, rhs = _ref_gradient_power_sides(f, cfg.q)
        return (rhs - lhs) / (1.0 + lhs + rhs)
    return _ref_worst(cfg, margin)


def _ref_gn_constant(cfg):
    theta = (1.0 - 0.5) / (1.0 - 0.5 + 1.0 / cfg.grid.dim)
    best = 0.0
    for i in range(min(cfg.trials, GN_MAX_FIELDS)):
        f = _ref_trial_field(cfg, i)
        vol = f.grid.cell_volume
        l2 = math.sqrt(vol * float((f.values**2).sum()))
        l1 = vol * float(np.abs(f.values).sum())
        g2 = math.sqrt(vol * float((np.stack(gradient_cells(f)) ** 2).sum()))
        denom = g2**theta * l1 ** (1.0 - theta) + l1
        if denom > 1e-300:
            best = max(best, l2 / denom)
    return best


PASS_GRIDS = [Grid.line(24, 1.5), Grid.rect(12, 12, 1.0, 1.0), Grid.rect(16, 10, 2.0, 0.75)]


class TestOnePassParity:
    @pytest.mark.parametrize("grid", PASS_GRIDS, ids=str)
    @pytest.mark.parametrize("q", [1.0, 2.5])
    @pytest.mark.parametrize("trials", [7, 250])
    def test_matches_the_per_oracle_loops(self, grid, q, trials):
        cfg = OracleConfig(grid=grid, trials=trials, seed=trials, q=q, num_modes=5)
        (lap, hg, power), gn = verify_fields(cfg)
        assert lap.worst_margin == _ref_worst(cfg, _ref_laplacian_hessian_margin)
        assert hg.worst_margin == _ref_worst(cfg, _ref_hessian_gradient_margin)
        assert power.worst_margin == _ref_power_worst(cfg)
        assert gn == _ref_gn_constant(cfg)
        assert [v.trials_run for v in (lap, hg, power)] == [trials] * 3
        assert verify_laplacian_vs_hessian(cfg) == lap
        assert verify_hessian_gradient(cfg) == hg
        assert verify_gradient_power_hessian(cfg) == power
        assert estimate_gn_constant(cfg) == gn

    @pytest.mark.parametrize("grid", PASS_GRIDS, ids=str)
    def test_q_override(self, grid):
        cfg = OracleConfig(grid=grid, trials=7, seed=3, num_modes=5)
        verdict = verify_gradient_power_hessian(cfg, q=2.5)
        assert verdict.worst_margin == _ref_power_worst(
            OracleConfig(grid=grid, trials=7, seed=3, q=2.5, num_modes=5))

    @pytest.mark.parametrize("grid", PASS_GRIDS, ids=str)
    def test_per_field_functions(self, grid):
        for seed in range(5):
            f = random_smooth_field(grid, seed, 5)
            assert laplacian_hessian_margin(f) == _ref_laplacian_hessian_margin(f)
            assert hessian_gradient_margin(f) == _ref_hessian_gradient_margin(f)
            assert gradient_power_sides(f, 2.5) == _ref_gradient_power_sides(f, 2.5)


# The one pass as it was before the trials went in stacks: one field, its
# operators and its margins at a time.  The stacked pass must reproduce every
# trial's margins and GN ratio with ==.
class _RefFieldOps(NamedTuple):
    f: ScalarField
    hess: np.ndarray
    grads: np.ndarray
    grads_sq: np.ndarray
    hsq: np.ndarray
    gsq: np.ndarray


def _ref_field_ops(f):
    hess = hessian(f)
    grads = np.stack(gradient_cells(f))
    grads_sq = grads**2
    return _RefFieldOps(f, hess, grads, grads_sq, (hess**2).sum(axis=(0, 1)),
                        grads_sq.sum(axis=0))


def _ref_min_margin(lhs, rhs):
    return float(((rhs - lhs) / (1.0 + lhs + rhs)).min())


def _ref_laplacian_hessian(ops):
    dim = ops.f.grid.dim
    hess = _ref_interior(ops.hess, dim)
    lap = hess[0, 0]
    for axis in range(1, dim):
        lap = lap + hess[axis, axis]
    return _ref_min_margin(lap**2, dim * _ref_interior(ops.hsq, dim))


def _ref_hessian_gradient(ops):
    dim = ops.f.grid.dim
    hess = _ref_interior(ops.hess, dim)
    hg = np.einsum("ij...,j...->i...", hess, _ref_interior(ops.grads, dim))
    return _ref_min_margin((hg**2).sum(axis=0),
                           _ref_interior(ops.hsq, dim) * _ref_interior(ops.gsq, dim))


def _ref_gradient_power(ops, q):
    grid = ops.f.grid
    lhs = integrate(ScalarField(grid, ops.gsq ** (q + 1.0)))
    sup_f = float(np.abs(ops.f.values).max())
    rhs = 2.0 * (4.0 * q**2 + grid.dim) * sup_f**2 * integrate(
        ScalarField(grid, ops.gsq ** (q - 1.0) * ops.hsq))
    return lhs, rhs


def _ref_gn_ratio(ops, theta):
    values = ops.f.values
    vol = ops.f.grid.cell_volume
    l2 = math.sqrt(vol * float((values**2).sum()))
    l1 = vol * float(np.abs(values).sum())
    g2 = math.sqrt(vol * float(ops.grads_sq.sum()))
    denom = g2**theta * l1 ** (1.0 - theta) + l1
    return 0.0 if denom <= 1e-300 else l2 / denom


def _ref_trial_margins(cfg, index, theta):
    ops = _ref_field_ops(_ref_trial_field(cfg, index))
    lhs, rhs = _ref_gradient_power(ops, cfg.q)
    ratio = _ref_gn_ratio(ops, theta) if index < GN_MAX_FIELDS else 0.0
    return (_ref_laplacian_hessian(ops), _ref_hessian_gradient(ops),
            (rhs - lhs) / (1.0 + lhs + rhs), ratio)


def _theta(grid):
    return (1.0 - 0.5) / (1.0 - 0.5 + 1.0 / grid.dim)


# (grid, fields per stack, trials).  Each trial count leaves a short last
# stack; on the first three grids the GN cap at trial 200 falls inside a stack.
STACK_CASES = [
    (Grid.line(96, 1.5), 170, 250),
    (Grid.rect(12, 20, 1.0, 0.6), 68, 250),
    (Grid.rect(17, 64, 0.5, 2.0), 15, 215),
    (Grid.rect(64, 64, 1.0, 1.0), 4, 7),
    (Grid.rect(128, 96, 2.0, 1.0), 1, 3),
]


class TestStackedTrialParity:
    @pytest.mark.parametrize("grid, batch, trials", STACK_CASES, ids=str)
    @pytest.mark.parametrize("q", [1.0, 2.5])
    @pytest.mark.parametrize("num_modes", [1, 8])
    def test_every_trial_matches_the_per_field_pass(self, grid, batch, trials, q, num_modes):
        cfg = OracleConfig(grid=grid, trials=trials, seed=num_modes, q=q, num_modes=num_modes)
        assert _stack_size(cfg) == batch
        theta = _theta(grid)
        refs = [_ref_trial_margins(cfg, i, theta) for i in range(trials)]
        for start in range(0, trials, batch):
            count = min(batch, trials - start)
            assert _stack_margins(cfg, start, count, theta) == refs[start:start + count]
        worst = [min(r[k] for r in refs) for k in range(3)]
        (lap, hg, power), gn = verify_fields(cfg)
        assert [lap.worst_margin, hg.worst_margin, power.worst_margin] == worst
        assert gn == max(r[3] for r in refs)

    @pytest.mark.parametrize("grid", [Grid.line(4, 1.0), Grid.rect(4, 4, 1.0, 0.5)], ids=str)
    def test_four_cells_per_axis(self, grid):
        # an interior of 2 cells per axis: the margins run on the whole stack
        # and only their minima read the interior
        cfg = OracleConfig(grid=grid, trials=6, seed=5, num_modes=3)
        theta = _theta(grid)
        refs = [_ref_trial_margins(cfg, i, theta) for i in range(cfg.trials)]
        assert _stack_margins(cfg, 0, cfg.trials, theta) == refs

    @pytest.mark.parametrize("grid", [case[0] for case in STACK_CASES], ids=str)
    def test_per_field_functions_match_the_per_field_pass(self, grid):
        for seed in range(3):
            for num_modes in (1, 8):
                f = random_smooth_field(grid, seed, num_modes)
                ops = _ref_field_ops(f)
                assert laplacian_hessian_margin(f) == _ref_laplacian_hessian(ops)
                assert hessian_gradient_margin(f) == _ref_hessian_gradient(ops)
                for q in (1.0, 2.5):
                    assert gradient_power_sides(f, q) == _ref_gradient_power(ops, q)


class TestHeldBasisBuilds:
    @pytest.mark.parametrize("grid, trials", [(Grid.line(96, 1.5), 250),
                                              (Grid.rect(64, 64, 1.0, 2.0), 13)], ids=str)
    def test_cosine_rows_once_per_axis_per_pass(self, monkeypatch, grid, trials):
        # every stack of the pass reads one basis, built by one _cosine_rows
        # call per axis, not two per stack
        random_smooth_field(Grid.line(8, 1.0), 0, 1)   # another grid's basis is held
        calls = []
        real = chemfv.grid._cosine_rows

        def counted(g, axis, ks):
            calls.append(axis)
            return real(g, axis, ks)
        monkeypatch.setattr(chemfv.grid, "_cosine_rows", counted)
        cfg = OracleConfig(grid=grid, trials=trials, seed=3)
        assert _stack_size(cfg) < trials
        verify_fields(cfg)
        assert calls == list(range(grid.dim))


class TestStackMemory:
    # A stack's arrays hold about TRIAL_BATCH_CELLS entries whatever num_modes
    # is: the mode indices cap the stack size, and the cosine series keeps no
    # array with both a mode axis and a cell axis.  On this line, 128 stacked
    # fields with such an array would take 2 x 128 x 2000 x 128 doubles, 0.5 GB;
    # the default 8 modes peak at about 1.6 MB.
    def test_many_modes_on_a_line(self):
        cfg = OracleConfig(grid=Grid.line(128, 1.0), trials=20, num_modes=2000)
        assert _stack_size(cfg) == 8
        verify_fields(replace(cfg, trials=1, num_modes=1))   # lazy imports before tracing
        tracemalloc.start()
        try:
            verify_fields(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * TRIAL_BATCH_CELLS * 8   # 4 MiB

    def test_a_verify_pass_holds_six_stack_sized_arrays(self):
        # |D2 f|^2, |grad f|^2, one work array and the three margin arrays; a
        # field-major copy of the squared gradients would add two more
        grid = Grid.rect(64, 64, 1.0, 1.0)   # the verify-2d grid
        cfg = OracleConfig(grid=grid, trials=300, seed=0)
        verify_fields(cfg)
        held = [a for role, a in chemfv.grid._HELD.items() if role.startswith("oracle.")]
        assert sum(a.size for a in held) == 6 * _stack_size(cfg) * math.prod(grid.shape)

    def test_a_second_stack_allocates_only_the_operators(self):
        # |D2 f|^2, |grad f|^2, the powers and the margin arrays go into
        # scratch held from the first stack.  What a stack still allocates is
        # what the pinned calls return (the stack, its Hessian and its
        # gradients), the Hessian's padded copy, numpy's buffers for two
        # strided ufunc operands, and the GN ratio's square of each GN
        # field's gradients, a transient of n cells-sized rows.  Building all
        # the derived arrays afresh, as before, peaked at about 2.2 MB here.
        grid = Grid.rect(64, 64, 1.0, 1.0)
        cfg = OracleConfig(grid=grid, trials=8, seed=0)
        assert _stack_size(cfg) == 4
        theta = _theta(grid)
        first = _stack_margins(cfg, 4, 4, theta)
        tracemalloc.start()
        try:
            second = _stack_margins(cfg, 4, 4, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first
        stack = 4 * 64 * 64 * 8
        padded = 4 * 66 * 66 * 8
        buffers = 2 * np.getbufsize() * 8
        assert peak < stack + 4 * stack + 2 * stack + padded + buffers   # 1.13 MiB
