"""Inequality oracle checks: pointwise algebra, integral bounds, scalar combinations."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chemfv import DomainError, Grid, ScalarField, compute_p_bar, field_from_function
from chemfv.oracle import (OracleConfig, estimate_gn_constant, gradient_power_sides,
                           hessian_gradient_margin, laplacian_hessian_margin,
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

    def test_sup_normalizer(self):
        cfg = OracleConfig(grid=Grid.line(64, 1.0), trials=10, seed=4)
        verdict = verify_gradient_power_hessian(cfg, f_sup_normalizer=1.0)
        assert verdict.passed


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

    def test_poisoned_d3_fails(self):
        cfg = OracleConfig(grid=Grid.line(8, 1.0), trials=10, seed=0)
        verdict = verify_young_combination(cfg, poison_d3=1.0)
        assert not verdict.passed


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
