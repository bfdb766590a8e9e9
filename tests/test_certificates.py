"""Certificate arithmetic against hand values and a high-precision oracle.

Expected values tagged "hand" below were computed by hand from the closed
forms; the mpmath evaluations recompute the same expressions at 50 digits and
must agree to 1e-12 relative.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemfv import (AuxiliaryExponents, DomainError, ModelParams, chi_growth_bound,
                    chi_prototype, compute_p_bar, d1_constant, d3_constant,
                    default_exponents, energy_constants, evaluate_certificate,
                    gradv_bound, k1_coeff, k2_coeff, mass_bound, mu_threshold)
from chemfv.certificates import pbar_relation_margins


def mp_k1(p, n, s):
    with mpmath.workdps(50):
        p, n, s = mpmath.mpf(p), mpmath.mpf(n), mpmath.mpf(s)
        return float(p**2 * ((p - 1) / (p + 1)) ** ((p + 1) / p)
                     * (4 * p**2 + n) ** (1 / p) * s ** (2 / p))


def mp_k2(p, n):
    with mpmath.workdps(50):
        p, n = mpmath.mpf(p), mpmath.mpf(n)
        return float(p / (p + 1) * 2**p * (p + n - 1) ** ((p + 1) / 2)
                     * ((p - 1) / (p + 1)) ** ((p - 1) / 2)
                     * (4 * p**2 + n) ** ((p - 1) / 2))


def mp_threshold(p, n, s):
    with mpmath.workdps(50):
        pm, nm, sm = mpmath.mpf(p), mpmath.mpf(n), mpmath.mpf(s)
        k1 = pm**2 * ((pm - 1) / (pm + 1)) ** ((pm + 1) / pm) \
            * (4 * pm**2 + nm) ** (1 / pm) * sm ** (2 / pm)
        k2 = pm / (pm + 1) * 2**pm * (pm + nm - 1) ** ((pm + 1) / 2) \
            * ((pm - 1) / (pm + 1)) ** ((pm - 1) / 2) * (4 * pm**2 + nm) ** ((pm - 1) / 2)
        return float(k1 * sm ** (2 / pm) + k2 * sm ** (2 * pm))


class TestPBar:
    def test_hand_cases(self):
        # entries {0, 2, 2, 2, -4, -2}, {0, 2.5, 2, 2.5, -10, -5}, {-1.5, 9, 1, 3, -37, -19}
        assert compute_p_bar(1, 1.0, 0.0, 4.0, 2.0) == 3.0
        assert compute_p_bar(2, 1.0, 0.0, 5.0, 2.5) == 3.5
        assert compute_p_bar(3, 2.0, 1.0, 6.0, 3.0) == 10.0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            compute_p_bar(1, 1.0, 1.0, 4.0, 2.0)  # alpha >= (m+1)/2
        with pytest.raises(DomainError):
            compute_p_bar(1, 1.0, 0.0, 3.0, 2.0)  # q1 <= n+2
        with pytest.raises(DomainError):
            compute_p_bar(1, 1.0, 0.0, 4.0, 1.5)  # q2 <= (n+2)/2

    def test_relations_hold_at_pbar_and_above_1000_samples(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            m = float(rng.uniform(-3.0, 4.0))
            alpha = (m + 1.0) / 2.0 - float(rng.uniform(1e-3, 4.0))
            q1 = n + 2 + float(rng.uniform(0.05, 10.0))
            q2 = (n + 2) / 2.0 + float(rng.uniform(0.05, 5.0))
            p_bar = compute_p_bar(n, m, alpha, q1, q2)
            for p in (p_bar, p_bar + 10.0):
                margins = pbar_relation_margins(n, m, alpha, q1, q2, p)
                assert all(v > 0.0 for v in margins.values()), (n, m, alpha, q1, q2, p, margins)

    def test_relation_fails_below_the_max(self):
        # p_bar is max(entries) + 1, so stepping 1.5 below it lands under the
        # largest entry and the corresponding relation must fail.
        for args in [(1, 1.0, 0.0, 4.0, 2.0), (2, 1.0, 0.0, 5.0, 2.5), (3, 2.0, 1.0, 6.0, 3.0)]:
            p_bar = compute_p_bar(*args)
            margins = pbar_relation_margins(*args, p_bar - 1.5)
            assert min(margins.values()) <= 0.0


class TestSensitivity:
    def test_prototype_values(self):
        assert chi_prototype(0.0, 3.0, 5.0) == 3.0
        assert chi_prototype(7.0, 1.0, 0.0) == 1.0
        assert chi_prototype(1.0, 2.0, 1.0) == 0.5

    def test_growth_bound_values(self):
        assert chi_growth_bound(0.0, 1.0, 1.0, 3.0) == 1.0
        assert chi_growth_bound(1.0, 8.0, 1.0, 3.0) == 1.0
        assert chi_growth_bound(3.0, 1.0, 0.0, 5.0) == 1.0

    def test_negative_v_rejected(self):
        with pytest.raises(DomainError):
            chi_prototype(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            chi_growth_bound(-0.1, 1.0, 1.0, 2.0)

    @given(v=st.floats(0.0, 1e6), chi0=st.floats(1e-6, 1e3), a=st.floats(0.0, 1e3))
    def test_prototype_matches_bound_at_b_2(self, v, chi0, a):
        proto = chi_prototype(v, chi0, a)
        bound = chi_growth_bound(v, chi0, a, 2.0)
        assert proto <= bound * (1.0 + 1e-12)
        assert proto == pytest.approx(bound, rel=1e-12)
        assert 0.0 < proto <= chi0


class TestThresholdCoefficients:
    def test_k1_hand_value(self):
        assert abs(k1_coeff(2.0, 1, 1.0) - 3.174) < 1e-3  # hand: 4 (1/3)^1.5 sqrt(17)

    def test_k1_zero_signal(self):
        assert k1_coeff(2.0, 1, 0.0) == 0.0

    def test_k1_high_precision(self):
        for p, n, s in [(2.0, 1, 1.0), (3.0, 2, 1.0), (2.5, 1, 0.7), (7.0, 2, 3.0)]:
            assert k1_coeff(p, n, s) == pytest.approx(mp_k1(p, n, s), rel=1e-12)

    def test_k1_literal_switch(self):
        s = 2.0
        assert k1_coeff(3.0, 1, s, literal=True) == pytest.approx(
            k1_coeff(3.0, 1, s, literal=False) * s ** (2.0 / 3.0), rel=1e-12)

    def test_k2_hand_value(self):
        assert abs(k2_coeff(2.0, 1) - 17.955) < 1e-3  # hand: (2/3) 4 2^1.5 (1/3)^0.5 17^0.5

    def test_k2_high_precision(self):
        for p, n in [(2.0, 1), (2.0, 2), (3.0, 1), (5.5, 2)]:
            assert k2_coeff(p, n) == pytest.approx(mp_k2(p, n), rel=1e-12)

    def test_k2_limit_toward_p_equal_1(self):
        # As p -> 1+ the printed product tends to (1/2) * 2 * n^1 = n; at n = 1
        # the limit is 1.  Checked against the 50-digit evaluation.
        val = k2_coeff(1.0001, 1)
        assert val == pytest.approx(mp_k2(1.0001, 1), rel=1e-12)
        assert abs(val - 1.0) < 1e-2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k1_coeff(1.0, 1, 1.0)
        with pytest.raises(DomainError):
            k2_coeff(0.5, 1)
        with pytest.raises(DomainError):
            k1_coeff(2.0, 1, -1.0)


class TestMuThreshold:
    def test_hand_value(self):
        assert abs(mu_threshold(2.0, 1, 1.0) - 21.13) < 2e-3  # 3.174 + 17.955

    def test_zero_signal(self):
        assert mu_threshold(2.0, 1, 0.0) == 0.0
        assert mu_threshold(9.0, 2, 0.0) == 0.0

    def test_high_precision(self):
        for p, n, s in [(2.0, 1, 2.0), (3.0, 1, 1.0), (4.0, 2, 0.5)]:
            assert mu_threshold(p, n, s) == pytest.approx(mp_threshold(p, n, s), rel=1e-12)

    def test_strictly_increasing_in_signal(self):
        for p in (2.0, 3.0, 5.5):
            for n in (1, 2):
                values = [mu_threshold(p, n, s) for s in np.linspace(0.05, 5.0, 40)]
                assert all(b > a for a, b in zip(values, values[1:]))


class TestUniformBounds:
    def test_mass_bound_values(self):
        assert mass_bound(0.0, 1.0, 1.0, 5.0) == 5.0
        assert mass_bound(1.0, 2.0, 1.0, 0.1) == 0.5
        assert mass_bound(-3.0, 1.0, 10.0, 2.0) == 2.0

    def test_gradv_bound_values(self):
        assert gradv_bound(0.0, 1.0, 1.0, 1.0, 0.0, 1.0) == 4.0
        assert gradv_bound(0.0, 0.5, 1.0, 0.0, 0.0, 0.0) == 0.0

    def test_gradv_bound_cross_check(self):
        # second, independent assembly of the same expression
        k, mu, vol, v0, g0, u0 = 1.0, 1.0, 1.0, 1.0, 3.0, 1.0
        m = max(max(k, 0.0) * vol / mu, u0)
        expected = max(v0**2 * (vol + 2 * m + (max(k, 0.0) + 1) / mu * m),
                       g0 + v0**2 / mu * u0)
        assert gradv_bound(k, mu, vol, v0, g0, u0) == expected == 5.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mass_bound(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gradv_bound(1.0, -1.0, 1.0, 1.0, 0.0, 1.0)

    @given(mu1=st.floats(1e-3, 1e3), factor=st.floats(1.001, 100.0),
           k=st.floats(-5.0, 5.0), vol=st.floats(0.1, 10.0),
           u0=st.floats(0.0, 10.0), v0=st.floats(0.0, 5.0), g0=st.floats(0.0, 10.0))
    def test_bounds_nonincreasing_in_mu(self, mu1, factor, k, vol, u0, v0, g0):
        mu2 = mu1 * factor
        assert mass_bound(k, mu2, vol, u0) <= mass_bound(k, mu1, vol, u0) * (1 + 1e-12)
        assert gradv_bound(k, mu2, vol, v0, g0, u0) <= gradv_bound(k, mu1, vol, v0, g0, u0) * (1 + 1e-12)


class TestD3:
    def test_values(self):
        assert d3_constant(3.0, 3.0) == (3.0, 0.0)
        k, d3 = d3_constant(2.0, 1.0)
        assert k == 1.0 and d3 == pytest.approx(1.0, rel=1e-12)
        k, d3 = d3_constant(4.0, 2.0)
        assert k == 2.0 and d3 == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            d3_constant(0.0, 1.0)
        with pytest.raises(DomainError):
            d3_constant(1.0, -2.0)

    def test_near_degenerate_is_finite(self):
        k, d3 = d3_constant(2.0, 2.0 + 1e-13)
        assert k == 2.0 and d3 == 0.0

    def test_combination_inequality_10k_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            A, B = rng.uniform(0.0, 100.0, size=2)
            d1, d2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            k, d3 = d3_constant(d1, d2)
            lhs = A**d1 + B**d2
            rhs = 2.0 ** (-k) * (A + B) ** k - d3
            assert lhs >= rhs - 1e-9 * (1.0 + abs(lhs))


class TestEnergyConstants:
    def test_eps1_and_c1(self):
        ec = energy_constants(p=2.0, m=1.0, alpha=0.0, mu=1.0, k=0.0, chi0=1.0,
                              v0_sup=1.0, n=1)
        assert ec.eps1 == 0.5
        assert ec.C1 == 0.5

    def test_delta1_hand_value(self):
        ec = energy_constants(p=2.0, m=1.0, alpha=0.0, mu=1.0, k=0.0, chi0=1.0,
                              v0_sup=1.0, n=1)
        assert ec.delta1 == pytest.approx(1.0 / 136.0, rel=1e-14)  # 1/(4*2*17)

    def test_d1_formula(self):
        assert d1_constant(1.0, 3.0) == pytest.approx(0.25, rel=1e-14)  # (2/4) (4/2)^-1

    def test_internal_consistency(self):
        p, n, chi0, v0 = 3.0, 2, 1.5, 0.8
        ec = energy_constants(p=p, m=1.2, alpha=0.3, mu=2.0, k=1.0, chi0=chi0,
                              v0_sup=v0, n=n)
        assert ec.eps3 == pytest.approx(0.5 * k1_coeff(p, n, chi0 * v0), rel=1e-12)
        assert ec.C2 == pytest.approx(p / (p + 1) * (ec.eps2 * (p + 1)) ** (-1 / p), rel=1e-12)
        assert ec.D1 == pytest.approx(d1_constant(ec.delta1, p), rel=1e-12)

    def test_degenerate_holder_exponent(self):
        # p + 2 alpha - m - 1 == 0 makes the c0 power factor its limit value 1
        ec = energy_constants(p=2.0, m=1.0, alpha=0.0, mu=1.0, k=0.0, chi0=1.0,
                              v0_sup=1.0, n=1)
        assert ec.c0 == pytest.approx(ec.C1 * ec.C2 * (1.0 + 1.0 - 0.0) / 2.0, rel=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError, match="zero signal"):
            energy_constants(p=2.0, m=1.0, alpha=0.0, mu=1.0, k=0.0, chi0=1.0,
                             v0_sup=0.0, n=1)


class TestModelParams:
    def test_admissibility(self):
        with pytest.raises(DomainError, match="mu must be positive"):
            ModelParams(n=1, m=1.0, alpha=0.0, k=0.0, mu=0.0, chi0=1.0, a=0.0, b=2.0)
        with pytest.raises(DomainError, match=r"alpha < \(m\+1\)/2"):
            ModelParams(n=1, m=1.0, alpha=2.0, k=0.0, mu=1.0, chi0=1.0, a=0.0, b=2.0)
        with pytest.raises(DomainError):
            ModelParams(n=0, m=1.0, alpha=0.0, k=0.0, mu=1.0, chi0=1.0, a=0.0, b=2.0)

    def test_zero_chi0_is_the_degenerate_model(self):
        params = ModelParams(n=1, m=1.0, alpha=0.0, k=0.0, mu=1.0, chi0=0.0, a=0.0, b=2.0)
        assert params.chi0 == 0.0


class TestCertificate:
    def _params(self, mu):
        return ModelParams(n=1, m=1.0, alpha=0.0, k=0.0, mu=mu, chi0=1.0, a=1.0, b=2.0)

    def test_verdict_uses_threshold_at_clamped_p(self):
        exps = AuxiliaryExponents(4.0, 2.0, 2.0)
        # p_bar = 3 for these exponents, so the threshold is taken at p = 3
        mu_min = mu_threshold(3.0, 1, 1.0)
        high = evaluate_certificate(self._params(mu_min * 1.2), exps, v0_sup=1.0)
        low = evaluate_certificate(self._params(1.0), exps, v0_sup=1.0)
        assert high.p_bar == 3.0 and high.p_used == 3.0
        assert high.mu_min == pytest.approx(mu_min, rel=1e-14)
        assert high.satisfied and not low.satisfied

    def test_strictness_at_the_threshold(self):
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        mu_min = mu_threshold(3.0, 1, 1.0)
        at = evaluate_certificate(self._params(mu_min), exps, v0_sup=1.0)
        assert not at.satisfied  # verdict needs mu strictly above the threshold

    def test_zero_signal_always_satisfied(self):
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        rep = evaluate_certificate(self._params(0.001), exps, v0_sup=0.0)
        assert rep.mu_min == 0.0 and rep.satisfied

    def test_report_invariants(self):
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        params = ModelParams(n=1, m=1.0, alpha=0.0, k=2.0, mu=0.5, chi0=1.0, a=0.0, b=2.0)
        rep = evaluate_certificate(params, exps, v0_sup=1.0, u0_mass=0.7,
                                   gradv0_l2sq=0.2, domain_volume=2.0)
        assert rep.satisfied == (params.mu > rep.mu_min)
        assert rep.m_mass >= rep.u0_mass
        assert rep.m_mass >= max(params.k, 0.0) * rep.domain_volume / params.mu
        assert rep.M_grad >= rep.gradv0_l2sq
        d = rep.as_dict()
        assert d["schema"] == 1 and d["inputs"]["model"]["mu"] == 0.5

    @pytest.mark.parametrize("name", ["domain_volume", "u0_mass", "v0_sup", "gradv0_l2sq"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_inputs_rejected(self, name, value):
        # an overflowing grid volume must not become Infinity constants
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        inputs = dict(v0_sup=1.0, u0_mass=0.5, gradv0_l2sq=0.1, domain_volume=1.0)
        inputs[name] = value
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            evaluate_certificate(self._params(1.0), exps, **inputs)

    def test_default_exponents(self):
        params = self._params(1.0)
        exps = default_exponents(params)
        assert exps.q1 == 4.0 and exps.q2 == 2.0 and exps.p == 3.0

    def test_k1_literal_threads_through_the_verdict(self):
        exps = AuxiliaryExponents(4.0, 2.0, 3.0)
        params = ModelParams(n=1, m=1.0, alpha=0.0, k=0.0, mu=1.0, chi0=2.0,
                             a=0.0, b=2.0)
        literal = evaluate_certificate(params, exps, v0_sup=1.0, k1_literal=True)
        plain = evaluate_certificate(params, exps, v0_sup=1.0, k1_literal=False)
        s = 2.0  # chi0 * v0_sup
        assert literal.k1 == pytest.approx(plain.k1 * s ** (2.0 / 3.0), rel=1e-12)
        assert literal.mu_min > plain.mu_min  # extra s^(2/p) factor with s > 1


@settings(max_examples=200)
@given(m=st.floats(-2.0, 3.0), gap=st.floats(0.01, 3.0),
       n=st.integers(1, 3), dq1=st.floats(0.1, 8.0), dq2=st.floats(0.1, 4.0),
       extra=st.floats(0.0, 10.0))
def test_pbar_relations_property(m, gap, n, dq1, dq2, extra):
    alpha = (m + 1.0) / 2.0 - gap
    q1 = n + 2 + dq1
    q2 = (n + 2) / 2.0 + dq2
    p_bar = compute_p_bar(n, m, alpha, q1, q2)
    margins = pbar_relation_margins(n, m, alpha, q1, q2, p_bar + extra)
    assert all(v > 0.0 for v in margins.values())
