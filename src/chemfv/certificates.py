"""Explicit constants and the sufficient boundedness condition on the damping.

The model couples a cell density u and a consumed signal v:

    u_t = div( (u+1)^(m-1) grad u - (u+1)^alpha chi(v) grad v ) + k u - mu u^2
    v_t = lap v - u v

with zero-flux boundaries, chi(v) = chi0 / (1 + a v)^2 as the prototype
sensitivity, and the standing requirement alpha < (m+1)/2.  For damping mu
above an explicit threshold built from the coefficients and sup v0, every
solution stays uniformly bounded.  This module evaluates that threshold and
all auxiliary constants in closed form, in plain 64-bit arithmetic, and
returns a machine-readable verdict.  High-precision cross-checks of the same
formulas live in the test suite, not here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

# Terms of d3 with exponent k/(d_i - k) blow up as d_i -> k although the limit
# is 0; differences below this are treated as the limit.
D3_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """PDE coefficients and their admissibility conditions.

    ``n`` is the spatial dimension: the closed-form constants accept any
    n >= 1, while the solver grids support n in {1, 2}.  ``chi0 = 0`` is
    accepted as the degenerate no-chemotaxis model (used by conservation
    checks); all other sign constraints are strict.
    """

    n: int
    m: float
    alpha: float
    k: float
    mu: float
    chi0: float
    a: float
    b: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not self.mu > 0.0:
            raise DomainError("mu must be positive")
        if self.chi0 < 0.0:
            raise DomainError("chi0 must be nonnegative")
        if self.a < 0.0:
            raise DomainError("a must be nonnegative")
        if not self.b > 0.0:
            raise DomainError("b must be positive")
        if not self.alpha < (self.m + 1.0) / 2.0:
            raise DomainError(
                f"alpha < (m+1)/2 violated (alpha={self.alpha}, m={self.m})"
            )

    def as_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "alpha": self.alpha, "k": self.k,
            "mu": self.mu, "chi0": self.chi0, "a": self.a, "b": self.b,
        }


@dataclass(frozen=True)
class AuxiliaryExponents:
    """Free integrability exponents: q1 > n+2, q2 > (n+2)/2, p >= p_bar.

    The q constraints involve the dimension, so validation happens in
    :func:`validate_exponents` against a parameter set.
    """

    q1: float
    q2: float
    p: float

    def as_dict(self) -> dict:
        return {"q1": self.q1, "q2": self.q2, "p": self.p}


def validate_exponents(params: ModelParams, exps: AuxiliaryExponents) -> None:
    n = params.n
    if not exps.q1 > n + 2:
        raise DomainError(f"q1 must exceed n+2 = {n + 2}, got {exps.q1}")
    if not exps.q2 > (n + 2) / 2.0:
        raise DomainError(f"q2 must exceed (n+2)/2 = {(n + 2) / 2}, got {exps.q2}")
    if not exps.p > 1.0:
        raise DomainError(f"p must exceed 1, got {exps.p}")


def default_exponents(params: ModelParams, q1: float | None = None,
                      q2: float | None = None, p: float | None = None) -> AuxiliaryExponents:
    """Smallest round admissible exponents: q1 = n+3, q2 = (n+3)/2, p = ceil(p_bar)."""
    n = params.n
    q1 = float(n + 3) if q1 is None else float(q1)
    q2 = (n + 3) / 2.0 if q2 is None else float(q2)
    if p is None:
        p = float(math.ceil(compute_p_bar(n, params.m, params.alpha, q1, q2)))
    exps = AuxiliaryExponents(q1, q2, float(p))
    validate_exponents(params, exps)
    return exps


def _pbar_entries(n: int, m: float, alpha: float, q1: float, q2: float) -> list[float]:
    return [
        n * (1.0 - m) / 2.0,
        q1 * (2.0 * alpha + 1.0) / 2.0,
        1.0 + m - 2.0 * alpha,
        q1 / 2.0,
        1.0 - m * ((n + 1) * q1 - (n + 2)) / (q1 - (n + 2)),
        1.0 - m / (1.0 - (n / (n + 2.0)) * (q2 / (q2 - 1.0))),
    ]


def pbar_relation_margins(n: int, m: float, alpha: float, q1: float, q2: float,
                          p: float) -> dict[str, float]:
    """Signed margins of the seven exponent relations; all must be positive.

    The two bracketed fractions must lie strictly in (0, 1); their upper
    margins are computed in rearranged form to avoid cancellation when the
    fraction is close to 1.
    """
    margins: dict[str, float] = {}
    num = (n / 2.0) * (m + p - 1.0) * (1.0 - 1.0 / p)
    den = 1.0 - n / 2.0 + (n / 2.0) * (m + p - 1.0)
    if den <= 0.0:
        margins["interp_fraction"] = den
    else:
        # 1 - num/den == (1 - n/2 + (n/2)(m+p-1)/p) / den algebraically
        upper = (1.0 - n / 2.0 + (n / 2.0) * (m + p - 1.0) / p) / den
        margins["interp_fraction"] = min(num / den, upper)
    margins["holder_fraction"] = min((p + 2.0 * alpha - m - 1.0) / p,
                                     (m + 1.0 - 2.0 * alpha) / p)
    entries = _pbar_entries(n, m, alpha, q1, q2)
    margins["p_gt_mass_exponent"] = p - entries[0]
    margins["p_gt_drift_power"] = p - entries[1]
    margins["p_gt_half_q1"] = p - entries[3]
    margins["p_gt_drift_integrability"] = p - entries[4]
    margins["p_gt_consumption_integrability"] = p - entries[5]
    return margins


def compute_p_bar(n: int, m: float, alpha: float, q1: float, q2: float) -> float:
    """Smallest admissible integration exponent: 1 + max of six coefficient terms.

    Every exponent relation checked by :func:`pbar_relation_margins` holds for
    all p >= p_bar; this is asserted on return.
    """
    if not alpha < (m + 1.0) / 2.0:
        raise DomainError(f"alpha < (m+1)/2 violated (alpha={alpha}, m={m})")
    if not q1 > n + 2:
        raise DomainError(f"q1 must exceed n+2 = {n + 2}, got {q1}")
    if not q2 > (n + 2) / 2.0:
        raise DomainError(f"q2 must exceed (n+2)/2 = {(n + 2) / 2}, got {q2}")
    p_bar = max(_pbar_entries(n, m, alpha, q1, q2)) + 1.0
    margins = pbar_relation_margins(n, m, alpha, q1, q2, p_bar)
    bad = {name: v for name, v in margins.items() if not v > 0.0}
    if bad:
        raise DomainError(f"exponent relations fail at p_bar={p_bar}: {bad}")
    return p_bar


def chi_prototype(v, chi0: float, a: float):
    """Prototype sensitivity chi(v) = chi0 / (1 + a v)^2; accepts arrays for v."""
    import numpy as np

    if chi0 < 0.0:
        raise DomainError("chi0 must be nonnegative")
    if a < 0.0:
        raise DomainError("a must be nonnegative")
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0.0):
        raise DomainError("chi_prototype requires v >= 0")
    out = chi0 / (1.0 + a * v_arr) ** 2
    return float(out) if np.isscalar(v) or v_arr.ndim == 0 else out


def chi_growth_bound(v, chi0: float, a: float, b: float):
    """Growth envelope chi0 / (1 + a v)^b; equals the prototype at b = 2."""
    import numpy as np

    if not b > 0.0:
        raise DomainError("b must be positive")
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0.0):
        raise DomainError("chi_growth_bound requires v >= 0")
    out = chi0 / (1.0 + a * v_arr) ** b
    return float(out) if np.isscalar(v) or v_arr.ndim == 0 else out


def k1_coeff(p: float, n: int, chi0_v0_sup: float, literal: bool = True) -> float:
    """First threshold coefficient.

        k1(p, n) = p^2 ((p-1)/(p+1))^((p+1)/p) (4p^2+n)^(1/p) (chi0 ||v0||)^(2/p)

    ``literal=True`` keeps the trailing signal factor exactly as printed; with
    ``literal=False`` it is dropped and the factor enters the threshold only
    once (see :func:`mu_threshold`).
    """
    if not p > 1.0:
        raise DomainError(f"k1_coeff requires p > 1, got {p}")
    if n < 1:
        raise DomainError(f"k1_coeff requires n >= 1, got {n}")
    if chi0_v0_sup < 0.0:
        raise DomainError("chi0_v0_sup must be nonnegative")
    base = p**2 * ((p - 1.0) / (p + 1.0)) ** ((p + 1.0) / p) * (4.0 * p**2 + n) ** (1.0 / p)
    if literal:
        return base * chi0_v0_sup ** (2.0 / p)
    return base


def k2_coeff(p: float, n: int) -> float:
    """Second threshold coefficient.

        k2(p, n) = p/(p+1) 2^p (p+n-1)^((p+1)/2) ((p-1)/(p+1))^((p-1)/2) (4p^2+n)^((p-1)/2)
    """
    if not p > 1.0:
        raise DomainError(f"k2_coeff requires p > 1, got {p}")
    if n < 1:
        raise DomainError(f"k2_coeff requires n >= 1, got {n}")
    return (
        p / (p + 1.0)
        * 2.0**p
        * (p + n - 1.0) ** ((p + 1.0) / 2.0)
        * ((p - 1.0) / (p + 1.0)) ** ((p - 1.0) / 2.0)
        * (4.0 * p**2 + n) ** ((p - 1.0) / 2.0)
    )


def mu_threshold(p: float, n: int, chi0_v0_sup: float, k1_literal: bool = True) -> float:
    """Damping threshold k1 s^(2/p) + k2 s^(2p) at signal strength s = chi0 ||v0||.

    Zero signal gives a zero threshold (any positive damping suffices).
    """
    s = float(chi0_v0_sup)
    if s < 0.0:
        raise DomainError("chi0_v0_sup must be nonnegative")
    if s == 0.0:
        return 0.0
    return (k1_coeff(p, n, s, literal=k1_literal) * s ** (2.0 / p)
            + k2_coeff(p, n) * s ** (2.0 * p))


def mass_bound(k: float, mu: float, domain_volume: float, u0_mass: float) -> float:
    """Time-uniform bound on the total cell mass: max(k_+ |Omega| / mu, int u0)."""
    if not mu > 0.0:
        raise DomainError("mu must be positive")
    if not domain_volume > 0.0:
        raise DomainError("domain_volume must be positive")
    if u0_mass < 0.0:
        raise DomainError("u0_mass must be nonnegative")
    return max(max(k, 0.0) * domain_volume / mu, u0_mass)


def gradv_bound(k: float, mu: float, domain_volume: float, v0_sup: float,
                gradv0_l2sq: float, u0_mass: float) -> float:
    """Time-uniform bound on the signal gradient energy int |grad v|^2.

        max{ ||v0||^2 (|Omega| + 2 m_mass + ((k_+ + 1)/mu) m_mass),
             int |grad v0|^2 + (||v0||^2 / mu) int u0 }
    """
    if not mu > 0.0:
        raise DomainError("mu must be positive")
    m_mass = mass_bound(k, mu, domain_volume, u0_mass)
    k_plus = max(k, 0.0)
    first = v0_sup**2 * (domain_volume + 2.0 * m_mass + ((k_plus + 1.0) / mu) * m_mass)
    second = gradv0_l2sq + (v0_sup**2 / mu) * u0_mass
    return max(first, second)


def d3_constant(d1: float, d2: float) -> tuple[float, float]:
    """Young-combination constants: k = min(d1, d2) and the additive defect d3.

        d3 = sum_i ((d_i - k)/d_i) (d_i/k)^(k/(d_i - k))

    with each term equal to its limit 0 when d_i = k.  These make
    A^d1 + B^d2 >= 2^(-k) (A+B)^k - d3 hold for all A, B >= 0.
    """
    if not (d1 > 0.0 and d2 > 0.0):
        raise DomainError("d1 and d2 must be positive")
    k = min(d1, d2)

    def term(d: float) -> float:
        if abs(d - k) < D3_DEGENERATE_TOL:
            return 0.0
        return (d - k) / d * (d / k) ** (k / (d - k))

    return k, term(d1) + term(d2)


def d1_constant(delta1: float, p: float) -> float:
    """Gradient-energy Young constant D1(delta1) = (2/(p+1)) (delta1 (p+1)/(p-1))^((1-p)/2)."""
    if not p > 1.0:
        raise DomainError(f"d1_constant requires p > 1, got {p}")
    if not delta1 > 0.0:
        raise DomainError("delta1 must be positive")
    return 2.0 / (p + 1.0) * (delta1 * (p + 1.0) / (p - 1.0)) ** ((1.0 - p) / 2.0)


@dataclass(frozen=True)
class EnergyConstants:
    """The explicit constants of the absorbed energy estimate."""

    eps1: float
    eps2: float
    eps3: float
    delta1: float
    C1: float
    C2: float
    C3: float
    c0: float
    D1: float

    def as_dict(self) -> dict:
        return {
            "eps1": self.eps1, "eps2": self.eps2, "eps3": self.eps3,
            "delta1": self.delta1, "C1": self.C1, "C2": self.C2,
            "C3": self.C3, "c0": self.c0, "D1": self.D1,
        }


def energy_constants(p: float, m: float, alpha: float, mu: float, k: float,
                     chi0: float, v0_sup: float, n: int) -> EnergyConstants:
    """Evaluate every constant of the energy estimate exactly as printed.

    eps2 and delta1 divide by powers of ||v0||, so a zero signal leaves them
    undefined and raises.
    """
    if not p > 1.0:
        raise DomainError(f"energy_constants requires p > 1, got {p}")
    if not chi0 > 0.0:
        raise DomainError("energy_constants requires chi0 > 0")
    if v0_sup <= 0.0:
        raise DomainError("constants undefined for zero signal (v0_sup = 0)")
    k_plus = max(k, 0.0)
    poly = 4.0 * p**2 + n

    eps1 = 1.0 / (2.0 * chi0)
    c1 = 1.0 / (4.0 * eps1)
    eps2 = chi0 ** (2.0 * p - 1.0) / (4.0 * (p - 1.0) * c1 * poly * v0_sup**2)
    delta1 = 1.0 / (4.0 * (p + n - 1.0) * poly * v0_sup**4)
    eps3 = (p**2 / 2.0) * ((p - 1.0) / (p + 1.0)) ** ((p + 1.0) / p) \
        * poly ** (1.0 / p) * (chi0 * v0_sup) ** (2.0 / p)
    c2 = p / (p + 1.0) * (eps2 * (p + 1.0)) ** (-1.0 / p)
    c3 = 1.0 / (p + 1.0) * (eps3 * (p + 1.0) / ((2.0 * mu + k_plus) * p**2)) ** (-p)
    x = p + 2.0 * alpha - m - 1.0
    # x == 0 is the limit point of the last factor; x ln(p/x) -> 0 there.
    power = 1.0 if x == 0.0 else (p / x) ** (x / (2.0 * alpha - m - 1.0))
    c0 = c1 * c2 * (m + 1.0 - 2.0 * alpha) / p * power
    d1 = d1_constant(delta1, p)
    return EnergyConstants(eps1, eps2, eps3, delta1, c1, c2, c3, c0, d1)


@dataclass
class CertificateReport:
    """Machine-readable verdict of the damping-sufficiency check."""

    p_bar: float
    p_used: float
    k1: float
    k2: float
    mu_min: float
    m_mass: float
    M_grad: float
    satisfied: bool
    params: ModelParams
    exps: AuxiliaryExponents
    v0_sup: float
    u0_mass: float
    gradv0_l2sq: float
    domain_volume: float
    k1_literal: bool = True
    schema: int = field(default=1)

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "p_bar": self.p_bar,
            "p_used": self.p_used,
            "k1": self.k1,
            "k2": self.k2,
            "mu_min": self.mu_min,
            "m_mass": self.m_mass,
            "M_grad": self.M_grad,
            "satisfied": self.satisfied,
            "inputs": {
                "model": self.params.as_dict(),
                "exponents": self.exps.as_dict(),
                "v0_sup": self.v0_sup,
                "u0_mass": self.u0_mass,
                "gradv0_l2sq": self.gradv0_l2sq,
                "domain_volume": self.domain_volume,
                "k1_literal": self.k1_literal,
            },
        }


def evaluate_certificate(params: ModelParams, exps: AuxiliaryExponents, v0_sup: float,
                         u0_mass: float = 0.0, gradv0_l2sq: float = 0.0,
                         domain_volume: float = 1.0,
                         k1_literal: bool = True) -> CertificateReport:
    """Evaluate the full certificate for one parameter set.

    The threshold is taken at p = max(exps.p, p_bar); the verdict uses the
    strict inequality mu > mu_min.  An unsatisfied condition is a result, not
    an error.
    """
    validate_exponents(params, exps)
    for name, value in (("domain_volume", domain_volume), ("u0_mass", u0_mass),
                        ("v0_sup", v0_sup), ("gradv0_l2sq", gradv0_l2sq)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if v0_sup < 0.0:
        raise DomainError("v0_sup must be nonnegative")
    p_bar = compute_p_bar(params.n, params.m, params.alpha, exps.q1, exps.q2)
    p_used = max(exps.p, p_bar)
    s = params.chi0 * v0_sup
    k1 = k1_coeff(p_used, params.n, s, literal=k1_literal)
    k2 = k2_coeff(p_used, params.n)
    mu_min = mu_threshold(p_used, params.n, s, k1_literal=k1_literal)
    m_mass = mass_bound(params.k, params.mu, domain_volume, u0_mass)
    m_grad = gradv_bound(params.k, params.mu, domain_volume, v0_sup,
                         gradv0_l2sq, u0_mass)
    return CertificateReport(
        p_bar=p_bar, p_used=p_used, k1=k1, k2=k2, mu_min=mu_min,
        m_mass=m_mass, M_grad=m_grad, satisfied=bool(params.mu > mu_min),
        params=params, exps=exps, v0_sup=float(v0_sup), u0_mass=float(u0_mass),
        gradv0_l2sq=float(gradv0_l2sq), domain_volume=float(domain_volume),
        k1_literal=k1_literal,
    )
