"""Explicit constants and the sufficient boundedness condition on the damping.

The model couples a cell density u and a consumed signal v:

    u_t = div( (u+1)^(m-1) grad u - (u+1)^alpha chi(v) grad v ) + k u - mu u^2
    v_t = lap v - u v

with zero-flux boundaries, chi(v) = chi0 / (1 + a v)^2 as the prototype
sensitivity, and the standing requirement alpha < (m+1)/2.  For damping mu
above an explicit threshold built from the coefficients and sup v0, every
solution stays uniformly bounded.  This module evaluates that threshold, the
exponent p_bar it is taken at and the uniform mass and signal-gradient bounds
in closed form, in plain 64-bit arithmetic, and returns a machine-readable
verdict.  High-precision cross-checks of the same formulas live in the test
suite, not here.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

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

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        for name in ("m", "alpha", "k", "mu", "chi0", "a"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mu > 0.0:
            raise DomainError("mu must be positive")
        if self.chi0 < 0.0:
            raise DomainError("chi0 must be nonnegative")
        if self.a < 0.0:
            raise DomainError("a must be nonnegative")
        if not self.alpha < (self.m + 1.0) / 2.0:
            raise DomainError(
                f"alpha < (m+1)/2 violated (alpha={self.alpha}, m={self.m})"
            )


@dataclass(frozen=True)
class AuxiliaryExponents:
    """Free integrability exponents: q1 > n+2, q2 > (n+2)/2, p >= p_bar.

    p > 1 is checked on construction.  The q constraints involve the
    dimension, so :func:`compute_p_bar` checks them, which both
    :func:`default_exponents` and :func:`evaluate_certificate` call.
    """

    q1: float
    q2: float
    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise DomainError(f"p must exceed 1, got {self.p}")


def default_exponents(params: ModelParams, q1: float | None = None,
                      q2: float | None = None, p: float | None = None) -> AuxiliaryExponents:
    """Smallest round admissible exponents: q1 = n+3, q2 = (n+3)/2, p = ceil(p_bar).

    A given exponent replaces its default; a given p below p_bar is rejected."""
    n = params.n
    q1 = float(n + 3) if q1 is None else float(q1)
    q2 = (n + 3) / 2.0 if q2 is None else float(q2)
    p_bar = compute_p_bar(n, params.m, params.alpha, q1, q2)
    exps = AuxiliaryExponents(q1, q2, float(math.ceil(p_bar) if p is None else p))
    if exps.p < p_bar:
        raise DomainError(
            f"certificate p={exps.p} is below the minimal admissible exponent {p_bar}")
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
    m_mass = mass_bound(k, mu, domain_volume, u0_mass)
    k_plus = max(k, 0.0)
    # v0 = 0 keeps v = 0, so the first term is 0 even where its bracket overflows.
    first = 0.0 if v0_sup == 0.0 else (
        v0_sup**2 * (domain_volume + 2.0 * m_mass + ((k_plus + 1.0) / mu) * m_mass))
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


# Marks the CertificateReport fields that certificate.json nests under "inputs".
_INPUT = {"input": True}


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
    params: ModelParams = field(metadata=_INPUT)
    exps: AuxiliaryExponents = field(metadata=_INPUT)
    v0_sup: float = field(metadata=_INPUT)
    u0_mass: float = field(metadata=_INPUT)
    gradv0_l2sq: float = field(metadata=_INPUT)
    domain_volume: float = field(metadata=_INPUT)
    k1_literal: bool = field(default=True, metadata=_INPUT)
    schema: int = field(default=1)

    def as_dict(self) -> dict:
        """The certificate.json object: the verdict fields at top level, the
        input fields under ``inputs``, with ``params`` and ``exps`` as
        ``model`` and ``exponents``."""
        out = asdict(self)
        inputs = {f.name: out.pop(f.name) for f in fields(self) if f.metadata.get("input")}
        inputs["model"], inputs["exponents"] = inputs.pop("params"), inputs.pop("exps")
        return {**out, "inputs": inputs}


def evaluate_certificate(params: ModelParams, exps: AuxiliaryExponents, v0_sup: float,
                         u0_mass: float = 0.0, gradv0_l2sq: float = 0.0,
                         domain_volume: float = 1.0,
                         k1_literal: bool = True) -> CertificateReport:
    """Evaluate the full certificate for one parameter set.

    The threshold is taken at p = max(exps.p, p_bar); the verdict uses the
    strict inequality mu > mu_min.  An unsatisfied condition is a result, not
    an error; constants that overflow 64-bit floats raise ``DomainError``.
    """
    p_bar = compute_p_bar(params.n, params.m, params.alpha, exps.q1, exps.q2)
    for name, value in (("domain_volume", domain_volume), ("u0_mass", u0_mass),
                        ("v0_sup", v0_sup), ("gradv0_l2sq", gradv0_l2sq)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if v0_sup < 0.0:
        raise DomainError("v0_sup must be nonnegative")
    p_used = max(exps.p, p_bar)
    s = params.chi0 * v0_sup
    inputs = f"p={p_used}, chi0 ||v0|| = {s}, mu = {params.mu}"
    try:
        k1 = k1_coeff(p_used, params.n, s, literal=k1_literal)
        k2 = k2_coeff(p_used, params.n)
        mu_min = mu_threshold(p_used, params.n, s, k1_literal=k1_literal)
        m_mass = mass_bound(params.k, params.mu, domain_volume, u0_mass)
        m_grad = gradv_bound(params.k, params.mu, domain_volume, v0_sup,
                             gradv0_l2sq, u0_mass)
    except OverflowError:
        raise DomainError(f"certificate constants overflow ({inputs})") from None
    for name, value in (("k1", k1), ("k2", k2), ("mu_min", mu_min),
                        ("m_mass", m_mass), ("M_grad", m_grad)):
        if not math.isfinite(value):
            raise DomainError(f"certificate constant {name} is {value} ({inputs})")
    return CertificateReport(
        p_bar=p_bar, p_used=p_used, k1=k1, k2=k2, mu_min=mu_min,
        m_mass=m_mass, M_grad=m_grad, satisfied=bool(params.mu > mu_min),
        params=params, exps=exps, v0_sup=float(v0_sup), u0_mass=float(u0_mass),
        gradv0_l2sq=float(gradv0_l2sq), domain_volume=float(domain_volume),
        k1_literal=k1_literal,
    )
