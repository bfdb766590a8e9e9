"""Per-step diagnostics against the certified a priori bounds.

Each record captures the quantities the theory controls: total mass of u, its
extrema, sup v, the signal gradient energy, and the composite energy

    phi_p = int (u+1)^p + chi0^(2p) int |grad v|^(2p).

Bounds come from a :class:`~chemfv.certificates.CertificateReport`; exceeding
one (beyond the configured relative slack for discretization error) appends a
violation entry.  Violations are data, never exceptions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import CertificateReport
from .errors import CorruptionError, DomainError
from .grid import gradient_cells, integrate, ScalarField
from .solver import SimState

PHI_OVERFLOW = "phi overflowed (large p on a large state)"


@dataclass
class MonitorConfig:
    """Exponent for phi and relative tolerances for the bound checks.

    The exact bounds hold for the continuous problem; the defaults leave 5%
    slack for O(h^2) + O(dt) scheme error on the mass and gradient bounds and
    essentially none (1e-8) for the maximum-principle checks.
    """

    p: float
    tol_mass: float = 5e-2
    tol_grad: float = 5e-2
    tol_maxprin: float = 1e-8

    def __post_init__(self):
        if not self.p >= 1.0:
            raise DomainError("monitor exponent p must be >= 1")
        for name in ("tol_mass", "tol_grad", "tol_maxprin"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")


@dataclass
class Violation:
    bound_name: str
    bound_value: float
    observed: float

    def as_dict(self) -> dict:
        return {"bound_name": self.bound_name, "bound_value": self.bound_value,
                "observed": self.observed}


@dataclass
class MonitorRecord:
    t: float
    mass_u: float
    sup_u: float
    min_u: float
    sup_v: float
    gradv_l2sq: float
    phi_p: float
    dt: float
    violations: list[Violation] = field(default_factory=list)


def _grad_sq(v: ScalarField) -> np.ndarray:
    """|grad v|^2 per cell, with the cell-centered gradient."""
    grads = gradient_cells(v)
    total = grads[0] ** 2
    for g in grads[1:]:
        total = total + g**2
    return total


def gradv_l2sq(v: ScalarField) -> float:
    """int |grad v|^2 with the cell-centered gradient."""
    return integrate(ScalarField(v.grid, _grad_sq(v)))


def phi(state: SimState, p: float, chi0: float, *, grad_sq: np.ndarray | None = None) -> float:
    """Composite energy int (u+1)^p + chi0^(2p) int |grad v|^(2p).

    ``grad_sq`` is |grad v|^2 per cell if the caller already has it.
    """
    if not p >= 1.0:
        raise DomainError("phi requires p >= 1")
    with np.errstate(over="ignore"):  # overflow is detected and reported below
        powered = (state.u.values + 1.0) ** p
        try:
            u_term = integrate(ScalarField(state.u.grid, powered))
        except CorruptionError:   # a power is not finite
            raise CorruptionError(PHI_OVERFLOW) from None
        if chi0 == 0.0:
            grad_term = 0.0
        else:
            gsq = _grad_sq(state.v) if grad_sq is None else grad_sq
            grad_term = chi0 ** (2.0 * p) * integrate(ScalarField(state.v.grid, gsq**p))
    value = u_term + grad_term
    if not math.isfinite(value):
        raise CorruptionError(PHI_OVERFLOW)
    return value


def record(state: SimState, dt: float, cert: CertificateReport,
           cfg: MonitorConfig) -> MonitorRecord:
    """Evaluate all monitored quantities and flag bound violations."""
    u, v = state.u, state.v
    mass_u = integrate(u)
    sup_u = float(u.values.max())
    min_u = float(u.values.min())
    sup_v = float(v.values.max())
    gsq = _grad_sq(v)
    grad_energy = integrate(ScalarField(v.grid, gsq))
    phi_p = phi(state, cfg.p, cert.params.chi0, grad_sq=gsq)

    violations: list[Violation] = []
    if mass_u > cert.m_mass * (1.0 + cfg.tol_mass):
        violations.append(Violation("mass", cert.m_mass, mass_u))
    if grad_energy > cert.M_grad * (1.0 + cfg.tol_grad):
        violations.append(Violation("gradv_l2", cert.M_grad, grad_energy))
    if sup_v > cert.v0_sup * (1.0 + cfg.tol_maxprin):
        violations.append(Violation("sup_v", cert.v0_sup, sup_v))
    if min_u < -cfg.tol_maxprin:
        violations.append(Violation("min_u", 0.0, min_u))
    return MonitorRecord(state.t, mass_u, sup_u, min_u, sup_v, grad_energy,
                         phi_p, dt, violations)


@dataclass
class PhiTrend:
    bounded: bool
    sup_phi: float
    t_of_sup: float


def phi_trend(records: list[MonitorRecord]) -> PhiTrend:
    """Judge whether phi stayed bounded: no terminal growth and a finite sup.

    "No terminal growth" means the maximum over the last quarter of the
    records does not exceed the maximum over the earlier three quarters; a
    sequence that keeps climbing at the end fails, a decaying or plateaued one
    passes.  This is a reporting heuristic, not a certified bound.
    """
    if len(records) < 2:
        raise DomainError("phi_trend needs at least 2 records")
    values = np.array([r.phi_p for r in records])
    times = np.array([r.t for r in records])
    idx = int(values.argmax())
    sup_phi = float(values[idx])
    split = max(1, int(math.floor(0.75 * len(values))))
    head_max = float(values[:split].max())
    tail_max = float(values[split:].max()) if split < len(values) else -math.inf
    bounded = math.isfinite(sup_phi) and tail_max <= head_max
    return PhiTrend(bounded, sup_phi, float(times[idx]))
