"""Per-step diagnostics against the certified a priori bounds.

Each record captures the quantities the theory controls: total mass of u, its
extrema, sup v, the signal gradient energy, and the composite energy

    phi_p = int (u+1)^p + chi0^(2p) int |grad v|^(2p).

Everything a record checks against comes from one
:class:`~chemfv.certificates.CertificateReport`: phi_p is evaluated at
``p_used``, the exponent at which the certificate took its damping threshold
mu_min, with the certificate's chi0, and the mass and gradient-energy bounds
are its ``m_mass`` and ``M_grad``.  Exceeding a bound by more than the
relative slack ``BOUND_SLACK`` appends a violation entry.  Violations are
data, never exceptions.  ``min_u``, ``sup_u`` and ``sup_v`` are read from the
extrema the march hands its hook, ``solver._extrema`` of the state, and are
recorded but not checked here: the maximum principles u >= 0 and v <= sup v0
belong to the solver, which ends a run ``corrupted`` before any state that
breaks them reaches the monitor hook.

A record allocates no grid-sized array: the gradient goes into the face buffer
of ``grid._work`` and phi's powers into its two cell arrays, which the solver's
kernel also uses as scratch, dead while the march's hook runs; ``grid``
describes how they are held.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import CertificateReport
from .errors import CorruptionError, DomainError
from .grid import _require_finite, _work, gradient_cells, integrate, ScalarField
from .solver import Extrema, SimState

PHI_OVERFLOW = "phi overflowed (large p on a large state)"
# Relative slack of the mass and gradient-energy checks.  The certified bounds
# hold for the continuous problem; the 5% absorbs the O(h^2) + O(dt) error of
# the discrete mass and of int |grad v|^2 on the grids the runs use.
BOUND_SLACK = 5e-2


@dataclass
class Violation:
    bound_name: str
    bound_value: float
    observed: float


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
    """|grad v|^2 per cell, with the cell-centered gradient, in the grid's face
    buffer; inf where a square overflows."""
    with np.errstate(over="ignore"):   # integrate and phi report a non-finite result
        grads = gradient_cells(v, _work(v.grid.shape)[0][:v.grid.dim])
        gsq = np.square(grads[0], out=grads[0])
        for g in grads[1:]:
            gsq += np.square(g, out=g)
    return gsq


def _power(x: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """x^p per cell, x >= 0 and p >= 1, written into ``out`` and returned; at
    p = 1 the result is ``x`` itself.  ``x`` is never written.

    An integral p goes by binary powering: one squaring per bit after the
    leading one and one multiply by x per further set bit, in place.  The
    result is x^p times at most p - 1 factors (1 + delta), |delta| <= u =
    2^-53, so it lies within gamma_{p-1} = (p-1)u / (1 - (p-1)u) of x^p
    (Higham 2002, ch. 3).  At p = 1 and 2 it has the bits of ``x**p``.  Any
    other p takes ``np.power``, which is what ``x**p`` calls at a
    non-integral p >= 1.
    """
    if not float(p).is_integer():
        return np.power(x, p, out=out)
    result = x
    for bit in bin(int(p))[3:]:
        result = np.multiply(result, result, out=out)
        if bit == "1":
            np.multiply(result, x, out=out)
    return result


def gradv_l2sq(v: ScalarField) -> float:
    """int |grad v|^2 with the cell-centered gradient; inf when v is finite
    and a cell's square overflows, and a ``CorruptionError`` when v is not."""
    try:
        return integrate(ScalarField(v.grid, _grad_sq(v)))
    except CorruptionError:
        _require_finite(v.values)
        return math.inf


def phi(state: SimState, p: float, chi0: float, *, grad_sq: np.ndarray | None = None) -> float:
    """Composite energy int (u+1)^p + chi0^(2p) int |grad v|^(2p).

    ``grad_sq`` is |grad v|^2 per cell if the caller already has it.  The
    powers are ``_power``'s: ``**`` exactly at p = 1, 2 and non-integral p,
    binary powering at any other integral p.
    """
    if not p >= 1.0:
        raise DomainError("phi requires p >= 1")
    _, base, powered = _work(state.u.grid.shape)
    with np.errstate(over="ignore"):  # overflow is detected and reported below
        np.add(state.u.values, 1.0, out=base)
        try:
            u_term = integrate(ScalarField(state.u.grid, _power(base, p, powered)))
            if chi0 == 0.0:
                grad_term = 0.0
            else:
                gsq = _grad_sq(state.v) if grad_sq is None else grad_sq
                # a Python float power raises OverflowError where numpy gives inf
                grad_term = chi0 ** (2.0 * p) * integrate(ScalarField(state.v.grid,
                                                                      _power(gsq, p, base)))
        except (CorruptionError, OverflowError):   # a power is not finite
            raise CorruptionError(PHI_OVERFLOW) from None
    value = u_term + grad_term
    if not math.isfinite(value):
        raise CorruptionError(PHI_OVERFLOW)
    return value


def record(state: SimState, dt: float, cert: CertificateReport,
           extrema: Extrema) -> MonitorRecord:
    """Evaluate all monitored quantities and flag mass and gradient-energy violations.

    ``extrema`` is ``solver._extrema`` of ``state``, as the march's hook gets
    it.  phi_p is taken at the certificate's ``p_used``.
    """
    min_u, sup_u, _, sup_v, _ = extrema
    mass_u = integrate(state.u)
    gsq = _grad_sq(state.v)
    grad_energy = integrate(ScalarField(state.v.grid, gsq))
    phi_p = phi(state, cert.p_used, cert.params.chi0, grad_sq=gsq)

    violations: list[Violation] = []
    if mass_u > cert.m_mass * (1.0 + BOUND_SLACK):
        violations.append(Violation("mass", cert.m_mass, mass_u))
    if grad_energy > cert.M_grad * (1.0 + BOUND_SLACK):
        violations.append(Violation("gradv_l2", cert.M_grad, grad_energy))
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
