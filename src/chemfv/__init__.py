"""chemfv: finite-volume chemotaxis-consumption simulator with a certificate engine.

The package couples three layers:

* ``certificates`` evaluates the explicit constants of the boundedness
  theory and decides whether a damping coefficient is provably large enough;
* ``grid`` / ``solver`` / ``monitors`` simulate the PDE system on zero-flux
  rectangular grids and check every certified bound along the way;
* ``oracle`` stress-tests the underlying functional and algebraic
  inequalities on randomized discrete inputs.

The ``chemfv`` command line (see ``chemfv.cli``) drives all of it from
INI-style config files.
"""
from .certificates import (AuxiliaryExponents, CertificateReport, EnergyConstants,
                           ModelParams, chi_growth_bound, chi_prototype,
                           compute_p_bar, d1_constant, d3_constant,
                           default_exponents, energy_constants,
                           evaluate_certificate, gradv_bound, k1_coeff, k2_coeff,
                           mass_bound, mu_threshold)
from .errors import ChemfvError, ConfigError, CorruptionError, DomainError
from .grid import (Grid, ScalarField, constant_field, cosine_field, extend_neumann,
                   field_from_function, gradient_cells, hessian,
                   integrate, laplacian, lp_norm, random_smooth_field, read_field,
                   write_field)
from .monitors import MonitorConfig, MonitorRecord, PhiTrend, phi, phi_trend, record
from .solver import (RunResult, SimState, SolverConfig, StepOutcome, run, stable_dt,
                     step)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryExponents", "CertificateReport", "ChemfvError", "ConfigError",
    "CorruptionError", "DomainError", "EnergyConstants", "Grid", "ModelParams",
    "MonitorConfig", "MonitorRecord", "PhiTrend", "RunResult", "ScalarField",
    "SimState", "SolverConfig", "StepOutcome", "chi_growth_bound",
    "chi_prototype", "compute_p_bar", "constant_field", "cosine_field",
    "d1_constant", "d3_constant", "default_exponents", "energy_constants",
    "evaluate_certificate", "extend_neumann", "field_from_function",
    "gradient_cells", "gradv_bound", "hessian", "integrate", "k1_coeff",
    "k2_coeff", "laplacian", "lp_norm", "mass_bound", "mu_threshold", "phi",
    "phi_trend", "random_smooth_field", "read_field", "record", "run",
    "stable_dt", "step", "write_field",
]
