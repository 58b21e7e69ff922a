"""Simulation and stability-analysis toolkit for the flexibility function.

The flexibility function maps a price signal to a demand response through
a saturating state (the aggregate charge level of flexible loads).  This
package provides the model itself, deterministic and stochastic time
integration, a finite-volume generator discretization for transient and
stationary state distributions, and numerically verified Lyapunov
stability certificates, plus a small bilinear toy system with closed-form
solutions used to validate the integrators.
"""

from .bilinear import BilinearParams
from .certificates import StabilityCertificate
from .dynamics import Ensemble, Schedule, Trajectory, integrate_ode, simulate_sde
from .equilibria import EquilibriumPoint, certify_deterministic, solve_equilibrium
from .generator import (
    DistributionSeries,
    GeneratorMatrix,
    StateGrid,
    build_generator,
    evolve_pdf,
    spectral_gap,
    stationary_moments,
    stationary_pdf,
)
from .ispline import ISplineBasis
from .model import FlexParams, ValidationReport, reference_params, validate
from .stability import certify_bounded, certify_stable, max_stable_noise

__version__ = "0.1.0"

__all__ = [
    "BilinearParams",
    "DistributionSeries",
    "Ensemble",
    "EquilibriumPoint",
    "FlexParams",
    "GeneratorMatrix",
    "ISplineBasis",
    "Schedule",
    "StabilityCertificate",
    "StateGrid",
    "Trajectory",
    "ValidationReport",
    "build_generator",
    "certify_bounded",
    "certify_deterministic",
    "certify_stable",
    "evolve_pdf",
    "integrate_ode",
    "max_stable_noise",
    "reference_params",
    "simulate_sde",
    "solve_equilibrium",
    "spectral_gap",
    "stationary_moments",
    "stationary_pdf",
    "validate",
    "__version__",
]
