"""Bound states, wavefunctions, and thermodynamics of a ring-shaped
pseudo-harmonic oscillator potential in the spin- and pseudo-spin-symmetric
relativistic regimes, solved through supersymmetric shape invariance and
cross-checked by an independent finite-difference eigensolver.
"""

from .angular import (AngularSolution, ShapeInvarianceChain, angular_ground_state,
                      angular_spectrum, lambda_from_coupling, lambda_separation,
                      partner_potentials_angular, q_of_vtilde, shape_invariance_chain,
                      solve_angular, v_tilde)
from .errors import ConvergenceError, DomainError, NoRootError, RsphoError
from .model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                    SolveRequest, Symmetry, Violation, evaluate_potential, validate)
from .oracle import (GridSpec, OracleReport, fd_eigenvalues, verify_angular,
                     verify_radial)
from .radial import (RadialSolution, WavefunctionSamples, effective_scale,
                     kummer_1f1_terminating, partner_potentials_radial,
                     radial_ansatz, radial_spectrum, radial_wavefunction,
                     wavefunction_scales)
from .spectrum import (SolveResult, SolverOptions, energy_residual,
                       nonrelativistic_energy, solve_energies, solve_energy)
from .thermo import (ThermoPoint, nonrelativistic_levels, partition_function,
                     thermo_point)

__version__ = "0.1.0"

__all__ = [
    "AngularSolution", "BranchSign", "Convention", "ConvergenceError",
    "DomainError", "GridSpec", "NoRootError", "OracleReport",
    "PotentialParams", "QuantumNumbers", "RadialSolution", "RsphoError",
    "ShapeInvarianceChain", "SolveRequest", "SolveResult", "SolverOptions",
    "Symmetry", "ThermoPoint", "Violation", "WavefunctionSamples",
    "angular_ground_state", "angular_spectrum", "effective_scale",
    "energy_residual", "evaluate_potential", "fd_eigenvalues",
    "kummer_1f1_terminating", "lambda_from_coupling", "lambda_separation",
    "nonrelativistic_energy", "nonrelativistic_levels",
    "partner_potentials_angular", "partner_potentials_radial",
    "partition_function", "q_of_vtilde", "radial_ansatz", "radial_spectrum",
    "radial_wavefunction", "shape_invariance_chain", "solve_angular",
    "solve_energies", "solve_energy", "thermo_point", "v_tilde", "validate",
    "verify_angular", "verify_radial", "wavefunction_scales",
]
