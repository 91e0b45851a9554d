"""Bound states, wavefunctions, and thermodynamics of a ring-shaped
pseudo-harmonic oscillator potential in the spin- and pseudo-spin-symmetric
relativistic regimes, solved through supersymmetric shape invariance and
cross-checked by an independent finite-difference eigensolver.

``import rspho`` loads none of the package's modules.  Each public name is
listed once, in _EXPORTS under the module that defines it, and that module
is imported the first time the name is looked up on the package (PEP 562
``__getattr__``), so a process imports only the modules whose names it
uses.  ``from rspho import *`` imports all of them.
"""

__version__ = "0.1.0"

# The public names, by defining module.
_EXPORTS = {
    "angular": ("ShapeInvarianceChain", "angular_ground_state", "angular_level",
                "angular_spectrum", "partner_potentials_angular", "q_of_vtilde",
                "shape_invariance_chain"),
    "errors": ("ConvergenceError", "DomainError", "NoRootError", "RsphoError"),
    "model": ("BranchSign", "Convention", "PotentialParams", "QuantumNumbers",
              "SolveRequest", "Symmetry", "Violation", "evaluate_potential", "validate"),
    "oracle": ("GridSpec", "OracleReport", "fd_eigenvalues", "verify_angular",
               "verify_radial"),
    "radial": ("WavefunctionSamples", "effective_scale", "partner_potentials_radial",
               "radial_spectrum", "radial_wavefunction", "wavefunction_scales"),
    "spectrum": ("SolveResult", "energy_residual", "solve_energy"),
    "thermo": ("ThermoPoint", "nonrelativistic_energy", "nonrelativistic_levels",
               "thermo_point"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: only an import made through
    # it is listed by ``python -X importtime``.  With a fromlist it returns
    # the submodule itself.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    # Bound here, the name is found without this hook from now on.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
