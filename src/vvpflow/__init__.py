"""Structure-preserving vorticity-velocity-pressure flow solver.

Whitney-form discretization of incompressible flow on tetrahedral
meshes whose discrete velocity is exactly divergence-free and whose
velocity error is insensitive to the pressure (gradient forcings move
only the pressure).  The top level re-exports what a typical script
needs: box meshes, the discrete de Rham complex, boundary conditions,
the solvers and their errors.  Everything else lives in the submodules
(``vvpflow.mesh``, ``vvpflow.spaces``, ``vvpflow.assembly``,
``vvpflow.linalg``, ``vvpflow.solver``, ``vvpflow.experiments``, ...).
"""
from .assembly import BoundaryConditionSpec, RegionBC, build_harmonic_space
from .experiments import least_squares_slope
from .linalg import SingularSystemError, SolverError
from .mesh import build_box_mesh
from .solver import SolverConfig, initialize_state, run_transient, solve_stokes, step
from .spaces import DeRhamComplex, FormCoefficients, interpolate

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditionSpec",
    "RegionBC",
    "build_harmonic_space",
    "least_squares_slope",
    "SingularSystemError",
    "SolverError",
    "build_box_mesh",
    "SolverConfig",
    "initialize_state",
    "run_transient",
    "solve_stokes",
    "step",
    "DeRhamComplex",
    "FormCoefficients",
    "interpolate",
    "__version__",
]
