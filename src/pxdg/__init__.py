"""Interior-penalty DG and conforming FEM minimization of variable-exponent
p(x)-Dirichlet energies on 1D meshes, with the calibrated steep-gradient
benchmark and its exact solution."""

from .broken import BrokenFunction, broken_seminorm, elementwise_gradient, interpolate, jumps
from .exact import ExactSolution, build_exact
from .exponents import ExponentField, WeightedSampleSet, luxemburg_norm, modular
from .functional import FunctionalSpec, TermBreakdown, eval_discrete
from .lifting import lift
from .meshes import Mesh1D, refine, uniform_mesh
from .optimize import BfgsConfig, SolveReport, solve_cg, solve_dg
from .problems import benchmark_mesh, paper1d, reference_energy, solution_errors
from .reconstruction import reconstruct

__all__ = [
    "BrokenFunction", "broken_seminorm", "elementwise_gradient", "interpolate", "jumps",
    "ExactSolution", "build_exact",
    "ExponentField", "WeightedSampleSet", "luxemburg_norm", "modular",
    "FunctionalSpec", "TermBreakdown", "eval_discrete",
    "lift",
    "Mesh1D", "refine", "uniform_mesh",
    "BfgsConfig", "SolveReport", "solve_cg", "solve_dg",
    "benchmark_mesh", "paper1d", "reference_energy", "solution_errors",
    "reconstruct",
]

__version__ = "0.1.0"
