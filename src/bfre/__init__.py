"""Linear optimization over bipolar fuzzy relational equation systems.

The pipeline: resolve the system into per-cell solution sets (resolution),
prune it with redundancy and optimality rules (simplify), then search the
surviving assignments with a branch-and-bound (optimize).  A brute-force
reference (oracle) validates the whole chain on small instances, and a CLI
(cli) exposes everything on JSON problem files.
"""

from importlib import resources

from .errors import CapExceeded, InconsistentReduction
from .optimize import (
    InfeasibleReason, Solution, Status, branch_and_bound,
    enumerate_feasible_decomposition, solve,
)
from .oracle import (
    OracleReport, brute_force_optimum, enumerate_all_admissible,
    grid_feasibility_census, planted_feasible_instance, random_feasible_instance,
    random_instance,
)
from .resolution import (
    FeasibilityReport, FeasibilityStatus, ProblemInstance, ResolutionTables,
    bipolar_cell, build_tables, check_feasibility, is_feasible_point,
)
from .sets import SetForm
from .simplify import Mode, ReducedProblem, ReductionLedger, simplify
from .tnorms import (
    DomainError, Family, InvalidParameter, Kind, PreconditionViolated, TNorm,
    evaluate, generator, pseudo_inverse, solve_u, validate,
)

__version__ = "0.1.0"


def example_instance() -> ProblemInstance:
    """The bundled 10x10 Yager(p=2) demonstration instance."""
    from .cli import load_problem

    return load_problem(example_path())


def example_path() -> str:
    """Filesystem path of the bundled demonstration problem file."""
    return str(resources.files(__package__).joinpath("data/example1.json"))
