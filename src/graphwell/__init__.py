"""Ground states of coupled nonlinear elliptic systems on finite weighted graphs.

The package computes least-energy solutions of a two-component coupled system
and of its Dirichlet limit on the potential wells, by projected descent on the
Nehari manifold, and reproduces the concentration behavior of the solutions as
the potential scaling grows.
"""

from .calculus import (
    PairFunction,
    check_admissible,
    gradient_form_all,
    integrate,
    laplacian_all,
    norm_Lq,
)
from .errors import (
    BoundaryMismatchError,
    DegeneratePairError,
    DomainViolationError,
    EnergyOverflowError,
    GraphValidationError,
    GraphwellError,
    ParseError,
    UnknownLabelError,
)
from .experiments import (
    TABLE1_REFERENCE,
    ComparisonReport,
    ReferenceDiff,
    SweepConfig,
    SweepRecord,
    aligned_h_distance,
    build_g22,
    compare_reference,
    decade_grid,
    g22_reference_values,
    lambda_sweep,
)
from .functional import (
    DirichletProblem,
    LambdaProblem,
    NehariDiagnostics,
    Problem,
    energy_J_lambda,
    energy_J_Omega,
    grad_J_lambda,
    grad_J_Omega,
    norm_H_lambda_sq,
)
from .graph import (
    PotentialField,
    WeightedGraph,
    as_domain,
    boundary,
    validate_graph,
)
from .problem_io import (
    ProblemFile,
    parse_problem,
    parse_problem_file,
    read_solution,
    write_solution,
    write_sweep,
)
from .solver import (
    SolveResult,
    SolverConfig,
    solve_dirichlet,
    solve_ground_state,
)

__version__ = "0.1.0"
