"""dlfmkit: fit discrete latent factor models by biconvex relaxation.

The mixed-integer assignment of samples to factor-specific convex losses is
relaxed to row-stochastic weights and solved by block coordinate descent,
alternating a parameter problem and a factor problem. Exhaustive oracles and
four synthetic reproduction studies ship alongside the solver.
"""

from .engine import (
    GAP_CONVERGED,
    MAX_ITER,
    OBJECTIVE_STALLED,
    EngineFailure,
    FitResult,
    fit,
    gap,
    init_factors,
    splitmix64,
)
from .fsolve import harden, solve_f_kl, solve_f_plain
from .kernels import (
    ProjectionError,
    QpProblem,
    QpSolution,
    SingularQp,
    joint_prox,
    project,
    qp_problem,
    qp_solve,
)
from .model import (
    Dataset,
    LossAtom,
    ModelSpec,
    RegularizerAtom,
    SolverControls,
    ConstraintAtom,
    ValidationReport,
    Violation,
    binary_logit,
    box,
    dataset,
    free,
    group_l2,
    huber,
    kl_chain,
    kl_chain_value,
    l1,
    loss_matrix,
    lp_regression,
    monotone_nondecreasing,
    monotone_nonincreasing,
    multinomial_logit,
    nonneg,
    nonpos,
    norm_ball2,
    objective,
    polyhedron,
    shared_spec,
    square_regression,
    squared_distance,
    sum_equals,
    validate,
)
from .oracle import InstanceTooLarge, OracleResult, brute_force_fit, fd_gradient, qp_active_set_oracle
from .psolve import PSolveOutcome, SubsolverFailure, solve_p

__version__ = "0.1.0"
