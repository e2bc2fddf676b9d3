"""Distributionally robust chance-constrained programming over Wasserstein
balls around an empirical distribution, with exact mixed-integer
formulations, cutting planes, and independent feasibility oracles."""

from .bnc import BncConfig, SolveResult, compute_gap, solve
from .cuts import (
    Cut,
    FractionalPoint,
    MixingSeparator,
    PathSeparator,
    best_path_sequence,
    format_cut,
    most_violated_star,
)
from .formulations import (
    FORMULATION_KINDS,
    QuantileData,
    build_basic,
    build_formulation,
    compute_big_m,
    compute_quantiles,
    theta_grid,
    theta_max,
)
from .model import (
    DrccpInstance,
    MipModel,
    Polyhedron,
    SafetyRow,
    SampleSet,
    distance_profile,
    dual_norm,
    load_instance,
    margins,
    read_instance,
    save_instance,
)
from .oracles import (
    CvarResult,
    EnumerationResult,
    FeasibilityCertificate,
    check_cut_validity,
    cvar,
    enumerate_optimal,
    lemma_certificate,
    worst_case_prob,
)
from .simplex import LpProblem, LpSolution, SimplexSolver, solve_lp
from .transport import TransportInstance, generate, to_drccp, transport_big_m

__version__ = "0.1.0"

