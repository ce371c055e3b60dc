"""privsig: private private information structures.

Toolkit for constructing, testing, and optimizing multi-agent signal systems
whose signals are mutually independent: conjugate belief distributions and
the Pareto frontier, optimal private disclosure, sets and partitions of
uniqueness, feasibility of belief pairs, welfare maximization, information
bounds, and the zero-sum designer problem.
"""

from .beliefs import (
    AtomicDist,
    StepCDF,
    blackwell_dominates,
    cdf_eval,
    conjugate,
    dists_close,
    is_mpc,
    mean,
    point_mass,
    quantile,
    step_cdf,
    uniform_grid,
    wasserstein1,
)
from .disclosure import (
    finite_disclosure,
    optimal_disclosure_dist,
    revelation_probability,
    sample_disclosure,
    simulate_disclosure,
)
from .errors import (
    PrivacyError,
    PrivsigError,
    ResourceBudgetError,
    ValidationError,
)
from .feasibility_welfare import (
    WelfareResult,
    expected_indirect_utility,
    feasibility_certificate,
    is_feasible_pair,
    maximize_welfare,
    welfare_of_pair,
)
from .games import (
    DesignerProblem,
    designer_optimum,
    independent_baseline,
    relaxed_optimum,
    solve_zero_sum,
)
from .infobounds import (
    InfoReport,
    check_binary_strengthening,
    check_quadratic_bound,
    check_superadditivity,
    entropy,
    mutual_information,
    quadratic_information,
)
from .structures import (
    Band,
    FiniteStructure,
    FuzzyGrid,
    GridPartition,
    GridSet,
    RegionSet,
    SimplexDist,
    build_associated_set,
    build_uninformative_set,
    direct_revelation,
    equivalent,
    garble,
    grid_projections,
    is_perfect,
    is_private_private,
    joint_posterior_dist,
    posterior_dist,
    rasterize,
    reconstruct_secret,
    region_area_in_window,
    split_secret,
    structure_from_grid,
)
from .uniqueness import (
    additive_set_test,
    brute_force_marginal_mates,
    conjugate_partition,
    gale_ryser_unique,
    is_pareto_optimal_2x2,
    lorentz_uniqueness_2d,
    partition_uniqueness_grid,
    partition_uniqueness_witness,
    switch_uniqueness_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicDist", "StepCDF", "SimplexDist", "FiniteStructure",
    "Band", "RegionSet", "GridSet", "GridPartition", "FuzzyGrid",
    "InfoReport", "WelfareResult", "DesignerProblem",
    "PrivsigError", "ValidationError", "PrivacyError", "ResourceBudgetError",
    "cdf_eval", "quantile", "conjugate", "mean", "step_cdf", "point_mass",
    "uniform_grid", "is_mpc", "blackwell_dominates", "wasserstein1",
    "dists_close",
    "posterior_dist", "joint_posterior_dist", "is_private_private",
    "is_perfect", "equivalent", "direct_revelation", "garble",
    "split_secret", "reconstruct_secret",
    "build_uninformative_set", "build_associated_set", "rasterize",
    "region_area_in_window", "grid_projections", "structure_from_grid",
    "is_pareto_optimal_2x2", "lorentz_uniqueness_2d",
    "switch_uniqueness_matrix", "gale_ryser_unique", "conjugate_partition",
    "additive_set_test", "partition_uniqueness_grid",
    "partition_uniqueness_witness", "brute_force_marginal_mates",
    "optimal_disclosure_dist", "sample_disclosure", "finite_disclosure",
    "revelation_probability", "simulate_disclosure",
    "entropy", "mutual_information", "quadratic_information",
    "check_superadditivity", "check_binary_strengthening",
    "check_quadratic_bound",
    "is_feasible_pair", "feasibility_certificate", "maximize_welfare",
    "welfare_of_pair", "expected_indirect_utility",
    "solve_zero_sum", "designer_optimum", "independent_baseline",
    "relaxed_optimum",
]
