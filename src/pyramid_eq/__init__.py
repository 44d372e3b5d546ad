"""Steady-state education/labor matching equilibria on a skill grid.

Solves the discretized planner's LP and its wage dual two independent
ways (exact simplex and damped envelope fixed-point iteration), verifies
the structural properties of the solutions (assortativity, specialization,
duality, convexity, tail bounds), and measures the wage-gradient phase
transition at N*theta = 1.
"""

from .model import (
    DiscretizationWarning,
    DoublingReport,
    GridCoupling,
    GridMeasure,
    SkillGrid,
    TechnologyParams,
    UtilityCurve,
    UtilityValidation,
    discretize_density,
    doubling_check,
    pushforward_z,
    validate_utility,
)
from .wages import (
    SolverConfig,
    StabilityReport,
    WageProfile,
    convexify,
    solve_wages,
    stability_residuals,
)
from .lp import (
    DiscreteLP,
    DualityReport,
    LPSolution,
    assemble_primal,
    duality_report,
    solve_lp,
)
from .analysis import (
    DensityReport,
    OccupationSplit,
    SpecializationReport,
    adult_density,
    assortativity_check,
    coupling_from_profile,
    labor_coupling_from_profile,
    occupation_split,
    specialization_report,
    uniqueness_probe,
)
from .pyramid import (
    GuruHierarchy,
    InadmissiblePopulation,
    PhaseReport,
    TopSlopeReport,
    guru_census,
    nearest_admissible_populations,
    phase_fit,
    render_hierarchy,
    top_slopes,
)

__version__ = "0.1.0"
