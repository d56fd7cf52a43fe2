"""Continuification-based shepherding control of large swarms on a 2-D torus.

A controllable set of herder agents confines a diffusing target population
inside a goal region: the desired target density fixes, by deconvolution
against the pairwise repulsion kernel, the herder density (and head count)
that holds it in equilibrium; a spectral potential solve turns the herder
density error into velocity commands. Both the agent-level stochastic
system and its macroscopic density twin are provided, along with a batch
CLI for feasibility analysis, closed-loop simulation, and verification of
the convergence rates.
"""

from .torus import ArenaMap, torus_distance, wrap, wrapped_displacement
from .kernel import KernelParams, kernel_periodic, sample_on_grid
from .grids import (
    DensityField,
    GridSpec,
    ScalarField,
    VectorField,
    circular_convolve,
    divergence,
    gradient,
    kernel_symbol,
    l2_norm,
    laplacian,
    mass,
    poisson_solve,
    resample,
)
from .kde import KdeParams, estimate_density
from .feasibility import (
    DeconvolutionOperator,
    FeasibilityResult,
    GoalRegion,
    HerdingPlan,
    InfeasibleError,
    StabilityReport,
    VonMisesSpec,
    deconvolve,
    desired_velocity_field,
    feasibility_map,
    herder_count,
    minimal_herder_mass,
    plan_herders,
    stability_margin,
    von_mises_density,
)
from .control import (
    ControlSolution,
    control_field,
    herder_error,
    sample_at_herders,
    speed_limit,
)
from .microsim import (
    AgentEnsemble,
    ContainmentMetric,
    SimParams,
    SimulationResult,
    containment,
    drift_all,
    herder_lattice,
    run,
    step,
    uniform_targets,
)
from .continuum import (
    ContinuumState,
    HerderDecayReport,
    TargetDecayReport,
    continuum_step,
    stable_dt,
    verify_herder_convergence,
    verify_target_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "AgentEnsemble",
    "ArenaMap",
    "ContainmentMetric",
    "ContinuumState",
    "ControlSolution",
    "DeconvolutionOperator",
    "DensityField",
    "FeasibilityResult",
    "GoalRegion",
    "GridSpec",
    "HerderDecayReport",
    "HerdingPlan",
    "InfeasibleError",
    "KdeParams",
    "KernelParams",
    "ScalarField",
    "SimParams",
    "SimulationResult",
    "StabilityReport",
    "TargetDecayReport",
    "VectorField",
    "VonMisesSpec",
    "circular_convolve",
    "containment",
    "continuum_step",
    "control_field",
    "deconvolve",
    "desired_velocity_field",
    "divergence",
    "drift_all",
    "estimate_density",
    "feasibility_map",
    "gradient",
    "herder_count",
    "herder_error",
    "herder_lattice",
    "kernel_periodic",
    "kernel_symbol",
    "l2_norm",
    "laplacian",
    "mass",
    "minimal_herder_mass",
    "plan_herders",
    "poisson_solve",
    "resample",
    "run",
    "sample_at_herders",
    "sample_on_grid",
    "speed_limit",
    "stability_margin",
    "stable_dt",
    "step",
    "torus_distance",
    "uniform_targets",
    "verify_herder_convergence",
    "verify_target_convergence",
    "von_mises_density",
    "wrap",
    "wrapped_displacement",
]
