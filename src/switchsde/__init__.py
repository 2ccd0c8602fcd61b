"""Adaptive-mesh hybrid Milstein solver for scalar SDEs with Markovian switching.

The package simulates scalar SDEs whose drift and diffusion coefficients
switch among finitely many forms driven by a continuous-time Markov chain.
Trajectories are integrated over a switching-time-adapted adaptive mesh with
an explicit main map (Milstein or Euler-Maruyama) and a drift-implicit
Milstein backstop, giving strong mean-square convergence of order one for the
Milstein variant.
"""

from .ctmc import (
    Chains,
    GeneratorMatrix,
    MarkovPath,
    holding_rate,
    read_chain_csv,
    simulate_chain,
    simulate_chains,
    state_at,
    transition_pmf,
    validate_generator,
    write_chain_csv,
)
from .harness import (
    ConvergenceReport,
    EnsembleSummary,
    MeanChangeReport,
    mean_change_study,
    run_ensemble,
    strong_order_study,
)
from .models import (
    LinearModelParams,
    RegimeModel,
    TelomereParams,
    check_diffusion_derivative,
    exact_linear_solution,
    linear_model,
    telomere_model,
    telomere_regime_model,
)
from .noise import BrownianPath
from .schemes import (
    StepRecord,
    Trajectory,
    em_map,
    implicit_milstein_map,
    implicit_milstein_residual,
    milstein_map,
    solve_terminal,
    solve_trajectory,
)
from .stepping import StepDecision, StepParams, StepReason, build_mesh_bound, next_step
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BrownianPath",
    "Chains",
    "ConvergenceReport",
    "EnsembleSummary",
    "GeneratorMatrix",
    "LinearModelParams",
    "MarkovPath",
    "MeanChangeReport",
    "RegimeModel",
    "StepDecision",
    "StepParams",
    "StepReason",
    "StepRecord",
    "TelomereParams",
    "Trajectory",
    "build_mesh_bound",
    "check_diffusion_derivative",
    "em_map",
    "errors",
    "exact_linear_solution",
    "holding_rate",
    "implicit_milstein_map",
    "implicit_milstein_residual",
    "linear_model",
    "mean_change_study",
    "milstein_map",
    "next_step",
    "read_chain_csv",
    "run_ensemble",
    "simulate_chain",
    "simulate_chains",
    "solve_terminal",
    "solve_trajectory",
    "state_at",
    "strong_order_study",
    "telomere_model",
    "telomere_regime_model",
    "transition_pmf",
    "validate_generator",
    "write_chain_csv",
]
