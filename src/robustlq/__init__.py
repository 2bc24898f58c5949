"""Robust Stackelberg equilibria for zero-sum stochastic linear-quadratic
leader-follower games with asymmetric drift uncertainty.  `augment` and
`backward`, the cascade behind `solve_game`, are not a stable API."""

from .equilibrium import (EquilibriumSolution, StrategyOutput,
                          clamp_nonnegative, ensure_diagnostics, feedback,
                          solve_game, value)
from .model import (BlowUpError, GameSpec, MatrixPath, RegularityError,
                    SpecError, TimeGrid, ValidationReport, build_spec,
                    dump_spec, load_spec, make_grid, spec_from_dict,
                    spec_to_dict, validate_spec)
from .montecarlo import (OracleResult, PerturbationReport, SimConfig,
                         SimOutput, bvp_oracle, deviation_tests,
                         perturb_best_response, sampled_convexity, simulate)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "EquilibriumSolution", "GameSpec", "MatrixPath",
    "OracleResult", "PerturbationReport", "RegularityError", "SimConfig",
    "SimOutput", "SpecError", "StrategyOutput", "TimeGrid", "ValidationReport",
    "build_spec", "bvp_oracle", "clamp_nonnegative", "deviation_tests",
    "dump_spec", "ensure_diagnostics", "feedback", "load_spec", "make_grid",
    "perturb_best_response", "sampled_convexity", "simulate", "solve_game",
    "spec_from_dict", "spec_to_dict", "validate_spec", "value",
]
