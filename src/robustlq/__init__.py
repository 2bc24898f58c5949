"""Robust Stackelberg equilibria for zero-sum stochastic linear-quadratic
leader-follower games with asymmetric drift uncertainty."""

from .augment import (FollowerTerms, GainMaps, build_blackboard, build_check,
                      build_cost_weights, build_doublehat, build_gain_maps,
                      build_hat, follower_terms)
from .backward import (RiccatiProblem, RiccatiSolution, integrate_backward,
                       solve_lyapunov, solve_offset_b1, solve_offset_b3,
                       solve_offset_b4, solve_riccati_disturbance, solve_riccati_follower,
                       solve_riccati_generalized, solve_value_offset)
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
    "BlowUpError", "EquilibriumSolution", "FollowerTerms", "GainMaps",
    "GameSpec", "MatrixPath",
    "OracleResult", "PerturbationReport", "RegularityError",
    "RiccatiProblem", "RiccatiSolution", "SimConfig", "SimOutput",
    "SpecError", "StrategyOutput", "TimeGrid", "ValidationReport",
    "build_blackboard", "build_check", "build_cost_weights", "build_doublehat",
    "build_gain_maps", "build_hat", "build_spec", "bvp_oracle",
    "clamp_nonnegative", "deviation_tests", "dump_spec",
    "ensure_diagnostics", "feedback", "follower_terms", "integrate_backward",
    "load_spec", "make_grid", "perturb_best_response", "sampled_convexity",
    "simulate", "solve_game", "solve_lyapunov",
    "solve_offset_b1", "solve_offset_b3", "solve_offset_b4",
    "solve_riccati_disturbance", "solve_riccati_follower",
    "solve_riccati_generalized", "solve_value_offset", "spec_from_dict",
    "spec_to_dict", "validate_spec", "value",
]
