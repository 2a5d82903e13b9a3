"""Multi-rate multicast rate allocation: welfare solver, tax mechanisms,
and numeric equilibrium certification.

The package exposes three layers:

* :mod:`mcastmech.model` — instances (links, routes, groups, valuations),
  validation, generators, canonical JSON;
* :mod:`mcastmech.centralized` — the welfare-optimal rate solver with a
  dual certificate and KKT residual report;
* :mod:`mcastmech.mechanism` / :mod:`mcastmech.equilibrium` — message
  spaces, allocation and tax maps for the two budget variants, candidate
  equilibrium construction, exact best responses, dynamics, and the lemma and
  curvature checks.
"""

from .errors import (DegenerateInstanceError, EquilibriumError,
                     InstanceFormatError, MechError, MessageShapeError,
                     SharingAssumptionError, SolverError, ValidationFailure)
from .model import (EXP_SAT, LOG_SAT, AgentId, Link, NetworkInstance, Route,
                    Valuation, ValidationReport, constraint_violation,
                    instance_from_json, instance_to_json, load_instance,
                    random_instance, require_valid, save_instance, validate,
                    welfare)
from .centralized import (A4Report, DualCertificate, KKTReport,
                          PrimalSolution, argmax_ties, check_a4,
                          kkt_residuals, solution_to_json, solve_cp)
from .mechanism import (AllocationResult, DeviationEvaluator,
                        MechanismParams, Message, Outcome, Profile,
                        TaxBreakdown, VARIANT_SBB, VARIANT_WBB, allocate,
                        evaluate, outcome_to_json, profile_from_json,
                        profile_to_json, utilities, zero_message)
from .equilibrium import (BestResponseResult, CandidateNE,
                          CertificationReport, CurvatureReport,
                          DynamicsResult, LemmaReport, br_dynamics,
                          certify_ne, construct_ne, exact_best_response,
                          curvature_check, default_epsilon, lemma_suite,
                          tune_params)

__version__ = "0.1.0"

__all__ = [
    "AgentId", "Link", "Route", "Valuation", "NetworkInstance",
    "ValidationReport", "LOG_SAT", "EXP_SAT",
    "validate", "require_valid", "random_instance", "welfare",
    "constraint_violation", "instance_from_json", "instance_to_json",
    "load_instance", "save_instance",
    "PrimalSolution", "DualCertificate", "KKTReport", "A4Report",
    "solve_cp", "kkt_residuals", "check_a4", "argmax_ties",
    "solution_to_json",
    "MechanismParams", "Message", "Profile", "Outcome", "TaxBreakdown",
    "AllocationResult", "DeviationEvaluator",
    "VARIANT_WBB", "VARIANT_SBB", "allocate",
    "evaluate", "utilities", "zero_message", "profile_to_json", "profile_from_json",
    "outcome_to_json",
    "CandidateNE", "BestResponseResult", "CertificationReport",
    "LemmaReport", "CurvatureReport", "DynamicsResult",
    "construct_ne", "exact_best_response", "certify_ne",
    "br_dynamics",
    "lemma_suite", "curvature_check", "tune_params", "default_epsilon",
    "MechError", "InstanceFormatError", "ValidationFailure",
    "MessageShapeError", "SharingAssumptionError", "SolverError",
    "EquilibriumError", "DegenerateInstanceError",
]
