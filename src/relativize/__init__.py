"""Desk-scale simulation lab for oracle relativizations.

Builds the classic oracle-set constructions over finite problem corpora,
runs deterministic and simulated nondeterministic oracle machines against
them with exact step/query accounting, and verifies every verdict against a
brute-force ground truth. Includes the set-sum analog experiment, where the
same constructions are replayed over a problem that is trivially easy.
"""

from .analog import (
    LambdaReport,
    SetSumInstance,
    SetSumProblem,
    build_lambda_oracle,
    lambda_report,
    set_sum_direct,
    set_sum_naive,
    solve_lambda_with_oracle,
)
from .encoding import (
    godel_number,
    input_code,
    pair,
    partition_code,
    unpair,
)
from .errors import CapacityError, ConfigurationError, DimensionError, OracleFileError
from .formula import (
    Assignment,
    Formula,
    SatVerdict,
    assignment_from_index,
    brute_force_sat,
    default_literals,
    enumeration_cap,
    evaluate,
    truth_table,
)
from .harness import (
    ExperimentConfig,
    craft_all_true,
    craft_d_corpus,
    craft_e_corpus,
    craft_unsat,
    gen_corpus,
    load_corpus,
    run_suite,
    save_corpus,
)
from .machine import (
    DEFAULT_BUDGET,
    Budget,
    RunResult,
    ScanTranscript,
    clamped_budget,
    nd_solve,
    run_report,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
)
from .oracles import (
    Corpus,
    OracleSet,
    SideView,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_D,
    build_E,
    build_F,
    kappa_ids,
    load_oracle,
    save_oracle,
    tagged_view,
    tower,
)

__all__ = [
    "Assignment", "Budget", "CapacityError", "ConfigurationError", "Corpus",
    "DEFAULT_BUDGET", "DimensionError", "ExperimentConfig", "Formula", "LambdaReport",
    "OracleFileError", "OracleSet", "RunResult", "SatVerdict", "ScanTranscript",
    "SetSumInstance", "SetSumProblem", "SideView", "assignment_from_index",
    "brute_force_sat", "build_A", "build_B", "build_C", "build_C_bar", "build_D",
    "build_E", "build_F", "build_lambda_oracle", "clamped_budget", "craft_all_true",
    "craft_d_corpus", "craft_e_corpus", "craft_unsat", "default_literals",
    "enumeration_cap", "evaluate", "gen_corpus", "godel_number", "input_code",
    "kappa_ids", "lambda_report", "load_corpus", "load_oracle", "nd_solve", "pair",
    "partition_code", "run_report", "run_suite", "save_corpus", "save_oracle",
    "set_sum_direct", "set_sum_naive", "solve_conp_with_C_bar",
    "solve_lambda_with_oracle", "solve_with_A", "solve_with_B", "solve_with_C",
    "tagged_view", "tower", "truth_table", "unpair",
]
