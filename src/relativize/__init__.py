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
    gen_instances,
    lambda_report,
    set_sum_direct,
    set_sum_naive,
    solve_lambda_with_oracle,
)
from .encoding import (
    InputCode,
    PartitionCode,
    decode_input_code,
    decode_partition_code,
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
    assignment_index,
    brute_force_sat,
    conjoin,
    default_literals,
    enumeration_cap,
    evaluate,
    negate,
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
    AggregateReport,
    Budget,
    OracleChannel,
    RunResult,
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
    TwoSidedSet,
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
    "AggregateReport", "Assignment", "Budget", "CapacityError",
    "ConfigurationError", "Corpus", "DEFAULT_BUDGET", "DimensionError",
    "ExperimentConfig", "Formula", "InputCode", "LambdaReport", "OracleChannel",
    "OracleFileError", "OracleSet", "PartitionCode", "RunResult", "SatVerdict",
    "SetSumInstance", "SetSumProblem", "SideView", "TwoSidedSet",
    "assignment_from_index", "assignment_index", "brute_force_sat", "build_A",
    "build_B", "build_C", "build_C_bar", "build_D", "build_E", "build_F",
    "build_lambda_oracle", "clamped_budget", "conjoin", "craft_all_true",
    "craft_d_corpus", "craft_e_corpus", "craft_unsat", "decode_input_code",
    "decode_partition_code", "default_literals", "enumeration_cap", "evaluate",
    "gen_corpus", "gen_instances", "godel_number", "input_code", "kappa_ids",
    "lambda_report", "load_corpus", "load_oracle", "nd_solve", "negate", "pair",
    "partition_code", "run_report", "run_suite", "save_corpus", "save_oracle",
    "set_sum_direct", "set_sum_naive", "solve_conp_with_C_bar",
    "solve_lambda_with_oracle", "solve_with_A", "solve_with_B", "solve_with_C",
    "tagged_view", "tower", "truth_table", "unpair",
]
