"""The package's public surface, pinned: adding or removing a public name
means editing this list on purpose."""

import inspect

import relativize
from relativize.encoding import input_code_at, input_codes
from relativize.harness import SuiteRunner

PUBLIC = [
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


def test_public_names_are_pinned():
    assert sorted(relativize.__all__) == PUBLIC
    assert len(set(relativize.__all__)) == len(relativize.__all__)


def test_every_public_name_resolves():
    missing = [name for name in relativize.__all__ if not hasattr(relativize, name)]
    assert missing == []


def test_no_public_callable_takes_a_cap():
    """The enumeration cap has one setting, RELATIVIZE_CAP: nothing takes it per call."""
    public = {name: getattr(relativize, name) for name in relativize.__all__}
    callables = {name: obj.__init__ if inspect.isclass(obj) else obj
                 for name, obj in {**public, "SuiteRunner": SuiteRunner}.items()
                 if inspect.isclass(obj) or inspect.isfunction(obj)}
    assert len(callables) >= 60  # SuiteRunner and the public functions and classes
    takes_cap = [name for name, fn in callables.items()
                 if "cap" in inspect.signature(fn).parameters]
    assert takes_cap == []
    assert list(inspect.signature(input_code_at).parameters) == ["i", "e", "k"]
    assert list(inspect.signature(input_codes).parameters) == ["i", "k", "stop"]
