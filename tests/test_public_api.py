"""The package's public surface, pinned: adding or removing a public name
means editing this list on purpose."""

import dataclasses
import inspect

import relativize
from relativize import analog, encoding, errors, formula, harness, machine, oracles
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


# Each record the package defines, and why it is a dataclass or a NamedTuple.
# A frozen dataclass costs about 0.6 ms of every import (Python 3.11 compiles
# its generated methods), a NamedTuple a third of that or less; so a record
# is a dataclass only when something needs what a tuple lacks.
DATACLASSES = {
    "OracleSet": "tests pin fields(), and replace() makes a planted set",
    "SetSumProblem": "tests pin fields(), replace() and FrozenInstanceError",
    "Formula": "its cached properties need an instance __dict__",
    "ExperimentConfig": "replace() sets out_dir, and __post_init__ validates",
    "Budget": "__post_init__ refuses a negative coefficient or exponent",
    "Corpus": "its cached properties need an instance __dict__",
    "SetSumInstance": "__post_init__ refuses a value that is not an int",
}
NAMED_TUPLES = {
    "RunResult": "one per graded verdict, built by position and read by field",
    "SatVerdict": "built once per verdict and read by field",
    "SideView": "built per side and asked only through its own __contains__",
    "QuestionRow": "one row of the battery's report, built and read",
    "LambdaReport": "the battery's report, built once and read",
    "Construction": "one entry of the suite's construction table, read by field",
    "Built": "what a construction's build returns, read by field",
}


def package_classes():
    modules = (analog, encoding, errors, formula, harness, machine, oracles)
    return {obj.__name__: obj for module in modules
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__}


def test_records_are_dataclasses_only_where_a_reason_is_given():
    classes = package_classes()
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == set(
        DATACLASSES)
    assert {name for name, cls in classes.items() if issubclass(cls, tuple)} == set(NAMED_TUPLES)
    for name in NAMED_TUPLES:
        cls = classes[name]
        assert cls._fields and cls(*cls._fields) == cls._fields  # equals its plain tuple
    assert all(reason and "\n" not in reason
               for reason in (*DATACLASSES.values(), *NAMED_TUPLES.values()))
