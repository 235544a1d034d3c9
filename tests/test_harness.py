import ast
import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
import unittest.mock
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relativize import (
    Budget,
    ConfigurationError,
    Corpus,
    ExperimentConfig,
    SetSumInstance,
    SetSumProblem,
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_D,
    build_E,
    build_F,
    clamped_budget,
    craft_d_corpus,
    craft_e_corpus,
    enumeration_cap,
    gen_corpus,
    lambda_report,
    load_corpus,
    run_suite,
    save_corpus,
    save_oracle,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
    tagged_view,
)
from relativize.encoding import CODE_DIGITS, code_digit_limit, partition_code
from relativize import analog, harness, oracles
from relativize.harness import MAX_CORPUS_CLAUSES, check_corpus_size, config_from_json, main
from relativize.machine import atomic_open, run_result_to_json

from reference import corrupted, gen_instances, ref_gen_corpus, save_instances

SMALL = ExperimentConfig(seed=7, k_range=(6, 8), formulas_per_k=3, out_dir="unused")

HUGE = 10**11  # 6**HUGE is 2.6 * 10^11 bits, about 32 GB


@pytest.fixture
def no_huge_power(monkeypatch):
    """`Budget.steps` refuses an exponent past 10^6, so a path that would
    build p(n) for a huge budget fails at once instead of hanging."""
    steps = Budget.steps

    def guarded(budget, n):
        assert n < 2 or budget.exponent <= 10**6, f"built p({n}) with exponent {budget.exponent}"
        return steps(budget, n)

    monkeypatch.setattr(Budget, "steps", guarded)


class TestGenCorpus:
    def test_deterministic_under_seed(self):
        assert gen_corpus(SMALL).digest() == gen_corpus(SMALL).digest()

    def test_seed_changes_corpus(self):
        other = ExperimentConfig(seed=8, k_range=(6, 8), formulas_per_k=3)
        assert gen_corpus(SMALL).digest() != gen_corpus(other).digest()

    def test_entry_count(self):
        corpus = gen_corpus(ExperimentConfig(k_range=(6, 12), formulas_per_k=10))
        # 10 random + 4 crafted per k, for 7 values of k
        assert len(corpus) == 7 * 14

    def test_crafted_entries_per_k(self):
        corpus = gen_corpus(SMALL)
        by_k = {}
        for f in corpus:
            by_k.setdefault(f.k, []).append(f)
        for k, group in by_k.items():
            verdicts = [brute_force_sat(f) for f in group]
            assert any(not v.satisfiable for v in verdicts), f"no contradiction at k={k}"
            last = (True,) * k
            assert any(
                v.satisfiable and v.witness == last and v.satisfying_count == 1
                for v in verdicts
            ), f"no latest-witness formula at k={k}"

    def test_complement_pair_per_k(self):
        from relativize import kappa_ids

        corpus = gen_corpus(SMALL)
        kappa = kappa_ids(corpus)
        by_k = {}
        for f in corpus:
            if f.id in kappa:
                by_k.setdefault(f.k, 0)
                by_k[f.k] += 1
        for k in range(6, 9):
            assert by_k.get(k, 0) >= 2, f"no complement pair at k={k}"

    def test_budgets_stay_below_space(self):
        corpus = gen_corpus(SMALL)
        for f in corpus:
            assert corpus.budget_for(f.id).steps(f.k) < 2**f.k

    def test_ids_dense(self):
        corpus = gen_corpus(SMALL)
        assert [f.id for f in corpus] == list(range(1, len(corpus) + 1))

    @given(st.integers(0, 2**64), st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, min(5, n)))))
    @example(2, (6, 3))  # the pool branch picks slot 0 three times
    @example(2, (22, 3))  # the set branch draws one index twice
    @settings(max_examples=300, deadline=None)
    def test_draws_as_random_sample(self, seed, n_width):
        n, width = n_width
        mine, theirs = random.Random(seed), random.Random(seed)
        assert harness._draw_indices(mine.getrandbits, n, width) == theirs.sample(range(n), width)
        assert mine.getstate() == theirs.getstate()

    @given(st.integers(0, 2**32), st.integers(1, 30), st.integers(0, 6), st.integers(0, 3),
           st.floats(0, 4), st.builds(Budget, st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=40, deadline=None)
    def test_is_the_random_sample_corpus(self, seed, lo, span, per_k, density, budget):
        config = ExperimentConfig(seed=seed, k_range=(lo, lo + span), formulas_per_k=per_k,
                                  clause_density=density, budget=budget)
        with unittest.mock.patch.dict(os.environ, {"RELATIVIZE_CAP": "36"}):  # k up to 36
            got = gen_corpus(config)
        want = ref_gen_corpus(config)
        assert got.formulas == want.formulas and got.budgets == want.budgets


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        corpus = gen_corpus(SMALL)
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.formulas == corpus.formulas
        assert loaded.digest() == corpus.digest()

    def test_stored_budgets_survive_a_round_trip(self, tmp_path):
        corpus = craft_e_corpus()
        assert corpus.budget_for(1) == Budget(2, 0) != clamped_budget(2)
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        assert [entry["budget"] for entry in json.loads(path.read_text(encoding="utf-8"))] == [
            [2, 0], [1, 1], [1, 1]]
        loaded = load_corpus(path)
        assert loaded.budgets == corpus.budgets and loaded.digest() == corpus.digest()
        # a preferred budget still re-derives every one of them
        assert load_corpus(path, Budget(1, 2)).budgets == {
            f.id: clamped_budget(f.k, Budget(1, 2)) for f in corpus}

    def test_file_without_budgets_loads_as_before(self, tmp_path):
        corpus = gen_corpus(ExperimentConfig(seed=7, k_range=(2, 8), formulas_per_k=1,
                                             budget=Budget(1, 2)))
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for entry in doc:
            del entry["budget"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        for preferred in (None, Budget(1, 2)):
            loaded = load_corpus(path, preferred)
            assert loaded.formulas == corpus.formulas
            assert loaded.budgets == {
                f.id: clamped_budget(f.k, preferred or Budget(2, 2)) for f in corpus}

    def test_config_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({
                "seed": 3, "k_range": [6, 7], "formulas_per_k": 2,
                "clause_density": 2.5, "budget": [1, 2], "oracles": ["A", "B"],
                "out_dir": "here",
            }),
            encoding="utf-8",
        )
        config = config_from_json(path)
        assert config.seed == 3 and config.k_range == (6, 7)
        assert config.budget == Budget(1, 2)
        assert config.oracle_kinds == ("A", "B")

    def test_writes_leave_no_temp_files(self, tmp_path):
        save_corpus(gen_corpus(SMALL), tmp_path / "corpus.json")
        config = ExperimentConfig(seed=7, k_range=(6, 6), formulas_per_k=1,
                                  out_dir=str(tmp_path / "out"))
        assert run_suite(config) == 0
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
            "corpus.json", "runs.csv", "runs.jsonl", "summary.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestSuite:
    def test_passes_and_writes_reports(self, tmp_path):
        config = ExperimentConfig(seed=7, k_range=(6, 8), formulas_per_k=3,
                                  out_dir=str(tmp_path / "out"))
        assert run_suite(config) == 0
        out = tmp_path / "out"
        assert (out / "runs.csv").is_file()
        assert (out / "runs.jsonl").is_file()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["failures"] == []
        demonstrated = {row["oracle"]: row["demonstrated"] for row in summary["conclusions"]}
        assert demonstrated == {kind: True for kind in ("A", "B", "C", "D", "E", "F")}

    def test_reruns_byte_identical(self, tmp_path):
        first = ExperimentConfig(seed=7, k_range=(6, 7), formulas_per_k=2,
                                 out_dir=str(tmp_path / "one"))
        second = ExperimentConfig(seed=7, k_range=(6, 7), formulas_per_k=2,
                                  out_dir=str(tmp_path / "two"))
        assert run_suite(first) == 0
        assert run_suite(second) == 0
        for name in ("runs.csv", "runs.jsonl"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        one = json.loads((tmp_path / "one" / "summary.json").read_text(encoding="utf-8"))
        two = json.loads((tmp_path / "two" / "summary.json").read_text(encoding="utf-8"))
        del one["config"], two["config"]  # out_dir differs by construction
        assert one == two

    def test_block_queries_count_once_against_p_k(self, tmp_path, capsys):
        # At k = 3, p(3) = 3: an accepting block t >= 3 takes t+1 steps, which
        # are its t+1 queries, within p(k)+k+1 = 7 only if counted once.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 0, "k_range": [3, 8],
                                           "out_dir": str(tmp_path / "out")}), encoding="utf-8")
        assert main(["suite", "--config", str(config_path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["failures"] == []
        row = next(row for row in summary["conclusions"] if row["oracle"] == "A")
        assert row["demonstrated"] is True

    def test_csv_columns(self, tmp_path):
        config = ExperimentConfig(seed=7, k_range=(6, 6), formulas_per_k=1,
                                  oracle_kinds=("A",), out_dir=str(tmp_path))
        assert run_suite(config) == 0
        header = (tmp_path / "runs.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "oracle,formula_id,k,verdict,steps,queries,correct"


# The failures the corrupted suite below reports, in the order it reports them.
PINNED_FAILURES = [
    "ND: some verdict disagreed with ground truth",
    "A: wrong verdict on formula 2",
    "A: more than k+1 queries on formula 6",
    "C_bar: 9 queries on formula 1",
    "E: wrong verdict on complement-paired formula 2",
    "F[np]: wrong verdict on formula 4",
]


class TestFailureAttribution:
    """Which row a failure counts against, with the solvers the suite calls
    corrupted on a fixed call pattern. The runs go A, B, C, C_bar, D, E, F
    over 12 seeded problems, so solve_with_A's calls 0..11 are A's, 12..13
    E's and 14..25 F[np]'s; solve_conp_with_C_bar's 0..11 are C_bar's and
    12..14 D_bar's, which no per-run rule checks. nd_solve's 0..11 and
    solve_with_C's 0..11 are the seeded ND and C runs."""

    CONFIG = dict(seed=7, k_range=(6, 7), formulas_per_k=2)

    def _summary(self, tmp_path, monkeypatch, corruptions):
        for name, pattern in corruptions.items():
            monkeypatch.setattr(analog, name, corrupted(getattr(analog, name), **pattern))
        config = ExperimentConfig(**self.CONFIG, out_dir=str(tmp_path / "out"))
        status = run_suite(config)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        rows = {row["oracle"]: row["demonstrated"] for row in summary["conclusions"]}
        return status, summary["failures"], rows

    def test_failures_and_rows_are_pinned(self, tmp_path, monkeypatch):
        status, failures, rows = self._summary(tmp_path, monkeypatch, {
            "nd_solve": {"flips": {0}},
            "solve_with_A": {"flips": {1, 12, 17}, "inflates": {5}},
            "solve_conp_with_C_bar": {"inflates": {0, 13}},
        })
        assert status == 1
        assert failures == PINNED_FAILURES
        assert rows == {"A": False, "B": False, "C": False, "D": True, "E": False, "F": False}

    def test_an_nd_error_on_the_seeded_corpus_fails_b(self, tmp_path, monkeypatch):
        # B's claim includes that the nondeterministic machine never errs.
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"nd_solve": {"flips": {0}}})
        assert status == 1
        assert failures == ["ND: some verdict disagreed with ground truth"]
        assert rows == {"A": True, "B": False, "C": True, "D": True, "E": True, "F": True}

    def test_an_nd_run_that_queries_fails_b(self, tmp_path, monkeypatch):
        # The nondeterministic machine never enters the query state.
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"nd_solve": {"inflates": {0}}})
        assert status == 1
        assert failures == ["ND: a run entered the query state"]
        assert rows == {"A": True, "B": False, "C": True, "D": True, "E": True, "F": True}

    def test_an_accepting_a_run_over_its_budget_fails_a(self, tmp_path, monkeypatch):
        # solve_with_A's call 0 is A's run on formula 1, which is satisfiable
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"solve_with_A": {"overruns": {0}}})
        assert status == 1
        assert failures == ["A: accepting run on formula 1 exceeded p(k)+k+1"]
        assert rows == {"A": False, "B": True, "C": True, "D": True, "E": True, "F": True}

    def test_a_rejected_c_scan_off_2_to_the_k_fails_c(self, tmp_path, monkeypatch):
        # solve_with_C's call 2 is C's scan of formula 3, the first rejected
        # problem at k = 6; k = 7's is formula 9, so the doubling breaks too.
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"solve_with_C": {"inflates": {2}}})
        assert status == 1
        assert failures == [
            "C: rejected formula 3 used 72 queries, expected 2^k",
            "C: query count did not double from k=6 to k=7",
        ]
        assert rows == {"A": True, "B": True, "C": False, "D": True, "E": True, "F": True}

    @pytest.mark.parametrize("exponent", [6, HUGE])
    def test_a_budget_not_below_2_to_the_k_fails_b(self, tmp_path, monkeypatch, no_huge_power,
                                                   exponent):
        # formula 1 (k = 6, satisfiable) gets p(k) = 6^6 or more: its search
        # covers the whole space, so its runs stay correct
        def seeded_with_a_big_budget(config):
            corpus = gen_corpus(config)
            return Corpus(corpus.formulas, {**corpus.budgets, 1: Budget(1, exponent)})

        monkeypatch.setattr(harness, "gen_corpus", seeded_with_a_big_budget)
        status, failures, rows = self._summary(tmp_path, monkeypatch, {})
        assert status == 1
        assert failures == [f"B: budget p(k)=1*6^{exponent} not below 2^k for formula 1"]
        assert rows == {"A": True, "B": False, "C": True, "D": True, "E": True, "F": True}

    def test_b_wrong_only_where_no_step_2_member_answered_fails_b(self, tmp_path, monkeypatch):
        # solve_with_B's calls 2 and 8 are B's wrong runs, on formulas 3 and 9,
        # each misled by a step-2 member; flipped, they are right. Call 0
        # accepted formula 1 without a query, so flipped it is wrong with no
        # member to trace it to.
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"solve_with_B": {"flips": {0, 2, 8}}})
        assert status == 1
        assert failures == ["B: no wrong verdict traceable to a step-2 member"]
        assert rows == {"A": True, "B": False, "C": True, "D": True, "E": True, "F": True}

    def test_d_with_no_wrong_step_5_run_fails_d(self, tmp_path, monkeypatch):
        # solve_with_C's call 13 is D's run on crafted formula 2, the one a
        # step-5 member misleads
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"solve_with_C": {"flips": {13}}})
        assert status == 1
        assert failures == ["D: no wrong verdict traceable to a step-5 member"]
        assert rows == {"A": True, "B": True, "C": True, "D": False, "E": True, "F": True}

    def test_d_bar_with_no_wrong_step_8_run_fails_d(self, tmp_path, monkeypatch):
        # solve_conp_with_C_bar's call 14 is D_bar's run on crafted formula 3,
        # the one a step-8 member misleads; D_bar's other two runs are wrong
        # too, but on a no answer
        status, failures, rows = self._summary(tmp_path, monkeypatch,
                                               {"solve_conp_with_C_bar": {"flips": {14}}})
        assert status == 1
        assert failures == ["D_bar: no wrong verdict traceable to a step-8 member"]
        assert rows == {"A": True, "B": True, "C": True, "D": False, "E": True, "F": True}

    def test_e_gaining_a_complement_paired_code_fails_e(self, tmp_path, monkeypatch):
        # craft_e_corpus's formulas 2 and 3 are a complement pair; E gains the
        # code of formula 2's block 0, which A does not hold. Formula 2 is
        # satisfiable, so its run stays correct.
        def build_E_with_a_planted_code(corpus, base):
            e = oracles.build_E(corpus, base)
            code = partition_code(corpus.by_id(2), 0)
            assert code not in base
            return dataclasses.replace(e, provenance={**e.provenance, code: (2, "planted")})

        monkeypatch.setattr(harness, "build_E", build_E_with_a_planted_code)
        status, failures, rows = self._summary(tmp_path, monkeypatch, {})
        assert status == 1
        assert failures == ["E: complement-paired problems gained or lost codes"]
        assert rows == {"A": True, "B": True, "C": True, "D": True, "E": False, "F": True}

    def test_e_without_an_injection_fails_e(self, tmp_path, monkeypatch):
        # with no stage to run, E is its base
        monkeypatch.setattr(oracles, "E_STAGE_CAP", 0)
        status, failures, rows = self._summary(tmp_path, monkeypatch, {})
        assert status == 1
        assert failures == ["E: no injection happened on the crafted corpus"]
        assert rows == {"A": True, "B": True, "C": True, "D": True, "E": False, "F": True}


def _perfbench_constant(file: str, name: str):
    """The literal value that perfbench/<file> assigns to `name`, read with
    ast so the benchmark's code is not imported."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / file
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{file} defines no {name}")


def _battery_solvers() -> tuple[str, ...]:
    """The solver names perfbench/run.py rebinds in relativize.analog to see
    every run of the battery."""
    return _perfbench_constant("run.py", "BATTERY_SOLVERS")


class TestSolverNamesInAnalog:
    """Every run of the suite, of `solve` and of the battery calls its solver
    through the names in relativize.analog, so rebinding them there, as the
    benchmark does, sees every run."""

    def _record(self, monkeypatch) -> list:
        calls = []

        def recording(name, solve):
            def record(*args, **kwargs):
                calls.append((name, args))
                return solve(*args, **kwargs)
            return record

        for name in _battery_solvers():
            monkeypatch.setattr(analog, name, recording(name, getattr(analog, name)))
        return calls

    def test_the_suite_runs_through_analog(self, tmp_path, monkeypatch):
        calls = self._record(monkeypatch)
        assert run_suite(dataclasses.replace(SMALL, out_dir=str(tmp_path))) == 0
        rows = (tmp_path / "runs.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(calls) == len(rows) > 0

    def test_solve_runs_through_analog(self, tmp_path, monkeypatch, capsys):
        corpus_path, oracle_path = tmp_path / "corpus.json", tmp_path / "f.json"
        assert main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
                     "--per-k", "1", "--out", str(corpus_path)]) == 0
        assert main(["build-oracle", "--kind", "F", "--corpus", str(corpus_path),
                     "--out", str(oracle_path)]) == 0
        calls = self._record(monkeypatch)
        assert main(["solve", "--oracle", str(oracle_path), "--formula", "2",
                     "--corpus", str(corpus_path)]) == 0
        assert [name for name, _ in calls] == ["solve_with_A", "solve_conp_with_C_bar"]

    def test_the_battery_runs_through_analog(self, monkeypatch):
        instances = gen_instances(seed=7, count=6, r_min=3, r_max=6)
        n = len(instances)
        calls = self._record(monkeypatch)
        lambda_report(instances)
        # question 1: n lambda runs; 2: n B and n ND; 3: n C and n C_bar;
        # 4: 3 D, 3 D_bar and 3 ND on the crafted corpus; 5: n F[np], n F[co]
        assert len(calls) == 7 * n + 9
        assert Counter(name for name, _ in calls) == {
            "solve_lambda_with_oracle": n, "solve_with_B": n, "nd_solve": n + 3,
            "solve_with_C": n + 3, "solve_conp_with_C_bar": 2 * n + 3, "solve_with_A": n,
        }
        for name, args in calls:
            if name == "solve_lambda_with_oracle":
                assert type(args[0]) is int and isinstance(args[1], SetSumInstance)
            else:
                assert isinstance(args[0], SetSumProblem)


@pytest.mark.parametrize("module, name", [
    (module, name)
    for module, names in _perfbench_constant("spans.py", "TRACED").items() for name in names])
def test_every_traced_name_is_a_callable_of_its_module(module, name):
    # perfbench/spans.py wraps these names; a dotted one is a method, reached
    # through its class
    owner = importlib.import_module(f"relativize.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


class TestCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RELATIVIZE_CAP", "8")
        assert enumeration_cap() == 8

    def test_default(self, monkeypatch):
        monkeypatch.delenv("RELATIVIZE_CAP", raising=False)
        assert enumeration_cap() == 20

    @pytest.mark.parametrize("value", ["abc", "-1", "", "1_0", " 7 ", "+8", "\u0663",
                                       pytest.param("9" * 5000, id="5000-digits")])
    def test_env_must_be_a_non_negative_integer(self, tmp_path, monkeypatch, capsys, value):
        corpus_path = tmp_path / "corpus.json"
        assert main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
                     "--per-k", "1", "--out", str(corpus_path)]) == 0
        monkeypatch.setenv("RELATIVIZE_CAP", value)
        with pytest.raises(ConfigurationError, match="RELATIVIZE_CAP"):
            enumeration_cap()
        capsys.readouterr()
        assert main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "a.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "RELATIVIZE_CAP must be a non-negative integer" in err
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("value, cap", [("0" * 4400 + "12", 12), ("0" * 5000, 0),
                                            ("0" * 800 + "1" * 4300, int("1" * 4300))],
                             ids=["zero-padded-12", "5000-zeros", "4300-digits-zero-padded"])
    def test_env_leading_zeros_do_not_count(self, monkeypatch, value, cap):
        monkeypatch.setenv("RELATIVIZE_CAP", value)
        assert enumeration_cap() == cap

    @pytest.mark.parametrize("value, shown", [
        ("x" * 40, repr("x" * 40)),
        ("x" * 10**6, f"{'x' * 40!r}... (1000000 characters)"),
    ], ids=["40-chars", "10^6-chars"])
    def test_env_refusal_quotes_at_most_40_characters(self, monkeypatch, value, shown):
        monkeypatch.setenv("RELATIVIZE_CAP", value)
        with pytest.raises(ConfigurationError) as refused:
            enumeration_cap()
        assert str(refused.value) == f"RELATIVIZE_CAP must be a non-negative integer, got {shown}"

    def test_env_too_long_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RELATIVIZE_CAP", "0" * 100 + "9" * 5000)
        monkeypatch.chdir(tmp_path)
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", "--out", "c.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: RELATIVIZE_CAP must be a non-negative integer of at "
                                "most 4300 significant digits\n")
        assert captured.out == "" and not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("argv, out", [
        (["suite", "--out-dir", "d"], "d"),
        (["gen-corpus", "--out", "c.json"], "c.json"),
        (["lambda", "--instances", "f.json", "--out", "c.csv"], "c.csv"),
    ])
    def test_cli_stops_at_a_low_cap(self, tmp_path, monkeypatch, capsys, argv, out):
        # the suite's smallest k is 6 and the battery's one instance has r=8
        (tmp_path / "f.json").write_text(json.dumps([{"S": list(range(8)), "M": 28}]),
                                         encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "RELATIVIZE_CAP" in captured.err
        assert captured.out == "" and not (tmp_path / out).exists()

    @pytest.mark.parametrize("argv", [
        ["suite", "--config", "config.json"],
        ["gen-corpus", "--k-min", "6", "--k-max", "3000", "--out", "out"],
    ], ids=["suite", "gen-corpus"])
    def test_cli_checks_the_cap_before_making_its_corpus(self, tmp_path, monkeypatch, capsys,
                                                         argv):
        # a corpus up to k = 3000 would take far longer to make than to refuse
        def no_draw(*args):
            raise AssertionError("a clause was drawn past the cap")

        monkeypatch.delenv("RELATIVIZE_CAP", raising=False)
        monkeypatch.setattr(harness, "_draw_indices", no_draw)
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps({"k_range": [6, 3000], "out_dir": "out"}),
                                       encoding="utf-8")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "k=3000 exceeds the enumeration cap" in captured.err
        assert not Path("out").exists()


class TestCorpusSize:
    """A corpus past MAX_CORPUS_CLAUSES random clauses is refused before any
    of it is drawn."""

    @pytest.mark.parametrize("argv, config, named", [
        (["suite", "--config", "config.json"], {"clause_density": 1e9}, "config.json: "),
        (["suite", "--config", "config.json"], {"formulas_per_k": 10**9}, "config.json: "),
        (["gen-corpus", "--density", "1e9", "--out", "out"], {}, ""),
        (["gen-corpus", "--per-k", str(10**9), "--out", "out"], {}, ""),
    ], ids=["suite-density", "suite-per-k", "gen-corpus-density", "gen-corpus-per-k"])
    def test_cli_refuses_a_huge_corpus_before_making_it(self, tmp_path, monkeypatch, capsys,
                                                       argv, config, named):
        def no_draw(*args):
            raise AssertionError("a clause was drawn past the size ceiling")

        monkeypatch.setattr(harness, "_draw_indices", no_draw)
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps({**config, "out_dir": "out"}),
                                       encoding="utf-8")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}the corpus would draw ")
        assert captured.err.count("\n") == 1
        assert f"past the ceiling of {MAX_CORPUS_CLAUSES}" in captured.err
        assert not Path("out").exists()

    def test_ceiling_is_inclusive(self):
        # k 1 at density 1 draws one clause per formula
        at = ExperimentConfig(k_range=(1, 1), formulas_per_k=MAX_CORPUS_CLAUSES,
                              clause_density=1)
        check_corpus_size(at)
        with pytest.raises(ConfigurationError, match="would draw 100001 random clauses"):
            check_corpus_size(dataclasses.replace(at, formulas_per_k=MAX_CORPUS_CLAUSES + 1))

    def test_the_largest_configs_in_use_pass(self):
        # the default config, and the k 6..20 tier of the suite's memory bound
        for config in (ExperimentConfig(), ExperimentConfig(k_range=(6, 20))):
            check_corpus_size(config)


class TestHugeBudget:
    """A budget with exponent 10^11 is clamped, or compared with its bound,
    without building p(k)."""

    def test_config_budget_clamps(self, tmp_path, no_huge_power):
        reports = []
        for exponent in (HUGE, 2):
            out, path = tmp_path / f"out-{exponent}", tmp_path / f"config-{exponent}.json"
            path.write_text(json.dumps({"k_range": [6, 6], "formulas_per_k": 1,
                                        "budget": [1, exponent], "out_dir": str(out)}),
                            encoding="utf-8")
            status = main(["suite", "--config", str(path)])
            reports.append((status, (out / "runs.jsonl").read_bytes(),
                            (out / "runs.csv").read_bytes()))
        # at k = 6, 1*k^HUGE clamps to the first fallback, 1*k^2
        assert reports[0] == reports[1]

    def test_budget_option_clamps(self, tmp_path, no_huge_power):
        corpus = tmp_path / "corpus.json"
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", "--per-k", "1",
                     "--out", str(corpus)]) == 0
        for exponent in (HUGE, 2):
            assert main(["build-oracle", "--kind", "B", "--corpus", str(corpus),
                         "--budget", "1", str(exponent),
                         "--out", str(tmp_path / f"b-{exponent}.json")]) == 0
        assert (tmp_path / f"b-{HUGE}.json").read_bytes() == (tmp_path / "b-2.json").read_bytes()

    @pytest.mark.parametrize("kind", ["B", "D", "E"])
    def test_stored_budget_is_kept(self, tmp_path, no_huge_power, kind):
        # a stored p(k) past 2^k is kept: B's search covers the space, and
        # D's and E's gates stay shut, as they do for p(k) = 6^6
        path = tmp_path / "corpus.json"
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", "--per-k", "1",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        built = []
        for exponent in (HUGE, 6):
            doc[0]["budget"] = [1, exponent]
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"{kind}-{exponent}.json"
            assert main(["build-oracle", "--kind", kind, "--corpus", str(path),
                         "--out", str(out)]) == 0
            oracle = json.loads(out.read_text(encoding="utf-8"))
            built.append((oracle["members"], oracle["provenance"]))
        assert built[0] == built[1]


class TestCli:
    def test_gen_corpus_and_build_and_solve(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        oracle_path = tmp_path / "a.json"
        assert main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
                     "--per-k", "2", "--out", str(corpus_path)]) == 0
        assert main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
                     "--out", str(oracle_path)]) == 0
        assert main(["solve", "--oracle", str(oracle_path), "--formula", "1",
                     "--corpus", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        run = json.loads(out.strip().splitlines()[-1])
        assert run["oracle"] == "A" and run["correct"] is True

    def test_solve_both_f_sides(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        oracle_path = tmp_path / "f.json"
        main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
              "--per-k", "1", "--out", str(corpus_path)])
        main(["build-oracle", "--kind", "F", "--corpus", str(corpus_path),
              "--out", str(oracle_path)])
        assert main(["solve", "--oracle", str(oracle_path), "--formula", "2",
                     "--corpus", str(corpus_path)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
                 if line.startswith("{")]
        assert {run["oracle"] for run in lines[-2:]} == {"F[np]", "F[co]"}

    # Each kind's set built directly, and the solver runs `solve` must print
    # for it: the np and co sides for F, the complement question for the
    # barred sets. D and D_bar need even k at even positions, and budget
    # (1, 1) gives the crafted corpus's budgets back on load.
    ROUND_TRIP = {
        "A": (build_A, lambda f, o, c, sat: [solve_with_A(f, o, ground_truth=sat)]),
        "B": (build_B, lambda f, o, c, sat: [
            solve_with_B(f, o, c.budget_for(f.id), ground_truth=sat)]),
        "C": (build_C, lambda f, o, c, sat: [solve_with_C(f, o, ground_truth=sat)]),
        "C_bar": (build_C_bar, lambda f, o, c, sat: [
            solve_conp_with_C_bar(f, o, ground_truth=not sat)]),
        "D": (lambda c: build_D(c)[0], lambda f, o, c, sat: [
            solve_with_C(f, o, ground_truth=sat)]),
        "D_bar": (lambda c: build_D(c)[1], lambda f, o, c, sat: [
            solve_conp_with_C_bar(f, o, ground_truth=not sat)]),
        "E": (lambda c: build_E(c, build_A(c)), lambda f, o, c, sat: [
            solve_with_A(f, o, ground_truth=sat)]),
        "F": (build_F, lambda f, o, c, sat: [
            solve_with_A(f, tagged_view(o, 0), ground_truth=sat),
            solve_conp_with_C_bar(f, tagged_view(o, 1), ground_truth=not sat)]),
    }

    @pytest.mark.parametrize("kind", list(ROUND_TRIP))
    def test_build_oracle_then_solve_every_kind(self, tmp_path, capsys, kind):
        corpus_path, oracle_path = tmp_path / "corpus.json", tmp_path / "oracle.json"
        if kind in ("D", "D_bar"):
            save_corpus(craft_d_corpus(), corpus_path)
            budget = ["1", "1"]
        else:
            save_corpus(gen_corpus(ExperimentConfig(seed=5, k_range=(5, 7), formulas_per_k=2)),
                        corpus_path)
            budget = ["2", "2"]
        corpus = load_corpus(corpus_path, Budget(*map(int, budget)))
        build, solve = self.ROUND_TRIP[kind]
        oracle = build(corpus)
        assert oracle.kind == kind and len(oracle) > 0
        assert main(["build-oracle", "--kind", kind, "--corpus", str(corpus_path),
                     "--out", str(oracle_path), "--budget", *budget]) == 0
        save_oracle(oracle, tmp_path / "direct.json")
        assert oracle_path.read_bytes() == (tmp_path / "direct.json").read_bytes()
        for f in corpus:
            capsys.readouterr()
            assert main(["solve", "--oracle", str(oracle_path), "--formula", str(f.id),
                         "--corpus", str(corpus_path), "--budget", *budget]) == 0
            with code_digit_limit():
                want = [json.dumps(run_result_to_json(r))
                        for r in solve(f, oracle, corpus, brute_force_sat(f).satisfiable)]
            assert capsys.readouterr().out.splitlines() == want

    def test_build_oracle_keeps_the_stored_budgets(self, tmp_path, capsys):
        corpus_path, oracle_path = tmp_path / "corpus.json", tmp_path / "d_bar.json"
        save_corpus(craft_d_corpus(), corpus_path)
        direct = build_D(craft_d_corpus())[1]
        assert len(direct) == 9
        save_oracle(direct, tmp_path / "direct.json")
        assert main(["build-oracle", "--kind", "D_bar", "--corpus", str(corpus_path),
                     "--out", str(oracle_path)]) == 0
        assert "with 9 members" in capsys.readouterr().out
        assert oracle_path.read_bytes() == (tmp_path / "direct.json").read_bytes()
        # --budget re-derives them: formula 3 loses its Budget(1, 1)
        assert main(["build-oracle", "--kind", "D_bar", "--corpus", str(corpus_path),
                     "--out", str(oracle_path), "--budget", "2", "2"]) == 0
        assert "with 0 members" in capsys.readouterr().out

    def test_suite_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"seed": 7, "k_range": [6, 6], "formulas_per_k": 1,
                        "oracles": ["A", "C"], "out_dir": str(tmp_path / "out")}),
            encoding="utf-8",
        )
        assert main(["suite", "--config", str(config_path)]) == 0
        assert "suite passed" in capsys.readouterr().out

    def test_lambda_command(self, tmp_path, capsys):
        inst_path = tmp_path / "instances.json"
        save_instances(gen_instances(seed=4, count=10, r_min=3, r_max=6), inst_path)
        csv_path = tmp_path / "lambda.csv"
        assert main(["lambda", "--instances", str(inst_path), "--out", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "question battery" in out
        assert csv_path.is_file()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        inst_path = tmp_path / "instances.json"
        save_instances(gen_instances(seed=4, count=10, r_min=3, r_max=6), inst_path)
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "relativize", "lambda",
                               "--instances", str(inst_path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "question battery" in done.stdout and "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("argv, message", [
        (["suite", "--config", "small.json", "--out-dir", ""], "--out-dir must not be empty"),
        (["suite", "--config", "empty-out-dir.json"],
         "empty-out-dir.json: out_dir must not be empty"),
        (["lambda", "--instances", "instances.json", "--out", ""], "--out must not be empty"),
        (["gen-corpus", "--k-min", "6", "--k-max", "6", "--per-k", "1", "--out", ""],
         "--out must not be empty"),
        (["build-oracle", "--kind", "A", "--corpus", "corpus.json", "--out", ""],
         "--out must not be empty"),
        (["suite", "--config", ""], "--config must not be empty"),
        (["build-oracle", "--kind", "A", "--corpus", "", "--out", "a.json"],
         "--corpus must not be empty"),
        (["solve", "--oracle", "", "--formula", "1", "--corpus", "corpus.json"],
         "--oracle must not be empty"),
        (["solve", "--oracle", "corpus.json", "--formula", "1", "--corpus", ""],
         "--corpus must not be empty"),
        (["lambda", "--instances", ""], "--instances must not be empty"),
    ], ids=["suite-out-dir", "config-out-dir", "lambda-out", "gen-corpus-out",
            "build-oracle-out", "suite-config", "build-oracle-corpus", "solve-oracle",
            "solve-corpus", "lambda-instances"])
    def test_an_empty_output_path_is_refused(self, tmp_path, monkeypatch, capsys, argv,
                                             message):
        # "" as a directory is the current one, and as a file no file at all;
        # an empty input path is refused the same way, before anything is read
        monkeypatch.chdir(tmp_path)
        small = {"k_range": [6, 6], "formulas_per_k": 1}
        Path("small.json").write_text(json.dumps(small), encoding="utf-8")
        Path("empty-out-dir.json").write_text(json.dumps({**small, "out_dir": ""}),
                                              encoding="utf-8")
        save_instances(gen_instances(seed=4, count=2, r_min=3, r_max=4), "instances.json")
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", "--per-k", "1",
                     "--out", "corpus.json"]) == 0
        before = sorted(os.listdir())
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert sorted(os.listdir()) == before

    def _suite_exit(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**doc, "out_dir": str(tmp_path / "out")}),
                               encoding="utf-8")
        return main(["suite", "--config", str(config_path)])

    def test_suite_rejects_d_bar(self, tmp_path, capsys):
        assert self._suite_exit(tmp_path, {"k_range": [6, 6], "formulas_per_k": 1,
                                           "oracles": ["D_bar"]}) == 2
        assert "D's run covers D_bar" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_suite_rejects_a_kind_listed_twice(self, tmp_path, capsys):
        assert self._suite_exit(tmp_path, {"k_range": [6, 6], "formulas_per_k": 1,
                                           "oracles": ["A", "C", "A"]}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "oracle kinds ['A'] are listed more than once" in err
        assert not (tmp_path / "out").exists()

    def test_suite_rejects_unknown_config_key(self, tmp_path, capsys):
        assert self._suite_exit(tmp_path, {"k_range": [6, 6], "formulas_per_k": 1,
                                           "oracle": ["A"]}) == 2
        assert "unknown config keys ['oracle']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, message", [
        ({"seed": "42"}, "'seed' must be an integer"),
        ({"oracles": "A"}, "'oracles' must be a list of strings"),
        ({"clause_density": "3.0"}, "'clause_density' must be a number"),
        ({"formulas_per_k": 1.5}, "'formulas_per_k' must be an integer"),
        ({"k_range": ["6", 6]}, "'k_range' must be a list of two integers"),
        ({"out_dir": 5}, "'out_dir' must be a string"),
        ({"budget": [-1, 2]}, "'budget' must be a list of two non-negative integers"),
    ])
    def test_suite_rejects_config_value_of_wrong_type(self, tmp_path, capsys, bad, message):
        config_path = tmp_path / "config.json"
        doc = {"k_range": [6, 6], "formulas_per_k": 1, "out_dir": str(tmp_path / "out"), **bad}
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["suite", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{config_path}: {message}" in err
        assert not (tmp_path / "out").exists()

    DENSITY = "clause_density must be non-negative with a finite clause_density * k"
    PER_K = "formulas_per_k must be non-negative"

    @pytest.mark.parametrize("bad, message", [
        ({"clause_density": float("inf")}, DENSITY),
        ({"clause_density": float("nan")}, DENSITY),
        ({"clause_density": -1}, DENSITY),
        ({"clause_density": 1e308}, DENSITY),
        ({"formulas_per_k": -1}, PER_K),
    ])
    def test_suite_rejects_config_value_out_of_range(self, tmp_path, capsys, bad, message):
        assert self._suite_exit(tmp_path, {"k_range": [6, 6], "formulas_per_k": 1, **bad}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--density", "inf", DENSITY),
        ("--density", "nan", DENSITY),
        ("--density", "-1", DENSITY),
        ("--density", "1e308", DENSITY),
        ("--per-k", "-1", PER_K),
    ])
    def test_gen_corpus_rejects_value_out_of_range(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "corpus.json"
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", flag, value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_defaults_are_the_configs(self, tmp_path, capsys):
        config_path, corpus_path = tmp_path / "config.json", tmp_path / "corpus.json"
        config_path.write_text("{}", encoding="utf-8")
        assert config_from_json(config_path) == ExperimentConfig()
        assert main(["gen-corpus", "--out", str(corpus_path)]) == 0
        assert load_corpus(corpus_path) == gen_corpus(ExperimentConfig())

    @pytest.mark.parametrize("doc, message", [
        ([{"M": 3}], "instance entry 0: missing keys ['S']"),
        ([{"S": [1], "M": 1}, {"S": [2]}], "instance entry 1: missing keys ['M']"),
        ([{"S": 4, "M": 4}], "instance entry 0: 'S' must be a list"),
        ([{"S": [], "M": 0}], "instance entry 0: malformed instance"),
        ([[1, 2]], "instance entry 0: expected an object"),
        ({"S": [1], "M": 1}, "a JSON array of instances"),
        ([{"S": [1], "M": 1, "X": 2}], "instance entry 0: unknown keys ['X']"),
    ])
    def test_malformed_instance_file(self, tmp_path, capsys, doc, message):
        inst_path = tmp_path / "instances.json"
        inst_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["lambda", "--instances", str(inst_path),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe[]",
                                         b"[" + b"1" * (CODE_DIGITS + 1) + b"]",
                                         b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-json", "not-utf-8", "int-past-digit-limit",
                                  "nested-too-deep"])
    @pytest.mark.parametrize("option", ["suite --config", "build-oracle --corpus",
                                        "lambda --instances", "solve --oracle"],
                             ids=["suite-config", "build-oracle-corpus", "lambda-instances",
                                  "solve-oracle"])
    def test_unreadable_input_file_is_named(self, tmp_path, capsys, option, content):
        corpus_path, bad, out = tmp_path / "corpus.json", tmp_path / "bad.json", tmp_path / "out"
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", "--per-k", "1",
                     "--out", str(corpus_path)]) == 0
        bad.write_bytes(content)
        argv = {
            "suite --config": ["suite", "--config", str(bad), "--out-dir", str(out)],
            "build-oracle --corpus": ["build-oracle", "--kind", "A", "--corpus", str(bad),
                                      "--out", str(out)],
            "lambda --instances": ["lambda", "--instances", str(bad), "--out", str(out)],
            "solve --oracle": ["solve", "--oracle", str(bad), "--formula", "1",
                               "--corpus", str(corpus_path)],
        }[option]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: not readable as UTF-8 JSON (")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("option, content, key", [
        ("suite --config", '{"seed": 1, "seed": 2}', "seed"),
        ("build-oracle --corpus", '[{"id": 1, "literals": ["a"], "clauses": [], "id": 1}]', "id"),
        ("lambda --instances", '[{"S": [1], "M": 1, "M": 2}]', "M"),
        ("solve --oracle", '{"kind": "A", "provenance": {"7": [1, "a"], "7": [2, "b"]}}', "7"),
    ], ids=["suite-config", "build-oracle-corpus", "lambda-instances", "solve-oracle"])
    def test_repeated_key_is_refused(self, tmp_path, capsys, option, content, key):
        # the parser alone would keep the last value: seed 2, target 2, ...
        corpus_path, bad, out = tmp_path / "corpus.json", tmp_path / "bad.json", tmp_path / "out"
        assert main(["gen-corpus", "--k-min", "6", "--k-max", "6", "--per-k", "1",
                     "--out", str(corpus_path)]) == 0
        bad.write_text(content, encoding="utf-8")
        argv = {
            "suite --config": ["suite", "--config", str(bad), "--out-dir", str(out)],
            "build-oracle --corpus": ["build-oracle", "--kind", "A", "--corpus", str(bad),
                                      "--out", str(out)],
            "lambda --instances": ["lambda", "--instances", str(bad), "--out", str(out)],
            "solve --oracle": ["solve", "--oracle", str(bad), "--formula", "1",
                               "--corpus", str(corpus_path)],
        }[option]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: repeated key {key!r} in a JSON object\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["build-oracle", "solve"])
    @pytest.mark.parametrize("budget", [["-1", "2"], ["2", "-1"]])
    def test_budget_option_must_be_naturals(self, tmp_path, capsys, command, budget):
        corpus_path, oracle_path = tmp_path / "corpus.json", tmp_path / "a.json"
        assert main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
                     "--per-k", "1", "--out", str(corpus_path)]) == 0
        assert main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
                     "--out", str(oracle_path)]) == 0
        out = tmp_path / "b.json"
        argv = {"build-oracle": ["build-oracle", "--kind", "A", "--out", str(out)],
                "solve": ["solve", "--oracle", str(oracle_path), "--formula", "1"]}[command]
        capsys.readouterr()
        assert main([*argv, "--corpus", str(corpus_path), "--budget", *budget]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --budget must be two non-negative integers")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ([{"S": [1.5, 2.9], "M": 3}], "instance entry 0: malformed instance"),
        ([{"S": ["3"], "M": 3}], "instance entry 0: malformed instance"),
        ([{"S": [1], "M": 1}, {"S": [1, 2], "M": 3.0}], "instance entry 1: malformed instance"),
        ([{"S": [True, 1], "M": 2}], "instance entry 0: malformed instance"),
    ])
    def test_instance_values_must_be_integers(self, tmp_path, capsys, doc, message):
        inst_path = tmp_path / "instances.json"
        inst_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["lambda", "--instances", str(inst_path),
                     "--out", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert "must be integers" in captured.err
        assert captured.out == "" and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fid", ["0", "99", "-1"])
    def test_solve_rejects_formula_id_outside_corpus(self, tmp_path, capsys, fid):
        corpus_path = tmp_path / "corpus.json"
        oracle_path = tmp_path / "a.json"
        main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
              "--per-k", "5", "--out", str(corpus_path)])
        main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
              "--out", str(oracle_path)])
        capsys.readouterr()
        assert main(["solve", "--oracle", str(oracle_path), "--formula", fid,
                     "--corpus", str(corpus_path)]) == 2
        n = len(json.loads(corpus_path.read_text(encoding="utf-8")))
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert f"no problem {fid} in the corpus (ids run 1..{n})" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("entry, message", [
        ({"id": 1, "literals": ["a"]}, "missing keys ['clauses']"),
        ({"literals": ["a"], "clauses": [[[0, True]]]}, "missing keys ['id']"),
        ([1, ["a"], [[[0, True]]]], "expected an object"),
        ({"id": 1, "literals": "a", "clauses": [[[0, True]]]}, "'literals' must be a list"),
        ({"id": 1, "literals": ["a"], "clauses": [[0, True]]}, "malformed formula"),
        ({"id": 1, "literals": ["a"], "clauses": [], "budgets": [1, 1]},
         "unknown keys ['budgets']"),
        ({"id": 2, "literals": ["a"], "clauses": []},
         "'id' is 2, not 1; corpus ids must be dense 1..n in order"),
    ])
    def test_malformed_corpus_entry(self, tmp_path, capsys, entry, message):
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps([entry]), encoding="utf-8")
        assert main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "a.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corpus entry 0" in err and message in err
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"id": 1, "literals": ["a"], "clauses": [[[0, "false"]]]}, "malformed formula"),
        ({"id": 1, "literals": ["a", "b"], "clauses": [[[1.7, True]]]}, "malformed formula"),
        ({"id": 1, "literals": ["a", "b"], "clauses": [[[True, True]]]}, "malformed formula"),
        ({"id": 1, "literals": ["a"], "clauses": [[[0, True, 1]]]}, "malformed formula"),
        ({"id": True, "literals": ["a"], "clauses": [[[0, True]]]},
         "malformed formula (a formula's id must be an int, got True)"),
        ({"id": "1", "literals": ["a"], "clauses": []},
         "malformed formula (a formula's id must be an int, got '1')"),
        ({"id": 1, "literals": [1, 2], "clauses": []},
         "malformed formula (literal names must be strings, got [1, 2])"),
        *(({"id": 1, "literals": ["a"], "clauses": [], "budget": budget},
           "'budget' must be a list of two non-negative integers")
          for budget in ([1], [1, 2, 3], [1, -1], [True, 1], ["1", 1], [1.5, 1], "1 1", None)),
    ])
    def test_corpus_entry_values_are_not_coerced(self, tmp_path, capsys, entry, message):
        corpus_path = tmp_path / "corpus.json"
        second = {"id": 2, "literals": ["a"], "clauses": [[[0, True]]]}
        corpus_path.write_text(json.dumps([entry, second]), encoding="utf-8")
        assert main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "a.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "corpus entry 0" in captured.err
        assert message in captured.err and captured.out == ""
        assert not (tmp_path / "a.json").exists()

    def test_solve_refuses_coerced_oracle_file_values(self, tmp_path, capsys):
        corpus_path, oracle_path = tmp_path / "corpus.json", tmp_path / "a.json"
        main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
              "--per-k", "1", "--out", str(corpus_path)])
        main(["build-oracle", "--kind", "A", "--corpus", str(corpus_path),
              "--out", str(oracle_path)])
        doc = json.loads(oracle_path.read_text(encoding="utf-8"))
        doc["corpus_ids"] = ["1", 2.9, True]
        oracle_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["solve", "--oracle", str(oracle_path), "--formula", "1",
                     "--corpus", str(corpus_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert "'corpus_ids' must be a list of integers" in captured.err

    def test_bad_oracle_file_is_reported(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        main(["gen-corpus", "--seed", "3", "--k-min", "6", "--k-max", "6",
              "--per-k", "1", "--out", str(corpus_path)])
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["solve", "--oracle", str(bad), "--formula", "1",
                     "--corpus", str(corpus_path)]) == 2
        assert "error:" in capsys.readouterr().err
