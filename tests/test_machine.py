import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relativize import (
    Budget,
    ConfigurationError,
    Corpus,
    Formula,
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    clamped_budget,
    default_literals,
    nd_solve,
    partition_code,
    run_report,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
)
from relativize.harness import craft_all_true, craft_unsat
from relativize.machine import BlockScan, RunResult, ScanTranscript

from reference import ref_solve_with_A

ABC = ("a", "b", "c")
WIDE = Formula(1, ABC, (((0, True), (1, True), (2, True)),))
XOR2 = Formula(1, ("a", "b"), (((0, True), (1, True)), ((0, False), (1, False))))


def small_corpus(seed=11, count=20, k=5):
    rng = random.Random(seed)
    formulas = []
    for fid in range(1, count + 1):
        clauses = []
        for _ in range(rng.randint(1, 6)):
            idxs = sorted(rng.sample(range(k), 2))
            clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
        formulas.append(Formula(fid, default_literals(k), tuple(clauses)))
    return Corpus(tuple(formulas), {f.id: clamped_budget(f.k) for f in formulas})


class TestBudget:
    def test_polynomial(self):
        assert Budget(2, 2).steps(6) == 72
        assert Budget(1, 0).steps(100) == 1

    @given(st.builds(Budget, st.integers(0, 5), st.integers(0, 40)), st.integers(0, 70),
           st.integers(0, 2**80))
    @settings(max_examples=300, deadline=None)
    def test_steps_below_is_the_min(self, budget, n, bound):
        assert budget.steps_below(n, bound) == min(budget.steps(n), bound)

    def test_steps_below_a_huge_exponent_is_the_bound(self):
        # 6 ** 10**11 is about 32 GB
        for n in (2, 6, 20):
            assert Budget(1, 10**11).steps_below(n, 1 << n) == 1 << n
        assert Budget(1, 10**11).steps_below(1, 5) == 1
        assert Budget(0, 10**11).steps_below(6, 64) == 0

    def test_clamp_stays_below_space(self):
        for k in range(1, 21):
            assert clamped_budget(k).steps(k) < 2**k

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            Budget(-1, 2)


class TestNdSolve:
    def test_accepts_wide_clause(self):
        r = nd_solve(WIDE, ground_truth=True)
        assert r.accepted and r.queries == 0 and r.steps == 1
        assert r.correct is True

    def test_rejects_contradiction(self):
        f = craft_unsat(1, 1)
        r = nd_solve(f, ground_truth=False)
        assert not r.accepted and r.queries == 0
        assert r.simulated_work == 2

    def test_matches_brute_force_over_corpus(self):
        for f in small_corpus():
            assert nd_solve(f).accepted == brute_force_sat(f).satisfiable

    def test_matches_brute_force_over_500_formulas(self):
        rng = random.Random(101)
        for fid in range(1, 501):
            k = rng.randint(2, 5)
            clauses = []
            for _ in range(rng.randint(1, 5)):
                idxs = sorted(rng.sample(range(k), min(2, k)))
                clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
            f = Formula(fid, default_literals(k), tuple(clauses))
            assert nd_solve(f).accepted == brute_force_sat(f).satisfiable


FIELDS = ("oracle", "formula_id", "k", "accepted", "steps", "queries", "transcript",
          "ground_truth", "correct", "simulated_work")
maybe_bool = st.none() | st.booleans()
run_fields = st.tuples(
    st.sampled_from(["A", "B", "C", "ND", "F[np]"]), st.integers(0, 50), st.integers(0, 20),
    st.booleans(), st.integers(0, 2**20), st.integers(0, 30),
    st.lists(st.tuples(st.integers(0, 2**70), st.booleans()), max_size=3).map(tuple),
    maybe_bool, maybe_bool, st.none() | st.integers(0, 2**20))


class TestRunResult:
    """A run is a NamedTuple: its fields in order, fixed once built, and
    equal to, and hashed as, the plain tuple of its fields."""

    def test_fields_in_order(self):
        assert RunResult._fields == FIELDS
        assert RunResult._field_defaults == dict.fromkeys(FIELDS[7:])

    @given(run_fields, st.integers(7, 10))
    @settings(max_examples=150, deadline=None)
    def test_is_the_plain_tuple_of_its_fields(self, values, n):
        # the last 10 - n fields are left to their defaults, all None
        values = values[:n] + (None,) * (10 - n)
        r = RunResult(*values[:n])
        assert r == values and values == r and hash(r) == hash(values)
        assert r == RunResult(**dict(zip(FIELDS, values)))
        assert tuple(getattr(r, name) for name in FIELDS) == values
        assert r.verdict == ("accept" if r.accepted else "reject")

    def test_a_scan_run_is_the_plain_tuple_with_its_transcript_as_a_tuple(self):
        corpus = small_corpus(count=4, k=4)
        a, c = build_A(corpus), build_C(corpus)
        runs = [solve(f, oracle, ground_truth=truth) for f in corpus for truth in (True, False)
                for solve, oracle in ((solve_with_A, a), (solve_with_C, c),
                                      (solve_with_C, frozenset()))]
        assert {type(r.transcript) for r in runs} == {BlockScan, ScanTranscript}
        for r in runs:
            plain = (*r[:6], tuple(r.transcript), *r[7:])
            assert r == plain and plain == r and hash(r) == hash(plain)
            assert r._replace(transcript=tuple(r.transcript)) == r

    def test_a_run_cannot_be_changed(self):
        r = RunResult("A", 1, 3, True, 2, 1, ((7, True),), True, True)
        for name in (*FIELDS, "verdict"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = None  # no instance dict to add to
        assert r == RunResult("A", 1, 3, True, 2, 1, ((7, True),), True, True)

    def test_each_run_is_graded_against_its_ground_truth(self):
        corpus = small_corpus(count=6, k=4)
        a, b, c, c_bar = build_A(corpus), build_B(corpus), build_C(corpus), build_C_bar(corpus)
        for f in corpus:
            for truth in (True, False, None):
                runs = [nd_solve(f, truth), solve_with_A(f, a, truth),
                        solve_with_B(f, b, corpus.budget_for(f.id), truth),
                        solve_with_C(f, c, truth), solve_conp_with_C_bar(f, c_bar, truth)]
                for r in runs:
                    assert r.ground_truth is truth
                    assert r.correct is (None if truth is None else r.accepted == truth)


class TestSolveWithA:
    def test_accept_at_block_one(self):
        corpus = Corpus((XOR2,), {1: clamped_budget(2)})
        oracle = build_A(corpus)
        r = solve_with_A(XOR2, oracle, ground_truth=True)
        assert r.accepted and r.queries == 2 and r.steps == 2
        (_, first), (_, second) = list(r.transcript)
        assert first is False and second is True

    def test_reject_contradiction_k1(self):
        f = craft_unsat(1, 1)
        oracle = build_A(Corpus((f,), {1: clamped_budget(1)}))
        r = solve_with_A(f, oracle, ground_truth=False)
        assert not r.accepted and r.queries == 2 and r.correct is True

    def test_matches_brute_force_over_corpus(self):
        corpus = small_corpus()
        oracle = build_A(corpus)
        for f in corpus:
            r = solve_with_A(f, oracle)
            assert r.accepted == brute_force_sat(f).satisfiable
            assert r.queries <= f.k + 1

    def test_capped_scan_asks_no_block_past_its_cap(self):
        # every block from the cap on is a member, so a scan one block too
        # long would hit
        f = craft_unsat(2, 3)
        for cap in range(-1, f.k + 3):
            oracle = frozenset(partition_code(f, t) for t in range(max(cap, 0), f.k + 1))
            got = solve_with_A(f, oracle, max_queries=cap)
            assert got == ref_solve_with_A(f, oracle, max_queries=cap)
            assert not got.accepted and got.queries == min(max(cap, 0), f.k + 1)

    def test_missing_corpus_entry(self):
        corpus = Corpus((XOR2,), {1: clamped_budget(2)})
        oracle = build_A(corpus)
        stranger = Formula(9, ABC, (((0, True),),))
        with pytest.raises(ConfigurationError):
            solve_with_A(stranger, oracle)


class TestSolveWithB:
    def test_early_witness_never_queries(self):
        f = Formula(1, default_literals(6), (((0, True),),))  # witness at index 1
        corpus = Corpus((f,), {1: clamped_budget(6)})
        oracle = build_B(corpus)
        r = solve_with_B(f, oracle, corpus.budget_for(1), ground_truth=True)
        assert r.accepted and r.queries == 0 and r.steps == 2

    def test_false_accept_on_planted_code(self):
        f = craft_unsat(1, 6)  # 2^6 = 64 > p(6) = 36
        corpus = Corpus((f,), {1: clamped_budget(6)})
        oracle = build_B(corpus)
        assert len(oracle) == 1
        r = solve_with_B(f, oracle, corpus.budget_for(1), ground_truth=False)
        assert r.accepted and r.queries == 1
        assert r.correct is False

    def test_full_search_is_definitive(self):
        f = craft_unsat(1, 2)
        big = Budget(2, 2)  # p(2) = 8 >= 4: the search covers the space
        corpus = Corpus((f,), {1: big})
        oracle = build_B(corpus)
        r = solve_with_B(f, oracle, big, ground_truth=False)
        assert not r.accepted and r.queries == 0 and r.steps == 4
        assert r.correct is True


class TestSolveWithC:
    def test_reject_costs_full_space(self):
        f = craft_unsat(1, 3)
        corpus = Corpus((f,), {1: clamped_budget(3)})
        oracle = build_C(corpus)
        r = solve_with_C(f, oracle, ground_truth=False)
        assert not r.accepted and r.queries == 8 and r.correct is True

    def test_last_witness_costs_full_space(self):
        f = craft_all_true(1, 4)
        corpus = Corpus((f,), {1: clamped_budget(4)})
        oracle = build_C(corpus)
        assert len(oracle) == 1
        r = solve_with_C(f, oracle, ground_truth=True)
        assert r.accepted and r.queries == 16

    def test_matches_brute_force_over_corpus(self):
        corpus = small_corpus(seed=5)
        oracle = build_C(corpus)
        for f in corpus:
            assert solve_with_C(f, oracle).accepted == brute_force_sat(f).satisfiable


class TestComplementSolver:
    def test_unsat_accepts_in_one_query(self):
        f = craft_unsat(1, 3)
        corpus = Corpus((f,), {1: clamped_budget(3)})
        oracle = build_C_bar(corpus)
        r = solve_conp_with_C_bar(f, oracle, ground_truth=True)
        assert r.accepted and r.queries == 1 and r.correct is True

    def test_sat_rejects_in_one_query(self):
        corpus = Corpus((XOR2,), {1: clamped_budget(2)})
        oracle = build_C_bar(corpus)
        r = solve_conp_with_C_bar(XOR2, oracle, ground_truth=False)
        assert not r.accepted and r.queries == 1 and r.correct is True

    def test_always_one_query(self):
        corpus = small_corpus(seed=23)
        oracle = build_C_bar(corpus)
        for f in corpus:
            assert solve_conp_with_C_bar(f, oracle).queries == 1


class TestRunReport:
    def test_empty(self):
        report = run_report([])
        assert report["totals"]["runs"] == 0 and report["totals"]["incorrect"] == 0
        assert report["by_oracle"] == {} and report["max_queries_by_k"] == {}

    def test_all_correct_band(self):
        corpus = small_corpus(seed=2)
        oracle = build_A(corpus)
        runs = [
            solve_with_A(f, oracle, ground_truth=brute_force_sat(f).satisfiable)
            for f in corpus
        ]
        report = run_report(runs)
        assert report["by_oracle"]["A"]["correctness_rate"] == 1.0
        assert report["max_queries_by_k"][5] <= 6

    def test_dysfunction_lowers_the_rate(self):
        f = craft_unsat(1, 6)
        corpus = Corpus((f,), {1: clamped_budget(6)})
        oracle = build_B(corpus)
        runs = [solve_with_B(f, oracle, corpus.budget_for(1), ground_truth=False)]
        report = run_report(runs)
        assert report["by_oracle"]["B"]["correctness_rate"] < 1.0
        assert report["totals"]["incorrect"] == 1

    def test_mixed_batch_is_pinned(self):
        """A right and a wrong B run, two ungraded ND runs, and k 6 before k 3:
        ND's runs are all ungraded, so its rate is 0.0, and both blocks come
        out sorted although the batch lists ND first and k 6 first."""
        unsat = craft_unsat(1, 6)
        wide = Formula(2, ABC, WIDE.clauses)
        corpus = Corpus((unsat, wide), {1: clamped_budget(6), 2: clamped_budget(3)})
        oracle = build_B(corpus)
        runs = [
            nd_solve(unsat),
            solve_with_B(unsat, oracle, corpus.budget_for(1), ground_truth=False),
            solve_with_B(wide, oracle, corpus.budget_for(2), ground_truth=True),
            nd_solve(wide),
        ]
        report = run_report(runs)
        assert report == {
            "totals": {"runs": 4, "accepted": 3, "incorrect": 1, "queries": 1},
            "max_queries_by_k": {3: 0, 6: 1},
            "by_oracle": {
                "B": {"runs": 2, "correct": 1, "incorrect": 1, "ungraded": 0,
                      "correctness_rate": 0.5, "max_queries": 1},
                "ND": {"runs": 2, "correct": 0, "incorrect": 0, "ungraded": 2,
                       "correctness_rate": 0.0, "max_queries": 0},
            },
        }
        assert list(report["max_queries_by_k"]) == [3, 6]
        assert list(report["by_oracle"]) == ["B", "ND"]
