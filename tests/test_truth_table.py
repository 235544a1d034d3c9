"""Differential tests: every truth-table read and every index-native input
code against a per-assignment reference, and every cached code (block codes,
canonical keys, F's tagged members, the report writer's decimal memo and its
block-code text computed from the problem) against a fresh computation. A built F answers through its untagged sides,
checked against tagged views over the reference F.

The references (`reference.py`) walk the 2^k assignments one by one through
`accepts` (which is `evaluate` for formulas), building each assignment there
rather than taking it from the package and encoding it with the tuple-level
`input_code`, and reproduce the loop versions of the constructions and solvers
field for field, transcripts, provenance text and insertion order included.
"""

import dataclasses
import decimal
import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relativize import (
    Budget,
    CapacityError,
    Corpus,
    ExperimentConfig,
    Formula,
    SetSumInstance,
    SetSumProblem,
    SideView,
    assignment_index,
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_E,
    build_F,
    build_D,
    clamped_budget,
    craft_d_corpus,
    craft_e_corpus,
    default_literals,
    evaluate,
    gen_corpus,
    gen_instances,
    godel_number,
    input_code,
    kappa_ids,
    lambda_report,
    load_corpus,
    nd_solve,
    negate,
    pair,
    partition_code,
    save_oracle,
    set_sum_naive,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
    tagged_view,
    truth_table,
)
from relativize import machine
from relativize.analog import _problem_corpus
from relativize.encoding import (
    PartitionCode,
    block_code_texts,
    code_digit_limit,
    input_code_at,
    input_codes,
)
from relativize.formula import block_masks, literal_masks
from relativize.harness import SuiteRunner, main
from relativize.machine import RunResult, code_text, search_limit, write_results_jsonl
from relativize.oracles import OracleSet

from reference import (
    accepting,
    assignment,
    partition,
    ref_brute_force,
    ref_build_A,
    ref_build_C,
    ref_build_C_bar,
    ref_build_D,
    ref_build_F,
    ref_finish,
    ref_kappa_ids,
    ref_nd_solve,
    ref_set_sum_naive,
    ref_solve_with_B,
    ref_solve_with_C,
)

# ---------------------------------------------------------------- strategies


def formulas(fid=1, k_max=10, ks=None):
    """Formulas with k 1..k_max (or k drawn from `ks`), up to 6 clauses of
    width up to 3; some carry a contradiction so unsatisfiable ones are common
    at every k."""
    def build(k):
        literal = st.tuples(st.integers(0, k - 1), st.booleans())
        clause = st.lists(literal, min_size=1, max_size=3, unique=True).map(tuple)
        clauses = st.lists(clause, min_size=0, max_size=6).map(tuple)
        contradiction = (((0, True),), ((0, False),))
        return st.tuples(clauses, st.booleans()).map(
            lambda cb: Formula(fid, default_literals(k), cb[0] + (contradiction if cb[1] else ())))
    return (st.integers(1, k_max) if ks is None else ks).flatmap(build)


def set_sum_problems(pid=1, ks=None):
    sizes = st.integers(1, 10) if ks is None else ks
    values = sizes.flatmap(lambda r: st.lists(st.integers(-20, 20), min_size=r, max_size=r))
    return st.tuples(values.map(tuple), st.booleans()).map(
        lambda vh: SetSumProblem(pid, SetSumInstance(vh[0], sum(vh[0]) + (0 if vh[1] else 1))))


def problems(pid=1, ks=None):
    return st.one_of(formulas(pid, ks=ks), set_sum_problems(pid, ks))


budgets = st.builds(Budget, st.integers(0, 3), st.integers(0, 3))


@st.composite
def corpora(draw, max_size=4):
    size = draw(st.integers(0, max_size))
    members = tuple(draw(problems(pid)) for pid in range(1, size + 1))
    return Corpus(members, {p.id: clamped_budget(p.k) for p in members})


@st.composite
def d_corpora(draw, max_size=5):
    """Corpora build_D accepts: even positions hold problems with even k, so
    the prefix rule has half-length problems to resolve to; budgets are drawn
    small enough that the odd-stage gate often fires."""
    size = draw(st.integers(0, max_size))
    members = tuple(
        draw(problems(pid, st.sampled_from((2, 4, 6, 8)) if pid % 2 == 0 else st.integers(1, 9)))
        for pid in range(1, size + 1)
    )
    return Corpus(members, {p.id: draw(budgets) for p in members})


# ---------------------------------------------------------------- the table


class TestTable:
    @given(problems())
    @settings(max_examples=120, deadline=None)
    def test_every_bit_matches_accepts(self, p):
        table = truth_table(p)
        assert table >> (1 << p.k) == 0
        for e in range(1 << p.k):
            a = assignment(e, p.k)
            assert bool((table >> e) & 1) == p.accepts(a)
            if isinstance(p, Formula):
                assert bool((table >> e) & 1) == evaluate(p, a)

    @pytest.mark.parametrize("k", range(11))
    def test_block_masks_are_the_true_count_partition(self, k):
        masks = block_masks(k)
        assert len(masks) == k + 1
        if k:
            f = Formula(1, default_literals(k), ())
            for t, mask in enumerate(masks):
                assert mask == sum(1 << assignment_index(a) for a in partition(f, t))
        assert sum(masks) == (1 << (1 << k)) - 1

    @pytest.mark.parametrize("k", range(1, 11))
    def test_literal_masks(self, k):
        for j, (negative, positive) in enumerate(literal_masks(k)):
            assert positive == sum(1 << e for e in range(1 << k) if (e >> j) & 1)
            assert negative ^ positive == (1 << (1 << k)) - 1

    def test_cached_per_instance(self):
        f = Formula(1, default_literals(4), (((0, True), (3, False)),))
        assert "truth_table" not in vars(f)
        table = truth_table(f)
        assert vars(f)["truth_table"] == table
        twin = Formula(1, f.literals, f.clauses)
        assert twin == f and "truth_table" not in vars(twin)

    def test_set_sum_single_bit(self):
        hit = SetSumProblem(1, SetSumInstance((1, 2, 3), 6))
        miss = SetSumProblem(2, SetSumInstance((1, 2, 3), 5))
        assert truth_table(hit) == 1 << 7 and truth_table(miss) == 0


class TestCap:
    def test_cap_fires_before_the_table_is_built(self, monkeypatch):
        f = Formula(1, default_literals(6), (((0, True),),))
        with pytest.raises(CapacityError):
            truth_table(f, cap=5)
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        with pytest.raises(CapacityError):
            brute_force_sat(f)
        assert "truth_table" not in vars(f)

    def test_every_reader_checks_the_cap(self):
        f = Formula(1, default_literals(6), (((0, True),),))
        corpus = Corpus((f,), {1: clamped_budget(6)})
        readers = [
            lambda: brute_force_sat(f, cap=5),
            lambda: nd_solve(f, cap=5),
            lambda: solve_with_B(f, build_B(corpus), clamped_budget(6), cap=5),
            lambda: build_A(corpus, cap=5),
            lambda: build_C(corpus, cap=5),
            lambda: build_C_bar(corpus, cap=5),
            lambda: build_F(corpus, cap=5),
            lambda: kappa_ids(corpus, cap=5),
        ]
        for read in readers:
            with pytest.raises(CapacityError):
                read()

    def test_set_sum_cap(self):
        p = SetSumProblem(1, SetSumInstance(tuple(range(8)), 28))
        with pytest.raises(CapacityError):
            brute_force_sat(p, cap=7)

    def test_every_input_code_scan_checks_the_cap(self):
        f = Formula(1, default_literals(6), (((0, True), (0, False)),))
        with pytest.raises(CapacityError):
            solve_with_C(f, frozenset(), cap=5)
        with pytest.raises(CapacityError):
            solve_with_C(f, frozenset(), cap=5, max_queries=1)
        with pytest.raises(CapacityError):
            build_C_bar(Corpus((f,), {1: clamped_budget(6)}), cap=5)
        # D's even stage scans the k=6 problem after reading only its k=3
        # half-length problem's table, so it checks the cap on its own
        half = Formula(1, default_literals(3), (((0, True),), ((0, False),)))
        even = Formula(2, default_literals(6), (((0, True),),))
        corpus = Corpus((half, even), {1: clamped_budget(3), 2: clamped_budget(6)})
        build_D(corpus, cap=6)
        with pytest.raises(CapacityError):
            build_D(corpus, cap=5)


# ---------------------------------------------------------------- the readers


class TestReaders:
    @given(problems())
    @settings(max_examples=80, deadline=None)
    def test_brute_force_sat(self, p):
        assert brute_force_sat(p) == ref_brute_force(p)

    @given(problems(), budgets)
    @settings(max_examples=80, deadline=None)
    def test_solvers(self, p, budget):
        truth = bool(accepting(p))
        assert nd_solve(p, ground_truth=truth) == ref_nd_solve(p, ground_truth=truth)
        corpus = Corpus((p,), {p.id: budget})
        oracle = build_B(corpus)
        # an oracle that holds the probed code, so both answers are exercised
        probe = input_code(p.id, assignment(min(search_limit(budget, p.k), (1 << p.k) - 1),
                                            p.k)).code
        yes = OracleSet("B", oracle.members | {probe}, {}, corpus.ids(), corpus.digest())
        for o in (oracle, yes):
            assert solve_with_B(p, o, budget, ground_truth=truth) == ref_solve_with_B(
                p, o, budget, ground_truth=truth)

    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_constructions(self, corpus):
        for build, ref in ((build_A, ref_build_A), (build_C, ref_build_C),
                           (build_C_bar, ref_build_C_bar), (build_F, ref_build_F)):
            got, want = build(corpus), ref(corpus)
            assert got == want
            assert list(got.provenance.items()) == list(want.provenance.items())
        assert kappa_ids(corpus) == ref_kappa_ids(corpus)

    def test_blocks_in_order_of_first_accepting_index(self):
        # accepted: index 3 (a, b; block t=2) and index 4 (c; block t=1)
        f = Formula(1, ("a", "b", "c"), (((0, True), (2, True)), ((1, True), (2, True)),
                                         ((0, False), (2, False)), ((1, False), (2, False))))
        corpus = Corpus((f,), {1: clamped_budget(3)})
        oracle = build_A(corpus)
        assert [note for _, note in oracle.provenance.values()] == [
            "step 3: block t=2 first accepted at assignment 3",
            "step 3: block t=1 first accepted at assignment 4",
        ]
        assert list(oracle.provenance.items()) == list(ref_build_A(corpus).provenance.items())

    def test_complement_pair_at_k10(self):
        f = Formula(1, default_literals(10), (((2, True), (7, False)), ((9, True),)))
        corpus = Corpus((f, negate(f, new_id=2)), {1: clamped_budget(10), 2: clamped_budget(10)})
        assert kappa_ids(corpus) == ref_kappa_ids(corpus) == frozenset({1, 2})


# ---------------------------------------------------------------- input codes


class TestInputCodes:
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(0, (1 << k) - 1))), st.integers(0, 500), st.integers(0, 50))
    @settings(max_examples=300, deadline=None)
    def test_index_code_is_the_tuple_code(self, ke, i, n):
        k, e = ke
        assert input_code_at(i, e, k, n) == input_code(i, assignment(e, k), n).code

    @pytest.mark.parametrize("k", range(1, 13))
    def test_lazy_codes_in_canonical_order(self, k):
        codes = [input_code(7, assignment(e, k), 2).code for e in range(1 << k)]
        assert list(input_codes(7, k, n=2)) == codes
        assert list(input_codes(7, k, stop=3, n=2)) == codes[:3]
        assert list(input_codes(7, k, stop=0)) == []

    @given(problems(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve_with_C(self, p, data):
        # an oracle holding a few of the problem's codes, so scans stop anywhere
        hits = data.draw(st.lists(st.integers(0, (1 << p.k) - 1), max_size=3))
        oracle = frozenset(input_code(p.id, assignment(e, p.k)).code for e in hits)
        truth = bool(accepting(p))
        for max_queries in (None, data.draw(st.integers(0, (1 << p.k) + 2))):
            assert solve_with_C(p, oracle, ground_truth=truth, max_queries=max_queries) == (
                ref_solve_with_C(p, oracle, ground_truth=truth, max_queries=max_queries))

    @given(d_corpora())
    @settings(max_examples=120, deadline=None)
    def test_build_D(self, corpus):
        for got, want in zip(build_D(corpus), ref_build_D(corpus)):
            assert got == want
            assert list(got.provenance.items()) == list(want.provenance.items())

    def test_build_D_crafted(self):
        corpus = craft_d_corpus()
        got, want = build_D(corpus), ref_build_D(corpus)
        assert got == want and all(len(s) for s in got)
        for g, w in zip(got, want):
            assert list(g.provenance.items()) == list(w.provenance.items())

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=10), st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_set_sum_naive(self, values, miss):
        inst = SetSumInstance(tuple(values), sum(values) + miss)
        assert set_sum_naive(inst) == ref_set_sum_naive(inst)

    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_godel_number_is_cached_per_instance(self, p):
        fresh = int.from_bytes(p.canonical_key().encode("utf-8"), "big")
        assert godel_number(p) == fresh
        assert godel_number(p) == fresh
        twin = dataclasses.replace(p)  # a fresh instance, nothing cached on it
        assert twin == p and godel_number(twin) == fresh


# ---------------------------------------------------------------- cached codes


def old_build_F(corpus):
    """build_F as it was before members became the provenance keys: the A
    members and their provenance each tagged by their own comprehension."""
    direct = build_A(corpus)
    members = {pair(0, code) for code in direct.members}
    prov = {pair(0, code): (fid, f"np side, {note}")
            for code, (fid, note) in direct.provenance.items()}
    for f in corpus:
        if not truth_table(f):
            code = pair(1, input_code_at(f.id, 0, f.k))
            members.add(code)
            prov[code] = (f.id, "co side: sentinel for a problem with no accepting assignment")
    return ref_finish("F", members, prov, corpus)


def ref_write_results_jsonl(results, path):
    """The plain writer: every code through str, one conversion per occurrence."""
    with code_digit_limit(), open(path, "w", encoding="utf-8") as fh:
        for r in results:
            doc = {
                "oracle": r.oracle, "formula_id": r.formula_id, "k": r.k,
                "verdict": r.verdict, "steps": r.steps, "queries": r.queries,
                "transcript": [[str(code), answer] for code, answer in r.transcript],
                "ground_truth": r.ground_truth, "correct": r.correct,
                "simulated_work": r.simulated_work,
            }
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def fresh_canonical_key(f):
    clauses = sorted(tuple(sorted(clause)) for clause in f.clauses)
    return json.dumps([clauses, list(f.literals)], separators=(",", ":"))


def ref_digest(corpus):
    keys = [fresh_canonical_key(f) if isinstance(f, Formula) else f.canonical_key()
            for f in corpus]
    doc = [[f.id, key, corpus.budget_for(f.id).coefficient, corpus.budget_for(f.id).exponent]
           for f, key in zip(corpus, keys)]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode("utf-8")).hexdigest()


# Codes on both sides of the width at which write_results_jsonl starts to
# memoize, plus block-code-sized ones; drawn with repeats across runs.
code_pool = st.one_of(
    st.integers(0, 1 << 64),
    st.integers(-3, 3).map(lambda d: (1 << 1024) + d),
    st.integers(1 << 4000, 1 << 20000),
    problems(ks=st.integers(1, 12)).map(lambda p: partition_code(p, p.k).code),
)


@st.composite
def run_results(draw):
    pool = draw(st.lists(code_pool, min_size=1, max_size=6))
    out = []
    for fid in range(1, draw(st.integers(0, 5)) + 1):
        transcript = tuple((draw(st.sampled_from(pool)), draw(st.booleans()))
                           for _ in range(draw(st.integers(0, 8))))
        truth = draw(st.sampled_from((None, True, False)))
        accepted = draw(st.booleans())
        out.append(RunResult(
            oracle=draw(st.sampled_from(("A", "F[np]", "C"))), formula_id=fid, k=3,
            accepted=accepted, steps=len(transcript), queries=len(transcript),
            transcript=transcript, ground_truth=truth,
            correct=None if truth is None else accepted == truth,
            simulated_work=draw(st.none() | st.integers(0, 8))))
    return out


# Problems with k 1..20, among them formulas with up to 80 clauses, whose
# structural numbers run to the size of the default corpus's (about 9.4k
# bits at k=12).
def wide_formulas(k):
    literal = st.tuples(st.integers(0, k - 1), st.booleans())
    clause = st.lists(literal, min_size=1, max_size=3, unique=True).map(tuple)
    return st.lists(clause, max_size=80).map(
        lambda clauses: Formula(1, default_literals(k), tuple(clauses)))


block_coded_problems = st.one_of(
    problems(ks=st.integers(1, 20)),
    st.integers(1, 20).flatmap(wide_formulas),
)


class TestCachedCodes:
    @given(problems(ks=st.integers(1, 12)))
    @settings(max_examples=150, deadline=None)
    def test_block_codes_are_the_pairings(self, p):
        g = godel_number(p)
        for t in range(p.k + 1):
            assert partition_code(p, t) == PartitionCode(t, g, pair(t, g))
        assert vars(p)["_block_codes"] == tuple(pair(t, g) for t in range(p.k + 1))

    @given(problems(ks=st.integers(1, 12)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_twin_computes_its_own_block_codes(self, p, data):
        t = data.draw(st.integers(0, p.k))
        code = partition_code(p, t).code
        twin = dataclasses.replace(p)  # a fresh instance, nothing cached on it
        assert "_block_codes" not in vars(twin)
        assert partition_code(twin, t).code == code
        assert vars(twin)["_block_codes"] == vars(p)["_block_codes"]
        assert vars(twin)["_block_codes"] is not vars(p)["_block_codes"]

    def test_block_code_range_still_checked(self):
        f = Formula(1, ("a", "b"), ())
        for t in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                partition_code(f, t)

    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_build_F_matches_the_old_comprehension(self, corpus):
        got, want = build_F(corpus), old_build_F(corpus)
        assert got == want
        assert list(got.provenance.items()) == list(want.provenance.items())
        assert got.members == frozenset(got.provenance)

    def test_build_F_oracle_file_unchanged(self, tmp_path):
        corpus = gen_corpus(ExperimentConfig(seed=5, k_range=(10, 12), formulas_per_k=2))
        save_oracle(build_F(corpus), tmp_path / "got.json")
        save_oracle(old_build_F(corpus), tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @given(run_results())
    @settings(max_examples=80, deadline=None)
    def test_write_results_jsonl_matches_plain_str(self, tmp_path_factory, results):
        out = tmp_path_factory.mktemp("jsonl")
        write_results_jsonl(results, out / "got.jsonl")
        ref_write_results_jsonl(results, out / "want.jsonl")
        assert (out / "got.jsonl").read_bytes() == (out / "want.jsonl").read_bytes()

    @given(block_coded_problems)
    @settings(max_examples=120, deadline=None)
    def test_block_code_text_is_str_of_the_pairing(self, p):
        limit = sys.get_int_max_str_digits()
        g = godel_number(p)
        codes = [partition_code(p, t).code for t in range(p.k + 1)]
        cached = dict(vars(p))
        with code_digit_limit():
            text = block_code_texts([p])
            assert [text(code) for code in codes] == [str(pair(t, g)) for t in range(p.k + 1)]
            assert text(codes[-1] + 1) is None and text(g) is None
            by_writer = code_text([p])
            assert [by_writer(code) for code in codes] == [str(code) for code in codes]
        assert sys.get_int_max_str_digits() == limit
        assert vars(p) == cached  # nothing new on the instance

    def test_block_code_text_traps_a_precision_shortfall(self, monkeypatch):
        f = Formula(1, default_literals(6), (((0, True), (3, False)), ((5, True),)))
        code = partition_code(f, 1).code
        assert block_code_texts([f])(code) == str(code)
        monkeypatch.setattr(decimal, "MAX_PREC", 20)  # far fewer digits than g has
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            block_code_texts([f])(code)

    def test_write_results_jsonl_prints_block_codes_from_problems(self, tmp_path, monkeypatch):
        corpus = gen_corpus(ExperimentConfig(seed=3, k_range=(11, 12), formulas_per_k=2))
        first = corpus.formulas[0]
        twin = dataclasses.replace(first, id=len(corpus) + 1)  # same canonical form
        corpus = Corpus(corpus.formulas + (twin,),
                        {**corpus.budgets, twin.id: corpus.budget_for(first.id)})
        a, f = build_A(corpus), build_F(corpus)
        crafted = craft_e_corpus()
        e = build_E(crafted, build_A(crafted))
        results = []
        for p in corpus:
            results.append(solve_with_A(p, a))
            results.append(solve_with_A(p, tagged_view(f, 0)))
            results.append(solve_conp_with_C_bar(p, tagged_view(f, 1)))
        results += [solve_with_A(p, e) for p in crafted]
        assert vars(twin)["_block_codes"] == vars(first)["_block_codes"]
        ref_write_results_jsonl(results, tmp_path / "want.jsonl")

        printed = []

        def counting(problems):
            text = block_code_texts(problems)

            def counted(code):
                s = text(code)
                printed.append(s is not None)
                return s
            return counted

        monkeypatch.setattr(machine, "block_code_texts", counting)
        limit = sys.get_int_max_str_digits()
        everything = [*corpus, *crafted]
        # all of them; every other one (the rest fall back to str); only the
        # twin of a queried problem (its codes are shared); none
        for problems in (everything, everything[::2], [twin], ()):
            printed.clear()
            write_results_jsonl(results, tmp_path / "got.jsonl", problems)
            assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
            assert sys.get_int_max_str_digits() == limit
            assert any(printed) == bool(problems) and all(printed) == (problems is everything)

    def test_suite_passes_every_problem_whose_block_codes_it_queried(self, tmp_path,
                                                                     monkeypatch):
        passed = []

        def recording(problems):
            passed.append(list(problems))
            return block_code_texts(passed[-1])

        monkeypatch.setattr(machine, "block_code_texts", recording)
        runner = SuiteRunner(ExperimentConfig(seed=3, k_range=(6, 7), formulas_per_k=2,
                                              oracle_kinds=("A", "E", "F"),
                                              out_dir=str(tmp_path)))
        runner.run()
        runner.write_reports()
        [problems] = passed
        blocks = {code for p in problems for code in vars(p).get("_block_codes", ())}
        queried = [code for r in runner.results if r.oracle in ("A", "E", "F[np]")
                   for code, _ in r.transcript]
        assert {r.oracle for r in runner.results} >= {"A", "E", "F[np]"}
        assert queried and set(queried) <= blocks

    def test_write_results_jsonl_on_suite_runs(self, tmp_path):
        corpus = gen_corpus(ExperimentConfig(seed=3, k_range=(11, 12), formulas_per_k=2))
        a, f = build_A(corpus), build_F(corpus)
        results = []
        for p in corpus:
            results.append(solve_with_A(p, a))
            results.append(solve_with_A(p, tagged_view(f, 0)))
            results.append(solve_conp_with_C_bar(p, tagged_view(f, 1)))
        codes = [code for r in results for code, _ in r.transcript]
        assert len(set(codes)) < len(codes) and min(codes).bit_length() < 1024 < max(
            codes).bit_length()
        write_results_jsonl(results, tmp_path / "got.jsonl")
        ref_write_results_jsonl(results, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    @given(formulas())
    @settings(max_examples=100, deadline=None)
    def test_canonical_key_is_cached_per_instance(self, f):
        key = fresh_canonical_key(f)
        assert f.canonical_key() == key
        assert f.canonical_key() is f.canonical_key()
        twin = dataclasses.replace(f)
        assert "_canonical_key" not in vars(twin) and twin.canonical_key() == key

    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_corpus_digest_unchanged(self, corpus):
        assert corpus.digest() == ref_digest(corpus)
        assert corpus.digest() == ref_digest(corpus)


# ---------------------------------------------------------------- F's sides


@pytest.fixture
def paired(monkeypatch):
    """The set of every value `pair` returns while the test runs, through
    every module of the package that binds it."""
    seen = set()

    def recording(a, b):
        code = pair(a, b)
        seen.add(code)
        return code

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "relativize" and getattr(module, "pair", None) is pair:
            monkeypatch.setattr(module, "pair", recording)
    return seen


class TestTwoSidedF:
    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_sides_answer_as_tagged_views_over_the_reference(self, corpus):
        built, ref = build_F(corpus), ref_build_F(corpus)
        assert len(built) == len(ref)
        probes = set()
        for p in corpus:
            probes.update(partition_code(p, t).code for t in range(p.k + 1))
            probes.add(input_code(p.id, assignment(0, p.k)).code)
            if p.k <= 8:
                probes.update(input_code(p.id, assignment(e, p.k)).code for e in range(1 << p.k))
        for tag in (0, 1):
            view = tagged_view(built, tag)
            want = SideView(("F[np]", "F[co]")[tag], ref.members, ref.corpus_ids, tag)
            assert (view.kind, view.corpus_ids) == (want.kind, want.corpus_ids)
            assert {c for c in probes if c in view} == {c for c in probes if c in want}

    def test_queries_compute_no_tagged_code(self, paired):
        runner = SuiteRunner(ExperimentConfig(seed=11, k_range=(6, 8), formulas_per_k=2,
                                              oracle_kinds=("F",)))
        oracle = build_F(runner.corpus)
        views = (tagged_view(oracle, 0), tagged_view(oracle, 1))
        hits = [code in view for view in views for p in runner.corpus
                for code in (*(partition_code(p, t).code for t in range(p.k + 1)),
                             input_code_at(p.id, 0, p.k))]
        assert len(oracle) > 0 and any(hits) and not all(hits)
        runner.run()
        assert runner.results and not runner.failures
        assert {r.oracle for r in runner.results} == {"ND", "F[np]", "F[co]"}
        instances = gen_instances(seed=2, count=8, r_min=3, r_max=6)
        assert all(row.demonstrated for row in lambda_report(instances).rows)
        during = set(paired)
        tagged = oracle.members | build_F(_problem_corpus(instances)).members
        assert not during & tagged
        # the union itself is paired through the recorder, so a tagged code
        # computed on any path above would have been seen
        assert oracle.members <= paired

    def test_oracle_file_then_solve_reports_both_sides_correct(self, tmp_path, capsys):
        corpus_path, oracle_path = tmp_path / "corpus.json", tmp_path / "f.json"
        assert main(["gen-corpus", "--seed", "9", "--k-min", "6", "--k-max", "7",
                     "--per-k", "2", "--out", str(corpus_path)]) == 0
        assert main(["build-oracle", "--kind", "F", "--corpus", str(corpus_path),
                     "--out", str(oracle_path)]) == 0
        corpus = load_corpus(corpus_path, Budget(2, 2))
        save_oracle(ref_build_F(corpus), tmp_path / "ref.json")
        assert oracle_path.read_bytes() == (tmp_path / "ref.json").read_bytes()
        for p in corpus:
            capsys.readouterr()
            assert main(["solve", "--oracle", str(oracle_path), "--formula", str(p.id),
                         "--corpus", str(corpus_path)]) == 0
            runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert [r["oracle"] for r in runs] == ["F[np]", "F[co]"]
            assert all(r["correct"] is True for r in runs)
