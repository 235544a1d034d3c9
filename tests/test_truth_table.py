"""Differential tests: every truth-table read and every index-native input
code against a per-assignment reference, and every cached code (block codes,
canonical keys, F's tagged members, and the problem's row of block-code
texts) against a fresh computation. A built F answers
through its untagged sides, checked against tagged views over the reference
F, and a built C_bar's rule answers as the reference's dict of codes. C's and
A's lazy scan transcripts read as the reference's tuples of (code, answer)
pairs, and the report writer, which streams every scan and prints a block
scan's codes from its problem's row, writes the reference's bytes.

The references (`reference.py`) walk the 2^k assignments one by one through
`accepts` (which is `evaluate` for formulas), building each assignment there
rather than taking it from the package and encoding it with the tuple-level
`input_code`, and reproduce the loop versions of the constructions and solvers
field for field, transcripts, provenance text and insertion order included.
"""

import dataclasses
import decimal
import hashlib
import itertools
import json
import sys
import types
import unittest.mock

import pytest
from hypothesis import example, given, settings
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
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_E,
    build_F,
    build_D,
    clamped_budget,
    craft_unsat,
    craft_d_corpus,
    craft_e_corpus,
    default_literals,
    evaluate,
    gen_corpus,
    godel_number,
    input_code,
    kappa_ids,
    lambda_report,
    load_corpus,
    load_oracle,
    nd_solve,
    pair,
    partition_code,
    run_suite,
    save_corpus,
    save_oracle,
    set_sum_direct,
    set_sum_naive,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
    tagged_view,
    truth_table,
    unpair,
)
from relativize import encoding, machine, oracles
from relativize.analog import _problem_corpus
from relativize.encoding import (
    block_code_texts,
    block_codes,
    code_digit_limit,
    input_code_at,
    input_codes,
    input_index,
)
from relativize.formula import block_masks, literal_masks
from relativize.harness import SuiteRunner, craft_all_true, main
from relativize.machine import (
    BlockScan,
    RunResult,
    ScanTranscript,
    write_results_jsonl,
)
from relativize.oracles import OracleSet, RejectedInputs, TaggedUnion

from reference import (
    accepting,
    assignment,
    assignment_index,
    gen_instances,
    negate,
    partition,
    ref_brute_force,
    ref_build_A,
    ref_build_B,
    ref_build_C,
    ref_build_C_bar,
    ref_build_D,
    ref_build_E,
    ref_build_F,
    ref_canonical_key,
    ref_finish,
    ref_kappa_ids,
    ref_literal_masks,
    ref_nd_solve,
    ref_set_sum_naive,
    ref_solve_conp_with_C_bar,
    ref_solve_with_A,
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
def corpora(draw, max_size=4, budget=None, ks=None):
    """Corpora of up to `max_size` problems, k drawn from `ks` if given, each
    budget drawn from `budget` or, when it is None, clamped to the problem's k."""
    size = draw(st.integers(0, max_size))
    members = tuple(draw(problems(pid, ks)) for pid in range(1, size + 1))
    return Corpus(members, {p.id: clamped_budget(p.k) if budget is None else draw(budget)
                            for p in members})


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

    @pytest.mark.parametrize("k", [*range(17), 20])
    def test_literal_masks_by_doubling_match_the_division(self, k):
        assert literal_masks(k) == ref_literal_masks(k)

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
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        with pytest.raises(CapacityError, match="RELATIVIZE_CAP"):
            truth_table(f)
        with pytest.raises(CapacityError):
            brute_force_sat(f)
        assert "truth_table" not in vars(f)

    def test_every_reader_checks_the_cap(self, monkeypatch):
        f = Formula(1, default_literals(6), (((0, True),),))
        corpus = Corpus((f,), {1: clamped_budget(6)})
        adversarial = build_B(corpus)
        readers = [
            lambda: brute_force_sat(f),
            lambda: nd_solve(f),
            lambda: solve_with_B(f, adversarial, clamped_budget(6)),
            lambda: build_A(corpus),
            lambda: build_C(corpus),
            lambda: build_C_bar(corpus),
            lambda: build_F(corpus),
            lambda: kappa_ids(corpus),
        ]
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        for read in readers:
            with pytest.raises(CapacityError):
                read()

    def test_set_sum_cap(self, monkeypatch):
        p = SetSumProblem(1, SetSumInstance(tuple(range(8)), 28))
        monkeypatch.setenv("RELATIVIZE_CAP", "7")
        with pytest.raises(CapacityError):
            brute_force_sat(p)

    def test_every_input_code_scan_checks_the_cap(self, monkeypatch):
        f = Formula(1, default_literals(6), (((0, True), (0, False)),))
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        with pytest.raises(CapacityError):
            solve_with_C(f, frozenset())
        with pytest.raises(CapacityError):
            solve_with_C(f, frozenset(), max_queries=1)
        with pytest.raises(CapacityError):
            build_C_bar(Corpus((f,), {1: clamped_budget(6)}))
        # D's even stage scans the k=6 problem after reading only its k=3
        # half-length problem's table, so it checks the cap on its own
        half = Formula(1, default_literals(3), (((0, True),), ((0, False),)))
        even = Formula(2, default_literals(6), (((0, True),),))
        corpus = Corpus((half, even), {1: clamped_budget(3), 2: clamped_budget(6)})
        monkeypatch.setenv("RELATIVIZE_CAP", "6")
        build_D(corpus)
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        with pytest.raises(CapacityError):
            build_D(corpus)


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
        probe = input_code(p.id, assignment(min(budget.steps(p.k), (1 << p.k) - 1), p.k))
        yes = OracleSet("B", {**oracle.provenance, probe: (p.id, "probe")},
                        corpus.ids(), corpus.digest())
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

    @given(corpora(budget=budgets))
    @settings(max_examples=80, deadline=None)
    def test_build_B(self, corpus):
        got, want = build_B(corpus), ref_build_B(corpus)
        assert got == want
        assert list(got.provenance.items()) == list(want.provenance.items())

    # small k, so stage 1 (k = 2) and stage 2 (k >= 3) both fire; the example
    # misses stage 1's budget gate by one, p(t(1)) = 2^t(1) - 1
    @given(corpora(budget=budgets, ks=st.integers(1, 5)))
    @example(Corpus((craft_unsat(1, 2),), {1: Budget(1, 0)}))
    @settings(max_examples=80, deadline=None)
    def test_build_E(self, corpus):
        got, want = build_E(corpus, build_A(corpus)), ref_build_E(corpus, ref_build_A(corpus))
        assert got == want
        assert list(got.provenance.items()) == list(want.provenance.items())

    def test_build_E_crafted_injects(self):
        corpus = craft_e_corpus()
        got, want = build_E(corpus, build_A(corpus)), ref_build_E(corpus, ref_build_A(corpus))
        assert got == want
        assert list(got.provenance.items()) == list(want.provenance.items())
        assert any(note.startswith("step 7") for _, note in got.provenance.values())

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
        assert input_code_at(i, e, k) == input_code(i, assignment(e, k))
        assert input_code(i, assignment(e, k), n) == pair(i, pair((1 << k) | e, n))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_lazy_codes_in_canonical_order(self, k):
        codes = [input_code(7, assignment(e, k)) for e in range(1 << k)]
        assert list(input_codes(7, k)) == codes
        assert list(input_codes(7, k, stop=3)) == codes[:3]
        assert list(input_codes(7, k, stop=0)) == []

    @given(problems(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve_with_C(self, p, data):
        # an oracle holding a few of the problem's codes, so scans stop anywhere
        hits = data.draw(st.lists(st.integers(0, (1 << p.k) - 1), max_size=3))
        oracle = frozenset(input_code(p.id, assignment(e, p.k)) for e in hits)
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

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=12), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_the_subset_walk_gives_the_direct_verdict(self, values, miss):
        inst = SetSumInstance(tuple(values), sum(values) + miss)
        assert ref_set_sum_naive(inst) == (set_sum_direct(inst), 1 << inst.r)

    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_godel_number_is_the_canonical_key_as_a_natural(self, p):
        fresh = int.from_bytes(p.canonical_key().encode("utf-8"), "big")
        assert godel_number(p) == fresh
        assert godel_number(p) == fresh
        twin = dataclasses.replace(p)  # a fresh instance, nothing cached on it
        assert twin == p and godel_number(twin) == fresh


# ---------------------------------------------------------------- scan transcripts


@st.composite
def scans(draw):
    """A problem; an oracle, a frozenset or a live dict like D's staged one,
    holding the code at a hit index (the first, the middle, the last, any, or
    none) and maybe a later one; and a query cap (none, or up to past 2^k)."""
    p = draw(problems())
    total = 1 << p.k
    hit = draw(st.sampled_from((0, total // 2, total - 1, None)) | st.integers(0, total - 1))
    members = set() if hit is None else {input_code_at(p.id, hit, p.k)}
    if hit is not None and draw(st.booleans()):
        members.add(input_code_at(p.id, draw(st.integers(hit, total - 1)), p.k))
    oracle = draw(st.sampled_from((frozenset(members), dict.fromkeys(members, (p.id, "note")))))
    cap = draw(st.none() | st.integers(0, total + 2) | st.sampled_from((hit or 0, (hit or 0) + 1)))
    return p, oracle, cap


def assert_reads_as_reference(got, want):
    """`got`, a run with a lazy scan transcript, equals and hashes as the
    reference run `want` either way round, and its transcript reads as
    `want`'s tuple: len, iteration, and inequality to any other tuple."""
    assert got == want and want == got and hash(got) == hash(want)
    t, ref = got.transcript, want.transcript
    assert isinstance(t, ScanTranscript) and type(ref) is tuple
    assert t == ref and ref == t and not t != ref and not ref != t
    assert len(t) == len(ref) and list(t) == list(ref) and hash(t) == hash(ref)
    if ref:
        flipped = ref[:-1] + ((ref[-1][0], not ref[-1][1]),)
        assert t != flipped and flipped != t and not t == flipped
        assert t != ref[:-1] and ref[:-1] != t
    assert t != list(ref) and list(ref) != t  # a tuple never equals a list


class TestScanTranscript:
    @given(scans())
    @settings(max_examples=120, deadline=None)
    def test_reads_as_the_reference_tuple(self, scan):
        p, oracle, cap = scan
        truth = bool(accepting(p))
        got = solve_with_C(p, oracle, ground_truth=truth, max_queries=cap)
        want = ref_solve_with_C(p, oracle, ground_truth=truth, max_queries=cap)
        assert_reads_as_reference(got, want)

    @given(corpora(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_scan_reads_as_the_reference_tuple(self, tmp_path_factory, corpus, data):
        # A, E and an F read back from its file, and a set of some of the
        # problem's own block codes, so a hit can sit at any block
        path = tmp_path_factory.mktemp("f") / "f.json"
        save_oracle(build_F(corpus), path)
        a = build_A(corpus)
        built = (a, build_E(corpus, a), tagged_view(load_oracle(path, corpus), 0))
        for p in corpus:
            truth = bool(accepting(p))
            blocks = data.draw(st.sets(st.integers(0, p.k), max_size=2))
            for oracle in (*built, frozenset(partition_code(p, t) for t in blocks)):
                cap = data.draw(st.none() | st.integers(-2, p.k + 3))
                got = solve_with_A(p, oracle, ground_truth=truth, max_queries=cap)
                want = ref_solve_with_A(p, oracle, ground_truth=truth, max_queries=cap)
                assert type(got.transcript) is BlockScan and got.transcript.problem is p
                assert_reads_as_reference(got, want)

    @pytest.mark.parametrize("where", ["first", "middle", "last", "none"])
    @pytest.mark.parametrize("live", [False, True])
    def test_hit_positions_and_capped_stages(self, where, live):
        f = craft_unsat(3, 4)
        hit = {"first": 0, "middle": 7, "last": 15, "none": None}[where]
        members = set() if hit is None else {input_code_at(3, hit, 4)}
        oracle = dict.fromkeys(members, (3, "note")) if live else frozenset(members)
        for cap in (None, 0, 1, 7, 8, 15, 16, 40):
            got = solve_with_C(f, oracle, max_queries=cap)
            want = ref_solve_with_C(f, frozenset(members), max_queries=cap)
            assert got == want and got.transcript == want.transcript
            assert got.accepted == (hit is not None and hit < (16 if cap is None else cap))
            assert got.steps == got.queries == len(want.transcript)

    def test_every_code_goes_through_the_oracles_in(self):
        asked = []

        class Recording:
            def __contains__(self, code):
                asked.append(code)
                return code == input_code_at(3, 9, 4)

        f = craft_unsat(3, 4)
        for cap in (None, 5):
            asked.clear()
            r = solve_with_C(f, Recording(), max_queries=cap)
            assert asked == [code for code, _ in r.transcript]
        assert r.queries == 5 and not r.accepted

    def test_scans_compare_and_hash_as_their_tuples(self):
        scans_ = [ScanTranscript(i, k, q, h)
                  for i in (1, 2) for k in (0, 1, 2) for q in range(min(3, 1 << k) + 1)
                  for h in ((False, True) if q else (False,))]
        for a, b in itertools.product(scans_, repeat=2):
            assert (a == b) == (tuple(a) == tuple(b)) and (a != b) == (tuple(a) != tuple(b))
        for a in scans_:
            assert hash(a) == hash(tuple(a))
        assert ScanTranscript(1, 2, 0, False) == () == ScanTranscript(2, 0, 0, False)

    @given(st.integers(0, 12), st.integers(0, 1 << 40))
    @example(12, 1 << 40)
    @example(0, 0)
    @settings(max_examples=40, deadline=None)
    def test_additive_codes_are_input_code_at(self, k, i):
        total = 1 << k
        for stop in (None, 0, 1, total // 2, total, total + 3):
            count = total if stop is None else min(stop, total)
            assert list(input_codes(i, k, stop)) == [input_code_at(i, e, k) for e in range(count)]

    def test_writer_streams_scans_byte_for_byte(self, tmp_path):
        f = craft_unsat(5, 3)
        results = []
        for hit in [*range(8), None]:
            members = frozenset() if hit is None else frozenset({input_code_at(5, hit, 3)})
            for kind in ("C", "D"):
                for cap in (None, 0, 3):
                    results.append(solve_with_C(f, SideView(kind, members), max_queries=cap))
            results.append(solve_conp_with_C_bar(f, SideView("C_bar", members)))
        for t in [*range(4), None]:
            blocks = frozenset() if t is None else frozenset({partition_code(f, t)})
            results.append(solve_with_A(f, SideView("E", blocks)))
        runner = SuiteRunner(ExperimentConfig(seed=3, k_range=(6, 7), formulas_per_k=2,
                                              out_dir=str(tmp_path)))
        runner.run()
        results += runner.results
        # a hand-made run with a plain tuple of input codes takes the generic way
        scan = results[0]
        results.append(dataclasses.replace(scan, transcript=tuple(scan.transcript)))
        assert {r.oracle for r in results} >= {"C", "C_bar", "D", "D_bar", "E"}
        assert sum(isinstance(r.transcript, ScanTranscript) for r in results) > 9 * 6
        write_results_jsonl(results, tmp_path / "got.jsonl")
        ref_write_results_jsonl(results, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


# ---------------------------------------------------------------- member scans


@st.composite
def member_scans(draw, ks=None):
    """A problem; its members: up to three of its own input codes (a hit
    anywhere, or none) among foreign codes (other problems' input codes, its
    id at another k, its codes with padding n > 0, its block codes), and
    sometimes as many codes of another problem as the scan is long, so the
    set is no smaller than the scan; and a query cap: none, 0, 1, mid-scan,
    past 2^k, or the first hit itself, leaving every hit past the cap."""
    p = draw(problems(draw(st.integers(1, 30)), ks))
    k, total = p.k, 1 << p.k
    own = draw(st.lists(st.integers(0, total - 1), max_size=3))
    members = {input_code_at(p.id, e, k) for e in own}

    def codes_of(i, j, n=0):
        return st.integers(0, (1 << j) - 1).map(lambda e: pair(i, pair((1 << j) | e, n)))

    foreign = st.one_of(
        st.tuples(st.integers(0, 40).filter(lambda i: i != p.id), st.integers(0, 12)).flatmap(
            lambda ij: codes_of(*ij)),
        st.integers(0, 12).filter(lambda j: j != k).flatmap(lambda j: codes_of(p.id, j)),
        st.integers(1, 5).flatmap(lambda n: codes_of(p.id, k, n)),
        st.integers(0, k).map(lambda t: partition_code(p, t)),
    )
    members.update(draw(st.lists(foreign, max_size=8)))
    if draw(st.booleans()):
        members.update(input_codes(p.id + 1, k))
    cap = draw(st.sampled_from((None, 0, 1, total // 2, total + 3))
               | st.integers(0, total + 2) | st.just(min(own, default=None)))
    return p, members, cap


class TestMemberScan:
    @given(member_scans(), st.sampled_from(("set", "live", "two-sided")))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_code_by_code_reference(self, scan, container):
        p, members, cap = scan
        notes = dict.fromkeys(members, (p.id, "note"))
        oracle = {
            "set": OracleSet("C", notes, frozenset({p.id}), ""),
            "live": notes,  # as D's staged scan passes its map so far
            "two-sided": OracleSet("F", TaggedUnion(notes, {}), frozenset({p.id}), ""),
        }[container]
        truth = bool(accepting(p))
        got = solve_with_C(p, oracle, ground_truth=truth, max_queries=cap)
        want = ref_solve_with_C(p, oracle, ground_truth=truth, max_queries=cap)
        assert got == want and got.transcript == want.transcript
        label = getattr(oracle, "kind", "oracle")
        probed = solve_with_C(p, SideView(label, oracle), ground_truth=truth, max_queries=cap)
        assert got == probed

    @given(member_scans(st.integers(1, 6)))
    @example((craft_unsat(1, 3), {input_code_at(1, 5, 3), input_code_at(1, 2, 3),
                                  input_code_at(1, 0, 2), input_code_at(2, 1, 3)}, None))
    @settings(max_examples=60, deadline=None)
    def test_a_set_is_decoded_once_for_every_cap(self, scan):
        # one built set, every cap from -2 to 2^k + 2: each run reads the
        # index the first one made, so each member is decoded once in all
        p, members, _ = scan
        oracle = OracleSet("C", dict.fromkeys(members, (p.id, "note")), frozenset({p.id}), "")
        truth = bool(accepting(p))
        decoded = []
        with unittest.mock.patch.object(oracles, "input_index",
                                        lambda code: decoded.append(code) or input_index(code)):
            for cap in (None, *range(-2, (1 << p.k) + 3)):
                got = solve_with_C(p, oracle, ground_truth=truth, max_queries=cap)
                assert got == ref_solve_with_C(p, oracle, ground_truth=truth, max_queries=cap)
        assert sorted(decoded) == sorted(members)

    @pytest.mark.parametrize("container", ["set", "live", "two-sided"])
    def test_only_a_built_set_skips_the_probe(self, container, monkeypatch):
        def oracle(notes):
            return {"set": OracleSet("C", notes, frozenset({3}), ""), "live": notes,
                    "two-sided": OracleSet("F", TaggedUnion(notes, {}), frozenset({3}), "")
                    }[container]

        hit = {input_code_at(3, 9, 4): (3, "note")}
        small = oracle(hit)
        large = oracle({**hit, **dict.fromkeys(input_codes(4, 4), (4, "note"))})
        scanned, asked = [], []
        monkeypatch.setattr(machine, "input_codes",
                            lambda *args: scanned.append(args) or input_codes(*args))
        if container != "live":
            contains = type(small).__contains__
            monkeypatch.setattr(type(small), "__contains__",
                                lambda self, code: asked.append(code) or contains(self, code))
        f = craft_unsat(3, 4)
        for oracle in (small, large):
            r = solve_with_C(f, oracle)
            if container == "set":
                # a set's index is made once, so it is read however large the set
                assert scanned == asked == [] and r.queries == 10
            else:
                # a live map and F's TaggedUnion have no index, so each is
                # asked code by code, however small; F holds the tagged codes
                # pair(0, c), so nothing hits it
                assert scanned == [(3, 4, 16)] and r.queries == (10 if container == "live" else 16)
                assert asked == ([] if container == "live" else [code for code, _ in r.transcript])
            scanned.clear()
            asked.clear()


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


def fresh_canonical_key(p):
    if isinstance(p, SetSumProblem):
        return json.dumps(["setsum", list(p.instance.values), p.instance.target],
                          separators=(",", ":"))
    return ref_canonical_key(p)


def ref_digest(corpus):
    doc = [[f.id, fresh_canonical_key(f), corpus.budget_for(f.id).coefficient,
            corpus.budget_for(f.id).exponent] for f in corpus]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode("utf-8")).hexdigest()


# Small codes, codes just past 1,024 bits, codes past the interpreter's
# default 4,300-digit conversion guard, and block-code-sized ones, in plain
# tuples the writer prints through str; drawn with repeats across runs.
code_pool = st.one_of(
    st.integers(0, 1 << 64),
    st.integers(-3, 3).map(lambda d: (1 << 1024) + d),
    st.integers(1 << 4000, 1 << 20000),
    problems(ks=st.integers(1, 12)).map(lambda p: partition_code(p, p.k)),
)


LABELS = st.sampled_from(("A", "E", "F[np]", "F[co]", "C", "D", "ND")) | st.text(max_size=4)


@st.composite
def run_results(draw):
    """Up to 6 runs, each holding a plain tuple of codes from `code_pool`, an
    input-code scan or a block scan, and maybe two more block scans: one
    scanned again as far with the other answer, and another problem scanned
    as far with the same answer. The block scans are over problems that all
    have id 1 and a `dataclasses.replace` twin of the first. Work counts
    include 0 and 1, ground truths None."""
    pool = draw(st.lists(code_pool, min_size=1, max_size=6))
    first = draw(problems(ks=st.integers(1, 12)))
    scanned = [first, dataclasses.replace(first),
               *draw(st.lists(problems(ks=st.integers(1, 12)), max_size=2))]

    def plain():
        return tuple((draw(st.sampled_from(pool)), draw(st.booleans()))
                     for _ in range(draw(st.integers(0, 8))))

    def input_scan():
        k = draw(st.integers(1, 13))
        queries = draw(st.integers(0, 3) | st.integers(0, 1 << k))
        return ScanTranscript(draw(st.integers(1, 5)), k, queries,
                              queries > 0 and draw(st.booleans()))

    def block_scan():
        p = draw(st.sampled_from(scanned))
        queries = draw(st.integers(0, p.k + 1))
        return BlockScan(p, queries, queries > 0 and draw(st.booleans()))

    transcripts = [draw(st.sampled_from((plain, input_scan, block_scan)))()
                   for _ in range(draw(st.integers(0, 6)))]
    asked = [t for t in transcripts if isinstance(t, BlockScan) and t.queries]
    if asked and draw(st.booleans()):
        t = draw(st.sampled_from(asked))
        transcripts.append(BlockScan(t.problem, t.queries, not t.hit))
        others = [p for p in scanned if p.k >= t.queries - 1
                  and godel_number(p) != godel_number(t.problem)]
        if others:
            transcripts.append(BlockScan(draw(st.sampled_from(others)), t.queries, t.hit))
    out = []
    for fid, transcript in enumerate(draw(st.permutations(transcripts)), 1):
        scan = isinstance(transcript, ScanTranscript)
        truth = draw(st.sampled_from((None, True, False)))
        accepted = draw(st.booleans())
        out.append(RunResult(
            oracle=draw(LABELS), formula_id=transcript.problem_id if scan else fid,
            k=transcript.k if scan else 3, accepted=accepted, steps=len(transcript),
            queries=len(transcript), transcript=transcript, ground_truth=truth,
            correct=None if truth is None else accepted == truth,
            simulated_work=draw(st.sampled_from((None, 0, 1)) | st.integers(0, 1 << 20))))
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
            code = partition_code(p, t)
            assert type(code) is int and code == pair(t, g) and unpair(code) == (t, g)
        assert vars(p)["_block_codes"] == tuple(pair(t, g) for t in range(p.k + 1))

    @given(problems(ks=st.integers(1, 12)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_twin_computes_its_own_block_codes(self, p, data):
        t = data.draw(st.integers(0, p.k))
        code = partition_code(p, t)
        twin = dataclasses.replace(p)  # a fresh instance, nothing cached on it
        assert "_block_codes" not in vars(twin)
        assert partition_code(twin, t) == code
        assert vars(twin)["_block_codes"] == vars(p)["_block_codes"]
        assert vars(twin)["_block_codes"] is not vars(p)["_block_codes"]

    @given(problems(ks=st.integers(1, 12)))
    @settings(max_examples=80, deadline=None)
    def test_block_codes_are_one_tuple_made_once(self, p):
        fresh = dataclasses.replace(p)  # nothing cached on it
        with unittest.mock.patch.object(encoding, "godel_number",
                                        wraps=encoding.godel_number) as g:
            codes = block_codes(fresh)
            assert codes == tuple(partition_code(fresh, t) for t in range(fresh.k + 1))
            assert block_codes(fresh) is codes is vars(fresh)["_block_codes"]
            solve_with_A(fresh, frozenset())
            assert list(BlockScan(fresh, fresh.k + 1, False)) == [(c, False) for c in codes]
            build_A(Corpus((fresh,), {fresh.id: clamped_budget(fresh.k)}))
        assert g.call_count == 1
        for t in (-1, fresh.k + 1):
            with pytest.raises(ValueError, match="out of range"):
                partition_code(fresh, t)

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
        cached = dict(vars(p))
        with code_digit_limit():
            want = [str(pair(t, g)) for t in range(p.k + 1)]
            assert [list(block_code_texts(p, stop)) for stop in range(p.k + 2)] == [
                want[:stop] for stop in range(p.k + 2)]
            assert list(BlockScan(p, p.k + 1, False).texts()) == want
        assert sys.get_int_max_str_digits() == limit
        # the one thing added to the instance: a plain list of the texts
        added = {key: v for key, v in vars(p).items() if key not in cached}
        assert list(added) == ["_block_texts"]
        assert type(added["_block_texts"]) is list and added["_block_texts"] == want

    @given(block_coded_problems, st.data())
    @settings(max_examples=80, deadline=None)
    def test_block_code_text_row_grows_only_as_far_as_asked(self, p, data):
        k = p.k
        stops = data.draw(st.just([2, 1, k + 1, 0])
                          | st.lists(st.integers(0, k + 1), min_size=1, max_size=5))
        g = godel_number(p)
        with code_digit_limit():
            want = [str(pair(t, g)) for t in range(k + 1)]
        made = 0
        for stop in stops:
            kept = vars(p).get("_block_texts")
            assert block_code_texts(p, stop) == want[:stop]
            # a longer scan remakes the list to its own length; any other
            # reads the list it finds
            made = max(made, stop)
            texts = vars(p)["_block_texts"]
            assert type(texts) is list and texts == want[:made]
            assert (texts is kept) == (kept is not None and stop <= len(kept))
        twin = dataclasses.replace(p)  # a fresh instance, no list on it
        assert "_block_texts" not in vars(twin)
        assert block_code_texts(twin, 1) == want[:1]
        assert vars(twin)["_block_texts"] == want[:1]
        assert vars(twin)["_block_texts"] is not vars(p)["_block_texts"]

    def test_block_code_text_traps_a_precision_shortfall(self, monkeypatch):
        f = Formula(1, default_literals(6), (((0, True), (3, False)), ((5, True),)))
        code = partition_code(f, 1)
        assert list(block_code_texts(f, 2))[1] == str(code)
        fresh = dataclasses.replace(f)  # no texts cached on it
        monkeypatch.setattr(decimal, "MAX_PREC", 20)  # far fewer digits than g has
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            list(block_code_texts(fresh, 2))

    def test_stepped_texts_of_a_wide_problem_are_str_of_the_pairing(self):
        # g past 14,300 bits: more than the interpreter's default 4,300-digit
        # conversion guard allows for its square, pair(t, g)
        k = 20
        clauses = tuple(((j % k, j % 2 == 0), ((j + 7) % k, j % 3 == 0), ((j + 13) % k, True))
                        for j in range(400))
        f = Formula(1, default_literals(k), clauses)
        g = godel_number(f)
        assert g.bit_length() > 14_300
        with code_digit_limit():
            want = [str(pair(t, g)) for t in range(k + 1)]
            assert list(block_code_texts(f, k + 1)) == want
            assert list(block_code_texts(dataclasses.replace(f), k + 1)) == want

    def test_write_results_jsonl_prints_block_codes_from_problems(self, tmp_path):
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
        assert max(code for r in results for code, _ in r.transcript).bit_length() > 14_300
        # F[np]'s scans are A's, over the same problem instances
        assert [(id(r.transcript.problem), r.transcript.queries, r.transcript.hit)
                for r in results if r.oracle == "F[np]"] == [
            (id(r.transcript.problem), r.transcript.queries, r.transcript.hit)
            for r in results if r.oracle == "A"]
        ref_write_results_jsonl(results, tmp_path / "want.jsonl")
        want = (tmp_path / "want.jsonl").read_bytes()

        limit = sys.get_int_max_str_digits()
        write_results_jsonl(results, tmp_path / "got.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == want
        assert sys.get_int_max_str_digits() == limit
        # each problem instance's list holds each text once, as far as its
        # longest scan asked (the twin's list is its own)
        longest = {}
        for r in results:
            if isinstance(r.transcript, BlockScan):
                p, n = longest.get(id(r.transcript.problem), (r.transcript.problem, 0))
                longest[id(p)] = p, max(n, r.queries)
        assert id(first) in longest and id(twin) in longest
        rows = [vars(p)["_block_texts"] for p, _ in longest.values()]
        with code_digit_limit():
            assert rows == [[str(pair(t, godel_number(p))) for t in range(n)]
                            for p, n in longest.values()]
        # a second call appends no text and writes the same bytes
        kept = [list(row) for row in rows]
        write_results_jsonl(results, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == want
        again = [vars(p)["_block_texts"] for p, _ in longest.values()]
        assert again == kept and all(row is was for row, was in zip(again, rows))

    def test_suite_block_runs_hold_their_problems(self, tmp_path):
        runner = SuiteRunner(ExperimentConfig(seed=3, k_range=(6, 7), formulas_per_k=2,
                                              oracle_kinds=("A", "E", "F"),
                                              out_dir=str(tmp_path)))
        runner.run()
        assert {r.oracle for r in runner.results} == {"ND", "A", "E", "F[np]", "F[co]"}
        for r in runner.results:
            t = r.transcript
            if r.oracle in ("A", "E", "F[np]"):
                assert type(t) is BlockScan and (t.problem.id, t.problem.k) == (r.formula_id, r.k)
            else:
                assert type(t) is tuple

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

    @given(set_sum_problems())
    @settings(max_examples=100, deadline=None)
    def test_set_sum_canonical_key_is_cached_per_instance(self, p):
        key = fresh_canonical_key(p)
        assert p.canonical_key() == key
        assert p.canonical_key() is p.canonical_key()
        twin = dataclasses.replace(p)
        assert "_canonical_key" not in vars(twin) and twin.canonical_key() == key

    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_corpus_digest_unchanged(self, corpus):
        assert corpus.digest() == ref_digest(corpus)
        assert corpus.digest() == ref_digest(corpus)
        assert corpus.digest() is corpus.digest()

    def test_corpus_digest_survives_a_file_round_trip(self, tmp_path):
        corpus = gen_corpus(ExperimentConfig(seed=3, k_range=(6, 8), formulas_per_k=2))
        digest = corpus.digest()
        save_corpus(corpus, tmp_path / "corpus.json")
        loaded = load_corpus(tmp_path / "corpus.json")
        assert "_digest" not in vars(loaded)
        assert loaded.digest() == loaded.digest() == digest == ref_digest(loaded)

    def test_budgets_are_frozen_at_construction(self):
        formulas = (craft_unsat(1, 3), craft_all_true(2, 4))
        budgets = {1: Budget(1, 1), 2: Budget(2, 0)}
        corpus = Corpus(formulas, budgets)
        digest = corpus.digest()
        with pytest.raises(TypeError):
            corpus.budgets[1] = Budget(3, 3)
        budgets[1] = Budget(3, 3)
        del budgets[2]
        assert corpus.budgets == {1: Budget(1, 1), 2: Budget(2, 0)}
        assert {**corpus.budgets} == corpus.budgets
        assert corpus.digest() == digest == ref_digest(Corpus(formulas, corpus.budgets))
        assert ref_digest(Corpus(formulas, {1: Budget(3, 3), 2: Budget(2, 0)})) != digest

    def test_each_corpus_is_hashed_once(self, tmp_path, monkeypatch):
        blobs = []

        def sha256(blob):
            blobs.append(blob)
            return hashlib.sha256(blob)

        monkeypatch.setattr(oracles, "hashlib", types.SimpleNamespace(sha256=sha256))
        instances = gen_instances(seed=7, count=6, r_min=3, r_max=6)
        lambda_report(instances)
        # the battery's problem corpus, then D's crafted one: five sets are
        # built over the first and two over the second
        assert len(blobs) == len(set(blobs)) == 2
        assert hashlib.sha256(blobs[0]).hexdigest() == ref_digest(_problem_corpus(instances))
        blobs.clear()
        config = ExperimentConfig(seed=3, k_range=(6, 7), formulas_per_k=2,
                                  out_dir=str(tmp_path))
        assert run_suite(config) == 0
        # the seeded corpus, D's crafted one and E's
        assert len(blobs) == len(set(blobs)) == 3
        assert {hashlib.sha256(blob).hexdigest() for blob in blobs} == {
            ref_digest(gen_corpus(config)), ref_digest(craft_d_corpus()),
            ref_digest(craft_e_corpus())}

    def test_built_sets_are_read_only(self, tmp_path):
        corpus = gen_corpus(ExperimentConfig(seed=3, k_range=(6, 7), formulas_per_k=2))
        save_oracle(build_C(corpus), tmp_path / "c.json")
        sets = [build(corpus) for build in (build_A, build_B, build_C)]
        sets += [*build_D(craft_d_corpus()), build_E(craft_e_corpus(), build_A(craft_e_corpus())),
                 load_oracle(tmp_path / "c.json", corpus)]
        for oracle in sets:
            code, note = next(iter(oracle.provenance.items()))
            with pytest.raises(TypeError):
                oracle.provenance[0] = note
            with pytest.raises(TypeError):
                del oracle.provenance[0]
            # a code past sys.maxsize is first tried as a sequence index
            with pytest.raises((TypeError, IndexError)):
                del oracle.provenance[code]
            assert code in oracle and 0 not in oracle
        # a dict handed in is copied, as a corpus's budgets are
        notes = {1: (1, "note")}
        oracle = OracleSet("C", notes, frozenset({1}), "")
        notes[2] = (1, "late")
        del notes[1]
        assert dict(oracle.provenance) == {1: (1, "note")}

    def test_built_rules_are_read_only(self):
        corpus = gen_corpus(ExperimentConfig(seed=3, k_range=(6, 7), formulas_per_k=2))
        f, c_bar = build_F(corpus), build_C_bar(corpus)
        sizes = len(f), len(c_bar)
        assert sizes == (46, 192)
        for side in (*f.provenance.sides, tagged_view(f, 0).members, tagged_view(f, 1).members):
            with pytest.raises(TypeError):
                side[12345] = (1, "x")
        with pytest.raises(TypeError):
            c_bar.provenance.rejected[99] = 3
        assert (len(f), len(c_bar)) == sizes and pair(0, 12345) not in f
        # the dicts handed in are copied, as an OracleSet's provenance is
        np, co, rejected = {1: (1, "np")}, {2: (2, "co")}, {3: 2}
        union, rule = TaggedUnion(np, co), RejectedInputs(rejected)
        np[4], co[5], rejected[6] = (1, "late"), (2, "late"), 1
        del np[1], co[2], rejected[3]
        assert dict(union.items()) == {pair(0, 1): (1, "np"), pair(1, 2): (2, "co")}
        assert dict(rule.items()) == {code: (3, RejectedInputs.NOTE)
                                      for code in input_codes(3, 2)}

    @given(corpora())
    @settings(max_examples=40, deadline=None)
    def test_a_is_built_once_per_corpus(self, corpus):
        a = build_A(corpus)
        assert list(a.provenance.items()) == list(ref_build_A(corpus).provenance.items())
        with unittest.mock.patch.object(oracles, "block_masks",
                                        side_effect=AssertionError("A built again")):
            assert build_A(corpus) is a
            f = build_F(corpus)
        assert f.provenance.sides[0].keys() == a.members

    def test_a_replaced_set_gets_its_own_index(self):
        unsat = craft_unsat(1, 3)
        corpus = Corpus((unsat, craft_all_true(2, 4)), {1: Budget(1, 1), 2: Budget(1, 1)})
        c = build_C(corpus)
        assert solve_with_C(unsat, c).queries == 8
        planted = dataclasses.replace(
            c, provenance={**c.provenance, input_code_at(1, 5, 3): (1, "planted")})
        assert solve_with_C(unsat, planted).queries == 6
        assert solve_with_C(unsat, c).queries == 8


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
            probes.update(partition_code(p, t) for t in range(p.k + 1))
            probes.add(input_code(p.id, assignment(0, p.k)))
            if p.k <= 8:
                probes.update(input_code(p.id, assignment(e, p.k)) for e in range(1 << p.k))
        for tag in (0, 1):
            view = tagged_view(built, tag)
            want = SideView(("F[np]", "F[co]")[tag], ref.members, ref.corpus_ids, tag)
            assert (view.kind, view.corpus_ids) == (want.kind, want.corpus_ids)
            assert {c for c in probes if c in view} == {c for c in probes if c in want}

    @given(corpora(), d_corpora())
    @settings(max_examples=60, deadline=None)
    def test_side_solvers_match_the_per_query_loops(self, tmp_path_factory, corpus, d_corpus):
        # each set the block solver or the complement solver queries, F's
        # views over a built F and over the same F read back from its file
        # included, run against the per-query loop on the reference set
        f = build_F(corpus)
        path = tmp_path_factory.mktemp("f") / "f.json"
        save_oracle(f, path)
        loaded, ref_f = load_oracle(path, corpus), ref_build_F(corpus)
        e, ref_e = build_E(corpus, build_A(corpus)), ref_build_E(corpus, ref_build_A(corpus))
        ref_np, ref_co = (SideView(("F[np]", "F[co]")[tag], ref_f.provenance, ref_f.corpus_ids,
                                   tag) for tag in (0, 1))
        block_pairs = [(build_A(corpus), ref_build_A(corpus)), (e, ref_e),
                       (tagged_view(f, 0), ref_np), (tagged_view(loaded, 0), ref_np)]
        co_pairs = [(build_C_bar(corpus), ref_build_C_bar(corpus)),
                    (tagged_view(f, 1), ref_co), (tagged_view(loaded, 1), ref_co)]
        for p in corpus:
            truth = bool(accepting(p))
            for got, want in block_pairs:
                assert solve_with_A(p, got, ground_truth=truth) == ref_solve_with_A(
                    p, want, ground_truth=truth)
            for got, want in co_pairs:
                assert solve_conp_with_C_bar(p, got, ground_truth=not truth) == (
                    ref_solve_conp_with_C_bar(p, want, ground_truth=not truth))
            # F's claim: both sides answer correctly
            assert ref_solve_with_A(p, ref_np, ground_truth=truth).correct
            assert ref_solve_conp_with_C_bar(p, ref_co, ground_truth=not truth).correct
        d_bar, ref_d_bar = build_D(d_corpus)[1], ref_build_D(d_corpus)[1]
        for p in d_corpus:
            truth = not accepting(p)
            assert solve_conp_with_C_bar(p, d_bar, ground_truth=truth) == (
                ref_solve_conp_with_C_bar(p, ref_d_bar, ground_truth=truth))

    def test_queries_compute_no_tagged_code(self, paired):
        runner = SuiteRunner(ExperimentConfig(seed=11, k_range=(6, 8), formulas_per_k=2,
                                              oracle_kinds=("F",)))
        oracle = build_F(runner.corpus)
        views = (tagged_view(oracle, 0), tagged_view(oracle, 1))
        hits = [code in view for view in views for p in runner.corpus
                for code in (*(partition_code(p, t) for t in range(p.k + 1)),
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


# ---------------------------------------------------------------- C_bar's rule


class TestRejectedInputs:
    @staticmethod
    def corpus():
        """Rejected problems at k 1, 3, 5 and 6 around satisfiable ones."""
        problems = [craft_unsat(1, 3), craft_all_true(2, 3), craft_unsat(3, 5),
                    craft_unsat(4, 1), craft_all_true(5, 4), craft_unsat(6, 6)]
        return Corpus(tuple(problems), {p.id: clamped_budget(p.k) for p in problems})

    def test_answers_as_the_reference_dict(self):
        corpus = self.corpus()
        rule, ref = build_C_bar(corpus).provenance, ref_build_C_bar(corpus).provenance
        assert isinstance(rule, RejectedInputs) and len(rule) == len(ref) == 8 + 32 + 2 + 64
        candidates = {x + d for x in ref for d in (-1, 0, 1)}
        for p in corpus:
            for k in (p.k - 1, p.k, p.k + 1):
                for e in range(1 << k):
                    a = assignment(e, k)
                    candidates.add(input_code(p.id, a))
                    candidates.add(input_code(p.id, a, 1))
                    for i in (0, len(corpus) + 1):
                        candidates.add(input_code(i, a))
        candidates |= {-1, "5", 5.0}
        assert sum(x in ref for x in candidates) == len(ref) < len(candidates) // 4
        for x in candidates:
            assert (x in rule) == (x in ref)
            assert rule.get(x) == ref.get(x)

    def test_walks_and_saves_without_a_lookup(self, tmp_path, monkeypatch):
        corpus = self.corpus()
        built, ref = build_C_bar(corpus), ref_build_C_bar(corpus)
        plain = OracleSet("C_bar", dict(built.provenance.items()), built.corpus_ids,
                          built.corpus_hash)

        def no_lookup(self, code):
            raise AssertionError(f"looked up {code}")

        monkeypatch.setattr(RejectedInputs, "__getitem__", no_lookup)
        assert list(built.provenance.items()) == list(ref.provenance.items())
        assert list(built.provenance) == list(ref.provenance)
        save_oracle(built, tmp_path / "rule.json")
        monkeypatch.undo()
        save_oracle(plain, tmp_path / "plain.json")
        assert (tmp_path / "rule.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert built == plain == ref == load_oracle(tmp_path / "rule.json", corpus)
