"""Differential tests: every truth-table read against a per-assignment reference.

The references below walk the 2^k assignments one by one through `accepts`
(which is `evaluate` for formulas), building each assignment here rather than
taking it from the package, and reproduce the loop versions of the
constructions and solvers field for field, provenance text and insertion
order included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relativize import (
    Budget,
    CapacityError,
    Corpus,
    Formula,
    SatVerdict,
    SetSumInstance,
    SetSumProblem,
    assignment_index,
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_F,
    clamped_budget,
    default_literals,
    evaluate,
    input_code,
    kappa_ids,
    nd_solve,
    negate,
    pair,
    partition,
    partition_code,
    solve_with_B,
    truth_table,
)
from relativize.formula import block_masks, literal_masks
from relativize.machine import RunResult, search_limit
from relativize.oracles import OracleSet

# ---------------------------------------------------------------- references


def assignment(e, k):
    return tuple(bool((e >> j) & 1) for j in range(k))


def accepting(p):
    """Indices of accepting assignments in canonical order, by `accepts`."""
    return [e for e in range(1 << p.k) if p.accepts(assignment(e, p.k))]


def ref_brute_force(p):
    hits = accepting(p)
    witness = assignment(hits[0], p.k) if hits else None
    return SatVerdict(bool(hits), witness, len(hits), 1 << p.k)


def ref_finish(kind, members, prov, corpus):
    return OracleSet(kind, frozenset(members), dict(prov), corpus.ids(), corpus.digest())


def ref_build_A(corpus):
    members, prov = set(), {}
    for f in corpus:
        for e in accepting(f):
            pc = partition_code(f, sum(assignment(e, f.k)))
            if pc.code not in members:
                members.add(pc.code)
                prov[pc.code] = (
                    f.id, f"step 3: block t={pc.true_count} first accepted at assignment {e}")
    return ref_finish("A", members, prov, corpus)


def ref_build_C(corpus):
    members, prov = set(), {}
    for f in corpus:
        hits = accepting(f)
        if hits:
            code = input_code(f.id, assignment(hits[0], f.k)).code
            members.add(code)
            prov[code] = (f.id, f"step 2: first accepting assignment (index {hits[0]})")
    return ref_finish("C", members, prov, corpus)


def ref_build_C_bar(corpus):
    members, prov = set(), {}
    for f in corpus:
        if not accepting(f):
            for e in range(1 << f.k):
                code = input_code(f.id, assignment(e, f.k)).code
                members.add(code)
                prov[code] = (f.id, "step 2: all input codes of a rejected problem")
    return ref_finish("C_bar", members, prov, corpus)


def ref_build_F(corpus):
    direct = ref_build_A(corpus)
    members = {pair(0, code) for code in direct.members}
    prov = {pair(0, code): (fid, f"np side, {note}")
            for code, (fid, note) in direct.provenance.items()}
    for f in corpus:
        if not accepting(f):
            code = pair(1, input_code(f.id, assignment(0, f.k)).code)
            members.add(code)
            prov[code] = (f.id, "co side: sentinel for a problem with no accepting assignment")
    return ref_finish("F", members, prov, corpus)


def ref_kappa_ids(corpus):
    rows = {f.id: (f.k, tuple(f.accepts(assignment(e, f.k)) for e in range(1 << f.k)))
            for f in corpus}
    present = set(rows.values())
    return frozenset(
        fid for fid, (k, row) in rows.items() if (k, tuple(not v for v in row)) in present
    )


def ref_nd_solve(p, ground_truth=None):
    examined, found = 0, False
    for e in range(1 << p.k):
        examined += 1
        if p.accepts(assignment(e, p.k)):
            found = True
            break
    correct = None if ground_truth is None else found == ground_truth
    return RunResult("ND", p.id, p.k, found, 1, 0, (), ground_truth, correct, examined)


def ref_solve_with_B(p, oracle, budget, ground_truth=None):
    limit = search_limit(budget, p.k)

    def result(accepted, steps, transcript):
        correct = None if ground_truth is None else accepted == ground_truth
        return RunResult(oracle.kind, p.id, p.k, accepted, steps, len(transcript),
                         tuple(transcript), ground_truth, correct)

    for e in range(limit):
        if p.accepts(assignment(e, p.k)):
            return result(True, e + 1, [])
    if limit >= 1 << p.k:
        return result(False, limit, [])
    code = input_code(p.id, assignment(limit, p.k)).code
    answer = code in oracle
    return result(answer, limit, [(code, answer)])


# ---------------------------------------------------------------- strategies


def formulas(fid=1, k_max=10):
    """Formulas with k 1..k_max, up to 6 clauses of width up to 3; some carry a
    contradiction so unsatisfiable ones are common at every k."""
    def build(k):
        literal = st.tuples(st.integers(0, k - 1), st.booleans())
        clause = st.lists(literal, min_size=1, max_size=3, unique=True).map(tuple)
        clauses = st.lists(clause, min_size=0, max_size=6).map(tuple)
        contradiction = (((0, True),), ((0, False),))
        return st.tuples(clauses, st.booleans()).map(
            lambda cb: Formula(fid, default_literals(k), cb[0] + (contradiction if cb[1] else ())))
    return st.integers(1, k_max).flatmap(build)


def set_sum_problems(pid=1):
    values = st.lists(st.integers(-20, 20), min_size=1, max_size=10).map(tuple)
    return st.tuples(values, st.booleans()).map(
        lambda vh: SetSumProblem(pid, SetSumInstance(vh[0], sum(vh[0]) + (0 if vh[1] else 1))))


def problems(pid=1):
    return st.one_of(formulas(pid), set_sum_problems(pid))


budgets = st.builds(Budget, st.integers(0, 3), st.integers(0, 3))


@st.composite
def corpora(draw, max_size=4):
    size = draw(st.integers(0, max_size))
    members = tuple(draw(problems(pid)) for pid in range(1, size + 1))
    return Corpus(members, {p.id: clamped_budget(p.k) for p in members})


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
