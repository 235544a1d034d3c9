import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relativize import (
    CapacityError,
    DimensionError,
    Formula,
    assignment_from_index,
    brute_force_sat,
    default_literals,
    evaluate,
)

from reference import (
    assignment_index,
    conjoin,
    enumerate_assignments,
    negate,
    partition,
    ref_canonical_key,
    true_count,
)

ABC = ("a", "b", "c")


def F(fid, literals, clauses):
    return Formula(fid, literals, clauses)


def random_formula(rng, fid, k, n_clauses, width=2):
    clauses = []
    for _ in range(n_clauses):
        idxs = sorted(rng.sample(range(k), min(width, k)))
        clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
    return Formula(fid, default_literals(k), tuple(clauses))


def formulas():
    """Hypothesis strategy for small formulas (k <= 5, <= 4 clauses, width <= 3)."""
    def build(k):
        idx = st.integers(min_value=0, max_value=k - 1)
        pol = st.booleans()
        clause = st.lists(st.tuples(idx, pol), min_size=1, max_size=3,
                          unique_by=lambda pair: pair).map(tuple)
        clauses = st.lists(clause, min_size=1, max_size=4).map(tuple)
        return clauses.map(lambda cs: Formula(1, default_literals(k), cs))
    return st.integers(min_value=1, max_value=5).flatmap(build)


@st.composite
def named_formulas(draw):
    """Formulas with any distinct literal names and clauses in any order,
    each clause's pairs in any order too."""
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True))
    pair = st.tuples(st.integers(0, len(names) - 1), st.booleans())
    clauses = draw(st.lists(st.lists(pair, min_size=1, max_size=4, unique=True), max_size=6))
    return Formula(1, names, clauses)


class TestCanonicalKey:
    @given(named_formulas())
    @settings(max_examples=200, deadline=None)
    def test_is_the_sorted_tuple_key(self, f):
        assert f.canonical_key() == ref_canonical_key(f)


class TestFormulaValidation:
    def test_needs_a_literal(self):
        with pytest.raises(ValueError):
            Formula(1, (), ())

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            Formula(1, ("a",), (((1, True),),))

    def test_rejects_duplicate_pair_in_clause(self):
        with pytest.raises(ValueError):
            Formula(1, ABC, (((0, True), (0, True)),))

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            Formula(1, ABC, ((),))

    def test_empty_clause_list_is_trivially_true(self):
        top = Formula(1, ("a",), ())
        assert evaluate(top, (False,)) and evaluate(top, (True,))


class TestEvaluate:
    def test_all_false_on_positive_clause(self):
        f = F(1, ABC, (((0, True), (1, True), (2, True)),))
        assert evaluate(f, (False, False, False)) is False

    def test_negated_first_literal(self):
        f = F(1, ABC, (((0, False), (1, True), (2, True)),))
        assert evaluate(f, (True, False, False)) is False

    def test_two_clause_mix(self):
        f = F(1, ("a", "b"), (((0, True), (1, True)), ((0, False), (1, False))))
        assert evaluate(f, (True, False)) is True

    def test_length_mismatch(self):
        f = F(1, ("a", "b"), (((0, True),),))
        with pytest.raises(DimensionError):
            evaluate(f, (True,))


class TestEnumeration:
    def test_k1(self):
        f = F(1, ("a",), (((0, True),),))
        assert list(enumerate_assignments(f)) == [(False,), (True,)]

    def test_k3_order(self):
        f = F(1, ABC, (((0, True),),))
        seq = list(enumerate_assignments(f))
        assert len(seq) == 8
        assert seq[0] == (False, False, False)
        assert seq[-1] == (True, True, True)
        # little-endian: assignment 1 flips literal 0
        assert seq[1] == (True, False, False)

    def test_k12_length(self):
        f = F(1, default_literals(12), (((0, True),),))
        assert sum(1 for _ in enumerate_assignments(f)) == 4096

    def test_cap(self, monkeypatch):
        f = F(1, default_literals(6), (((0, True),),))
        monkeypatch.setenv("RELATIVIZE_CAP", "5")
        with pytest.raises(CapacityError):
            list(enumerate_assignments(f))

    def test_two_calls_identical(self):
        f = F(1, default_literals(4), (((0, True),),))
        assert list(enumerate_assignments(f)) == list(enumerate_assignments(f))

    def test_index_round_trip(self):
        for e in range(16):
            assert assignment_index(assignment_from_index(e, 4)) == e


class TestTrueCountAndPartition:
    @pytest.mark.parametrize("a,expected", [
        ((False, False, False), 0),
        ((True, True, True), 3),
        ((True, False, True), 2),
    ])
    def test_true_count(self, a, expected):
        assert true_count(a) == expected

    def test_zero_block_is_singleton(self):
        f = F(1, ABC, (((0, True),),))
        assert partition(f, 0) == [(False, False, False)]

    def test_block_count_is_k_plus_one(self):
        f = F(1, ABC, (((0, True),),))
        blocks = [partition(f, t) for t in range(f.k + 1)]
        assert len(blocks) == 4

    def test_choose_4_2(self):
        f = F(1, default_literals(4), (((0, True),),))
        assert len(partition(f, 2)) == 6

    def test_out_of_range(self):
        f = F(1, ABC, (((0, True),),))
        with pytest.raises(ValueError):
            partition(f, 4)

    @given(formulas())
    @settings(max_examples=40)
    def test_blocks_partition_the_space(self, f):
        blocks = [partition(f, t) for t in range(f.k + 1)]
        assert sum(len(b) for b in blocks) == 2**f.k
        seen = set()
        for b in blocks:
            for a in b:
                assert a not in seen
                seen.add(a)


class TestBruteForce:
    def test_single_wide_clause(self):
        f = F(1, ABC, (((0, True), (1, True), (2, True)),))
        v = brute_force_sat(f)
        assert v.satisfiable and v.satisfying_count == 7
        assert v.assignments_examined == 8

    def test_contradiction(self):
        f = F(1, ("a",), (((0, True),), ((0, False),)))
        v = brute_force_sat(f)
        assert not v.satisfiable and v.witness is None and v.satisfying_count == 0

    def test_exclusive_pair(self):
        f = F(1, ("a", "b"), (((0, True), (1, True)), ((0, False), (1, False))))
        v = brute_force_sat(f)
        assert v.satisfiable and v.satisfying_count == 2
        # first witness in canonical order: index 1 = (T, F)
        assert v.witness == (True, False)


class TestNegate:
    def test_unit(self):
        f = F(1, ("a",), (((0, True),),))
        g = negate(f)
        assert g.clauses == (((0, False),),)
        assert g.literals == f.literals

    def test_de_morgan(self):
        f = F(1, ("a", "b"), (((0, True),), ((1, True),)))
        g = negate(f)
        for a in enumerate_assignments(f):
            assert evaluate(g, a) == (not evaluate(f, a))
        assert g.clauses == (((0, False), (1, False)),)

    def test_of_trivially_true(self):
        top = F(1, ("a", "b"), ())
        bottom = negate(top)
        assert not brute_force_sat(bottom).satisfiable

    def test_expansion_cap(self):
        wide = tuple((i, True) for i in range(10))
        f = F(1, default_literals(10), (wide,) * 6)  # 10^6 product
        with pytest.raises(CapacityError):
            negate(f, clause_cap=10**5)

    @given(formulas())
    @settings(max_examples=40)
    def test_duality_exhaustive(self, f):
        g = negate(f)
        for a in enumerate_assignments(f):
            assert evaluate(g, a) == (not evaluate(f, a))

    def test_duality_seeded_k10(self):
        rng = random.Random(7)
        for trial in range(10):
            f = random_formula(rng, trial, 10, n_clauses=4)
            g = negate(f)
            for a in enumerate_assignments(f):
                assert evaluate(g, a) == (not evaluate(f, a))


class TestConjoin:
    def test_contradiction_absorbs(self):
        bottom = F(1, ("a",), (((0, True),), ((0, False),)))
        g = F(2, ("a",), (((0, True),),))
        assert not brute_force_sat(conjoin(bottom, g)).satisfiable

    def test_two_units(self):
        f = F(1, ("a",), (((0, True),),))
        g = F(2, ("b",), (((0, True),),))
        h = conjoin(f, g)
        assert h.literals == ("a", "b")
        v = brute_force_sat(h)
        assert v.satisfying_count == 1 and v.witness == (True, True)

    @given(formulas())
    @settings(max_examples=30)
    def test_idempotent_satisfiability(self, f):
        assert brute_force_sat(conjoin(f, f)).satisfiable == brute_force_sat(f).satisfiable

    def test_unsat_absorption_seeded_corpus(self):
        rng = random.Random(13)
        bottom = F(99, default_literals(4), (((0, True),), ((0, False),)))
        for trial in range(25):
            g = random_formula(rng, trial, 4, n_clauses=3)
            assert not brute_force_sat(conjoin(bottom, g)).satisfiable

    def test_shared_literals_merge(self):
        f = F(1, ("a", "b"), (((0, True),),))
        g = F(2, ("b", "c"), (((0, True), (1, True)),))
        h = conjoin(f, g)
        assert h.literals == ("a", "b", "c")
        assert evaluate(h, (True, True, False)) is True
        assert evaluate(h, (True, False, False)) is False
