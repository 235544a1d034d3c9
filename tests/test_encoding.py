import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relativize
from relativize import (
    Formula,
    assignment_from_index,
    default_literals,
    godel_number,
    input_code,
    pair,
    partition_code,
    unpair,
)
from relativize.encoding import input_code_at, input_index

from reference import assignment_index, decode_input_code

ABC = ("a", "b", "c")


def test_encoding_imports_nothing_from_the_package():
    """encoding is the bottom layer: no import of it, relative or absolute,
    reaches another module of the package."""
    source = Path(relativize.encoding.__file__).read_text(encoding="utf-8")
    package = [ast.unparse(node) for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "relativize")
               or isinstance(node, ast.Import)
               and any(alias.name.split(".")[0] == "relativize" for alias in node.names)]
    assert package == []


class TestPairing:
    def test_zero(self):
        assert pair(0, 0) == 0
        assert unpair(0) == (0, 0)

    def test_closed_form(self):
        assert pair(1, 2) == 8
        assert unpair(8) == (1, 2)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200)
    def test_round_trip(self, a, b):
        assert unpair(pair(a, b)) == (a, b)

    def test_inverse_below_ten_thousand(self):
        for n in range(10_000):
            assert pair(*unpair(n)) == n

    def test_random_large_pairs(self):
        rng = random.Random(1)
        for _ in range(10_000):
            a, b = rng.randrange(10**6), rng.randrange(10**6)
            assert unpair(pair(a, b)) == (a, b)

    def test_huge_values(self):
        a, b = 10**300, 7
        assert unpair(pair(a, b)) == (a, b)


class TestGodelNumbering:
    def test_deterministic(self):
        f = Formula(1, ABC, (((0, True), (1, True), (2, True)),))
        assert godel_number(f) == godel_number(f)

    def test_polarity_changes_number(self):
        pos = Formula(1, ABC, (((0, True), (1, True), (2, True)),))
        neg = Formula(1, ABC, (((0, False), (1, True), (2, True)),))
        assert godel_number(pos) != godel_number(neg)

    def test_clause_order_does_not(self):
        f = Formula(1, ABC, (((0, True),), ((1, True),)))
        g = Formula(2, ABC, (((1, True),), ((0, True),)))
        assert godel_number(f) == godel_number(g)

    def test_literal_names_do(self):
        f = Formula(1, ("a", "b"), (((0, True),),))
        g = Formula(1, ("x", "y"), (((0, True),),))
        assert godel_number(f) != godel_number(g)

    def test_no_collisions_over_random_corpus(self):
        rng = random.Random(3)
        keys, numbers = set(), set()
        for fid in range(200):
            k = rng.randint(2, 6)
            clauses = []
            for _ in range(rng.randint(1, 5)):
                idxs = sorted(rng.sample(range(k), min(2, k)))
                clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
            f = Formula(fid, default_literals(k), tuple(clauses))
            keys.add(f.canonical_key)
            numbers.add(godel_number(f))
        assert len(keys) == len(numbers)


class TestPartitionCode:
    def test_zero_block(self):
        f = Formula(1, ABC, (((0, True),),))
        code = partition_code(f, 0)
        assert type(code) is int and code == pair(0, godel_number(f))
        assert unpair(code) == (0, godel_number(f))

    def test_distinct_blocks_distinct_codes(self):
        f = Formula(1, ABC, (((0, True),),))
        codes = {partition_code(f, t) for t in range(f.k + 1)}
        assert len(codes) == f.k + 1

    def test_distinct_formulas_distinct_codes(self):
        f = Formula(1, ("a", "b"), (((0, True),),))
        g = Formula(2, ("a", "b"), (((1, True),),))
        assert partition_code(f, 1) != partition_code(g, 1)

    def test_out_of_range(self):
        f = Formula(1, ABC, (((0, True),),))
        with pytest.raises(ValueError):
            partition_code(f, 4)


class TestInputCode:
    def test_zero_case(self):
        code = input_code(0, (False,), 0)
        assert decode_input_code(code) == (0, (False,), 0)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.booleans(), min_size=1, max_size=16).map(tuple),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200)
    def test_round_trip(self, i, a, n):
        assert decode_input_code(input_code(i, a, n)) == (i, a, n)

    def test_distinct_assignments_distinct_codes_exhaustive(self):
        for k in range(1, 11):
            codes = {
                input_code(5, assignment_from_index(e, k), 3) for e in range(1 << k)
            }
            assert len(codes) == 1 << k

    def test_length_survives_leading_false(self):
        short = input_code(1, (False, True), 0)
        long = input_code(1, (False, True, False), 0)
        assert short != long
        assert decode_input_code(long)[1] == (False, True, False)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_input_code(pair(3, pair(0, 5)))


def reference_index(code):
    """input_index by way of decode_input_code: (i, k, e) at padding 0."""
    try:
        i, a, n = decode_input_code(code)
    except ValueError:  # an empty frame
        return None
    if n:
        return None
    return i, len(a), assignment_index(a)


class TestInputIndex:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.booleans(), max_size=16).map(tuple),
        st.integers(min_value=0, max_value=1000) | st.just(0),
    )
    @settings(max_examples=300)
    def test_decodes_exactly_the_padding_0_codes(self, i, a, n):
        code = input_code(i, a, n)
        want = (i, len(a), assignment_index(a)) if n == 0 else None
        assert input_index(code) == reference_index(code) == want
        if want is not None:
            assert input_code_at(i, want[2], want[1]) == code

    @given(st.integers(min_value=0, max_value=2**80)
           | st.builds(lambda i, n: pair(i, pair(0, n)), st.integers(0, 10**6),
                       st.integers(0, 10**6)))
    @settings(max_examples=300)
    def test_any_natural_as_the_reference_reads_it(self, code):
        got = input_index(code)
        assert got == reference_index(code)
        if got is not None:
            i, k, e = got
            assert input_code_at(i, e, k) == code

    @pytest.mark.parametrize("code", [-1, "5", None, 5.0])
    def test_non_naturals_decode_to_none(self, code):
        assert input_index(code) is None


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
def test_import_leaves_the_digit_limit_alone():
    src = str(Path(relativize.__file__).resolve().parents[1])
    script = ("import sys; before = sys.get_int_max_str_digits(); import relativize; "
              "print(before, sys.get_int_max_str_digits())")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert out[0] == out[1]
