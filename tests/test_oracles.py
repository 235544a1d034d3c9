import json
import math
import random
import re
import sys

import pytest

from relativize import (
    Budget,
    ConfigurationError,
    Corpus,
    ExperimentConfig,
    Formula,
    OracleFileError,
    OracleSet,
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_D,
    build_E,
    build_F,
    clamped_budget,
    decode_input_code,
    default_literals,
    evaluate,
    gen_corpus,
    godel_number,
    input_code,
    kappa_ids,
    load_oracle,
    negate,
    pair,
    partition_code,
    save_oracle,
    solve_conp_with_C_bar,
    solve_with_A,
    tagged_view,
    tower,
    unpair,
)
from relativize.harness import craft_all_true, craft_d_corpus, craft_e_corpus, craft_unsat

from reference import partition

ABC = ("a", "b", "c")
WIDE = Formula(1, ABC, (((0, True), (1, True), (2, True)),))


def set_first_note(doc, entry):
    """Replace the provenance entry of an oracle document's first member."""
    doc["provenance"][doc["members"][0]] = entry


def one_formula_corpus(f, budget=None):
    return Corpus((f,), {f.id: budget or clamped_budget(f.k)})


def seeded_corpus(seed=31, count=12, k=4):
    rng = random.Random(seed)
    formulas = []
    for fid in range(1, count + 1):
        clauses = []
        for _ in range(rng.randint(1, 5)):
            idxs = sorted(rng.sample(range(k), 2))
            clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
        formulas.append(Formula(fid, default_literals(k), tuple(clauses)))
    return Corpus(tuple(formulas), {f.id: clamped_budget(k) for f in formulas})


def prefix(corpus, i):
    formulas = corpus.formulas[:i]
    return Corpus(formulas, {f.id: corpus.budget_for(f.id) for f in formulas})


class TestBuildA:
    def test_wide_clause_blocks(self):
        oracle = build_A(one_formula_corpus(WIDE))
        present = {t for t in range(4) if partition_code(WIDE, t).code in oracle}
        assert present == {1, 2, 3}

    def test_contradiction_contributes_nothing(self):
        f = craft_unsat(1, 1)
        assert len(build_A(one_formula_corpus(f))) == 0

    def test_size_bound(self):
        corpus = seeded_corpus()
        oracle = build_A(corpus)
        assert len(oracle) <= sum(f.k + 1 for f in corpus)

    def test_characterization_against_independent_brute_force(self):
        corpus = seeded_corpus(seed=8)
        oracle = build_A(corpus)
        for f in corpus:
            for t in range(f.k + 1):
                expected = any(evaluate(f, a) for a in partition(f, t))
                assert (partition_code(f, t).code in oracle) == expected


class TestBuildB:
    def test_empty_corpus(self):
        assert len(build_B(Corpus((), {}))) == 0

    def test_early_witness_adds_nothing(self):
        f = Formula(1, default_literals(6), (((0, True),),))
        assert len(build_B(one_formula_corpus(f))) == 0

    def test_budget_limited_reject_adds_one(self):
        f = craft_unsat(1, 6)
        corpus = one_formula_corpus(f)
        oracle = build_B(corpus)
        assert len(oracle) == 1
        (code,) = oracle.members
        fid, note = oracle.provenance[code]
        assert fid == 1 and note.startswith("step 2")
        # the planted code is the first unexamined assignment, index p(k)
        assert decode_input_code(code).assignment() == tuple(
            bool((36 >> j) & 1) for j in range(6)
        )

    def test_stagewise_monotone(self):
        corpus = seeded_corpus(seed=17, count=8, k=5)
        members = [build_B(prefix(corpus, i)).members for i in range(len(corpus) + 1)]
        for earlier, later in zip(members, members[1:]):
            assert earlier <= later


class TestBuildC:
    def test_wide_clause_single_witness(self):
        oracle = build_C(one_formula_corpus(WIDE))
        assert len(oracle) == 1
        (code,) = oracle.members
        # first satisfying assignment is index 1 = (T, F, F)
        assert code == input_code(1, (True, False, False)).code

    def test_contradiction_contributes_nothing(self):
        assert len(build_C(one_formula_corpus(craft_unsat(1, 2)))) == 0

    def test_census(self):
        corpus = seeded_corpus(seed=41)
        oracle = build_C(corpus)
        satisfiable = sum(brute_force_sat(f).satisfiable for f in corpus)
        assert len(oracle) == satisfiable

    def test_exactly_one_member_per_satisfiable_formula(self):
        corpus = seeded_corpus(seed=43)
        oracle = build_C(corpus)
        owners = [decode_input_code(code).machine_index for code in oracle.members]
        assert len(owners) == len(set(owners))
        for fid in owners:
            assert brute_force_sat(corpus.by_id(fid)).satisfiable


class TestBuildCBar:
    def test_unsat_gets_all_codes(self):
        f = craft_unsat(1, 3)
        oracle = build_C_bar(one_formula_corpus(f))
        assert len(oracle) == 8

    def test_all_sat_corpus_is_empty(self):
        f = Formula(1, ABC, (((0, True),),))
        g = Formula(2, ABC, (((1, True),),))
        corpus = Corpus((f, g), {1: clamped_budget(3), 2: clamped_budget(3)})
        assert len(build_C_bar(corpus)) == 0

    def test_membership_characterizes_unsatisfiability(self):
        corpus = seeded_corpus(seed=29)
        oracle = build_C_bar(corpus)
        for f in corpus:
            code = input_code(f.id, (False,) * f.k).code
            assert (code in oracle) == (not brute_force_sat(f).satisfiable)


class TestBuildD:
    def test_empty_corpus(self):
        d, dbar = build_D(Corpus((), {}))
        assert len(d) == 0 and len(dbar) == 0

    def test_crafted_trace(self):
        corpus = craft_d_corpus()
        d, dbar = build_D(corpus)
        # even stage: every code of the k=4 contradiction entered through step 5
        step5 = [c for c, (fid, note) in d.provenance.items() if note.startswith("step 5")]
        assert len(step5) == 16
        assert all(d.provenance[c][0] == 2 for c in step5)
        # odd stage: the scanner's queries were captured, plus one step-8 code in D
        step8_d = [c for c, (fid, note) in d.provenance.items() if note.startswith("step 8")]
        assert len(step8_d) == 1 and d.provenance[step8_d[0]][0] == 3
        assert all(note.startswith("step 8") for _, note in dbar.provenance.values())

    def test_step8_additions_bounded_by_budget(self):
        corpus = craft_d_corpus()
        _, dbar = build_D(corpus)
        per_stage = {}
        for code, (fid, _note) in dbar.provenance.items():
            per_stage[fid] = per_stage.get(fid, 0) + 1
        for fid, count in per_stage.items():
            f = corpus.by_id(fid)
            assert count <= corpus.budget_for(fid).steps(f.k)

    def test_shape_violation(self):
        odd_even_stage = Corpus(
            (craft_unsat(1, 2), craft_unsat(2, 3)),
            {1: clamped_budget(2), 2: clamped_budget(3)},
        )
        with pytest.raises(ConfigurationError):
            build_D(odd_even_stage)

    def test_stagewise_monotone(self):
        corpus = craft_d_corpus()
        d_members, dbar_members = [], []
        for i in range(len(corpus) + 1):
            d, dbar = build_D(prefix(corpus, i))
            d_members.append(d.members)
            dbar_members.append(dbar.members)
        for earlier, later in zip(d_members, d_members[1:]):
            assert earlier <= later
        for earlier, later in zip(dbar_members, dbar_members[1:]):
            assert earlier <= later


class TestBuildE:
    def test_tower_values(self):
        assert [tower(n) for n in range(4)] == [0, 1, 4, 256]
        assert tower(4) == 2**512

    def test_all_complements_present_keeps_base(self):
        pos = Formula(1, ("a", "b"), (((0, True),),))
        neg = Formula(2, ("a", "b"), (((0, False),),))
        corpus = Corpus((pos, neg), {1: Budget(2, 0), 2: Budget(2, 0)})
        base = build_A(corpus)
        oracle = build_E(corpus, base)
        assert oracle.members == base.members

    def test_crafted_injection(self):
        corpus = craft_e_corpus()
        base = build_A(corpus)
        oracle = build_E(corpus, base)
        assert oracle.members > base.members
        injected = oracle.members - base.members
        assert len(injected) == 1
        (code,) = injected
        fid, note = oracle.provenance[code]
        assert fid == 1 and note.startswith("step 7")
        # the injected code is a block code of the non-complemented contradiction
        t, g = unpair(code)
        assert g == godel_number(corpus.by_id(1)) and t == 2

    def test_kappa_conservativity(self):
        corpus = craft_e_corpus()
        base = build_A(corpus)
        oracle = build_E(corpus, base)
        kappa = kappa_ids(corpus)
        assert kappa == frozenset({2, 3})
        kappa_godels = {godel_number(corpus.by_id(fid)) for fid in kappa}
        e_side = {c for c in oracle.members if unpair(c)[1] in kappa_godels}
        a_side = {c for c in base.members if unpair(c)[1] in kappa_godels}
        assert e_side == a_side

    def test_corrupted_verdict_on_injected_problem(self):
        corpus = craft_e_corpus()
        oracle = build_E(corpus, build_A(corpus))
        target = corpus.by_id(1)
        run = solve_with_A(target, oracle, ground_truth=False)
        assert run.accepted and run.correct is False

    def test_base_from_other_corpus_rejected(self):
        base = build_A(seeded_corpus())
        with pytest.raises(ConfigurationError):
            build_E(craft_e_corpus(), base)

    def test_stagewise_monotone(self):
        corpus = craft_e_corpus()
        members = []
        for i in range(len(corpus) + 1):
            sliced = prefix(corpus, i)
            members.append(build_E(sliced, build_A(sliced)).members)
        # later stages only ever add on top of what the base inherited
        for earlier, later in zip(members, members[1:]):
            assert earlier <= later


class TestBuildF:
    def test_empty_corpus(self):
        assert len(build_F(Corpus((), {}))) == 0

    def test_mixed_corpus_sides(self):
        sat = Formula(1, ABC, (((0, True), (1, True), (2, True)),))
        unsat = craft_unsat(2, 3)
        corpus = Corpus((sat, unsat), {1: clamped_budget(3), 2: clamped_budget(3)})
        oracle = build_F(corpus)
        np_codes = {pair(0, partition_code(sat, t).code) for t in (1, 2, 3)}
        sentinel = pair(1, input_code(2, (False, False, False)).code)
        assert np_codes | {sentinel} == oracle.members

    def test_both_sides_match_brute_force(self):
        corpus = seeded_corpus(seed=53)
        oracle = build_F(corpus)
        for f in corpus:
            truth = brute_force_sat(f).satisfiable
            direct = solve_with_A(f, tagged_view(oracle, 0), ground_truth=truth)
            co = solve_conp_with_C_bar(f, tagged_view(oracle, 1), ground_truth=not truth)
            assert direct.correct and direct.queries <= f.k + 1
            assert co.correct and co.queries == 1


class TestDeterminismAndFiles:
    def test_rebuild_is_identical(self):
        corpus = seeded_corpus(seed=61)
        assert build_A(corpus) == build_A(corpus)
        assert build_B(corpus) == build_B(corpus)
        assert build_C(corpus) == build_C(corpus)

    @pytest.mark.parametrize("build", [build_A, build_B, build_C, build_C_bar, build_F])
    def test_round_trip(self, build, tmp_path):
        corpus = seeded_corpus(seed=71)
        oracle = build(corpus)
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        assert load_oracle(path, corpus) == oracle

    def test_round_trip_both_d_sides(self, tmp_path):
        corpus = craft_d_corpus()
        d, dbar = build_D(corpus)
        for oracle, name in ((d, "d.json"), (dbar, "dbar.json")):
            save_oracle(oracle, tmp_path / name)
            assert load_oracle(tmp_path / name, corpus) == oracle

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    def test_codes_past_the_default_digit_limit_round_trip(self, tmp_path):
        # F's tagged block codes of a k=12 random formula run past the
        # interpreter's default 4,300-digit int/str limit
        corpus = gen_corpus(ExperimentConfig(k_range=(12, 12), formulas_per_k=1))
        oracle = build_F(corpus)
        assert max(code.bit_length() for code in oracle.members) * math.log10(2) > 4300
        limit = sys.get_int_max_str_digits()
        save_oracle(oracle, tmp_path / "f.json")
        assert load_oracle(tmp_path / "f.json", corpus) == oracle
        assert sys.get_int_max_str_digits() == limit

    def test_empty_set_round_trips(self, tmp_path):
        oracle = build_A(Corpus((), {}))
        save_oracle(oracle, tmp_path / "empty.json")
        assert load_oracle(tmp_path / "empty.json") == oracle

    def test_save_refuses_members_without_provenance(self, tmp_path):
        # load_oracle would refuse the file such a set makes
        oracle = OracleSet("A", frozenset({1, 2}), {1: (1, "step 3")}, frozenset({1}), "x")
        with pytest.raises(ValueError, match="members differ from the provenance keys"):
            save_oracle(oracle, tmp_path / "a.json")
        assert not (tmp_path / "a.json").exists()

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "A", "members": [', encoding="utf-8")
        with pytest.raises(OracleFileError):
            load_oracle(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"kind": "Z", "members": [], "corpus_hash": "x",
                        "corpus_ids": [], "provenance": {}}),
            encoding="utf-8",
        )
        with pytest.raises(OracleFileError):
            load_oracle(path)

    def test_corpus_mismatch(self, tmp_path):
        corpus = seeded_corpus(seed=81)
        oracle = build_A(corpus)
        save_oracle(oracle, tmp_path / "a.json")
        with pytest.raises(OracleFileError):
            load_oracle(tmp_path / "a.json", craft_d_corpus())

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(note="x"), "unknown keys ['note']"),
        (lambda doc: doc.pop("corpus_ids"), "missing keys ['corpus_ids']"),
        (lambda doc: doc["members"].append("999"), "'members' differ from the 'provenance' keys"),
        (lambda doc: doc["members"].pop(), "'members' differ from the 'provenance' keys"),
        (lambda doc: doc["members"].append(12.7), "'members' must be a list of decimal strings"),
        (lambda doc: doc["members"].append(12), "'members' must be a list of decimal strings"),
        (lambda doc: doc["members"].append("12.7"), "'members' must be a list of decimal strings"),
        (lambda doc: doc["members"].append(" 12"), "'members' must be a list of decimal strings"),
        (lambda doc: doc.update(members="123"), "'members' must be a list of decimal strings"),
        (lambda doc: doc.update(provenance=[]), "'members' differ from the 'provenance' keys"),
        (lambda doc: doc.update(corpus_ids=["1", 2.9, True]),
         "'corpus_ids' must be a list of integers"),
        (lambda doc: doc["corpus_ids"].append(True), "'corpus_ids' must be a list of integers"),
        (lambda doc: doc.update(corpus_ids="12"), "'corpus_ids' must be a list of integers"),
        (lambda doc: set_first_note(doc, [1.8, 5]), "'provenance' entries must be"),
        (lambda doc: set_first_note(doc, [1, 5]), "'provenance' entries must be"),
        (lambda doc: set_first_note(doc, [True, "step 1"]), "'provenance' entries must be"),
        (lambda doc: set_first_note(doc, ["1", "step 1"]), "'provenance' entries must be"),
        (lambda doc: set_first_note(doc, [1, "step 1", 2]), "'provenance' entries must be"),
    ])
    def test_file_is_read_strictly(self, tmp_path, edit, message):
        corpus = seeded_corpus(seed=83)
        path = tmp_path / "a.json"
        save_oracle(build_A(corpus), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["members"]
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(OracleFileError, match=re.escape(message)):
            load_oracle(path, corpus)


class TestKappa:
    def test_detects_semantic_complements(self):
        f = Formula(1, ("a", "b"), (((0, True), (1, True)),))
        g = negate(f, new_id=2)
        lone = Formula(3, ("a", "b"), (((0, True),),))
        corpus = Corpus((f, g, lone), {i: clamped_budget(2) for i in (1, 2, 3)})
        assert kappa_ids(corpus) == frozenset({1, 2})

    def test_requires_matching_length(self):
        f = Formula(1, ("a",), (((0, True),),))
        g = Formula(2, ("a", "b"), (((0, False),),))
        corpus = Corpus((f, g), {1: clamped_budget(1), 2: clamped_budget(2)})
        assert kappa_ids(corpus) == frozenset()

    def test_all_true_formula_is_not_its_own_complement(self):
        f = craft_all_true(1, 2)
        corpus = one_formula_corpus(f)
        assert kappa_ids(corpus) == frozenset()
