import dataclasses
import gc
import json
import math
import random
import re
import sys
from collections.abc import KeysView
from types import MappingProxyType

import pytest

from relativize import (
    Budget,
    ConfigurationError,
    Corpus,
    ExperimentConfig,
    Formula,
    OracleFileError,
    OracleSet,
    SideView,
    brute_force_sat,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_D,
    build_E,
    build_F,
    build_lambda_oracle,
    clamped_budget,
    default_literals,
    evaluate,
    gen_corpus,
    godel_number,
    input_code,
    kappa_ids,
    load_oracle,
    pair,
    partition_code,
    save_oracle,
    solve_conp_with_C_bar,
    solve_with_A,
    tagged_view,
    tower,
    unpair,
)
from relativize import oracles
from relativize.harness import craft_all_true, craft_d_corpus, craft_e_corpus, craft_unsat

from reference import decode_input_code, gen_instances, negate, partition

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
        present = {t for t in range(4) if partition_code(WIDE, t) in oracle}
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
                assert (partition_code(f, t) in oracle) == expected


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
        assert decode_input_code(code)[1] == tuple(
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
        assert code == input_code(1, (True, False, False))

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
        owners = [decode_input_code(code)[0] for code in oracle.members]
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
            code = input_code(f.id, (False,) * f.k)
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

    # A budget per stage that passes every clause of its chain but the first
    # two, t(n-1) < log2(k) <= t(n), for any k.
    STAGE_BUDGETS = {1: Budget(2, 0), 2: Budget(16, 0), 3: Budget(2**256, 0)}

    @pytest.mark.parametrize("n, ks", [(1, {2}), (2, set(range(3, 17))), (3, {17, 18})])
    def test_stages_run_on_disjoint_k_ranges(self, n, ks, monkeypatch):
        # Stage n scans only a problem with log2(k) in (t(n-1), t(n)], so
        # stages 1, 2 and 3 run on k = 2, k = 3..16 and k >= 17 alone. Those
        # ranges are disjoint: no stage shares a k, hence a canonical key or
        # a block code, with an earlier stage, so none can query what an
        # earlier stage injected.
        scanned = []

        def spy(f, oracle, **kwargs):
            scanned.append(f.id)
            return solve_with_A(f, oracle, **kwargs)

        monkeypatch.setattr(oracles, "solve_with_A", spy)
        fillers = tuple(Formula(i, default_literals(1), ()) for i in range(1, n))
        for k in range(1, 19):
            f = Formula(n, default_literals(k), (((0, True),),))
            budgets = {**dict.fromkeys(range(1, n), Budget(1, 0)), n: self.STAGE_BUDGETS[n]}
            corpus = Corpus((*fillers, f), budgets)
            scanned.clear()
            build_E(corpus, build_A(corpus))
            assert scanned == ([n] if k in ks else []), k

    def test_third_stage_scans_its_problem(self, monkeypatch):
        # Positions 1..3 meet their stage's chain at k = 2, 4 and 17; the
        # k = 4 problem misses stage 2's budget gate, p(t(2)) = 4 < 2^4, so
        # only stages 1 and 3 scan, and a stage cap below 3 drops the k = 17
        # scan.
        scanned = []

        def spy(f, oracle, **kwargs):
            scanned.append((f.id, f.k))
            return solve_with_A(f, oracle, **kwargs)

        monkeypatch.setattr(oracles, "solve_with_A", spy)
        corpus = Corpus(
            (craft_unsat(1, 2), Formula(2, default_literals(4), (((0, True),),)),
             Formula(3, default_literals(17), (((0, True),),))),
            {1: Budget(2, 0), 2: Budget(1, 1), 3: Budget(1, 32)},
        )
        build_E(corpus, build_A(corpus))
        assert scanned == [(1, 2), (3, 17)]

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
        np_codes = {pair(0, partition_code(sat, t)) for t in (1, 2, 3)}
        sentinel = pair(1, input_code(2, (False, False, False)))
        assert np_codes | {sentinel} == oracle.members

    def test_only_tagged_codes_are_members(self, tmp_path):
        corpus = seeded_corpus(seed=53)
        built = build_F(corpus)
        save_oracle(built, tmp_path / "f.json")
        loaded = load_oracle(tmp_path / "f.json", corpus)
        code = next(iter(built.provenance.sides[0]))
        for probe in (code, pair(0, code), pair(2, code), -1, 1.5, "x", None):
            assert (probe in built) == (probe in loaded) == (probe == pair(0, code))
            assert built.provenance.get(probe) == loaded.provenance.get(probe)

    def test_both_sides_match_brute_force(self):
        corpus = seeded_corpus(seed=53)
        oracle = build_F(corpus)
        for f in corpus:
            truth = brute_force_sat(f).satisfiable
            direct = solve_with_A(f, tagged_view(oracle, 0), ground_truth=truth)
            co = solve_conp_with_C_bar(f, tagged_view(oracle, 1), ground_truth=not truth)
            assert direct.correct and direct.queries <= f.k + 1
            assert co.correct and co.queries == 1


class TestSideView:
    """A SideView is a tuple of its fields, but `in` asks its members only."""

    def test_answers_from_its_members_never_from_its_fields(self):
        view = SideView("X", frozenset({5}))
        assert 5 in view
        assert "X" not in view and None not in view and frozenset({5}) not in view

    def test_a_tagged_view_pairs_each_query_with_its_tag(self):
        view = SideView("F[co]", frozenset({pair(1, 5)}), frozenset({1}), 1)
        assert 5 in view
        assert pair(1, 5) not in view and 1 not in view
        assert [code for code in range(8) if code in view] == [5]


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
        corpus = Corpus((), {})
        oracle = build_A(corpus)
        save_oracle(oracle, tmp_path / "empty.json")
        assert load_oracle(tmp_path / "empty.json", corpus) == oracle

    def test_set_is_its_provenance_map(self, tmp_path):
        corpus = Corpus((Formula(1, ("a",), ()),), {1: Budget(1, 1)})
        oracle = OracleSet("A", {1: (1, "step 3")}, frozenset({1}), corpus.digest)
        assert oracle.members == {1}
        assert 1 in oracle and 2 not in oracle
        assert len(oracle) == 1
        save_oracle(oracle, tmp_path / "a.json")
        assert load_oracle(tmp_path / "a.json", corpus) == oracle

    def test_members_are_held_once(self, tmp_path):
        assert [f.name for f in dataclasses.fields(OracleSet)] == [
            "kind", "provenance", "corpus_ids", "corpus_hash"]
        corpus = seeded_corpus(seed=61)
        d, dbar = build_D(craft_d_corpus())
        f = build_F(corpus)
        save_oracle(f, tmp_path / "f.json")
        oracles = [build(corpus) for build in (build_A, build_B, build_C)]
        oracles += [d, dbar, build_E(craft_e_corpus(), build_A(craft_e_corpus())),
                    load_oracle(tmp_path / "f.json", corpus),
                    build_lambda_oracle(gen_instances(seed=5, count=6))]
        for oracle in oracles:
            assert oracle.members
            # a keys view refers to its dict and nothing else, and so does the
            # read-only provenance view; `.mapping` wraps that dict in a fresh
            # proxy, so identity goes by referent
            (owner,) = gc.get_referents(oracle.members)
            (held,) = gc.get_referents(oracle.provenance)
            assert owner is held and type(oracle.provenance) is MappingProxyType
            assert oracle.members.mapping == oracle.provenance
        # a built F's members are a keys view of its provenance map, which
        # holds each member once, untagged, on its side
        assert f.members and type(f.members) is KeysView
        assert [r for r in gc.get_referents(f.members) if r is not KeysView] == [f.provenance]
        assert f.members == f.provenance.keys() and len(f.members) == len(f)
        # a built C_bar's members are a keys view of its rule, which keeps no
        # code: the only data it refers to is its {id: k} dict
        c_bar = build_C_bar(corpus)
        assert c_bar.members and type(c_bar.members) is KeysView
        assert [r for r in gc.get_referents(c_bar.members) if r is not KeysView] == [
            c_bar.provenance]
        rejected = {p.id: p.k for p in corpus if not brute_force_sat(p).satisfiable}
        rule = c_bar.provenance
        # its one attribute, or the instance dict holding it, by interpreter
        (held,) = [r for r in gc.get_referents(rule) if not isinstance(r, type)]
        assert held is rule.rejected or held is vars(rule)
        assert vars(rule) == {"rejected": rejected}
        assert len(c_bar) == sum(1 << k for k in rejected.values()) > len(rejected)

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "A", "members": [', encoding="utf-8")
        with pytest.raises(OracleFileError):
            load_oracle(path, Corpus((), {}))

    def test_unknown_kind(self, tmp_path):
        # the file matches its corpus: only the kind is wrong
        corpus = Corpus((), {})
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"kind": "Z", "members": [], "corpus_hash": corpus.digest,
                        "corpus_ids": [], "provenance": {}}),
            encoding="utf-8",
        )
        with pytest.raises(OracleFileError, match="unknown oracle kind 'Z'"):
            load_oracle(path, corpus)

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
        (lambda doc: doc["members"].append(doc["members"][0]),
         "'members' lists a code more than once"),
        (lambda doc: doc.update(members=["7", "007", "7"],
                                provenance={"7": [1, "a"], "007": [2, "b"]}),
         "'members' must be a list of decimal strings without leading zeros"),
        (lambda doc: doc["corpus_ids"].append(doc["corpus_ids"][0]),
         "'corpus_ids' lists an id more than once"),
    ])
    def test_file_is_read_strictly(self, tmp_path, edit, message):
        corpus = seeded_corpus(seed=83)
        path = tmp_path / "a.json"
        save_oracle(build_A(corpus), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["members"]
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(OracleFileError, match=re.escape(message)) as err:
            load_oracle(path, corpus)
        assert str(err.value).startswith(f"{path}: ")


    def test_repeated_key_is_refused(self, tmp_path):
        # the parser alone would keep the last: {7: (2, "b")}
        corpus = seeded_corpus(seed=83)
        path = tmp_path / "a.json"
        save_oracle(build_A(corpus), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.update(members=["7"], provenance={"7": [1, "a"]})
        text = json.dumps(doc).replace('{"7": [1, "a"]}', '{"7": [1, "a"], "7": [2, "b"]}')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(OracleFileError, match=re.escape("repeated key '7'")) as err:
            load_oracle(path, corpus)
        assert str(err.value).startswith(f"{path}: ")


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
