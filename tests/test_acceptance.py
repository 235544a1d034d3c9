"""Acceptance suite: one test per exit criterion, each printing a pass line.

Everything runs against the default configuration (k = 6..12, ~100 formulas)
or the crafted corpora the harness ships; total runtime stays well under a
minute on a commodity machine.
"""

import random

from relativize import (
    Formula,
    brute_force_sat,
    build_A,
    build_D,
    build_E,
    default_literals,
    godel_number,
    kappa_ids,
    lambda_report,
    nd_solve,
    pair,
    partition_code,
    set_sum_direct,
    set_sum_naive,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
    tagged_view,
    tower,
    unpair,
)
from relativize.analog import SetSumInstance
from relativize.harness import craft_d_corpus, craft_e_corpus

from reference import gen_instances


def test_criterion_01_a_functionality(corpus, truth, oracle_a):
    max_queries_by_k = {}
    for f in corpus:
        run = solve_with_A(f, oracle_a, ground_truth=truth[f.id].satisfiable)
        assert run.correct is True, f"A verdict wrong on formula {f.id}"
        max_queries_by_k[f.k] = max(max_queries_by_k.get(f.k, 0), run.queries)
    for k, queries in max_queries_by_k.items():
        assert queries <= k + 1
    print(f"PASS criterion 1: A correct on all {len(corpus)} formulas, "
          f"max queries by k = {max_queries_by_k}")


def test_criterion_02_b_dysfunction(corpus, truth, oracle_b):
    wrong_with_provenance = 0
    for f in corpus:
        run = solve_with_B(f, oracle_b, corpus.budget_for(f.id),
                           ground_truth=truth[f.id].satisfiable)
        if run.correct is False:
            assert run.transcript, "a wrong B verdict must come from a query"
            code = list(run.transcript)[0][0]
            fid, note = oracle_b.provenance[code]
            assert fid == f.id and note.startswith("step 2")
            wrong_with_provenance += 1
    assert wrong_with_provenance >= 1, "no dysfunctional B verdict in the crafted corpus"
    nd_runs = [nd_solve(f, ground_truth=truth[f.id].satisfiable) for f in corpus]
    assert all(r.correct is True for r in nd_runs)
    assert all(r.queries == 0 for r in nd_runs)
    print(f"PASS criterion 2: {wrong_with_provenance} wrong deterministic verdicts, "
          f"all traced to step-2 members; ND 100% correct with 0 queries")


def test_criterion_03_c_asymmetry(corpus, truth, oracle_c, oracle_c_bar):
    for f in corpus:
        run = solve_conp_with_C_bar(f, oracle_c_bar,
                                    ground_truth=not truth[f.id].satisfiable)
        assert run.queries == 1 and run.correct is True
    reject_queries = {}
    for f in corpus:
        if truth[f.id].satisfiable:
            continue
        run = solve_with_C(f, oracle_c, ground_truth=False)
        assert run.correct is True
        assert run.queries == 2**f.k, f"expected 2^{f.k} queries on formula {f.id}"
        reject_queries.setdefault(f.k, run.queries)
    assert sorted(reject_queries) == list(range(6, 13))
    for k in range(6, 12):
        assert reject_queries[k + 1] == 2 * reject_queries[k]
    print(f"PASS criterion 3: complement side 1 query and 100% correct; "
          f"reject queries double exactly, {reject_queries}")


def test_criterion_04_d_double_dysfunction():
    corpus = craft_d_corpus()
    truth = {f.id: brute_force_sat(f).satisfiable for f in corpus}
    d_set, dbar_set = build_D(corpus)

    def provenanced_wrongs(runs, oracle, step):
        out = []
        for run in runs:
            if run.correct is not False:
                continue
            hits = [code for code, answer in run.transcript if answer]
            if any(oracle.provenance[c][1].startswith(step) for c in hits):
                out.append(run.formula_id)
        return out

    d_runs = [solve_with_C(f, d_set, ground_truth=truth[f.id]) for f in corpus]
    dbar_runs = [
        solve_conp_with_C_bar(f, dbar_set, ground_truth=not truth[f.id]) for f in corpus
    ]
    wrong_d = provenanced_wrongs(d_runs, d_set, "step 5")
    wrong_dbar = provenanced_wrongs(dbar_runs, dbar_set, "step 8")
    assert wrong_d, "no wrong D verdict traceable to a step-5 member"
    assert wrong_dbar, "no wrong D_bar verdict traceable to a step-8 member"
    print(f"PASS criterion 4: wrong verdicts under D on {wrong_d} (step 5) "
          f"and under D_bar on {wrong_dbar} (step 8)")


def test_criterion_05_e_kappa_conservativity():
    corpus = craft_e_corpus()
    truth = {f.id: brute_force_sat(f).satisfiable for f in corpus}
    base = build_A(corpus)
    oracle = build_E(corpus, base)
    kappa = kappa_ids(corpus)
    assert kappa, "crafted corpus must contain a complement pair"
    kappa_godels = {godel_number(corpus.by_id(fid)) for fid in kappa}
    e_side = {c for c in oracle.members if unpair(c)[1] in kappa_godels}
    a_side = {c for c in base.members if unpair(c)[1] in kappa_godels}
    assert e_side == a_side, "complement-paired problems must keep exactly the base codes"
    injected = [
        (code, fid) for code, (fid, note) in oracle.provenance.items()
        if note.startswith("step 7")
    ]
    assert injected and all(fid not in kappa for _, fid in injected)
    for fid in kappa:
        run = solve_with_A(corpus.by_id(fid), oracle, ground_truth=truth[fid])
        assert run.correct is True
    print(f"PASS criterion 5: E and base agree on kappa={sorted(kappa)}, "
          f"{len(injected)} injected code(s) elsewhere, kappa verdicts 100% correct")


def test_criterion_06_f_dual_polynomiality(corpus, truth, oracle_f):
    np_side = tagged_view(oracle_f, 0)
    co_side = tagged_view(oracle_f, 1)
    for f in corpus:
        direct = solve_with_A(f, np_side, ground_truth=truth[f.id].satisfiable)
        assert direct.correct is True and direct.queries <= f.k + 1
        co = solve_conp_with_C_bar(f, co_side, ground_truth=not truth[f.id].satisfiable)
        assert co.correct is True and co.queries == 1
    print(f"PASS criterion 6: F answers both sides correctly on all {len(corpus)} "
          f"formulas within k+1 and 1 queries")


def test_criterion_07_tower_values():
    values = [tower(n) for n in range(4)]
    assert values == [0, 1, 4, 256]
    print(f"PASS criterion 7: stage thresholds {values}")


def test_criterion_08_encoding_integrity(corpus):
    for n in range(10**6):
        a, b = unpair(n)
        assert pair(a, b) == n
    block_codes = {}
    for f in corpus:
        for t in range(f.k + 1):
            block_codes[(t, f.canonical_key)] = partition_code(f, t)
    assert len(set(block_codes.values())) == len(block_codes)
    rng = random.Random(97)
    keys, numbers = set(), set()
    for fid in range(1000):
        k = rng.randint(2, 8)
        clauses = []
        for _ in range(rng.randint(1, 6)):
            idxs = sorted(rng.sample(range(k), min(3, k)))
            clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
        f = Formula(fid, default_literals(k), tuple(clauses))
        keys.add(f.canonical_key)
        numbers.add(godel_number(f))
    assert len(keys) == len(numbers), "structural-number collision"
    print(f"PASS criterion 8: pair/unpair exhaustive below 10^6, "
          f"{len(block_codes)} block codes injective, 0 collisions over 1000 formulas")


def test_criterion_09_lambda_analog():
    instances = gen_instances(seed=42, count=50)
    report = lambda_report(instances)
    assert report.all_demonstrated(), [row for row in report.rows if not row.demonstrated]
    assert len(report.rows) == 5
    rng = random.Random(5)
    checked = 0
    for r in range(1, 13):
        cases = [
            SetSumInstance(tuple(rng.randint(-9, 9) for _ in range(r)), 0)
            for _ in range(3)
        ]
        exact = SetSumInstance(tuple(rng.randint(-9, 9) for _ in range(r)), 0)
        cases.append(SetSumInstance(exact.values, sum(exact.values)))
        for inst in cases:
            verdict, examined = set_sum_naive(inst)
            assert verdict == set_sum_direct(inst)
            assert examined == 2**r
            checked += 1
    for _idx, r, direct, naive in report.work_table:
        assert direct == r and naive == 2**r
    assert lambda_report(gen_instances(seed=42, count=50)) == report
    print(f"PASS criterion 9: five questions demonstrated, direct/naive agree on "
          f"{checked} instances through r=12, work ratio 2^r/r exact, battery deterministic")


def test_criterion_10_examination_bound(corpus, truth, oracle_a):
    accepting = 0
    for f in corpus:
        run = solve_with_A(f, oracle_a, ground_truth=truth[f.id].satisfiable)
        if run.accepted:
            accepting += 1
            bound = corpus.budget_for(f.id).steps(f.k) + f.k + 1
            assert run.steps + run.queries <= bound
    assert accepting > 0
    print(f"PASS criterion 10: steps+queries within p(k)+k+1 on all {accepting} accepting runs")
