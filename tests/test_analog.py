import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relativize import (
    Budget,
    CapacityError,
    SetSumInstance,
    SetSumProblem,
    build_lambda_oracle,
    craft_d_corpus,
    lambda_report,
    pair,
    set_sum_direct,
    set_sum_naive,
    solve_lambda_with_oracle,
)
from relativize import analog
from relativize.analog import (
    load_instances,
    render_lambda_table,
    write_lambda_csv,
)

from reference import (
    SET_SUM,
    ClassRegistry,
    corrupted,
    default_registry,
    gen_instances,
    save_instances,
)


def instances_strategy():
    return st.builds(
        SetSumInstance,
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10).map(tuple),
        st.integers(min_value=-200, max_value=200),
    )


class TestSetSumSolvers:
    def test_direct_hit(self):
        assert set_sum_direct(SetSumInstance((1, 2, 3), 6)) is True

    def test_direct_miss(self):
        assert set_sum_direct(SetSumInstance((1, 2, 3), 5)) is False

    def test_zero_case(self):
        assert set_sum_direct(SetSumInstance((0,), 0)) is True

    def test_naive_hit_examines_everything(self):
        assert set_sum_naive(SetSumInstance((1, 2, 3), 6)) == (True, 8)

    def test_naive_miss_examines_everything(self):
        assert set_sum_naive(SetSumInstance((1, 2, 3), 5)) == (False, 8)

    def test_naive_ignores_proper_subset_hits(self):
        # a proper subset sums to the target, the full set does not
        inst = SetSumInstance((2, 3), 2)
        assert set_sum_naive(inst)[0] is False

    def test_naive_cap(self, monkeypatch):
        inst = SetSumInstance(tuple(range(8)), 0)
        monkeypatch.setenv("RELATIVIZE_CAP", "6")
        with pytest.raises(CapacityError):
            set_sum_naive(inst)

    @given(instances_strategy())
    @settings(max_examples=100)
    def test_solvers_agree(self, inst):
        verdict, examined = set_sum_naive(inst)
        assert verdict == set_sum_direct(inst)
        assert examined == 2**inst.r

    def test_needs_a_value(self):
        with pytest.raises(ValueError):
            SetSumInstance((), 0)


class TestProblemAdapter:
    def test_accepts_only_full_subset_of_matching_sum(self):
        p = SetSumProblem(1, SetSumInstance((1, 2), 3))
        assert p.accepts((True, True)) is True
        assert p.accepts((True, False)) is False

    def test_rejects_everything_when_sum_misses(self):
        p = SetSumProblem(1, SetSumInstance((1, 2), 99))
        assert p.accepts((True, True)) is False

    def test_distinct_instances_distinct_keys(self):
        a = SetSumProblem(1, SetSumInstance((1, 2), 3))
        b = SetSumProblem(2, SetSumInstance((1, 2), 4))
        assert a.canonical_key != b.canonical_key

    def test_k_is_read_once_and_stays_out_of_the_fields(self):
        p = SetSumProblem(1, SetSumInstance((4, 5, 6), 15))
        assert p.k == 3 and vars(p)["k"] == 3
        assert [f.name for f in dataclasses.fields(p)] == ["id", "instance"]
        assert repr(p) == ("SetSumProblem(id=1, instance=SetSumInstance(values=(4, 5, 6), "
                           "target=15))")
        twin = SetSumProblem(1, SetSumInstance((4, 5, 6), 15))
        assert twin == p and hash(twin) == hash(p)
        assert p != SetSumProblem(2, SetSumInstance((4, 5, 6), 15))
        assert dataclasses.replace(p, instance=SetSumInstance((1,), 1)).k == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.k = 4


class TestRegistry:
    def test_default_excludes_set_sum(self):
        reg = default_registry()
        assert SET_SUM in reg.np_lambda and SET_SUM not in reg.p_lambda
        assert reg.p_lambda == reg.np_lambda - {SET_SUM}

    def test_resolution_restores_equality(self):
        reg = default_registry().resolved()
        assert reg.p_lambda == reg.np_lambda

    def test_subset_enforced(self):
        with pytest.raises(ValueError):
            ClassRegistry(frozenset({"a"}), frozenset({"a", "b"}))


class TestLambdaOracle:
    def test_empty(self):
        assert len(build_lambda_oracle([])) == 0

    def test_single_true_instance(self):
        oracle = build_lambda_oracle([SetSumInstance((1, 2, 3), 6)])
        assert oracle.members == frozenset({pair(0, 1)})

    def test_one_query_solver_matches_direct(self):
        instances = gen_instances(seed=9, count=30)
        oracle = build_lambda_oracle(instances)
        for idx, inst in enumerate(instances):
            run = solve_lambda_with_oracle(idx, inst, oracle, ground_truth=set_sum_direct(inst))
            assert run.correct is True and run.queries == 1

    def test_one_query_transcript(self):
        instances = [SetSumInstance((1, 2), 3), SetSumInstance((1, 2), 4)]
        oracle = build_lambda_oracle(instances)
        for idx, inst in enumerate(instances):
            run = solve_lambda_with_oracle(idx, inst, oracle)
            assert run.transcript == ((pair(idx, 1), idx == 0),)
            assert run.accepted is (idx == 0) and run.steps == 1


class TestBattery:
    def test_all_questions_demonstrated(self):
        instances = gen_instances(seed=42, count=20, r_min=3, r_max=8)
        report = lambda_report(instances)
        assert len(report.rows) == 5
        assert report.all_demonstrated()
        assert [row.oracle_kind for row in report.rows] == ["A", "B", "C", "D", "F"]

    def test_empty_battery(self):
        report = lambda_report([])
        assert report.work_table == ()
        # with no instances there is nothing to demonstrate on the corpus-wide rows
        assert not report.all_demonstrated()

    def test_work_table_shape(self):
        instances = gen_instances(seed=5, count=10, r_min=3, r_max=6)
        report = lambda_report(instances)
        for idx, r, direct, naive in report.work_table:
            assert direct == r and naive == 2**r

    def test_deterministic_under_seed(self):
        a = lambda_report(gen_instances(seed=7, count=15))
        b = lambda_report(gen_instances(seed=7, count=15))
        assert a == b

    def test_d_question_runs_on_the_suites_crafted_shape(self):
        report = lambda_report(gen_instances(seed=3, count=5, r_min=3, r_max=5))
        (d_row,) = [row for row in report.rows if row.oracle_kind == "D"]
        assert d_row.evidence[-1] == "crafted corpus: r=(2,4,9), budgets=((1,1),(1,1),(1,1))"
        corpus = craft_d_corpus()
        assert [(f.k, corpus.budget_for(f.id)) for f in corpus] == [
            (2, Budget(1, 1)), (4, Budget(1, 1)), (9, Budget(1, 1))]

    def test_omission_note_present(self):
        report = lambda_report(gen_instances(seed=3, count=5, r_min=3, r_max=5))
        assert "five questions" in report.omitted


class TestBatteryFailureAttribution:
    """Which rows turn NO with the solvers in relativize.analog corrupted on a
    fixed call pattern. Over the n = 6 instances, nd_solve's calls 0..5 are
    question 2's and 6..8 question 4's on D's crafted corpus; solve_with_C's
    0..5 are C's and 6..8 D's; solve_conp_with_C_bar's 0..5 are C_bar's,
    6..8 D_bar's and 9..14 F[co]'s."""

    INSTANCES = gen_instances(seed=42, count=6, r_min=3, r_max=6)
    ALL = {"A": True, "B": True, "C": True, "D": True, "F": True}

    def _rows(self, monkeypatch, corruptions):
        for name, pattern in corruptions.items():
            monkeypatch.setattr(analog, name, corrupted(getattr(analog, name), **pattern))
        return {row.oracle_kind: row.demonstrated for row in lambda_report(self.INSTANCES).rows}

    def test_uncorrupted(self, monkeypatch):
        assert self._rows(monkeypatch, {}) == self.ALL

    @pytest.mark.parametrize("corruptions, failed", [
        ({"solve_lambda_with_oracle": {"flips": {3}}}, "A"),
        ({"nd_solve": {"flips": {0}}}, "B"),
        ({"solve_with_C": {"inflates": {5}}}, "C"),
        ({"solve_conp_with_C_bar": {"flips": {0}}}, "C"),
        ({"nd_solve": {"flips": {6}}}, "D"),
        ({"solve_with_A": {"inflates": {2}}}, "F"),
        ({"solve_conp_with_C_bar": {"inflates": {14}}}, "F"),
    ])
    def test_each_question_fails_on_its_own_runs(self, monkeypatch, corruptions, failed):
        assert self._rows(monkeypatch, corruptions) == {**self.ALL, failed: False}

    def test_failures_and_rows_are_pinned(self, monkeypatch):
        # Inflating D's and D_bar's queries breaks no claim of question 4,
        # and flipping B's first verdict, a right one, leaves question 2
        # with wrong verdicts to show.
        rows = self._rows(monkeypatch, {
            "nd_solve": {"flips": {6}},
            "solve_with_C": {"inflates": {6, 7, 8}},
            "solve_conp_with_C_bar": {"inflates": {6, 7, 8}, "flips": {9}},
            "solve_with_B": {"flips": {0}},
        })
        assert rows == {"A": True, "B": True, "C": True, "D": False, "F": False}


class TestSerialization:
    def test_instance_file_round_trip(self, tmp_path):
        instances = gen_instances(seed=11, count=8)
        path = tmp_path / "instances.json"
        save_instances(instances, path)
        assert load_instances(path) == instances

    def test_csv_and_table(self, tmp_path):
        report = lambda_report(gen_instances(seed=2, count=8, r_min=3, r_max=6))
        out = tmp_path / "lambda.csv"
        write_lambda_csv(report, out)
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "question,oracle_kind,demonstrated,evidence"
        table = render_lambda_table(report)
        assert "work separation" in table and "resolution:" in table

    def test_failed_writes_keep_the_old_files(self, tmp_path, monkeypatch):
        import relativize.analog as analog

        report = lambda_report(gen_instances(seed=2, count=4, r_min=3, r_max=4))
        inst_path, csv_path = tmp_path / "instances.json", tmp_path / "lambda.csv"
        for path in (inst_path, csv_path):
            path.write_text("old\n", encoding="utf-8")

        def interrupted(fh, *args, **kwargs):
            fh.write("partial")
            raise RuntimeError("interrupted")

        monkeypatch.setattr(analog.json, "dump", lambda doc, fh, **kw: interrupted(fh))
        monkeypatch.setattr(analog.csv, "writer", interrupted)
        with pytest.raises(RuntimeError):
            save_instances(gen_instances(seed=2, count=4), inst_path)
        with pytest.raises(RuntimeError):
            write_lambda_csv(report, csv_path)
        for path in (inst_path, csv_path):
            assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["instances.json", "lambda.csv"]
