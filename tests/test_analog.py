import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relativize import (
    CapacityError,
    SetSumInstance,
    SetSumProblem,
    build_lambda_oracle,
    gen_instances,
    lambda_report,
    pair,
    set_sum_direct,
    set_sum_naive,
    solve_lambda_with_oracle,
)
from relativize.analog import (
    load_instances,
    render_lambda_table,
    save_instances,
    write_lambda_csv,
)

from reference import SET_SUM, ClassRegistry, default_registry


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

    def test_naive_cap(self):
        inst = SetSumInstance(tuple(range(8)), 0)
        with pytest.raises(CapacityError):
            set_sum_naive(inst, cap=6)

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
        assert a.canonical_key() != b.canonical_key()


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

    def test_omission_note_present(self):
        report = lambda_report(gen_instances(seed=3, count=5, r_min=3, r_max=5))
        assert "five questions" in report.omitted


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
