"""Mutation check: each entry of MUTANTS breaks one check the suite or the
corpus relies on, and the tests named with it must then fail.

    python3 .github/mutants.py

Copies the checkout (without .git and caches) into a temporary directory
outside it. There, the tests of every entry first run on the unmutated
copy and must pass, so a mutant counts as killed only by a test that
passes without it. Then each mutant replaces its exact old text, which must
occur once in its file, runs `pytest -x -q` on its test node ids, and puts
the file back. Exits 1 if an entry's old text is missing (a refactor moved
the code, so the table must follow it) or if a mutant survives. Standard
library only; run from the root of a checkout with pytest and hypothesis
installed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ENCODING = "src/relativize/encoding.py"
HARNESS = "src/relativize/harness.py"
MACHINE = "src/relativize/machine.py"
ORACLES = "src/relativize/oracles.py"
ATTRIBUTION = "tests/test_harness.py::TestFailureAttribution::"
CACHED = "tests/test_truth_table.py::TestCachedCodes::"
CAP = "tests/test_harness.py::TestCap::"
CORPUS_SIZE = "tests/test_harness.py::TestCorpusSize::"
GEN_CORPUS = "tests/test_harness.py::TestGenCorpus::"
MEMBER_SCAN = "tests/test_truth_table.py::TestMemberScan::"

MUTANTS = (
    Mutant("B's budget check", HARNESS,
           "check(p < (1 << f.k), ", "check(True, ",
           (ATTRIBUTION + "test_a_budget_not_below_2_to_the_k_fails_b",)),
    Mutant("B's step-2 check", HARNESS,
           "check(bool(step2), ", "check(True, ",
           (ATTRIBUTION + "test_b_wrong_only_where_no_step_2_member_answered_fails_b",)),
    Mutant("D's step-5 trace", HARNESS,
           'check(bool(_traced_to(d_runs, d_set, "step 5")),', "check(True,",
           (ATTRIBUTION + "test_d_with_no_wrong_step_5_run_fails_d",)),
    Mutant("D's step-8 trace", HARNESS,
           'check(bool(_traced_to(dbar_runs, dbar_set, "step 8")),', "check(True,",
           (ATTRIBUTION + "test_d_bar_with_no_wrong_step_8_run_fails_d",)),
    Mutant("E's kappa equality", HARNESS,
           "check(e_kappa == a_kappa, ", "check(True, ",
           (ATTRIBUTION + "test_e_gaining_a_complement_paired_code_fails_e",)),
    Mutant("E's injection check", HARNESS,
           "check(bool(injected), ", "check(True, ",
           (ATTRIBUTION + "test_e_without_an_injection_fails_e",)),
    Mutant("C's doubling check", HARNESS,
           "check(growth[k + 1] == 2 * growth[k],", "check(True,",
           (ATTRIBUTION + "test_a_rejected_c_scan_off_2_to_the_k_fails_c",)),
    Mutant("ND's query check", HARNESS,
           "check(all(r.queries == 0 for r in runs), ", "check(True, ",
           (ATTRIBUTION + "test_an_nd_run_that_queries_fails_b",)),
    Mutant("the per-run correctness rule", HARNESS,
           "_CORRECT = (lambda r, f, corpus: r.correct is True,",
           "_CORRECT = (lambda r, f, corpus: True,",
           (ATTRIBUTION + "test_failures_and_rows_are_pinned",)),
    Mutant("the per-run k+1 query rule", HARNESS,
           "(lambda r, f, corpus: r.queries <= f.k + 1,", "(lambda r, f, corpus: True,",
           (ATTRIBUTION + "test_failures_and_rows_are_pinned",)),
    Mutant("the per-run one-query rule", HARNESS,
           "(lambda r, f, corpus: r.queries == 1,", "(lambda r, f, corpus: True,",
           (ATTRIBUTION + "test_failures_and_rows_are_pinned",)),
    Mutant("C's per-run 2^k rule", HARNESS,
           "(lambda r, f, corpus: r.ground_truth or r.queries == 1 << f.k,",
           "(lambda r, f, corpus: True,",
           (ATTRIBUTION + "test_a_rejected_c_scan_off_2_to_the_k_fails_c",)),
    Mutant("A's per-run budget rule", HARNESS,
           "or r.steps <= corpus.budget_for(f.id).steps_below(f.k, r.steps) + f.k + 1,",
           "or True,",
           (ATTRIBUTION + "test_an_accepting_a_run_over_its_budget_fails_a",)),
    Mutant("E's per-run correctness rule", HARNESS,
           '"E": ((lambda r, f, corpus: r.correct is True,', '"E": ((lambda r, f, corpus: True,',
           (ATTRIBUTION + "test_failures_and_rows_are_pinned",)),
    Mutant("the corpus's cap left to its readers", HARNESS,
           "check_enumerable(config.k_range[1])", "config.k_range[1]",
           (CAP + "test_cli_checks_the_cap_before_making_its_corpus[suite]",
            CAP + "test_cli_checks_the_cap_before_making_its_corpus[gen-corpus]",
            CAP + "test_cli_stops_at_a_low_cap")),
    Mutant("the corpus-size check dropped", HARNESS,
           "    check_corpus_size(config)\n", "",
           (CORPUS_SIZE + "test_cli_refuses_a_huge_corpus_before_making_it[suite-density]",
            CORPUS_SIZE + "test_cli_refuses_a_huge_corpus_before_making_it[gen-corpus-per-k]")),
    Mutant("an empty out_dir accepted", HARNESS,
           "if not self.out_dir:", "if False:",
           ("tests/test_harness.py::TestCli::test_an_empty_output_path_is_refused[config-out-dir]",)),
    Mutant("the draw's pool slot not refilled", HARNESS,
           "pool[j] = pool[m - 1]", "pass",
           (GEN_CORPUS + "test_draws_as_random_sample",)),
    Mutant("the draw's repeated index kept", HARNESS,
           "if j < n and j not in picks:", "if j < n:",
           (GEN_CORPUS + "test_draws_as_random_sample",)),
    Mutant("a longer scan reads the short list", ENCODING,
           "len(texts) < stop", "not texts",
           (CACHED + "test_block_code_text_row_grows_only_as_far_as_asked",)),
    Mutant("the block-text list read whole", ENCODING,
           "return texts[:stop]", "return texts",
           (CACHED + "test_block_code_text_row_grows_only_as_far_as_asked",)),
    Mutant("the block scan's codes one block on", MACHINE,
           "block_codes(self.problem)[:self.queries]",
           "block_codes(self.problem)[1:self.queries + 1]",
           ("tests/test_truth_table.py::TestScanTranscript::"
            "test_block_scan_reads_as_the_reference_tuple",)),
    Mutant("A's transcript dropping its hit", MACHINE,
           "transcript=BlockScan(f, queries, hit is not None)",
           "transcript=BlockScan(f, queries, False)",
           ("tests/test_truth_table.py::TestScanTranscript::"
            "test_block_scan_reads_as_the_reference_tuple",)),
    Mutant("A's scan one block past its cap", MACHINE,
           "block_codes(f)[:limit]", "block_codes(f)[:limit + 1]",
           ("tests/test_machine.py::TestSolveWithA::test_capped_scan_asks_no_block_past_its_cap",
            "tests/test_truth_table.py::TestScanTranscript::"
            "test_block_scan_reads_as_the_reference_tuple")),
    Mutant("a run stored without its correct field", MACHINE,
           "ground_truth=ground_truth, correct=correct,",
           "ground_truth=ground_truth, correct=None,",
           ("tests/test_machine.py::TestRunResult::test_builds_as_the_plain_twin",)),
    Mutant("input_index accepting padding 1", ENCODING,
           "if n or not framed:", "if n > 1 or not framed:",
           ("tests/test_encoding.py::TestInputIndex::test_decodes_exactly_the_padding_0_codes",
            "tests/test_encoding.py::TestInputIndex::test_any_natural_as_the_reference_reads_it",
            MEMBER_SCAN + "test_matches_the_code_by_code_reference",
            "tests/test_truth_table.py::TestRejectedInputs::test_answers_as_the_reference_dict")),
    Mutant("D's next index one past the scan", ORACLES,
           "e = staged.queries\n", "e = staged.queries + 1\n",
           ("tests/test_truth_table.py::TestInputCodes::test_build_D",
            "tests/test_truth_table.py::TestInputCodes::test_build_D_crafted")),
    Mutant("E's stage cap at 2", ORACLES,
           "E_STAGE_CAP = 3", "E_STAGE_CAP = 2",
           ("tests/test_oracles.py::TestBuildE::test_third_stage_scans_its_problem",
            "tests/test_oracles.py::TestBuildE::test_stages_run_on_disjoint_k_ranges")),
    Mutant("the budgets freeze", ORACLES,
           "MappingProxyType(dict(self.budgets))", "dict(self.budgets)",
           (CACHED + "test_budgets_are_frozen_at_construction",)),
    Mutant("the cached corpus digest", ORACLES,
           'digest = cache.get("_digest")', "digest = None",
           (CACHED + "test_each_corpus_is_hashed_once",)),
    Mutant("the first-hit index keeping the largest e", ORACLES,
           "self.provenance)), reverse=True)", "self.provenance)))",
           (MEMBER_SCAN + "test_a_set_is_decoded_once_for_every_cap",)),
    Mutant("the first-hit index read by owner alone", ORACLES,
           "hits = {(i, k): e for i, k, e in decoded}",
           "hits = {(i, k): min(e for j, _, e in decoded if j == i) for i, k, _ in decoded}",
           (MEMBER_SCAN + "test_a_set_is_decoded_once_for_every_cap",)),
    Mutant("the corpus's A set built again for F", ORACLES,
           'built = cache.get("_A")', "built = None",
           (CACHED + "test_a_is_built_once_per_corpus",)),
    Mutant("a built set's provenance left writable", ORACLES,
           'MappingProxyType(dict(self.provenance))', "dict(self.provenance)",
           (CACHED + "test_built_sets_are_read_only",)),
    Mutant("a built F's side left writable", ORACLES,
           "self.sides = (MappingProxyType(dict(np)), MappingProxyType(dict(co)))",
           "self.sides = (np, co)",
           (CACHED + "test_built_rules_are_read_only",)),
    Mutant("C_bar's rule left writable", ORACLES,
           "self.rejected = MappingProxyType(dict(rejected))", "self.rejected = rejected",
           (CACHED + "test_built_rules_are_read_only",)),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench_work", "results")


def pytest(copy: Path, tests) -> bool:
    """Whether `pytest -x -q` passes on the node ids `tests` in `copy`.

    No bytecode is written: a cached .pyc is trusted by its source's size
    and mtime in whole seconds, so a mutant of the same length written in
    the same second as the file it replaced could run as the other."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    start = time.perf_counter()
    missing = []
    for m in MUTANTS:
        count = Path(m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            missing.append(f"{m.name}: {m.file} holds its old text {count} times, not once")
    if missing:
        print("\n".join(missing))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(Path.cwd(), copy, ignore=IGNORED)
        if not pytest(copy, sorted({t for m in MUTANTS for t in m.tests})):
            print("the tests fail on the unmutated checkout")
            return 1
        survivors = []
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                killed = not pytest(copy, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{'killed' if killed else 'SURVIVED'}: {m.name}")
            if not killed:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
