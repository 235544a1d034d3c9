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


HARNESS = "src/relativize/harness.py"
ATTRIBUTION = "tests/test_harness.py::TestFailureAttribution::"
CACHED = "tests/test_truth_table.py::TestCachedCodes::"

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
    Mutant("E's per-run correctness rule", HARNESS,
           '"E": ((lambda r, f, corpus: r.correct is True,', '"E": ((lambda r, f, corpus: True,',
           (ATTRIBUTION + "test_failures_and_rows_are_pinned",)),
    Mutant("the budgets freeze", "src/relativize/oracles.py",
           "MappingProxyType(dict(self.budgets))", "dict(self.budgets)",
           (CACHED + "test_budgets_are_frozen_at_construction",)),
    Mutant("the cached corpus digest", "src/relativize/oracles.py",
           'digest = cache.get("_digest")', "digest = None",
           (CACHED + "test_each_corpus_is_hashed_once",)),
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
