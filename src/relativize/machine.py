"""The oracle-machine model: budgeted deterministic solvers, a simulated
nondeterministic solver, and exact per-run accounting.

Step accounting follows the input-sets-examined convention: a deterministic
solver's steps count the assignments it examined (or the encodings it
prepared), each oracle query costs one query and is answered instantaneously,
and a run's transcript reads as every (code, answer) pair in order. A scan's
is held lazily: an input-code scan's as the four numbers that determine it, a
block scan's as its problem, how many blocks it asked and whether it hit,
and each prints its own codes. The
nondeterministic solver explores all branches at once in the model, so its
model-level cost is a single step and it never enters the query state; the
work done to simulate it is recorded separately and never conflated with the
model cost.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat

from .encoding import block_code_texts, block_codes, code_digit_limit, input_code_at, input_codes
from .errors import ConfigurationError
from .formula import check_enumerable, first_accepted, truth_table


@dataclass(frozen=True)
class Budget:
    """Polynomial step allowance p(n) = coefficient * n ** exponent."""

    coefficient: int
    exponent: int

    def __post_init__(self):
        if self.coefficient < 0 or self.exponent < 0:
            raise ValueError("budget coefficient and exponent must be naturals")

    def steps(self, n: int) -> int:
        return self.coefficient * n**self.exponent

    def steps_below(self, n: int, bound: int) -> int:
        """min(p(n), bound) for a natural bound, without building a p(n) far
        past it: n**e >= 2**(e * floor(log2 n)), so when that exponent reaches
        the bound's bit length, p(n) > bound for any coefficient >= 1."""
        if not self.coefficient:
            return 0
        if self.exponent * (n.bit_length() - 1) >= bound.bit_length():
            return bound
        return min(self.steps(n), bound)


DEFAULT_BUDGET = Budget(2, 2)
_SQUARE_BUDGET, _LINEAR_BUDGET = Budget(1, 2), Budget(1, 1)


def clamped_budget(k: int, preferred: Budget = DEFAULT_BUDGET) -> Budget:
    """Largest of a few standard budgets still strictly below 2^k.

    Budgeted searches must never be able to cover the whole assignment space,
    so corpora pick per-formula budgets through this clamp (the preferred
    2*n^2 only satisfies p(k) < 2^k from k = 7 up).
    """
    space = 1 << k
    for b in (preferred, _SQUARE_BUDGET):
        if b.steps_below(k, space) < space:
            return b
    return _LINEAR_BUDGET  # p(k) = k < 2^k for every k


@dataclass(frozen=True, init=False)
class RunResult:
    """One solver run: verdict, work, queries, and the ground-truth comparison.

    Its own `__init__` takes the fields in order, with their defaults, as the
    generated one would, but stores them with one dict update instead of one
    `object.__setattr__` per field, which a frozen dataclass's would make:
    every solver run builds one, and that was most of a short run's cost.
    Equality, hash, repr, `fields()`, `replace()` and frozenness are the
    dataclass's own.
    """

    oracle: str
    formula_id: int
    k: int
    accepted: bool
    steps: int
    queries: int
    transcript: Iterable[tuple[int, bool]]
    ground_truth: bool | None = None
    correct: bool | None = None
    simulated_work: int | None = None

    def __init__(self, oracle: str, formula_id: int, k: int, accepted: bool, steps: int,
                 queries: int, transcript: Iterable[tuple[int, bool]],
                 ground_truth: bool | None = None, correct: bool | None = None,
                 simulated_work: int | None = None):
        vars(self).update(oracle=oracle, formula_id=formula_id, k=k, accepted=accepted,
                          steps=steps, queries=queries, transcript=transcript,
                          ground_truth=ground_truth, correct=correct,
                          simulated_work=simulated_work)

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"


def _result(label, f, accepted, steps, transcript, ground_truth, simulated_work=None):
    correct = None if ground_truth is None else accepted == ground_truth
    # by position: passing the ten fields by keyword makes the call half as dear again
    return RunResult(label, f.id, f.k, accepted, steps, len(transcript), transcript,
                     ground_truth, correct, simulated_work)


class ScanTranscript:
    """The transcript of an input-code scan, held as the four numbers that
    determine it instead of one (code, answer) pair per query.

    A scan asks input_code_at(problem_id, e, k) for e = 0, 1, ... in turn and
    stops at its first yes, so every answer is no but the last, which is yes
    iff the scan hit. It reads as the tuple of those pairs when iterated:
    the same len, the same pairs in order, equality either way round, and
    hash. It has no random access; every reader walks it.
    (A plain class: a dataclass would add a millisecond to every import.)
    """

    __slots__ = ("problem_id", "k", "queries", "hit")

    def __init__(self, problem_id: int, k: int, queries: int, hit: bool):
        self.problem_id, self.k, self.queries, self.hit = problem_id, k, queries, hit

    def codes(self):
        return input_codes(self.problem_id, self.k, self.queries)

    def __len__(self) -> int:
        return self.queries

    def __iter__(self):
        no = self.queries - self.hit
        return zip(self.codes(), chain(repeat(False, no), repeat(True, self.hit)))

    def __eq__(self, other):
        if not isinstance(other, (tuple, ScanTranscript)):
            return NotImplemented
        return len(other) == self.queries and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


class BlockScan(ScanTranscript):
    """The transcript of a block scan, which holds its problem: it asks
    partition_code(problem, t) for t = 0, 1, ... in turn and stops at its
    first yes, so its codes are a prefix of the problem's cached
    `block_codes` tuple. Its texts are not str() of each code: they are a
    prefix of the problem's list of block-code texts (`block_code_texts`),
    so every scan of one problem instance reads the texts made once for it."""

    __slots__ = ("problem",)

    def __init__(self, problem, queries: int, hit: bool):
        super().__init__(problem.id, problem.k, queries, hit)
        self.problem = problem

    def codes(self):
        return iter(block_codes(self.problem)[:self.queries])

    def texts(self):
        return block_code_texts(self.problem, self.queries)


def _label(oracle) -> str:
    return getattr(oracle, "kind", "oracle")


def _require_covered(f, oracle):
    ids = getattr(oracle, "corpus_ids", None)
    if ids is not None and f.id not in ids:
        raise ConfigurationError(
            f"oracle {_label(oracle)!r} was not built over a corpus containing problem {f.id}"
        )


def nd_solve(f, ground_truth: bool | None = None) -> RunResult:
    """Simulated nondeterministic run.

    All branches run at once in the model, so the reported cost is one step and
    the oracle is never consulted; `simulated_work` is what a sequential
    simulation in canonical order would examine: up to and including the
    first accepting assignment, or all 2^k when there is none.
    """
    table = truth_table(f)
    work = first_accepted(table) + 1 if table else 1 << f.k
    return _result("ND", f, table != 0, steps=1, transcript=(),
                   ground_truth=ground_truth, simulated_work=work)


def solve_with_A(f, oracle, ground_truth: bool | None = None,
                 max_queries: int | None = None) -> RunResult:
    """Block-query solver: ask the oracle about each true-count block in turn.

    Accepts on the first yes, rejects once all k+1 blocks answered no. No
    assignment is ever examined directly, so steps = queries <= k + 1, and
    the transcript is a BlockScan of exactly those blocks. `max_queries`
    caps the scan for budgeted staging; None scans every block.
    """
    _require_covered(f, oracle)
    blocks = f.k + 1
    limit = blocks if max_queries is None else max(0, min(max_queries, blocks))
    hit = next((t for t, code in enumerate(block_codes(f)[:limit]) if code in oracle), None)
    queries = limit if hit is None else hit + 1
    return _result(_label(oracle), f, hit is not None, steps=queries,
                   transcript=BlockScan(f, queries, hit is not None), ground_truth=ground_truth)


def solve_with_B(f, oracle, budget: Budget, ground_truth: bool | None = None) -> RunResult:
    """Budgeted direct search with a single oracle fallback.

    Examines assignments in canonical order until a witness appears or the
    budget p(k) runs out. A completed search is definitive; a truncated one
    queries the code of the next unexamined assignment and returns the oracle's
    answer as the verdict. That final answer is exactly where a dysfunctional
    oracle set misleads the machine, so the verdict may be wrong by design and
    `correct` records it. Whether the examined prefix holds a witness, and
    where, is read from the truth table's lowest set bit.
    """
    _require_covered(f, oracle)
    table = truth_table(f)
    k = f.k
    limit = budget.steps_below(k, 1 << k)
    first = first_accepted(table) if table else limit
    if first < limit:
        return _result(_label(oracle), f, True, steps=first + 1,
                       transcript=(), ground_truth=ground_truth)
    if limit >= 1 << k:
        return _result(_label(oracle), f, False, steps=limit,
                       transcript=(), ground_truth=ground_truth)
    code = input_code_at(f.id, limit, k)
    answer = code in oracle
    return _result(_label(oracle), f, answer, steps=limit,
                   transcript=((code, answer),), ground_truth=ground_truth)


def solve_with_C(f, oracle, ground_truth: bool | None = None,
                 max_queries: int | None = None) -> RunResult:
    """Input-query enumeration solver: ask about every assignment in canonical
    order, accepting on the first yes.

    Worst case 2^k queries; that exponential scan is the whole point of the
    construction it pairs with. An oracle with a `first_hits()` index (a
    built set, see `OracleSet.first_hits`) is read through it: the first yes
    is the least e it records for (f.id, k), if that is below the cap, and a
    set indexes its members once, on its first C run, however many runs
    follow. Any other container (a construction's live map, F's TaggedUnion,
    a SideView, or a set that is a rule) is asked code by code through its
    `in`, each code computed lazily from its assignment index. Either way
    the run is the same: steps equal the queries the scan asks, the
    transcript is a ScanTranscript of exactly those codes, and every count
    and report byte is what the code-by-code scan gives. `max_queries`
    limits the scan for budgeted staging; None scans the full space.
    """
    _require_covered(f, oracle)
    k = check_enumerable(f.k)
    total = 1 << k if max_queries is None else max(0, min(max_queries, 1 << k))
    index = getattr(oracle, "first_hits", None)
    hits = None if index is None else index()
    if hits is None:
        hit = next(compress(count(), map(oracle.__contains__, input_codes(f.id, k, total))),
                   None)
    else:
        hit = hits.get((f.id, k), total)
        hit = hit if hit < total else None
    queries = total if hit is None else hit + 1
    return _result(_label(oracle), f, hit is not None, steps=queries,
                   transcript=ScanTranscript(f.id, k, queries, hit is not None),
                   ground_truth=ground_truth)


def solve_conp_with_C_bar(f, oracle, ground_truth: bool | None = None) -> RunResult:
    """One-query solver for the complement question: does f reject every input?

    Queries the first canonical input code and accepts iff the oracle says yes.
    Complement-style sets hold every input code of a problem precisely when the
    problem has no accepting assignment, so against them one query decides the
    question; `ground_truth` should be the complement-side truth (f has no
    accepting assignment).
    """
    _require_covered(f, oracle)
    code = input_code_at(f.id, 0, f.k)
    answer = code in oracle
    return _result(_label(oracle), f, answer, steps=1,
                   transcript=((code, answer),), ground_truth=ground_truth)


def run_report(results: list[RunResult]) -> dict:
    """Tally a batch of runs into summary.json's "totals", "max_queries_by_k"
    (sorted by k) and "by_oracle" (sorted by label) blocks."""
    totals = {"runs": len(results), "accepted": 0, "incorrect": 0, "queries": 0}
    max_by_k: dict[int, int] = {}
    by_oracle: dict[str, dict] = {}
    for r in results:
        totals["accepted"] += r.accepted
        totals["queries"] += r.queries
        max_by_k[r.k] = max(max_by_k.get(r.k, 0), r.queries)
        t = by_oracle.setdefault(r.oracle, {"runs": 0, "correct": 0, "incorrect": 0,
                                            "ungraded": 0, "max_queries": 0})
        t["runs"] += 1
        if r.correct is True:
            t["correct"] += 1
        elif r.correct is False:
            t["incorrect"] += 1
            totals["incorrect"] += 1
        else:
            t["ungraded"] += 1
        t["max_queries"] = max(t["max_queries"], r.queries)
    for t in by_oracle.values():
        graded = t["correct"] + t["incorrect"]
        t["correctness_rate"] = t["correct"] / graded if graded else 0.0
    return {"totals": totals, "max_queries_by_k": dict(sorted(max_by_k.items())),
            "by_oracle": dict(sorted(by_oracle.items()))}


def run_result_to_json(r: RunResult) -> dict:
    """JSON-safe view of a run, each code as its decimal string."""
    return {
        "oracle": r.oracle,
        "formula_id": r.formula_id,
        "k": r.k,
        "verdict": r.verdict,
        "steps": r.steps,
        "queries": r.queries,
        "transcript": [[str(code), answer] for code, answer in r.transcript],
        "ground_truth": r.ground_truth,
        "correct": r.correct,
        "simulated_work": r.simulated_work,
    }


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open `path` for writing UTF-8 text through a sibling `.tmp` file that
    replaces it only once the block completes, so a reader never sees a
    partial file; on failure the temp file is removed and `path` untouched."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# One report line: the head fields, the transcript, then the tail fields.
_HEAD = ('{"oracle":%s,"formula_id":%d,"k":%d,"verdict":"%s","steps":%d,"queries":%d,'
         '"transcript":')
_TAIL = ',"ground_truth":%s,"correct":%s,"simulated_work":%s}\n'
# Only for bool-or-None fields: 1 == True, so a count must never be looked up here.
_JSON_WORD = {True: "true", False: "false", None: "null"}
_NO_THEN = '",false],["'
_LAST = {True: '",true]]', False: '",false]]'}


def _scan_chunks(t: ScanTranscript):
    """A scan transcript as JSON, [["c",false],...,["c",true]], in pieces:
    every answer is false but the last. A block scan's at most k + 1 texts
    are its problem's list. An input-code scan's codes are taken a batch at
    a time, each batch written by one %-template, so a rejected k = 20 scan,
    2^20 codes, is never built whole."""
    if not t.queries:
        yield "[]"
        return
    if isinstance(t, BlockScan):
        yield '[["' + _NO_THEN.join(t.texts())
    else:
        codes = t.codes()
        yield '[["%d' % next(codes)
        while batch := tuple(islice(codes, 4096)):
            yield (_NO_THEN + "%d") * len(batch) % batch
    yield _LAST[t.hit]


def _plain_text(t) -> str:
    """A plain tuple of (code, answer) pairs as JSON, each code through str."""
    return "[" + ",".join('["%s",%s]' % (code, "true" if answer else "false")
                          for code, answer in t) + "]"


def write_results_jsonl(results: list[RunResult], path) -> None:
    """One JSON line per run, written atomically, each from one template:
    the head fields, the transcript, then the tail fields.

    A scan's transcript, input-code (C's, D's) or block (A's, E's, F[np]'s),
    is streamed into its line from `_scan_chunks`; a block scan's texts are
    its problem's, so F[np]'s runs print no code that A's did not. A plain
    tuple's codes go through str. The writer keeps nothing between lines.
    """
    with code_digit_limit(), atomic_open(path) as fh:
        for r in results:
            t = r.transcript
            work = "null" if r.simulated_work is None else r.simulated_work
            fh.write(_HEAD % (json.dumps(r.oracle), r.formula_id, r.k, r.verdict, r.steps,
                              r.queries))
            if isinstance(t, ScanTranscript):
                fh.writelines(_scan_chunks(t))
            else:
                fh.write(_plain_text(t))
            fh.write(_TAIL % (_JSON_WORD[r.ground_truth], _JSON_WORD[r.correct], work))


def write_results_csv(results: list[RunResult], path) -> None:
    """The per-run table, one CSV row per run, written atomically."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["oracle", "formula_id", "k", "verdict", "steps", "queries", "correct"])
        for r in results:
            correct = "" if r.correct is None else str(r.correct).lower()
            writer.writerow([r.oracle, r.formula_id, r.k, r.verdict, r.steps, r.queries, correct])
