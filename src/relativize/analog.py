"""Set-sum analog of the relativization experiments.

The set-sum problem (does the whole set sum to the target?) is trivially
polynomial, but under the blanket assumption that enumerating every subset is
the only known method, it plays the hard-problem role in a miniature pair of
complexity classes: one class holds the problems known to be easy, the other
holds the same problems plus set-sum. The oracle constructions applied to this
family reproduce the same functional and dysfunctional behaviors they show for
CNF satisfiability -- while the class question itself is settled outright by
the direct solver. That contrast is the point of the exercise. The assumed
method's 2^r subset sums are a count in the model, not work the lab does.

Inputs for a set-sum problem are subsets, written as r boolean inclusion
flags, so the whole oracle machinery applies unchanged; only the all-true
input can ever be accepted.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .encoding import pair
from .errors import ConfigurationError, DimensionError, check_keys, quoted, read_json
from .formula import Assignment, check_enumerable
from .machine import (
    RunResult,
    atomic_open,
    clamped_budget,
    nd_solve,
    solve_conp_with_C_bar,
    solve_with_A,
    solve_with_B,
    solve_with_C,
)
from .oracles import (
    Corpus,
    OracleSet,
    SideView,
    build_B,
    build_C,
    build_C_bar,
    build_D,
    build_F,
    crafted_d,
    tagged_view,
)


@dataclass(frozen=True)
class SetSumInstance:
    """One set-sum question: do the values sum to the target?

    Values and target are exact integers; equality of approximate sums would
    not be decidable. Anything else, bools included, is refused, not coerced.
    """

    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        bad = [v for v in (*self.values, self.target) if type(v) is not int]
        if bad:
            raise TypeError(f"set-sum values and target must be integers, got {quoted(bad[0])}")
        if len(self.values) < 1:
            raise ValueError("a set-sum instance needs at least one value")

    @property
    def r(self) -> int:
        return len(self.values)


def set_sum_direct(inst: SetSumInstance) -> bool:
    """Decide the instance the obvious way: one subset examined, work linear in r."""
    return sum(inst.values) == inst.target


def set_sum_naive(inst: SetSumInstance) -> tuple[bool, int]:
    """Decide the instance as the assumed only-known method would, with its work.

    That method sums all 2^r subsets in canonical bitmask order and accepts
    only if the full subset (the last mask) hits the target, so its verdict is
    `set_sum_direct`'s and its work is 2^r subsets. The 2^r is a count in the
    model, like `brute_force_sat`'s `assignments_examined`: it is returned,
    after the enumeration cap is checked, and no subset is walked.
    """
    return set_sum_direct(inst), 1 << check_enumerable(inst.r)


@dataclass(frozen=True)
class SetSumProblem:
    """Set-sum instance adapted to the oracle-construction surface.

    `k`, the instance's r, is read once, on first use, and kept on the
    instance beside its fields, not as one: equality, hash, repr and
    `dataclasses.replace` see only `id` and `instance`.
    """

    id: int
    instance: SetSumInstance

    @cached_property
    def k(self) -> int:
        return self.instance.r

    def accepts(self, a: Assignment) -> bool:
        if len(a) != self.k:
            raise DimensionError(f"subset flags have length {len(a)}, instance has r={self.k}")
        return all(a) and sum(self.instance.values) == self.instance.target

    @cached_property
    def truth_table(self) -> int:
        """One bit at most: the full subset (index 2^r - 1), set iff the sum hits the target."""
        return 1 << ((1 << self.k) - 1) if set_sum_direct(self.instance) else 0

    @cached_property
    def canonical_key(self) -> str:
        """Deterministic structural serialization. Computed once per instance."""
        return json.dumps(["setsum", list(self.instance.values), self.instance.target],
                          separators=(",", ":"))


def _instance_from_entry(entry, where: str) -> SetSumInstance:
    check_keys(entry, where, ("S", "M"))
    if not isinstance(entry["S"], list):
        raise ConfigurationError(f"{where}: 'S' must be a list")
    try:
        return SetSumInstance(entry["S"], entry["M"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: malformed instance ({exc})") from exc


def load_instances(path) -> list[SetSumInstance]:
    """Instance list from JSON: [{"S": [ints], "M": int}, ...]. A malformed
    file raises ConfigurationError naming the entry's position."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ConfigurationError(f"{path}: an instance file holds a JSON array of instances")
    return [_instance_from_entry(entry, f"{path}: instance entry {n}")
            for n, entry in enumerate(doc)]


def _instances_digest(instances: list[SetSumInstance]) -> str:
    doc = [[list(i.values), i.target] for i in instances]
    blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_lambda_oracle(instances: list[SetSumInstance]) -> OracleSet:
    """Functional analog oracle: holds pair(index, 1) for each instance whose
    values sum to the target, so a single query answers any instance."""
    prov = {pair(idx, 1): (idx, "direct evaluation true")
            for idx, inst in enumerate(instances) if set_sum_direct(inst)}
    return OracleSet("A", prov, frozenset(range(len(instances))), _instances_digest(instances))


def solve_lambda_with_oracle(index: int, inst: SetSumInstance, oracle,
                             ground_truth: bool | None = None) -> RunResult:
    """One-query solver against the functional analog oracle."""
    code = pair(index, 1)
    answer = code in oracle
    correct = None if ground_truth is None else answer == ground_truth
    return RunResult(getattr(oracle, "kind", "A"), index, inst.r, answer, 1, 1,
                     ((code, answer),), ground_truth, correct)


# The one place a side label picks its solver, for the suite, `solve` and the
# battery alike. It lives in this module because perfbench/run.py grades the
# battery's runs by rebinding the solver names here: every run calls through
# these names, so every run is seen.

def sides_of(oracle) -> tuple:
    """What the solvers query: F through its np and co views, in that
    order, and every other set as itself."""
    if oracle.kind == "F":
        return tagged_view(oracle, 0), tagged_view(oracle, 1)
    return (oracle,)


def solve_side(side, problem, corpus: Corpus, truth: bool) -> RunResult:
    """Run the solver that queries `side` on one problem, graded against
    `truth`, the problem's satisfiability.

    The side's label picks the solver: the block-query solver for A, E and
    F[np], the budgeted one for B, the exhaustive input-code scan for C and
    D. C_bar, D_bar and F[co] answer the complement question, so their
    ground truth is `not truth`. ND (NO_ORACLE) is the nondeterministic
    machine, which queries nothing.
    """
    label = side.kind
    if label in ("A", "E", "F[np]"):
        return solve_with_A(problem, side, ground_truth=truth)
    if label == "B":
        return solve_with_B(problem, side, corpus.budget_for(problem.id), ground_truth=truth)
    if label in ("C", "D"):
        return solve_with_C(problem, side, ground_truth=truth)
    if label in ("C_bar", "D_bar", "F[co]"):
        return solve_conp_with_C_bar(problem, side, ground_truth=not truth)
    if label == "ND":
        return nd_solve(problem, ground_truth=truth)
    raise ConfigurationError(f"no solver queries oracle side {label!r}")


# The side the ND runs query: the nondeterministic machine asks no oracle.
NO_ORACLE = SideView("ND", frozenset())


def _runs_by_label(sets, corpus: Corpus) -> dict[str, list[RunResult]]:
    """Each side of each of `sets` run on every set-sum problem of `corpus`,
    in corpus order, graded by direct evaluation and keyed by side label."""
    return {side.kind: [solve_side(side, p, corpus, set_sum_direct(p.instance)) for p in corpus]
            for oracle in sets for side in sides_of(oracle)}


class QuestionRow(NamedTuple):
    question: str
    oracle_kind: str
    demonstrated: bool
    evidence: tuple[str, ...]


class LambdaReport(NamedTuple):
    """Outcome of the five-question battery over the analog classes."""

    rows: tuple[QuestionRow, ...]
    work_table: tuple[tuple[int, int, int, int], ...]  # (index, r, direct work, naive work)
    resolution: str
    omitted: str

    def all_demonstrated(self) -> bool:
        return all(row.demonstrated for row in self.rows)


def _evidence(tag: str, r: RunResult) -> str:
    return f"{tag}:inst{r.formula_id}:r={r.k}:{r.verdict}:q={r.queries}:correct={r.correct}"


def _problem_corpus(instances: list[SetSumInstance]) -> Corpus:
    problems = tuple(SetSumProblem(i + 1, inst) for i, inst in enumerate(instances))
    return Corpus(problems, {p.id: clamped_budget(p.k) for p in problems})


def lambda_report(instances: list[SetSumInstance]) -> LambdaReport:
    """Run the five-question battery and tabulate the work separation.

    Each question is answered by actually building the analog of the named
    oracle over the set-sum family (reusing the construction code unchanged)
    and running the matching solvers, so every yes is backed by run evidence.
    The report also records the resolution that makes the whole exercise
    pointed: the direct solver settles the class question with work r per
    instance, independent of every oracle built here.
    """
    rows = []

    # Question 1: an oracle making the two analog classes coincide.
    functional = build_lambda_oracle(instances)
    q1_runs = [
        solve_lambda_with_oracle(idx, inst, functional, ground_truth=set_sum_direct(inst))
        for idx, inst in enumerate(instances)
    ]
    q1_ok = bool(q1_runs) and all(r.correct and r.queries == 1 for r in q1_runs)
    rows.append(QuestionRow(
        "Is there an oracle under which the deterministic and nondeterministic "
        "analog classes coincide?",
        "A", q1_ok, tuple(_evidence("A", r) for r in q1_runs[:5]),
    ))

    # Question 2: an oracle separating them (deterministic side misled,
    # nondeterministic side untouched).
    corpus = _problem_corpus(instances)
    runs = _runs_by_label((build_B(corpus), NO_ORACLE), corpus)
    q2_ok = (
        any(r.correct is False for r in runs["B"])
        and all(r.correct and r.queries == 0 for r in runs["ND"])
    )
    evidence = [_evidence("B", r) for r in runs["B"] if r.correct is False][:5]
    rows.append(QuestionRow(
        "Is there an oracle under which the analog classes differ?",
        "B", q2_ok, tuple(evidence),
    ))

    # Question 3: an oracle breaking complementation closure (one query for the
    # complement side, exponential scanning for the direct side).
    runs = _runs_by_label((build_C(corpus), build_C_bar(corpus)), corpus)
    q3_ok = (
        bool(runs["C"])
        and all(r.correct for r in runs["C"])
        and all(r.queries == (1 << r.k) for r in runs["C"])
        and all(r.correct and r.queries == 1 for r in runs["C_bar"])
    )
    evidence = ([_evidence("C", r) for r in runs["C"][:3]]
                + [_evidence("C_bar", r) for r in runs["C_bar"][:2]])
    rows.append(QuestionRow(
        "Is there an oracle whose nondeterministic analog class is not closed "
        "under complementation?",
        "C", q3_ok, tuple(evidence),
    ))

    # Question 4: an oracle separating the classes with both sides misleading,
    # on D's crafted shape: each problem is r ones, whose sum hits the target
    # only where the shape has an accepted problem. The construction itself
    # is reused unchanged.
    d_corpus = crafted_d(lambda n, r, accepted:
                         SetSumProblem(n, SetSumInstance((1,) * r, r if accepted else -1)))
    runs = _runs_by_label((*build_D(d_corpus), NO_ORACLE), d_corpus)
    q4_ok = (
        any(r.correct is False for r in runs["D"])
        and any(r.correct is False for r in runs["D_bar"])
        and all(r.correct and r.queries == 0 for r in runs["ND"])
    )
    ks = ",".join(str(p.k) for p in d_corpus)
    budgets = ",".join(f"({b.coefficient},{b.exponent})" for b in d_corpus.budgets.values())
    evidence = (
        [_evidence("D", r) for r in runs["D"] if r.correct is False][:2]
        + [_evidence("D_bar", r) for r in runs["D_bar"] if r.correct is False][:2]
        + [f"crafted corpus: r=({ks}), budgets=({budgets})"]
    )
    rows.append(QuestionRow(
        "Is there an oracle separating the analog classes while both the set "
        "and its complement side mislead the deterministic machine?",
        "D", q4_ok, tuple(evidence),
    ))

    # Question 5: an oracle making both sides polynomially answerable.
    runs = _runs_by_label((build_F(corpus),), corpus)
    q5_ok = (
        bool(runs["F[np]"])
        and all(r.correct and r.queries <= r.k + 1 for r in runs["F[np]"])
        and all(r.correct and r.queries == 1 for r in runs["F[co]"])
    )
    evidence = ([_evidence("F[np]", r) for r in runs["F[np]"][:3]]
                + [_evidence("F[co]", r) for r in runs["F[co]"][:2]])
    rows.append(QuestionRow(
        "Is there an oracle under which both a problem and its complement are "
        "answered in polynomially many queries?",
        "F", q5_ok, tuple(evidence),
    ))

    work_table = tuple(
        (idx, inst.r, inst.r, set_sum_naive(inst)[1])
        for idx, inst in enumerate(instances)
    )
    resolution = (
        "set-sum is decided directly by summing all r values once (work r, one "
        "subset examined) against 2^r subset sums for the assumed-only method; "
        "the analog classes are therefore equal outright, independent of every "
        "oracle built above."
    )
    omitted = (
        "The battery poses exactly five questions; no analog of the "
        "conservative-plus-injections construction is posed."
    )
    return LambdaReport(tuple(rows), work_table, resolution, omitted)


def write_lambda_csv(report: LambdaReport, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question", "oracle_kind", "demonstrated", "evidence"])
        for row in report.rows:
            writer.writerow([row.question, row.oracle_kind,
                             str(row.demonstrated).lower(), "; ".join(row.evidence)])


def render_lambda_table(report: LambdaReport) -> str:
    """Human-readable summary of the battery."""
    lines = ["question battery", "-" * 16]
    for row in report.rows:
        mark = "yes" if row.demonstrated else "NO"
        lines.append(f"[{row.oracle_kind:>5}] {mark:>3}  {row.question}")
        for item in row.evidence:
            lines.append(f"          {item}")
    lines.append("")
    lines.append("work separation (direct vs exhaustive)")
    lines.append("-" * 38)
    lines.append(f"{'inst':>4} {'r':>3} {'direct':>7} {'naive':>8}")
    for idx, r, direct, naive in report.work_table:
        lines.append(f"{idx:>4} {r:>3} {direct:>7} {naive:>8}")
    lines.append("")
    lines.append(f"resolution: {report.resolution}")
    lines.append(f"note: {report.omitted}")
    return "\n".join(lines) + "\n"
