"""Experiment harness and CLI.

Generates seeded corpora, builds oracle sets, runs the matching solvers,
cross-checks every verdict against the exhaustive ground truth, and writes
CSV/JSONL/JSON reports. The suite's exit status is the acceptance signal: it
is nonzero iff any invariant assertion failed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .analog import (
    NO_ORACLE,
    lambda_report,
    load_instances,
    render_lambda_table,
    sides_of,
    solve_side,
    write_lambda_csv,
)
from .encoding import block_codes, code_digit_limit
from .errors import (
    CapacityError, ConfigurationError, OracleFileError, check_keys, os_error_text, quoted,
    read_json)
from .formula import Formula, brute_force_sat, check_enumerable, default_literals, enumeration_cap
from .machine import (
    DEFAULT_BUDGET,
    Budget,
    RunResult,
    atomic_open,
    clamped_budget,
    run_report,
    run_result_to_json,
    write_results_csv,
    write_results_jsonl,
)
from .oracles import (
    KINDS,
    Corpus,
    OracleSet,
    build_A,
    build_B,
    build_C,
    build_C_bar,
    build_D,
    build_E,
    build_F,
    crafted_d,
    kappa_ids,
    load_oracle,
    save_oracle,
)


def _is_int_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)


def _is_budget(value) -> bool:
    return _is_int_pair(value) and min(value) >= 0


# ---------------------------------------------------------------- corpora

def craft_unsat(fid: int, k: int) -> Formula:
    """Contradiction padded to k literals; unsatisfiable for every k."""
    return Formula(fid, default_literals(k), (((0, True),), ((0, False),)))


def craft_all_true(fid: int, k: int) -> Formula:
    """k unit clauses forcing every literal true: the sole witness is the last
    assignment in canonical order."""
    return Formula(fid, default_literals(k), tuple(((j, True),) for j in range(k)))


def _draw_indices(getrandbits, n: int, width: int) -> list[int]:
    """`random.sample(range(n), width)` for width <= 5, from the same
    `getrandbits` calls as CPython 3.10-3.12 make: for n <= 21 from a pool of
    the n indices, each pick's slot refilled from the end; above that by
    redrawing until an unpicked index below n comes up. A seed's corpus rests
    on these calls, so they are fixed here rather than left to `random`."""
    picks = []
    if n <= 21:
        pool = list(range(n))
        for m in range(n, n - width, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        while len(picks) < width:
            j = getrandbits(bits)
            if j < n and j not in picks:
                picks.append(j)
    return picks


def gen_corpus(config: ExperimentConfig) -> Corpus:
    """Seeded random k-CNF corpus plus crafted entries.

    Per k: `formulas_per_k` random formulas (clause count round(density*k),
    width 3 truncated to k, indices drawn by `_draw_indices`), then one
    unsatisfiable formula, one latest-possible-witness formula, and a
    unit-clause complement pair so the complements-present subset is never
    empty. Budgets are clamped per k to stay below 2^k.

    Refuses a k range past the enumeration cap (slow to make far past it,
    and refused by every reader) and a corpus past MAX_CORPUS_CLAUSES
    before it draws anything.
    """
    check_corpus_size(config)
    rng = random.Random(config.seed)
    getrandbits, coin = rng.getrandbits, rng.random
    lo, hi = config.k_range
    formulas: list[Formula] = []
    budgets: dict[int, Budget] = {}
    fid = 1

    def add(f: Formula) -> None:
        nonlocal fid
        formulas.append(f)
        budgets[f.id] = budget
        fid += 1

    for k in range(lo, hi + 1):
        names = default_literals(k)
        budget = clamped_budget(k, config.budget)
        n_clauses = max(1, round(config.clause_density * k))
        width = min(3, k)
        for _ in range(config.formulas_per_k):
            clauses = []
            for _ in range(n_clauses):
                idxs = _draw_indices(getrandbits, k, width)
                idxs.sort()
                clauses.append([(i, coin() < 0.5) for i in idxs])
            add(Formula(fid, names, clauses))
        add(craft_unsat(fid, k))
        add(craft_all_true(fid, k))
        add(Formula(fid, names, (((0, True),),)))
        add(Formula(fid, names, (((0, False),),)))
    return Corpus(tuple(formulas), budgets)


# The most random clauses a seeded corpus may draw. The largest config the
# tests, README and benchmark run, k 6..20 at 10 per k and density 3, draws
# 5,850; 100,000 take gen_corpus about 0.4 s and 26 MB (Python 3.11), so a
# slip such as a density of 1e9 is refused at once instead of filling memory.
MAX_CORPUS_CLAUSES = 100_000


def check_corpus_size(config: ExperimentConfig) -> None:
    """Refuse a config whose k range passes the enumeration cap, or whose
    random clauses, formulas_per_k * max(1, round(clause_density * k)) over
    its k range, pass MAX_CORPUS_CLAUSES, before gen_corpus draws them."""
    lo, hi = config.k_range
    check_enumerable(hi)
    clauses = config.formulas_per_k * sum(
        max(1, round(config.clause_density * k)) for k in range(lo, hi + 1))
    if clauses > MAX_CORPUS_CLAUSES:
        raise ConfigurationError(
            f"the corpus would draw {clauses} random clauses, past the ceiling of "
            f"{MAX_CORPUS_CLAUSES}; lower formulas_per_k or clause_density")


def craft_d_corpus() -> Corpus:
    """D's crafted corpus: a contradiction at each rejected position, one
    unit clause at the accepted one."""
    return crafted_d(lambda fid, k, accepted: Formula(fid, default_literals(k), (((0, True),),))
                     if accepted else craft_unsat(fid, k))


def craft_e_corpus() -> Corpus:
    """Three-problem corpus shaped for the conservative construction.

    Position 1 is unsatisfiable with k=2 and budget p(n)=2, which satisfies
    the stage-1 threshold chain and the budget gate while capping the block
    scan below k+1 blocks, so an injection happens. Positions 2 and 3 are a
    unit-clause complement pair, so the complements-present subset is
    nonempty and must stay untouched.
    """
    target = craft_unsat(1, 2)
    pos = Formula(2, ("a", "b"), (((0, True),),))
    neg = Formula(3, ("a", "b"), (((0, False),),))
    budgets = {1: Budget(2, 0), 2: clamped_budget(2), 3: clamped_budget(2)}
    return Corpus((target, pos, neg), budgets)


def save_corpus(corpus: Corpus, path) -> None:
    """Corpus file: array of {"id", "literals", "clauses", "budget"} objects,
    the budget as [coefficient, exponent]."""
    doc = [
        {
            "id": f.id,
            "literals": list(f.literals),
            "clauses": [[[i, p] for i, p in clause] for clause in f.clauses],
            "budget": [corpus.budget_for(f.id).coefficient, corpus.budget_for(f.id).exponent],
        }
        for f in corpus.formulas
    ]
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _formula_from_entry(entry, where: str) -> Formula:
    """One corpus entry as a Formula, which refuses a value of the wrong type."""
    check_keys(entry, where, ("id", "literals", "clauses"), ("budget",))
    for key in ("literals", "clauses"):
        if not isinstance(entry[key], list):
            raise ConfigurationError(f"{where}: {key!r} must be a list")
    try:
        return Formula(entry["id"], entry["literals"], entry["clauses"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: malformed formula ({exc})") from exc


def load_corpus(path) -> Corpus:
    """Read a corpus file. Each problem keeps the budget its entry stores, or
    gets the default one, clamped below 2^k, if its entry stores none. A
    malformed file raises ConfigurationError."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ConfigurationError(f"{path}: a corpus file holds a JSON array of formulas")
    formulas, budgets = [], {}
    for n, entry in enumerate(doc):
        where = f"{path}: corpus entry {n}"
        f = _formula_from_entry(entry, where)
        if f.id != n + 1:
            raise ConfigurationError(
                f"{where}: 'id' is {quoted(f.id)}, not {n + 1}; "
                "corpus ids must be dense 1..n in order")
        formulas.append(f)
        if "budget" not in entry:
            budgets[f.id] = clamped_budget(f.k)
        elif _is_budget(entry["budget"]):
            budgets[f.id] = Budget(*entry["budget"])
        else:
            raise ConfigurationError(
                f"{where}: 'budget' must be a list of two non-negative integers")
    return Corpus(tuple(formulas), budgets)


# ---------------------------------------------------------------- the suite

# What the suite checks on each run of a side: (holds(run, problem, corpus),
# failure message after "<label>: "). B, D, D_bar and ND runs are judged as a
# whole, by their construction's checks.
_CORRECT = (lambda r, f, corpus: r.correct is True, "wrong verdict on formula {f.id}")
_K_PLUS_1_QUERIES = (lambda r, f, corpus: r.queries <= f.k + 1,
                     "more than k+1 queries on formula {f.id}")
_ONE_QUERY = (lambda r, f, corpus: r.queries == 1, "{r.queries} queries on formula {f.id}")
RUN_RULES = {
    # A block-query run examines no assignment: its steps are its queries,
    # each counted once.
    "A": (_CORRECT, _K_PLUS_1_QUERIES,
          (lambda r, f, corpus: not r.accepted
           or r.steps <= corpus.budget_for(f.id).steps_below(f.k, r.steps) + f.k + 1,
           "accepting run on formula {f.id} exceeded p(k)+k+1")),
    "C": (_CORRECT,
          (lambda r, f, corpus: r.ground_truth or r.queries == 1 << f.k,
           "rejected formula {f.id} used {r.queries} queries, expected 2^k")),
    "C_bar": (_CORRECT, _ONE_QUERY),
    "E": ((lambda r, f, corpus: r.correct is True,
           "wrong verdict on complement-paired formula {f.id}"),),
    "F[np]": (_CORRECT, _K_PLUS_1_QUERIES),
    "F[co]": (_CORRECT, _ONE_QUERY),
}


class Built(NamedTuple):
    """A construction as its runs and checks read it: the sets whose sides
    the runs query, in run order; the ids of the problems they run on (all of
    the corpus when None); and the set it was built on, if any."""

    sets: tuple
    on: frozenset[int] | None = None
    base: OracleSet | None = None


class Construction(NamedTuple):
    """How the suite runs one kind: failures of its runs and of its checks
    count against conclusion row `row`. `build(corpus)` calls the
    module-level `build_X` names, so it runs whatever they are bound to then.
    The runs use `corpus()`, or the seeded corpus when that is None.
    `checks(check, corpus, built, runs)` makes the kind-level checks through
    `check(condition, message)` and returns the kind's evidence. `covers`
    lists the other oracle kinds this build makes; they run with it only.
    """

    row: str
    build: Callable[[Corpus], Built]
    checks: Callable[..., dict | None]
    corpus: Callable[[], Corpus] | None = None
    covers: tuple[str, ...] = ()


def _counts(runs: list[RunResult]) -> dict:
    return {"runs": len(runs), "incorrect": sum(r.correct is False for r in runs)}


def _traced_to(runs: list[RunResult], oracle, step: str) -> list[RunResult]:
    """The wrong runs that got a yes from a member placed by `step`."""
    return [
        r for r in runs
        if r.correct is False and any(
            oracle.provenance.get(code, (0, ""))[1].startswith(step)
            for code, answer in r.transcript if answer
        )
    ]


def _check_nd(check, corpus, built, runs) -> None:
    check(all(r.correct for r in runs), "ND: some verdict disagreed with ground truth")
    check(all(r.queries == 0 for r in runs), "ND: a run entered the query state")


def _check_A(check, corpus, built, runs) -> dict:
    return {**_counts(runs), "max_queries": max((r.queries for r in runs), default=0)}


def _check_B(check, corpus, built, runs) -> dict:
    for f in corpus:
        b = corpus.budget_for(f.id)
        p = b.steps_below(f.k, 1 << f.k)
        check(p < (1 << f.k), f"B: budget p(k)={b.coefficient}*{f.k}^{b.exponent} "
                              f"not below 2^k for formula {f.id}")
    (oracle,) = built.sets
    check(any(r.correct is False for r in runs),
          "B: no dysfunctional verdict anywhere in the corpus")
    step2 = _traced_to(runs, oracle, "step 2")
    check(bool(step2), "B: no wrong verdict traceable to a step-2 member")
    return {**_counts(runs), "incorrect_with_step2_provenance": len(step2)}


def _check_C(check, corpus, built, runs) -> dict:
    growth = {}
    for r in runs:
        if not r.ground_truth:
            growth.setdefault(r.k, r.queries)
    for k in sorted(growth):
        if k + 1 in growth:
            check(growth[k + 1] == 2 * growth[k],
                  f"C: query count did not double from k={k} to k={k + 1}")
    return {**_counts(runs), "reject_queries_by_k": growth}


def _check_D(check, corpus, built, runs) -> dict:
    d_set, dbar_set, _ = built.sets
    d_runs, dbar_runs, nd_runs = (
        [r for r in runs if r.oracle == label] for label in ("D", "D_bar", "ND"))
    check(bool(_traced_to(d_runs, d_set, "step 5")),
          "D: no wrong verdict traceable to a step-5 member")
    check(bool(_traced_to(dbar_runs, dbar_set, "step 8")),
          "D_bar: no wrong verdict traceable to a step-8 member")
    check(all(r.correct for r in nd_runs), "D: ND erred on the crafted corpus")
    return {
        "crafted_runs": len(d_runs) + len(dbar_runs),
        "incorrect_under_D": sum(r.correct is False for r in d_runs),
        "incorrect_under_D_bar": sum(r.correct is False for r in dbar_runs),
    }


def _build_E(corpus: Corpus) -> Built:
    """E over its functional base, run only on the problems whose complement
    is in the corpus: there it must keep exactly the base's codes."""
    base = build_A(corpus)
    return Built((build_E(corpus, base),), kappa_ids(corpus), base)


def _check_E(check, corpus, built, runs) -> dict:
    (oracle,), kappa, base = built
    blocks = {code for f in corpus if f.id in kappa for code in block_codes(f)}
    e_kappa, a_kappa = oracle.members & blocks, base.members & blocks
    check(e_kappa == a_kappa, "E: complement-paired problems gained or lost codes")
    injected = [
        code for code, (fid, note) in oracle.provenance.items()
        if note.startswith("step 7") and fid not in kappa
    ]
    check(bool(injected), "E: no injection happened on the crafted corpus")
    return {
        "kappa_ids": sorted(kappa),
        "kappa_codes_equal": e_kappa == a_kappa,
        "injected_codes": len(injected),
    }


# The construction table: suite kind -> Construction, in default run order.
CONSTRUCTIONS = {
    "A": Construction("A", lambda corpus: Built((build_A(corpus),)), _check_A),
    "B": Construction("B", lambda corpus: Built((build_B(corpus),)), _check_B),
    "C": Construction("C", lambda corpus: Built((build_C(corpus),)), _check_C),
    "C_bar": Construction("C", lambda corpus: Built((build_C_bar(corpus),)),
                          lambda check, corpus, built, runs: {**_counts(runs), "queries": 1}),
    "D": Construction("D", lambda corpus: Built((*build_D(corpus), NO_ORACLE)),
                      _check_D, craft_d_corpus, covers=("D_bar",)),
    "E": Construction("E", _build_E, _check_E, craft_e_corpus),
    "F": Construction("F", lambda corpus: Built((build_F(corpus),)),
                      lambda check, corpus, built, runs: _counts(runs)),
}
COVERED_BY = {kind: owner for owner, c in CONSTRUCTIONS.items() for kind in c.covers}

# The ND runs on the seeded corpus, made before any kind's. B's claim says
# the nondeterministic machine never queries and never errs, so their
# failures count against B's row.
ND_RUN = Construction("B", lambda corpus: Built((NO_ORACLE,)), _check_nd)

# What each conclusion row claims; the suite turns every line into checked
# table rows.
CONCLUSIONS = {
    "A": "functional: the deterministic block-query solver answers every problem "
         "correctly within k+1 queries",
    "B": "dysfunctional: the budgeted deterministic solver returns at least one wrong "
         "verdict while the nondeterministic solver never queries and never errs",
    "C": "one-sided: the complement question is answered correctly in one query while "
         "the direct side needs up to 2^k queries",
    "D": "doubly dysfunctional: both the set and its complement side mislead the "
         "deterministic solvers, with step-level provenance",
    "E": "conservative where complements are present, corrupted elsewhere: problems "
         "with their complement in the corpus keep exactly the functional set's codes",
    "F": "two-sided functional: the direct and complement solvers are both polynomial "
         "and correct",
}


# ---------------------------------------------------------------- config

# Keys a config file may hold (anything else is a typo, not a default), each
# with the test its value must pass and what that test demands. A key the
# file leaves out takes ExperimentConfig's default.
CONFIG_KEYS = {
    "seed": (lambda v: type(v) is int, "an integer"),
    "k_range": (_is_int_pair, "a list of two integers"),
    "formulas_per_k": (lambda v: type(v) is int, "an integer"),
    "clause_density": (lambda v: type(v) in (int, float), "a number"),
    "budget": (_is_budget, "a list of two non-negative integers"),
    "oracles": (lambda v: isinstance(v, list) and all(isinstance(k, str) for k in v),
                "a list of strings"),
    "out_dir": (lambda v: isinstance(v, str), "a string"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a suite run depends on; identical configs must produce
    bit-identical corpora, oracles, and reports."""

    seed: int = 42
    k_range: tuple[int, int] = (6, 12)
    formulas_per_k: int = 10
    clause_density: float = 3.0
    budget: Budget = DEFAULT_BUDGET
    oracle_kinds: tuple[str, ...] = tuple(CONSTRUCTIONS)
    out_dir: str = "results"

    def __post_init__(self):
        lo, hi = self.k_range
        if not 1 <= lo <= hi:
            raise ConfigurationError(f"bad k_range {quoted(self.k_range)}")
        if self.formulas_per_k < 0:
            raise ConfigurationError(
                f"formulas_per_k must be non-negative, got {quoted(self.formulas_per_k)}")
        # gen_corpus draws round(clause_density * k) clauses per formula; NaN
        # fails both comparisons.
        if not 0 <= self.clause_density * hi < math.inf:
            raise ConfigurationError("clause_density must be non-negative with a finite "
                                     f"clause_density * k, got {self.clause_density}")
        kinds = self.oracle_kinds
        for kind in kinds:
            if kind in COVERED_BY:
                owner = COVERED_BY[kind]
                raise ConfigurationError(f"oracle kind {kind!r} is not run on its own: "
                                         f"{owner}'s run covers {kind}; list {owner!r}")
        unknown = [kind for kind in kinds if kind not in CONSTRUCTIONS]
        if unknown:
            raise ConfigurationError(f"unknown oracle kinds {quoted(unknown)}")
        repeated = [kind for kind in CONSTRUCTIONS if kinds.count(kind) > 1]
        if repeated:
            raise ConfigurationError(f"oracle kinds {repeated} are listed more than once")
        if not self.out_dir:  # Path("") would be the current directory
            raise ConfigurationError("out_dir must not be empty")


def config_from_json(path) -> ExperimentConfig:
    """Read a config file; keys are those of CONFIG_KEYS, each optional, and
    a value of the wrong type is rejected, never coerced. Only the keys the
    file holds are passed on. What ExperimentConfig or check_corpus_size
    refuses is refused naming the file."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: a config file holds one JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys {quoted(unknown)}; "
                                 f"known keys are {list(CONFIG_KEYS)}")
    for key, (valid, what) in CONFIG_KEYS.items():
        if key in doc and not valid(doc[key]):
            raise ConfigurationError(f"{path}: {key!r} must be {what}, got {quoted(doc[key])}")
    fields = dict(doc)
    if "k_range" in fields:
        fields["k_range"] = tuple(fields["k_range"])
    if "budget" in fields:
        fields["budget"] = Budget(*fields["budget"])
    if "oracles" in fields:
        fields["oracle_kinds"] = tuple(fields.pop("oracles"))
    try:
        config = ExperimentConfig(**fields)
        check_corpus_size(config)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return config


class SuiteRunner:
    """One suite execution: builds, runs, checks, and accumulates reportage."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.results: list[RunResult] = []
        self.failures: list[str] = []
        self.failed_rows: set[str] = set()
        self.evidence: dict[str, dict] = {}
        self.corpus = gen_corpus(config)
        self.truth = {f.id: brute_force_sat(f).satisfiable for f in self.corpus}

    def fail(self, row: str, message: str) -> None:
        """Record `message` as a failure against conclusion row `row`."""
        self.failures.append(message)
        self.failed_rows.add(row)

    def run(self) -> None:
        """The ND runs on the seeded corpus first, then each kind in turn."""
        self._run_sides(ND_RUN)
        for kind in self.config.oracle_kinds:
            self.evidence[kind] = self._run_sides(CONSTRUCTIONS[kind])

    def _run_sides(self, c: Construction) -> dict | None:
        """Build one construction over its corpus, query each side of each
        built set on every problem it runs on, check every run against its
        side's RUN_RULES, then make the kind-level checks. Returns the
        kind's evidence."""
        corpus = self.corpus if c.corpus is None else c.corpus()
        truth = self.truth if corpus is self.corpus else {
            f.id: brute_force_sat(f).satisfiable for f in corpus}
        built = c.build(corpus)
        runs = []
        for oracle in built.sets:
            sides = sides_of(oracle)
            for f in corpus:
                if built.on is not None and f.id not in built.on:
                    continue
                for side in sides:
                    r = solve_side(side, f, corpus, truth[f.id])
                    runs.append(r)
                    for holds, message in RUN_RULES.get(side.kind, ()):
                        if not holds(r, f, corpus):
                            self.fail(c.row, f"{side.kind}: " + message.format(r=r, f=f))
        self.results.extend(runs)

        def check(condition: bool, message: str) -> None:
            if not condition:
                self.fail(c.row, message)

        return c.checks(check, corpus, built, runs)

    def _conclusions(self) -> list[dict]:
        """One row per construction behavior, from the kinds actually run,
        each with the evidence of every kind that reports into it."""
        rows = []
        for row, claim in CONCLUSIONS.items():
            evidence = {k: e for k, e in self.evidence.items() if CONSTRUCTIONS[k].row == row}
            if evidence:
                rows.append({
                    "oracle": row,
                    "claim": claim,
                    "demonstrated": row not in self.failed_rows,
                    "evidence": evidence,
                })
        return rows

    def write_reports(self) -> None:
        out = Path(self.config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results_csv(self.results, out / "runs.csv")
        write_results_jsonl(self.results, out / "runs.jsonl")
        summary = {
            "config": {
                "seed": self.config.seed,
                "k_range": list(self.config.k_range),
                "formulas_per_k": self.config.formulas_per_k,
                "clause_density": self.config.clause_density,
                "budget": [self.config.budget.coefficient, self.config.budget.exponent],
                "oracles": list(self.config.oracle_kinds),
            },
            "corpus": {"formulas": len(self.corpus), "hash": self.corpus.digest},
            **run_report(self.results),
            "conclusions": self._conclusions(),
            "failures": self.failures,
        }
        with atomic_open(out / "summary.json") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


def run_suite(config: ExperimentConfig) -> int:
    """Build the requested oracles, run every matching solver, cross-check
    against ground truth, write reports. Returns 0 iff every assertion held."""
    runner = SuiteRunner(config)
    runner.run()
    runner.write_reports()
    for message in runner.failures:
        print(f"FAIL {message}", file=sys.stderr)
    return 1 if runner.failures else 0


# ---------------------------------------------------------------- CLI

def _config_arg(args) -> ExperimentConfig:
    """The --config file's config, or the defaults when none is given."""
    return config_from_json(args.config) if args.config else ExperimentConfig()


def _cmd_gen_corpus(args) -> int:
    corpus = gen_corpus(_config_arg(args))
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} formulas to {args.out}")
    return 0


def _cmd_build_oracle(args) -> int:
    corpus = load_corpus(args.corpus)
    try:  # a corpus the construction cannot be built on
        built = CONSTRUCTIONS[COVERED_BY.get(args.kind, args.kind)].build(corpus)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{args.corpus}: {exc}") from exc
    oracle = next(s for s in built.sets if s.kind == args.kind)
    save_oracle(oracle, args.out)
    print(f"wrote oracle {oracle.kind} with {len(oracle)} members to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    corpus = load_corpus(args.corpus)
    oracle = load_oracle(args.oracle, corpus)
    f = corpus.by_id(args.formula)
    truth = brute_force_sat(f).satisfiable
    runs = [solve_side(side, f, corpus, truth) for side in sides_of(oracle)]
    with code_digit_limit():
        for r in runs:
            print(json.dumps(run_result_to_json(r)))
    return 0


def _cmd_suite(args) -> int:
    config = _config_arg(args)
    if args.out_dir:
        config = replace(config, out_dir=args.out_dir)
    check_corpus_size(config)  # a refused corpus makes no directory
    try:  # before the corpus is drawn, so an unusable out_dir costs no run
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        where = "--out-dir" if args.out_dir else args.config or "suite"
        raise ConfigurationError(f"{where}: cannot make the output directory "
                                 f"{quoted(config.out_dir)} ({exc.strerror})") from exc
    status = run_suite(config)
    print("suite passed" if status == 0 else "suite FAILED")
    return status


def _cmd_lambda(args) -> int:
    instances = load_instances(args.instances)
    report = lambda_report(instances)
    print(render_lambda_table(report), end="")
    if args.out:
        write_lambda_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0 if report.all_demonstrated() else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relativize",
        description="Desk-scale oracle relativization experiments with exact query accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the seeded corpus a suite config runs on")
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("build-oracle", help="build one oracle set over a corpus file")
    p.add_argument("--kind", required=True, choices=list(KINDS))
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_oracle)

    p = sub.add_parser("solve", help="run the matching solver for one formula")
    p.add_argument("--oracle", required=True)
    p.add_argument("--formula", type=int, required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("suite", help="run the full experiment suite")
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--out-dir", help="override the report directory")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("lambda", help="run the set-sum analog battery")
    p.add_argument("--instances", required=True, help="JSON instance list")
    p.add_argument("--out", help="also write the question table as CSV")
    p.set_defaults(func=_cmd_lambda)

    args = parser.parse_args(argv)
    try:
        enumeration_cap()  # a bad RELATIVIZE_CAP is refused before any file is read
        # "" names no file to read or write, and as a directory the current one
        for dest in ("config", "corpus", "oracle", "instances", "out", "out_dir"):
            if getattr(args, dest, None) == "":
                raise ConfigurationError(f"--{dest.replace('_', '-')} must not be empty")
        return args.func(args)
    except (CapacityError, ConfigurationError, OracleFileError, OSError, ValueError) as exc:
        print(f"error: {os_error_text(exc) if isinstance(exc, OSError) else exc}", file=sys.stderr)
        return 2


