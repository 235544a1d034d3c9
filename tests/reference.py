"""Reference implementations for the tests: the per-assignment loops the
package's fast paths are checked against, and helpers only the tests use.

The loops walk the 2^k assignments one by one through `accepts` (which is
`evaluate` for formulas), building each assignment here rather than taking it
from the package and encoding it with the tuple-level `input_code`, and
reproduce the loop versions of the constructions and solvers field for field,
transcripts, provenance text and insertion order included.

`decode_input_code` is the tuple-level decoder those codes are read back
with, at any padding; the package's one decoder, `input_index`, is checked
against it.
"""

import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Iterator

from relativize import (
    CapacityError,
    Corpus,
    Formula,
    SatVerdict,
    SetSumInstance,
    clamped_budget,
    craft_all_true,
    craft_unsat,
    default_literals,
    input_code,
    pair,
    partition_code,
    unpair,
)
from relativize.formula import Assignment, Clause, assignment_from_index, check_enumerable
from relativize.machine import RunResult, atomic_open
from relativize.oracles import OracleSet

# ---------------------------------------------------------------- assignments


def enumerate_assignments(f) -> Iterator[Assignment]:
    """All 2^k assignments of f in canonical order.

    Deterministic and identical across every call; any problem object exposing
    `k` can be enumerated.
    """
    k = check_enumerable(f.k)
    for e in range(1 << k):
        yield assignment_from_index(e, k)


def true_count(a: Assignment) -> int:
    """Number of true positions in the assignment."""
    return sum(a)


def partition(f, t: int) -> list[Assignment]:
    """All assignments of f with exactly t true literals, in canonical order.

    The k+1 blocks for t = 0..k partition the full assignment space.
    """
    if not 0 <= t <= f.k:
        raise ValueError(f"true-count {t} out of range [0, {f.k}]")
    return [a for a in enumerate_assignments(f) if true_count(a) == t]


# ---------------------------------------------------------------- formula operations

DEFAULT_NEGATION_CLAUSE_CAP = 100_000


def negate(f: Formula, new_id: int | None = None, clause_cap: int = DEFAULT_NEGATION_CLAUSE_CAP) -> Formula:
    """CNF complement of f over the same literal list.

    Expands the negation by distributing over the clause product (one literal
    picked from each clause, all picks negated), so the result can grow as the
    product of clause sizes; `clause_cap` bounds that product. Tautological
    product clauses are dropped and duplicates collapsed. The literal list is
    preserved deliberately: f and its complement stay positionally aligned.
    """
    fid = f.id if new_id is None else new_id
    if not f.clauses:
        # complement of the trivially true formula: a canonical contradiction
        return Formula(fid, f.literals, (((0, True),), ((0, False),)))
    size = 1
    for clause in f.clauses:
        size *= len(clause)
        if size > clause_cap:
            raise CapacityError(f"negation expansion exceeds {clause_cap} clauses")
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for picks in itertools.product(*f.clauses):
        negated = {(i, not p) for i, p in picks}
        if any((i, not p) in negated for i, p in negated):
            continue  # tautological: always satisfied
        clause = tuple(sorted(negated))
        if clause not in seen:
            seen.add(clause)
            clauses.append(clause)
    return Formula(fid, f.literals, tuple(clauses))


def conjoin(f: Formula, g: Formula, new_id: int | None = None) -> Formula:
    """CNF conjunction of f and g (clause concatenation).

    Literal lists are unified by name; literals present in only one side are
    unconstrained padding for the other. An unsatisfiable f forces an
    unsatisfiable result no matter what g is; `oracles.build_D`'s prefix
    rule relies on that.
    """
    fid = f.id if new_id is None else new_id
    if f.literals == g.literals:
        return Formula(fid, f.literals, f.clauses + g.clauses)
    names = f.literals + tuple(n for n in g.literals if n not in f.literals)
    position = {name: j for j, name in enumerate(names)}
    remapped = tuple(
        tuple((position[g.literals[i]], p) for i, p in clause) for clause in g.clauses
    )
    return Formula(fid, names, f.clauses + remapped)


# ---------------------------------------------------------------- analog classes

SET_SUM = "set-sum"

# Problems taken as known-easy for the analog registries.
KNOWN_EASY = (
    "sorting",
    "greatest-common-divisor",
    "primality",
    "shortest-path",
    "string-matching",
    SET_SUM,
)


@dataclass(frozen=True)
class ClassRegistry:
    """Name registries for the analog class pair.

    At initialization the deterministic-side registry is the nondeterministic
    one minus set-sum; resolving the question puts set-sum back.
    """

    np_lambda: frozenset[str]
    p_lambda: frozenset[str]

    def __post_init__(self):
        if not self.p_lambda <= self.np_lambda:
            raise ValueError("deterministic registry must be a subset of the nondeterministic one")

    def resolved(self) -> "ClassRegistry":
        """Registry after the direct solver settles set-sum."""
        return ClassRegistry(self.np_lambda, self.p_lambda | {SET_SUM})


def default_registry() -> ClassRegistry:
    names = frozenset(KNOWN_EASY)
    return ClassRegistry(names, names - {SET_SUM})


def gen_instances(seed: int, count: int, r_min: int = 3, r_max: int = 10) -> list[SetSumInstance]:
    """Seeded instance corpus; about half sum to their target."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.randint(r_min, r_max)
        values = tuple(rng.randint(-20, 20) for _ in range(r))
        if rng.random() < 0.5:
            target = sum(values)
        else:
            target = sum(values) + rng.randint(1, 10)
        out.append(SetSumInstance(values, target))
    return out


def save_instances(instances: list[SetSumInstance], path) -> None:
    """An instance file `load_instances` reads: [{"S": [ints], "M": int}, ...]."""
    doc = [{"S": list(inst.values), "M": inst.target} for inst in instances]
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def ref_gen_corpus(config) -> Corpus:
    """`gen_corpus` through `random.sample`: the same corpus for every
    config, each clause's indices sampled, sorted and paired with a coin."""
    rng = random.Random(config.seed)
    lo, hi = config.k_range
    formulas, budgets = [], {}

    def add(f):
        formulas.append(f)
        budgets[f.id] = clamped_budget(f.k, config.budget)

    for k in range(lo, hi + 1):
        names = default_literals(k)
        n_clauses = max(1, round(config.clause_density * k))
        width = min(3, k)
        for _ in range(config.formulas_per_k):
            clauses = []
            for _ in range(n_clauses):
                idxs = sorted(rng.sample(range(k), width))
                clauses.append(tuple((i, rng.random() < 0.5) for i in idxs))
            add(Formula(len(formulas) + 1, names, tuple(clauses)))
        add(craft_unsat(len(formulas) + 1, k))
        add(craft_all_true(len(formulas) + 1, k))
        add(Formula(len(formulas) + 1, names, (((0, True),),)))
        add(Formula(len(formulas) + 1, names, (((0, False),),)))
    return Corpus(tuple(formulas), budgets)


def ref_canonical_key(f: Formula) -> str:
    """A formula's key with each clause sorted into a tuple before the
    clauses are sorted: the text `Formula.canonical_key` must give."""
    clauses = sorted(tuple(sorted(clause)) for clause in f.clauses)
    return json.dumps([clauses, list(f.literals)], separators=(",", ":"))


# ---------------------------------------------------------------- loop references


def assignment(e, k):
    return tuple(bool((e >> j) & 1) for j in range(k))


def assignment_index(a: Assignment) -> int:
    """Inverse of `assignment`: the e whose bit j is a[j]."""
    return sum(1 << j for j, v in enumerate(a) if v)


def decode_input_code(code: int) -> tuple[int, Assignment, int]:
    """Recover the full triple (i, a, n) from an input code, at any padding."""
    i, rest = unpair(code)
    framed, n = unpair(rest)
    if framed < 1:
        raise ValueError(f"{code} is not an input code (empty frame)")
    k = framed.bit_length() - 1
    return i, assignment(framed ^ (1 << k), k), n


def accepting(p):
    """Indices of accepting assignments in canonical order, by `accepts`."""
    return [e for e in range(1 << p.k) if p.accepts(assignment(e, p.k))]


def ref_brute_force(p):
    hits = accepting(p)
    witness = assignment(hits[0], p.k) if hits else None
    return SatVerdict(bool(hits), witness, len(hits), 1 << p.k)


def ref_finish(kind, members, prov, corpus):
    """The set a construction builds, once its own member set is checked
    against the keys of its provenance map."""
    assert members == prov.keys()
    return OracleSet(kind, dict(prov), corpus.ids(), corpus.digest())


def ref_build_A(corpus):
    members, prov = set(), {}
    for f in corpus:
        for e in accepting(f):
            t = sum(assignment(e, f.k))
            code = partition_code(f, t)
            if code not in members:
                members.add(code)
                prov[code] = (f.id, f"step 3: block t={t} first accepted at assignment {e}")
    return ref_finish("A", members, prov, corpus)


def ref_build_C(corpus):
    members, prov = set(), {}
    for f in corpus:
        hits = accepting(f)
        if hits:
            code = input_code(f.id, assignment(hits[0], f.k))
            members.add(code)
            prov[code] = (f.id, f"step 2: first accepting assignment (index {hits[0]})")
    return ref_finish("C", members, prov, corpus)


def ref_build_C_bar(corpus):
    members, prov = set(), {}
    for f in corpus:
        if not accepting(f):
            for e in range(1 << f.k):
                code = input_code(f.id, assignment(e, f.k))
                members.add(code)
                prov[code] = (f.id, "step 2: all input codes of a rejected problem")
    return ref_finish("C_bar", members, prov, corpus)


def ref_build_F(corpus):
    direct = ref_build_A(corpus)
    members = {pair(0, code) for code in direct.members}
    prov = {pair(0, code): (fid, f"np side, {note}")
            for code, (fid, note) in direct.provenance.items()}
    for f in corpus:
        if not accepting(f):
            code = pair(1, input_code(f.id, assignment(0, f.k)))
            members.add(code)
            prov[code] = (f.id, "co side: sentinel for a problem with no accepting assignment")
    return ref_finish("F", members, prov, corpus)


def ref_kappa_ids(corpus):
    rows = {f.id: (f.k, tuple(f.accepts(assignment(e, f.k)) for e in range(1 << f.k)))
            for f in corpus}
    present = set(rows.values())
    return frozenset(
        fid for fid, (k, row) in rows.items() if (k, tuple(not v for v in row)) in present
    )


@dataclass(frozen=True)
class PlainRunResult:
    """RunResult's fields, in order, as a plain frozen dataclass with the
    generated `__init__`: RunResult's own must build what this one does."""

    oracle: str
    formula_id: int
    k: int
    accepted: bool
    steps: int
    queries: int
    transcript: tuple
    ground_truth: bool | None = None
    correct: bool | None = None
    simulated_work: int | None = None


def ref_nd_solve(p, ground_truth=None):
    examined, found = 0, False
    for e in range(1 << p.k):
        examined += 1
        if p.accepts(assignment(e, p.k)):
            found = True
            break
    correct = None if ground_truth is None else found == ground_truth
    return RunResult("ND", p.id, p.k, found, 1, 0, (), ground_truth, correct, examined)


def ref_solve_with_B(p, oracle, budget, ground_truth=None):
    limit = min(budget.steps(p.k), 1 << p.k)

    def result(accepted, steps, transcript):
        correct = None if ground_truth is None else accepted == ground_truth
        return RunResult(getattr(oracle, "kind", "oracle"), p.id, p.k, accepted, steps,
                         len(transcript), tuple(transcript), ground_truth, correct)

    for e in range(limit):
        if p.accepts(assignment(e, p.k)):
            return result(True, e + 1, [])
    if limit >= 1 << p.k:
        return result(False, limit, [])
    code = input_code(p.id, assignment(limit, p.k))
    answer = code in oracle
    return result(answer, limit, [(code, answer)])


def ref_solve_with_C(p, oracle, ground_truth=None, max_queries=None):
    """One query per assignment in canonical order, accepting on the first
    yes; at most `max_queries` when it is given, so none when it is below 1."""
    total = 1 << p.k
    limit = total if max_queries is None else max(0, min(max_queries, total))
    transcript = []

    def result(accepted, steps):
        correct = None if ground_truth is None else accepted == ground_truth
        return RunResult(getattr(oracle, "kind", "oracle"), p.id, p.k, accepted, steps,
                         len(transcript), tuple(transcript), ground_truth, correct)

    for e in range(limit):
        code = input_code(p.id, assignment(e, p.k))
        answer = code in oracle
        transcript.append((code, answer))
        if answer:
            return result(True, e + 1)
    return result(False, limit)


def ref_solve_with_A(p, oracle, ground_truth=None, max_queries=None):
    """One query per true-count block of `partition`, in order, accepting on
    the first yes; at most `max_queries` blocks when it is given, so none
    when it is below 1."""
    transcript = []
    for block in (partition(p, t) for t in range(p.k + 1)):
        if max_queries is not None and len(transcript) >= max_queries:
            break
        code = partition_code(p, true_count(block[0]))
        answer = code in oracle
        transcript.append((code, answer))
        if answer:
            break
    accepted = bool(transcript) and transcript[-1][1]
    correct = None if ground_truth is None else accepted == ground_truth
    return RunResult(getattr(oracle, "kind", "oracle"), p.id, p.k, accepted, len(transcript),
                     len(transcript), tuple(transcript), ground_truth, correct)


def ref_solve_conp_with_C_bar(p, oracle, ground_truth=None):
    """The one query, the input code of assignment 0, as the verdict."""
    code = input_code(p.id, assignment(0, p.k))
    answer = code in oracle
    correct = None if ground_truth is None else answer == ground_truth
    return RunResult(oracle.kind, p.id, p.k, answer, 1, 1, ((code, answer),), ground_truth,
                     correct)


def ref_build_B(corpus):
    """The per-assignment loop version of build_B: each stage's budgeted
    search runs against the members so far."""
    members, prov = set(), {}
    for f in corpus:
        budget = corpus.budget_for(f.id)
        if ref_solve_with_B(f, frozenset(members), budget).accepted:
            continue
        limit = min(budget.steps(f.k), 1 << f.k)
        if limit < 1 << f.k:
            code = input_code(f.id, assignment(limit, f.k))
            members.add(code)
            prov[code] = (
                f.id, f"step 2: next unexamined assignment (index {limit}) after staged reject")
    return ref_finish("B", members, prov, corpus)


# t(0..4) of E's stage thresholds t(n) = 2^(2 t(n-1)); E runs stages 1..3 only.
TOWER = (0, 1, 4, 256, 2**512)


def ref_build_E(corpus, base):
    """The per-query loop version of build_E over `base`: the threshold chain
    with 2^t(n-1) < k <= 2^t(n) in place of t(n-1) < log2(k) <= t(n), and
    each stage's capped block scan against the members so far."""
    members, prov = set(base.members), dict(base.provenance)
    kappa = ref_kappa_ids(corpus)
    for n, f in enumerate(corpus, start=1):
        if n > 3:
            break
        if f.id in kappa:
            continue
        lo, mid, hi = TOWER[n - 1:n + 2]
        budget = corpus.budget_for(f.id)
        p_k = budget.steps(f.k)
        chain = 1 << lo < f.k <= 1 << mid and mid <= p_k < hi
        if not (chain and budget.steps(mid) >= 2**mid):
            continue
        staged = ref_solve_with_A(f, frozenset(members), max_queries=p_k)
        if staged.accepted or staged.queries > f.k:
            continue
        t = staged.queries
        code = partition_code(f, t)
        if code not in members:
            members.add(code)
            prov[code] = (
                f.id, f"step 7: injected block t={t}, the next unevaluated after a capped reject")
    return ref_finish("E", members, prov, corpus)


def ref_build_D(corpus):
    """The per-assignment loop version of build_D, staged scans included."""
    d_members, d_prov, dbar_members, dbar_prov = set(), {}, set(), {}
    for n, f in enumerate(corpus, start=1):
        if n % 2 == 0:
            g = next((h for h in corpus if h.k == f.k // 2), None)
            if g is None or accepting(g):
                continue
            for e in range(1 << f.k):
                code = input_code(f.id, assignment(e, f.k))
                if code in dbar_members:
                    continue
                d_members.add(code)
                d_prov[code] = (
                    f.id, f"step 5: half-prefix is an assignment of rejected problem {g.id}")
        else:
            lengths_ok = all(len(decode_input_code(code)[1]) < n for code in dbar_members)
            p = corpus.budget_for(f.id).steps(f.k)
            if not (lengths_ok and p * p < (1 << (f.k - 1))):
                continue
            staged = ref_solve_with_C(f, frozenset(d_members), max_queries=p)
            for code, _answer in staged.transcript:
                if code not in dbar_members:
                    dbar_members.add(code)
                    dbar_prov[code] = (f.id, "step 8: queried by the staged budgeted scanner")
            if not staged.accepted:
                limit = min(p, 1 << f.k)
                if limit < (1 << f.k):
                    code = input_code(f.id, assignment(limit, f.k))
                    d_members.add(code)
                    d_prov[code] = (
                        f.id,
                        f"step 8: next unqueried assignment (index {limit}) after staged reject")
    return (ref_finish("D", d_members, d_prov, corpus),
            ref_finish("D_bar", dbar_members, dbar_prov, corpus))


def ref_set_sum_naive(inst):
    """The assumed only-known method, walked: every subset summed in
    canonical bitmask order, accepting only if the full subset (the last
    mask) hits the target.

    The masks are walked as a binary counter with one running subtotal: going
    from mask - 1 to mask sets bit j, the lowest bit of mask, and clears the
    j bits below it, so the subtotal moves by values[j] minus the sum of
    values[:j]. Each subset gets its own subtotal in O(1) time and memory.
    """
    r = check_enumerable(inst.r)
    step, below = [], 0
    for v in inst.values:
        step.append(v - below)
        below += v
    subtotal, examined = 0, 1  # the empty subset, mask 0
    for mask in range(1, 1 << r):
        subtotal += step[(mask & -mask).bit_length() - 1]
        examined += 1
    return subtotal == inst.target, examined


def ref_literal_masks(k):
    """Each literal's (negative, positive) mask by one multiplication: a
    period of 2^j zeros then 2^j ones times full // period repeats it."""
    width = 1 << k
    full = (1 << width) - 1
    masks = []
    for j in range(k):
        run = 1 << j
        period = (1 << (2 * run)) - 1
        positive = (((1 << run) - 1) << run) * (full // period)
        masks.append((full ^ positive, positive))
    return tuple(masks)


# ---------------------------------------------------------------- fault injection


def corrupted(solve, flips=(), inflates=(), overruns=()):
    """`solve` with the verdict of its n-th call flipped for n in `flips`,
    k+2 queries added to it for n in `inflates`, and 2^k + k + 2 steps, more
    than any budget below 2^k allows, for n in `overruns`, counting calls
    from 0."""
    calls = itertools.count()

    def run(*args, **kwargs):
        n, r = next(calls), solve(*args, **kwargs)
        if n in flips:
            accepted = not r.accepted
            r = replace(r, accepted=accepted, correct=None if r.ground_truth is None
                        else accepted == r.ground_truth)
        if n in inflates:
            r = replace(r, queries=r.queries + r.k + 2)
        if n in overruns:
            r = replace(r, steps=r.steps + (1 << r.k) + r.k + 2)
        return r

    return run
