"""Reference implementations for the tests: the per-assignment loops the
package's fast paths are checked against, and helpers only the tests use.

The loops walk the 2^k assignments one by one through `accepts` (which is
`evaluate` for formulas), building each assignment here rather than taking it
from the package and encoding it with the tuple-level `input_code`, and
reproduce the loop versions of the constructions and solvers field for field,
transcripts, provenance text and insertion order included.
"""

import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Iterator

from relativize import (
    CapacityError,
    Formula,
    SatVerdict,
    SetSumInstance,
    decode_input_code,
    input_code,
    pair,
    partition_code,
)
from relativize.formula import Assignment, Clause, assignment_from_index, check_enumerable
from relativize.machine import RunResult, atomic_open, search_limit
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


# ---------------------------------------------------------------- loop references


def assignment(e, k):
    return tuple(bool((e >> j) & 1) for j in range(k))


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
            code = input_code(f.id, assignment(hits[0], f.k)).code
            members.add(code)
            prov[code] = (f.id, f"step 2: first accepting assignment (index {hits[0]})")
    return ref_finish("C", members, prov, corpus)


def ref_build_C_bar(corpus):
    members, prov = set(), {}
    for f in corpus:
        if not accepting(f):
            for e in range(1 << f.k):
                code = input_code(f.id, assignment(e, f.k)).code
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
            code = pair(1, input_code(f.id, assignment(0, f.k)).code)
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
    limit = search_limit(budget, p.k)

    def result(accepted, steps, transcript):
        correct = None if ground_truth is None else accepted == ground_truth
        return RunResult(oracle.kind, p.id, p.k, accepted, steps, len(transcript),
                         tuple(transcript), ground_truth, correct)

    for e in range(limit):
        if p.accepts(assignment(e, p.k)):
            return result(True, e + 1, [])
    if limit >= 1 << p.k:
        return result(False, limit, [])
    code = input_code(p.id, assignment(limit, p.k)).code
    answer = code in oracle
    return result(answer, limit, [(code, answer)])


def ref_solve_with_C(p, oracle, ground_truth=None, max_queries=None):
    total = 1 << p.k
    limit = total if max_queries is None else min(max_queries, total)
    transcript = []

    def result(accepted, steps):
        correct = None if ground_truth is None else accepted == ground_truth
        return RunResult(getattr(oracle, "kind", "oracle"), p.id, p.k, accepted, steps,
                         len(transcript), tuple(transcript), ground_truth, correct)

    for e in range(limit):
        code = input_code(p.id, assignment(e, p.k)).code
        answer = code in oracle
        transcript.append((code, answer))
        if answer:
            return result(True, e + 1)
    return result(False, limit)


def ref_build_D(corpus):
    """The per-assignment loop version of build_D, staged scans included."""
    d_members, d_prov, dbar_members, dbar_prov = set(), {}, set(), {}
    for n, f in enumerate(corpus, start=1):
        if n % 2 == 0:
            g = next((h for h in corpus if h.k == f.k // 2), None)
            if g is None or accepting(g):
                continue
            for e in range(1 << f.k):
                code = input_code(f.id, assignment(e, f.k)).code
                if code in dbar_members:
                    continue
                d_members.add(code)
                d_prov[code] = (
                    f.id, f"step 5: half-prefix is an assignment of rejected problem {g.id}")
        else:
            lengths_ok = all(decode_input_code(code).k < n for code in dbar_members)
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
                    code = input_code(f.id, assignment(limit, f.k)).code
                    d_members.add(code)
                    d_prov[code] = (
                        f.id,
                        f"step 8: next unqueried assignment (index {limit}) after staged reject")
    return (ref_finish("D", d_members, d_prov, corpus),
            ref_finish("D_bar", dbar_members, dbar_prov, corpus))


def ref_set_sum_naive(inst):
    """The per-subset sum loop."""
    full = (1 << inst.r) - 1
    verdict, examined = False, 0
    for mask in range(1 << inst.r):
        examined += 1
        subtotal = sum(v for j, v in enumerate(inst.values) if (mask >> j) & 1)
        if mask == full and subtotal == inst.target:
            verdict = True
    return verdict, examined


# ---------------------------------------------------------------- fault injection


def corrupted(solve, flips=(), inflates=()):
    """`solve` with the verdict of its n-th call flipped for n in `flips`, and
    k+2 queries added to it for n in `inflates`, counting calls from 0."""
    calls = itertools.count()

    def run(*args, **kwargs):
        n, r = next(calls), solve(*args, **kwargs)
        if n in flips:
            accepted = not r.accepted
            r = replace(r, accepted=accepted, correct=None if r.ground_truth is None
                        else accepted == r.ground_truth)
        if n in inflates:
            r = replace(r, queries=r.queries + r.k + 2)
        return r

    return run
