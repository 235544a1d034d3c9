"""The oracle-set constructions over a finite problem corpus.

Eight sets are built here (A, B, C, C_bar, D, D_bar, E, F), each by its own
staged algorithm: problems are processed in corpus order, and any machine
simulated during a stage queries the members placed so far, in the map the
construction keeps them in; nothing joins it while that machine runs. Every
member carries provenance (problem id plus the construction step responsible),
so the dysfunction demonstrations can point at the exact code that caused a
wrong verdict. That map is the set: its keys are the members, held once, or,
for C_bar, computed from the rule that places them.

Two encodings appear as members: block codes (true-count paired with the
problem's structural number) for A, E, and F's direct side; input codes
(problem id, assignment, padding) for B, C, C_bar, D, D_bar, and F's
complement side. A built F is an OracleSet over those two untagged sides,
each queried as is. Tagging each code by pairing it with 0 or 1 only turns F
into one set of naturals, the set an oracle file holds; F's provenance map
pairs or unpairs a code when something reads it, and a loaded F, which has
only the tagged codes, pairs per query instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Container, KeysView, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .encoding import (
    block_codes,
    code_digit_limit,
    input_code_at,
    input_codes,
    input_index,
    pair,
    partition_code,
    unpair,
)
from .errors import ConfigurationError, OracleFileError, check_keys, read_json
from .formula import block_masks, check_enumerable, first_accepted, truth_table
from .machine import (
    Budget,
    atomic_open,
    clamped_budget,
    solve_with_A,
    solve_with_B,
    solve_with_C,
)

KINDS = ("A", "B", "C", "C_bar", "D", "D_bar", "E", "F")

Provenance = dict[int, tuple[int, str]]


@dataclass(frozen=True)
class OracleSet:
    """A finite set held as one map from each member code to its provenance,
    tagged with the construction that produced it and the corpus it was built
    over. The members are the map's keys; `in` and `len` read the map. A
    dict passed in is held as a read-only view of a copy of it, so the set
    cannot change once made, and `first_hits()`, which C's scan reads, is
    worked out once per set. Two maps are read-only rules instead: a built
    C_bar's RejectedInputs and a built F's TaggedUnion."""

    kind: str
    provenance: Mapping[int, tuple[int, str]]
    corpus_ids: frozenset[int]
    corpus_hash: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if type(self.provenance) in (dict, MappingProxyType):
            object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))

    def first_hits(self) -> dict[tuple[int, int], int] | None:
        """{(i, k): least e} over the members that `input_index` decodes to
        (i, k, e): where a scan of problem i's k-literal input codes, which
        C's solver makes, first meets one of them. Any other member is
        skipped; sorted in descending order, so the least e is written last.
        Made on first use and cached on the instance: nothing it reads can
        change. None for a rule, whose members are asked one by one."""
        cache = vars(self)
        if "_first_hits" not in cache:
            hits = None
            if type(self.provenance) is MappingProxyType:
                decoded = sorted(filter(None, map(input_index, self.provenance)), reverse=True)
                hits = {(i, k): e for i, k, e in decoded}
            cache["_first_hits"] = hits
        return cache["_first_hits"]

    @property
    def members(self) -> KeysView[int]:
        """The member codes: a read-only view of the provenance keys."""
        return self.provenance.keys()

    def __contains__(self, code: int) -> bool:
        return code in self.provenance

    def __len__(self) -> int:
        return len(self.provenance)


@dataclass(frozen=True)
class SideView:
    """One side of a set as an oracle, under its own label (F[np], F[co]).

    A query for code c asks `members` for c itself or, with a tag, for
    pair(tag, c): a built F hands over each untagged side, an F read from a
    file its tagged provenance map.
    """

    kind: str
    members: Container[int]
    corpus_ids: frozenset[int] | None = None
    tag: int | None = None

    def __contains__(self, code: int) -> bool:
        return (code if self.tag is None else pair(self.tag, code)) in self.members


class TaggedUnion(Mapping):
    """F's provenance as its two untagged sides, `np` (A's block codes) and
    `co` (the sentinel input codes), read as one map from each tagged code
    pair(tag, c) to c's note in side `tag`.

    A lookup unpairs the code; iteration and `items` pair each code of the np
    side, then of the co side, as they go. No tagged code is kept. Each side
    is held as a read-only view of a copy of the dict passed in, so a built
    F cannot change once made.
    """

    def __init__(self, np: Provenance, co: Provenance):
        self.sides = (MappingProxyType(dict(np)), MappingProxyType(dict(co)))

    def __getitem__(self, code: int) -> tuple[int, str]:
        if isinstance(code, int) and code >= 0:
            tag, untagged = unpair(code)
            if tag < 2 and untagged in self.sides[tag]:
                return self.sides[tag][untagged]
        raise KeyError(code)

    def __iter__(self):
        return (code for code, _ in self.items())

    def __len__(self) -> int:
        return len(self.sides[0]) + len(self.sides[1])

    def items(self):
        """The (tagged code, note) pairs, walking the sides: `Mapping`'s own
        view would unpair every code again to look it up."""
        return ((pair(tag, code), note)
                for tag, side in enumerate(self.sides) for code, note in side.items())


class RejectedInputs(Mapping):
    """C_bar's provenance as a rule over the rejected problems, `{id: k}` in
    corpus order, read as one map from each of their input codes (padding 0)
    to the problem's note.

    A lookup decodes the code by `input_index`: it is a member iff it
    decodes to a rejected id and that problem's k. Iteration and `items`
    compute each problem's codes in canonical order as they go. No code is
    kept. The rule is held as a read-only view of a copy of the dict passed
    in, so a built C_bar cannot change once made.
    """

    NOTE = "step 2: all input codes of a rejected problem"

    def __init__(self, rejected: dict[int, int]):
        self.rejected = MappingProxyType(dict(rejected))

    def __getitem__(self, code: int) -> tuple[int, str]:
        hit = input_index(code)
        if hit is not None and self.rejected.get(hit[0]) == hit[1]:
            return hit[0], self.NOTE
        raise KeyError(code)

    def __iter__(self):
        return (code for code, _ in self.items())

    def __len__(self) -> int:
        return sum(1 << k for k in self.rejected.values())

    def items(self):
        """The (code, note) pairs, problem by problem: `Mapping`'s own view
        would decode every code again to look it up."""
        return ((code, (i, self.NOTE))
                for i, k in self.rejected.items() for code in input_codes(i, k))


def tagged_view(oracle: OracleSet, tag: int) -> SideView:
    """One side of F as an oracle, labelled F[np] (tag 0) or F[co] (tag 1).

    A built F answers from the untagged side itself. An F read from a file
    holds only the tagged codes, so its view pairs each query with the tag:
    decoding every member on load would cost more than the few queries a
    `solve` asks.
    """
    label = f"{oracle.kind}[{'np' if tag == 0 else 'co'}]"
    if isinstance(oracle.provenance, TaggedUnion):
        return SideView(label, oracle.provenance.sides[tag], oracle.corpus_ids)
    return SideView(label, oracle.provenance, oracle.corpus_ids, tag)


@dataclass(frozen=True)
class Corpus:
    """The finite slice of problems an experiment quantifies over, in stage
    order, with a step budget per problem.

    Ids must be dense 1..n in order: constructions and file formats both key
    on them. Any problem family exposing id, k, accepts, canonical_key and
    truth_table works, not just CNF formulas.

    A corpus does not change once made: the problems are held as a tuple
    and the budgets as a read-only view of a copy of the dict passed in. So
    `digest()`, which every built set carries, is computed once per corpus,
    on first use, and cached on the instance.

    The constructions read every exhaustive answer (has a witness, first
    witness, accepting blocks, complement pairs) from each problem's truth
    table, a 2^k-bit integer built once per problem instance, on first use.
    What stays exponential is exponential by design: C's 2^k-query scan, the
    C_bar side's all-input-codes membership (2^k codes per rejected problem,
    held as a rule that decodes a query rather than as the codes), and D's
    even-stage walk over every input code of the stage problem. Those input
    codes are computed straight from assignment indices (`input_code_at`,
    `input_codes`), never through assignment tuples.
    """

    formulas: tuple
    budgets: Mapping[int, Budget] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        object.__setattr__(self, "budgets", MappingProxyType(dict(self.budgets)))
        ids = [f.id for f in self.formulas]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("corpus ids must be dense 1..n in order")
        missing = [i for i in ids if i not in self.budgets]
        if missing:
            raise ValueError(f"no budget for problems {missing}")

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self):
        return iter(self.formulas)

    def by_id(self, fid: int):
        """The problem with id fid; an id outside 1..n is a ConfigurationError."""
        if not 1 <= fid <= len(self.formulas):
            raise ConfigurationError(
                f"no problem {fid} in the corpus (ids run 1..{len(self.formulas)})")
        return self.formulas[fid - 1]

    def budget_for(self, fid: int) -> Budget:
        return self.budgets[fid]

    def ids(self) -> frozenset[int]:
        return frozenset(f.id for f in self.formulas)

    def digest(self) -> str:
        """Stable hash over problem structure and budgets. Cached on the
        instance: nothing it hashes can change."""
        cache = vars(self)
        digest = cache.get("_digest")
        if digest is None:
            doc = [
                [f.id, f.canonical_key(), self.budgets[f.id].coefficient,
                 self.budgets[f.id].exponent]
                for f in self.formulas
            ]
            blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
            digest = cache["_digest"] = hashlib.sha256(blob).hexdigest()
        return digest


def _finish(kind, prov, corpus) -> OracleSet:
    return OracleSet(kind, prov, corpus.ids(), corpus.digest())


def kappa_ids(corpus: Corpus) -> frozenset[int]:
    """Ids of problems whose pointwise complement is also in the corpus.

    Two problems are complements when they share an input length and disagree
    on every assignment; detection compares whole truth tables, so the scan
    stays linear in the corpus.
    """
    tables: dict[tuple[int, int], list[int]] = {}
    masks: dict[int, tuple[int, int]] = {}
    for f in corpus.formulas:
        table = truth_table(f)
        tables.setdefault((f.k, table), []).append(f.id)
        masks[f.id] = (f.k, table)
    kappa = set()
    for fid, (k, table) in masks.items():
        complement = table ^ ((1 << (1 << k)) - 1)
        if (k, complement) in tables:
            kappa.add(fid)
    return frozenset(kappa)


def build_A(corpus: Corpus) -> OracleSet:
    """Functional construction: one code per (problem, true-count block) that
    contains at least one accepting assignment.

    A block t holds an accepting assignment iff the problem's truth table
    meets the popcount mask for t; blocks are recorded in the order of their
    first accepting assignment, as a canonical-order walk would meet them. The
    resulting set is exactly the accepting-block characterization, so it can
    be re-derived per block by independent brute force; unsatisfiable problems
    contribute nothing.

    Built once per corpus, on first use, and cached on it as its digest is:
    the corpus and the set are both read-only, so F's np side and E's base
    read the set A's own runs read.
    """
    cache = vars(corpus)
    built = cache.get("_A")
    if built is None:
        prov: Provenance = {}
        for f in corpus.formulas:
            table = truth_table(f)
            firsts = sorted(
                (first_accepted(table & mask), t)
                for t, mask in enumerate(block_masks(f.k))
                if table & mask
            )
            for e, t in firsts:
                code = block_codes(f)[t]
                if code not in prov:
                    prov[code] = (f.id, f"step 3: block t={t} first accepted at assignment {e}")
        built = cache["_A"] = _finish("A", prov, corpus)
    return built


def build_B(corpus: Corpus) -> OracleSet:
    """Adversarial staged construction.

    At each stage the budgeted deterministic searcher runs against the members
    placed so far; if it rejects, the code of the next unexamined assignment
    joins the set -- whether or not that assignment satisfies the problem.
    That code is the one the rejecting run asked the oracle about, and its
    index is the run's steps. Acceptance at a stage adds nothing, and a
    search that covered the whole space asked nothing, so it adds nothing.
    """
    prov: Provenance = {}
    for f in corpus.formulas:
        staged = solve_with_B(f, prov, corpus.budget_for(f.id))
        if not staged.accepted and staged.transcript:
            ((code, _no),) = staged.transcript
            prov[code] = (
                f.id,
                f"step 2: next unexamined assignment (index {staged.steps}) after staged reject",
            )
    return _finish("B", prov, corpus)


def build_C(corpus: Corpus) -> OracleSet:
    """Witness construction: exactly one accepting input code per satisfiable
    problem, the first in canonical order; rejected problems contribute nothing."""
    prov: Provenance = {}
    for f in corpus.formulas:
        table = truth_table(f)
        if table:
            e = first_accepted(table)
            code = input_code_at(f.id, e, f.k)
            prov[code] = (f.id, f"step 2: first accepting assignment (index {e})")
    return _finish("C", prov, corpus)


def build_C_bar(corpus: Corpus) -> OracleSet:
    """Complement-side construction: every input code of every problem the
    nondeterministic machine rejects (no accepting assignment at all).

    The set is held as the rule RejectedInputs over those problems' ids and
    literal counts, so none of the 2^k codes per problem is computed here.
    Reading each truth table still checks the enumeration cap."""
    rejected = {f.id: f.k for f in corpus.formulas if not truth_table(f)}
    return _finish("C_bar", RejectedInputs(rejected), corpus)


def _first_with_k(corpus: Corpus, k: int):
    for f in corpus.formulas:
        if f.k == k:
            return f
    return None


def build_D(corpus: Corpus) -> tuple[OracleSet, OracleSet]:
    """Interleaved double construction of a set and its complement side.

    Even stages (prefix rule): each assignment of the stage problem whose code
    is not already on the complement side is tested through its half-length
    prefix. If that prefix is an assignment of the corpus problem with that
    many literals and the simulated nondeterministic machine rejects that
    problem, the code joins D. An unsatisfiable prefix problem stays
    unsatisfiable under any conjunctive extension, which is what the rule
    banks on -- the stage problem itself is never evaluated.

    Odd stages (query-capture rule): when every complement-side member is
    shorter than the stage index and the stage budget p satisfies
    p^2 < 2^(k-1) (the integer form of p < 2^((k-1)/2)), the budgeted query
    scanner runs against D-so-far; every code it asks about joins D_bar, and
    on rejection the next unqueried code joins D. Both additions ignore what
    the assignments actually evaluate to, so both sides end up misleading.

    Even stages need an even literal count; anything else is a corpus shape
    error. Each side's members are the keys of its provenance map.
    """
    d_prov: Provenance = {}
    dbar_prov: Provenance = {}
    for n, f in enumerate(corpus.formulas, start=1):
        if n % 2 == 0:
            if f.k % 2:
                raise ConfigurationError(
                    f"even-stage problem {f.id} needs an even literal count, got k={f.k}"
                )
            half = f.k // 2
            g = _first_with_k(corpus, half)
            if g is None or truth_table(g):
                continue
            check_enumerable(f.k)
            note = (f.id, f"step 5: half-prefix is an assignment of rejected problem {g.id}")
            for code in input_codes(f.id, f.k):
                if code not in dbar_prov:
                    d_prov[code] = note
        else:
            p = corpus.budget_for(f.id).steps_below(f.k, 1 << f.k)
            if not (all(input_index(code)[1] < n for code in dbar_prov)
                    and p * p < (1 << (f.k - 1))):
                continue
            staged = solve_with_C(f, d_prov, max_queries=p)
            for code, _answer in staged.transcript:
                if code not in dbar_prov:
                    dbar_prov[code] = (f.id, "step 8: queried by the staged budgeted scanner")
            e = staged.queries
            if not staged.accepted and e < (1 << f.k):
                d_prov[input_code_at(f.id, e, f.k)] = (
                    f.id, f"step 8: next unqueried assignment (index {e}) after staged reject")
    return (
        _finish("D", d_prov, corpus),
        _finish("D_bar", dbar_prov, corpus),
    )


def crafted_d(problem) -> Corpus:
    """The corpus shape D's two gates are sized for, its problem at position
    n made by `problem(n, k, accepted)`. Position 1, rejected with k=2, is the
    half-length problem position 2's prefixes resolve to; its own odd-stage
    gate must not fire (p(2)^2 = 4 is not below 2^1). Position 2, rejected
    with k=4, is an even stage that takes codes through the prefix rule.
    Position 3, accepted with k=9 and p(9) = 9, fires the query-capture gate
    (81 < 2^8)."""
    shape = ((2, clamped_budget(2), False), (4, clamped_budget(4), False),
             (9, Budget(1, 1), True))
    return Corpus(tuple(problem(n, k, accepted) for n, (k, _, accepted) in enumerate(shape, 1)),
                  {n: budget for n, (_, budget, _) in enumerate(shape, 1)})


def tower(n: int) -> int:
    """Stage-threshold sequence: t(0) = 0, t(n) = 2^(2*t(n-1)).

    Grows as 0, 1, 4, 256, 2^512, ...; past that the values stop being
    materially representable, which is what caps how many stages the
    conservative construction can run.
    """
    if n < 0:
        raise ValueError("tower index must be a natural")
    value = 0
    for _ in range(n):
        value = 2 ** (2 * value)
    return value


# E runs stages 1..E_STAGE_CAP only: t(E_STAGE_CAP + 2) is not representable.
E_STAGE_CAP = 3


def build_E(corpus: Corpus, base: OracleSet) -> OracleSet:
    """Conservative-plus-injections construction on top of a functional base.

    Starts from every member of the base set. Problems whose pointwise
    complement is also in the corpus never receive anything further, so on
    that subset the result is identical to the base. For the rest, a stage
    fires only when its threshold chain
    t(n-1) < log2(k) <= t(n) <= p(k) < t(n+1) holds and p(t(n)) >= 2^t(n);
    then the block scanner, capped at p(k) queries, runs against the members
    so far, and if it rejects with blocks still unscanned, the code of the
    next unscanned block is injected. Injected codes are indistinguishable
    from trusted ones to later runs, which is exactly how they corrupt
    verdicts on the problems that received them. No stage can meet an
    earlier stage's injection, though it asks the members so far: the bounds
    on log2(k) confine stages 1, 2 and 3 to k = 2, k = 3..16 and k >= 17,
    and problems of different k never share a block code.

    Only the problems at positions 1..E_STAGE_CAP (3) get a stage, because
    t(E_STAGE_CAP + 2) is not representable; the rest keep the base's codes.
    """
    if base.corpus_hash != corpus.digest():
        raise ConfigurationError("base oracle was built over a different corpus")
    prov: Provenance = dict(base.provenance)
    kappa = kappa_ids(corpus)
    for n, f in enumerate(corpus.formulas[:E_STAGE_CAP], start=1):
        lo, mid, hi = tower(n - 1), tower(n), tower(n + 1)
        budget = corpus.budget_for(f.id)
        p_k = budget.steps_below(f.k, hi)
        if (f.id in kappa or not lo < math.log2(f.k) <= mid <= p_k < hi
                or budget.steps_below(mid, 2**mid) < 2**mid):
            continue
        staged = solve_with_A(f, prov, max_queries=p_k)
        if staged.accepted or staged.queries >= f.k + 1:
            continue
        t_next = staged.queries
        code = partition_code(f, t_next)
        if code not in prov:
            prov[code] = (
                f.id,
                f"step 7: injected block t={t_next}, the next unevaluated after a capped reject",
            )
    return _finish("E", prov, corpus)


def build_F(corpus: Corpus) -> OracleSet:
    """Two-sided functional set, built as its two untagged sides.

    The np side holds the accepting-block codes, for the direct solver: it
    relabels the notes of the corpus's A set, which `build_A` makes once per
    corpus, so it is read, not built again. The co side holds one sentinel
    per problem with no accepting assignment (its first canonical input
    code), for the one-query complement solver. Both sides answer correctly
    in polynomial queries, which is the behavioral outcome the construction
    exists for. No code is tagged here: the set's TaggedUnion pairs each code
    only when it is read.
    """
    direct = build_A(corpus)
    np_side = {code: (fid, f"np side, {note}") for code, (fid, note) in direct.provenance.items()}
    co_side = {
        input_code_at(f.id, 0, f.k): (
            f.id, "co side: sentinel for a problem with no accepting assignment")
        for f in corpus.formulas if not truth_table(f)
    }
    return OracleSet("F", TaggedUnion(np_side, co_side), direct.corpus_ids, direct.corpus_hash)


def save_oracle(oracle: OracleSet, path) -> None:
    """Write an oracle set as JSON, atomically (temp file, then rename).
    Codes are written as decimal strings, each turned into text once: the
    members are the provenance keys, as `load_oracle` demands."""
    with code_digit_limit():
        notes = {str(code): [fid, note] for code, (fid, note) in sorted(oracle.provenance.items())}
    doc = {
        "kind": oracle.kind,
        "members": list(notes),
        "corpus_hash": oracle.corpus_hash,
        "corpus_ids": sorted(oracle.corpus_ids),
        "provenance": notes,
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


ORACLE_FILE_KEYS = ("kind", "members", "corpus_hash", "corpus_ids", "provenance")


def _is_decimal(code) -> bool:
    """A code as `save_oracle` writes it: decimal digits, no leading zero."""
    return (isinstance(code, str) and code.isascii() and code.isdigit()
            and (code == "0" or code[0] != "0"))


def _is_note(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is int
            and isinstance(entry[1], str))


def load_oracle(path, corpus: Corpus | None = None) -> OracleSet:
    """Read an oracle set back; the set is constructed only after the whole
    document validates, so a corrupted file never yields a partial set.

    The document must hold exactly the keys `save_oracle` writes, its members
    must be decimal strings without leading zeros, each listed once, and they
    must be the provenance keys: a member without provenance, or provenance
    without a member, is refused. So no two spellings of one code can merge.
    Corpus ids must be distinct integers and provenance entries [integer,
    string] pairs; nothing is coerced. With a corpus given, a hash mismatch
    is rejected as well.
    """
    with code_digit_limit():
        doc = read_json(path, OracleFileError)
        check_keys(doc, str(path), ORACLE_FILE_KEYS, error=OracleFileError)
        codes, notes = doc["members"], doc["provenance"]
        if not (isinstance(codes, list) and all(_is_decimal(code) for code in codes)):
            raise OracleFileError(
                f"{path}: 'members' must be a list of decimal strings without leading zeros")
        if len(set(codes)) < len(codes):
            raise OracleFileError(f"{path}: 'members' lists a code more than once")
        if not (isinstance(notes, dict) and notes.keys() == set(codes)):
            raise OracleFileError(f"{path}: 'members' differ from the 'provenance' keys")
        if not all(_is_note(entry) for entry in notes.values()):
            raise OracleFileError(f"{path}: 'provenance' entries must be [integer, string] pairs")
        ids = doc["corpus_ids"]
        if not (isinstance(ids, list) and all(type(i) is int for i in ids)):
            raise OracleFileError(f"{path}: 'corpus_ids' must be a list of integers")
        if len(set(ids)) < len(ids):
            raise OracleFileError(f"{path}: 'corpus_ids' lists an id more than once")
        try:
            prov = {int(code): tuple(entry) for code, entry in notes.items()}
        except ValueError as exc:
            raise OracleFileError(f"{path}: malformed oracle document ({exc})") from exc
    kind, corpus_hash = doc["kind"], doc["corpus_hash"]
    if kind not in KINDS:
        raise OracleFileError(f"{path}: unknown oracle kind {kind!r}")
    if corpus is not None and corpus.digest() != corpus_hash:
        raise OracleFileError(f"{path}: oracle was built over a different corpus")
    return OracleSet(kind, prov, frozenset(ids), corpus_hash)
