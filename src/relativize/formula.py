"""CNF formulas, assignment enumeration, and the brute-force ground-truth solver.

Everything downstream (oracle construction, solvers, experiments) leans on one
shared convention: assignments are enumerated in canonical order, where the
assignment with index e in [0, 2^k) is the k-bit little-endian reading of e
(bit j of e gives the value of literal j). Oracle builders and the solvers
that run against them must agree on "the next unexamined assignment", so the
order is fixed here and nowhere else.

The same order indexes a problem's truth table: one 2^k-bit integer whose bit
e is set iff assignment e is accepted. Every exhaustive question (is there a
witness, which is the first, how many are there, which true-count blocks hold
one) is read from that integer with bit operations instead of a 2^k loop; the
per-assignment `evaluate` stays as the independent reference it is tested
against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache, cached_property
from string import ascii_lowercase

from .errors import CapacityError, ConfigurationError, DimensionError

Assignment = tuple[bool, ...]
Clause = tuple[tuple[int, bool], ...]

DEFAULT_ENUMERATION_CAP = 20


def enumeration_cap() -> int:
    """Active cap on literal counts for exhaustive work (RELATIVIZE_CAP overrides).

    A RELATIVIZE_CAP that is not a non-empty string of ASCII digits is a
    ConfigurationError: `int` alone would also read "1_0", " 7 ", "+8" and
    non-ASCII digits."""
    raw = os.environ.get("RELATIVIZE_CAP")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    if not (raw.isascii() and raw.isdigit()):
        raise ConfigurationError(f"RELATIVIZE_CAP must be a non-negative integer, got {raw!r}")
    return int(raw)


def check_enumerable(k: int) -> int:
    limit = enumeration_cap()
    if k > limit:
        raise CapacityError(f"k={k} exceeds the enumeration cap of {limit} (2^{k} assignments);"
                            " set RELATIVIZE_CAP to raise it")
    return k


def default_literals(k: int) -> tuple[str, ...]:
    """Literal names a, b, c, ... (xN beyond 26)."""
    if k <= 26:
        return tuple(ascii_lowercase[:k])
    return tuple(f"x{j}" for j in range(k))


@cache
def literal_masks(k: int) -> tuple[tuple[int, int], ...]:
    """Per-literal truth tables over the 2^k canonical assignments.

    Entry j is (negative, positive): bit e of the positive mask is set iff
    literal j is true in assignment e, i.e. 2^j zeros then 2^j ones, repeated.
    Built from one period by doubling, k - j - 1 shift-and-ORs per literal;
    no division and no 2^k loop.
    """
    width = 1 << k
    full = (1 << width) - 1
    masks = []
    for j in range(k):
        run = 1 << j
        positive, span = ((1 << run) - 1) << run, 2 * run
        while span < width:
            positive |= positive << span
            span *= 2
        masks.append((full ^ positive, positive))
    return tuple(masks)


@cache
def block_masks(k: int) -> tuple[int, ...]:
    """Popcount-block masks: bit e of entry t is set iff assignment e has
    exactly t true literals, for t = 0..k.

    Built by the recurrence P_k[t] = P_{k-1}[t] | P_{k-1}[t-1] << 2^(k-1):
    the upper half of the space is the lower half with literal k-1 set.
    """
    if k == 0:
        return (1,)
    prev = block_masks(k - 1) + (0,)
    shift = 1 << (k - 1)
    return tuple(prev[t] | (prev[t - 1] << shift if t else 0) for t in range(k + 1))


def first_accepted(table: int) -> int:
    """Index of the lowest set bit of a truth table: its first accepted
    assignment in canonical order. The table must be nonzero."""
    return (table & -table).bit_length() - 1


def truth_table(p) -> int:
    """The problem's truth table, after checking k against the enumeration cap.

    Every problem family exposes `truth_table`, cached on the instance: bit e
    is set iff assignment e (canonical order) is accepted. Reads go through
    here so the cap fires before any exponential work.
    """
    check_enumerable(p.k)
    return p.truth_table


@dataclass(frozen=True)
class Formula:
    """A CNF formula: a conjunction of disjunctive clauses over k named literals.

    Clauses hold (literal index, polarity) pairs; polarity True is the positive
    literal. An empty clause list is the trivially true formula. `id` is the
    formula's corpus index and plays no part in its structure.
    """

    id: int
    literals: tuple[str, ...]
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple([str(name) for name in self.literals]))
        object.__setattr__(
            self,
            "clauses",
            tuple([tuple([(int(i), bool(p)) for i, p in clause]) for clause in self.clauses]),
        )
        k = len(self.literals)
        if k < 1:
            raise ValueError("a formula needs at least one literal")
        if len(set(self.literals)) != k:
            raise ValueError("literal names must be distinct")
        for clause in self.clauses:
            if not clause:
                raise ValueError("clauses must be nonempty")
            if len(set(clause)) != len(clause):
                raise ValueError(f"duplicate (index, polarity) pair in clause {clause}")
            for i, _ in clause:
                if not 0 <= i < k:
                    raise ValueError(f"literal index {i} out of range for k={k}")

    @property
    def k(self) -> int:
        return len(self.literals)

    def accepts(self, a: Assignment) -> bool:
        """True iff the formula evaluates true under the assignment."""
        return evaluate(self, a)

    @cached_property
    def truth_table(self) -> int:
        """AND over clauses of the OR of literal masks; bit e is set iff
        assignment e satisfies the formula. Computed once per instance."""
        masks = literal_masks(self.k)
        table = (1 << (1 << self.k)) - 1
        for clause in self.clauses:
            satisfied = 0
            for i, pol in clause:
                satisfied |= masks[i][pol]
            table &= satisfied
        return table

    def canonical_key(self) -> str:
        """Deterministic structural serialization: sorted clauses, then literal names.

        Formulas differing only in clause order share a key; any structural
        difference (including literal names) changes it. Cached on the instance.
        """
        cache = vars(self)
        key = cache.get("_canonical_key")
        if key is None:
            key = cache["_canonical_key"] = json.dumps(
                [sorted(map(sorted, self.clauses)), self.literals], separators=(",", ":"))
        return key


def evaluate(f: Formula, a: Assignment) -> bool:
    """CNF semantics: every clause has at least one literal matching the assignment."""
    if len(a) != f.k:
        raise DimensionError(f"assignment has {len(a)} values, formula {f.id} has k={f.k}")
    return all(any(a[i] == pol for i, pol in clause) for clause in f.clauses)


def assignment_from_index(e: int, k: int) -> Assignment:
    """Assignment number e in canonical order: bit j of e is the value of literal j."""
    return tuple(bool((e >> j) & 1) for j in range(k))


@dataclass(frozen=True)
class SatVerdict:
    """Ground-truth record from the exhaustive solver."""

    satisfiable: bool
    witness: Assignment | None
    satisfying_count: int
    assignments_examined: int


def brute_force_sat(f) -> SatVerdict:
    """Exhaustive satisfiability check: first witness in canonical order, exact model count.

    Decides over all 2^k assignments at once by reading the problem's truth
    table: satisfiable iff the table is nonzero, the model count is its
    popcount, the witness its lowest set bit. `assignments_examined` is the
    size of the space the verdict covers (2^k), a property of the model, not
    of a loop. Works for any problem exposing `k` and `truth_table`; tests
    check it against a per-assignment `evaluate` loop.
    """
    table = truth_table(f)
    witness = assignment_from_index(first_accepted(table), f.k) if table else None
    return SatVerdict(table != 0, witness, table.bit_count(), 1 << f.k)

