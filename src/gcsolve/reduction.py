"""Instance factories reducing 1-in-k clause satisfiability to group
constraints, plus the brute-force clause checker used to cross-validate.

Both constructions act on functions into F_p.  The first permutes, per
clause, the p^k assignments of the clause's variables by translation; the
second uses one p-cycle per variable plus one p-cycle per clause tracking
the sum of the clause's variables.  Either way each block of points is a
copy of F_p^k (or F_p) numbered in lex order, so every group element is a
translation built by frame.translation_perms, whose one table per call
builds each distinct block translation once for all the generators.  The
generators are built first, and in the first construction a point's
constraint set is its images under its clause's variables' generators,
so no translation is built outside that call.  The constraint sets are
built as frozensets of points in 1..n and the GcInstance is made from
them directly, with no second pass over what was just built, and every
instance is handed its orbits (GcInstance._trusted): each clause block
of the first gets the k unit shifts of its distinct variables, and each
block of the second is shifted by 1, except an empty clause's
(strict=False only), which is fixed, so it is p one-point orbits, blocks
of dimension 0.  Both refuse a domain of more than MAX_N points before
they build any of it.  Neither builds the points' labels or the map from
structured keys to points: ReducedInstance derives them from the clause
set when they are first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .constraint import GcInstance
from .fpalg import check_prime
from .frame import translation_perms
from .instfile import InstanceFormatError, _numbered_tokens
from .perm import Permutation, check_size


class ClauseFormatError(InstanceFormatError):
    """A malformed clause file, its message prefixed by the line's number."""


class _ClauseReader:
    """Checks clauses over an alphabet one at a time, as a clause file's
    lines are read: each clause has distinct, declared variables and the
    size of the first; it is returned sorted in alphabet order."""

    def __init__(self, sigma: tuple[str, ...]):
        if len(set(sigma)) != len(sigma):
            raise ValueError("duplicate variable names")
        self.sigma = sigma
        self.pos = {v: i for i, v in enumerate(sigma)}
        self.k = None

    def __call__(self, clause: tuple[str, ...]) -> tuple[str, ...]:
        if len(set(clause)) != len(clause):
            raise ValueError(f"repeated variable in clause {clause}")
        for v in clause:
            if v not in self.pos:
                raise ValueError(f"undeclared variable {v!r}")
        if self.k is None:
            self.k = len(clause)
        elif len(clause) != self.k:
            raise ValueError(f"clauses have mixed sizes {sorted({self.k, len(clause)})}")
        return tuple(sorted(clause, key=self.pos.__getitem__))


@dataclass(frozen=True)
class ClauseSet:
    """Positive clauses over an ordered variable alphabet; every clause has
    the same size k and is stored sorted in alphabet order."""

    sigma: tuple[str, ...]
    clauses: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        read = _ClauseReader(self.sigma)
        object.__setattr__(self, "clauses", tuple(map(read, self.clauses)))

    @property
    def k(self) -> int:
        return len(self.clauses[0]) if self.clauses else 0


def parse_clauses(text: str) -> ClauseSet:
    """Parse the clause file format: a `vars` header line, then one clause
    of space-separated variable names per line.  Each line is checked as
    it is read, so an error names its line."""
    read = None
    clauses = []
    for lineno, tokens in _numbered_tokens(text):
        try:
            if read is None:
                if tokens[0] != "vars" or len(tokens) < 2:
                    raise ValueError("expected `vars <name>...` header")
                read = _ClauseReader(tuple(tokens[1:]))
            else:
                clauses.append(read(tuple(tokens)))
        except ValueError as exc:
            raise ClauseFormatError(str(exc), lineno) from None
    if read is None:
        raise ClauseFormatError("missing `vars` header")
    return ClauseSet(read.sigma, tuple(clauses))


def one_in_k_brute(s: ClauseSet) -> frozenset[str] | None:
    """Exhaustive search for an interpretation meeting every clause in
    exactly one variable; None when there is none.  Limited to 20
    variables (2^|sigma| subsets are scanned).  A subset is a mask with
    bit i for sigma[i], and the first mask that meets every clause's mask
    in exactly one bit is returned."""
    if len(s.sigma) > 20:
        raise ValueError(f"alphabet too large for brute force: {len(s.sigma)} > 20")
    bit = {v: 1 << i for i, v in enumerate(s.sigma)}
    clauses = [sum(map(bit.__getitem__, c)) for c in s.clauses]
    for mask in range(1 << len(s.sigma)):
        for c in clauses:
            if (mask & c).bit_count() != 1:
                break
        else:
            return frozenset(v for v in s.sigma if mask & bit[v])
    return None


@dataclass(frozen=True)
class ReducedInstance:
    """A group-constraint instance produced from a clause set, with the
    bookkeeping needed to name points and map assignments to witnesses.
    The labels and the point map are derived from the clause set on first
    read, so a reduction builds only its instance."""

    instance: GcInstance
    clause_set: ClauseSet
    p: int
    kind: str

    def _keys_and_labels(self):
        """(key, label) of every point, in order of the points."""
        s, p = self.clause_set, self.p
        if self.kind == "one-in-k":
            # lex order is position order, so one enumeration numbers every
            # block
            words = list(itertools.product(range(p), repeat=s.k))
            names = ["".join(map(str, w)) for w in words]
            return [((t, w), f"c{t}:{name}")
                    for t in range(len(s.clauses)) for w, name in zip(words, names)]
        return ([(("var", v, x), f"{v}:{x}") for v in s.sigma for x in range(p)]
                + [(("clause", t, y), f"c{t}:{y}")
                   for t in range(len(s.clauses)) for y in range(p)])

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The label of each point, point 1's first."""
        return tuple(label for _, label in self._keys_and_labels())

    @cached_property
    def _points(self) -> dict:
        """Structured key -> point id."""
        return {key: a for a, (key, _) in enumerate(self._keys_and_labels(), start=1)}

    def point(self, key) -> int:
        """Point id for a structured key (see the reduction that built this)."""
        return self._points[key]

    def morphism(self, u: dict) -> Permutation:
        """Image in the permutation group of an assignment u: sigma -> F_p."""
        s, p = self.clause_set, self.p
        values = {v: u.get(v, 0) % p for v in s.sigma}
        if self.kind == "one-in-k":
            return translation_perms(p, (s.k,) * len(s.clauses), [_one_in_k_shifts(s, values)])[0]
        return translation_perms(p, (1,) * (len(s.sigma) + len(s.clauses)),
                                 [_two_cstr_shifts(s, p, values)])[0]


def _one_in_k_shifts(s: ClauseSet, values: dict) -> list[int]:
    """Per clause, the values of the clause's variables: the translation
    of its block of assignments."""
    return [values.get(v, 0) for clause in s.clauses for v in clause]


def reduce_1in_k(s: ClauseSet, p: int) -> ReducedInstance:
    """Clause satisfiability as a k-constraint: per clause, the p^k
    assignments of its variables form one orbit permuted by translation,
    and each point's constraint set shifts it by one of the clause's
    variable indicators, that is, holds its images under the clause's
    variables' generators."""
    check_prime(p)
    k = s.k
    block = p**k
    check_size(block * len(s.clauses))
    gens = translation_perms(p, (k,) * len(s.clauses),
                             [_one_in_k_shifts(s, {v: 1}) for v in s.sigma])
    gen_of = dict(zip(s.sigma, gens))
    constraints = {}
    for t, clause in enumerate(s.clauses):
        off = t * block
        images = [gen_of[v].images[off:off + block] for v in clause]
        constraints.update(zip(range(off + 1, off + block + 1), map(frozenset, zip(*images))))
    # a clause's k variables are distinct, so its block gets the k unit
    # shifts and is one orbit
    inst = GcInstance._trusted(p, (block,) * len(s.clauses), gens, constraints)
    return ReducedInstance(inst, s, p, "one-in-k")


def _two_cstr_shifts(s: ClauseSet, p: int, values: dict) -> list[int]:
    """Each variable's cycle advanced by its value, and each clause's by the
    sum of its variables' values."""
    shifts = [values.get(v, 0) for v in s.sigma]
    return shifts + [sum(values.get(v, 0) for v in clause) % p for clause in s.clauses]


def reduce_2cstr(s: ClauseSet, p: int, strict: bool = True) -> ReducedInstance:
    """Clause satisfiability as a 2-constraint: one p-point orbit per
    variable (free to advance by 0 or 1) and one per clause (forced to
    advance by exactly 1, i.e. the clause's variable sum must be 1).

    The equivalence with 1-in-k satisfiability needs clauses of size
    exactly p; strict=False skips that size check so the construction can
    be inspected on other inputs.
    """
    check_prime(p)
    # every clause has the size of the first
    if strict and s.clauses and s.k != p:
        raise ValueError(f"clause {s.clauses[0]} has size {s.k}, expected exactly {p}")
    check_size(p * (len(s.sigma) + len(s.clauses)))
    constraints = {}
    for i in range(len(s.sigma)):
        for x in range(p):
            a = i * p + x + 1
            # a variable's point may stay or advance by one
            constraints[a] = frozenset((a, i * p + (x + 1) % p + 1))
    for t in range(len(s.clauses)):
        off = (len(s.sigma) + t) * p
        for y in range(p):
            # a clause's point must advance by one
            constraints[off + y + 1] = frozenset((off + (y + 1) % p + 1,))
    gens = translation_perms(p, (1,) * (len(s.sigma) + len(s.clauses)),
                             [_two_cstr_shifts(s, p, {v: 1}) for v in s.sigma])
    # a variable's block is shifted by 1 by its generator, and a clause's
    # by each of its variables', so each is one orbit; an empty clause's
    # block is fixed, p one-point orbits
    sizes = (p,) * len(s.sigma) + ((p,) if s.k else (1,) * p) * len(s.clauses)
    inst = GcInstance._trusted(p, sizes, gens, constraints)
    return ReducedInstance(inst, s, p, "two-cstr")
