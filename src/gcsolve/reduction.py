"""Instance factories reducing 1-in-k clause satisfiability to group
constraints, plus the brute-force clause checker used to cross-validate.

Both constructions act on functions into F_p.  The first permutes, per
clause, the p^k assignments of the clause's variables by translation; the
second uses one p-cycle per variable plus one p-cycle per clause tracking
the sum of the clause's variables.  Either way each block of points is a
copy of F_p^k (or F_p) numbered in lex order, so every group element is a
translation built by genbench.translation_perms, whose one table per call
builds each distinct block translation once for all the generators, and
the constraints are range-checked and kept as stated by
constraint.normalize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .constraint import GcInstance, normalize
from .fpalg import is_prime
from .frame import translation_positions
from .genbench import translation_perm, translation_perms
from .perm import Permutation


class ClauseFormatError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ClauseSet:
    """Positive clauses over an ordered variable alphabet; every clause has
    the same size k and is stored sorted in alphabet order."""

    sigma: tuple[str, ...]
    clauses: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(set(self.sigma)) != len(self.sigma):
            raise ValueError("duplicate variable names")
        pos = {v: i for i, v in enumerate(self.sigma)}
        canon = []
        for clause in self.clauses:
            if len(set(clause)) != len(clause):
                raise ValueError(f"repeated variable in clause {clause}")
            for v in clause:
                if v not in pos:
                    raise ValueError(f"undeclared variable {v!r}")
            canon.append(tuple(sorted(clause, key=pos.__getitem__)))
        sizes = {len(c) for c in canon}
        if len(sizes) > 1:
            raise ValueError(f"clauses have mixed sizes {sorted(sizes)}")
        object.__setattr__(self, "clauses", tuple(canon))

    @property
    def k(self) -> int:
        return len(self.clauses[0]) if self.clauses else 0


def parse_clauses(text: str) -> ClauseSet:
    """Parse the clause file format: a `vars` header line, then one clause
    of space-separated variable names per line."""
    sigma = None
    clauses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if sigma is None:
            if tokens[0] != "vars" or len(tokens) < 2:
                raise ClauseFormatError("expected `vars <name>...` header", lineno)
            sigma = tuple(tokens[1:])
            continue
        clauses.append(tuple(tokens))
    if sigma is None:
        raise ClauseFormatError("missing `vars` header")
    try:
        return ClauseSet(sigma, tuple(clauses))
    except ValueError as exc:
        raise ClauseFormatError(str(exc)) from None


def one_in_k_brute(s: ClauseSet) -> frozenset[str] | None:
    """Exhaustive search for an interpretation meeting every clause in
    exactly one variable; None when there is none.  Limited to 20
    variables (2^|sigma| subsets are scanned)."""
    if len(s.sigma) > 20:
        raise ValueError(f"alphabet too large for brute force: {len(s.sigma)} > 20")
    for mask in range(1 << len(s.sigma)):
        chosen = {v for i, v in enumerate(s.sigma) if mask >> i & 1}
        if all(len(chosen.intersection(c)) == 1 for c in s.clauses):
            return frozenset(chosen)
    return None


@dataclass(frozen=True)
class ReducedInstance:
    """A group-constraint instance produced from a clause set, with the
    bookkeeping needed to name points and map assignments to witnesses."""

    instance: GcInstance
    clause_set: ClauseSet
    p: int
    kind: str
    labels: tuple[str, ...]
    _points: dict

    def point(self, key) -> int:
        """Point id for a structured key (see the reduction that built this)."""
        return self._points[key]

    def morphism(self, u: dict) -> Permutation:
        """Image in the permutation group of an assignment u: sigma -> F_p."""
        values = {v: u.get(v, 0) % self.p for v in self.clause_set.sigma}
        if self.kind == "one-in-k":
            return _one_in_k_image(self.clause_set, self.p, values)
        return _two_cstr_image(self.clause_set, self.p, values)


def _one_in_k_shifts(s: ClauseSet, values: dict) -> list[int]:
    """Per clause, the values of the clause's variables: the translation
    of its block of assignments."""
    return [values.get(v, 0) for clause in s.clauses for v in clause]


def _one_in_k_image(s: ClauseSet, p: int, values: dict) -> Permutation:
    return translation_perm(p, (s.k,) * len(s.clauses), _one_in_k_shifts(s, values))


def reduce_1in_k(s: ClauseSet, p: int) -> ReducedInstance:
    """Clause satisfiability as a k-constraint: per clause, the p^k
    assignments of its variables form one orbit permuted by translation,
    and each point's constraint set shifts it by one of the clause's
    variable indicators."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    k = s.k
    block = p**k
    points = {}
    labels = []
    for t, clause in enumerate(s.clauses):
        for w in itertools.product(range(p), repeat=k):
            points[(t, w)] = t * block + sum(x * p ** (k - 1 - i) for i, x in enumerate(w)) + 1
            labels.append(f"c{t}:" + "".join(map(str, w)))
    n = block * len(s.clauses)
    gens = translation_perms(p, (k,) * len(s.clauses),
                             [_one_in_k_shifts(s, {v: 1}) for v in s.sigma])
    # each point may advance by one of the clause's variable indicators
    units = [translation_positions([int(j == i) for j in range(k)], p) for i in range(k)]
    cmap = {}
    for off in range(0, n, block):
        for r in range(block):
            cmap[off + r + 1] = {off + pos[r] + 1 for pos in units}
    inst = normalize(cmap.items(), n, gens, p)
    return ReducedInstance(inst, s, p, "one-in-k", tuple(labels), points)


def _two_cstr_shifts(s: ClauseSet, p: int, values: dict) -> list[int]:
    """Each variable's cycle advanced by its value, and each clause's by the
    sum of its variables' values."""
    shifts = [values.get(v, 0) for v in s.sigma]
    return shifts + [sum(values.get(v, 0) for v in clause) % p for clause in s.clauses]


def _two_cstr_image(s: ClauseSet, p: int, values: dict) -> Permutation:
    return translation_perm(p, (1,) * (len(s.sigma) + len(s.clauses)),
                            _two_cstr_shifts(s, p, values))


def reduce_2cstr(s: ClauseSet, p: int, strict: bool = True) -> ReducedInstance:
    """Clause satisfiability as a 2-constraint: one p-point orbit per
    variable (free to advance by 0 or 1) and one per clause (forced to
    advance by exactly 1, i.e. the clause's variable sum must be 1).

    The equivalence with 1-in-k satisfiability needs clauses of size
    exactly p; strict=False skips that size check so the construction can
    be inspected on other inputs.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if strict:
        for clause in s.clauses:
            if len(clause) != p:
                raise ValueError(
                    f"clause {clause} has size {len(clause)}, expected exactly {p}"
                )
    points = {}
    labels = []
    idx = 0
    for v in s.sigma:
        for x in range(p):
            idx += 1
            points[("var", v, x)] = idx
            labels.append(f"{v}:{x}")
    for t in range(len(s.clauses)):
        for y in range(p):
            idx += 1
            points[("clause", t, y)] = idx
            labels.append(f"c{t}:{y}")
    n = idx
    gens = translation_perms(p, (1,) * (len(s.sigma) + len(s.clauses)),
                             [_two_cstr_shifts(s, p, {v: 1}) for v in s.sigma])
    cmap = {}
    for v in s.sigma:
        for x in range(p):
            cmap[points[("var", v, x)]] = frozenset(
                {points[("var", v, x)], points[("var", v, (x + 1) % p)]}
            )
    for t in range(len(s.clauses)):
        for y in range(p):
            cmap[points[("clause", t, y)]] = frozenset({points[("clause", t, (y + 1) % p)]})
    inst = normalize(cmap.items(), n, gens, p)
    return ReducedInstance(inst, s, p, "two-cstr", tuple(labels), points)
